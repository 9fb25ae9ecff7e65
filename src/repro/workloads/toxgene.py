"""ToXgene stand-in: template-based synthetic XML generation.

The paper generated its databases with ToXgene (Barbosa et al., WebDB'02),
a template-based generator. This module reproduces the capabilities those
databases need: element templates with cardinality ranges, value
generators (word text with optional injected terms, numbers, dates,
weighted choices, counters), and a seeded RNG for reproducibility.

Example::

    item = NodeTemplate(
        "Item",
        children=[
            child(NodeTemplate("Code", value=Counter("I-{:06d}"))),
            child(NodeTemplate("Section", value=Choice(SECTIONS, WEIGHTS))),
            child(NodeTemplate("Description", value=Words(30, 80,
                  inject=("good", 0.25)))),
            child(picture_template, min_occurs=0, max_occurs=5),
        ],
    )
    gen = ToXgene(seed=42)
    document = gen.generate_document(item, name="item-000001.xml")
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import XMLNode

#: A compact word list; realistic enough for full-text indexes to have a
#: non-trivial vocabulary, small enough to keep generation fast.
DEFAULT_VOCABULARY = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango uniform victor "
    "whiskey xray yankee zulu amber basic clever driven eager formal grand "
    "humble ideal joyful keen lively modest noble open proud quick rapid "
    "solid tender urban vivid warm young zesty bright calm deep"
).split()
DEFAULT_VOCABULARY = tuple(DEFAULT_VOCABULARY)


class ValueGenerator(abc.ABC):
    """Generates leaf text values."""

    @abc.abstractmethod
    def generate(self, rng: random.Random) -> str:
        ...


@dataclass
class Constant(ValueGenerator):
    """Always the same value."""

    value: str

    def generate(self, rng: random.Random) -> str:
        return self.value


@dataclass
class Counter(ValueGenerator):
    """A sequential counter formatted through ``fmt`` (e.g. ``"I-{:06d}"``)."""

    fmt: str = "{}"
    start: int = 1
    _next: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._next = self.start

    def generate(self, rng: random.Random) -> str:
        value = self.fmt.format(self._next)
        self._next += 1
        return value

    def reset(self) -> None:
        self._next = self.start


@dataclass
class Words(ValueGenerator):
    """``min_words..max_words`` random words, optionally injecting a term.

    ``inject=(term, probability)`` inserts ``term`` at a random position
    with the given probability — how the paper's databases get documents
    that do / do not match text-search predicates like
    ``contains(//Description, "good")``.
    """

    min_words: int
    max_words: int
    vocabulary: Sequence[str] = DEFAULT_VOCABULARY
    inject: Optional[tuple[str, float]] = None

    def generate(self, rng: random.Random) -> str:
        count = rng.randint(self.min_words, self.max_words)
        words = [rng.choice(self.vocabulary) for _ in range(count)]
        if self.inject is not None:
            term, probability = self.inject
            if rng.random() < probability:
                words.insert(rng.randrange(len(words) + 1), term)
        return " ".join(words)


@dataclass
class IntRange(ValueGenerator):
    """A uniform integer in ``[low, high]``."""

    low: int
    high: int

    def generate(self, rng: random.Random) -> str:
        return str(rng.randint(self.low, self.high))


@dataclass
class DecimalRange(ValueGenerator):
    """A uniform decimal in ``[low, high]`` with ``digits`` decimals."""

    low: float
    high: float
    digits: int = 2

    def generate(self, rng: random.Random) -> str:
        return f"{rng.uniform(self.low, self.high):.{self.digits}f}"


@dataclass
class DateRange(ValueGenerator):
    """An ISO date between two years (uniform per component)."""

    start_year: int = 2000
    end_year: int = 2005

    def generate(self, rng: random.Random) -> str:
        year = rng.randint(self.start_year, self.end_year)
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        return f"{year:04d}-{month:02d}-{day:02d}"


@dataclass
class Choice(ValueGenerator):
    """A weighted choice among fixed values (non-uniform distributions)."""

    values: Sequence[str]
    weights: Optional[Sequence[float]] = None

    def generate(self, rng: random.Random) -> str:
        if self.weights is None:
            return rng.choice(list(self.values))
        return rng.choices(list(self.values), weights=list(self.weights), k=1)[0]


@dataclass
class ChildSpec:
    """One child slot of a template, with its cardinality range."""

    template: "NodeTemplate"
    min_occurs: int = 1
    max_occurs: int = 1

    def occurrences(self, rng: random.Random) -> int:
        if self.min_occurs == self.max_occurs:
            return self.min_occurs
        return rng.randint(self.min_occurs, self.max_occurs)


def child(
    template: "NodeTemplate", min_occurs: int = 1, max_occurs: Optional[int] = None
) -> ChildSpec:
    """Shorthand :class:`ChildSpec` constructor (``max`` defaults to ``min``)."""
    return ChildSpec(
        template,
        min_occurs=min_occurs,
        max_occurs=max_occurs if max_occurs is not None else min_occurs,
    )


@dataclass
class NodeTemplate:
    """Template of one element: attributes, leaf value or child slots."""

    label: str
    children: list[ChildSpec] = field(default_factory=list)
    attributes: dict[str, ValueGenerator] = field(default_factory=dict)
    value: Optional[ValueGenerator] = None

    def instantiate(self, rng: random.Random) -> XMLNode:
        node = XMLNode.element(self.label)
        for name, generator in self.attributes.items():
            node.append(XMLNode.attribute(name, generator.generate(rng)))
        if self.value is not None:
            text = self.value.generate(rng)
            if text:
                node.append(XMLNode.text(text))
            return node
        for spec in self.children:
            for _ in range(spec.occurrences(rng)):
                node.append(spec.template.instantiate(rng))
        return node


class ToXgene:
    """The generator: templates + seeded RNG → documents/collections."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def generate_document(
        self, template: NodeTemplate, name: Optional[str] = None
    ) -> XMLDocument:
        return XMLDocument(template.instantiate(self.rng), name=name)

    def generate_documents(
        self,
        template: NodeTemplate,
        count: int,
        name_fmt: str = "doc-{:06d}.xml",
    ) -> list[XMLDocument]:
        return [
            self.generate_document(template, name=name_fmt.format(index))
            for index in range(count)
        ]
