"""AST for path expressions.

The paper (§3.1) defines a path expression as
``P := /e1/.../{ek | @ak}`` where each ``ex`` is an element name, the last
step may be an attribute ``@ak``, a step may be ``*`` (any element) or be
preceded by ``//`` (any sequence of descendants), and a step may carry a
positional qualifier ``e[i]`` selecting the i-th occurrence.

A :class:`PathExpr` is a sequence of :class:`Step` objects. Each step has
an axis (child or descendant), a node test (a name, ``*`` or an attribute
name) and an optional 1-based position.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Axis(enum.Enum):
    CHILD = "/"
    DESCENDANT = "//"


@dataclass(frozen=True)
class Step:
    """One step of a path expression."""

    axis: Axis
    name: str  # element name, "*", or attribute name when is_attribute
    is_attribute: bool = False
    position: Optional[int] = None  # 1-based, the "e[i]" qualifier

    def __post_init__(self) -> None:
        if self.is_attribute and self.name == "*":
            raise ValueError("attribute wildcard steps are not supported")
        if self.position is not None and self.position < 1:
            raise ValueError("positions are 1-based")

    @property
    def is_wildcard(self) -> bool:
        return self.name == "*"

    def __str__(self) -> str:
        text = self.axis.value
        text += ("@" + self.name) if self.is_attribute else self.name
        if self.position is not None:
            text += f"[{self.position}]"
        return text


@dataclass(frozen=True)
class PathExpr:
    """An absolute path expression (a tuple of steps)."""

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("path expressions need at least one step")
        for step in self.steps[:-1]:
            if step.is_attribute:
                raise ValueError("only the last step may be an attribute")

    # ------------------------------------------------------------------
    @property
    def last(self) -> Step:
        return self.steps[-1]

    @property
    def selects_attribute(self) -> bool:
        return self.last.is_attribute

    @property
    def has_descendant_axis(self) -> bool:
        return any(s.axis is Axis.DESCENDANT for s in self.steps)

    @property
    def has_wildcard(self) -> bool:
        return any(s.is_wildcard for s in self.steps)

    @property
    def is_simple(self) -> bool:
        """True for plain child-axis, non-wildcard, position-free paths.

        Simple paths admit exact static analysis (schema cardinality,
        prefix containment); the fragmentation layer prefers them.
        """
        return not self.has_descendant_axis and not self.has_wildcard and not any(
            s.position is not None for s in self.steps
        )

    def label_steps(self) -> list[str]:
        """Labels of a simple path (raises for non-simple paths)."""
        if not self.is_simple:
            raise ValueError(f"path {self} is not simple")
        return [
            ("@" + s.name) if s.is_attribute else s.name for s in self.steps
        ]

    # ------------------------------------------------------------------
    # Structural relations used by fragmentation
    # ------------------------------------------------------------------
    def is_prefix_of(self, other: "PathExpr") -> bool:
        """Exact prefix test for simple paths (Definition 3's "contained in").

        ``/a/b`` is a prefix of ``/a/b/c``. Non-simple paths are compared
        conservatively: a descendant axis or wildcard anywhere makes the
        test fall back to :meth:`may_contain`.
        """
        if self.is_simple and other.is_simple:
            if len(self.steps) > len(other.steps):
                return False
            return all(
                mine.name == theirs.name and mine.is_attribute == theirs.is_attribute
                for mine, theirs in zip(self.steps, other.steps)
            )
        return self.may_contain(other)

    def may_contain(self, other: "PathExpr") -> bool:
        """Conservative test: could ``other`` select nodes inside this path's
        selected subtrees? Used when wildcards or ``//`` defeat the exact
        prefix test. Errs on the side of True.
        """
        i = 0
        for step in self.steps:
            if step.axis is Axis.DESCENDANT or step.is_wildcard:
                return True  # cannot refute containment
            if i >= len(other.steps):
                return False
            other_step = other.steps[i]
            if other_step.axis is Axis.DESCENDANT or other_step.is_wildcard:
                return True
            if other_step.name != step.name:
                return False
            i += 1
        return True

    def __str__(self) -> str:
        return "".join(str(step) for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)
