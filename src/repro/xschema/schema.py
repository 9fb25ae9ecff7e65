"""XML schemas: element type declarations with cardinalities.

The paper treats element names as "names of data types, described in a DTD
or XML Schema" (§3.1), and documents *satisfy* a type when their tree can
be derived from the schema grammar. We implement a pragmatic structural
schema language:

* an :class:`ElementDecl` declares one element type: its attributes, and
  either simple content (an atomic type) or a *sequence* content model of
  child element references, each with ``min_occurs``/``max_occurs``
  cardinalities (``max_occurs=None`` means unbounded, the ``1..n`` of the
  paper's Figure 1);
* a :class:`Schema` is a named set of declarations supporting validation
  (:meth:`Schema.satisfies`) and static path analysis.

Path analysis is what the fragmentation layer needs: Definition 3 restricts
a vertical fragment's path ``P`` to nodes whose cardinality along the path
cannot exceed one (unless a positional step ``e[i]`` pins one occurrence),
"so that the fragmentation results in well-formed documents".
:meth:`Schema.max_path_cardinality` decides this statically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.datamodel.tree import NodeKind, XMLNode
from repro.errors import SchemaError, ValidationError
from repro.xschema.types import SimpleType

UNBOUNDED: Optional[int] = None


@dataclass(frozen=True)
class AttributeDecl:
    """Declaration of one attribute of an element type."""

    name: str
    type: SimpleType = SimpleType.STRING
    required: bool = True


@dataclass(frozen=True)
class ChildDecl:
    """One entry of a sequence content model: a typed child with cardinality.

    ``max_occurs=None`` denotes unbounded (``n``). The paper's Figure 1
    writes these as ``0..1``, ``1..n`` etc., defaulting to ``1..1``.
    """

    type_name: str
    min_occurs: int = 1
    max_occurs: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.min_occurs < 0:
            raise SchemaError(f"negative min_occurs for {self.type_name!r}")
        if self.max_occurs is not None and self.max_occurs < self.min_occurs:
            raise SchemaError(
                f"max_occurs < min_occurs for {self.type_name!r}"
            )

    @property
    def unbounded(self) -> bool:
        return self.max_occurs is None

    def cardinality_str(self) -> str:
        upper = "n" if self.max_occurs is None else str(self.max_occurs)
        return f"{self.min_occurs}..{upper}"


@dataclass
class ElementDecl:
    """Declaration of one element type.

    Exactly one of ``content`` (simple type) or ``children`` (sequence of
    :class:`ChildDecl`) describes the element's content; an element with
    neither is empty. Element types are identified by their name, i.e. the
    label used in documents.
    """

    name: str
    attributes: list[AttributeDecl] = field(default_factory=list)
    children: list[ChildDecl] = field(default_factory=list)
    content: Optional[SimpleType] = None

    def __post_init__(self) -> None:
        if self.content is not None and self.children:
            raise SchemaError(
                f"element {self.name!r} cannot have both simple content and children"
            )

    def child_decl(self, type_name: str) -> Optional[ChildDecl]:
        for decl in self.children:
            if decl.type_name == type_name:
                return decl
        return None


class Schema:
    """A named set of element declarations."""

    def __init__(self, name: str, declarations: Iterable[ElementDecl] = ()):
        self.name = name
        self._decls: dict[str, ElementDecl] = {}
        for decl in declarations:
            self.declare(decl)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def declare(self, decl: ElementDecl) -> ElementDecl:
        if decl.name in self._decls:
            raise SchemaError(f"duplicate declaration for {decl.name!r}")
        self._decls[decl.name] = decl
        return decl

    def element(
        self,
        name: str,
        children: Iterable[ChildDecl] = (),
        attributes: Iterable[AttributeDecl] = (),
        content: Optional[SimpleType] = None,
    ) -> ElementDecl:
        """Declare an element type in one call (fluent schema building)."""
        return self.declare(
            ElementDecl(
                name=name,
                attributes=list(attributes),
                children=list(children),
                content=content,
            )
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> ElementDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise SchemaError(f"schema {self.name!r} has no type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    # ------------------------------------------------------------------
    # Validation (the "satisfies" relation of §3.1)
    # ------------------------------------------------------------------
    def satisfies(self, node: XMLNode, type_name: str) -> bool:
        """True when the tree rooted at ``node`` satisfies ``type_name``."""
        try:
            self.validate(node, type_name)
        except ValidationError:
            return False
        return True

    def validate(self, node: XMLNode, type_name: str) -> None:
        """Raise :class:`ValidationError` when ``node`` violates the type."""
        decl = self.get(type_name)
        if node.kind is not NodeKind.ELEMENT:
            raise ValidationError(f"expected an element of type {type_name!r}")
        if node.label != decl.name:
            raise ValidationError(
                f"expected element {decl.name!r}, found {node.label!r}"
            )
        self._validate_attributes(node, decl)
        if decl.content is not None:
            self._validate_simple_content(node, decl)
        else:
            self._validate_children(node, decl)

    def _validate_attributes(self, node: XMLNode, decl: ElementDecl) -> None:
        present = {a.label: a for a in node.attributes()}
        for attr_decl in decl.attributes:
            attr = present.pop(attr_decl.name, None)
            if attr is None:
                if attr_decl.required:
                    raise ValidationError(
                        f"element {decl.name!r} missing required attribute"
                        f" {attr_decl.name!r}"
                    )
                continue
            if not attr_decl.type.accepts(attr.value or ""):
                raise ValidationError(
                    f"attribute {attr_decl.name!r} of {decl.name!r} has invalid"
                    f" {attr_decl.type.value} value {attr.value!r}"
                )
        if present:
            undeclared = ", ".join(sorted(present))
            raise ValidationError(
                f"element {decl.name!r} has undeclared attributes: {undeclared}"
            )

    def _validate_simple_content(self, node: XMLNode, decl: ElementDecl) -> None:
        non_attr = [c for c in node.children if c.kind is not NodeKind.ATTRIBUTE]
        assert decl.content is not None
        if not non_attr:
            # Empty simple content is the lexical empty string.
            if not decl.content.accepts(""):
                raise ValidationError(
                    f"element {decl.name!r} requires {decl.content.value} content"
                )
            return
        if len(non_attr) > 1 or non_attr[0].kind is not NodeKind.TEXT:
            raise ValidationError(
                f"element {decl.name!r} must have simple content only"
            )
        value = non_attr[0].value or ""
        if not decl.content.accepts(value):
            raise ValidationError(
                f"element {decl.name!r} content {value!r} is not a valid"
                f" {decl.content.value}"
            )

    def _validate_children(self, node: XMLNode, decl: ElementDecl) -> None:
        elements = [c for c in node.children if c.kind is NodeKind.ELEMENT]
        if any(c.kind is NodeKind.TEXT for c in node.children) and decl.children:
            raise ValidationError(
                f"element {decl.name!r} has text where children were declared"
            )
        if not decl.children:
            if elements:
                raise ValidationError(
                    f"element {decl.name!r} was declared empty but has children"
                )
            return
        index = 0
        for child_decl in decl.children:
            count = 0
            while (
                index < len(elements)
                and elements[index].label == child_decl.type_name
            ):
                self.validate(elements[index], child_decl.type_name)
                count += 1
                index += 1
            if count < child_decl.min_occurs:
                raise ValidationError(
                    f"element {decl.name!r} requires at least"
                    f" {child_decl.min_occurs} {child_decl.type_name!r}"
                    f" children, found {count}"
                )
            if child_decl.max_occurs is not None and count > child_decl.max_occurs:
                raise ValidationError(
                    f"element {decl.name!r} allows at most"
                    f" {child_decl.max_occurs} {child_decl.type_name!r}"
                    f" children, found {count}"
                )
        if index < len(elements):
            raise ValidationError(
                f"element {decl.name!r} has unexpected child"
                f" {elements[index].label!r}"
            )

    # ------------------------------------------------------------------
    # Static path analysis
    # ------------------------------------------------------------------
    def type_at_path(self, steps: list[str], root_type: str) -> ElementDecl:
        """Element declaration reached by child steps from ``root_type``.

        ``steps`` are element labels *excluding* the root label itself.
        Raises :class:`SchemaError` when the path leaves the schema.
        """
        decl = self.get(root_type)
        for step in steps:
            child = decl.child_decl(step)
            if child is None:
                raise SchemaError(
                    f"type {decl.name!r} has no child {step!r} in schema"
                    f" {self.name!r}"
                )
            decl = self.get(child.type_name)
        return decl

    def max_path_cardinality(self, steps: list[str], root_type: str) -> Optional[int]:
        """Maximum number of nodes a child-step path may select per document.

        Returns None for unbounded. This implements the static side of the
        Definition 3 validity rule: a vertical fragment path must have
        maximum cardinality 1 (or use a positional step, which the caller
        accounts for separately).
        """
        decl = self.get(root_type)
        total: Optional[int] = 1
        for step in steps:
            child = decl.child_decl(step)
            if child is None:
                raise SchemaError(
                    f"type {decl.name!r} has no child {step!r} in schema"
                    f" {self.name!r}"
                )
            if child.max_occurs is None:
                total = None
            elif total is not None:
                total *= child.max_occurs
            decl = self.get(child.type_name)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema(name={self.name!r}, types={len(self._decls)})"
