"""Compact binary encoding of XML data trees.

Serialized-text storage makes every access pay a full parse; this module
is the alternative built once at publish time: a *preorder node table*
whose tag/attribute names and data values are interned in a per-collection
:class:`StringPool`.

The table is stored in parallel arrays (kind, name id, value id, parent
index, explicit ``node_id``); preorder position doubles as a clustered
node range — the descendants of node ``i`` occupy exactly the positions
``(i, i + subtree_size(i))``. Subtree sizes are derived from the parent
array, so the persistent form stays minimal.

Round-trip contract: ``BinaryXMLDocument.encode(doc).materialize()``
reproduces ``doc`` exactly — structure, values, and ``node_id``s (the
vertical-reconstruction keys, which fragments keep non-contiguous).
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterator, Optional

from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import NodeKind, XMLNode

#: Node-kind bytes of the table (order mirrors :class:`NodeKind`).
KIND_ELEMENT = 0
KIND_ATTRIBUTE = 1
KIND_TEXT = 2

_KIND_TO_BYTE = {
    NodeKind.ELEMENT: KIND_ELEMENT,
    NodeKind.ATTRIBUTE: KIND_ATTRIBUTE,
    NodeKind.TEXT: KIND_TEXT,
}
_BYTE_TO_KIND = {code: kind for kind, code in _KIND_TO_BYTE.items()}

_POOL_MAGIC = b"PXSP"
_DOC_MAGIC = b"PXB1"


class StringPool:
    """Append-only interning of tag/attribute names and data values.

    One pool serves a whole collection, so repeated names ("Item",
    "Description", …) are stored once regardless of document count. Ids
    are dense and stable — persistence writes the pool once next to the
    binary documents and reloading never reparses any XML.
    """

    __slots__ = ("_strings", "_ids")

    def __init__(self, strings: Optional[list[str]] = None):
        self._strings: list[str] = list(strings) if strings else []
        self._ids: dict[str, int] = {
            value: index for index, value in enumerate(self._strings)
        }

    def intern(self, value: str) -> int:
        """Id of ``value``, adding it to the pool when new."""
        found = self._ids.get(value)
        if found is not None:
            return found
        index = len(self._strings)
        self._strings.append(value)
        self._ids[value] = index
        return index

    def get(self, index: int) -> str:
        return self._strings[index]

    def __len__(self) -> int:
        return len(self._strings)

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Persistent form: magic, count, length-prefixed UTF-8 strings."""
        parts = [_POOL_MAGIC, struct.pack("!I", len(self._strings))]
        for value in self._strings:
            data = value.encode("utf-8")
            parts.append(struct.pack("!I", len(data)))
            parts.append(data)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StringPool":
        if data[:4] != _POOL_MAGIC:
            raise ValueError("not a PartiX string pool")
        (count,) = struct.unpack_from("!I", data, 4)
        offset = 8
        strings: list[str] = []
        for _ in range(count):
            (size,) = struct.unpack_from("!I", data, offset)
            offset += 4
            strings.append(data[offset : offset + size].decode("utf-8"))
            offset += size
        if offset != len(data):
            raise ValueError("string pool length does not match its count")
        return cls(strings)


class BinaryXMLDocument:
    """One document as a preorder node table over a shared pool.

    Parallel arrays, all indexed by preorder position:

    * ``kinds[i]``    — KIND_ELEMENT / KIND_ATTRIBUTE / KIND_TEXT;
    * ``names[i]``    — pool id of the tag/attribute name (-1 for text);
    * ``values[i]``   — pool id of the data value (-1 when none);
    * ``parents[i]``  — preorder position of the parent (-1 for the root);
    * ``node_ids[i]`` — the document's stable node id (fragments keep the
      source document's ids, so these are explicit, not positional);
    * ``sizes[i]``    — subtree size including self (derived).
    """

    __slots__ = (
        "pool",
        "kinds",
        "names",
        "values",
        "parents",
        "node_ids",
        "sizes",
    )

    def __init__(
        self,
        pool: StringPool,
        kinds: bytearray,
        names: array,
        values: array,
        parents: array,
        node_ids: array,
    ):
        self.pool = pool
        self.kinds = kinds
        self.names = names
        self.values = values
        self.parents = parents
        self.node_ids = node_ids
        self.sizes = _subtree_sizes(parents)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def encode(cls, document: XMLDocument, pool: StringPool) -> "BinaryXMLDocument":
        """Encode a parsed document into the table (interning via ``pool``)."""
        kinds = bytearray()
        names = array("q")
        values = array("q")
        parents = array("q")
        node_ids = array("q")
        stack: list[tuple[XMLNode, int]] = [(document.root, -1)]
        while stack:
            node, parent = stack.pop()
            index = len(kinds)
            kinds.append(_KIND_TO_BYTE[node.kind])
            names.append(pool.intern(node.label) if node.label is not None else -1)
            values.append(pool.intern(node.value) if node.value is not None else -1)
            parents.append(parent)
            node_ids.append(node.node_id)
            for child in reversed(node.children):
                stack.append((child, index))
        return cls(pool, kinds, names, values, parents, node_ids)

    def materialize(
        self, name: Optional[str] = None, origin: Optional[str] = None
    ) -> XMLDocument:
        """Decode back to a DOM tree — the inverse of :meth:`encode`.

        Nodes are wired directly (no ``append`` re-validation: the table
        came from a tree that already satisfied the structural rules), so
        decoding skips tokenization entirely.
        """
        pool = self.pool
        count = len(self.kinds)
        nodes: list[XMLNode] = [None] * count  # type: ignore[list-item]
        for i in range(count):
            node = XMLNode.__new__(XMLNode)
            node.kind = _BYTE_TO_KIND[self.kinds[i]]
            name_id = self.names[i]
            value_id = self.values[i]
            node.label = pool.get(name_id) if name_id >= 0 else None
            node.value = pool.get(value_id) if value_id >= 0 else None
            node.children = []
            node.node_id = self.node_ids[i]
            node._content_kind = None
            parent = self.parents[i]
            if parent < 0:
                node.parent = None
            else:
                parent_node = nodes[parent]
                node.parent = parent_node
                parent_node.children.append(node)
                if node.kind is NodeKind.TEXT:
                    parent_node._content_kind = NodeKind.TEXT
                elif node.kind is NodeKind.ELEMENT:
                    parent_node._content_kind = NodeKind.ELEMENT
            nodes[i] = node
        return XMLDocument(
            nodes[0], name=name, assign_ids=False, origin=origin
        )

    # ------------------------------------------------------------------
    # Structure (all range based — no DOM involved)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    def children(self, index: int) -> Iterator[int]:
        """Preorder positions of the children of node ``index``."""
        end = index + self.sizes[index]
        child = index + 1
        while child < end:
            yield child
            child += self.sizes[child]

    def descendant_range(self, index: int) -> range:
        """The contiguous preorder slice holding the strict descendants."""
        return range(index + 1, index + self.sizes[index])

    def name_of(self, index: int) -> Optional[str]:
        name = self.names[index]
        return self.pool.get(name) if name >= 0 else None

    def path_labels(self, index: int) -> tuple[str, ...]:
        """Root-to-node label path (attributes prefixed ``@``), text skipped."""
        labels: list[str] = []
        node = index
        while node >= 0:
            kind = self.kinds[node]
            if kind != KIND_TEXT:
                name = self.name_of(node) or ""
                labels.append("@" + name if kind == KIND_ATTRIBUTE else name)
            node = self.parents[node]
        labels.reverse()
        return tuple(labels)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Persistent form; the pool is stored separately (per collection)."""
        count = len(self.kinds)
        parts = [
            _DOC_MAGIC,
            struct.pack("!I", count),
            bytes(self.kinds),
        ]
        for table in (self.names, self.values, self.parents, self.node_ids):
            parts.append(struct.pack(f"!{count}q", *table))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, pool: StringPool) -> "BinaryXMLDocument":
        if data[:4] != _DOC_MAGIC:
            raise ValueError("not a PartiX binary document")
        (count,) = struct.unpack_from("!I", data, 4)
        offset = 8
        kinds = bytearray(data[offset : offset + count])
        if len(kinds) != count:
            raise ValueError("truncated binary document")
        offset += count
        tables = []
        for _ in range(4):
            table = array("q", struct.unpack_from(f"!{count}q", data, offset))
            offset += 8 * count
            tables.append(table)
        names, values, parents, node_ids = tables
        return cls(pool, kinds, names, values, parents, node_ids)


def _subtree_sizes(parents: array) -> array:
    """Subtree sizes (self included) from the parent array alone."""
    count = len(parents)
    sizes = array("q", [1] * count)
    for i in range(count - 1, 0, -1):
        sizes[parents[i]] += sizes[i]
    return sizes
