"""Indexes of the storage engine, built over the binary node tables.

Mirrors what eXist set up for the paper's experiments ("some indexes were
automatically created by the eXist DBMS to speed up text search operations
and path expressions evaluation"):

* :class:`FullTextIndex` — inverted word index over all text content;
  answers ``contains`` predicates with a (sound) superset of documents.
* :class:`ValueIndex` — maps ``(element label, value)`` to documents.
* :class:`ElementIndex` — maps element/attribute labels to documents;
  answers existential path tests.
* :class:`PathIndex` — root-to-node label paths to documents.
* :class:`RangeIndex` — ordered values for ``<``/``>`` predicates.

Indexes ingest :class:`~repro.datamodel.binary.BinaryXMLDocument` tables
(one linear pass over the preorder arrays — no DOM). Every lookup
returns a sound superset of the documents that can match.
"""

from __future__ import annotations

import re

from repro.datamodel.binary import (
    KIND_ATTRIBUTE,
    KIND_ELEMENT,
    KIND_TEXT,
    BinaryXMLDocument,
)

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def tokenize_text(text: str) -> set[str]:
    """Lowercased word tokens of a text value."""
    return {match.group(0).lower() for match in _WORD_RE.finditer(text)}


def _value_at(binary: BinaryXMLDocument, index: int) -> str:
    value = binary.values[index]
    return binary.pool.get(value) if value >= 0 else ""


def _immediate_text(binary: BinaryXMLDocument, index: int) -> str | None:
    """Concatenated direct text children of an element, None when none."""
    texts = [
        _value_at(binary, child)
        for child in binary.children(index)
        if binary.kinds[child] == KIND_TEXT
    ]
    return "".join(texts) if texts else None


class FullTextIndex:
    """Inverted index: token → document names."""

    def __init__(self) -> None:
        self._postings: dict[str, set[str]] = {}

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            if binary.kinds[index] != KIND_ELEMENT:
                for token in tokenize_text(_value_at(binary, index)):
                    self._postings.setdefault(token, set()).add(name)

    def remove_document(self, name: str) -> None:
        for postings in self._postings.values():
            postings.discard(name)

    def lookup_substring(self, needle: str) -> set[str]:
        """Documents whose text *may* contain ``needle``.

        ``needle`` is split into word tokens; a candidate document must
        hold, for every needle token, some vocabulary token containing it
        as a substring (handles stemming-free matches like ``good`` in
        ``goodness``). A needle with no word characters cannot be pruned.
        """
        tokens = tokenize_text(needle)
        if not tokens:
            return self.all_documents()
        result: set[str] | None = None
        for token in tokens:
            matching: set[str] = set()
            for vocab, postings in self._postings.items():
                if token in vocab:
                    matching |= postings
            result = matching if result is None else (result & matching)
        return result or set()

    def all_documents(self) -> set[str]:
        union: set[str] = set()
        for postings in self._postings.values():
            union |= postings
        return union


class ValueIndex:
    """Equality index: (element label, exact value) → documents."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], set[str]] = {}
        self._labels: set[str] = set()

    def _add(self, key: tuple[str, str], name: str) -> None:
        self._entries.setdefault(key, set()).add(name)

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            kind = binary.kinds[index]
            if kind == KIND_ATTRIBUTE:
                label = "@" + (binary.name_of(index) or "")
                self._add((label, _value_at(binary, index)), name)
                self._labels.add(label)
            elif kind == KIND_ELEMENT:
                text = _immediate_text(binary, index)
                if text is not None:
                    label = binary.name_of(index) or ""
                    self._add((label, text), name)
                    self._labels.add(label)

    def remove_document(self, name: str) -> None:
        for postings in self._entries.values():
            postings.discard(name)

    def covers_label(self, label: str) -> bool:
        """Is this label indexed at all (i.e. can a lookup be trusted)?"""
        return label in self._labels

    def lookup(self, label: str, value: str) -> set[str]:
        """Documents holding an element/attribute ``label`` with ``value``."""
        return set(self._entries.get((label, value), set()))


class PathIndex:
    """Structural index: root-to-node label paths → documents.

    Keys are label sequences like ``("Store", "Items", "Item",
    "Section")`` — the structural summary eXist and most native XML
    stores maintain. It answers existential tests (does any document
    contain a node reachable by this path?) more precisely than the
    label-only :class:`ElementIndex`, including simple descendant
    patterns (suffix matching).
    """

    def __init__(self) -> None:
        self._postings: dict[tuple[str, ...], set[str]] = {}

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            if binary.kinds[index] == KIND_TEXT:
                continue
            key = binary.path_labels(index)
            self._postings.setdefault(key, set()).add(name)

    def remove_document(self, name: str) -> None:
        for postings in self._postings.values():
            postings.discard(name)

    def lookup_exact(self, labels: tuple[str, ...]) -> set[str]:
        """Documents containing a node at exactly this root-to-node path."""
        return set(self._postings.get(labels, set()))

    def lookup_suffix(self, labels: tuple[str, ...]) -> set[str]:
        """Documents containing a node whose path *ends with* ``labels``.

        Answers leading-``//`` patterns: ``//Items/Item`` matches any
        stored path with the suffix ``("Items", "Item")``.
        """
        result: set[str] = set()
        size = len(labels)
        for key, postings in self._postings.items():
            if len(key) >= size and key[-size:] == labels:
                result |= postings
        return result


class RangeIndex:
    """Ordered index: per element label, values sorted for range lookups.

    Answers ``<``, ``<=``, ``>`` and ``>=`` predicates with a sound
    document superset that mirrors the comparison semantics of
    :mod:`repro.paths.predicates`: values that parse as numbers compare
    numerically, everything else lexicographically — so a numeric probe
    must consult both the numeric entries (numerically) and the
    non-numeric entries (as strings), and a non-numeric probe consults
    every entry as a string.
    """

    def __init__(self) -> None:
        # label -> ([(float, doc)], [(raw, doc)] non-numeric, [(raw, doc)] all)
        self._numeric: dict[str, list[tuple[float, str]]] = {}
        self._non_numeric: dict[str, list[tuple[str, str]]] = {}
        self._all: dict[str, list[tuple[str, str]]] = {}
        self._sorted = True

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            if binary.kinds[index] != KIND_ELEMENT:
                continue
            raw = _immediate_text(binary, index)
            if raw is None:
                continue
            label = binary.name_of(index) or ""
            self._all.setdefault(label, []).append((raw, name))
            try:
                self._numeric.setdefault(label, []).append((float(raw), name))
            except ValueError:
                self._non_numeric.setdefault(label, []).append((raw, name))
        self._sorted = False

    def remove_document(self, name: str) -> None:
        for table in (self._numeric, self._non_numeric, self._all):
            for label in table:
                table[label] = [
                    entry for entry in table[label] if entry[1] != name
                ]

    def covers_label(self, label: str) -> bool:
        return label in self._all

    def lookup(self, label: str, op: str, value) -> set[str]:
        """Documents with a ``label`` node standing in ``op`` to ``value``."""
        self._ensure_sorted()
        result: set[str] = set()
        try:
            numeric_value: float | None = float(value)
        except (TypeError, ValueError):
            numeric_value = None
        if numeric_value is not None:
            result |= _range_scan(
                self._numeric.get(label, []), op, numeric_value
            )
            # Non-numeric stored values compare against str(value).
            result |= _range_scan(
                self._non_numeric.get(label, []), op, str(value)
            )
        else:
            result |= _range_scan(self._all.get(label, []), op, str(value))
        return result

    def _ensure_sorted(self) -> None:
        if self._sorted:
            return
        for table in (self._numeric, self._non_numeric, self._all):
            for label in table:
                table[label].sort(key=lambda entry: (entry[0],))
        self._sorted = True


def _range_scan(entries, op: str, value) -> set[str]:
    """Documents whose entry value satisfies ``value_entry op value``."""
    import bisect

    keys = [entry[0] for entry in entries]
    if op in ("<", "<="):
        cut = (
            bisect.bisect_left(keys, value)
            if op == "<"
            else bisect.bisect_right(keys, value)
        )
        return {doc for _, doc in entries[:cut]}
    if op in (">", ">="):
        cut = (
            bisect.bisect_right(keys, value)
            if op == ">"
            else bisect.bisect_left(keys, value)
        )
        return {doc for _, doc in entries[cut:]}
    raise ValueError(f"range lookup does not support operator {op!r}")


class ElementIndex:
    """Presence index: element/attribute label → document names."""

    def __init__(self) -> None:
        self._postings: dict[str, set[str]] = {}

    def add_document(self, name: str, binary: BinaryXMLDocument) -> None:
        for index in range(len(binary)):
            kind = binary.kinds[index]
            if kind == KIND_ELEMENT:
                self._postings.setdefault(
                    binary.name_of(index) or "", set()
                ).add(name)
            elif kind == KIND_ATTRIBUTE:
                self._postings.setdefault(
                    "@" + (binary.name_of(index) or ""), set()
                ).add(name)

    def remove_document(self, name: str) -> None:
        for postings in self._postings.values():
            postings.discard(name)

    def lookup(self, label: str) -> set[str]:
        """Documents containing at least one node with ``label``."""
        return set(self._postings.get(label, set()))
