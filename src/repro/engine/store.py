"""Document store: named collections of XML documents kept as binary
node tables.

Each document is stored once, as a compact **binary node table**
(:class:`~repro.datamodel.binary.BinaryXMLDocument`) built at publish
time over the collection's shared string pool. Indexes ingest the table
directly, and every access materializes the DOM from it — the engine's
counterpart of the per-document "pre-processing operations (e.g.,
parsing)" the paper's eXist sites paid for each XML tree (§5). Text
input is parsed exactly once, when it is stored; the serialized text is
not kept, only its UTF-8 length (``StoredDocument.size``), which the
parse counters and catalog statistics report. The wire form is
``serialize(table.materialize())``, which reproduces the stored text.

Optional disk persistence keeps each collection in a directory holding
one ``<name>.pxb`` node table per document, the ``_pool.bin`` string
pool and ``_meta.json`` (origin and size per document, in store order),
so an engine restart reloads in store order without reparsing. A
missing or undecodable file is a :class:`~repro.errors.StorageError`.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Optional

from repro.datamodel.binary import BinaryXMLDocument, StringPool
from repro.datamodel.document import XMLDocument
from repro.engine.indexes import (
    ElementIndex,
    FullTextIndex,
    PathIndex,
    RangeIndex,
    ValueIndex,
)
from repro.errors import CollectionNotFoundError, DocumentNotFoundError, StorageError
from repro.xmltext.parser import parse_xml
from repro.xmltext.serializer import serialize


class StoredDocument:
    """One stored document: its binary node table plus catalog metadata.

    ``binary`` is the preorder node table over the owning collection's
    string pool — the only stored form of the document. ``size`` is the
    UTF-8 length of the document's serialized text, recorded when it was
    stored; it is the quantity ``bytes_parsed`` and the catalog's
    collection statistics count.
    """

    __slots__ = ("name", "origin", "size", "binary")

    def __init__(
        self,
        name: str,
        origin: Optional[str],
        size: int,
        binary: BinaryXMLDocument,
    ):
        self.name = name
        self.origin = origin or name
        self.size = size
        self.binary = binary


class StoredCollection:
    """A named set of stored documents with their indexes."""

    def __init__(self, name: str, pool: Optional[StringPool] = None):
        self.name = name
        self.pool = pool if pool is not None else StringPool()
        self._documents: dict[str, StoredDocument] = {}
        self.fulltext = FullTextIndex()
        self.values = ValueIndex()
        self.elements = ElementIndex()
        self.ranges = RangeIndex()
        self.paths = PathIndex()

    # ------------------------------------------------------------------
    def put(self, stored: StoredDocument) -> None:
        """Insert (or replace) a document; indexes update from its table,
        which must be encoded over this collection's pool."""
        if stored.name in self._documents:
            self.remove(stored.name)
        self._documents[stored.name] = stored
        binary = stored.binary
        self.fulltext.add_document(stored.name, binary)
        self.values.add_document(stored.name, binary)
        self.elements.add_document(stored.name, binary)
        self.ranges.add_document(stored.name, binary)
        self.paths.add_document(stored.name, binary)

    def remove(self, name: str) -> None:
        if name not in self._documents:
            raise DocumentNotFoundError(
                f"document {name!r} not in collection {self.name!r}"
            )
        del self._documents[name]
        self.fulltext.remove_document(name)
        self.values.remove_document(name)
        self.elements.remove_document(name)
        self.ranges.remove_document(name)
        self.paths.remove_document(name)

    def get(self, name: str) -> StoredDocument:
        try:
            return self._documents[name]
        except KeyError:
            raise DocumentNotFoundError(
                f"document {name!r} not in collection {self.name!r}"
            ) from None

    def names(self) -> list[str]:
        return list(self._documents.keys())

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, name: str) -> bool:
        return name in self._documents

    def total_bytes(self) -> int:
        return sum(doc.size for doc in self._documents.values())


class DocumentStore:
    """All collections of one engine instance, optionally disk-backed."""

    def __init__(self, storage_dir: Optional[str | Path] = None):
        self._collections: dict[str, StoredCollection] = {}
        self._storage_dir = Path(storage_dir) if storage_dir else None
        if self._storage_dir is not None:
            self._storage_dir.mkdir(parents=True, exist_ok=True)
            self._load_from_disk()

    # ------------------------------------------------------------------
    # Collection management
    # ------------------------------------------------------------------
    def create_collection(self, name: str) -> StoredCollection:
        if name in self._collections:
            raise StorageError(f"collection {name!r} already exists")
        collection = StoredCollection(name)
        self._collections[name] = collection
        if self._storage_dir is not None:
            (self._storage_dir / name).mkdir(parents=True, exist_ok=True)
            self._write_metadata(name)
        return collection

    def drop_collection(self, name: str) -> None:
        self.collection(name)  # raise if absent
        del self._collections[name]
        if self._storage_dir is not None:
            directory = self._storage_dir / name
            if directory.exists():
                for child in directory.iterdir():
                    child.unlink()
                directory.rmdir()

    def collection(self, name: str) -> StoredCollection:
        try:
            return self._collections[name]
        except KeyError:
            raise CollectionNotFoundError(f"no collection named {name!r}") from None

    def has_collection(self, name: str) -> bool:
        return name in self._collections

    def collection_names(self) -> list[str]:
        return list(self._collections.keys())

    # ------------------------------------------------------------------
    # Document management
    # ------------------------------------------------------------------
    def store_document(
        self,
        collection_name: str,
        document: XMLDocument | str | bytes,
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> StoredDocument:
        """Encode and store a document; returns the record.

        Text input is parsed once, here; a tree is serialized once, to
        record its size. Either way the node table is the only form kept.
        """
        collection = self.collection(collection_name)
        if isinstance(document, XMLDocument):
            tree = document
            size = len(serialize(document).encode("utf-8"))
            name = name or document.name
            origin = origin or document.origin
        else:
            data = document.encode("utf-8") if isinstance(document, str) else document
            tree = parse_xml(data.decode("utf-8"), name=name)
            size = len(data)
        if name is None:
            name = f"{collection_name}-{len(collection):06d}.xml"
        stored = StoredDocument(
            name, origin, size, BinaryXMLDocument.encode(tree, collection.pool)
        )
        collection.put(stored)
        if self._storage_dir is not None:
            directory = self._storage_dir / collection_name
            (directory / (name + ".pxb")).write_bytes(stored.binary.to_bytes())
            # The pool is append-only, so rewriting it after each store
            # keeps every previously written table decodable.
            (directory / "_pool.bin").write_bytes(collection.pool.to_bytes())
            self._write_metadata(collection_name)
        return stored

    def load_document(self, collection_name: str, name: str) -> StoredDocument:
        return self.collection(collection_name).get(name)

    def remove_document(self, collection_name: str, name: str) -> None:
        self.collection(collection_name).remove(name)
        if self._storage_dir is not None:
            (self._storage_dir / collection_name / (name + ".pxb")).unlink(
                missing_ok=True
            )
            self._write_metadata(collection_name)

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------
    def _metadata_path(self, collection_name: str) -> Path:
        assert self._storage_dir is not None
        return self._storage_dir / collection_name / "_meta.json"

    def _write_metadata(self, collection_name: str) -> None:
        """``_meta.json``: origin and size per document, in store order
        (the order reload restores)."""
        collection = self._collections[collection_name]
        meta = {}
        for name in collection.names():
            stored = collection.get(name)
            meta[name] = {"origin": stored.origin, "size": stored.size}
        self._metadata_path(collection_name).write_text(json.dumps(meta))

    def _load_from_disk(self) -> None:
        """Rebuild every collection from its node tables, walking
        ``_meta.json`` in store order; XML text is never read or parsed.
        A missing or undecodable file raises :class:`StorageError`
        naming it — stores written before this layout (``.xml`` files,
        or a ``_meta.json`` without sizes) must be republished."""
        assert self._storage_dir is not None
        for directory in sorted(self._storage_dir.iterdir()):
            if not directory.is_dir():
                continue
            meta_path = directory / "_meta.json"
            meta = _read_file(meta_path, json.loads)
            if not isinstance(meta, dict):
                raise StorageError(f"{meta_path}: not a document map")
            pool = (
                _read_file(directory / "_pool.bin", StringPool.from_bytes)
                if meta
                else StringPool()
            )
            collection = StoredCollection(directory.name, pool=pool)
            self._collections[directory.name] = collection
            for name, entry in meta.items():
                if not isinstance(entry, dict) or "size" not in entry:
                    raise StorageError(
                        f"{meta_path}: entry {name!r} records no size"
                        " (written by an older layout; republish it)"
                    )
                binary = _read_file(
                    directory / (name + ".pxb"),
                    lambda data: BinaryXMLDocument.from_bytes(data, pool),
                )
                collection.put(
                    StoredDocument(name, entry.get("origin"), entry["size"], binary)
                )


def _read_file(path: Path, decode):
    """``decode(path's bytes)``, with any read or decode failure raised
    as a :class:`StorageError` that names the file."""
    try:
        return decode(path.read_bytes())
    except OSError as exc:
        raise StorageError(f"{path}: cannot read ({exc})") from exc
    except (ValueError, struct.error) as exc:
        raise StorageError(f"{path}: cannot decode ({exc})") from exc
