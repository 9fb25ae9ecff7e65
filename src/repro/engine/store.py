"""Document store: named collections of serialized XML documents.

Documents are stored *serialized* (UTF-8 bytes) and parsed on access —
the same architecture that made the paper's per-document parse overhead
visible ("some pre-processing operations (e.g., parsing) are carried out
for each XML tree", §5). Storing bytes also forces every layer above to
round-trip through real serialization, so reconstruction annotations and
fragment metadata are honest.

Each document additionally carries a compact **binary node table**
(:class:`~repro.datamodel.binary.BinaryXMLDocument`), built once at
publish time over the collection's shared string pool. Indexes ingest
the table directly and materialization decodes it instead of
re-tokenizing text — the raw bytes remain the canonical
wire/serialization form.

Optional disk persistence keeps each collection in a directory of
``.xml`` files (plus ``<name>.xml.pxb`` node tables and one
``_pool.bin`` string pool) and a small metadata file, surviving engine
restarts without reparsing. Stores written before the binary encoding
existed — bare ``.xml`` files — load fine: the table is rebuilt by a
one-time parse.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Optional

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
    """One serialized document plus its catalog metadata.

    ``binary`` is the preorder node table over the owning collection's
    string pool; :meth:`StoredCollection.put` fills it in when the
    caller didn't (e.g. a store loaded from bare ``.xml`` files).
    """

    __slots__ = ("name", "data", "origin", "binary")

    def __init__(
        self,
        name: str,
        data: bytes,
        origin: Optional[str] = None,
        binary: Optional[BinaryXMLDocument] = None,
    ):
        self.name = name
        self.data = data
        self.origin = origin or name
        self.binary = binary

    @property
    def size(self) -> int:
        return len(self.data)


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
    def put(self, stored: StoredDocument, document: Optional[XMLDocument] = None) -> None:
        """Insert (or replace) a document; indexes update from its table.

        The binary node table is built here — once, at publish time —
        unless the record already carries one (a persistence reload).
        ``document`` is the parsed tree when the caller already has it
        (avoids a redundant parse, like eXist indexing during ingestion);
        otherwise, and only when no table came along, the store parses
        once to encode.
        """
        if stored.name in self._documents:
            self.remove(stored.name)
        self._documents[stored.name] = stored
        binary = stored.binary
        if binary is None:
            tree = document if document is not None else parse_xml(
                stored.data.decode("utf-8"), name=stored.name
            )
            binary = BinaryXMLDocument.encode(tree, self.pool)
            stored.binary = binary
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
        """Serialize (if needed) and store a document; returns the record."""
        collection = self.collection(collection_name)
        tree: Optional[XMLDocument] = None
        if isinstance(document, XMLDocument):
            tree = document
            data = serialize(document).encode("utf-8")
            name = name or document.name
            origin = origin or document.origin
        elif isinstance(document, str):
            data = document.encode("utf-8")
        else:
            data = document
        if name is None:
            name = f"{collection_name}-{len(collection):06d}.xml"
        stored = StoredDocument(name=name, data=data, origin=origin)
        collection.put(stored, document=tree)
        if self._storage_dir is not None:
            directory = self._storage_dir / collection_name
            (directory / name).write_bytes(data)
            assert stored.binary is not None  # put() always encodes
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
            directory = self._storage_dir / collection_name
            for path in (directory / name, directory / (name + ".pxb")):
                if path.exists():
                    path.unlink()
            self._write_metadata(collection_name)

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------
    def _metadata_path(self, collection_name: str) -> Path:
        assert self._storage_dir is not None
        return self._storage_dir / collection_name / "_meta.json"

    def _write_metadata(self, collection_name: str) -> None:
        collection = self._collections[collection_name]
        meta = {
            name: {"origin": collection.get(name).origin}
            for name in collection.names()
        }
        self._metadata_path(collection_name).write_text(json.dumps(meta))

    def _load_from_disk(self) -> None:
        """Rebuild collections binary-first: when a ``.pxb`` node table
        and the pool are on disk, reload decodes them and never touches
        the XML text; documents missing a table (pre-binary stores, or a
        table that fails to decode) fall back to a one-time parse."""
        assert self._storage_dir is not None
        for directory in sorted(self._storage_dir.iterdir()):
            if not directory.is_dir():
                continue
            pool: Optional[StringPool] = None
            pool_path = directory / "_pool.bin"
            if pool_path.exists():
                try:
                    pool = StringPool.from_bytes(pool_path.read_bytes())
                except (ValueError, struct.error, UnicodeDecodeError):
                    pool = None
            collection = StoredCollection(directory.name, pool=pool)
            self._collections[directory.name] = collection
            meta_path = directory / "_meta.json"
            meta = (
                json.loads(meta_path.read_text()) if meta_path.exists() else {}
            )
            for path in sorted(directory.glob("*.xml")):
                origin = meta.get(path.name, {}).get("origin")
                binary: Optional[BinaryXMLDocument] = None
                table_path = directory / (path.name + ".pxb")
                if pool is not None and table_path.exists():
                    try:
                        binary = BinaryXMLDocument.from_bytes(
                            table_path.read_bytes(), collection.pool
                        )
                    except (ValueError, struct.error):
                        binary = None
                stored = StoredDocument(
                    name=path.name,
                    data=path.read_bytes(),
                    origin=origin,
                    binary=binary,
                )
                collection.put(stored)
