"""Binary node tables: encoding, preorder ranges, persistence.

Every stored document carries a compact preorder node table (strings
interned in a per-collection pool), the indexes ingest it directly, and
engines with a ``storage_dir`` reload the tables from disk without ever
re-tokenizing XML text.
"""

import pytest

from repro.datamodel import doc, elem
from repro.datamodel.binary import (
    KIND_ATTRIBUTE,
    KIND_ELEMENT,
    KIND_TEXT,
    BinaryXMLDocument,
    StringPool,
)
from repro.engine import XMLEngine
from repro.xmltext import serialize


def _sample_document(name="sample.xml"):
    return doc(
        elem(
            "Store",
            elem(
                "Items",
                elem(
                    "Item",
                    elem("Code", "17"),
                    elem("Description", "good red bicycle"),
                    category="bikes",
                ),
                elem(
                    "Item",
                    elem("Code", "42"),
                    elem("Description", "plain kettle"),
                    category="kitchen",
                ),
            ),
        ),
        name=name,
    )


class TestEncodeDecode:
    def test_round_trip_preserves_tree_and_node_ids(self):
        document = _sample_document()
        pool = StringPool()
        binary = BinaryXMLDocument.encode(document, pool)
        restored = BinaryXMLDocument.from_bytes(binary.to_bytes(), pool)
        materialized = restored.materialize(name=document.name)
        assert materialized.tree_equal(document, compare_ids=True)
        assert materialized.name == document.name

    def test_kinds_and_interning(self):
        document = _sample_document()
        pool = StringPool()
        binary = BinaryXMLDocument.encode(document, pool)
        kinds = set(binary.kinds)
        assert kinds == {KIND_ELEMENT, KIND_ATTRIBUTE, KIND_TEXT}
        # "Item", "Code", … are interned once however often they occur.
        item_ids = {
            binary.names[i]
            for i in range(len(binary))
            if binary.kinds[i] == KIND_ELEMENT
            and binary.name_of(i) == "Item"
        }
        assert len(item_ids) == 1

    def test_pool_is_append_only_across_documents(self):
        pool = StringPool()
        first = BinaryXMLDocument.encode(_sample_document("a.xml"), pool)
        size_after_first = len(pool)
        BinaryXMLDocument.encode(
            doc(elem("Other", elem("Brand", "new")), name="b.xml"), pool
        )
        # Older tables stay decodable: their ids are still valid.
        assert len(pool) >= size_after_first
        assert first.materialize().tree_equal(_sample_document("a.xml"))

    def test_corrupt_bytes_rejected(self):
        pool = StringPool()
        with pytest.raises(ValueError):
            BinaryXMLDocument.from_bytes(b"not a node table", pool)
        with pytest.raises(ValueError):
            StringPool.from_bytes(b"junk")


class TestPreorderRanges:
    def test_descendant_range_is_contiguous_preorder(self):
        binary = BinaryXMLDocument.encode(_sample_document(), StringPool())

        def ancestors(node):
            parent = binary.parents[node]
            while parent >= 0:
                yield parent
                parent = binary.parents[parent]

        for index in range(len(binary)):
            inside = set(binary.descendant_range(index))
            walked = {
                d for d in range(len(binary)) if index in ancestors(d)
            }
            assert inside == walked


class TestPersistence:
    def _store_two(self, path):
        engine = XMLEngine("p", storage_dir=str(path))
        engine.create_collection("c")
        engine.store_document(
            "c", serialize(_sample_document("a.xml")), name="a.xml"
        )
        engine.store_document(
            "c",
            "<Store><Items><Item><Code>5</Code></Item></Items></Store>",
            name="b.xml",
        )
        return engine

    def test_reload_decodes_without_reparsing(self, tmp_path, monkeypatch):
        self._store_two(tmp_path)
        # A fresh engine over the same directory must answer from the
        # persisted node tables alone — re-tokenizing XML text anywhere
        # on the query path is the regression this guard exists for.
        import repro.engine.store as store_module

        def _forbidden(*args, **kwargs):
            raise AssertionError(
                "reload must not re-parse XML text"
            )

        monkeypatch.setattr(store_module, "parse_xml", _forbidden)
        reloaded = XMLEngine("p2", storage_dir=str(tmp_path))
        result = reloaded.execute(
            'for $i in collection("c")/Store/Items/Item'
            " where $i/Code = 5 return $i/Code",
            use_indexes=False,
        )
        assert "5" in result.result_text
        assert result.binary_decodes > 0

    def test_pool_file_written(self, tmp_path):
        self._store_two(tmp_path)
        assert (tmp_path / "c" / "_pool.bin").exists()
        assert (tmp_path / "c" / "a.xml.pxb").exists()

    def test_missing_tables_fall_back_to_reencoding(self, tmp_path):
        self._store_two(tmp_path)
        for table in (tmp_path / "c").glob("*.pxb"):
            table.unlink()
        (tmp_path / "c" / "_pool.bin").unlink()
        reloaded = XMLEngine("p3", storage_dir=str(tmp_path))
        result = reloaded.execute(
            'for $i in collection("c")/Store/Items/Item'
            " where $i/Code = 5 return $i/Code",
            use_indexes=False,
        )
        assert "5" in result.result_text
        # Old on-disk stores hold raw bytes only: the documents parse
        # once and the indexes still ingest from a freshly built table.
        assert reloaded.store.collection("c").values.lookup("Code", "5")
