"""Unit tests for the MiniX storage engine: store, indexes, planner, exec."""

import pytest

from repro.datamodel import doc, elem
from repro.engine import (
    DocumentStore,
    Planner,
    XMLEngine,
    serialize_sequence,
    tokenize_text,
)
from repro.errors import (
    CollectionNotFoundError,
    DocumentNotFoundError,
    StorageError,
)
from repro.paths import And, Or, contains, empty, eq, exists, ne


def make_item(i, section, description):
    return doc(
        elem(
            "Item",
            elem("Code", f"I{i}"),
            elem("Section", section),
            elem("Description", description),
        ),
        name=f"item{i}.xml",
    )


@pytest.fixture
def engine():
    eng = XMLEngine("test")
    for i in range(10):
        eng.store_document(
            "items",
            make_item(i, "CD" if i % 2 == 0 else "DVD",
                      "a good thing" if i < 4 else "plain stuff"),
        )
    return eng


class TestDocumentStore:
    def test_create_and_drop(self):
        store = DocumentStore()
        store.create_collection("c")
        assert store.has_collection("c")
        store.drop_collection("c")
        assert not store.has_collection("c")

    def test_duplicate_collection_rejected(self):
        store = DocumentStore()
        store.create_collection("c")
        with pytest.raises(StorageError):
            store.create_collection("c")

    def test_missing_collection(self):
        with pytest.raises(CollectionNotFoundError):
            DocumentStore().collection("nope")

    def test_store_and_load_document(self):
        store = DocumentStore()
        store.create_collection("c")
        store.store_document("c", doc(elem("a", "x"), name="d.xml"))
        loaded = store.load_document("c", "d.xml")
        assert loaded.data == b"<a>x</a>"
        assert loaded.origin == "d.xml"

    def test_store_text_document(self):
        store = DocumentStore()
        store.create_collection("c")
        stored = store.store_document("c", "<a/>", name="d.xml")
        assert stored.size == 4

    def test_anonymous_names_generated(self):
        store = DocumentStore()
        store.create_collection("c")
        stored = store.store_document("c", "<a/>")
        assert stored.name.startswith("c-")

    def test_remove_document(self):
        store = DocumentStore()
        store.create_collection("c")
        store.store_document("c", "<a/>", name="d.xml")
        store.remove_document("c", "d.xml")
        with pytest.raises(DocumentNotFoundError):
            store.load_document("c", "d.xml")

    def test_replace_updates_indexes(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", "<a>alpha</a>", name="d.xml")
        store.store_document("c", "<a>bravo</a>", name="d.xml")
        assert collection.fulltext.lookup_substring("alpha") == set()
        assert collection.fulltext.lookup_substring("bravo") == {"d.xml"}

    def test_disk_persistence_round_trip(self, tmp_path):
        store = DocumentStore(storage_dir=tmp_path)
        store.create_collection("c")
        store.store_document("c", "<a>x</a>", name="d.xml", origin="orig.xml")
        reloaded = DocumentStore(storage_dir=tmp_path)
        assert reloaded.has_collection("c")
        loaded = reloaded.load_document("c", "d.xml")
        assert loaded.data == b"<a>x</a>"
        assert loaded.origin == "orig.xml"

    def test_disk_drop_removes_files(self, tmp_path):
        store = DocumentStore(storage_dir=tmp_path)
        store.create_collection("c")
        store.store_document("c", "<a/>", name="d.xml")
        store.drop_collection("c")
        assert not (tmp_path / "c").exists()


class TestIndexes:
    def test_tokenize(self):
        assert tokenize_text("Hello, WORLD-42!") == {"hello", "world", "42"}

    def test_fulltext_substring_match(self, engine):
        collection = engine.store.collection("items")
        hits = collection.fulltext.lookup_substring("good")
        assert hits == {f"item{i}.xml" for i in range(4)}

    def test_fulltext_matches_inside_tokens(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", "<a>goodness gracious</a>", name="d.xml")
        assert collection.fulltext.lookup_substring("good") == {"d.xml"}

    def test_fulltext_multi_token_needle_intersects(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", "<a>alpha bravo</a>", name="1.xml")
        store.store_document("c", "<a>alpha charlie</a>", name="2.xml")
        assert collection.fulltext.lookup_substring("alpha bravo") == {"1.xml"}

    def test_value_index_lookup(self, engine):
        collection = engine.store.collection("items")
        assert len(collection.values.lookup("Section", "CD")) == 5
        assert collection.values.covers_label("Section")
        assert not collection.values.covers_label("Nope")

    def test_value_index_attributes(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", '<a id="7"/>', name="d.xml")
        assert collection.values.lookup("@id", "7") == {"d.xml"}

    def test_element_index(self, engine):
        collection = engine.store.collection("items")
        assert len(collection.elements.lookup("Description")) == 10
        assert collection.elements.lookup("PictureList") == set()


class TestPlanner:
    def test_no_predicate_scans_all(self, engine):
        collection = engine.store.collection("items")
        names, lookups = Planner().candidate_documents(collection, None)
        assert len(names) == 10 and lookups == 0

    def test_equality_uses_value_index(self, engine):
        collection = engine.store.collection("items")
        names, lookups = Planner().candidate_documents(
            collection, eq("/Item/Section", "CD")
        )
        assert len(names) == 5 and lookups == 1

    def test_contains_uses_fulltext(self, engine):
        collection = engine.store.collection("items")
        names, _ = Planner().candidate_documents(
            collection, contains("/Item/Description", "good")
        )
        assert len(names) == 4

    def test_conjunction_intersects(self, engine):
        collection = engine.store.collection("items")
        predicate = And(
            (eq("/Item/Section", "CD"), contains("/Item/Description", "good"))
        )
        names, _ = Planner().candidate_documents(collection, predicate)
        assert set(names) == {"item0.xml", "item2.xml"}

    def test_disjunction_unions(self, engine):
        collection = engine.store.collection("items")
        predicate = Or((eq("/Item/Section", "CD"), eq("/Item/Section", "DVD")))
        names, _ = Planner().candidate_documents(collection, predicate)
        assert len(names) == 10

    def test_unprunable_atom_falls_back(self, engine):
        collection = engine.store.collection("items")
        names, _ = Planner().candidate_documents(
            collection, ne("/Item/Section", "CD")
        )
        assert len(names) == 10

    def test_exists_uses_element_index(self, engine):
        collection = engine.store.collection("items")
        names, _ = Planner().candidate_documents(
            collection, exists("/Item/PictureList")
        )
        assert names == []

    def test_empty_predicate_not_prunable(self, engine):
        collection = engine.store.collection("items")
        names, _ = Planner().candidate_documents(
            collection, empty("/Item/PictureList")
        )
        assert len(names) == 10

    def test_indexes_can_be_disabled(self, engine):
        collection = engine.store.collection("items")
        names, lookups = Planner(use_indexes=False).candidate_documents(
            collection, eq("/Item/Section", "CD")
        )
        assert len(names) == 10 and lookups == 0


class TestExecution:
    def test_simple_query(self, engine):
        result = engine.execute(
            'for $i in collection("items")/Item where $i/Section = "CD"'
            " return $i/Code/text()"
        )
        assert result.result_text.split() == ["I0", "I2", "I4", "I6", "I8"]

    def test_index_pruning_limits_parsing(self, engine):
        result = engine.execute(
            'count(for $i in collection("items")/Item'
            ' where contains($i/Description, "good") return $i)'
        )
        assert result.result_text == "4"
        assert result.documents_parsed == 4
        assert result.documents_pruned == 6

    def test_stats_accumulate(self, engine):
        engine.execute('collection("items")/Item')
        engine.execute('collection("items")/Item')
        assert engine.stats.queries_executed == 2
        assert engine.stats.documents_parsed == 20

    def test_default_collection(self, engine):
        result = engine.execute(
            "count(collection()/Item)", default_collection="items"
        )
        assert result.result_text == "10"

    def test_default_collection_missing(self, engine):
        from repro.errors import XQueryEvaluationError

        with pytest.raises(XQueryEvaluationError):
            engine.execute("count(collection()/Item)")

    def test_unknown_collection(self, engine):
        with pytest.raises(StorageError):
            engine.execute('collection("nope")/Item')

    def test_parse_cache_off_by_default(self, engine):
        engine.execute('collection("items")/Item')
        engine.execute('collection("items")/Item')
        assert engine.stats.documents_parsed == 20

    def test_parse_cache_on(self):
        eng = XMLEngine("cached", cache_parsed=True)
        eng.store_document("c", "<a>x</a>", name="d.xml")
        eng.execute('collection("c")/a')
        eng.execute('collection("c")/a')
        assert eng.stats.documents_parsed == 1

    def test_result_bytes_measures_serialized_output(self, engine):
        result = engine.execute(
            'for $i in collection("items")/Item where $i/Code = "I3" return $i'
        )
        assert result.result_bytes == len(result.result_text.encode())
        assert "<Item>" in result.result_text

    def test_serialize_sequence_mixes_nodes_and_atomics(self):
        from repro.datamodel import XMLNode

        text = serialize_sequence([XMLNode.element("a"), 3, "x", True])
        assert text == "<a/>\n3\nx\ntrue"

    def test_document_count_and_bytes(self, engine):
        assert engine.document_count("items") == 10
        assert engine.collection_bytes("items") > 0

    def test_drop_collection_clears_cache(self):
        eng = XMLEngine("cached", cache_parsed=True)
        eng.store_document("c", "<a/>", name="d.xml")
        eng.execute('collection("c")/a')
        eng.drop_collection("c")
        assert not eng.has_collection("c")


class TestCacheHitAccounting:
    """Regression: cache hits must still pay per-document accounting."""

    def _engine(self) -> XMLEngine:
        eng = XMLEngine(
            "hit", cache_parsed=True, per_document_overhead=0.01,
            use_indexes=False,
        )
        for i in range(5):
            eng.store_document("c", f"<a>{i}</a>", name=f"d{i}.xml")
        return eng

    def test_cache_hits_counted_and_overhead_charged(self):
        eng = self._engine()
        cold = eng.execute('collection("c")/a')
        warm = eng.execute('collection("c")/a')
        assert cold.cache_hits == 0
        assert cold.documents_parsed == 5
        assert warm.cache_hits == 5
        assert warm.documents_parsed == 0
        # The simulated per-document access cost applies on hits too:
        # a resident tree still costs catalog/locking/buffer work.
        assert warm.simulated_overhead_seconds == pytest.approx(0.05)
        assert warm.elapsed_seconds >= 0.05
        assert eng.stats.cache_hits == 5
        assert eng.stats.simulated_overhead_seconds == pytest.approx(0.10)

    def test_direct_load_parsed_hit_updates_shared_stats(self):
        eng = self._engine()
        eng.load_parsed("c", "d0.xml")
        eng.load_parsed("c", "d0.xml")
        assert eng.stats.documents_parsed == 1
        assert eng.stats.cache_hits == 1
        assert eng.stats.simulated_overhead_seconds == pytest.approx(0.02)


class TestMissingCollectionContract:
    """Regression: engine raises, driver returns 0 — one explicit contract."""

    def test_engine_raises_clear_storage_error(self):
        eng = XMLEngine("strict")
        with pytest.raises(CollectionNotFoundError, match="no collection 'ghost'"):
            eng.document_count("ghost")
        with pytest.raises(StorageError, match="'ghost'"):
            eng.collection_bytes("ghost")

    def test_driver_boundary_is_lenient(self):
        from repro.partix.driver import MiniXDriver

        driver = MiniXDriver(XMLEngine("lenient"))
        assert driver.document_count("ghost") == 0
        assert driver.collection_bytes("ghost") == 0
        driver.store_document("real", "<a/>", name="d.xml")
        assert driver.document_count("real") == 1
        assert driver.collection_bytes("real") > 0
        with pytest.raises(StorageError):
            driver.engine.document_count("ghost")


class TestSimulatedOverhead:
    def test_overhead_added_to_elapsed_not_slept(self):
        import time

        engine = XMLEngine("oh", per_document_overhead=0.05, use_indexes=False)
        for i in range(10):
            engine.store_document("c", f"<a>{i}</a>", name=f"d{i}.xml")
        started = time.perf_counter()
        result = engine.execute('count(collection("c")/a)')
        wall = time.perf_counter() - started
        assert result.simulated_overhead_seconds == pytest.approx(0.5)
        assert result.elapsed_seconds >= 0.5
        assert wall < 0.25  # the overhead was simulated, not slept
        assert result.measured_seconds < 0.25

    def test_overhead_defaults_to_zero(self):
        engine = XMLEngine("oh0")
        engine.store_document("c", "<a/>", name="d.xml")
        result = engine.execute('collection("c")/a')
        assert result.simulated_overhead_seconds == 0.0

    def test_overhead_tracked_in_stats(self):
        engine = XMLEngine("oh2", per_document_overhead=0.01, use_indexes=False)
        engine.store_document("c", "<a/>", name="d.xml")
        engine.execute('collection("c")/a')
        engine.execute('collection("c")/a')
        assert engine.stats.simulated_overhead_seconds == pytest.approx(0.02)


class TestRangeIndex:
    def _collection(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        rows = [("10", "a"), ("25", "b"), ("300", "c"), ("zebra", "d"), ("apple", "e")]
        for value, tag in rows:
            store.store_document(
                "c", f"<r><v>{value}</v></r>", name=f"{tag}.xml"
            )
        return collection

    def test_numeric_range_lookup(self):
        collection = self._collection()
        # numeric entries compare numerically; non-numeric ones as strings
        hits = collection.ranges.lookup("v", ">", 20)
        assert {"b.xml", "c.xml"} <= hits
        assert "a.xml" not in hits

    def test_numeric_probe_includes_string_comparisons(self):
        collection = self._collection()
        # "zebra" > "20" lexicographically: must be included for soundness
        hits = collection.ranges.lookup("v", ">", 20)
        assert "d.xml" in hits

    def test_string_range_lookup(self):
        collection = self._collection()
        hits = collection.ranges.lookup("v", ">=", "apple")
        assert "e.xml" in hits and "d.xml" in hits

    def test_covers_label(self):
        collection = self._collection()
        assert collection.ranges.covers_label("v")
        assert not collection.ranges.covers_label("w")

    def test_remove_document(self):
        collection = self._collection()
        collection.remove("c.xml")
        assert "c.xml" not in collection.ranges.lookup("v", ">", 20)

    def test_planner_uses_range_index(self):
        engine = XMLEngine("rg")
        for i in range(10):
            engine.store_document(
                "c", f"<Item><Release>200{i % 6}-01-01</Release><Code>I{i}</Code></Item>",
                name=f"d{i}.xml",
            )
        result = engine.execute(
            'for $i in collection("c")/Item'
            ' where $i/Release >= "2004-01-01" return $i/Code/text()'
        )
        # Only matching docs are parsed (range-pruned).
        assert result.documents_parsed == result.result_text.count("I")
        assert result.documents_pruned > 0

    def test_range_lookup_soundness_against_evaluation(self):
        from repro.paths import cmp

        engine = XMLEngine("snd")
        values = ["5", "50", "500", "abc", "2004-06-01", "-3.5"]
        for i, value in enumerate(values):
            engine.store_document("c", f"<r><v>{value}</v></r>", name=f"{i}.xml")
        collection = engine.store.collection("c")
        for op in ("<", "<=", ">", ">="):
            for probe in (10, "2004-01-01", "b", -1):
                hits = collection.ranges.lookup("v", op, probe)
                predicate = cmp("/r/v", op, probe)
                for i, value in enumerate(values):
                    document = engine.load_parsed("c", f"{i}.xml")
                    if predicate.evaluate(document):
                        assert f"{i}.xml" in hits, (op, probe, value)


class TestPathIndex:
    def _collection(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document(
            "c", "<Store><Items><Item><PictureList/></Item></Items></Store>",
            name="with.xml",
        )
        store.store_document(
            "c", "<Store><Items><Item><Code>1</Code></Item></Items></Store>",
            name="without.xml",
        )
        return collection

    def test_exact_lookup(self):
        collection = self._collection()
        hits = collection.paths.lookup_exact(
            ("Store", "Items", "Item", "PictureList")
        )
        assert hits == {"with.xml"}

    def test_suffix_lookup(self):
        collection = self._collection()
        hits = collection.paths.lookup_suffix(("Item", "PictureList"))
        assert hits == {"with.xml"}
        assert collection.paths.lookup_suffix(("Item",)) == {
            "with.xml", "without.xml"
        }

    def test_attribute_paths_indexed(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", '<a><b id="1"/></a>', name="d.xml")
        assert collection.paths.lookup_exact(("a", "b", "@id")) == {"d.xml"}

    def test_planner_uses_structural_index_for_exists(self):
        engine = XMLEngine("px")
        engine.store_document(
            "c", "<Store><Items><Item><PictureList/></Item></Items></Store>",
            name="with.xml",
        )
        engine.store_document(
            "c", "<Store><Items><Item><Code>1</Code></Item></Items></Store>",
            name="without.xml",
        )
        # Label-only index would match nothing different here, but the
        # structural key (full path) prunes precisely.
        result = engine.execute(
            'for $i in collection("c")/Store/Items/Item'
            " where $i/PictureList return $i"
        )
        assert result.documents_parsed == 1

    def test_structural_exists_distinguishes_context(self):
        # The same label under different parents: the label index cannot
        # tell them apart, the structural one can.
        engine = XMLEngine("px2")
        engine.store_document("c", "<r><a><x/></a></r>", name="1.xml")
        engine.store_document("c", "<r><b><x/></b></r>", name="2.xml")
        from repro.paths import exists

        collection = engine.store.collection("c")
        names, _ = engine.planner.candidate_documents(
            collection, exists("/r/a/x")
        )
        assert names == ["1.xml"]
        names, _ = engine.planner.candidate_documents(
            collection, exists("//b/x")
        )
        assert names == ["2.xml"]


class TestExplain:
    def test_explain_reports_candidates(self, engine):
        report = engine.explain(
            'count(for $i in collection("items")/Item'
            ' where contains($i/Description, "good") return $i)'
        )
        assert report["aggregate"] == "count"
        assert report["uses_text_search"]
        assert report["collections"]["items"]["documents"] == 10
        assert report["collections"]["items"]["candidates"] == 4

    def test_explain_without_predicate(self, engine):
        report = engine.explain('collection("items")/Item')
        assert report["predicate"] is None
        assert report["collections"]["items"]["candidates"] == 10

    def test_explain_does_not_execute(self, engine):
        engine.explain('collection("items")/Item')
        assert engine.stats.queries_executed == 0
