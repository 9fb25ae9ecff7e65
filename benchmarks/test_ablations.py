"""Ablations of the design choices DESIGN.md calls out.

1. **Document-level index pruning** — the reproduction's engine can prune
   candidate documents through full-text/value indexes, which eXist
   (2005) did not do for generic XQuery predicates. The ablation shows
   this single capability *inverts* the paper's FragMode finding: with
   pruning on, FragMode1's per-item documents become an index advantage.
2. **Parse-on-access vs parsed cache** — the paper's per-query parse cost
   is the mechanism behind fragmentation gains; caching parsed trees
   collapses it.
3. **Localization** — predicate-based fragment pruning (the decomposer's
   contribution) vs shipping every sub-query everywhere.
"""

import pytest

from repro.bench import build_store_scenario
from repro.engine import XMLEngine
from repro.partix import FragMode
from repro.workloads import build_items_collection, items_queries
from repro.xmltext import serialize

PAPER_MB = 20


def _item_query_total(result):
    item_queries = [f"Q{i}" for i in range(1, 9)] + ["Q11"]
    return sum(result.run_by_id(q).fragmented_seconds for q in item_queries)


class TestIndexPruningAblation:
    @pytest.fixture(scope="class")
    def results(self, scale, repetitions):
        results = {}
        for use_indexes in (False, True):
            for mode in (FragMode.INDEPENDENT_DOCUMENTS, FragMode.SINGLE_DOCUMENT):
                scenario = build_store_scenario(
                    paper_mb=PAPER_MB,
                    frag_mode=mode,
                    scale=scale,
                    use_indexes=use_indexes,
                )
                results[(use_indexes, mode)] = scenario.run(
                    repetitions=repetitions
                )
        return results

    def test_pruning_inverts_the_fragmode_finding(self, results):
        """Without pruning (eXist-2005 behaviour) FragMode2 wins, exactly
        as the paper reports; with document-level index pruning FragMode1
        catches up or wins, because per-item documents let the indexes
        skip parsing entirely."""
        off_mode1 = _item_query_total(
            results[(False, FragMode.INDEPENDENT_DOCUMENTS)]
        )
        off_mode2 = _item_query_total(results[(False, FragMode.SINGLE_DOCUMENT)])
        on_mode1 = _item_query_total(
            results[(True, FragMode.INDEPENDENT_DOCUMENTS)]
        )
        on_mode2 = _item_query_total(results[(True, FragMode.SINGLE_DOCUMENT)])
        print(
            f"\nitem-query totals (ms):"
            f"\n  pruning off: FragMode1 {off_mode1 * 1000:.0f},"
            f" FragMode2 {off_mode2 * 1000:.0f}"
            f"\n  pruning on:  FragMode1 {on_mode1 * 1000:.0f},"
            f" FragMode2 {on_mode2 * 1000:.0f}"
        )
        assert off_mode2 < off_mode1, "paper shape requires FragMode2 to win"
        mode1_gain = off_mode1 / on_mode1
        mode2_gain = off_mode2 / on_mode2
        assert mode1_gain > mode2_gain, (
            "index pruning should help per-item documents far more"
        )


class TestParseCacheAblation:
    def _engine(self, cache: bool) -> XMLEngine:
        engine = XMLEngine("ablate", cache_parsed=cache, use_indexes=False)
        for document in build_items_collection(150, kind="small", seed=21):
            engine.store_document("Citems", serialize(document), name=document.name)
        return engine

    def test_cache_collapses_parse_cost(self, benchmark):
        engine = self._engine(cache=True)
        query = items_queries()[7].text  # Q8: text search + count
        engine.execute(query)  # warm the cache
        benchmark.pedantic(
            lambda: engine.execute(query), rounds=3, iterations=2
        )
        assert engine.stats.documents_parsed == 150  # parsed exactly once

    def test_no_cache_reparses_every_query(self):
        engine = self._engine(cache=False)
        query = items_queries()[7].text
        first = engine.execute(query)
        second = engine.execute(query)
        assert first.documents_parsed == 150
        assert second.documents_parsed == 150
        cached = self._engine(cache=True)
        cached.execute(query)
        warm = cached.execute(query)
        print(
            f"\nQ8 parse-on-access {second.elapsed_seconds * 1000:.1f}ms vs"
            f" warm cache {warm.elapsed_seconds * 1000:.1f}ms"
        )
        assert warm.elapsed_seconds < second.elapsed_seconds


class TestLocalizationAblation:
    def test_predicate_pruning_skips_fragments(self, scale, repetitions):
        """The decomposer ships the fragmentation-matching query (Q2) to
        one fragment; without localization it would hit all four."""
        from repro.bench import build_items_scenario

        scenario = build_items_scenario(
            "small", paper_mb=PAPER_MB, fragment_count=4, scale=scale
        )
        q2 = next(q for q in scenario.queries if q.qid == "Q2")
        localized = scenario.partix.execute(q2.text)
        assert len(localized.plan.subqueries) == 1
        # Compare against a manually broadcast plan.
        from repro.partix import CompositionSpec, SubQuery, annotated
        from repro.partix.decomposer import rename_collections
        from repro.xquery.parser import parse_query
        from repro.xquery.unparse import unparse

        ast = parse_query(q2.text)
        broadcast_subqueries = []
        for allocation in scenario.partix.distribution_catalog.allocations(
            "Citems"
        ):
            renamed = rename_collections(
                ast, {"Citems": allocation.stored_collection}
            )
            broadcast_subqueries.append(
                SubQuery(
                    allocation.fragment,
                    allocation.site,
                    allocation.stored_collection,
                    unparse(renamed),
                )
            )
        broadcast = scenario.partix.execute(
            q2.text,
            plan=annotated("Citems", broadcast_subqueries, CompositionSpec("concat")),
        )
        print(
            f"\nQ2 localized {localized.parallel_seconds * 1000:.1f}ms"
            f" vs broadcast {broadcast.parallel_seconds * 1000:.1f}ms"
        )
        assert sorted(localized.result_text.split()) == sorted(
            broadcast.result_text.split()
        )
        assert localized.sequential_seconds < broadcast.sequential_seconds


class TestEscapeHotPath:
    """Guard for the serializer's escaping hot path.

    ``escape_text``/``escape_attribute`` run for every text node and
    attribute a site serializes — with streaming, that is every byte that
    crosses the wire. The shipped implementation is a chain of C-level
    ``str.replace`` scans; this guard keeps it measurably ahead of the
    per-character ``"".join`` it replaced, so a regression back to
    character-at-a-time string building fails the benchmark suite.
    """

    CORPUS = [
        "plain description text with no markup at all " * 8,
        "a <b>bold</b> claim & a 'quoted' \"value\" " * 8,
        "&&&<<<>>>" * 40,
        "unicode café ☃ \U0001f409 & <tags> " * 8,
    ]

    @staticmethod
    def _naive_escape(value: str) -> str:
        from repro.xmltext.escape import _TEXT_ESCAPES

        if not any(c in value for c in "&<>"):
            return value
        return "".join(_TEXT_ESCAPES.get(c, c) for c in value)

    def _best_of(self, func, rounds: int = 5, iterations: int = 200) -> float:
        import time

        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(iterations):
                for text in self.CORPUS:
                    func(text)
            best = min(best, time.perf_counter() - start)
        return best

    def test_translate_beats_per_char_join(self):
        from repro.xmltext.escape import escape_text

        for text in self.CORPUS:
            assert escape_text(text) == self._naive_escape(text)
        shipped = self._best_of(escape_text)
        naive = self._best_of(self._naive_escape)
        print(
            f"\nescape_text best-of-5: replace-chain {shipped * 1000:.2f}ms"
            f" vs per-char join {naive * 1000:.2f}ms"
            f" ({naive / shipped:.1f}x)"
        )
        assert shipped < naive, (
            "escape_text regressed behind the per-character join baseline"
        )

    def test_attribute_escaping_matches_reference(self):
        from repro.xmltext.escape import escape_attribute

        assert (
            escape_attribute("a & b <c> 'd' \"e\"")
            == "a &amp; b &lt;c&gt; &apos;d&apos; &quot;e&quot;"
        )
        clean = "no specials here"
        assert escape_attribute(clean) == clean


class TestBinaryHotPath:
    """Guard for the binary node-table hot path.

    The engine materializes documents by decoding the preorder table
    instead of re-tokenizing XML text. The guard keeps that fast path
    ahead of the parse-on-access baseline it replaced, so a regression
    back to re-parsing fails the benchmark suite.
    """

    def _corpus(self):
        from repro.datamodel.binary import BinaryXMLDocument, StringPool
        from repro.xmltext import serialize

        pool = StringPool()
        documents = list(build_items_collection(60, kind="small", seed=9))
        texts = [serialize(document) for document in documents]
        binaries = [
            BinaryXMLDocument.encode(document, pool)
            for document in documents
        ]
        return pool, documents, texts, binaries

    @staticmethod
    def _best_of(func, rounds: int = 5) -> float:
        import time

        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            func()
            best = min(best, time.perf_counter() - start)
        return best

    def test_binary_decode_beats_reparse(self):
        """Per-document access: decoding the preorder table vs
        re-tokenizing the serialized XML text (what every query paid
        before binary storage)."""
        from repro.datamodel.binary import BinaryXMLDocument
        from repro.xmltext import parse_xml

        pool, documents, texts, binaries = self._corpus()
        tables = [binary.to_bytes() for binary in binaries]

        for text, binary, document in zip(texts, binaries, documents):
            assert binary.materialize().tree_equal(parse_xml(text))

        decode_seconds = self._best_of(
            lambda: [
                BinaryXMLDocument.from_bytes(table, pool).materialize()
                for table in tables
            ]
        )
        reparse_seconds = self._best_of(
            lambda: [parse_xml(text) for text in texts]
        )
        print(
            f"\n{len(texts)} document accesses best-of-5:"
            f" binary decode {decode_seconds * 1000:.2f}ms vs"
            f" reparse {reparse_seconds * 1000:.2f}ms"
            f" ({reparse_seconds / decode_seconds:.1f}x)"
        )
        assert decode_seconds < reparse_seconds, (
            "binary decode regressed behind re-parsing the XML text"
        )


class TestAdvisorDesign:
    """The auto-designed fragmentation (paper future work) should hold
    its own against the paper's hand-made Section design."""

    def test_advisor_matches_manual_design(self, scale, repetitions):
        from repro.bench.scenarios import CENTRAL_SITE, Scenario, _make_cluster
        from repro.bench.scenarios import PAPER_DOC_OVERHEAD
        from repro.bench import build_items_scenario, scaled_point, items_count_for
        from repro.partix import FragmentationAdvisor, Partix, WorkloadQuery
        from repro.workloads import build_items_collection, items_queries

        manual = build_items_scenario(
            "small", paper_mb=PAPER_MB, fragment_count=4, scale=scale
        ).run(repetitions=repetitions)

        point = scaled_point(PAPER_MB, scale)
        collection = build_items_collection(
            items_count_for(point.target_bytes, "small"), kind="small", seed=42
        )
        workload = [WorkloadQuery(q.text) for q in items_queries()]
        design = FragmentationAdvisor(
            collection, workload, site_count=4
        ).recommend()
        cluster = _make_cluster(4, False, PAPER_DOC_OVERHEAD)
        partix = Partix(cluster)
        partix.publish(collection, design.fragmentation)
        partix.publish_centralized(collection, CENTRAL_SITE)
        scenario = Scenario(
            "Advisor", partix, collection.name, items_queries(),
            PAPER_MB, point.target_bytes, len(design.fragmentation),
        )
        auto = scenario.run(repetitions=repetitions)

        manual_total = sum(run.fragmented_seconds for run in manual.runs)
        auto_total = sum(run.fragmented_seconds for run in auto.runs)
        print(
            f"\nworkload totals: manual design {manual_total * 1000:.0f}ms,"
            f" advisor design {auto_total * 1000:.0f}ms"
        )
        assert all(run.results_match for run in auto.runs)
        assert auto_total < manual_total * 1.6, (
            "advisor design should be in the same league as the manual one"
        )


class TestShardPipelineGuards:
    """Guards for intra-site sharded evaluation (the shard pipeline).

    The degree chooser prices serial vs sharded scans from fragment
    statistics plus a per-shard startup cost; these guards pin both
    sides of that bargain: a large fragment must actually get cheaper
    when sharded, and a tiny fragment must never pay pool startup.
    """

    def _engine(self, shard_workers: int) -> XMLEngine:
        from repro.bench.scenarios import PAPER_DOC_OVERHEAD

        engine = XMLEngine(
            "shard-guard",
            shard_workers=shard_workers,
            per_document_overhead=PAPER_DOC_OVERHEAD,
            use_indexes=False,
        )
        for document in build_items_collection(96, kind="small", seed=33):
            engine.store_document(
                "Citems", serialize(document), name=document.name
            )
        return engine

    def test_sharded_scan_beats_serial_on_large_fragment(self):
        """One 96-document fragment, measured on the suite's standard
        elapsed time (wall plus the paper's per-document access
        overhead, which sharded evaluation accrues concurrently)."""
        engine = self._engine(shard_workers=4)
        query = 'collection("Citems")/Item/Code'
        try:
            serial_text = engine.execute(query).result_text
            sharded_text = engine.execute(
                query, parallel_degree=4
            ).result_text
            assert sharded_text == serial_text

            def best_of(degree):
                best = float("inf")
                for _ in range(5):
                    result = engine.execute(query, parallel_degree=degree)
                    best = min(best, result.elapsed_seconds)
                return best

            serial_seconds = best_of(None)
            sharded_seconds = best_of(4)
            print(
                f"\n96-document fragment best-of-5:"
                f" serial {serial_seconds * 1000:.1f}ms vs"
                f" degree-4 {sharded_seconds * 1000:.1f}ms"
                f" ({serial_seconds / sharded_seconds:.1f}x)"
            )
            assert sharded_seconds < serial_seconds, (
                "sharded scan regressed behind the serial scan"
            )
        finally:
            engine.close()

    def test_tiny_fragments_never_pay_pool_startup(self):
        """Lowering keeps small fragments serial: at the default
        statistics (8 documents) no worker count amortizes the
        per-shard startup cost, so no pool is ever touched."""
        from repro.plan.cost import CostModel, MIN_SHARD_DOCUMENTS

        for workers in (2, 4, 8, 16):
            model = CostModel(shard_workers=workers)
            assert model.shard_degree("Citems", "F", "s0") == 1

        class TinyCatalog:
            class _Stats:
                documents = MIN_SHARD_DOCUMENTS
                bytes = 2048

            def statistics(self, collection, fragment, site):
                return self._Stats()

        model = CostModel(TinyCatalog(), shard_workers=8)
        assert model.shard_degree("Citems", "F", "s0") == 1
