"""Intra-site shard pipeline: gate, partition, fold, stats, plan IR.

The contract under test: sharded evaluation is *purely* a performance
decision — at any requested degree, in any mode, the answer is
byte-identical to the serial run, and the per-shard stats sum exactly to
what the serial run charges for the same query.
"""

import pytest

from repro.cluster import Cluster, Site
from repro.datamodel import doc, elem
from repro.engine import XMLEngine
from repro.engine.shards import (
    _FORK_INHERITED,
    ShardScript,
    partition_candidates,
    shard_script,
)
from repro.partix import (
    FragmentationSchema,
    HorizontalFragment,
    Partix,
    SubQuery,
)
from repro.paths import eq, ne
from repro.plan.cost import CostModel, MIN_SHARD_DOCUMENTS
from repro.xquery.parser import parse_query

#: 2^-9 — exactly representable, so repeated float sums of the simulated
#: per-document overhead are order-independent and the exact-sum
#: assertions below can use ==, not approx.
OVERHEAD = 1.0 / 512.0


def make_priced_item(index: int):
    return doc(
        elem(
            "Item",
            elem("Code", f"I-{index:03d}"),
            elem("Section", "CD" if index % 2 == 0 else "DVD"),
            elem("Description", "a good thing" if index % 4 == 0 else "stuff"),
            elem("Price", str(index + 1)),
        ),
        name=f"item-{index:03d}.xml",
    )


def make_engine(**kwargs) -> XMLEngine:
    engine = XMLEngine("shard-test", **kwargs)
    for index in range(16):
        engine.store_document("c", make_priced_item(index))
    return engine


SHARDABLE_QUERIES = [
    'collection("c")/Item/Code',
    'collection("c")/Item[Section = "CD"]/Code',
    'for $i in collection("c")/Item where $i/Section = "CD" return $i/Code',
    'count(collection("c")/Item)',
    'exists(collection("c")/Item[Section = "DVD"])',
    'empty(collection("c")/Item[Section = "Vinyl"])',
    'sum(collection("c")/Item/Price)',
    'avg(collection("c")/Item/Price)',
    'min(collection("c")/Item/Price)',
    'max(collection("c")/Item/Price)',
]


class TestShardScript:
    def test_path_is_concat(self):
        script = shard_script(parse_query('collection("c")/Item/Code'))
        assert script == ShardScript(mode="concat")

    def test_count_folds(self):
        script = shard_script(parse_query('count(collection("c")/Item)'))
        assert script == ShardScript(mode="fold", aggregate="count")

    def test_sum_ships_values(self):
        script = shard_script(parse_query('sum(collection("c")/Item/Price)'))
        assert script == ShardScript(mode="values", aggregate="sum")

    @pytest.mark.parametrize(
        "query",
        [
            # FilterExpr predicates see the cross-document sequence.
            '(collection("c")/Item)[2]',
            # doc() is not a partitionable input.
            'doc("item-000.xml")/Item/Code',
            # Two collection inputs cannot partition together.
            'count(collection("c")/Item) + count(collection("c")/Item)',
        ],
    )
    def test_non_shardable_shapes(self, query):
        assert shard_script(parse_query(query)) is None


class TestPartitionCandidates:
    def test_contiguous_and_order_preserving(self):
        names = [f"d{i}" for i in range(10)]
        shards = partition_candidates(names, 3)
        assert [n for shard in shards for n in shard] == names
        assert [len(s) for s in shards] == [4, 3, 3]

    def test_degree_clamped_to_candidates(self):
        shards = partition_candidates(["a", "b"], 5)
        assert shards == [["a"], ["b"]]

    def test_degree_one_is_identity(self):
        names = ["a", "b", "c"]
        assert partition_candidates(names, 1) == [names]


class TestEngineByteIdentity:
    @pytest.mark.parametrize("query", SHARDABLE_QUERIES)
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_sharded_matches_serial(self, query, degree):
        engine = make_engine(shard_workers=4)
        try:
            serial = engine.execute(query, default_collection="c")
            sharded = engine.execute(
                query, default_collection="c", parallel_degree=degree
            )
            assert sharded.result_text == serial.result_text
        finally:
            engine.close()

    def test_non_shardable_query_declines_silently(self):
        engine = make_engine(shard_workers=4)
        try:
            query = '(collection("c")/Item)[2]'
            serial = engine.execute(query, default_collection="c")
            forced = engine.execute(
                query, default_collection="c", parallel_degree=4
            )
            assert forced.result_text == serial.result_text
        finally:
            engine.close()

    def test_no_pool_means_serial(self):
        engine = make_engine(shard_workers=0)
        try:
            result = engine.execute(
                'collection("c")/Item/Code',
                default_collection="c",
                parallel_degree=4,
            )
            assert result.binary_decodes == 16  # the serial path ran
        finally:
            engine.close()


class TestShardStatsExactSum:
    """Satellite: per-shard stats sum *exactly* to the serial charges."""

    EXACT_FIELDS = [
        "documents_parsed",
        "bytes_parsed",
        "binary_decodes",
        "cache_hits",
        "documents_scanned",
        "documents_pruned",
        "simulated_overhead_seconds",
    ]

    @pytest.mark.parametrize(
        "query",
        [
            'collection("c")/Item/Code',
            'collection("c")/Item[Section = "CD"]/Code',
            'count(collection("c")/Item)',
            'sum(collection("c")/Item/Price)',
        ],
    )
    def test_sharded_equals_serial(self, query):
        serial_engine = make_engine(per_document_overhead=OVERHEAD)
        sharded_engine = make_engine(
            shard_workers=4, per_document_overhead=OVERHEAD
        )
        try:
            serial = serial_engine.execute(query, default_collection="c")
            sharded = sharded_engine.execute(
                query, default_collection="c", parallel_degree=4
            )
            assert sharded.result_text == serial.result_text
            for field in self.EXACT_FIELDS:
                assert getattr(sharded, field) == getattr(serial, field), field
        finally:
            serial_engine.close()
            sharded_engine.close()

    def test_overhead_accrues_in_parallel_but_sums_serially(self):
        """The counter sums every shard's overhead; elapsed advances by
        the slowest shard's share only (shards run concurrently)."""
        engine = make_engine(shard_workers=2, per_document_overhead=1.0)
        try:
            sharded = engine.execute(
                'collection("c")/Item/Code',
                default_collection="c",
                parallel_degree=2,
            )
            # 16 documents: the counter charges all 16 seconds...
            assert sharded.simulated_overhead_seconds == 16.0
            # ...but the two 8-document shards overlapped, so elapsed
            # includes one shard's 8 seconds (plus real wall time).
            assert 8.0 <= sharded.elapsed_seconds < 12.0
        finally:
            engine.close()


class TestForkInheritance:
    def test_snapshot_registered_and_released(self):
        engine = make_engine(shard_workers=2)
        try:
            engine.execute(
                'collection("c")/Item/Code',
                default_collection="c",
                parallel_degree=2,
            )
            token = engine._fork_token
            if token is not None:  # fork platforms only
                assert token in _FORK_INHERITED
                assert len(_FORK_INHERITED[token]) == 16
        finally:
            engine.close()
        assert engine._fork_token is None
        assert all(token != key for key in _FORK_INHERITED) or token is None

    def test_worker_cache_mirrors_cache_parsed(self):
        engine = make_engine(shard_workers=2, cache_parsed=True)
        try:
            query = 'collection("c")/Item/Code'
            first = engine.execute(
                query, default_collection="c", parallel_degree=2
            )
            second = engine.execute(
                query, default_collection="c", parallel_degree=2
            )
            # Every access is either a worker-cache hit or a decode —
            # never both, never neither.
            assert first.cache_hits + first.binary_decodes == 16
            assert second.cache_hits + second.binary_decodes == 16
            assert second.documents_parsed == second.binary_decodes
        finally:
            engine.close()

    def test_cache_off_redecodes_every_query(self):
        engine = make_engine(shard_workers=2, cache_parsed=False)
        try:
            query = 'collection("c")/Item/Code'
            for _ in range(2):
                result = engine.execute(
                    query, default_collection="c", parallel_degree=2
                )
                assert result.binary_decodes == 16
                assert result.cache_hits == 0
        finally:
            engine.close()


class _StatsCatalog:
    def __init__(self, documents, fragment_bytes):
        self._stats = type(
            "Stats", (), {"documents": documents, "bytes": fragment_bytes}
        )()

    def statistics(self, collection, fragment, site):
        return self._stats


class TestShardDegreeChooser:
    def test_no_workers_is_serial(self):
        model = CostModel(shard_workers=0)
        assert model.shard_degree("C", "F", "s0") == 1

    def test_default_statistics_stay_serial(self):
        # 8 default documents never amortize a shard's startup cost.
        model = CostModel(shard_workers=8)
        assert model.shard_degree("C", "F", "s0") == 1

    def test_large_fragment_gets_sharded(self):
        catalog = _StatsCatalog(documents=64, fragment_bytes=1_000_000)
        model = CostModel(catalog, shard_workers=4)
        assert model.shard_degree("C", "F", "s0") == 4

    def test_tiny_fragment_never_pays_startup(self):
        catalog = _StatsCatalog(
            documents=MIN_SHARD_DOCUMENTS * 2 - 1, fragment_bytes=4096
        )
        model = CostModel(catalog, shard_workers=8)
        assert model.shard_degree("C", "F", "s0") == 1

    def test_index_access_scales_by_selectivity(self):
        catalog = _StatsCatalog(documents=64, fragment_bytes=1_000_000)
        model = CostModel(catalog, shard_workers=4)
        # A selective index probe leaves too few candidates to shard.
        assert (
            model.shard_degree("C", "F", "s0", selectivity=0.05, access="index")
            == 1
        )


class TestSubQuerySpec:
    def test_parallel_degree_roundtrips(self):
        subquery = SubQuery(
            fragment="F", site="s0", collection="C", query="q",
            parallel_degree=3,
        )
        data = subquery.to_dict()
        assert data["parallel_degree"] == 3
        assert SubQuery.from_dict(data).parallel_degree == 3

    def test_unset_degree_is_omitted_from_wire_form(self):
        subquery = SubQuery(fragment="F", site="s0", collection="C", query="q")
        data = subquery.to_dict()
        assert "parallel_degree" not in data
        assert SubQuery.from_dict(data).parallel_degree is None


@pytest.fixture
def sharded_partix(items_collection):
    cluster = Cluster.with_sites(2, shard_workers=2)
    cluster.add(Site("central", shard_workers=2))
    px = Partix(cluster)
    design = FragmentationSchema("Citems", [
        HorizontalFragment(
            "F_cd", "Citems", predicate=eq("/Item/Section", "CD")
        ),
        HorizontalFragment(
            "F_rest", "Citems", predicate=ne("/Item/Section", "CD")
        ),
    ], root_label="Item")
    px.publish(items_collection, design)
    px.publish_centralized(items_collection, "central")
    yield px
    for site in cluster.sites():
        engine = getattr(site.driver, "engine", None)
        if engine is not None:
            engine.close()


class TestPlanDegree:
    def test_shard_workers_inferred_from_cluster(self, sharded_partix):
        assert sharded_partix.shard_workers == 2

    def test_with_lane_degree_stamps_and_clears(self, sharded_partix):
        plan = sharded_partix.explain('collection("Citems")/Item/Code')
        assert all(s.parallel_degree is None for s in plan.subqueries)
        stamped = plan.with_lane_degree(3)
        assert all(s.parallel_degree == 3 for s in stamped.subqueries)
        cleared = stamped.with_lane_degree(1)
        assert all(s.parallel_degree is None for s in cleared.subqueries)
        # Stamping the value already present returns the plan itself.
        assert stamped.with_lane_degree(3) is stamped

    def test_lowering_stamps_degree_and_explain_renders_it(
        self, sharded_partix
    ):
        # Inflate per-document CPU so the 8-document F_rest fragment
        # amortizes the shard startup cost; the 4-document F_cd fragment
        # stays below the minimum shard size either way.
        model = CostModel(
            sharded_partix.distribution_catalog,
            sharded_partix.network,
            seconds_per_document=0.05,
            shard_workers=2,
        )
        sharded_partix.cost_model = model
        sharded_partix.decomposer.cost_model = model
        plan = sharded_partix.explain('collection("Citems")/Item/Code')
        degrees = {s.fragment: s.parallel_degree for s in plan.subqueries}
        assert degrees["F_rest"] == 2
        assert degrees["F_cd"] is None
        assert "degree=2" in plan.render()

    def test_forced_degrees_are_byte_identical(self, sharded_partix):
        query = 'for $i in collection("Citems")/Item return $i/Code'
        baseline = sharded_partix.execute(query).result_text
        for mode in ("simulated", "threads"):
            for degree in (1, 2):
                result = sharded_partix.execute(
                    query, execution_mode=mode, shard_degree=degree
                )
                assert result.result_text == baseline
