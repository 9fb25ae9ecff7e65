"""Experiment scenarios: build a database, run queries, collect rows.

A :class:`Scenario` pairs one database configuration (collection + cluster
+ fragmentation) with one query set, and compares every query's
centralized execution against its fragmented execution, following §5's
methodology: each query runs ``repetitions + 1`` times, the first run is
discarded, and the remaining times are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.network import NetworkModel
from repro.cluster.site import Cluster, Site
from repro.datamodel.collection import Collection
from repro.partix.fragments import FragmentationSchema
from repro.partix.middleware import Partix, PartixResult
from repro.partix.publisher import FragMode
from repro.plan.executor import ExecutionMode
from repro.workloads.queries import BenchQuery
from repro.workloads.virtual_store import (
    build_items_collection,
    build_store_collection,
    items_horizontal_fragmentation,
    store_hybrid_fragmentation,
)
from repro.workloads.xbench import (
    build_xbench_collection,
    xbench_vertical_fragmentation,
)
from repro.workloads import queries as query_sets
from repro.bench import scale as scaling

CENTRAL_SITE = "central"


@dataclass
class QueryRun:
    """One query's centralized-vs-fragmented comparison."""

    qid: str
    description: str
    centralized_seconds: float
    fragmented_seconds: float  # no transmission (slowest site + compose)
    fragmented_total_seconds: float  # with transmission
    centralized_total_seconds: float  # with (single) transmission
    subqueries: int
    results_match: bool
    centralized_result_bytes: int
    fragmented_result_bytes: int
    centralized_docs_parsed: int = 0
    fragmented_docs_parsed: int = 0

    @property
    def speedup(self) -> float:
        """Centralized / fragmented, transmission excluded."""
        if self.fragmented_seconds <= 0:
            return float("inf")
        return self.centralized_seconds / self.fragmented_seconds

    @property
    def speedup_with_transmission(self) -> float:
        if self.fragmented_total_seconds <= 0:
            return float("inf")
        return self.centralized_total_seconds / self.fragmented_total_seconds


@dataclass
class ScenarioResult:
    """All rows of one scenario run."""

    name: str
    database: str
    paper_mb: int
    target_bytes: int
    fragment_count: int
    runs: list[QueryRun] = field(default_factory=list)

    def run_by_id(self, qid: str) -> QueryRun:
        for run in self.runs:
            if run.qid == qid:
                return run
        raise KeyError(qid)


def _result_signature(text: str) -> tuple[str, ...]:
    """Order-insensitive result signature (fragments interleave order)."""
    return tuple(sorted(line for line in text.splitlines() if line.strip()))


class Scenario:
    """One database configuration ready to run a query set."""

    def __init__(
        self,
        name: str,
        partix: Partix,
        collection_name: str,
        queries: list[BenchQuery],
        paper_mb: int,
        target_bytes: int,
        fragment_count: int,
    ):
        self.name = name
        self.partix = partix
        self.collection_name = collection_name
        self.queries = queries
        self.paper_mb = paper_mb
        self.target_bytes = target_bytes
        self.fragment_count = fragment_count

    # ------------------------------------------------------------------
    def run(self, repetitions: int = 3) -> ScenarioResult:
        """Run every query centralized and fragmented; average the times.

        The first execution of each configuration is discarded (warm-up),
        as in the paper.
        """
        result = ScenarioResult(
            name=self.name,
            database=self.collection_name,
            paper_mb=self.paper_mb,
            target_bytes=self.target_bytes,
            fragment_count=self.fragment_count,
        )
        for query in self.queries:
            result.runs.append(self._run_query(query, repetitions))
        return result

    def _run_query(self, query: BenchQuery, repetitions: int) -> QueryRun:
        central_runs = [
            self.partix.execute_centralized(query.text, CENTRAL_SITE)
            for _ in range(repetitions + 1)
        ][1:]
        fragmented_runs = [
            self.partix.execute(query.text, collection=self.collection_name)
            for _ in range(repetitions + 1)
        ][1:]
        central = central_runs[-1]
        fragmented = fragmented_runs[-1]
        return QueryRun(
            qid=query.qid,
            description=query.description,
            centralized_seconds=_avg(r.parallel_seconds for r in central_runs),
            fragmented_seconds=_avg(r.parallel_seconds for r in fragmented_runs),
            fragmented_total_seconds=_avg(r.total_seconds for r in fragmented_runs),
            centralized_total_seconds=_avg(r.total_seconds for r in central_runs),
            subqueries=len(fragmented.round.executions),
            results_match=_result_signature(central.result_text)
            == _result_signature(fragmented.result_text),
            centralized_result_bytes=central.result_bytes,
            fragmented_result_bytes=fragmented.result_bytes,
            centralized_docs_parsed=sum(
                e.result.documents_parsed for e in central.round.executions
            ),
            fragmented_docs_parsed=sum(
                e.result.documents_parsed for e in fragmented.round.executions
            ),
        )


def _avg(values) -> float:
    items = list(values)
    return sum(items) / len(items) if items else 0.0


# ----------------------------------------------------------------------
# Execution-mode comparison (simulated vs real threads)
# ----------------------------------------------------------------------
@dataclass
class ModeComparisonRun:
    """One query's simulated-mode vs threads-mode wall-clock comparison.

    ``parallel_seconds`` is the *modelled* time (slowest site + compose)
    — it is mode-independent by construction. The two wall columns are
    real machine time: the sequential in-process loop vs the concurrent
    dispatcher.
    """

    qid: str
    description: str
    parallel_seconds: float
    sequential_seconds: float
    simulated_wall_seconds: float
    threads_wall_seconds: float
    subqueries: int
    byte_identical: bool
    #: Per-lane planner-estimate vs measurement, one entry per physical
    #: plan lane: ``{plan_node, fragment, site, estimated_seconds,
    #: simulated_seconds, threads_seconds}`` — joined across the two
    #: modes by the plan-node identity the executor stamps on every
    #: execution.
    lane_timings: list = field(default_factory=list)
    #: Replica failovers the dispatcher performed across both modes'
    #: final repetitions (0 on a healthy cluster).
    failover_count: int = 0

    @property
    def wall_speedup(self) -> float:
        """Sequential-loop wall / concurrent-dispatch wall."""
        if self.threads_wall_seconds <= 0:
            return float("inf")
        return self.simulated_wall_seconds / self.threads_wall_seconds

    def to_dict(self) -> dict:
        return {
            "qid": self.qid,
            "description": self.description,
            "parallel_seconds": self.parallel_seconds,
            "sequential_seconds": self.sequential_seconds,
            "simulated_wall_seconds": self.simulated_wall_seconds,
            "threads_wall_seconds": self.threads_wall_seconds,
            "subqueries": self.subqueries,
            "byte_identical": self.byte_identical,
            "lane_timings": self.lane_timings,
            "failover_count": self.failover_count,
        }


def compare_execution_modes(
    scenario: Scenario, repetitions: int = 2
) -> list[ModeComparisonRun]:
    """Run a scenario's queries in both execution modes, side by side.

    Asserts the paper-faithful invariant along the way: the two modes
    must produce **byte-identical** answers (composition is plan-ordered
    in both). First run of each configuration is discarded (warm-up).
    """
    runs = []
    for query in scenario.queries:
        simulated = [
            scenario.partix.execute(
                query.text, collection=scenario.collection_name
            )
            for _ in range(repetitions + 1)
        ][1:]
        threaded = [
            scenario.partix.execute(
                query.text,
                collection=scenario.collection_name,
                execution_mode="threads",
            )
            for _ in range(repetitions + 1)
        ][1:]
        runs.append(
            ModeComparisonRun(
                qid=query.qid,
                description=query.description,
                parallel_seconds=_avg(r.parallel_seconds for r in simulated),
                sequential_seconds=_avg(
                    r.sequential_seconds for r in simulated
                ),
                simulated_wall_seconds=_avg(
                    r.measured_wall_seconds for r in simulated
                ),
                threads_wall_seconds=_avg(
                    r.measured_wall_seconds for r in threaded
                ),
                subqueries=len(threaded[-1].round.executions),
                byte_identical=simulated[-1].result_text
                == threaded[-1].result_text,
                lane_timings=_join_lane_timings(
                    simulated[-1], threaded[-1]
                ),
                failover_count=(
                    simulated[-1].failover_count
                    + threaded[-1].failover_count
                ),
            )
        )
    return runs


def _join_lane_timings(
    simulated: PartixResult, threaded: PartixResult
) -> list[dict]:
    """Join both modes' per-lane measurements on the plan-node identity.

    Either side may miss a node (degraded lane); its column is None.
    """
    threads_by_node = {
        lane["plan_node"]: lane for lane in threaded.lane_timings
    }
    joined = []
    for lane in simulated.lane_timings:
        other = threads_by_node.pop(lane["plan_node"], None)
        joined.append(
            {
                "plan_node": lane["plan_node"],
                "fragment": lane["fragment"],
                "site": lane["site"],
                "estimated_seconds": lane["estimated_seconds"],
                "simulated_seconds": lane["measured_seconds"],
                "threads_seconds": (
                    other["measured_seconds"] if other else None
                ),
            }
        )
    for lane in threads_by_node.values():
        joined.append(
            {
                "plan_node": lane["plan_node"],
                "fragment": lane["fragment"],
                "site": lane["site"],
                "estimated_seconds": lane["estimated_seconds"],
                "simulated_seconds": None,
                "threads_seconds": lane["measured_seconds"],
            }
        )
    return joined


# ----------------------------------------------------------------------
# Transport comparison (simulated vs threads vs real tcp processes)
# ----------------------------------------------------------------------
@dataclass
class TransportLane:
    """One execution mode's measurements for one query."""

    mode: str
    wall_seconds: float
    bytes_sent: int
    bytes_received: int
    wire_measured: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "wire_measured": self.wire_measured,
        }


@dataclass
class TransportComparisonRun:
    """One query compared across transports.

    ``wall_seconds`` per lane is real machine time; byte counts are real
    framed socket bytes for the ``tcp`` lane (``wire_measured``) and the
    would-have-traveled payload sizes for the in-process lanes.
    ``estimated_transmission_seconds`` is what the
    :class:`~repro.cluster.network.NetworkModel` predicts for the same
    round, so the estimate sits next to the measurement.
    """

    qid: str
    description: str
    subqueries: int
    byte_identical: bool
    estimated_transmission_seconds: float
    lanes: list[TransportLane] = field(default_factory=list)

    def lane(self, mode: str) -> TransportLane:
        for lane in self.lanes:
            if lane.mode == mode:
                return lane
        raise KeyError(mode)

    def to_dict(self) -> dict:
        return {
            "qid": self.qid,
            "description": self.description,
            "subqueries": self.subqueries,
            "byte_identical": self.byte_identical,
            "estimated_transmission_seconds": (
                self.estimated_transmission_seconds
            ),
            "lanes": [lane.to_dict() for lane in self.lanes],
        }


TRANSPORT_MODES = ("simulated", "threads", "tcp")


def compare_transports(
    scenario: Scenario,
    repetitions: int = 2,
    modes: tuple = TRANSPORT_MODES,
) -> list[TransportComparisonRun]:
    """Run a scenario's queries through every transport, side by side.

    When ``"tcp"`` is requested, real site-server processes are spawned
    (and the published fragments mirrored to them over the wire) for the
    duration of the comparison, then reaped. The byte-identical invariant
    is checked against the first mode's answer. First run of each
    configuration is discarded (warm-up).
    """
    runs: list[TransportComparisonRun] = []
    started_tcp = False
    if (
        any(ExecutionMode.parse(mode).transport == "tcp" for mode in modes)
        and scenario.partix.tcp is None
    ):
        scenario.partix.start_tcp()
        started_tcp = True
    try:
        for query in scenario.queries:
            by_mode: dict[str, list[PartixResult]] = {}
            for mode in modes:
                by_mode[mode] = [
                    scenario.partix.execute(
                        query.text,
                        collection=scenario.collection_name,
                        execution_mode=mode,
                    )
                    for _ in range(repetitions + 1)
                ][1:]
            reference = by_mode[modes[0]][-1]
            run = TransportComparisonRun(
                qid=query.qid,
                description=query.description,
                subqueries=len(reference.round.executions),
                byte_identical=all(
                    by_mode[mode][-1].result_text == reference.result_text
                    for mode in modes[1:]
                ),
                estimated_transmission_seconds=_avg(
                    r.transmission_seconds for r in by_mode[modes[0]]
                ),
            )
            for mode in modes:
                last = by_mode[mode][-1]
                run.lanes.append(
                    TransportLane(
                        mode=mode,
                        wall_seconds=_avg(
                            r.measured_wall_seconds for r in by_mode[mode]
                        ),
                        bytes_sent=last.bytes_sent,
                        bytes_received=last.bytes_received,
                        wire_measured=last.wire_measured,
                    )
                )
            runs.append(run)
    finally:
        if started_tcp:
            scenario.partix.stop_tcp()
    return runs


# ----------------------------------------------------------------------
# Streaming comparison (monolithic RESULT vs chunked RESULT_CHUNK lanes)
# ----------------------------------------------------------------------
@dataclass
class StreamingLane:
    """One execution mode's streaming measurements for one query."""

    mode: str
    wall_seconds: float
    bytes_received: int
    streamed: bool
    wire_measured: bool
    peak_buffered_bytes: int = 0
    first_chunk_seconds: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "bytes_received": self.bytes_received,
            "streamed": self.streamed,
            "wire_measured": self.wire_measured,
            "peak_buffered_bytes": self.peak_buffered_bytes,
            "first_chunk_seconds": self.first_chunk_seconds,
        }


@dataclass
class StreamingComparisonRun:
    """One query compared monolithic vs streamed.

    ``bytes_received`` per lane is what actually traveled back to the
    coordinator: framed socket bytes for the tcp lanes. For aggregate
    compositions the decomposer's pushdown makes that O(fragments) — each
    site ships one scalar partial — regardless of the underlying result
    size. ``peak_buffered_bytes`` is the streamed lane's largest
    coordinator-side in-memory buffering (bounded by the spill threshold
    per active lane, never by result size); ``first_chunk_seconds`` its
    time-to-first-byte.
    """

    qid: str
    description: str
    subqueries: int
    composition: str
    aggregate: Optional[str]
    byte_identical: bool
    lanes: list[StreamingLane] = field(default_factory=list)

    def lane(self, mode: str) -> StreamingLane:
        for lane in self.lanes:
            if lane.mode == mode:
                return lane
        raise KeyError(mode)

    def to_dict(self) -> dict:
        return {
            "qid": self.qid,
            "description": self.description,
            "subqueries": self.subqueries,
            "composition": self.composition,
            "aggregate": self.aggregate,
            "byte_identical": self.byte_identical,
            "lanes": [lane.to_dict() for lane in self.lanes],
        }


STREAMING_MODES = ("tcp", "tcp-stream")


def compare_streaming(
    scenario: Scenario,
    repetitions: int = 2,
    modes: tuple = STREAMING_MODES,
) -> list[StreamingComparisonRun]:
    """Run a scenario's queries monolithic and streamed, side by side.

    Both lanes speak to the same spawned site-server processes; the
    streamed lane routes results through RESULT_CHUNK frames and the
    incremental composer. Byte-identity of the answers is checked against
    the first mode. First run of each configuration is discarded
    (warm-up).
    """
    runs: list[StreamingComparisonRun] = []
    started_tcp = False
    if (
        any(ExecutionMode.parse(mode).transport == "tcp" for mode in modes)
        and scenario.partix.tcp is None
    ):
        scenario.partix.start_tcp()
        started_tcp = True
    try:
        for query in scenario.queries:
            by_mode: dict[str, list[PartixResult]] = {}
            for mode in modes:
                by_mode[mode] = [
                    scenario.partix.execute(
                        query.text,
                        collection=scenario.collection_name,
                        execution_mode=mode,
                    )
                    for _ in range(repetitions + 1)
                ][1:]
            reference = by_mode[modes[0]][-1]
            plan = scenario.partix.explain(
                query.text, scenario.collection_name
            )
            run = StreamingComparisonRun(
                qid=query.qid,
                description=query.description,
                subqueries=len(reference.round.executions),
                composition=plan.composition.kind,
                aggregate=plan.composition.aggregate,
                byte_identical=all(
                    by_mode[mode][-1].result_text == reference.result_text
                    for mode in modes[1:]
                ),
            )
            for mode in modes:
                last = by_mode[mode][-1]
                run.lanes.append(
                    StreamingLane(
                        mode=mode,
                        wall_seconds=_avg(
                            r.measured_wall_seconds for r in by_mode[mode]
                        ),
                        bytes_received=last.bytes_received,
                        streamed=last.streamed,
                        wire_measured=last.wire_measured,
                        peak_buffered_bytes=last.peak_buffered_bytes,
                        first_chunk_seconds=last.first_chunk_seconds,
                    )
                )
            runs.append(run)
    finally:
        if started_tcp:
            scenario.partix.stop_tcp()
    return runs


# ----------------------------------------------------------------------
# Scenario builders (one per paper experiment)
# ----------------------------------------------------------------------
#: Simulated per-document access overhead for paper-faithful scenarios.
#: Calibration: the paper's 250MB ItemsSHor/ItemsLHor centralized times
#: (1200s over ~125k documents vs 31s over ~3.1k documents) imply a
#: per-document constant of roughly 9ms on eXist/2005 hardware. We use a
#: quarter of that so per-document costs are first-order (as in eXist)
#: without completely drowning the measured parse/evaluation times.
PAPER_DOC_OVERHEAD = 0.0025


def _make_cluster(
    fragment_sites: int,
    use_indexes: bool,
    per_document_overhead: float,
    shard_workers: int = 0,
) -> Cluster:
    cluster = Cluster.with_sites(
        fragment_sites,
        use_indexes=use_indexes,
        per_document_overhead=per_document_overhead,
        shard_workers=shard_workers,
    )
    cluster.add(
        Site(
            CENTRAL_SITE,
            use_indexes=use_indexes,
            per_document_overhead=per_document_overhead,
            shard_workers=shard_workers,
        )
    )
    return cluster


def build_items_scenario(
    kind: str,
    paper_mb: int,
    fragment_count: int,
    scale: float = scaling.DEFAULT_SCALE,
    seed: int = 42,
    network: Optional[NetworkModel] = None,
    use_indexes: bool = False,
    per_document_overhead: float = PAPER_DOC_OVERHEAD,
    shard_workers: int = 0,
) -> Scenario:
    """ItemsSHor (kind='small') / ItemsLHor (kind='large'), Fig. 7a/7b.

    ``use_indexes`` defaults to off for paper fidelity (see
    ``Cluster.with_sites``); the ablation benchmark flips it on.
    ``shard_workers`` sizes every site's intra-site worker pool (the
    ``parallel`` figure runs ItemsLHor sharded).
    """
    point = scaling.scaled_point(paper_mb, scale)
    count = scaling.items_count_for(point.target_bytes, kind)
    collection = build_items_collection(count, kind=kind, seed=seed)
    cluster = _make_cluster(
        fragment_count, use_indexes, per_document_overhead, shard_workers
    )
    partix = Partix(cluster, network=network)
    fragmentation = items_horizontal_fragmentation(fragment_count)
    partix.publish(collection, fragmentation)
    partix.publish_centralized(collection, CENTRAL_SITE)
    return Scenario(
        name=f"Items{'S' if kind == 'small' else 'L'}Hor",
        partix=partix,
        collection_name=collection.name,
        queries=query_sets.items_queries(collection.name),
        paper_mb=paper_mb,
        target_bytes=point.target_bytes,
        fragment_count=fragment_count,
    )


def build_xbench_scenario(
    paper_mb: int,
    scale: float = scaling.DEFAULT_SCALE,
    seed: int = 7,
    article_bytes: Optional[int] = None,
    network: Optional[NetworkModel] = None,
    use_indexes: bool = False,
    per_document_overhead: float = PAPER_DOC_OVERHEAD,
) -> Scenario:
    """XBenchVer vertical fragmentation, Fig. 7c (always 3 fragments)."""
    point = scaling.scaled_point(paper_mb, scale)
    doc_bytes = article_bytes or scaling.ARTICLE_BYTES
    count = scaling.articles_count_for(point.target_bytes, doc_bytes)
    collection = build_xbench_collection(count, doc_bytes=doc_bytes, seed=seed)
    cluster = _make_cluster(3, use_indexes, per_document_overhead)
    partix = Partix(cluster, network=network)
    partix.publish(collection, xbench_vertical_fragmentation(collection.name))
    partix.publish_centralized(collection, CENTRAL_SITE)
    return Scenario(
        name="XBenchVer",
        partix=partix,
        collection_name=collection.name,
        queries=query_sets.xbench_queries(collection.name),
        paper_mb=paper_mb,
        target_bytes=point.target_bytes,
        fragment_count=3,
    )


def build_store_scenario(
    paper_mb: int,
    frag_mode: FragMode,
    scale: float = scaling.DEFAULT_SCALE,
    seed: int = 42,
    item_fragments: int = 4,
    network: Optional[NetworkModel] = None,
    use_indexes: bool = False,
    per_document_overhead: float = PAPER_DOC_OVERHEAD,
) -> Scenario:
    """StoreHyb hybrid fragmentation, Fig. 7d (5 fragments, 2 FragModes)."""
    point = scaling.scaled_point(paper_mb, scale)
    count = scaling.store_items_for(point.target_bytes, "small")
    collection = build_store_collection(count, item_kind="small", seed=seed)
    cluster = _make_cluster(item_fragments + 1, use_indexes, per_document_overhead)
    partix = Partix(cluster, network=network)
    fragmentation = store_hybrid_fragmentation(item_fragments, collection.name)
    partix.publish(collection, fragmentation, frag_mode=frag_mode)
    partix.publish_centralized(collection, CENTRAL_SITE)
    return Scenario(
        name=f"StoreHyb-FragMode{frag_mode.value}",
        partix=partix,
        collection_name=collection.name,
        queries=query_sets.store_queries(collection.name),
        paper_mb=paper_mb,
        target_bytes=point.target_bytes,
        fragment_count=item_fragments + 1,
    )
