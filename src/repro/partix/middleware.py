"""The PartiX middleware (paper §4, Figure 5/6).

"PartiX works as a middleware between the user application and a set of
DBMS servers, which actually store the distributed XML data. ... when a
query arrives, PartiX analyzes the fragmentation schema to properly split
it into sub-queries, and then sends each sub-query to its respective
fragment. Also, PartiX gathers the results of the sub-queries and
reconstructs the query answer."

:class:`Partix` wires the catalog services, the data publisher, the query
decomposer and the result composer over a simulated cluster. Timing
follows the paper's methodology: the reported parallel time is the
slowest site's busy time plus composition, with transmission estimated
from result sizes over the network model and reported separately (the
paper's FragModeX-T / FragModeX-NT series).

Three execution modes cover the paper's simulation *and* the real thing:

* ``execution_mode="simulated"`` (default) — sub-queries run
  sequentially in-process, as the paper's prototype did;
* ``execution_mode="threads"`` — sub-queries run concurrently through a
  :class:`~repro.cluster.dispatch.ParallelDispatcher` (one worker lane
  per site, timeout/retry/failure policy);
* ``execution_mode="tcp"`` — the same dispatcher drives socket lanes to
  real site-server *processes* (see :mod:`repro.net`): serialization
  and transport costs are paid, not modeled. Call :meth:`Partix.start_tcp`
  first — it spawns one server per cluster site and mirrors every
  published fragment to them over the wire.

Each mode also runs with ``streaming=True`` (``"tcp-stream"`` is
shorthand for tcp + streaming): partial results arrive as bounded chunks
feeding an :class:`~repro.partix.composer.IncrementalComposer` instead
of barriering as monolithic strings — over sockets via RESULT_CHUNK
frames, in threads/simulated via the transports' chunk emulation, so the
very same chunk-boundary behavior is exercised everywhere. Streaming
rounds record ``peak_buffered_bytes`` and ``first_chunk_seconds``.

Execution is plan-driven: every query is decomposed into a logical plan,
lowered to a :class:`~repro.plan.physical.PhysicalPlan` (cost-based
site/replica selection; see :mod:`repro.plan`), and run through the one
:class:`~repro.plan.executor.PlanExecutor` path. The modes differ only
in the :class:`~repro.cluster.dispatch.Transport` they select —
``"simulated"`` is the in-process transport behind a serializing lock,
reproducing the paper's sequential round. ``Partix.explain`` returns the
physical plan (render it with ``.render()``) without executing anything.

In every mode ``ParallelRound.measured_wall_seconds`` records the real
wall-clock of the round, and results are byte-identical across modes
(partial results always compose in plan order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro.cluster.dispatch import (
    InProcessTransport,
    ParallelDispatcher,
    SerialTransport,
    Transport,
)
from repro.errors import CatalogContention, CatalogError, ClusterError
from repro.net.protocol import DEFAULT_CHUNK_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.bootstrap import TcpSiteCluster
from repro.cluster.network import NetworkModel
from repro.cluster.site import Cluster, ParallelRound, SubQueryExecution
from repro.datamodel.collection import Collection
from repro.partix.catalog import (
    DistributionCatalog,
    FragmentAllocation,
    SchemaCatalog,
)
from repro.partix.composer import ComposedResult, ResultComposer
from repro.partix.decomposer import DecomposedQuery, QueryDecomposer
from repro.partix.fragments import FragmentationSchema
from repro.partix.publisher import DataPublisher, FragMode, PublicationReport
from repro.plan.cache import PlanCache
from repro.plan.cost import CostModel
from repro.plan.executor import ExecutionMode, PlanExecutor
from repro.plan.lower import lower


@dataclass
class PartixResult:
    """Outcome of one distributed query."""

    query: str
    result_text: str
    result_bytes: int
    round: ParallelRound
    composed: ComposedResult
    transmission_seconds: float
    plan: Optional[DecomposedQuery] = None
    notes: list[str] = field(default_factory=list)

    @property
    def parallel_seconds(self) -> float:
        """Slowest-site time + composition (no transmission)."""
        return self.round.parallel_seconds + self.composed.compose_seconds

    @property
    def total_seconds(self) -> float:
        """Parallel time including estimated transmission."""
        return self.parallel_seconds + self.transmission_seconds

    @property
    def sequential_seconds(self) -> float:
        """Sum of all sub-query times (a one-site-at-a-time lower bound)."""
        return self.round.sequential_seconds + self.composed.compose_seconds

    @property
    def measured_wall_seconds(self) -> float:
        """Real wall-clock of the round + composition on this machine
        (concurrent in ``"threads"``/``"tcp"`` mode, sequential in
        ``"simulated"``)."""
        return self.round.measured_wall_seconds + self.composed.compose_seconds

    @property
    def bytes_sent(self) -> int:
        """Transport bytes sent dispatching the round's sub-queries —
        real framed socket bytes when :attr:`wire_measured`, otherwise
        the payload sizes that would have traveled."""
        return self.round.total_bytes_sent

    @property
    def bytes_received(self) -> int:
        """Transport bytes received gathering the round's results."""
        return self.round.total_bytes_received

    @property
    def wire_measured(self) -> bool:
        """True when the byte counts were measured on real sockets."""
        return self.round.wire_measured

    @property
    def streamed(self) -> bool:
        """True when the round ran through the streaming pipeline."""
        return self.round.streamed

    @property
    def peak_buffered_bytes(self) -> int:
        """Coordinator's peak in-memory partial-result buffering (streamed
        rounds; bounded by spill threshold × active lanes, not result
        size)."""
        return self.round.peak_buffered_bytes

    @property
    def first_chunk_seconds(self) -> Optional[float]:
        """Time-to-first-chunk of a streamed round (None otherwise)."""
        return self.round.first_chunk_seconds

    @property
    def failover_count(self) -> int:
        """Replica failovers the round's retries performed (0 = every
        sub-query was answered by the site the plan targeted)."""
        return self.round.failover_count

    @property
    def lane_timings(self) -> list[dict]:
        """Per-lane estimated vs measured seconds.

        The plan executor stamps every execution with the physical-plan
        node it realized and the cost model's estimate for it, so the
        planner's predictions can be checked against what actually
        happened (the bench ``modes`` figure records both). Failed-over
        lanes additionally report which sites each attempt targeted.
        """
        return [
            {
                "plan_node": execution.plan_node,
                "fragment": execution.fragment,
                "site": execution.site,
                "estimated_seconds": execution.estimated_seconds,
                "measured_seconds": execution.elapsed,
                "failover_count": execution.failover_count,
                "attempt_sites": list(execution.attempt_sites),
            }
            for execution in self.round.executions
        ]


def _cluster_shard_workers(cluster: Cluster) -> int:
    """Infer the intra-site worker pool size from the cluster's sites.

    The minimum across every site's introspectable engine — lowering
    must never stamp a degree some site cannot honor (it would silently
    serialize there, skewing the lane estimates). Sites without an
    engine (remote drivers) count as 0: the conservative answer.
    """
    sites = cluster.sites()
    if not sites:
        return 0
    workers = None
    for site in sites:
        engine = getattr(site.driver, "engine", None)
        if engine is None:
            return 0
        site_workers = int(getattr(engine, "shard_workers", 0))
        workers = site_workers if workers is None else min(workers, site_workers)
    return workers or 0


def _cluster_uses_indexes(cluster: Cluster) -> bool:
    """Infer index eligibility from the cluster's site configurations.

    True only when *every* site exposes a local engine whose planner
    runs with document indexes on. Sites without an introspectable
    engine (remote drivers) count as off — the conservative answer,
    since index-scan lanes would silently degrade to full scans there.
    """
    sites = cluster.sites()
    if not sites:
        return False
    for site in sites:
        engine = getattr(site.driver, "engine", None)
        planner = getattr(engine, "planner", None)
        if planner is None or not getattr(planner, "use_indexes", False):
            return False
    return True


class Partix:
    """Coordinator for distributed XQuery over fragmented repositories."""

    def __init__(
        self,
        cluster: Cluster,
        network: Optional[NetworkModel] = None,
        schema_catalog: Optional[SchemaCatalog] = None,
        distribution_catalog: Optional[DistributionCatalog] = None,
        dispatcher: Optional[ParallelDispatcher] = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        plan_cache: Optional[PlanCache] = None,
        use_indexes: Optional[bool] = None,
        shard_workers: Optional[int] = None,
    ):
        self.cluster = cluster
        #: Intra-site shard worker pool size lowering may assume at every
        #: site. ``None`` (the default) infers it as the minimum over the
        #: cluster's engines (0 when any site has no introspectable
        #: engine), so a plain cluster plans serial lanes exactly as
        #: before. Like index eligibility, this is a ceiling, not a
        #: commitment — lowering prices serial vs sharded per fragment.
        if shard_workers is None:
            shard_workers = _cluster_shard_workers(cluster)
        self.shard_workers = max(0, int(shard_workers))
        #: Are fragment scans *eligible* for the index access path?
        #: ``None`` (the default) infers it from the cluster: eligible
        #: only when every site's engine runs with document indexes on,
        #: so a paper-faithful cluster (indexes off) plans pure
        #: ``FragmentScan`` trees exactly as before. Eligibility is not
        #: commitment — lowering still prices both access paths per
        #: fragment and picks the cheaper one.
        if use_indexes is None:
            use_indexes = _cluster_uses_indexes(cluster)
        self.use_indexes = use_indexes
        #: Optional LRU of logical plans keyed on (query, collection,
        #: catalog version). ``None`` (the default) plans every query
        #: from scratch; the coordinator service passes a shared cache so
        #: repeat queries skip decompose. Hits re-lower against the live
        #: site health, so cached plans still avoid ejected sites.
        self.plan_cache = plan_cache
        #: How many times cached planning retries when a concurrent
        #: catalog replace invalidates the version it read mid-decompose,
        #: before raising :class:`~repro.errors.CatalogContention`.
        self.plan_retry_attempts = 4
        #: Streamed-chunk size: proposed to tcp site servers at connect
        #: time and used verbatim by the in-process chunk emulation and as
        #: the incremental composer's spill threshold.
        self.chunk_bytes = max(1, int(chunk_bytes))
        self.network = network if network is not None else NetworkModel()
        self.dispatcher = (
            dispatcher if dispatcher is not None else ParallelDispatcher()
        )
        #: Shared site-health tracker: the dispatcher reports attempt
        #: outcomes into it, lowering reads it back so new plans avoid
        #: ejected sites. A caller-supplied dispatcher brings its own;
        #: exotic dispatcher substitutes without one get a private
        #: tracker (lowering still works, it just never sees ejections).
        self.site_health = getattr(self.dispatcher, "site_health", None)
        if self.site_health is None:
            from repro.cluster.health import SiteHealth

            self.site_health = SiteHealth()
        self.schema_catalog = (
            schema_catalog if schema_catalog is not None else SchemaCatalog()
        )
        self.distribution_catalog = (
            distribution_catalog
            if distribution_catalog is not None
            else DistributionCatalog()
        )
        self.publisher = DataPublisher(cluster, self.distribution_catalog)
        #: Cost model fed by the catalog's fragment statistics and this
        #: instance's network model; lowering uses it for site selection
        #: and the per-node estimates shown by ``explain``.
        self.cost_model = CostModel(
            self.distribution_catalog,
            self.network,
            shard_workers=self.shard_workers,
        )
        self.decomposer = QueryDecomposer(
            self.distribution_catalog,
            cost_model=self.cost_model,
            site_health=self.site_health,
            use_indexes=self.use_indexes,
        )
        self.composer = ResultComposer()
        self.plan_executor = PlanExecutor(self.composer)
        self._tcp: Optional["TcpSiteCluster"] = None

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(
        self,
        collection: Collection,
        fragmentation: FragmentationSchema,
        allocations: Optional[Sequence[FragmentAllocation]] = None,
        frag_mode: FragMode = FragMode.SINGLE_DOCUMENT,
        verify: bool = False,
        require_homogeneous: bool = True,
        replace: bool = False,
    ) -> PublicationReport:
        """Fragment and distribute a collection (see :class:`DataPublisher`).

        ``replace=True`` republishes over an existing design: data is
        stored before the catalog registration is swapped, and the
        resulting catalog-version bump invalidates cached plans.
        """
        return self.publisher.publish(
            collection,
            fragmentation,
            allocations=allocations,
            frag_mode=frag_mode,
            verify=verify,
            require_homogeneous=require_homogeneous,
            replace=replace,
        )

    def publish_centralized(
        self,
        collection: Collection,
        site_name: str,
        stored_collection: Optional[str] = None,
    ):
        """Store a whole collection at one site (baseline configuration)."""
        return self.publisher.publish_centralized(
            collection, site_name, stored_collection=stored_collection
        )

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: str,
        collection: Optional[str] = None,
        plan: Optional[DecomposedQuery] = None,
        execution_mode: str = "simulated",
        dispatcher: Optional[ParallelDispatcher] = None,
        streaming: bool = False,
        deadline_seconds: Optional[float] = None,
        use_indexes: Optional[bool] = None,
        shard_degree: Optional[int] = None,
    ) -> PartixResult:
        """Run a query over the fragmented repository.

        Without an explicit ``plan``, the automatic decomposer derives one
        from the distribution catalog (our extension); passing a plan
        reproduces the paper's annotated mode ("data location is provided
        along with sub-queries").

        ``execution_mode`` selects how sub-queries run: ``"simulated"``
        executes them sequentially in-process (paper methodology),
        ``"threads"`` dispatches them concurrently — one worker lane per
        site — through ``dispatcher`` (default: this instance's
        :class:`ParallelDispatcher`), and ``"tcp"`` sends them through
        the same dispatcher to real site-server processes (requires
        :meth:`start_tcp`). All modes compose partial results in plan
        order, so the answer is byte-identical.

        ``streaming=True`` routes partial results through the incremental
        composer as :attr:`chunk_bytes`-bounded chunks instead of
        monolithic strings (``execution_mode="tcp-stream"`` is shorthand
        for tcp + streaming); the answer stays byte-identical and the
        round gains ``peak_buffered_bytes``/``first_chunk_seconds``.

        ``deadline_seconds`` bounds this query: it is handed to the
        dispatcher as the round's per-sub-query budget override (lanes
        run in parallel, so it bounds the round's wall time through the
        PR 6 shared-budget machinery). The coordinator threads each
        client's remaining deadline through here.

        ``use_indexes`` is a per-query index override: every dispatched
        sub-query carries it to the executing site, overriding that
        site's own configuration (``False`` = paper-faithful full
        scans everywhere, ``True`` = force index probes). ``None``
        leaves the plan's own per-lane access-path decisions in charge.
        The differential fuzz oracle uses this to run the same plan
        with indexes on and off and assert byte-identical answers.

        ``shard_degree`` is the analogous per-query intra-site override:
        ≥ 2 asks every executing site to shard its sub-query across that
        many workers, 1 (or less) forces serial evaluation everywhere.
        ``None`` leaves lowering's per-lane degree decisions in charge.
        The fuzz ``shards`` oracle runs the same plan forced-serial and
        forced-sharded and asserts byte-identical answers.
        """
        mode = ExecutionMode.parse(execution_mode, streaming=streaming)
        if plan is None:
            plan = self._plan_for(query, collection)
        plan = plan.with_execution(
            streaming=mode.streaming,
            chunk_bytes=self.chunk_bytes if mode.streaming else None,
        )
        if use_indexes is not None:
            plan = plan.with_lane_indexes(use_indexes)
        if shard_degree is not None:
            plan = plan.with_lane_degree(shard_degree)
        notes = list(plan.notes)
        active = dispatcher if dispatcher is not None else self.dispatcher
        executed = self.plan_executor.run(
            plan,
            self._transport_for(mode),
            active,
            subquery_timeout=deadline_seconds,
        )
        notes.extend(executed.notes)
        round_ = executed.round
        composed = executed.composed
        transmission = self.network.gather_seconds(
            round_.result_sizes,
            query_sizes=[
                len(subquery.query.encode("utf-8"))
                for subquery in plan.subqueries
            ],
        )
        return PartixResult(
            query=query,
            result_text=composed.result_text,
            result_bytes=composed.result_bytes,
            round=round_,
            composed=composed,
            transmission_seconds=transmission,
            plan=plan,
            notes=notes,
        )

    def _plan_for(
        self, query: str, collection: Optional[str]
    ) -> DecomposedQuery:
        """Plan a query, through :attr:`plan_cache` when one is set.

        The cache stores the *logical* plan keyed on the catalog version;
        every execution (hit or miss) re-lowers it against the live cost
        model and site health, so routing decisions — ejected sites,
        replica choice — are always current. A version change observed
        across the decompose (a concurrent republish swapping the design
        mid-read) discards the possibly-mixed plan and retries against
        the new design. The retry loop is bounded by
        :attr:`plan_retry_attempts`: if replaces keep racing planning, a
        typed :class:`~repro.errors.CatalogContention` is raised instead
        of silently planning against a design that may be mixed — the
        caller can retry once the replace storm settles.
        """
        if self.plan_cache is None:
            return self.decomposer.decompose(query, collection)
        catalog = self.distribution_catalog
        for _ in range(self.plan_retry_attempts):
            version = catalog.version
            logical = self.plan_cache.get(query, collection, version)
            if logical is None:
                try:
                    logical = self.decomposer.decompose_logical(
                        query, collection
                    )
                except CatalogError:
                    if catalog.version != version:
                        continue  # design swapped mid-decompose; replan
                    raise
                if catalog.version != version:
                    continue  # may mix old and new designs; replan
                self.plan_cache.put(query, collection, version, logical)
            return lower(
                logical,
                cost_model=self.cost_model,
                site_health=self.site_health,
            )
        raise CatalogContention(
            f"catalog version changed across {self.plan_retry_attempts}"
            f" consecutive planning attempts for query {query!r}"
            " (concurrent replaces/rebalances kept invalidating the"
            " design mid-decompose); retry once the catalog settles"
        )

    def _transport_for(self, mode: ExecutionMode) -> Transport:
        """The Transport a parsed mode runs over — the *only* thing that
        differs between modes; planning, dispatch and composition are
        shared."""
        if mode.transport == "tcp":
            if self._tcp is None:
                raise ClusterError(
                    "execution_mode='tcp' requires running site servers;"
                    " call Partix.start_tcp() first"
                )
            return self._tcp.transport()
        transport: Transport = InProcessTransport(
            self.cluster, chunk_bytes=self.chunk_bytes
        )
        if not mode.concurrent:
            # The paper's sequential "simulated" round: same dispatcher,
            # same lanes, executions serialized behind one lock.
            transport = SerialTransport(transport)
        return transport

    # ------------------------------------------------------------------
    # Real networked sites (execution_mode="tcp")
    # ------------------------------------------------------------------
    def start_tcp(
        self,
        startup_timeout: float = 15.0,
        context=None,
    ) -> "TcpSiteCluster":
        """Spawn one site-server process per cluster site and mirror the
        published data to them.

        Each server runs a private engine configured like its local twin
        (indexes, per-document overhead, cache). Every collection stored
        at a local site is republished to the matching server through
        the driver path — the serialized fragment documents themselves
        travel, so the remote repositories are byte-identical. Idempotent
        until :meth:`stop_tcp`.
        """
        if self._tcp is not None:
            return self._tcp
        from repro.net.bootstrap import (
            TcpSiteCluster,
            engine_config_of,
            mirror_site,
        )

        configs = {
            site.name: engine_config_of(site) for site in self.cluster.sites()
        }
        tcp = TcpSiteCluster.spawn(
            configs,
            startup_timeout=startup_timeout,
            context=context,
            chunk_bytes=self.chunk_bytes,
        )
        try:
            for site in self.cluster.sites():
                mirror_site(site, tcp.clients[site.name])
        except BaseException:
            tcp.shutdown()
            raise
        self._tcp = tcp
        return tcp

    def stop_tcp(self) -> None:
        """Drain and reap the site-server processes (no-op when absent)."""
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp = None

    @property
    def tcp(self) -> Optional["TcpSiteCluster"]:
        """The running TCP site cluster, if :meth:`start_tcp` was called."""
        return self._tcp

    def explain(
        self, query: str, collection: Optional[str] = None
    ) -> DecomposedQuery:
        """The physical plan the middleware would execute — lanes, target
        sites, composition and per-node cost estimates — without running
        anything. ``.render()`` formats it as an indented tree."""
        return self.decomposer.decompose(query, collection)

    def execute_centralized(
        self,
        query: str,
        site_name: str,
    ) -> PartixResult:
        """Run a query directly at one site (the centralized baseline)."""
        site = self.cluster.site(site_name)
        started = time.perf_counter()
        result = site.execute(query)
        wall_seconds = time.perf_counter() - started
        round_ = ParallelRound(
            executions=[
                SubQueryExecution(
                    site=site_name,
                    fragment="(centralized)",
                    query=query,
                    result=result,
                    bytes_sent=len(query.encode("utf-8")),
                    bytes_received=result.result_bytes,
                    on_wire=False,
                )
            ],
            measured_wall_seconds=wall_seconds,
        )
        composed = ComposedResult(
            result_text=result.result_text,
            result_bytes=result.result_bytes,
            compose_seconds=0.0,
        )
        transmission = self.network.gather_seconds(
            [result.result_bytes],
            query_sizes=[len(query.encode("utf-8"))],
        )
        return PartixResult(
            query=query,
            result_text=result.result_text,
            result_bytes=result.result_bytes,
            round=round_,
            composed=composed,
            transmission_seconds=transmission,
        )
