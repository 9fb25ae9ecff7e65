"""Sites and the simulated cluster.

A *site* is one DBMS node reachable through a PartiX driver. The
:class:`Cluster` is the set of sites the middleware coordinates. Following
the paper's methodology, inter-site parallelism is *simulated*: every
sub-query actually runs (sequentially, in-process), its wall-clock time is
measured, and the parallel elapsed time of a round is the maximum of the
per-site busy times ("we have used the time spent by the slowest site to
produce the result", §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from typing import TYPE_CHECKING

from repro.engine.stats import QueryResult
from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partix.driver import PartixDriver


class Site:
    """One DBMS node of the cluster."""

    def __init__(
        self,
        name: str,
        driver: Optional["PartixDriver"] = None,
        use_indexes: bool = True,
        per_document_overhead: float = 0.0,
        shard_workers: int = 0,
    ):
        self.name = name
        if driver is None:
            # Imported lazily: partix drivers sit above the cluster layer.
            from repro.engine.database import XMLEngine
            from repro.partix.driver import MiniXDriver

            driver = MiniXDriver(
                XMLEngine(
                    name,
                    use_indexes=use_indexes,
                    per_document_overhead=per_document_overhead,
                    shard_workers=shard_workers,
                )
            )
        self.driver = driver

    def execute(
        self,
        query: str,
        default_collection: Optional[str] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ) -> QueryResult:
        # The overrides travel only when set — mirroring the wire
        # protocol, and keeping duck-typed driver substitutes with the
        # historical two-argument signature working on plain lanes.
        kwargs = {}
        if use_indexes is not None:
            kwargs["use_indexes"] = use_indexes
        if parallel_degree is not None:
            kwargs["parallel_degree"] = parallel_degree
        return self.driver.execute(
            query,
            default_collection=default_collection,
            **kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Site({self.name!r})"


class Cluster:
    """A named set of sites."""

    def __init__(self, sites: Iterable[Site] = ()):
        self._sites: dict[str, Site] = {}
        for site in sites:
            self.add(site)

    @classmethod
    def with_sites(
        cls,
        count: int,
        prefix: str = "site",
        use_indexes: bool = True,
        per_document_overhead: float = 0.0,
        shard_workers: int = 0,
    ) -> "Cluster":
        """A cluster of ``count`` fresh in-memory MiniX sites.

        ``use_indexes`` toggles document-level index pruning at every
        site — the paper-faithful benchmarks run with it off: eXist (2005)
        evaluated generic XQuery predicates by iterating every document of
        the queried collection. ``per_document_overhead`` is the simulated
        per-document access cost (see ``XMLEngine``); ``shard_workers``
        sizes each site's intra-site worker pool (0 = serial).
        """
        return cls(
            Site(
                f"{prefix}{index}",
                use_indexes=use_indexes,
                per_document_overhead=per_document_overhead,
                shard_workers=shard_workers,
            )
            for index in range(count)
        )

    def add(self, site: Site) -> Site:
        if site.name in self._sites:
            raise ClusterError(f"site {site.name!r} already exists")
        self._sites[site.name] = site
        return site

    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            raise ClusterError(f"no site named {name!r}") from None

    def site_names(self) -> list[str]:
        return list(self._sites)

    def sites(self) -> list[Site]:
        return list(self._sites.values())

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, name: str) -> bool:
        return name in self._sites


@dataclass
class SubQueryExecution:
    """Metrics of one sub-query run at one site.

    ``bytes_sent``/``bytes_received`` are the transport's byte counts
    for this sub-query: real framed socket bytes when ``on_wire`` is
    True (tcp execution), otherwise the payload sizes that *would* have
    traveled (query text out, serialized result back) — the quantities
    the :class:`~repro.cluster.network.NetworkModel` estimates from, now
    recorded so the model can be validated against measured transfers.
    """

    site: str
    fragment: str
    query: str
    result: QueryResult
    bytes_sent: int = 0
    bytes_received: int = 0
    on_wire: bool = False
    #: Identity of the physical-plan node this execution realized, plus
    #: the plan's estimate for it — set by the plan executor so measured
    #: per-lane timings can be compared against the estimates.
    plan_node: Optional[str] = None
    estimated_seconds: Optional[float] = None
    #: How many times the dispatcher re-aimed this sub-query at another
    #: replica before this execution succeeded (0 = the planned site
    #: answered), plus the site targeted by each attempt in order —
    #: ``attempt_sites[-1] == site`` always holds.
    failover_count: int = 0
    attempt_sites: list = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.result.elapsed_seconds

    @property
    def result_bytes(self) -> int:
        return self.result.result_bytes


@dataclass
class ParallelRound:
    """One round of sub-queries executed 'in parallel' across sites.

    ``parallel_seconds`` is the slowest site's busy time (a site running
    several sub-queries sums them); ``executions`` keeps every sub-query's
    own metrics for reporting.

    ``measured_wall_seconds`` is the *real* wall-clock time the round took
    on this machine — in ``"simulated"`` execution mode that is the
    sequential loop's duration, in ``"threads"`` mode the concurrent
    dispatcher's, so benchmarks can print simulated parallel time and
    measured parallel time side by side.

    Streaming rounds additionally record ``streamed=True``,
    ``peak_buffered_bytes`` (the coordinator's largest in-memory partial
    buffering — bounded by spill threshold × active lanes, not by result
    size) and ``first_chunk_seconds`` (sink creation to first arriving
    chunk: the round's time-to-first-byte).
    """

    executions: list[SubQueryExecution] = field(default_factory=list)
    measured_wall_seconds: float = 0.0
    streamed: bool = False
    peak_buffered_bytes: int = 0
    first_chunk_seconds: Optional[float] = None

    @property
    def failover_count(self) -> int:
        """Replica failovers across the round's executions."""
        return sum(execution.failover_count for execution in self.executions)

    @property
    def parallel_seconds(self) -> float:
        busy: dict[str, float] = {}
        for execution in self.executions:
            busy[execution.site] = busy.get(execution.site, 0.0) + execution.elapsed
        return max(busy.values(), default=0.0)

    @property
    def sequential_seconds(self) -> float:
        return sum(execution.elapsed for execution in self.executions)

    @property
    def result_sizes(self) -> list[int]:
        return [execution.result_bytes for execution in self.executions]

    @property
    def total_result_bytes(self) -> int:
        return sum(self.result_sizes)

    @property
    def total_bytes_sent(self) -> int:
        """Transport bytes sent for the round (see SubQueryExecution)."""
        return sum(execution.bytes_sent for execution in self.executions)

    @property
    def total_bytes_received(self) -> int:
        """Transport bytes received for the round."""
        return sum(execution.bytes_received for execution in self.executions)

    @property
    def wire_measured(self) -> bool:
        """True when every byte count came off a real socket."""
        return bool(self.executions) and all(
            execution.on_wire for execution in self.executions
        )
