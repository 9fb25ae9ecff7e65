"""The benchmark's three workloads.

Each workload fixes one deployment of the paper's scenarios and one way
of loading it. Why each was chosen, which layers it loads and which it
bypasses, is recorded in ``perfbench/README.md``.

A workload run has four stages:

1. ``generate`` — the collection, from the seed (never timed);
2. ``baseline`` — every query's expected answer, computed serially on a
   separate deployment with a centralized site (the ``repro.bench``
   scenario layout) and cross-checked once against the centralized
   answer with the F7 ``results_match`` rule (never timed);
3. ``start`` — publish and start the measured system, plus one warm-up
   pass whose answers are checked and discarded (this is ``setup_s``);
4. ``measure`` — the timed load; every answer is compared byte for byte
   with the expected text.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.bench import scale as scaling
from repro.bench import scenarios
from repro.cluster.site import Cluster
from repro.coordinate.client import CoordinatorClient
from repro.coordinate.service import Coordinator
from repro.datamodel.collection import Collection
from repro.partix.middleware import Partix
from repro.workloads import queries as query_sets
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)
from repro.workloads.xbench import (
    build_xbench_collection,
    xbench_vertical_fragmentation,
)

from loadgen import Arrival, run_open_loop, uniform_arrivals

#: The paper's 100 MB grid point; ``--scale`` shrinks it (0.01 by default).
PAPER_MB = 100
ITEMS_FRAGMENTS = 4
#: Client threads/connections: the machine's processor count, at most 2.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: ToXgene content seeds of the paper scenarios (the ``repro.bench``
#: defaults). The content stays fixed and ``--seed`` shuffles the
#: generated documents: with content drawn from ``--seed`` the largest
#: Items fragment held 260 to 316 documents over seeds 1-5, and the
#: workload's size, not the code, set the spread between runs.
ITEMS_CONTENT_SEED = 42
XBENCH_CONTENT_SEED = 7


class BaselineMismatch(Exception):
    """A fragmented answer disagrees with the centralized baseline."""


@dataclass
class Query:
    qid: str
    text: str
    expected: str


@dataclass
class Call:
    """One timed request of a closed-loop caller."""

    qid: str
    seconds: float
    ok: bool
    error: Optional[str] = None


@dataclass
class Measurement:
    """Raw samples of one measured window."""

    wall_seconds: float
    calls: list = field(default_factory=list)  # direct calls: list[Call]
    outcomes: list = field(default_factory=list)  # serving: list[Outcome]
    passes_modeled: list = field(default_factory=list)
    pass_rates: list = field(default_factory=list)  # verified answers/s per pass
    pass_walls: list = field(default_factory=list)
    pass_traced: list = field(default_factory=list)  # traced runs alternate
    steps: list = field(default_factory=list)  # serving: offered rates
    coordinator_stats: dict = field(default_factory=dict)


def _shuffled(collection: Collection, seed: int) -> Collection:
    documents = collection.documents()
    random.Random(seed).shuffle(documents)
    return Collection(
        collection.name,
        documents,
        schema=collection.schema,
        root_type=collection.root_type,
        kind=collection.kind,
    )


def _close_engines(cluster: Cluster) -> None:
    for site in cluster.sites():
        engine = getattr(site.driver, "engine", None)
        if engine is not None:
            engine.close()


def _check(result_text: Optional[str], query: Query) -> bool:
    return result_text == query.expected


class Workload:
    """One deployment: its data, design, site configuration and queries."""

    name = ""
    sites = ITEMS_FRAGMENTS
    use_indexes = False
    per_document_overhead = scenarios.PAPER_DOC_OVERHEAD
    shard_workers = 0

    def content(self, scale: float) -> Collection:
        raise NotImplementedError

    def fragmentation(self, collection: Collection):
        raise NotImplementedError

    def bench_queries(self, collection: Collection):
        raise NotImplementedError

    def generate(self, seed: int, scale: float) -> Collection:
        return _shuffled(self.content(scale), seed)

    def baseline(self, collection: Collection) -> list[Query]:
        """Expected texts from the serial fragmented run, each checked
        once against the centralized answer with the F7 rule."""
        cluster = scenarios._make_cluster(
            self.sites, self.use_indexes, self.per_document_overhead
        )
        try:
            partix = Partix(cluster)
            partix.publish(collection, self.fragmentation(collection))
            partix.publish_centralized(collection, scenarios.CENTRAL_SITE)
            queries = []
            for query in self.bench_queries(collection):
                central = partix.execute_centralized(
                    query.text, scenarios.CENTRAL_SITE
                )
                fragmented = partix.execute(query.text, collection=collection.name)
                if scenarios._result_signature(
                    central.result_text
                ) != scenarios._result_signature(fragmented.result_text):
                    raise BaselineMismatch(
                        f"{self.name} {query.qid}: the fragmented answer does"
                        " not match the centralized baseline"
                    )
                queries.append(Query(query.qid, query.text, fragmented.result_text))
            return queries
        finally:
            _close_engines(cluster)

    def build(self, collection: Collection) -> Partix:
        """Publish ``collection`` on a fresh cluster of this workload."""
        cluster = Cluster.with_sites(
            self.sites,
            use_indexes=self.use_indexes,
            per_document_overhead=self.per_document_overhead,
            shard_workers=self.shard_workers,
        )
        partix = Partix(cluster)
        try:
            partix.publish(collection, self.fragmentation(collection))
        except BaseException:
            _close_engines(cluster)
            raise
        return partix


class _Items:
    """ItemsSHor at the paper's 100 MB point, 4 horizontal fragments."""

    def content(self, scale):
        point = scaling.scaled_point(PAPER_MB, scale)
        count = scaling.items_count_for(point.target_bytes, "small")
        return build_items_collection(count, kind="small", seed=ITEMS_CONTENT_SEED)

    def fragmentation(self, collection):
        return items_horizontal_fragmentation(
            ITEMS_FRAGMENTS, collection=collection.name
        )

    def bench_queries(self, collection):
        return query_sets.items_queries(collection.name)


# ----------------------------------------------------------------------
# Batch workloads: one closed-loop caller, the query set round-robin
# ----------------------------------------------------------------------
class BatchSystem:
    def __init__(self, partix: Partix, collection: str, mode: str):
        self.partix = partix
        self.collection = collection
        self.mode = mode

    def execute(self, query: Query):
        return self.partix.execute(
            query.text, collection=self.collection, execution_mode=self.mode
        )

    def close(self) -> None:
        _close_engines(self.partix.cluster)


class BatchWorkload(Workload):
    """Shared runner of ``items-scan`` and ``xbench-join``."""

    mode = "simulated"

    def start(self, collection, queries: list[Query]) -> BatchSystem:
        system = BatchSystem(self.build(collection), collection.name, self.mode)
        try:
            for query in queries:  # warm-up pass: checked, then discarded
                if not _check(system.execute(query).result_text, query):
                    raise BaselineMismatch(f"{self.name} warm-up {query.qid}")
        except BaseException:
            system.close()
            raise
        return system

    def measure(
        self,
        system: BatchSystem,
        queries: list[Query],
        seconds: float,
        rng: random.Random,
        tracer=None,
    ) -> Measurement:
        """Run whole passes of the query set, in a seeded order, until
        ``seconds`` have passed. With a ``tracer``, every second pass is
        traced, so traced and untraced passes see the same machine."""
        order = list(queries)
        rng.shuffle(order)
        run = Measurement(wall_seconds=0.0)
        pass_modeled = 0.0
        pass_ok = 0
        started = pass_started = time.perf_counter()
        deadline = started + seconds
        index = 0
        traced = False
        while time.perf_counter() < deadline or index % len(order):
            if tracer is not None and index % len(order) == 0:
                traced = len(run.pass_rates) % 2 == 1
                if traced:
                    tracer.install()
            query = order[index % len(order)]
            span = tracer.open("request", "harness") if traced else None
            began = time.perf_counter()
            try:
                result = system.execute(query)
            except Exception as exc:  # noqa: BLE001 - a failed request
                elapsed = time.perf_counter() - began
                run.calls.append(Call(query.qid, elapsed, False, error=repr(exc)))
            else:
                elapsed = time.perf_counter() - began
                ok = _check(result.result_text, query)
                run.calls.append(
                    Call(
                        query.qid,
                        elapsed,
                        ok,
                        error=None if ok else "answer differs from baseline",
                    )
                )
                pass_modeled += result.parallel_seconds
                pass_ok += ok
            finally:
                if span is not None:
                    span.attrs["query"] = query.text
                    tracer.close(span)
            index += 1
            if index % len(order) == 0:
                if traced:
                    tracer.uninstall()
                now = time.perf_counter()
                run.passes_modeled.append(pass_modeled)
                run.pass_walls.append(now - pass_started)
                run.pass_rates.append(pass_ok / (now - pass_started))
                run.pass_traced.append(traced)
                pass_modeled, pass_ok, pass_started = 0.0, 0, now
        run.wall_seconds = time.perf_counter() - started
        return run


class ItemsScan(_Items, BatchWorkload):
    name = "items-scan"
    mode = "threads"
    shard_workers = CONNECTIONS


class XBenchJoin(BatchWorkload):
    name = "xbench-join"
    sites = 3

    def content(self, scale):
        point = scaling.scaled_point(PAPER_MB, scale)
        count = scaling.articles_count_for(point.target_bytes)
        return build_xbench_collection(
            count, doc_bytes=scaling.ARTICLE_BYTES, seed=XBENCH_CONTENT_SEED
        )

    def fragmentation(self, collection):
        return xbench_vertical_fragmentation(collection.name)

    def bench_queries(self, collection):
        return query_sets.xbench_queries(collection.name)


# ----------------------------------------------------------------------
# serving-churn: open loop through the coordinator over tcp sites
# ----------------------------------------------------------------------
#: Offered rates (queries per second) with the share of the window each
#: runs for. The first is the nominal rate the latency metrics are read
#: at, low enough that the two connections rarely queue behind each
#: other. The second offers more than the capacity (about 45 queries/s
#: with moves on a 2-processor machine), so both connections stay busy
#: until its backlog drains, a few seconds after the window; its rate of
#: verified answers is the capacity figure ``qps``. It runs long enough
#: (10 s of arrivals in a 40 s window) to average over the capacity's
#: swings, which reach 20% over 2 s.
RATE_STEPS = ((12.0, 0.75), (80.0, 0.25))
#: One REBALANCE move every this many seconds, in every step.
MOVE_INTERVAL_S = 2.5
#: Direct passes of the query set after the open loop, for
#: ``modeled_pass_s``. One pass is about 0.1 s and varies up to threefold
#: from pass to pass, so the median needs many.
MODELED_PASSES = 48


class ServingSystem:
    def __init__(self, partix: Partix, coordinator: Coordinator, collection: str):
        self.partix = partix
        self.coordinator = coordinator
        self.collection = collection
        self.clients = [
            CoordinatorClient(coordinator.host, coordinator.port, site=f"bench-{i}")
            for i in range(CONNECTIONS)
        ]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        try:
            self.coordinator.close()
        finally:
            try:
                self.partix.stop_tcp()
            finally:
                _close_engines(self.partix.cluster)


class ServingChurn(_Items, Workload):
    name = "serving-churn"
    use_indexes = True
    per_document_overhead = 0.0

    def start(self, collection, queries: list[Query]) -> ServingSystem:
        partix = self.build(collection)
        coordinator = None
        try:
            partix.start_tcp()
            coordinator = Coordinator(
                partix, execution_mode="tcp", max_active=CONNECTIONS
            )
            coordinator.serve_in_thread()
            system = ServingSystem(partix, coordinator, collection.name)
        except BaseException:
            if coordinator is not None:
                coordinator.close()
            partix.stop_tcp()
            _close_engines(partix.cluster)
            raise
        try:
            for query in queries:  # warm-up pass: checked, then discarded
                reply = system.clients[0].query(query.text, collection=collection.name)
                if not _check(reply.get("result_text"), query):
                    raise BaselineMismatch(f"{self.name} warm-up {query.qid}")
        except BaseException:
            system.close()
            raise
        return system

    # ------------------------------------------------------------------
    def schedule(
        self,
        system: ServingSystem,
        queries: list[Query],
        seconds: float,
        rng: random.Random,
    ) -> list[Arrival]:
        """Arrivals of every rate step, with a move every MOVE_INTERVAL_S."""
        arrivals: list[Arrival] = []
        mix = _balanced_mix(queries, rng)
        ends = []
        start = 0.0
        for step, (rate, share) in enumerate(RATE_STEPS):
            length = seconds * share
            for due in uniform_arrivals(rate, start, length):
                arrivals.append(Arrival(due, "query", step, next(mix)))
            start += length
            ends.append(start)
        moves = [
            Arrival(due, "move", min(sum(due >= end for end in ends), len(ends) - 1))
            for due in _move_times(seconds)
        ]
        self._plan_moves(system, moves)
        return sorted(arrivals + moves, key=lambda a: a.due)

    def _plan_moves(self, system: ServingSystem, moves: list[Arrival]) -> None:
        """Give each move its fragment and target: the fragments in turn,
        each to the next site that holds no copy of it (data is copied),
        or once every site holds one, to its next replica (promotion).
        The plan does not depend on the seed, so every seed pays the same
        writes."""
        catalog = system.partix.distribution_catalog
        design = catalog.fragmentation(system.collection)
        sites = system.partix.cluster.site_names()
        fragments = [fragment.name for fragment in design.fragments]
        placement = {
            name: [r.site for r in catalog.replicas(system.collection, name)]
            for name in fragments
        }
        for index, arrival in enumerate(moves):
            fragment = fragments[index % len(fragments)]
            holders = placement[fragment]
            start = sites.index(holders[0])
            ring = [sites[(start + step) % len(sites)] for step in range(1, len(sites))]
            fresh = [site for site in ring if site not in holders]
            target = fresh[0] if fresh else holders[1]
            placement[fragment] = [target] + [s for s in holders if s != target]
            arrival.payload = {
                "kind": "move",
                "collection": system.collection,
                "fragment": fragment,
                "target_sites": [target],
            }

    def measure(
        self,
        system: ServingSystem,
        queries: list[Query],
        seconds: float,
        rng: random.Random,
        tracer=None,
    ) -> Measurement:
        arrivals = self.schedule(system, queries, seconds, rng)
        collection = system.collection

        def handler_for(client: CoordinatorClient) -> Callable:
            def handle(arrival: Arrival):
                if arrival.kind == "move":
                    report = client.rebalance(
                        action=arrival.payload, read_timeout=60.0
                    )["report"]
                    done = bool(report.get("completed"))
                    return (
                        done,
                        None if done else "move incomplete",
                        {"bytes_moved": report.get("bytes_moved", 0)},
                    )
                query = arrival.payload
                span = tracer.open("request", "coordinate") if tracer else None
                try:
                    reply = client.query(
                        query.text, collection=collection, read_timeout=60.0
                    )
                finally:
                    if span is not None:
                        span.attrs["query"] = query.text
                        tracer.close(span)
                ok = _check(reply.get("result_text"), query)
                return ok, None if ok else "answer differs from baseline", {}

            return handle

        before = system.coordinator.stats_payload()
        if tracer is not None:
            tracer.install()
        started = time.perf_counter()
        try:
            outcomes = run_open_loop(
                arrivals, [handler_for(client) for client in system.clients]
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        run = Measurement(
            wall_seconds=time.perf_counter() - started,
            outcomes=outcomes,
            steps=[rate for rate, _ in RATE_STEPS],
            coordinator_stats={
                "before": before,
                "after": system.coordinator.stats_payload(),
            },
        )
        self._modeled_passes(system, queries, run, tracer)
        return run

    def _modeled_passes(self, system, queries, run: Measurement, tracer) -> None:
        """The modeled measure over direct passes (the open loop never
        sees ``PartixResult``); their answers are checked too. With a
        ``tracer``, every second pass is traced and its spans dropped:
        the passes only time the tracing overhead."""
        for number in range(MODELED_PASSES):
            traced = tracer is not None and number % 2 == 1
            if traced:
                mark = len(tracer.spans)
                tracer.install()
            total, ok_count = 0.0, 0
            began_pass = time.perf_counter()
            try:
                for query in queries:
                    began = time.perf_counter()
                    result = system.partix.execute(
                        query.text, collection=system.collection, execution_mode="tcp"
                    )
                    ok = _check(result.result_text, query)
                    run.calls.append(
                        Call(
                            query.qid,
                            time.perf_counter() - began,
                            ok,
                            error=None if ok else "answer differs from baseline",
                        )
                    )
                    total += result.parallel_seconds
                    ok_count += ok
            finally:
                if traced:
                    tracer.uninstall()
                    del tracer.spans[mark:]
            wall = time.perf_counter() - began_pass
            run.passes_modeled.append(total)
            run.pass_walls.append(wall)
            run.pass_rates.append(ok_count / wall)
            run.pass_traced.append(traced)


def _balanced_mix(queries: list[Query], rng: random.Random):
    """Endless query stream: every query once per block, each block in a
    seeded order, so any stretch of the stream has an even mix."""
    while True:
        block = list(queries)
        rng.shuffle(block)
        yield from block


def _move_times(seconds: float) -> list[float]:
    """Due times of the interleaved moves: one per interval, mid-interval."""
    count = int(seconds // MOVE_INTERVAL_S)
    return [(index + 0.5) * MOVE_INTERVAL_S for index in range(count)]


WORKLOADS = {w.name: w for w in (ItemsScan(), XBenchJoin(), ServingChurn())}
