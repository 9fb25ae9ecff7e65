"""Metric computation from a workload's raw samples and spans."""

from __future__ import annotations

import statistics

from spans import SpanTree, Tracer, adopt
from workloads import Measurement


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def counts(run: Measurement) -> tuple[int, int]:
    """(attempted, failed) requests of a measured window."""
    requests = run.outcomes + run.calls
    return len(requests), sum(1 for r in requests if not r.ok)


def _step(run: Measurement, index: int) -> list:
    """Queries of one offered-rate step of the open loop."""
    return [
        o for o in run.outcomes if o.arrival.step == index and o.arrival.kind == "query"
    ]


def _nominal(run: Measurement) -> list:
    """Queries of the open loop's nominal-rate step."""
    return _step(run, 0)


def completion_rate(outcomes: list) -> float:
    """Verified answers per second, from the step's first due time to its
    last answer."""
    start = min(o.arrival.due for o in outcomes)
    return _ratio(sum(o.ok for o in outcomes), max(o.done for o in outcomes) - start)


def step_report(run: Measurement) -> list[dict]:
    """Per offered-rate step: latency from due time, lateness, answers/s."""
    steps = []
    for index, rate in enumerate(run.steps):
        outcomes = _step(run, index)
        if not outcomes:
            continue
        latencies = [o.latency for o in outcomes]
        steps.append(
            {
                "rate_qps": rate,
                "requests": len(outcomes),
                "p50_ms": percentile(latencies, 0.5) * 1000,
                "p95_ms": percentile(latencies, 0.95) * 1000,
                "late_p95_ms": percentile([o.late for o in outcomes], 0.95) * 1000,
                "failed": sum(1 for o in outcomes if not o.ok),
                "answers_per_s": completion_rate(outcomes),
            }
        )
    return steps


def _latencies(run: Measurement) -> list[float]:
    """Latency samples of verified answers the latency metrics read."""
    if run.outcomes:
        return [o.latency for o in _nominal(run) if o.ok]
    return [c.seconds for c in run.calls if c.ok]


def end_to_end(run: Measurement) -> dict:
    """Every end-to-end metric except ``setup_s`` and the peak RSS ones."""
    attempted, failed = counts(run)
    if run.outcomes:
        # The open loop fixes the throughput below capacity; the capacity
        # is the answer rate of the overloaded last step.
        qps = completion_rate(_step(run, len(run.steps) - 1))
    else:
        qps = _median(run.pass_rates)
    latencies = _latencies(run)
    return {
        "ok_ratio": (_ratio(attempted - failed, attempted), "ratio"),
        "qps": (qps, "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1000, "ms"),
        "latency_p95_ms": (percentile(latencies, 0.95) * 1000, "ms"),
        "modeled_pass_s": (_median(run.passes_modeled), "s"),
    }


def samples_beyond_p95(run: Measurement) -> int:
    """Latency samples above the reported p95 (at least 10 is the aim)."""
    return int(len(_latencies(run)) * 0.05)


# ----------------------------------------------------------------------
# Per layer (traced runs only)
# ----------------------------------------------------------------------
def per_layer(
    run: Measurement,
    tracer: Tracer,
    setup_spans: list,
    published_documents: int,
) -> dict:
    """Every per-layer metric, from the spans of the traced passes."""
    if run.outcomes:
        adopt(tracer, "partix.execute", "request")
    tree = SpanTree(tracer.spans)
    requests = [s for s in tree.spans if s.name == "request"]
    executes = [s for s in tree.spans if s.name == "partix.execute"]
    n_queries = max(1, len(executes))
    by_name: dict[str, list] = {}
    for span in tree.spans:
        by_name.setdefault(span.name, []).append(span)

    # Critical-path attribution of every request to layers.
    attribution: dict[str, float] = {}
    coordinate_self = []
    for request in requests:
        mine: dict[str, float] = {}
        tree.critical(request, mine)
        coordinate_self.append(mine.get("coordinate", 0.0))
        for layer, seconds in mine.items():
            attribution[layer] = attribution.get(layer, 0.0) + seconds
    request_total = sum(r.duration for r in requests)

    dispatches = by_name.get("dispatch", [])
    lanes = by_name.get("dispatch.lane", [])
    sites = [s for s in tree.spans if s.name == "site"]
    lane_site = {site.parent: site for site in sites}
    dispatch_self = []
    site_critical = []
    for dispatch in dispatches:
        kids = tree.kids(dispatch)
        if not kids:
            continue
        slowest = max(kids, key=lambda lane: lane.duration)
        dispatch_self.append(dispatch.duration - slowest.duration)
        if slowest.span_id in lane_site:
            site_critical.append(lane_site[slowest.span_id].duration)
    # Wall time of the site call: in process nothing of the simulated
    # per-document overhead is slept; over tcp the span is the site's own
    # measured time.
    busy = [s.duration for s in sites]
    materialize = [s.attrs["materialize"] for s in sites]
    scanned = sum(s.attrs["scanned"] for s in sites)
    pruned = sum(s.attrs["pruned"] for s in sites)
    sharded = [s for s in sites if s.attrs["degree"] >= 2]
    composes = by_name.get("compose", [])
    logical = by_name.get("plan.decompose_logical", [])
    moves = by_name.get("publish.move", [])
    publishes = [s for s in setup_spans if s.name == "publish"]
    move_latency = [o.done - o.sent for o in run.outcomes if o.arrival.kind == "move"]
    move_bytes = [
        o.detail.get("bytes_moved", 0) for o in run.outcomes if o.arrival.kind == "move"
    ]

    cache_hits = cache_misses = 0
    if run.coordinator_stats:
        before = run.coordinator_stats["before"]["plan_cache"]
        after = run.coordinator_stats["after"]["plan_cache"]
        cache_hits = after["hits"] - before["hits"]
        cache_misses = after["misses"] - before["misses"]

    # Alternating passes: untraced over traced throughput.
    overhead = _ratio(
        _median(r for r, t in zip(run.pass_rates, run.pass_traced) if not t),
        _median(r for r, t in zip(run.pass_rates, run.pass_traced) if t),
    )
    if run.outcomes:
        # At the nominal rate a request waits for the generator (late)
        # before its traced round trip starts.
        nominal = _nominal(run)
        unexplained = _ratio(
            sum(max(0.0, o.late) for o in nominal), sum(o.latency for o in nominal)
        )
        late = percentile([o.late for o in nominal], 0.95) * 1000
    else:
        # The caller's own time in traced passes, outside any request.
        traced_wall = sum(w for w, t in zip(run.pass_walls, run.pass_traced) if t)
        unexplained = _ratio(
            traced_wall - request_total + attribution.get("harness", 0.0),
            traced_wall,
        )
        late = 0.0
    publish_s = _median(p.duration for p in publishes)

    metrics = {
        "coordinate.self_ms_p50": (percentile(coordinate_self, 0.5) * 1000, "ms"),
        "plan_cache.hit_ratio": (_ratio(cache_hits, cache_hits + cache_misses), "ratio"),
        "plan.decompose_calls": (_ratio(len(logical), n_queries), "count"),
        "plan.decompose_ms_p50": (percentile([s.duration for s in logical], 0.5) * 1000, "ms"),
        "plan.lower_ms_p50": (
            percentile([s.duration for s in by_name.get("plan.lower", [])], 0.5) * 1000,
            "ms",
        ),
        "plan.index_lanes_per_query": (
            _ratio(sum(d.attrs["index_lanes"] for d in dispatches), n_queries),
            "count",
        ),
        "dispatch.self_ms_p50": (percentile(dispatch_self, 0.5) * 1000, "ms"),
        "dispatch.lanes_per_query": (_ratio(len(lanes), n_queries), "count"),
        "dispatch.retries": (sum(d.attrs["retries"] for d in dispatches), "count"),
        "dispatch.failovers": (sum(d.attrs["failovers"] for d in dispatches), "count"),
        "dispatch.wire_bytes_per_query": (
            _ratio(sum(d.attrs["wire_bytes"] for d in dispatches), n_queries),
            "bytes",
        ),
        "site.critical_ms_p50": (percentile(site_critical, 0.5) * 1000, "ms"),
        "site.busy_ms_p50": (percentile(busy, 0.5) * 1000, "ms"),
        "site.materialize_ms": (percentile(materialize, 0.5) * 1000, "ms"),
        "site.materialize_share": (_ratio(sum(materialize), sum(busy)), "ratio"),
        "site.eval_ms": (
            percentile([b - m for b, m in zip(busy, materialize)], 0.5) * 1000,
            "ms",
        ),
        "site.docs_scanned": (_ratio(scanned, n_queries), "count"),
        "site.docs_materialized": (
            _ratio(sum(s.attrs["materialized"] for s in sites), n_queries),
            "count",
        ),
        "site.docs_pruned": (_ratio(pruned, n_queries), "count"),
        # The engine counts pruned documents apart from the scanned
        # candidates, so the share skipped is pruned over both.
        "site.prune_ratio": (_ratio(pruned, scanned + pruned), "ratio"),
        "site.modeled_overhead_s": (
            _ratio(sum(s.attrs["overhead"] for s in sites), n_queries),
            "s",
        ),
        "shards.sharded_lane_ratio": (_ratio(len(sharded), len(sites)), "ratio"),
        "shards.mean_degree": (_mean(s.attrs["degree"] for s in sites), "count"),
        "shards.lane_ms_p50": (percentile([s.duration for s in sharded], 0.5) * 1000, "ms"),
        "compose.ms_p50": (percentile([s.duration for s in composes], 0.5) * 1000, "ms"),
        "compose.share": (_ratio(attribution.get("compose", 0.0), request_total), "ratio"),
        "compose.input_bytes": (
            _ratio(sum(s.attrs["input_bytes"] for s in composes), len(composes)),
            "bytes",
        ),
        "compose.output_bytes": (
            _ratio(sum(s.attrs["output_bytes"] for s in composes), len(composes)),
            "bytes",
        ),
        "publish.s": (publish_s, "s"),
        "publish.docs_per_s": (_ratio(published_documents, publish_s), "1/s"),
        "move.ms": (percentile([s.duration for s in moves], 0.5) * 1000, "ms"),
        "move_p50_ms": (percentile(move_latency, 0.5) * 1000, "ms"),
        "move.bytes_moved": (_mean(move_bytes), "bytes"),
        "loadgen.late_p95_ms": (late, "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.unexplained_share": (unexplained, "ratio"),
        "trace.nesting_violations": (len(tree.nesting_violations()), "count"),
    }
    for layer in ("coordinate", "plan", "dispatch", "site", "shards"):
        metrics[f"layer.{layer}.share"] = (
            _ratio(attribution.get(layer, 0.0), request_total),
            "ratio",
        )
    return metrics
