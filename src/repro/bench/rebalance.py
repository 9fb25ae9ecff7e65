"""The online-rebalancing benchmark (``--figure rebalance``).

The serving figure showed the coordinator under load; this one closes
the loop the ``repro.rebalance`` subsystem adds: **observe → advise →
migrate → measure**. A deliberately skewed Items deployment (two
fragments on two sites, two more sites idle) serves closed-loop traffic
in three phases:

1. **before** — traffic against the skewed placement; the coordinator's
   query log fills with per-lane observations and the bottleneck site
   saturates.
2. **during** — the workload advisor is asked over the wire (ADVISE) and
   its top action — splitting the hot fragment onto an idle site — is
   applied online (REBALANCE) *while the traffic keeps running*:
   in-flight queries finish against the old placement, the catalog
   version bump invalidates the plan cache, new queries lower against
   the new design.
3. **after** — traffic against the rebalanced placement.

Every answer in every phase is verified byte-for-byte against a serial
pre-computed baseline, so the latency bend is measured on *correct*
answers only; one incorrect answer fails the bench. The workload is
restricted to order-stable query classes (point lookups, per-section
selections, aggregates) because a horizontal split legitimately reorders
multi-fragment concatenations — the fuzz ``migrate`` oracle covers
those with its line-multiset policy.

The JSON payload (``BENCH_rebalance.json`` in CI) records the migration
report, the catalog versions, per-phase p50/p95 latency and the verified
counts.
"""

from __future__ import annotations

import threading

from repro.bench.scale import items_count_for, scaled_point
from repro.bench.scenarios import PAPER_DOC_OVERHEAD
from repro.cluster.site import Cluster, Site
from repro.coordinate.client import CoordinatorClient
from repro.coordinate.service import Coordinator
from repro.coordinate.traffic import WorkloadQuery, run_traffic
from repro.partix.middleware import Partix
from repro.workloads.queries import items_queries
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)

#: Closed-loop client threads per phase.
REBALANCE_CLIENTS = 8
#: Requests each client issues per phase.
REBALANCE_REQUESTS = 6
#: Order-stable query classes (see module docstring): point lookup,
#: single-section selections, and the two aggregates.
STABLE_QIDS = ("Q1", "Q2", "Q6", "Q7", "Q8")
#: Idle sites added to the skewed deployment — migration headroom.
IDLE_SITES = ("idle0", "idle1")


def run_rebalance(scale: float, repetitions: int, transmission: bool) -> dict:
    """Advised online split under live traffic, before/after latency.

    Built by hand rather than through ``build_items_scenario`` so the
    cluster carries *no* centralized baseline site — every site is a
    legitimate migration target for the advisor, and answer verification
    uses the serial simulated baseline instead.
    """
    point = scaled_point(100, scale)
    count = items_count_for(point.target_bytes, "small")
    collection = build_items_collection(count, kind="small", seed=42)
    cluster = Cluster.with_sites(
        2, use_indexes=False, per_document_overhead=PAPER_DOC_OVERHEAD
    )
    for name in IDLE_SITES:
        cluster.add(
            Site(
                name,
                use_indexes=False,
                per_document_overhead=PAPER_DOC_OVERHEAD,
            )
        )
    partix = Partix(cluster)
    partix.publish(
        collection, items_horizontal_fragmentation(2, collection=collection.name)
    )

    workload = []
    for query in items_queries(collection.name):
        if query.qid not in STABLE_QIDS:
            continue
        baseline = partix.execute(
            query.text,
            collection=collection.name,
            execution_mode="simulated",
        )
        workload.append(
            WorkloadQuery(
                qid=query.qid,
                text=query.text,
                expected_text=baseline.result_text,
                collection=collection.name,
            )
        )

    requests = REBALANCE_REQUESTS * max(1, repetitions)
    coordinator = Coordinator(
        partix,
        execution_mode="threads",
        max_active=8,
        queue_limit=64,
    )
    coordinator.serve_in_thread()
    control = None
    try:
        control = CoordinatorClient(
            coordinator.host, coordinator.port, site="rebalance-control"
        )

        def _phase(seed: int):
            return run_traffic(
                coordinator.host,
                coordinator.port,
                workload,
                clients=REBALANCE_CLIENTS,
                requests_per_client=requests,
                seed=seed,
            )

        before = _phase(seed=41)
        advice = control.advise(collection=collection.name)
        if not advice["actions"]:
            raise SystemExit(
                "rebalance bench: the advisor produced no action from"
                f" {advice['query_log']['entries']} logged queries"
            )

        # Apply the top action on a side thread so the 'during' phase
        # traffic genuinely overlaps the live migration.
        rebalance_reply: dict = {}
        rebalance_error: list = []

        def _apply() -> None:
            try:
                rebalance_reply.update(
                    control.rebalance(
                        collection=collection.name,
                        read_timeout=120.0,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - reported below
                rebalance_error.append(exc)

        migrator = threading.Thread(target=_apply, name="bench-rebalance")
        migrator.start()
        during = _phase(seed=42)
        migrator.join(timeout=180.0)
        if rebalance_error:
            raise SystemExit(
                f"rebalance bench: migration failed: {rebalance_error[0]}"
            )
        if not rebalance_reply:
            raise SystemExit("rebalance bench: migration never completed")

        after = _phase(seed=43)
        stats = coordinator.stats_payload()
    finally:
        if control is not None:
            control.close()
        clean = coordinator.close()

    report = rebalance_reply["report"]
    action = rebalance_reply["action"]
    phases = {"before": before, "during": during, "after": after}
    incorrect = sum(phase.incorrect for phase in phases.values())
    p95_before = before.as_payload()["p95_ms"]
    p95_after = after.as_payload()["p95_ms"]
    payload = {
        "figure": "rebalance",
        "scenario": collection.name,
        "fragment_count": 2,
        "document_count": count,
        "clean_shutdown": clean,
        "advised_action": action,
        "migration": report,
        "catalog_version_before": report["catalog_version_before"],
        "catalog_version_after": report["catalog_version_after"],
        "migration_completed": bool(report["completed"]),
        "incorrect_total": incorrect,
        "p95_improved": (
            p95_before is not None
            and p95_after is not None
            and p95_after < p95_before
        ),
        "query_log": stats["query_log"],
        "plan_cache": stats["plan_cache"],
        "phases": {
            name: phase.as_payload() for name, phase in phases.items()
        },
    }

    def _fmt(value, unit=" ms"):
        return "-" if value is None else f"{value:.2f}{unit}"

    print(
        f"rebalance figure — {collection.name} ({count} documents,"
        f" 2 fragments + {len(IDLE_SITES)} idle sites),"
        f" {REBALANCE_CLIENTS} closed-loop clients per phase"
    )
    print(
        f"  advised: {action['kind']} of {action['fragment']!r}"
        f" -> {action['target_sites']} (score {action['score']:+.4f}s)"
    )
    print(
        f"  migration: {report['documents_moved']} documents,"
        f" catalog v{report['catalog_version_before']}"
        f" -> v{report['catalog_version_after']},"
        f" {report['elapsed_seconds']:.3f}s"
        f" ({'completed' if report['completed'] else 'FAILED'})"
    )
    for name, phase in phases.items():
        phase_payload = phase.as_payload()
        print(
            f"  {name:<7} {phase.ok}/{phase.total} verified ok |"
            f" p50 {_fmt(phase_payload['p50_ms'])} |"
            f" p95 {_fmt(phase_payload['p95_ms'])} |"
            f" {phase.qps:.1f} qps"
        )
    print(
        f"  p95 {_fmt(p95_before)} -> {_fmt(p95_after)}"
        f" ({'improved' if payload['p95_improved'] else 'no improvement'})"
    )
    if incorrect:
        raise SystemExit(
            f"rebalance bench: {incorrect} answers diverged from the serial"
            " baseline across the migration"
        )
    if not report["completed"]:
        raise SystemExit("rebalance bench: the migration did not complete")
    return payload
