"""The differential oracle: centralized vs fragmented, across transports.

For each generated case the runner stands up a fresh cluster (one site
per fragment plus a ``central`` baseline site), publishes the collection
both ways, re-verifies the §3.3 correctness rules empirically, and runs
every query once per configuration: centralized, then fragmented in each
requested execution mode (``simulated`` and ``threads`` by default;
``tcp`` adds real site-server processes — the case's repository is
mirrored over the wire and sub-queries travel through sockets;
``tcp-stream`` runs the same processes through the streamed RESULT_CHUNK
pipeline with an adversarially tiny chunk size, so chunk boundaries fall
inside multi-byte UTF-8 characters and the incremental composer's answer
must still be byte-identical). Two comparisons apply:

* **mode** — the composed answers of every execution mode must be
  byte-identical, always. Plan-order composition is a hard contract:
  the middleware aligns partial results by plan index no matter in which
  order the dispatcher's lanes complete.
* **answer** — the fragmented answer must match the centralized one.
  Byte-identical when the composition is an aggregate or a
  reconstruction, or when the plan has at most one sub-query; for
  multi-fragment ``concat`` plans the comparison is an order-insensitive
  line multiset, because fragments legitimately interleave the document
  order of the centralized repository (same policy as
  ``bench.scenarios``).

Two more oracles guard the planning layer itself:

* **plan-order composition** (reported as kind ``mode``) — a concat
  answer must equal the plan-order composition of the round's *own*
  per-lane partial results; a dispatcher that mis-aligns completed
  sub-queries corrupts every mode identically now that all modes share
  the one plan executor, so the contract is checked directly instead of
  by cross-mode comparison alone.
* **plan** — planning must be deterministic (two ``explain`` calls
  render the identical physical plan) and the rendered plan must
  round-trip through its JSON-serialized form.

Execution errors must be symmetric: a query that raises centrally must
raise the same error class against the fragmented repository, and vice
versa — an asymmetric error is reported as a mismatch of kind
``error``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.cluster.site import Cluster, Site
from repro.fuzz.generator import CaseSpec, GeneratedCase, generate_case, spec_for_iteration
from repro.partix.catalog import FragmentAllocation
from repro.partix.correctness import verify_fragmentation
from repro.partix.middleware import Partix, PartixResult
from repro.plan.executor import ExecutionMode
from repro.plan.explain import plan_from_dict

CENTRAL_SITE = "central"
#: Extra site holding one replica of every fragment in ``kill_site``
#: mode, so killing a primary's server leaves a live copy reachable.
MIRROR_SITE = "mirror"
#: Extra empty site added in ``migrate`` mode: the mid-run migration
#: splits or moves a fragment onto it, so the second pass exercises a
#: placement the first pass never saw.
SPARE_SITE = "spare"
EXECUTION_MODES = ("simulated", "threads")
ALL_EXECUTION_MODES = ("simulated", "threads", "tcp", "tcp-stream")

#: Chunk size forced when a streamed mode is under test. Tiny on
#: purpose: with 7-byte RESULT_CHUNK frames almost every multi-byte
#: UTF-8 character in a result is split across a chunk boundary, and the
#: coordinator's spill buffers overflow to disk constantly — the two
#: nastiest streaming code paths exercised on every query.
ADVERSARIAL_CHUNK_BYTES = 7


@dataclass
class Mismatch:
    """One oracle violation observed while running a case."""

    kind: str  # "answer" | "mode" | "plan" | "correctness" | "error" | "failover" | "migrate" | "index" | "shard"
    detail: str
    query_index: Optional[int] = None
    query: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "query_index": self.query_index,
            "query": self.query,
        }


@dataclass
class CaseOutcome:
    """Everything the oracle observed for one case."""

    spec: CaseSpec
    mismatches: list[Mismatch] = field(default_factory=list)
    queries_run: int = 0
    queries_skipped: int = 0
    comparisons: int = 0
    composition_kinds: Counter = field(default_factory=Counter)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def mismatch_kinds(self) -> tuple[str, ...]:
        """Stable fingerprint used by the minimizer to match failures."""
        return tuple(sorted({m.kind for m in self.mismatches}))

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "queries_run": self.queries_run,
            "queries_skipped": self.queries_skipped,
            "comparisons": self.comparisons,
            "composition_kinds": dict(self.composition_kinds),
            "mismatches": [m.to_dict() for m in self.mismatches],
            "notes": self.notes,
        }


def _diff_snippet(left: str, right: str, limit: int = 240) -> str:
    left_lines = left.splitlines()
    right_lines = right.splitlines()
    for index, (a, b) in enumerate(zip(left_lines, right_lines)):
        if a != b:
            return (
                f"first differing line {index}:"
                f" {a[:limit]!r} vs {b[:limit]!r}"
            )
    return (
        f"line counts differ: {len(left_lines)} vs {len(right_lines)}"
        f" (tail: {left_lines[len(right_lines):len(right_lines)+1]!r}"
        f" vs {right_lines[len(left_lines):len(left_lines)+1]!r})"
    )


def _signature(text: str) -> tuple[str, ...]:
    """Order-insensitive line multiset (fragments interleave doc order)."""
    return tuple(sorted(line for line in text.splitlines() if line.strip()))


def run_case(
    spec: CaseSpec,
    case: Optional[GeneratedCase] = None,
    partix_factory: Optional[Callable[[Cluster], Partix]] = None,
    modes: Sequence[str] = EXECUTION_MODES,
    kill_site: bool = False,
    migrate: bool = False,
    indexes: bool = False,
    shards: bool = False,
) -> CaseOutcome:
    """Generate (unless given) and differentially execute one case.

    ``indexes`` is the index-pushdown oracle: every compared query is
    additionally run twice per mode with the per-query index override
    forced on and forced off (``Partix.execute(use_indexes=...)``), and
    the three answers — index probes everywhere, full scans everywhere,
    and the plan's own per-lane choice — must be byte-identical (same
    plan, same lane order, so not even concat interleaving may differ).
    A divergence is reported as a mismatch of kind ``index``.

    ``shards`` is the intra-site parallelism oracle: the cluster is
    built with a per-site worker pool (``shard_workers=2``) and every
    compared query is additionally run twice per mode with the per-lane
    shard degree forced serial and forced sharded
    (``Partix.execute(shard_degree=...)``); both answers must reproduce
    the default run's byte-for-byte (a site may decline sharding — a
    non-shardable query still forces the serial path — but the answer
    may never change). A divergence is a mismatch of kind ``shard``.

    ``partix_factory`` lets tests swap in a middleware with a tampered
    dispatcher — that is how the injected-bug acceptance test proves the
    oracle actually bites. ``modes`` selects the fragmented execution
    modes to compare; including ``"tcp"`` spawns real site-server
    processes for the case (mirrored over the wire, reaped afterwards).

    ``kill_site`` is the failover oracle (requires a tcp mode): every
    fragment is published twice — primary on its round-robin site plus a
    replica on a dedicated ``mirror`` site — the queries run once
    healthy, then the first primary's server process is killed and the
    same queries run again. The answers must still converge to the
    centralized baseline through the replica: an asymmetric error or a
    differing answer is caught by the standard oracles, and if the dead
    site was targeted but no sub-query ever failed over (nor was the
    site ejected by health tracking) a mismatch of kind ``failover`` is
    reported. Killing between the passes means the coordinator's pooled
    sockets to the victim die mid-use — the retry loop discovers the
    corpse on a live connection, not on a fresh connect.

    ``migrate`` is the online-rebalancing oracle (any execution mode):
    the queries run once against the published design, then a live
    migration fires — the first splittable horizontal fragment is split
    onto a dedicated empty ``spare`` site, falling back to moving the
    first fragment there — and the same queries run again against the
    new catalog version. Both passes face the standard oracles, so at
    least one query is compared on *each* catalog version and the
    answers must keep converging to the centralized baseline; a
    migration that fails to complete (or to bump the catalog version) is
    reported as a mismatch of kind ``migrate``. A plan cache is
    installed so the version bump also exercises cache invalidation.
    """
    outcome = CaseOutcome(spec=spec)
    if kill_site and migrate:
        raise ValueError(
            "kill_site and migrate are mutually exclusive oracles:"
            " a mid-run migration needs every site alive"
        )
    if case is None:
        case = generate_case(spec)
    outcome.notes.extend(case.notes)

    parsed_modes = [ExecutionMode.parse(mode) for mode in modes]
    if kill_site and not any(mode.transport == "tcp" for mode in parsed_modes):
        raise ValueError(
            "kill_site=True needs a tcp execution mode: killing a site"
            " process only perturbs the networked transports"
        )

    report = verify_fragmentation(case.design, case.collection)
    if not report.ok:
        for violation in report.violations:
            outcome.mismatches.append(
                Mismatch(kind="correctness", detail=violation)
            )
        return outcome

    shard_workers = 2 if shards else 0
    cluster = Cluster.with_sites(
        len(case.design), prefix="site", shard_workers=shard_workers
    )
    if kill_site:
        cluster.add(Site(MIRROR_SITE, shard_workers=shard_workers))
    partix = (
        partix_factory(cluster) if partix_factory is not None else Partix(cluster)
    )
    allocations = None
    victim = None
    if kill_site:
        # Mirror the publisher's default round-robin placement for the
        # primaries (the mirror site must not absorb one), then add one
        # replica of every fragment on the mirror site. Victim: the
        # first primary — killing it leaves each of its fragments with
        # exactly one live copy.
        primaries = [f"site{index}" for index in range(len(case.design))]
        allocations = []
        for index, fragment in enumerate(case.design.fragments):
            allocations.append(
                FragmentAllocation(
                    fragment=fragment.name,
                    site=primaries[index % len(primaries)],
                    stored_collection=fragment.name,
                )
            )
            allocations.append(
                FragmentAllocation(
                    fragment=fragment.name,
                    site=MIRROR_SITE,
                    stored_collection=fragment.name,
                )
            )
        victim = primaries[0]
    partix.publish(
        case.collection,
        case.design,
        allocations=allocations,
        frag_mode=case.frag_mode,
    )
    if migrate:
        # Added *after* publish so the round-robin placement ignores it:
        # the spare site is empty until the mid-run migration fills it.
        cluster.add(Site(SPARE_SITE))
    cluster.add(Site(CENTRAL_SITE))
    partix.publish_centralized(case.collection, CENTRAL_SITE)

    try:
        if any(mode.streaming for mode in parsed_modes):
            # Adversarial chunking: see ADVERSARIAL_CHUNK_BYTES. Must be
            # set before start_tcp so clients negotiate it.
            partix.chunk_bytes = ADVERSARIAL_CHUNK_BYTES
        if any(mode.transport == "tcp" for mode in parsed_modes):
            partix.start_tcp()
        if migrate:
            _run_migrate_case(
                partix, case, outcome, modes, indexes=indexes, shards=shards
            )
            return outcome
        if not kill_site:
            for index, query in case.active_queries:
                _run_query(
                    partix, index, query, outcome, modes,
                    indexes=indexes, shards=shards,
                )
            return outcome

        tcp_modes = [
            mode
            for mode, parsed in zip(modes, parsed_modes)
            if parsed.transport == "tcp"
        ]
        # Pass 1 — healthy run: standard oracles, and note whether any
        # tcp plan actually routed a lane to the victim (pruning can
        # legitimately skip its fragment for some queries).
        victim_targeted = False
        for index, query in case.active_queries:
            results = _run_query(
                partix, index, query, outcome, modes,
                indexes=indexes, shards=shards,
            )
            for mode in tcp_modes:
                result = results.get(mode)
                if result is not None and result.plan is not None and any(
                    subquery.site == victim
                    for subquery in result.plan.subqueries
                ):
                    victim_targeted = True

        partix.tcp.kill(victim)
        outcome.notes.append(
            f"killed tcp site {victim!r} between passes"
            " (pooled sockets die mid-use)"
        )

        # Pass 2 — the victim is dead: answers must still converge to
        # the centralized baseline through the mirror replica.
        failovers = 0
        for index, query in case.active_queries:
            results = _run_query(
                partix, index, query, outcome, modes,
                indexes=indexes, shards=shards,
            )
            failovers += sum(
                results[mode].failover_count
                for mode in tcp_modes
                if mode in results
            )
        outcome.notes.append(f"replica failovers observed: {failovers}")
        if (
            victim_targeted
            and failovers == 0
            and partix.site_health is not None
            and not partix.site_health.is_ejected(victim)
        ):
            outcome.mismatches.append(
                Mismatch(
                    kind="failover",
                    detail=(
                        f"site {victim!r} was killed while hosting primary"
                        " lanes, yet no tcp sub-query failed over to its"
                        " replica and the site was never ejected"
                    ),
                )
            )
    finally:
        partix.stop_tcp()
    return outcome


def _run_migrate_case(
    partix: Partix,
    case: GeneratedCase,
    outcome: CaseOutcome,
    modes: Sequence[str],
    indexes: bool = False,
    shards: bool = False,
) -> None:
    """Two differential passes with a live migration fired in between."""
    from repro.plan.cache import PlanCache

    if partix.plan_cache is None:
        # The version bump must also invalidate cached plans; give the
        # middleware a cache so both passes plan through it.
        partix.plan_cache = PlanCache()
    catalog = partix.distribution_catalog
    version_before = catalog.version

    for index, query in case.active_queries:
        _run_query(
            partix, index, query, outcome, modes, indexes=indexes, shards=shards
        )
    first_pass = outcome.queries_run

    report = _fire_migration(partix, case, outcome)
    if report is None or not report.completed:
        outcome.mismatches.append(
            Mismatch(
                kind="migrate",
                detail="no migration could be performed on the case design",
            )
        )
        return
    if catalog.version == version_before:
        outcome.mismatches.append(
            Mismatch(
                kind="migrate",
                detail=(
                    f"migration reported completion but the catalog version"
                    f" stayed at {version_before}"
                ),
            )
        )
        return

    for index, query in case.active_queries:
        _run_query(
            partix, index, query, outcome, modes, indexes=indexes, shards=shards
        )
    outcome.notes.append(
        f"queries compared on catalog v{version_before}: {first_pass},"
        f" on v{catalog.version}: {outcome.queries_run - first_pass}"
    )
    stats = partix.plan_cache.stats()
    outcome.notes.append(
        f"plan cache across the migration: {stats}"
    )


def _fire_migration(partix: Partix, case: GeneratedCase, outcome: CaseOutcome):
    """Split the first splittable horizontal fragment onto the spare
    site, else move the first fragment there. Returns the report, or
    None when every migration attempt failed."""
    from repro.errors import RebalanceError
    from repro.partix.fragments import HorizontalFragment
    from repro.rebalance import Rebalancer

    rebalancer = Rebalancer(partix)
    collection = case.collection.name
    catalog = partix.distribution_catalog
    for fragment in case.design.fragments:
        if not isinstance(fragment, HorizontalFragment):
            continue
        primary = catalog.allocation(collection, fragment.name)
        try:
            report = rebalancer.split(
                collection,
                fragment.name,
                target_sites=(primary.site, SPARE_SITE),
            )
        except RebalanceError:
            continue
        outcome.notes.append(
            f"migration: split {fragment.name!r} at {report.split_path}"
            f" ∈ {report.split_values} → {report.new_fragments}"
            f" ({report.documents_moved} documents, spare site got one half)"
        )
        return report
    first = case.design.fragments[0].name
    try:
        report = rebalancer.move(collection, first, SPARE_SITE)
    except RebalanceError as error:
        outcome.notes.append(f"migration fallback failed: {error}")
        return None
    outcome.notes.append(
        f"migration: moved {first!r} to the spare site"
        f" ({report.documents_moved} documents)"
    )
    return report


def _run_query(
    partix: Partix,
    index: int,
    query: str,
    outcome: CaseOutcome,
    modes: Sequence[str],
    indexes: bool = False,
    shards: bool = False,
) -> dict[str, PartixResult]:
    """Run one query through every configuration; returns the successful
    fragmented results keyed by mode (empty on error paths)."""
    central_text, central_error = _attempt(
        lambda: partix.execute_centralized(query, CENTRAL_SITE).result_text
    )
    by_mode: dict[str, str] = {}
    results_by_mode: dict[str, PartixResult] = {}
    for mode in modes:
        result, error = _attempt(
            lambda mode=mode: partix.execute(
                query, collection="Cfuzz", execution_mode=mode
            )
        )
        text = result.result_text if result is not None else None
        if (error is None) != (central_error is None) or (
            error is not None
            and central_error is not None
            and type(error) is not type(central_error)
        ):
            outcome.mismatches.append(
                Mismatch(
                    kind="error",
                    detail=(
                        f"asymmetric failure in mode {mode!r}:"
                        f" centralized {central_error!r},"
                        f" fragmented {error!r}"
                    ),
                    query_index=index,
                    query=query,
                )
            )
            return {}
        if text is not None:
            by_mode[mode] = text
            results_by_mode[mode] = result

    if central_error is not None:
        # Same error everywhere: consistent, but nothing to compare.
        outcome.queries_skipped += 1
        outcome.notes.append(
            f"query {index} raises {type(central_error).__name__} in all"
            " configurations"
        )
        return {}

    outcome.queries_run += 1
    plan = partix.explain(query, "Cfuzz")
    outcome.composition_kinds[plan.composition.kind] += 1
    _check_plan_equivalence(partix, query, plan, outcome, index)
    _check_plan_order(partix, results_by_mode, outcome, index, query)

    reference_mode = modes[0]
    simulated = by_mode[reference_mode]
    for mode in modes[1:]:
        outcome.comparisons += 1
        if by_mode[mode] != simulated:
            outcome.mismatches.append(
                Mismatch(
                    kind="mode",
                    detail=(
                        f"{reference_mode} vs {mode} answers differ;"
                        f" {_diff_snippet(simulated, by_mode[mode])}"
                    ),
                    query_index=index,
                    query=query,
                )
            )

    outcome.comparisons += 1
    byte_strict = (
        plan.composition.kind in ("aggregate", "reconstruct")
        or len(plan.subqueries) <= 1
    )
    if byte_strict:
        matches = simulated == central_text
    else:
        matches = _signature(simulated) == _signature(central_text)
    if not matches:
        policy = "byte-identical" if byte_strict else "line-multiset"
        outcome.mismatches.append(
            Mismatch(
                kind="answer",
                detail=(
                    f"centralized vs fragmented ({policy},"
                    f" composition={plan.composition.kind},"
                    f" subqueries={len(plan.subqueries)});"
                    f" {_diff_snippet(central_text, simulated)}"
                ),
                query_index=index,
                query=query,
            )
        )
    if indexes:
        _check_index_differential(
            partix, query, by_mode, outcome, index, modes
        )
    if shards:
        _check_shard_differential(
            partix, query, by_mode, outcome, index, modes
        )
    return results_by_mode


def _check_index_differential(
    partix: Partix,
    query: str,
    by_mode: dict,
    outcome: CaseOutcome,
    index: int,
    modes: Sequence[str],
) -> None:
    """The index-pushdown oracle: per mode, the same query re-run with
    the per-query index override forced on and forced off must both
    reproduce the default run's answer byte-for-byte. The override
    leaves the plan (and so the lane order) untouched — only each
    site's access path flips — so even multi-fragment concat answers
    may not differ by a byte. An index probe returning an unsound
    candidate set (one that drops a matching document) shows up here as
    a mismatch of kind ``index``.
    """
    for mode in modes:
        if mode not in by_mode:
            continue
        default_text = by_mode[mode]
        for forced in (True, False):
            text, error = _attempt(
                lambda mode=mode, forced=forced: partix.execute(
                    query,
                    collection="Cfuzz",
                    execution_mode=mode,
                    use_indexes=forced,
                ).result_text
            )
            outcome.comparisons += 1
            label = "on" if forced else "off"
            if error is not None:
                outcome.mismatches.append(
                    Mismatch(
                        kind="index",
                        detail=(
                            f"mode {mode!r} with indexes forced {label}"
                            f" raised {error!r} although the default run"
                            " answered"
                        ),
                        query_index=index,
                        query=query,
                    )
                )
            elif text != default_text:
                outcome.mismatches.append(
                    Mismatch(
                        kind="index",
                        detail=(
                            f"mode {mode!r} answers differ with indexes"
                            f" forced {label};"
                            f" {_diff_snippet(default_text, text)}"
                        ),
                        query_index=index,
                        query=query,
                    )
                )


def _check_shard_differential(
    partix: Partix,
    query: str,
    by_mode: dict,
    outcome: CaseOutcome,
    index: int,
    modes: Sequence[str],
) -> None:
    """The intra-site parallelism oracle: per mode, the same query
    re-run with the per-lane shard degree forced serial (``1``) and
    forced sharded (``2``) must both reproduce the default run's answer
    byte-for-byte. Forcing the degree only changes how each site
    evaluates its own lane — candidate slices in worker processes with
    the partials folded back in slice order — so the plan, the lane
    order, and every byte of the composed answer must be untouched. A
    fold that reorders partials, double-counts an aggregate, or loses a
    shard shows up here as a mismatch of kind ``shard``.
    """
    for mode in modes:
        if mode not in by_mode:
            continue
        default_text = by_mode[mode]
        for degree in (1, 2):
            text, error = _attempt(
                lambda mode=mode, degree=degree: partix.execute(
                    query,
                    collection="Cfuzz",
                    execution_mode=mode,
                    shard_degree=degree,
                ).result_text
            )
            outcome.comparisons += 1
            label = "serial" if degree == 1 else f"degree {degree}"
            if error is not None:
                outcome.mismatches.append(
                    Mismatch(
                        kind="shard",
                        detail=(
                            f"mode {mode!r} with shards forced {label}"
                            f" raised {error!r} although the default run"
                            " answered"
                        ),
                        query_index=index,
                        query=query,
                    )
                )
            elif text != default_text:
                outcome.mismatches.append(
                    Mismatch(
                        kind="shard",
                        detail=(
                            f"mode {mode!r} answers differ with shards"
                            f" forced {label};"
                            f" {_diff_snippet(default_text, text)}"
                        ),
                        query_index=index,
                        query=query,
                    )
                )


def _check_plan_equivalence(
    partix: Partix,
    query: str,
    plan,
    outcome: CaseOutcome,
    index: int,
) -> None:
    """Planning must be deterministic and explain must round-trip.

    Two independent ``explain`` calls have to render the identical
    physical plan (lowering is pure given the catalog), and the rendered
    plan must survive ``to_dict`` → JSON → ``plan_from_dict``.
    """
    rendered = plan.render()
    replanned = partix.explain(query, "Cfuzz")
    if replanned.render() != rendered:
        outcome.mismatches.append(
            Mismatch(
                kind="plan",
                detail=(
                    "planning is nondeterministic: two explain calls"
                    f" rendered different plans; {_diff_snippet(rendered, replanned.render())}"
                ),
                query_index=index,
                query=query,
            )
        )
    roundtripped = plan_from_dict(json.loads(json.dumps(plan.to_dict())))
    if roundtripped.render() != rendered:
        outcome.mismatches.append(
            Mismatch(
                kind="plan",
                detail=(
                    "explain does not round-trip through its serialized"
                    f" form; {_diff_snippet(rendered, roundtripped.render())}"
                ),
                query_index=index,
                query=query,
            )
        )


def _check_plan_order(
    partix: Partix,
    results_by_mode: dict,
    outcome: CaseOutcome,
    index: int,
    query: str,
) -> None:
    """The plan-order composition contract, checked directly.

    A concat answer must equal the plan-order composition of the round's
    own per-lane partial results. Every mode runs through the same plan
    executor, so a dispatcher that mis-aligns completions corrupts all
    modes identically — cross-mode comparison alone can no longer see
    it. The reference ordering is recovered from each execution's own
    ``fragment`` (stamped by the transport from the sub-query itself),
    never from list positions, so a merely reordered completion log stays
    benign while a mis-*aligned* one is caught. Streamed rounds are
    skipped: their executions carry no partial text (the bytes went to
    the chunk sink).
    """
    for mode, result in results_by_mode.items():
        plan = result.plan
        if (
            result.streamed
            or plan is None
            or plan.composition.kind != "concat"
            or len(plan.subqueries) <= 1
        ):
            continue
        position = {
            subquery.fragment: order
            for order, subquery in enumerate(plan.subqueries)
        }
        ordered = sorted(
            result.round.executions,
            key=lambda execution: position.get(
                execution.fragment, len(position)
            ),
        )
        expected = partix.composer.compose(
            plan.composition,
            [
                (None, execution.result.result_text)
                for execution in ordered
            ],
        ).result_text
        if result.result_text != expected:
            outcome.mismatches.append(
                Mismatch(
                    kind="mode",
                    detail=(
                        f"mode {mode!r} composed answer does not follow"
                        f" plan order; {_diff_snippet(expected, result.result_text)}"
                    ),
                    query_index=index,
                    query=query,
                )
            )


def _attempt(thunk: Callable[[], str]) -> tuple[Optional[str], Optional[Exception]]:
    try:
        return thunk(), None
    except Exception as error:  # noqa: BLE001 — the oracle compares failures
        return None, error


def run_fuzz(
    seed: int,
    iterations: int,
    minimize: bool = True,
    repro_dir: Optional[str] = None,
    partix_factory: Optional[Callable[[Cluster], Partix]] = None,
    max_failures: int = 5,
    modes: Sequence[str] = EXECUTION_MODES,
    kill_site: bool = False,
    migrate: bool = False,
    indexes: bool = False,
    shards: bool = False,
) -> dict:
    """Run the full differential session; returns a JSON-able summary.

    Stops early once ``max_failures`` distinct failing cases have been
    collected (each one is expensive: it triggers minimization and a
    written reproducer when ``repro_dir`` is set). ``kill_site`` runs
    every case through the failover oracle, ``migrate`` through the
    online-rebalancing oracle, ``indexes`` through the index-pushdown
    oracle, ``shards`` through the intra-site parallelism oracle (see
    :func:`run_case`).
    """
    summary: dict = {
        "seed": seed,
        "iterations": iterations,
        "execution_modes": list(modes),
        "kill_site": kill_site,
        "migrate": migrate,
        "indexes": indexes,
        "shards": shards,
        "migrations_completed": 0,
        "cases": 0,
        "queries_run": 0,
        "queries_skipped": 0,
        "comparisons": 0,
        "families": {},
        "composition_kinds": {},
        "failures": [],
        "ok": True,
    }
    families: Counter = Counter()
    kinds: Counter = Counter()
    for iteration in range(iterations):
        spec = spec_for_iteration(seed, iteration)
        outcome = run_case(
            spec,
            partix_factory=partix_factory,
            modes=modes,
            kill_site=kill_site,
            migrate=migrate,
            indexes=indexes,
            shards=shards,
        )
        if migrate and not any(
            m.kind == "migrate" for m in outcome.mismatches
        ):
            summary["migrations_completed"] += 1
        summary["cases"] += 1
        summary["queries_run"] += outcome.queries_run
        summary["queries_skipped"] += outcome.queries_skipped
        summary["comparisons"] += outcome.comparisons
        families[spec.family] += 1
        kinds.update(outcome.composition_kinds)
        if outcome.ok:
            continue
        summary["ok"] = False
        failure: dict = {"iteration": iteration, **outcome.to_dict()}
        if minimize or repro_dir is not None:
            from repro.fuzz.minimize import minimize_spec, write_repro

            minimized = (
                minimize_spec(
                    spec,
                    outcome,
                    partix_factory=partix_factory,
                    modes=modes,
                    kill_site=kill_site,
                    migrate=migrate,
                    indexes=indexes,
                    shards=shards,
                )
                if minimize
                else outcome
            )
            failure["minimized"] = minimized.to_dict()
            if repro_dir is not None:
                failure["repro_path"] = write_repro(minimized, repro_dir)
        summary["failures"].append(failure)
        if len(summary["failures"]) >= max_failures:
            summary["stopped_early_at"] = iteration
            break
    summary["families"] = dict(families)
    summary["composition_kinds"] = dict(kinds)
    return summary
