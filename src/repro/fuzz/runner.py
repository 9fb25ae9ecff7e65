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
must still be byte-identical). Every query faces the shared checks:

* **mode** — the composed answers of every execution mode must be
  byte-identical, always. Plan-order composition is a hard contract:
  the middleware aligns partial results by plan index no matter in which
  order the dispatcher's lanes complete. The contract is also checked
  directly: a concat answer must equal the plan-order composition of the
  round's *own* per-lane partial results, because a dispatcher that
  mis-aligns completed sub-queries corrupts every mode identically.
* **answer** — the fragmented answer must match the centralized one.
  Byte-identical when the composition is an aggregate or a
  reconstruction, or when the plan has at most one sub-query; for
  multi-fragment ``concat`` plans the comparison is an order-insensitive
  line multiset, because fragments legitimately interleave the document
  order of the centralized repository (same policy as
  ``bench.scenarios``).
* **plan** — planning must be deterministic (two ``explain`` calls
  render the identical physical plan) and the rendered plan must
  round-trip through its JSON-serialized form.
* **error** — a query that raises centrally must raise the same error
  class against the fragmented repository, and vice versa.
* **correctness** — the design must be complete, disjoint and
  reconstructible over the case's collection (checked before any query).

A case runs under exactly one row of :data:`ORACLES`. A row adds, on
top of the shared checks, any of: *reruns* — ``Partix.execute`` keyword
sets each compared query is re-run with, once per mode, whose answers
must byte-match that mode's default run (the plan and the lane order are
unchanged, so not even concat interleaving may differ); a *fixture
change*; and a *step* between two passes over the queries, judged by
the row's *check* after the second pass. A rerun or check failure is
reported under the row's own mismatch kind.

=========  ========  ===================================================
oracle     kind      adds
=========  ========  ===================================================
default    —         nothing: one pass of the shared checks
indexes    index     reruns with ``use_indexes=True`` and ``False``
shards     shard     ``shard_workers=2`` on every site; reruns with
                     ``shard_degree=1`` and ``2``
kill-site  failover  a ``mirror`` site with a replica of every fragment
                     (needs a tcp mode); step: kill ``site0``'s server;
                     check: some tcp sub-query failed over or the site
                     was ejected
migrate    migrate   an empty ``spare`` site and a plan cache; step:
                     split a fragment (else move one) onto the spare
                     site; check: the migration completed and bumped the
                     catalog version
=========  ========  ===================================================
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
from repro.plan.cache import PlanCache
from repro.plan.executor import ExecutionMode
from repro.plan.explain import plan_from_dict

CENTRAL_SITE = "central"
#: Extra site holding one replica of every fragment under the
#: ``kill-site`` oracle, so killing a primary's server leaves a live
#: copy reachable.
MIRROR_SITE = "mirror"
#: The primary whose server the ``kill-site`` oracle kills: it hosts the
#: first fragment, whose only other copy is on the mirror site.
VICTIM_SITE = "site0"
#: Extra empty site added under the ``migrate`` oracle: the mid-run
#: migration splits or moves a fragment onto it, so the second pass
#: exercises a placement the first pass never saw.
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

    kind: str  # "answer" | "mode" | "plan" | "correctness" | "error", or an ORACLES row's kind
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
    """Everything the oracle observed for one case, and how it ran."""

    spec: CaseSpec
    oracle: str = "default"
    modes: tuple[str, ...] = EXECUTION_MODES
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

    def add_mismatch(
        self,
        kind: str,
        detail: str,
        index: Optional[int] = None,
        query: Optional[str] = None,
    ) -> None:
        self.mismatches.append(Mismatch(kind, detail, index, query))

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "oracle": self.oracle,
            "modes": list(self.modes),
            "ok": self.ok,
            "queries_run": self.queries_run,
            "queries_skipped": self.queries_skipped,
            "comparisons": self.comparisons,
            "composition_kinds": dict(self.composition_kinds),
            "mismatches": [m.to_dict() for m in self.mismatches],
            "notes": self.notes,
        }


#: One pass's fragmented results: per compared query, results by mode.
PassResults = list[dict[str, PartixResult]]


@dataclass(frozen=True)
class Oracle:
    """One row of :data:`ORACLES` (see the module docstring)."""

    #: Mismatch kind of the row's reruns and check (None: shared only).
    kind: Optional[str] = None
    #: ``Partix.execute`` kwargs; each rerun must byte-match the default.
    reruns: tuple[dict, ...] = ()
    shard_workers: int = 0
    #: Replicate every fragment on :data:`MIRROR_SITE`.
    mirror: bool = False
    #: Add :data:`SPARE_SITE` after publication, and a plan cache.
    spare: bool = False
    needs_tcp: bool = False
    #: Runs between two passes; its return value is handed to ``check``.
    step: Optional[Callable[[Partix, GeneratedCase, CaseOutcome], object]] = None
    #: ``(partix, step value, first pass, second pass, outcome)`` → the
    #: detail of a mismatch, or None when the step did what it should.
    check: Optional[
        Callable[[Partix, object, PassResults, PassResults, CaseOutcome], Optional[str]]
    ] = None


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


def _kill_victim(partix: Partix, case: GeneratedCase, outcome: CaseOutcome) -> str:
    """Kill :data:`VICTIM_SITE`'s server. Between the passes, so the
    coordinator's pooled sockets to it die mid-use: the retry loop finds
    the corpse on a live connection, not on a fresh connect."""
    partix.tcp.kill(VICTIM_SITE)
    outcome.notes.append(
        f"killed tcp site {VICTIM_SITE!r} between passes"
        " (pooled sockets die mid-use)"
    )
    return VICTIM_SITE


def _require_failover(
    partix: Partix,
    victim: str,
    first: PassResults,
    second: PassResults,
    outcome: CaseOutcome,
) -> Optional[str]:
    """Answers after the kill already faced the shared checks; here the
    dead site must have cost something. Pruning can legitimately skip
    its fragment, so only a victim some healthy tcp plan routed to
    counts."""

    def tcp_results(results: PassResults) -> list[PartixResult]:
        return [
            result
            for by_mode in results
            for mode, result in by_mode.items()
            if ExecutionMode.parse(mode).transport == "tcp"
        ]

    targeted = any(
        result.plan is not None
        and any(subquery.site == victim for subquery in result.plan.subqueries)
        for result in tcp_results(first)
    )
    failovers = sum(result.failover_count for result in tcp_results(second))
    outcome.notes.append(f"replica failovers observed: {failovers}")
    if (
        targeted
        and failovers == 0
        and partix.site_health is not None
        and not partix.site_health.is_ejected(victim)
    ):
        return (
            f"site {victim!r} was killed while hosting primary lanes, yet"
            " no tcp sub-query failed over to its replica and the site was"
            " never ejected"
        )
    return None


def _fire_migration(partix: Partix, case: GeneratedCase, outcome: CaseOutcome):
    """Split the first splittable horizontal fragment onto the spare
    site, else move the first fragment there. Returns the catalog version
    before the migration and its report (None when every attempt
    failed)."""
    from repro.errors import RebalanceError
    from repro.partix.fragments import HorizontalFragment
    from repro.rebalance import Rebalancer

    rebalancer = Rebalancer(partix)
    collection = case.collection.name
    catalog = partix.distribution_catalog
    version = catalog.version
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
        return version, report
    first = case.design.fragments[0].name
    try:
        report = rebalancer.move(collection, first, SPARE_SITE)
    except RebalanceError as error:
        outcome.notes.append(f"migration fallback failed: {error}")
        return version, None
    outcome.notes.append(
        f"migration: moved {first!r} to the spare site"
        f" ({report.documents_moved} documents)"
    )
    return version, report


def _require_version_bump(
    partix: Partix,
    fired: tuple,
    first: PassResults,
    second: PassResults,
    outcome: CaseOutcome,
) -> Optional[str]:
    version_before, report = fired
    if report is None or not report.completed:
        return "no migration could be performed on the case design"
    version = partix.distribution_catalog.version
    if version == version_before:
        return (
            "migration reported completion but the catalog version stayed"
            f" at {version_before}"
        )
    outcome.notes.append(
        f"plan cache across the migration (v{version_before} →"
        f" v{version}): {partix.plan_cache.stats()}"
    )
    return None


#: The oracle table; ``run_case(oracle=NAME)`` runs one row.
ORACLES: dict[str, Oracle] = {
    "default": Oracle(),
    "indexes": Oracle(
        kind="index",
        reruns=({"use_indexes": True}, {"use_indexes": False}),
    ),
    "shards": Oracle(
        kind="shard",
        reruns=({"shard_degree": 1}, {"shard_degree": 2}),
        shard_workers=2,
    ),
    "kill-site": Oracle(
        kind="failover",
        mirror=True,
        needs_tcp=True,
        step=_kill_victim,
        check=_require_failover,
    ),
    "migrate": Oracle(
        kind="migrate",
        spare=True,
        step=_fire_migration,
        check=_require_version_bump,
    ),
}


def oracle_for(name: str, modes: Sequence[str]) -> Oracle:
    """The :data:`ORACLES` row ``name``; raises ``ValueError`` when the
    name is unknown or ``modes`` cannot run it."""
    if name not in ORACLES:
        raise ValueError(
            f"unknown oracle {name!r}; choose one of {', '.join(ORACLES)}"
        )
    unknown = [mode for mode in modes if mode not in ALL_EXECUTION_MODES]
    if not modes or unknown:
        raise ValueError(
            f"modes must name at least one of {', '.join(ALL_EXECUTION_MODES)}"
            + (f" (got {', '.join(unknown)})" if unknown else "")
        )
    oracle = ORACLES[name]
    if oracle.needs_tcp and not any(mode.startswith("tcp") for mode in modes):
        raise ValueError(
            f"oracle {name!r} needs a tcp execution mode: killing a site"
            " process only perturbs the networked transports"
        )
    return oracle


def run_case(
    spec: CaseSpec,
    case: Optional[GeneratedCase] = None,
    partix_factory: Optional[Callable[[Cluster], Partix]] = None,
    modes: Sequence[str] = EXECUTION_MODES,
    oracle: str = "default",
) -> CaseOutcome:
    """Generate (unless given) and differentially execute one case under
    the :data:`ORACLES` row ``oracle``.

    ``partix_factory`` lets tests swap in a middleware with a tampered
    dispatcher — that is how the injected-bug acceptance test proves the
    oracle actually bites. ``modes`` selects the fragmented execution
    modes to compare; including ``"tcp"`` spawns real site-server
    processes for the case (mirrored over the wire, reaped afterwards).
    """
    row = oracle_for(oracle, modes)
    outcome = CaseOutcome(spec=spec, oracle=oracle, modes=tuple(modes))
    if case is None:
        case = generate_case(spec)
    outcome.notes.extend(case.notes)

    report = verify_fragmentation(case.design, case.collection)
    if not report.ok:
        for violation in report.violations:
            outcome.add_mismatch("correctness", violation)
        return outcome

    cluster = Cluster.with_sites(
        len(case.design), prefix="site", shard_workers=row.shard_workers
    )
    allocations = None
    if row.mirror:
        # Primaries keep the publisher's round-robin placement (fragment
        # i on site i); the mirror site holds one replica of each.
        cluster.add(Site(MIRROR_SITE, shard_workers=row.shard_workers))
        allocations = [
            FragmentAllocation(
                fragment=fragment.name, site=site, stored_collection=fragment.name
            )
            for index, fragment in enumerate(case.design.fragments)
            for site in (f"site{index}", MIRROR_SITE)
        ]
    partix = (
        partix_factory(cluster) if partix_factory is not None else Partix(cluster)
    )
    partix.publish(
        case.collection,
        case.design,
        allocations=allocations,
        frag_mode=case.frag_mode,
    )
    if row.spare:
        # Added *after* publish so the round-robin placement ignores it.
        # The plan cache makes the migration's version bump also
        # exercise cache invalidation.
        cluster.add(Site(SPARE_SITE))
        if partix.plan_cache is None:
            partix.plan_cache = PlanCache()
    cluster.add(Site(CENTRAL_SITE))
    partix.publish_centralized(case.collection, CENTRAL_SITE)

    parsed_modes = [ExecutionMode.parse(mode) for mode in modes]
    try:
        if any(mode.streaming for mode in parsed_modes):
            # Adversarial chunking: see ADVERSARIAL_CHUNK_BYTES. Must be
            # set before start_tcp so clients negotiate it.
            partix.chunk_bytes = ADVERSARIAL_CHUNK_BYTES
        if any(mode.transport == "tcp" for mode in parsed_modes):
            partix.start_tcp()
        _run_passes(partix, case, outcome, row)
    finally:
        partix.stop_tcp()
    return outcome


def _run_passes(
    partix: Partix, case: GeneratedCase, outcome: CaseOutcome, oracle: Oracle
) -> None:
    """One pass over the case's queries; with a step, the step, a second
    pass and the step's check."""

    def one_pass() -> PassResults:
        return [
            _run_query(partix, index, query, outcome)
            for index, query in case.active_queries
        ]

    first = one_pass()
    if oracle.step is None:
        return
    first_count = outcome.queries_run
    state = oracle.step(partix, case, outcome)
    second = one_pass()
    outcome.notes.append(
        f"queries compared before the step: {first_count},"
        f" after: {outcome.queries_run - first_count}"
    )
    detail = oracle.check(partix, state, first, second, outcome)
    if detail is not None:
        outcome.add_mismatch(oracle.kind, detail)


def _run_query(
    partix: Partix, index: int, query: str, outcome: CaseOutcome
) -> dict[str, PartixResult]:
    """Run one query through every configuration; returns the successful
    fragmented results keyed by mode (empty on error paths)."""
    modes = outcome.modes
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
        if (error is None) != (central_error is None) or (
            error is not None
            and central_error is not None
            and type(error) is not type(central_error)
        ):
            outcome.add_mismatch(
                "error",
                f"asymmetric failure in mode {mode!r}:"
                f" centralized {central_error!r}, fragmented {error!r}",
                index,
                query,
            )
            return {}
        if result is not None:
            by_mode[mode] = result.result_text
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
            outcome.add_mismatch(
                "mode",
                f"{reference_mode} vs {mode} answers differ;"
                f" {_diff_snippet(simulated, by_mode[mode])}",
                index,
                query,
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
        outcome.add_mismatch(
            "answer",
            f"centralized vs fragmented ({policy},"
            f" composition={plan.composition.kind},"
            f" subqueries={len(plan.subqueries)});"
            f" {_diff_snippet(central_text, simulated)}",
            index,
            query,
        )
    _check_reruns(partix, query, by_mode, outcome, index)
    return results_by_mode


def _check_reruns(
    partix: Partix,
    query: str,
    by_mode: dict[str, str],
    outcome: CaseOutcome,
    index: int,
) -> None:
    """Per mode, the query re-run with each of the oracle's ``reruns``
    must reproduce the default run's answer byte-for-byte. The reruns
    (forcing indexes on/off, or the shard degree serial/sharded) only
    change how each site evaluates its own lane, so an unsound index
    probe or a shard fold that reorders, double-counts or loses partials
    shows up here under the oracle's kind."""
    oracle = ORACLES[outcome.oracle]
    for mode, default_text in by_mode.items():
        for kwargs in oracle.reruns:
            text, error = _attempt(
                lambda: partix.execute(
                    query, collection="Cfuzz", execution_mode=mode, **kwargs
                ).result_text
            )
            outcome.comparisons += 1
            forced = ", ".join(f"{key}={value!r}" for key, value in kwargs.items())
            if error is not None:
                detail = (
                    f"mode {mode!r} with {forced} raised {error!r} although"
                    " the default run answered"
                )
            elif text != default_text:
                detail = (
                    f"mode {mode!r} answers differ with {forced};"
                    f" {_diff_snippet(default_text, text)}"
                )
            else:
                continue
            outcome.add_mismatch(oracle.kind, detail, index, query)


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
    replanned = partix.explain(query, "Cfuzz").render()
    if replanned != rendered:
        outcome.add_mismatch(
            "plan",
            "planning is nondeterministic: two explain calls rendered"
            f" different plans; {_diff_snippet(rendered, replanned)}",
            index,
            query,
        )
    roundtripped = plan_from_dict(json.loads(json.dumps(plan.to_dict()))).render()
    if roundtripped != rendered:
        outcome.add_mismatch(
            "plan",
            "explain does not round-trip through its serialized form;"
            f" {_diff_snippet(rendered, roundtripped)}",
            index,
            query,
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
            outcome.add_mismatch(
                "mode",
                f"mode {mode!r} composed answer does not follow plan order;"
                f" {_diff_snippet(expected, result.result_text)}",
                index,
                query,
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
    oracle: str = "default",
) -> dict:
    """Run the full differential session under one :data:`ORACLES` row;
    returns a JSON-able summary.

    Stops early once ``max_failures`` distinct failing cases have been
    collected (each one is expensive: it triggers minimization and a
    written reproducer when ``repro_dir`` is set).
    """
    summary: dict = {
        "seed": seed,
        "iterations": iterations,
        "execution_modes": list(modes),
        "oracle": oracle,
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
            spec, partix_factory=partix_factory, modes=modes, oracle=oracle
        )
        if oracle == "migrate" and "migrate" not in outcome.mismatch_kinds():
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
                minimize_spec(spec, outcome, partix_factory=partix_factory)
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
