"""The ``pushdown`` figure: what does index pushdown buy per site?

Two configurations of the same published ItemsSHor repository (4
horizontal fragments + centralized baseline site, binary node tables on
disk either way), per query:

* ``no-indexes`` — the per-query override forces full scans: every
  fragment document is materialized from its binary table and evaluated
  (the paper-faithful eXist/2005 behaviour, modulo the cheaper decode);
* ``index-candidates`` — value/path indexes prune to candidate document
  ids for the predicate extracted from the query text, and only the
  candidates are materialized before the predicate runs.

The reported latency is the round's ``parallel_seconds`` — the slowest
site's busy time, including the simulated per-document access overhead —
so the figure shows the per-site cost the paper's Figure 7 methodology
would attribute to each access path. The JSON ``checks`` block asserts
the two invariants the CI smoke job gates on: answers byte-identical
across both configurations, and the index path no slower than the
no-indexes baseline over the query set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.scenarios import Scenario, build_items_scenario

#: Configuration slugs, in the order they are run and reported.
PUSHDOWN_CONFIGS = ("no-indexes", "index-candidates")

#: Relative slack for the never-slower check: the per-document simulated
#: overhead makes the totals strongly deterministic, but queries without
#: an extractable predicate cost the same in every configuration and
#: contribute pure measurement noise.
PUSHDOWN_SLACK = 0.02


@dataclass
class PushdownLane:
    """One configuration's measurements for one query."""

    config: str
    parallel_seconds: float
    documents_parsed: int
    binary_decodes: int
    result_bytes: int


@dataclass
class PushdownRun:
    """One query across both configurations."""

    qid: str
    description: str
    byte_identical: bool
    lanes: list = field(default_factory=list)

    def lane(self, config: str) -> PushdownLane:
        for lane in self.lanes:
            if lane.config == config:
                return lane
        raise KeyError(config)


def _round_stats(result) -> tuple[int, int]:
    parsed = decodes = 0
    for execution in result.round.executions:
        parsed += execution.result.documents_parsed
        decodes += execution.result.binary_decodes
    return parsed, decodes


def run_pushdown(scale: float, repetitions: int, transmission: bool) -> dict:
    """Run the two-configuration comparison; returns the JSON payload."""
    scenario = build_items_scenario(
        "small", paper_mb=100, fragment_count=4, scale=scale, use_indexes=True
    )
    runs: list[PushdownRun] = []
    for query in scenario.queries:
        results = {}
        timings: dict[str, list[float]] = {c: [] for c in PUSHDOWN_CONFIGS}
        for config in PUSHDOWN_CONFIGS:
            use_indexes = config != "no-indexes"
            for repetition in range(repetitions + 1):
                result = scenario.partix.execute(
                    query.text,
                    collection=scenario.collection_name,
                    use_indexes=use_indexes,
                )
                if repetition == 0:
                    continue  # warm-up, as in every other figure
                timings[config].append(result.round.parallel_seconds)
                results[config] = result
        reference = results[PUSHDOWN_CONFIGS[0]]
        run = PushdownRun(
            qid=query.qid,
            description=query.description,
            byte_identical=all(
                results[config].result_text == reference.result_text
                for config in PUSHDOWN_CONFIGS[1:]
            ),
        )
        for config in PUSHDOWN_CONFIGS:
            parsed, decodes = _round_stats(results[config])
            run.lanes.append(
                PushdownLane(
                    config=config,
                    parallel_seconds=(
                        sum(timings[config]) / len(timings[config])
                    ),
                    documents_parsed=parsed,
                    binary_decodes=decodes,
                    result_bytes=results[config].result_bytes,
                )
            )
        runs.append(run)
    print(_format(scenario, runs))
    return _payload(scenario, scale, runs)


def _totals(runs: list) -> dict:
    totals = {config: 0.0 for config in PUSHDOWN_CONFIGS}
    for run in runs:
        for config in PUSHDOWN_CONFIGS:
            totals[config] += run.lane(config).parallel_seconds
    return totals


def _format(scenario: Scenario, runs: list) -> str:
    width = max(len(config) for config in PUSHDOWN_CONFIGS)
    lines = [
        f"pushdown — {scenario.name}, {scenario.fragment_count} fragments"
        " (per-site latency = slowest site's busy time)",
    ]
    for run in runs:
        lines.append(f"{run.qid}: {run.description}")
        baseline = run.lane(PUSHDOWN_CONFIGS[0]).parallel_seconds
        for config in PUSHDOWN_CONFIGS:
            lane = run.lane(config)
            ratio = (
                f" ({lane.parallel_seconds / baseline:.2f}x)"
                if baseline > 0
                else ""
            )
            lines.append(
                f"  {config:<{width}}  {lane.parallel_seconds * 1000:9.2f} ms"
                f"{ratio}  materialized={lane.documents_parsed}"
            )
        if not run.byte_identical:
            lines.append("  !! answers differ across configurations")
    totals = _totals(runs)
    lines.append("totals:")
    for config in PUSHDOWN_CONFIGS:
        lines.append(
            f"  {config:<{width}}  {totals[config] * 1000:9.2f} ms"
        )
    return "\n".join(lines)


def _payload(scenario: Scenario, scale: float, runs: list) -> dict:
    totals = _totals(runs)
    byte_identical = all(run.byte_identical for run in runs)
    not_slower = (
        totals["index-candidates"]
        <= totals["no-indexes"] * (1.0 + PUSHDOWN_SLACK)
    )
    return {
        "figure": "pushdown",
        "scenario": scenario.name,
        "scale": scale,
        "fragment_count": scenario.fragment_count,
        "configs": list(PUSHDOWN_CONFIGS),
        "total_parallel_seconds": totals,
        "queries": [
            {
                "qid": run.qid,
                "description": run.description,
                "byte_identical": run.byte_identical,
                "lanes": {
                    lane.config: {
                        "parallel_seconds": lane.parallel_seconds,
                        "documents_parsed": lane.documents_parsed,
                        "binary_decodes": lane.binary_decodes,
                        "result_bytes": lane.result_bytes,
                    }
                    for lane in run.lanes
                },
            }
            for run in runs
        ],
        "checks": {
            "byte_identical": byte_identical,
            "pushdown_not_slower": not_slower,
        },
    }
