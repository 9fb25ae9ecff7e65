"""Self-test of the benchmark: tiny runs of every workload.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Each run is a separate process, as the benchmark is run for real.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
#: The gated workloads of BENCHMARK.json plus xbench-join, which runs the
#: same way but is not gated (see README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["xbench-join"]


def _run(tmp_path, workload: str, trace: int) -> tuple[dict, str]:
    spans = tmp_path / "spans.jsonl"
    command = [
        sys.executable,
        os.path.join(BENCH, "run.py"),
        "--workload", workload,
        "--seed", "5",
        "--seconds", "6",
        "--trace", str(trace),
        "--scale", "0.001",
        "--spans", str(spans),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1]), str(spans)


def _check_metrics(result: dict, expected: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    for spec in expected:
        assert spec["name"] in metrics, spec["name"]
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
        assert isinstance(metrics[spec["name"]]["value"], (int, float))
    assert set(metrics) == {spec["name"] for spec in expected}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, workload):
    result, _ = _run(tmp_path, workload, trace=0)
    _check_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_spans_nest(tmp_path, workload):
    result, spans_path = _run(tmp_path, workload, trace=1)
    _check_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["trace.nesting_violations"]["value"] == 0
    with open(spans_path, encoding="utf-8") as handle:
        spans = {span["id"]: span for span in map(json.loads, handle)}
    names = {span["name"] for span in spans.values()}
    assert {"partix.execute", "dispatch", "dispatch.lane", "site", "compose"} <= names
    children = 0
    for span in spans.values():
        parent = spans.get(span["parent"])
        if parent is None:
            continue
        children += 1
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"], (
            span["name"],
            parent["name"],
        )
        assert span["request"] == parent["request"]
    assert children > 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, no result."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (copy / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
