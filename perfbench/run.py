"""The PartiX layered benchmark: one workload, one run, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload items-scan --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` installs the span wrappers of ``spans.py`` and prints the
per-layer metrics: batch workloads trace every second pass of the query
set, ``serving-churn`` traces its open loop; alternating traced and
untraced passes give the tracing overhead. Spans are written to
``--spans`` when given.

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
Earlier lines carry the run's details: the environment fingerprint,
sample counts, and for ``serving-churn`` the latency, lateness and
answer rate of every offered rate.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def _load_program():
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, source)


def fingerprint(seed: int) -> dict:
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process: the middleware, coordinator and, in
    process, the site engines. The baseline deployment never runs here."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb() -> float:
    """The largest peak RSS among the live child processes (tcp site
    servers, shard workers), each read on its own. A forked child's
    figure includes the pages it shares with this process."""
    peak = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            pass  # the child ended meanwhile
    return peak / 1024.0


def steal_seconds() -> float:
    """CPU time the hypervisor has given to other guests since boot, over
    all processors (0 where the system does not report it). Timings of a
    window with much of it say more about the neighbours than the code."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _baseline_child(workload, seed: int, scale: float, sender) -> None:
    from workloads import BaselineMismatch

    try:
        sender.send(("ok", workload.baseline(workload.generate(seed, scale))))
    except BaselineMismatch as exc:
        sender.send(("mismatch", str(exc)))


def expected_answers(workload, seed: int, scale: float):
    """The workload's queries with their expected texts, computed in a
    forked process before this one holds any data, so the baseline's
    fragmented and centralized copies stay out of ``peak_rss_mb``.
    Returns None when the centralized cross-check fails."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(
        target=_baseline_child, args=(workload, seed, scale, sender)
    )
    child.start()
    sender.close()
    try:
        status, payload = receiver.recv()
    except EOFError:
        raise RuntimeError(
            f"the baseline process ended with exit code {child.exitcode}"
        ) from None
    finally:
        child.join()
    if status == "mismatch":
        print(f"perfbench: baseline cross-check failed: {payload}", file=sys.stderr)
        return None
    return payload


def _setup(workload, collection, queries):
    """Start the system SETUPS times; keep the last, return it with the
    median set-up time."""
    times = []
    system = None
    for _ in range(SETUPS):
        if system is not None:
            system.close()
            system = None
        started = time.perf_counter()
        system = workload.start(collection, queries)
        times.append(time.perf_counter() - started)
    return system, statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="share of the paper's 100 MB point to generate (tests use less)",
    )
    parser.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args(argv)

    # A terminated run still closes its pools and servers (the finally
    # blocks below run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _load_program()
    import metrics as measures
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    rng = random.Random(args.seed)
    queries = expected_answers(workload, args.seed, args.scale)
    if queries is None:
        return 3
    collection = workload.generate(args.seed, args.scale)

    details: dict = {"workload": workload.name, "fingerprint": fingerprint(args.seed)}
    tracer = Tracer() if args.trace else None
    setup_spans: list = []
    if tracer is not None:
        tracer.install()
    try:
        system, setup_s = _setup(workload, collection, queries)
    finally:
        if tracer is not None:
            tracer.uninstall()
            setup_spans, tracer.spans = tracer.spans, []
    try:
        stolen = steal_seconds()
        run = workload.measure(system, queries, args.seconds, rng, tracer)
        stolen = steal_seconds() - stolen
        child_peak = child_peak_rss_mb()  # before close() ends the children
    finally:
        system.close()

    attempted, failed = measures.counts(run)
    if tracer is None:
        values = measures.end_to_end(run)
        values["setup_s"] = (setup_s, "s")
        values["peak_rss_mb"] = (peak_rss_mb(), "MB")
        values["child_peak_rss_mb"] = (child_peak, "MB")
    else:
        values = measures.per_layer(
            run, tracer, setup_spans, len(collection.documents())
        )
        if args.spans:
            tracer.dump(args.spans)
    details["samples"] = {
        "attempted": attempted,
        "beyond_p95": measures.samples_beyond_p95(run),
        "wall_seconds": run.wall_seconds,
        "steal_seconds": stolen,
    }
    if run.outcomes:
        details["steps"] = measures.step_report(run)
    errors = sorted(
        {c.error for c in run.calls if c.error}
        | {o.error for o in run.outcomes if o.error}
    )
    if errors:
        details["errors"] = errors[:10]
    print(json.dumps(details))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
