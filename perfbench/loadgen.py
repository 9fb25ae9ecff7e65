"""Open-loop load generation over a fixed number of connections.

Arrivals are due on a schedule fixed before the run; they do not wait
for earlier answers. Each connection is served by one worker thread that
takes the next arrival as soon as it is free and sends it at its due
time. When every connection is busy, an arrival is sent late; its
latency is still counted from the due time, so a stall shows in every
request it delays. ``late`` (send time minus due time) shows how far
behind the generator ran.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


@dataclass
class Arrival:
    """One scheduled request: a query or a fragment move."""

    due: float  # seconds after the schedule starts
    kind: str  # "query" | "move"
    step: int  # index of the offered-rate step it belongs to
    payload: object = None


@dataclass
class Outcome:
    """What happened to one arrival."""

    arrival: Arrival
    sent: float = 0.0  # seconds after the schedule starts
    done: float = 0.0
    ok: bool = False
    error: Optional[str] = None
    detail: dict = field(default_factory=dict)

    @property
    def late(self) -> float:
        return self.sent - self.arrival.due

    @property
    def latency(self) -> float:
        return self.done - self.arrival.due


def uniform_arrivals(rate: float, start: float, seconds: float) -> list[float]:
    """Due times of a ``rate``-per-second stream over ``[start, start+seconds)``."""
    count = int(round(rate * seconds))
    return [start + index / rate for index in range(count)]


def run_open_loop(
    arrivals: Sequence[Arrival],
    handlers: Sequence[Callable[[Arrival], tuple[bool, Optional[str], dict]]],
) -> list[Outcome]:
    """Send ``arrivals`` through one worker thread per handler.

    A handler serves one connection: it sends an arrival and returns
    ``(ok, error, detail)``. A handler that raises is counted as failed
    with the exception text. If the caller is interrupted (a signal),
    the workers stop taking arrivals instead of running out the
    schedule.
    """
    outcomes = [Outcome(arrival) for arrival in arrivals]
    cursor = [0]
    lock = threading.Lock()
    stop = threading.Event()
    clock = time.perf_counter
    begin = clock() + 0.05

    def _worker(handler) -> None:
        while not stop.is_set():
            with lock:
                index = cursor[0]
                if index >= len(arrivals):
                    return
                cursor[0] += 1
            outcome = outcomes[index]
            wait = begin + outcome.arrival.due - clock()
            if wait > 0 and stop.wait(wait):
                return
            outcome.sent = clock() - begin
            try:
                outcome.ok, outcome.error, outcome.detail = handler(outcome.arrival)
            except Exception as exc:  # noqa: BLE001 - a failed request, tallied
                outcome.ok, outcome.error = False, f"{type(exc).__name__}: {exc}"
            outcome.done = clock() - begin

    threads = [
        threading.Thread(target=_worker, args=(handler,), name=f"loadgen-{index}")
        for index, handler in enumerate(handlers)
    ]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        stop.set()
    return outcomes
