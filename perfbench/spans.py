"""Out-of-program tracing: spans recorded around calls into each layer.

The benchmark does not change the program to trace it. :class:`Tracer`
replaces a fixed list of public functions with thin wrappers while it is
installed and restores them afterwards:

* ``Partix.execute`` -> ``partix.execute`` (layer ``coordinate``);
* ``QueryDecomposer.decompose`` / ``decompose_logical`` ->
  ``plan.decompose`` / ``plan.decompose_logical`` (``plan``);
* ``lower``, as bound in the middleware and the decomposer ->
  ``plan.lower`` (``plan``);
* ``ParallelDispatcher.dispatch`` -> ``dispatch``, and each lane's
  ``Transport.execute`` -> ``dispatch.lane`` (``dispatch``);
* ``Site.execute`` -> ``site`` (``site``, or ``shards`` for a sharded
  lane);
* ``ResultComposer.compose`` -> ``compose`` (``compose``);
* ``Partix.publish`` -> ``publish`` and ``Rebalancer.move`` ->
  ``publish.move`` (``publish``).

The workloads open one ``request`` span around each call they time.

Lanes run on the dispatcher's worker threads, so a lane span cannot find
its parent on the thread's own stack: the ``dispatch`` wrapper hands the
dispatcher a transport proxy that opens each lane span under the
dispatch span explicitly. Over tcp the site runs in another process; the
lane then gets a child ``site`` span as long as the site's own measured
time (``QueryResult.measured_seconds``), ending where the lane ends, so
the lane's self time is the transport's share.

Spans stay in memory; :meth:`Tracer.dump` writes them out after the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cluster import dispatch as dispatch_module
from repro.cluster.dispatch import ParallelDispatcher, Transport
from repro.cluster.site import Site
from repro.partix import decomposer as decomposer_module
from repro.partix import middleware as middleware_module
from repro.partix.composer import ResultComposer
from repro.partix.decomposer import QueryDecomposer
from repro.partix.middleware import Partix
from repro.rebalance.migrate import Rebalancer

@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, parent: Optional[Span] = None) -> Span:
        """Start a span under ``parent`` (default: this thread's current
        span) and make it the thread's current span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            span_id=next(self._ids),
            name=name,
            layer=layer,
            start=self.clock(),
            parent=parent.span_id if parent is not None else None,
            request=parent.request if parent is not None else None,
        )
        if span.request is None:
            span.request = span.span_id
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, span: Span) -> None:
        """Record a span built outside :meth:`open`/:meth:`close`."""
        with self._lock:
            self.spans.append(span)

    def new_id(self) -> int:
        return next(self._ids)

    def _timed(self, name: str, layer: str, function, annotate=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._patch(
            Partix,
            "execute",
            self._timed(
                "partix.execute", "coordinate", Partix.execute, _annotate_execute
            ),
        )
        self._patch(
            Partix, "publish", self._timed("publish", "publish", Partix.publish)
        )
        self._patch(
            QueryDecomposer,
            "decompose",
            self._timed("plan.decompose", "plan", QueryDecomposer.decompose),
        )
        self._patch(
            QueryDecomposer,
            "decompose_logical",
            self._timed(
                "plan.decompose_logical", "plan", QueryDecomposer.decompose_logical
            ),
        )
        for module in (middleware_module, decomposer_module):
            self._patch(
                module, "lower", self._timed("plan.lower", "plan", module.lower)
            )
        self._patch(
            ParallelDispatcher, "dispatch", self._dispatch_wrapper()
        )
        self._patch(
            Site,
            "execute",
            self._timed("site", "site", Site.execute, _annotate_site),
        )
        self._patch(
            ResultComposer,
            "compose",
            self._timed(
                "compose", "compose", ResultComposer.compose, _annotate_compose
            ),
        )
        self._patch(
            Rebalancer,
            "move",
            self._timed("publish.move", "publish", Rebalancer.move),
        )
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _dispatch_wrapper(self):
        tracer = self
        original = ParallelDispatcher.dispatch

        def dispatch(dispatcher, cluster, subqueries, *args, **kwargs):
            span = tracer.open("dispatch", "dispatch")
            if not isinstance(cluster, Transport):
                cluster = dispatch_module.InProcessTransport(cluster)
            try:
                outcome = original(
                    dispatcher,
                    _LaneTracer(tracer, cluster, span),
                    subqueries,
                    *args,
                    **kwargs,
                )
            finally:
                tracer.close(span)
            executions = [e for e in outcome.executions_by_index if e is not None]
            span.attrs.update(
                retries=sum(max(0, len(e.attempt_sites) - 1) for e in executions),
                failovers=sum(e.failover_count for e in executions),
                wire_bytes=sum(e.bytes_sent + e.bytes_received for e in executions),
                index_lanes=sum(1 for s in subqueries if s.use_indexes),
            )
            return outcome

        dispatch.__wrapped__ = original
        return dispatch

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.to_dict()) + "\n")


class _LaneTracer(Transport):
    """Transport proxy opening one ``dispatch.lane`` span per attempt."""

    def __init__(self, tracer: Tracer, inner: Transport, parent: Span):
        self.tracer = tracer
        self.inner = inner
        self.parent = parent

    def resolve(self, site_names):
        self.inner.resolve(site_names)

    def ping(self, site: str) -> bool:
        return self.inner.ping(site)

    def execute(self, subquery, default_collection=None, timeout=None, on_chunk=None):
        tracer = self.tracer
        lane = tracer.open("dispatch.lane", "dispatch", parent=self.parent)
        try:
            execution = self.inner.execute(
                subquery,
                default_collection=default_collection,
                timeout=timeout,
                on_chunk=on_chunk,
            )
        finally:
            tracer.close(lane)
        if execution.on_wire:
            # The site ran in a server process: its own measured time is
            # the only part of the lane we can attribute to it.
            busy = max(0.0, execution.result.measured_seconds)
            site = Span(
                span_id=tracer.new_id(),
                name="site",
                layer="site",
                start=max(lane.start, lane.end - busy),
                end=lane.end,
                parent=lane.span_id,
                request=lane.request,
            )
            _annotate_site(
                site, (), {"parallel_degree": subquery.parallel_degree}, execution.result
            )
            tracer.add(site)
        return execution


def _annotate_execute(span: Span, args, kwargs, result) -> None:
    span.attrs["query"] = args[1]


def _annotate_site(span: Span, args, kwargs, result) -> None:
    degree = kwargs.get("parallel_degree") or 1
    if degree >= 2:
        span.layer = "shards"
    span.attrs.update(
        degree=degree,
        materialize=result.parse_seconds,
        overhead=result.simulated_overhead_seconds,
        scanned=result.documents_scanned,
        materialized=result.documents_parsed,
        pruned=result.documents_pruned,
    )


def _annotate_compose(span: Span, args, kwargs, result) -> None:
    partials = args[2] if len(args) > 2 else kwargs["partials"]
    span.attrs.update(
        input_bytes=sum(len(text.encode("utf-8")) for _, text in partials),
        output_bytes=result.result_bytes,
    )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


class SpanTree:
    """Parent/child index over a list of spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {span.span_id: span for span in self.spans}
        self.children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def kids(self, span: Span) -> list[Span]:
        return self.children.get(span.span_id, [])

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.kids(span)
            if c.end > span.start and c.start < span.end
        )
        return span.duration - covered

    def critical(self, span: Span, into: dict) -> dict:
        """Attribute ``span``'s duration to layers along its critical
        path: overlapping children form one parallel group, only the
        longest member of a group is followed, and the rest of the
        group's extent counts to ``span``'s own layer (lane skew)."""
        kids = sorted(self.kids(span), key=lambda c: c.start)
        into[span.layer] = into.get(span.layer, 0.0) + self.self_time(span)
        group: list[Span] = []
        group_end = None
        for kid in kids + [None]:
            if kid is not None and group_end is not None and kid.start < group_end:
                group.append(kid)
                group_end = max(group_end, kid.end)
                continue
            if group:
                longest = max(group, key=lambda c: c.duration)
                extent = _union_length((c.start, c.end) for c in group)
                into[span.layer] = into.get(span.layer, 0.0) + max(
                    0.0, extent - longest.duration
                )
                self.critical(longest, into)
            if kid is not None:
                group, group_end = [kid], kid.end
        return into

    def nesting_violations(self, slack: float = 1e-6) -> list[tuple[Span, Span]]:
        """Child spans that start before or end after their parent."""
        bad = []
        for span in self.spans:
            parent = self.by_id.get(span.parent) if span.parent else None
            if parent is not None and (
                span.start < parent.start - slack or span.end > parent.end + slack
            ):
                bad.append((span, parent))
        return bad


def adopt(tracer: Tracer, child_name: str, parent_name: str) -> None:
    """Re-parent root ``child_name`` spans under the ``parent_name`` span
    of the same query that encloses them (the coordinator runs
    ``Partix.execute`` on its own pool threads, so the link to the
    client's request is recovered from the intervals). Candidates are
    taken oldest first, matching the coordinator's FIFO admission."""
    parents = sorted(
        (s for s in tracer.spans if s.name == parent_name), key=lambda s: s.start
    )
    orphans = sorted(
        (s for s in tracer.spans if s.name == child_name and s.parent is None),
        key=lambda s: s.start,
    )
    taken: set = set()
    moved: dict[int, int] = {}
    for orphan in orphans:
        match = next(
            (
                p
                for p in parents
                if p.span_id not in taken
                and p.start <= orphan.start
                and orphan.end <= p.end
                and p.attrs.get("query") == orphan.attrs.get("query")
            ),
            None,
        )
        if match is None:
            continue
        taken.add(match.span_id)
        orphan.parent = match.span_id
        moved[orphan.request] = match.request
    for span in tracer.spans:
        if span.request in moved:
            span.request = moved[span.request]
