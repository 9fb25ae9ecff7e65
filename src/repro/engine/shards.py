"""Site-local shard pipeline: intra-site parallel query evaluation.

PartiX's speedups come from across-site parallelism; within a site one
fat fragment is still a serial scan. Following Sato et al.'s
divide-and-conquer XPath parallelization, this module partitions a
fragment's *pruned candidate documents* into **shards** — picklable
slices of the collection's binary node tables (the ``.pxb`` encoding
makes documents cheap to ship to worker processes or inherit via fork) —
runs the same query per shard in a per-engine ``ProcessPoolExecutor``,
and merges the partial results with the very machinery the distributed
composer uses across fragments:

* **concat** results join per-shard serialized pieces in shard
  (candidate) order — by construction identical to
  :func:`~repro.engine.database.serialize_sequence` over the full
  sequence;
* **count / exists / empty** fold O(1)-byte per-shard partials through
  the shared :func:`~repro.partix.composer.fold_aggregate_values`
  (plan-order fold, same as cross-fragment pushdown);
* **sum / avg / min / max** ship the shards' *atomized values* and apply
  the evaluator's own aggregate semantics over the recombined sequence —
  preserving the serial run's float summation order and mixed-type
  min/max behaviour bit for bit.

Shardability is decided statically and conservatively by
:func:`shard_script`: a query that cannot provably be partitioned by
document runs serial at any requested degree, so answers are
byte-identical in every mode and at every degree — parallelism is purely
a performance decision.

Per-shard :class:`~repro.engine.stats.EngineStats` are returned as plain
dicts and absorbed into the parent query's accumulator, so the sharded
counters sum *exactly* to what the serial run would have charged: the
parent charges scan/prune once (``index_lookups``, ``documents_scanned``,
``documents_pruned``), the workers charge only the materialization and
evaluation of their own documents.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.datamodel.binary import BinaryXMLDocument, StringPool
from repro.engine.stats import EngineStats
from repro.errors import XQueryTypeError
from repro.xquery.analysis import DECOMPOSABLE_AGGREGATES
from repro.xquery.ast_nodes import (
    AttributeConstructor,
    AxisStep,
    BinaryOp,
    ElementConstructor,
    Expr,
    FLWOR,
    FilterExpr,
    ForClause,
    FunctionCall,
    IfExpr,
    LetClause,
    PathApply,
    Quantified,
    RangeExpr,
    SequenceExpr,
    TextConstructor,
    UnaryOp,
)
from repro.xquery.evaluator import DynamicContext, Evaluator
from repro.xquery.parser import parse_query
from repro.xquery.values import atomic_to_string, atomize, to_number

#: Aggregates whose per-shard partial is a single scalar folded by the
#: shared cross-fragment fold (exact: integer counts and booleans).
FOLD_AGGREGATES = frozenset({"count", "exists", "empty"})

#: Aggregates that ship atomized shard values instead of a folded scalar,
#: so the parent reproduces the serial run's arithmetic order exactly.
VALUE_AGGREGATES = frozenset({"sum", "avg", "min", "max"})


# ----------------------------------------------------------------------
# Fork-inherited tables (zero-copy shipping on fork platforms)
# ----------------------------------------------------------------------
#: Per-pool snapshots of binary node tables, registered by the parent
#: engine immediately before it forks its worker pool. Forked workers
#: see the registry copy-on-write, so a task whose documents were
#: already stored at fork time ships only their *names* — no re-pickling
#: of megabyte tables per query. Documents stored after the fork (or any
#: pool under a spawn start method) fall back to explicit bytes in the
#: task. Keyed by a process-unique token so several engines in one
#: process never collide.
_FORK_INHERITED: dict[int, dict[tuple[str, str], "BinaryXMLDocument"]] = {}

_fork_tokens = itertools.count(1)

#: Worker-local cap on materialized trees kept across tasks. Mirrors the
#: parent engine's parsed-document LRU: the pool outlives a single
#: query, so a worker that re-receives a document it already
#: materialized charges a ``cache_hits`` (plus the simulated
#: per-document overhead) exactly like the serial path's warm cache.
WORKER_CACHE_DOCUMENTS = 128

_worker_cache: "OrderedDict[tuple[int, str, str], object]" = OrderedDict()


def new_fork_token() -> int:
    """A process-unique key for one engine's fork snapshot."""
    return next(_fork_tokens)


def register_fork_snapshot(
    token: int, snapshot: dict[tuple[str, str], "BinaryXMLDocument"]
) -> None:
    """Publish ``snapshot`` for inheritance; call *before* forking."""
    _FORK_INHERITED[token] = snapshot


def forget_fork_snapshot(token: Optional[int]) -> None:
    """Drop a snapshot when its pool is released (idempotent)."""
    if token is not None:
        _FORK_INHERITED.pop(token, None)


# ----------------------------------------------------------------------
# Static shardability analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardScript:
    """How one query's evaluation decomposes over document shards."""

    mode: str  # "concat" | "fold" | "values"
    aggregate: Optional[str] = None


def _subexpressions(expr) -> Iterator[Expr]:
    """Direct sub-expressions of one AST node (closed over the subset)."""
    if isinstance(expr, FLWOR):
        for clause in expr.clauses:
            yield clause.seq if isinstance(clause, ForClause) else clause.expr
        if expr.where is not None:
            yield expr.where
        for spec in expr.order_by:
            yield spec.key
        yield expr.return_expr
    elif isinstance(expr, PathApply):
        if expr.primary is not None:
            yield expr.primary
        for step in expr.steps:
            yield from step.predicates
    elif isinstance(expr, AxisStep):
        yield from expr.predicates
    elif isinstance(expr, FilterExpr):
        yield expr.primary
        yield from expr.predicates
    elif isinstance(expr, FunctionCall):
        yield from expr.args
    elif isinstance(expr, SequenceExpr):
        yield from expr.items
    elif isinstance(expr, RangeExpr):
        yield expr.start
        yield expr.end
    elif isinstance(expr, BinaryOp):
        yield expr.left
        yield expr.right
    elif isinstance(expr, UnaryOp):
        yield expr.operand
    elif isinstance(expr, IfExpr):
        yield expr.condition
        yield expr.then_branch
        yield expr.else_branch
    elif isinstance(expr, Quantified):
        yield expr.seq
        yield expr.condition
    elif isinstance(
        expr, (ElementConstructor, AttributeConstructor, TextConstructor)
    ):
        yield from expr.content


def _input_calls(expr) -> tuple[int, int]:
    """``(collection_calls, doc_calls)`` anywhere in the expression."""
    collections = docs = 0
    if isinstance(expr, FunctionCall):
        if expr.name == "collection":
            collections += 1
        elif expr.name == "doc":
            docs += 1
    for child in _subexpressions(expr):
        inner_collections, inner_docs = _input_calls(child)
        collections += inner_collections
        docs += inner_docs
    return collections, docs


def _is_collection_sequence(expr) -> bool:
    """Is ``expr`` the collection's root sequence, possibly navigated?

    ``collection("c")`` or ``collection("c")/a//b[...]``: path steps and
    their bracketed predicates apply *per context node* — per document —
    so they commute with a by-document partition. A
    :class:`FilterExpr` over the collection does not (its predicates see
    the cross-document sequence, positionally), so it is rejected.
    """
    if isinstance(expr, FunctionCall) and expr.name == "collection":
        return True
    return (
        isinstance(expr, PathApply)
        and expr.primary is not None
        and _is_collection_sequence(expr.primary)
    )


def _concat_shardable(expr) -> bool:
    """Does by-document partition + ordered concat reproduce ``expr``?

    Two shapes qualify (the single ``collection()`` call is known to be
    inside ``expr``):

    * a path over the collection roots — per-document navigation;
    * a FLWOR whose *first* ``for`` iterates the collection sequence,
      with no position variable (it would number items across shards),
      no earlier ``for`` (tuple-stream order would interleave), and no
      ``order by`` (a cross-document sort does not commute with
      partition). ``let`` bindings before the driving ``for`` cannot
      reference the collection — the single call sits in the ``for``.
    """
    if _is_collection_sequence(expr):
        return True
    if not isinstance(expr, FLWOR):
        return False
    if expr.order_by:
        return False
    driving = None
    for clause in expr.clauses:
        if isinstance(clause, ForClause):
            driving = clause
            break
    if driving is None or driving.position_var is not None:
        return False
    return _is_collection_sequence(driving.seq)


def shard_script(expr) -> Optional[ShardScript]:
    """The shard decomposition of ``expr``, or None when it must run
    serial. Conservative: anything not provably partitionable by
    document — multiple inputs, ``doc()``, positional or ordering
    constructs over the cross-document sequence — returns None."""
    if _input_calls(expr) != (1, 0):
        return None
    if (
        isinstance(expr, FunctionCall)
        and expr.name in DECOMPOSABLE_AGGREGATES
        and len(expr.args) == 1
        and _concat_shardable(expr.args[0])
    ):
        mode = "fold" if expr.name in FOLD_AGGREGATES else "values"
        return ShardScript(mode=mode, aggregate=expr.name)
    if _concat_shardable(expr):
        return ShardScript(mode="concat")
    return None


# ----------------------------------------------------------------------
# Shard tasks (the picklable unit of work)
# ----------------------------------------------------------------------
@dataclass
class ShardDocument:
    """One document of a shard: its binary node table plus metadata.

    ``table`` is None when the worker inherited this document's table at
    fork time (see :data:`_FORK_INHERITED`) — the name is the whole
    shipment; otherwise it carries the explicit ``.pxb`` byte form.
    """

    name: str
    origin: str
    table: Optional[bytes]
    size: int  # stored serialized size — the bytes_parsed charge


@dataclass
class ShardTask:
    """Everything a worker needs: self-contained and picklable.

    ``pool`` (the collection's string pool bytes) is shipped only when at
    least one document carries explicit table bytes — fork-inherited
    tables reference their pool directly.
    """

    query: str
    script: ShardScript
    pool: Optional[bytes]
    documents: list[ShardDocument]
    per_document_overhead: float = 0.0
    token: int = 0
    collection: str = ""
    cache_documents: bool = False  # mirror of the engine's cache_parsed


@dataclass
class ShardResult:
    """One shard's partial result plus its engine-stats charges."""

    text: str = ""
    item_count: int = 0
    partial: list = field(default_factory=list)  # "fold" scalar
    values: list = field(default_factory=list)  # "values" atomics
    stats: dict = field(default_factory=dict)


def partition_candidates(candidates: list[str], degree: int) -> list[list[str]]:
    """Split ``candidates`` into ``degree`` contiguous, order-preserving
    slices (the fold relies on shard order == candidate order). Slices
    differ in length by at most one; empty slices are dropped."""
    degree = max(1, min(degree, len(candidates)))
    base, extra = divmod(len(candidates), degree)
    shards: list[list[str]] = []
    start = 0
    for index in range(degree):
        size = base + (1 if index < extra else 0)
        if size:
            shards.append(candidates[start : start + size])
        start += size
    return shards


class _ShardProvider:
    """DocumentProvider over a shard's materialized roots.

    The shardability gate guarantees exactly one ``collection()`` call
    and no ``doc()`` calls, so the collection name is irrelevant — the
    shard *is* the (pruned, partitioned) collection.
    """

    def __init__(self, roots: list):
        self._roots = roots

    def collection_roots(self, name: Optional[str]) -> list:
        return list(self._roots)

    def document_root(self, name: str):  # pragma: no cover - gated out
        return None


def run_shard(task: ShardTask) -> ShardResult:
    """Worker entry point: evaluate one shard on its binary tables.

    Charges exactly the counters the serial path's ``load_parsed`` +
    evaluation would have charged for these documents — and nothing
    else; scan/prune counters belong to the parent. When the engine
    caches parsed documents (``cache_parsed``), a document this worker
    already materialized on an earlier task charges a ``cache_hits``
    (plus the per-document overhead), mirroring the serial path's warm
    parsed-document LRU; with caching off every task re-materializes,
    exactly like the serial path does.
    """
    stats = EngineStats()
    pool = (
        StringPool.from_bytes(task.pool) if task.pool is not None else None
    )
    roots = []
    for document in task.documents:
        cache_key = (task.token, task.collection, document.name)
        if task.cache_documents and document.table is None:
            cached = _worker_cache.get(cache_key)
            if cached is not None:
                _worker_cache.move_to_end(cache_key)
                stats.cache_hits += 1
                stats.simulated_overhead_seconds += task.per_document_overhead
                roots.append(cached.root)
                continue
        started = time.perf_counter()
        if document.table is None:
            table = _FORK_INHERITED[task.token][
                (task.collection, document.name)
            ]
        else:
            table = BinaryXMLDocument.from_bytes(document.table, pool)
        tree = table.materialize(name=document.name, origin=document.origin)
        stats.parse_seconds += time.perf_counter() - started
        stats.binary_decodes += 1
        stats.documents_parsed += 1
        stats.bytes_parsed += document.size
        stats.simulated_overhead_seconds += task.per_document_overhead
        if task.cache_documents and document.table is None:
            # Only fork-inherited documents are cached: their snapshot
            # entry pins the table, so the cached tree can never go
            # stale (a re-stored document stops matching the snapshot
            # and ships explicit bytes instead).
            _worker_cache[cache_key] = tree
            if len(_worker_cache) > WORKER_CACHE_DOCUMENTS:
                _worker_cache.popitem(last=False)
        roots.append(tree.root)
    # Imported here: the engine imports this module, and the serializer
    # helper lives next to the engine.
    from repro.engine.database import serialize_sequence
    from repro.xquery.functions import lookup

    expr = parse_query(task.query)
    provider = _ShardProvider(roots)
    context = DynamicContext(provider=provider)
    eval_started = time.perf_counter()
    if task.script.mode == "concat":
        items = Evaluator().evaluate(expr, context)
        stats.evaluation_seconds += time.perf_counter() - eval_started
        return ShardResult(
            text=serialize_sequence(items),
            item_count=len(items),
            stats=dict(vars(stats)),
        )
    # Aggregate shard: evaluate the aggregate's argument once (one pass
    # over the shard's documents, exactly like the serial evaluation).
    assert isinstance(expr, FunctionCall)  # guaranteed by shard_script
    items = Evaluator().evaluate(expr.args[0], context)
    if task.script.mode == "fold":
        partial = lookup(task.script.aggregate)(context, [items])
        stats.evaluation_seconds += time.perf_counter() - eval_started
        return ShardResult(
            item_count=len(items),
            partial=list(partial),
            stats=dict(vars(stats)),
        )
    values = atomize(items)
    stats.evaluation_seconds += time.perf_counter() - eval_started
    return ShardResult(
        item_count=len(items),
        values=values,
        stats=dict(vars(stats)),
    )


# ----------------------------------------------------------------------
# Fold: merge shard partials into the serial answer
# ----------------------------------------------------------------------
def fold_shard_results(
    script: ShardScript, results: list[ShardResult]
) -> tuple[list, str]:
    """``(items, result_text)`` — byte-identical to the serial run.

    ``results`` must be in shard (candidate) order; every fold below is
    order-preserving, so the recombined answer matches the serial
    evaluation of the same query over the same pruned candidates.
    """
    if script.mode == "concat":
        # serialize_sequence is "\n".join over *items*; a shard with
        # items whose serialization is empty still contributes its
        # separators, so join on item presence, not text truthiness.
        text = "\n".join(
            result.text for result in results if result.item_count
        )
        return [], text
    if script.mode == "fold":
        # The shared cross-fragment fold, partials in shard order.
        from repro.partix.composer import fold_aggregate_values

        text, items = fold_aggregate_values(
            script.aggregate, [result.partial for result in results]
        )
        return items, text
    return _fold_values(script.aggregate, results)


def _fold_values(
    op: Optional[str], results: list[ShardResult]
) -> tuple[list, str]:
    """Value-shipping fold: reproduce the evaluator's own aggregate
    semantics (see ``repro.xquery.functions``) over the recombined
    atomized sequence — same summation order, same mixed-type fallback —
    so the answer matches the serial run bit for bit."""
    from repro.engine.database import serialize_sequence

    item_count = sum(result.item_count for result in results)
    combined: list = []
    for result in results:
        combined.extend(result.values)
    if op == "sum":
        numbers = [to_number(value) for value in combined]
        if any(math.isnan(number) for number in numbers):
            raise XQueryTypeError("sum() over non-numeric values")
        items: list = [float(sum(numbers))]
    elif op == "avg":
        if item_count == 0:
            return [], ""
        numbers = [to_number(value) for value in combined]
        if any(math.isnan(number) for number in numbers):
            raise XQueryTypeError("avg() over non-numeric values")
        items = [float(sum(numbers)) / len(combined)]
    elif op in ("min", "max"):
        if item_count == 0:
            return [], ""
        pick = min if op == "min" else max
        numbers = [to_number(value) for value in combined]
        if all(not math.isnan(number) for number in numbers):
            items = [pick(numbers)]
        else:
            items = [pick(atomic_to_string(value) for value in combined)]
    else:  # pragma: no cover - shard_script only emits the four ops
        raise ValueError(f"unknown value aggregate {op!r}")
    return items, serialize_sequence(items)
