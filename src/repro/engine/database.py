"""MiniX — the sequential XQuery-enabled XML DBMS used at each site.

This is the reproduction's stand-in for eXist: a single-node database
that stores collections of serialized XML documents, maintains document-
level indexes, and executes the XQuery subset. The execution pipeline per
query is:

1. parse the query and statically analyze it;
2. for each referenced collection, prune candidate documents through the
   indexes (text-search and equality predicates);
3. materialize the survivors on access — decoding the binary table when
   present, else the parse-on-text path that made every touched document
   pay real parse cost (the effect behind the paper's superlinear
   fragmentation speedups, still the behaviour with ``use_indexes=False``);
4. evaluate and serialize the result.

``cache_parsed`` can keep parsed trees in an LRU cache; it defaults to
off so benchmarks model the paper's per-query parse behaviour, and the
ablation benchmark flips it on to quantify the difference.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Union

from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import XMLNode
from repro.engine.planner import Planner
from repro.engine.shards import (
    ShardDocument,
    ShardScript,
    ShardTask,
    fold_shard_results,
    forget_fork_snapshot,
    new_fork_token,
    partition_candidates,
    register_fork_snapshot,
    run_shard,
    shard_script,
)
from repro.engine.stats import EngineStats, QueryResult
from repro.engine.store import DocumentStore, StoredDocument
from repro.errors import (
    CollectionNotFoundError,
    StorageError,
    XQueryEvaluationError,
)
from repro.paths.predicates import Predicate
from repro.xmltext.parser import parse_xml
from repro.xmltext.serializer import serialize
from repro.xquery.analysis import analyze_query
from repro.xquery.ast_nodes import Expr
from repro.xquery.evaluator import DynamicContext, Evaluator
from repro.xquery.parser import parse_query
from repro.xquery.values import atomic_to_string


class XMLEngine:
    """A single-site XML database executing the XQuery subset.

    Parameters
    ----------
    name:
        Engine instance name (the site name in a cluster).
    storage_dir:
        When given, documents persist under this directory.
    cache_parsed:
        Keep up to ``cache_size`` parsed documents in memory. Off by
        default (see module docstring).
    use_indexes:
        Enable index-assisted document pruning.
    per_document_overhead:
        *Simulated* fixed cost (seconds) per document access, added to
        reported elapsed times but never slept. Models the per-document
        costs of a production DBMS (catalog lookup, locking, buffer-pool
        traffic, DOM table setup) that a dict-backed store lacks. The
        paper's own numbers imply ~9ms/document for eXist on 2005
        hardware (250MB as 125k small documents: 1200s, vs as 3.1k large
        documents: 31s). Defaults to 0 (pure measurement); the
        paper-faithful benchmark scenarios set a calibrated value. The
        amount added is tracked separately in
        ``stats.simulated_overhead_seconds``.
    shard_workers:
        Size of the engine's shard worker pool (0 = intra-site
        parallelism disabled). A query only runs sharded when an
        executing call also passes ``parallel_degree`` ≥ 2 — the plan's
        decision, or an explicit per-query override — *and* the query is
        provably shardable (see :mod:`repro.engine.shards`); everything
        else silently runs serial, so answers are byte-identical at
        every degree. The process pool is created lazily on the first
        sharded execution.
    """

    def __init__(
        self,
        name: str = "minix",
        storage_dir: Optional[str] = None,
        cache_parsed: bool = False,
        cache_size: int = 256,
        use_indexes: bool = True,
        per_document_overhead: float = 0.0,
        shard_workers: int = 0,
    ):
        self.name = name
        self.store = DocumentStore(storage_dir=storage_dir)
        self.stats = EngineStats()
        self.planner = Planner(use_indexes=use_indexes)
        self.cache_parsed = cache_parsed
        self.per_document_overhead = per_document_overhead
        self.shard_workers = max(0, int(shard_workers))
        self._cache: OrderedDict[tuple[str, str], XMLDocument] = OrderedDict()
        self._cache_size = cache_size
        # Concurrency: queries may run on several threads against one
        # engine (the cluster dispatcher's "threads" mode). Shared stats
        # only change via single locked commits of per-query accumulators,
        # and the parsed-document LRU is guarded by its own lock.
        self._stats_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        self._shard_pool: Optional[ProcessPoolExecutor] = None
        self._shard_pool_lock = threading.Lock()
        self._fork_token: Optional[int] = None
        self._fork_snapshot: Optional[dict] = None

    # ------------------------------------------------------------------
    # Data definition / manipulation
    # ------------------------------------------------------------------
    def create_collection(self, name: str) -> None:
        self.store.create_collection(name)

    def drop_collection(self, name: str) -> None:
        self.store.drop_collection(name)
        with self._cache_lock:
            self._cache = OrderedDict(
                (key, value)
                for key, value in self._cache.items()
                if key[0] != name
            )

    def has_collection(self, name: str) -> bool:
        return self.store.has_collection(name)

    def collection_names(self) -> list[str]:
        return self.store.collection_names()

    def store_document(
        self,
        collection: str,
        document: Union[XMLDocument, str, bytes],
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> StoredDocument:
        """Store one document into ``collection`` (created on demand)."""
        if not self.store.has_collection(collection):
            self.store.create_collection(collection)
        return self.store.store_document(collection, document, name=name, origin=origin)

    def _require_collection(self, name: str) -> None:
        """Fail with a clear engine-level error for a missing collection.

        The engine contract is strict (raise); the driver boundary is
        lenient (return 0) — see ``MiniXDriver.document_count``.
        """
        if not self.store.has_collection(name):
            raise CollectionNotFoundError(
                f"engine {self.name!r} has no collection {name!r}"
            )

    def document_count(self, collection: str) -> int:
        self._require_collection(collection)
        return len(self.store.collection(collection))

    def collection_bytes(self, collection: str) -> int:
        self._require_collection(collection)
        return self.store.collection(collection).total_bytes()

    def load_parsed(
        self,
        collection: str,
        name: str,
        stats: Optional[EngineStats] = None,
    ) -> XMLDocument:
        """Materialize-on-access with optional LRU caching; updates stats.

        Documents carrying a binary node table decode it (no tokenizer);
        only table-less records — old on-disk stores — pay a text parse.
        ``documents_parsed`` counts every materialization from storage
        either way; ``binary_decodes`` counts the fast-path subset.

        ``stats`` is the accumulator to charge — a query in flight passes
        its private per-query accumulator so concurrent queries never
        interleave read-modify-write cycles on the shared counters. Direct
        callers may omit it; the access is then committed to the engine's
        cumulative stats immediately (under the stats lock).

        A cache hit still charges ``per_document_overhead`` (and a
        ``cache_hits`` counter): the simulated per-document access cost
        models catalog lookup / locking / buffer traffic, which a real
        DBMS pays whether or not the parsed tree is resident.
        """
        key = (collection, name)
        charge = EngineStats() if stats is None else stats
        if self.cache_parsed:
            with self._cache_lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
            if cached is not None:
                charge.cache_hits += 1
                charge.simulated_overhead_seconds += self.per_document_overhead
                if stats is None:
                    self._commit_stats(charge)
                return cached
        stored = self.store.load_document(collection, name)
        started = time.perf_counter()
        if stored.binary is not None:
            document = stored.binary.materialize(name=name, origin=stored.origin)
            charge.binary_decodes += 1
        else:
            document = parse_xml(stored.data.decode("utf-8"), name=name)
            document.origin = stored.origin
        charge.parse_seconds += time.perf_counter() - started
        charge.documents_parsed += 1
        charge.bytes_parsed += stored.size
        charge.simulated_overhead_seconds += self.per_document_overhead
        if self.cache_parsed:
            with self._cache_lock:
                self._cache[key] = document
                if len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        if stats is None:
            self._commit_stats(charge)
        return document

    def _commit_stats(self, delta: EngineStats) -> None:
        """Fold a per-query accumulator into the shared counters."""
        with self._stats_lock:
            self.stats.absorb(delta)

    # ------------------------------------------------------------------
    # Shard worker pool (intra-site parallelism)
    # ------------------------------------------------------------------
    def _shard_executor(self) -> ProcessPoolExecutor:
        """The lazily created per-engine process pool (fork-preferring,
        like the TCP site-server spawner: workers inherit the imported
        modules instead of re-importing under spawn).

        On fork platforms a snapshot of every stored binary table is
        registered *before* the fork, so workers inherit the tables
        copy-on-write — a task over already-stored documents ships only
        their names. Under spawn there is nothing to inherit and every
        task carries explicit table bytes.
        """
        with self._shard_pool_lock:
            if self._shard_pool is None:
                context = None
                if "fork" in multiprocessing.get_all_start_methods():
                    context = multiprocessing.get_context("fork")
                if context is not None:
                    snapshot = {}
                    for collection_name in self.store.collection_names():
                        collection = self.store.collection(collection_name)
                        for doc_name in collection.names():
                            stored = collection.get(doc_name)
                            if stored.binary is not None:
                                snapshot[
                                    (collection_name, doc_name)
                                ] = stored.binary
                    self._fork_token = new_fork_token()
                    self._fork_snapshot = snapshot
                    register_fork_snapshot(self._fork_token, snapshot)
                self._shard_pool = ProcessPoolExecutor(
                    max_workers=max(1, self.shard_workers),
                    mp_context=context,
                )
            return self._shard_pool

    def close(self) -> None:
        """Release the shard worker pool (idempotent)."""
        with self._shard_pool_lock:
            pool, self._shard_pool = self._shard_pool, None
            forget_fork_snapshot(self._fork_token)
            self._fork_token = None
            self._fork_snapshot = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def scan_candidates(
        self,
        collection_name: str,
        predicate: Optional[Predicate],
        stats: EngineStats,
        use_indexes: Optional[bool] = None,
    ) -> list[str]:
        """The pipeline's **scan/prune** stage: candidate documents of a
        collection under the (combined) pruning predicate, in store
        order, with every pruning counter charged to ``stats``.

        Shared by the serial path (`_EngineProvider.collection_roots`
        materializes each survivor) and the sharded path (survivors are
        partitioned into shards instead) — one code path, one set of
        counters, so per-shard stats can sum exactly to a serial run.
        """
        collection = self.store.collection(collection_name)
        candidates, lookups = self.planner.candidate_documents(
            collection, predicate, use_indexes=use_indexes
        )
        stats.index_lookups += lookups
        stats.documents_scanned += len(candidates)
        stats.documents_pruned += len(collection) - len(candidates)
        return candidates

    def _shard_plan(
        self,
        query: Union[str, Expr],
        expr: Expr,
        analysis,
        default_collection: Optional[str],
        parallel_degree: Optional[int],
    ) -> Optional[tuple[ShardScript, str]]:
        """Decide whether this execution runs sharded.

        Returns ``(script, collection_name)`` when every gate passes:
        a degree ≥ 2 was requested, the engine has a worker pool
        configured, the query arrived as text (the wire form — shards
        re-parse it in the workers), the query is statically shardable,
        and its one collection resolves here. Any other case returns
        None and the serial path runs, keeping behaviour — answers and
        errors — identical at every requested degree.
        """
        if parallel_degree is None or parallel_degree <= 1:
            return None
        if self.shard_workers <= 0 or not isinstance(query, str):
            return None
        if multiprocessing.current_process().daemon:
            # A daemonic process (a spawned TCP site server) cannot have
            # children, so no worker pool can exist here — decline and
            # run serial, the same answer either way.
            return None
        script = shard_script(expr)
        if script is None:
            return None
        names = set(analysis.collections)
        if len(names) != 1:
            return None
        collection_name = names.pop() or default_collection
        if collection_name is None or not self.store.has_collection(
            collection_name
        ):
            return None
        return script, collection_name

    def _evaluate_sharded(
        self,
        query: str,
        script: ShardScript,
        collection_name: str,
        candidates: list[str],
        degree: int,
        delta: EngineStats,
    ) -> tuple[list, str, float]:
        """The pipeline's sharded **evaluate → fold** stages: partition
        the pruned candidates, evaluate each shard in the worker pool on
        its binary node tables, absorb the per-shard stats, and fold the
        partials in shard order.

        The third return value is the *parallel* simulated-overhead
        share: shards accrue the per-document access overhead
        concurrently, so the query's elapsed time advances by the
        slowest shard's overhead, while the ``simulated_overhead_seconds``
        counter in ``delta`` still sums every shard's charge exactly (the
        work done does not shrink because it ran in parallel)."""
        # Create (or reuse) the pool first: the fork snapshot it
        # registers decides which documents can ship as names only.
        executor = self._shard_executor()
        collection = self.store.collection(collection_name)
        snapshot = self._fork_snapshot or {}
        pool_bytes = None
        tasks = []
        for shard in partition_candidates(candidates, degree):
            documents = []
            for doc_name in shard:
                stored = collection.get(doc_name)
                # Identity, not equality: only the exact object the
                # workers inherited at fork time may ship by name; a
                # document re-stored since then ships its bytes.
                inherited = (
                    snapshot.get((collection_name, doc_name))
                    is stored.binary
                )
                if not inherited and pool_bytes is None:
                    pool_bytes = collection.pool.to_bytes()
                documents.append(
                    ShardDocument(
                        name=stored.name,
                        origin=stored.origin,
                        table=None if inherited else stored.binary.to_bytes(),
                        size=stored.size,
                    )
                )
            tasks.append(
                ShardTask(
                    query=query,
                    script=script,
                    pool=None,
                    documents=documents,
                    per_document_overhead=self.per_document_overhead,
                    token=self._fork_token or 0,
                    collection=collection_name,
                    cache_documents=self.cache_parsed,
                )
            )
        if pool_bytes is not None:
            for task in tasks:
                task.pool = pool_bytes
        eval_started = time.perf_counter()
        futures = [executor.submit(run_shard, task) for task in tasks]
        results = [future.result() for future in futures]
        for result in results:
            delta.absorb(EngineStats(**result.stats))
        items, result_text = fold_shard_results(script, results)
        delta.evaluation_seconds += time.perf_counter() - eval_started
        parallel_overhead = max(
            (
                result.stats.get("simulated_overhead_seconds", 0.0)
                for result in results
            ),
            default=0.0,
        )
        return items, result_text, parallel_overhead

    def execute(
        self,
        query: Union[str, Expr],
        default_collection: Optional[str] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ) -> QueryResult:
        """Execute a query and return its :class:`QueryResult`.

        ``default_collection`` resolves bare ``collection()`` calls.
        ``use_indexes`` overrides the engine's index setting for this
        query only — the knob an ``IndexScan`` plan leaf turns on at a
        site whose default is the paper-faithful full scan. ``parallel_degree`` ≥ 2 asks
        for sharded evaluation across the engine's worker pool (a
        request, not a command — see :meth:`_shard_plan`); the answer is
        byte-identical either way.

        Execution is an explicit site-local operator pipeline:
        **scan/prune** (:meth:`scan_candidates`) → **evaluate** (serial
        in-process, or per-shard in the worker pool) → **fold** (merge
        shard partials in shard order; the serial path's fold is the
        identity).
        """
        started = time.perf_counter()
        # Per-query accumulator: every counter this query touches lands
        # here first and is committed to the shared stats exactly once,
        # so concurrent queries cannot lose each other's updates (and the
        # reported deltas cannot include a neighbour's work).
        delta = EngineStats()
        expr = parse_query(query) if isinstance(query, str) else query
        analysis = analyze_query(expr)
        predicate = analysis.predicate
        sharded = self._shard_plan(
            query, expr, analysis, default_collection, parallel_degree
        )
        if sharded is not None:
            script, collection_name = sharded
            # Scan/prune runs once, in the parent — the very same stage
            # (and counters) the serial provider uses.
            candidates = self.scan_candidates(
                collection_name, predicate, delta, use_indexes=use_indexes
            )
            degree = min(parallel_degree, self.shard_workers, len(candidates))
            if degree >= 2:
                overhead_before = delta.simulated_overhead_seconds
                items, result_text, parallel_overhead = self._evaluate_sharded(
                    query, script, collection_name, candidates, degree, delta
                )
                delta.queries_executed += 1
                elapsed = time.perf_counter() - started
                self._commit_stats(delta)
                return QueryResult(
                    items=items,
                    result_text=result_text,
                    result_bytes=len(result_text.encode("utf-8")),
                    elapsed_seconds=(
                        elapsed + overhead_before + parallel_overhead
                    ),
                    parse_seconds=delta.parse_seconds,
                    documents_parsed=delta.documents_parsed,
                    bytes_parsed=delta.bytes_parsed,
                    documents_scanned=delta.documents_scanned,
                    documents_pruned=delta.documents_pruned,
                    cache_hits=delta.cache_hits,
                    simulated_overhead_seconds=delta.simulated_overhead_seconds,
                    binary_decodes=delta.binary_decodes,
                )
            # Too few candidates to amortize a shard: pre-charge nothing
            # extra — the provider below re-runs scan/prune against a
            # fresh accumulator so counters are charged exactly once.
            delta = EngineStats()
        provider = _EngineProvider(
            self, default_collection, predicate, delta, use_indexes
        )
        eval_started = time.perf_counter()
        items = Evaluator().evaluate(expr, DynamicContext(provider=provider))
        delta.evaluation_seconds += time.perf_counter() - eval_started
        delta.queries_executed += 1
        result_text = serialize_sequence(items)
        elapsed = time.perf_counter() - started
        self._commit_stats(delta)
        return QueryResult(
            items=items,
            result_text=result_text,
            result_bytes=len(result_text.encode("utf-8")),
            elapsed_seconds=elapsed + delta.simulated_overhead_seconds,
            parse_seconds=delta.parse_seconds,
            documents_parsed=delta.documents_parsed,
            bytes_parsed=delta.bytes_parsed,
            documents_scanned=delta.documents_scanned,
            documents_pruned=delta.documents_pruned,
            cache_hits=delta.cache_hits,
            simulated_overhead_seconds=delta.simulated_overhead_seconds,
            binary_decodes=delta.binary_decodes,
        )

    def execute_iter(
        self,
        query: Union[str, Expr],
        default_collection: Optional[str] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ) -> "StreamedExecution":
        """Execute a query as a stream of per-item serialized pieces.

        Same pipeline as :meth:`execute`, but serialization is handed
        out item by item through the returned :class:`StreamedExecution`
        instead of being joined into one monolithic string — a consumer
        (the streaming site server) can put each piece on the wire while
        the next one is still being serialized.

        A sharded request (``parallel_degree`` ≥ 2) evaluates through
        :meth:`execute` — shard partials fold into the final text, which
        streams as one piece. The stream contract is unchanged: the
        ``"\\n"``-join of the pieces is exactly the serialized answer.
        """
        if parallel_degree is not None and parallel_degree > 1:
            result = self.execute(
                query,
                default_collection=default_collection,
                use_indexes=use_indexes,
                parallel_degree=parallel_degree,
            )
            return StreamedExecution.from_result(self, result)
        started = time.perf_counter()
        delta = EngineStats()
        expr = parse_query(query) if isinstance(query, str) else query
        analysis = analyze_query(expr)
        predicate = analysis.predicate
        provider = _EngineProvider(
            self, default_collection, predicate, delta, use_indexes
        )
        eval_started = time.perf_counter()
        items = Evaluator().evaluate(expr, DynamicContext(provider=provider))
        delta.evaluation_seconds += time.perf_counter() - eval_started
        delta.queries_executed += 1
        return StreamedExecution(self, items, delta, started)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(
        self,
        query: Union[str, Expr],
        default_collection: Optional[str] = None,
    ) -> dict:
        """Describe how a query would execute, without executing it.

        Returns a dict with the extracted pruning ``predicate``, the
        top-level ``aggregate`` (if any), and per-collection candidate
        counts under the current indexes.
        """
        expr = parse_query(query) if isinstance(query, str) else query
        analysis = analyze_query(expr)
        collections = {}
        for name in analysis.collections:
            resolved = name or default_collection
            if resolved is None or not self.store.has_collection(resolved):
                continue
            collection = self.store.collection(resolved)
            candidates, lookups = self.planner.candidate_documents(
                collection, analysis.predicate
            )
            collections[resolved] = {
                "documents": len(collection),
                "candidates": len(candidates),
                "index_lookups": lookups,
            }
        return {
            "predicate": str(analysis.predicate) if analysis.predicate else None,
            "aggregate": analysis.aggregate,
            "uses_text_search": analysis.uses_text_search,
            "collections": collections,
        }


class _EngineProvider:
    """DocumentProvider backed by the engine's store and planner.

    All counters charge the query's private ``stats`` accumulator — never
    the engine's shared stats — so concurrent queries stay race-free.
    """

    def __init__(
        self,
        engine: XMLEngine,
        default_collection: Optional[str],
        predicate: Optional[Predicate],
        stats: EngineStats,
        use_indexes: Optional[bool] = None,
    ):
        self._engine = engine
        self._default = default_collection
        self._predicate = predicate
        self._stats = stats
        self._use_indexes = use_indexes

    def collection_roots(self, name: Optional[str]) -> list[XMLNode]:
        collection_name = name or self._default
        if collection_name is None:
            raise XQueryEvaluationError(
                "collection() without a name needs a default collection"
            )
        if not self._engine.store.has_collection(collection_name):
            raise StorageError(f"no collection named {collection_name!r}")
        engine = self._engine
        # The shared scan/prune stage, then materialize each survivor —
        # the serial "evaluate" stage loads DOMs in-process.
        candidates = engine.scan_candidates(
            collection_name,
            self._predicate,
            self._stats,
            use_indexes=self._use_indexes,
        )
        return [
            engine.load_parsed(
                collection_name, doc_name, stats=self._stats
            ).root
            for doc_name in candidates
        ]

    def document_root(self, name: str) -> Optional[XMLNode]:
        for collection_name in self._engine.store.collection_names():
            collection = self._engine.store.collection(collection_name)
            if name in collection:
                self._stats.documents_scanned += 1
                return self._engine.load_parsed(
                    collection_name, name, stats=self._stats
                ).root
        return None


class StreamedExecution:
    """One query's result as per-item serialized pieces.

    Iterating yields each item's serialized string (XML for nodes, the
    canonical atomic form otherwise). The monolithic answer is exactly
    ``"\\n".join(pieces)`` — the contract both the streaming wire path
    and the incremental composer rely on, and by construction identical
    to :func:`serialize_sequence` over the same items.

    ``result`` is ``None`` until iteration completes; afterwards it holds
    the same :class:`QueryResult` :meth:`XMLEngine.execute` would have
    returned, except ``result_text`` stays empty (the text went to the
    consumer piece by piece) and ``result_bytes`` counts the streamed
    bytes, separators included.
    """

    def __init__(
        self,
        engine: XMLEngine,
        items: list,
        delta: EngineStats,
        started: float,
    ):
        self._engine = engine
        self._delta = delta
        self._started = started
        self.items = items
        self.result: Optional[QueryResult] = None
        self._prefolded: Optional[QueryResult] = None

    @classmethod
    def from_result(
        cls, engine: XMLEngine, result: QueryResult
    ) -> "StreamedExecution":
        """Wrap an already-folded (sharded) result as a stream.

        The folded answer text travels as a single piece — the
        ``"\\n"``-join contract holds trivially, and the final
        :class:`QueryResult` is the sharded execution's own (its stats
        were already committed by :meth:`XMLEngine.execute`)."""
        stream = cls(engine, result.items, EngineStats(), 0.0)
        stream._prefolded = result
        return stream

    def __iter__(self):
        if self._prefolded is not None:
            prefolded = self._prefolded
            if prefolded.result_text:
                yield prefolded.result_text
            self.result = QueryResult(
                items=prefolded.items,
                result_text="",
                result_bytes=len(prefolded.result_text.encode("utf-8")),
                elapsed_seconds=prefolded.elapsed_seconds,
                parse_seconds=prefolded.parse_seconds,
                documents_parsed=prefolded.documents_parsed,
                bytes_parsed=prefolded.bytes_parsed,
                documents_scanned=prefolded.documents_scanned,
                documents_pruned=prefolded.documents_pruned,
                cache_hits=prefolded.cache_hits,
                simulated_overhead_seconds=(
                    prefolded.simulated_overhead_seconds
                ),
                binary_decodes=prefolded.binary_decodes,
            )
            return
        streamed_bytes = 0
        for index, item in enumerate(self.items):
            if isinstance(item, XMLNode):
                piece = serialize(item)
            else:
                piece = atomic_to_string(item)
            if index:
                streamed_bytes += 1  # the "\n" separator before this piece
            streamed_bytes += len(piece.encode("utf-8"))
            yield piece
        self._finish(streamed_bytes)

    def _finish(self, streamed_bytes: int) -> None:
        engine, delta = self._engine, self._delta
        elapsed = time.perf_counter() - self._started
        engine._commit_stats(delta)
        self.result = QueryResult(
            items=self.items,
            result_text="",
            result_bytes=streamed_bytes,
            elapsed_seconds=elapsed + delta.simulated_overhead_seconds,
            parse_seconds=delta.parse_seconds,
            documents_parsed=delta.documents_parsed,
            bytes_parsed=delta.bytes_parsed,
            documents_scanned=delta.documents_scanned,
            documents_pruned=delta.documents_pruned,
            cache_hits=delta.cache_hits,
            simulated_overhead_seconds=delta.simulated_overhead_seconds,
            binary_decodes=delta.binary_decodes,
        )


def serialize_sequence(items: list) -> str:
    """Serialize a result sequence the way a driver would ship it."""
    parts = []
    for item in items:
        if isinstance(item, XMLNode):
            parts.append(serialize(item))
        else:
            parts.append(atomic_to_string(item))
    return "\n".join(parts)
