"""The PartiX driver: a uniform interface to XQuery-enabled XML DBMSs.

§4: "Our architecture considers that there is a PartiX Driver, which
allows accessing remote DBMSs to store and retrieve XML documents. ...
The PartiX driver allows different XML DBMSs to participate in the
system. The only requirement is that they are able to process XQuery."

:class:`PartixDriver` is the abstract interface; :class:`MiniXDriver`
adapts our embedded engine (the eXist stand-in). A driver for a real
remote DBMS would implement the same five methods over its wire protocol.
"""

from __future__ import annotations

import abc
from typing import Optional, Union

from repro.datamodel.document import XMLDocument
from repro.engine.database import XMLEngine
from repro.engine.stats import QueryResult


class PartixDriver(abc.ABC):
    """Uniform access to one XML DBMS node."""

    @abc.abstractmethod
    def create_collection(self, name: str) -> None:
        """Create an empty collection (idempotent)."""

    @abc.abstractmethod
    def store_document(
        self,
        collection: str,
        document: Union[XMLDocument, str, bytes],
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        """Store one document into ``collection``."""

    @abc.abstractmethod
    def execute(
        self,
        query: str,
        default_collection: Optional[str] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ) -> QueryResult:
        """Run an XQuery and return its result + execution metrics.

        ``use_indexes`` overrides the DBMS's index configuration for this
        one query (``None`` leaves the node's own setting in charge) —
        how an ``index-scan`` plan lane reaches the executing site.
        ``parallel_degree`` ≥ 2 asks the node to evaluate the query
        sharded across that many local workers — a request the node may
        decline (no pool, non-shardable query); answers are
        byte-identical either way.
        """

    @abc.abstractmethod
    def document_count(self, collection: str) -> int:
        """Number of documents in ``collection``.

        Contract: a missing collection is **0 documents**, not an error —
        the middleware probes sites that may simply not host a fragment.
        (The engine layer underneath is strict and raises; the driver is
        the lenient boundary.)
        """

    @abc.abstractmethod
    def collection_bytes(self, collection: str) -> int:
        """Total serialized size of ``collection``.

        Contract: a missing collection is **0 bytes** (see
        :meth:`document_count`).
        """

    def collection_statistics(self, collection: str) -> tuple[int, int]:
        """``(documents, bytes)`` of a stored collection in one call.

        The data publisher records these in the distribution catalog as
        planner statistics (see ``DistributionCatalog.record_statistics``);
        drivers for remote DBMSs may override this with a single wire
        round-trip. Inherits the lenient missing-collection contract:
        ``(0, 0)`` rather than an error.
        """
        return (
            self.document_count(collection),
            self.collection_bytes(collection),
        )

    def execute_iter(
        self,
        query: str,
        default_collection: Optional[str] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ):
        """Run an XQuery as a stream of serialized result pieces.

        Returns an iterable of strings whose ``"\\n"``-join is exactly
        the query's serialized answer, with a ``result`` attribute (a
        :class:`QueryResult`) available once iteration completes. The
        base implementation materializes through :meth:`execute` and
        yields the whole text as one piece — correct for any driver;
        engine-backed drivers override it with true per-item streaming.
        """
        return _MaterializedStream(
            self.execute(
                query,
                default_collection=default_collection,
                    use_indexes=use_indexes,
                parallel_degree=parallel_degree,
            )
        )


class _MaterializedStream:
    """``execute_iter`` fallback: the whole result as a single piece."""

    def __init__(self, result: QueryResult):
        self.result = result

    def __iter__(self):
        if self.result.result_text:
            yield self.result.result_text


class MiniXDriver(PartixDriver):
    """Driver over the embedded MiniX engine."""

    def __init__(self, engine: Optional[XMLEngine] = None, name: str = "minix"):
        self.engine = engine if engine is not None else XMLEngine(name)

    def create_collection(self, name: str) -> None:
        if not self.engine.has_collection(name):
            self.engine.create_collection(name)

    def store_document(
        self,
        collection: str,
        document: Union[XMLDocument, str, bytes],
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        self.engine.store_document(collection, document, name=name, origin=origin)

    def execute(
        self,
        query: str,
        default_collection: Optional[str] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ) -> QueryResult:
        return self.engine.execute(
            query,
            default_collection=default_collection,
            use_indexes=use_indexes,
            parallel_degree=parallel_degree,
        )

    def execute_iter(
        self,
        query: str,
        default_collection: Optional[str] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ):
        return self.engine.execute_iter(
            query,
            default_collection=default_collection,
            use_indexes=use_indexes,
            parallel_degree=parallel_degree,
        )

    def document_count(self, collection: str) -> int:
        if not self.engine.has_collection(collection):
            return 0
        return self.engine.document_count(collection)

    def collection_bytes(self, collection: str) -> int:
        if not self.engine.has_collection(collection):
            return 0
        return self.engine.collection_bytes(collection)
