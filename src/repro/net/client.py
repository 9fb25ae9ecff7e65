"""Client side of the PartiX wire protocol.

:class:`SiteClient` talks to one site server through a small connection
pool: each request borrows an idle connection (or dials a new one, with
a connect timeout and the HELLO/WELCOME handshake), sends one frame, and
reads one reply under the caller's read timeout. Transport-level
failures — refused/reset connections, mid-frame EOF, read timeouts —
surface as :class:`~repro.errors.TransportError` /
:class:`~repro.errors.TransportTimeout`, which the dispatcher treats as
retryable; the broken connection is discarded, never repooled.

Every request records its real bytes on the wire (frames in both
directions). :class:`RemoteSiteDriver` adapts the client to the
:class:`~repro.partix.driver.PartixDriver` interface so the existing
publisher stores fragments through the very same path it uses for local
engines, and :class:`TcpTransport` plugs the client pool into
:class:`~repro.cluster.dispatch.ParallelDispatcher`.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional, Sequence, Union, TYPE_CHECKING

from repro.cluster.dispatch import Transport
from repro.cluster.site import SubQueryExecution
from repro.engine.stats import QueryResult
from repro.errors import (
    ClusterError,
    CollectionNotFoundError,
    ProtocolError,
    TransportError,
    TransportTimeout,
)
from repro.net.protocol import (
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    payload_to_exception,
    recv_frame,
    send_frame,
)
from repro.partix.driver import PartixDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datamodel.document import XMLDocument
    from repro.plan.spec import SubQuery


class SiteClient:
    """Pooled connections to one site server."""

    def __init__(
        self,
        host: str,
        port: int,
        site: str = "",
        connect_timeout: float = 5.0,
        read_timeout: Optional[float] = None,
        pool_size: int = 8,
        chunk_bytes: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.site = site
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.pool_size = pool_size
        #: Proposed streamed-chunk size, sent in HELLO; ``None`` leaves the
        #: server at its default. The server's clamped answer lands in
        #: :attr:`negotiated_chunk_bytes` after the first connection.
        self.chunk_bytes = chunk_bytes
        self.negotiated_chunk_bytes: Optional[int] = None
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()
        self._request_id = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests = 0
        #: Connections dialed over this client's lifetime. With pooling
        #: shared across in-flight queries this stays near ``pool_size``
        #: no matter how many queries run — the coordinator's serving
        #: stats surface it per site to prove pool reuse.
        self.connections_created = 0

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise TransportError(
                f"cannot connect to site {self.site or self.host!r} at"
                f" {self.host}:{self.port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello: dict = {"version": PROTOCOL_VERSION}
        if self.chunk_bytes is not None:
            hello["chunk_bytes"] = self.chunk_bytes
        try:
            sent = send_frame(
                sock,
                Frame(
                    type=FrameType.HELLO,
                    request_id=self._next_request_id(),
                    payload=hello,
                ),
            )
            reply, received = recv_frame(sock)
        except (OSError, ProtocolError) as exc:
            sock.close()
            raise TransportError(
                f"handshake with site {self.site or self.host!r} failed: {exc}"
            ) from exc
        self._count(sent, received)
        if reply.type is FrameType.REJECT:
            sock.close()
            raise ProtocolError(
                f"site {self.site or self.host!r} rejected the connection:"
                f" {reply.payload.get('reason', 'no reason given')}"
            )
        if reply.type is not FrameType.WELCOME:
            sock.close()
            raise ProtocolError(
                f"expected WELCOME from site {self.site or self.host!r},"
                f" got {reply.type.name}"
            )
        if "chunk_bytes" in reply.payload:
            self.negotiated_chunk_bytes = reply.payload["chunk_bytes"]
        with self._lock:
            self.connections_created += 1
        return sock

    def _borrow(self) -> socket.socket:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._connect()

    def _repool(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._idle) < self.pool_size:
                self._idle.append(sock)
                return
        sock.close()

    def _next_request_id(self) -> int:
        with self._lock:
            self._request_id += 1
            return self._request_id

    def _count(self, sent: int, received: int) -> None:
        with self._lock:
            self.bytes_sent += sent
            self.bytes_received += received

    def pool_stats(self) -> dict:
        """This client's connection-pool counters (serving stats)."""
        with self._lock:
            return {
                "site": self.site,
                "pool_size": self.pool_size,
                "idle_connections": len(self._idle),
                "connections_created": self.connections_created,
                "requests": self.requests,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
            }

    def close(self) -> None:
        """Close every pooled connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def request(
        self,
        type_: FrameType,
        payload: dict,
        read_timeout: Optional[float] = None,
    ) -> tuple[Frame, int, int]:
        """One request/reply round trip.

        Returns ``(reply, bytes_sent, bytes_received)``. ERROR replies are
        *not* raised here — :meth:`call` does that — so callers that need
        the raw frame (health checks, tests) can inspect it.
        """
        rid = self._next_request_id()
        sock = self._borrow()
        timeout = read_timeout if read_timeout is not None else self.read_timeout
        try:
            sock.settimeout(timeout)
            sent = send_frame(
                sock, Frame(type=type_, request_id=rid, payload=payload)
            )
            reply, received = recv_frame(sock)
        except socket.timeout as exc:
            sock.close()
            raise TransportTimeout(
                f"site {self.site or self.host!r} did not answer a"
                f" {type_.name} within {timeout:.3f}s"
            ) from exc
        except (OSError, ProtocolError) as exc:
            sock.close()
            raise TransportError(
                f"request {type_.name} to site {self.site or self.host!r}"
                f" failed: {exc}"
            ) from exc
        if reply.request_id != rid:
            sock.close()
            raise TransportError(
                f"site {self.site or self.host!r} answered request"
                f" {reply.request_id}, expected {rid} — stream desynchronized"
            )
        self._repool(sock)
        self._count(sent, received)
        with self._lock:
            self.requests += 1
        return reply, sent, received

    def call(
        self,
        type_: FrameType,
        payload: dict,
        read_timeout: Optional[float] = None,
    ) -> tuple[Frame, int, int]:
        """Like :meth:`request`, but ERROR replies raise their mapped
        exception (the same class the site raised locally)."""
        reply, sent, received = self.request(type_, payload, read_timeout)
        if reply.type is FrameType.ERROR:
            raise payload_to_exception(reply.payload)
        return reply, sent, received

    # ------------------------------------------------------------------
    # Typed operations
    # ------------------------------------------------------------------
    def ping(self, read_timeout: Optional[float] = 5.0) -> dict:
        """Health check; returns the site's stats payload."""
        reply, _, _ = self.call(FrameType.PING, {}, read_timeout)
        if reply.type is not FrameType.PONG:
            raise TransportError(f"PING answered with {reply.type.name}")
        return reply.payload

    def server_stats(self) -> dict:
        reply, _, _ = self.call(FrameType.STATS, {})
        return reply.payload

    def execute(
        self,
        query: str,
        default_collection: Optional[str] = None,
        read_timeout: Optional[float] = None,
        debug_sleep_seconds: Optional[float] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ) -> tuple[QueryResult, int, int]:
        """Run a query remotely; returns ``(result, sent, received)``.

        The result's ``items`` stay empty — only the serialized text
        crosses the wire, as with any real remote DBMS.
        """
        payload: dict = {"query": query}
        if default_collection is not None:
            payload["default_collection"] = default_collection
        if debug_sleep_seconds:
            payload["debug_sleep_seconds"] = debug_sleep_seconds
        if use_indexes is not None:
            payload["use_indexes"] = use_indexes
        if parallel_degree is not None:
            payload["parallel_degree"] = parallel_degree
        reply, sent, received = self.call(FrameType.EXECUTE, payload, read_timeout)
        if reply.type is not FrameType.RESULT:
            raise TransportError(f"EXECUTE answered with {reply.type.name}")
        data = reply.payload
        text = data["result_text"]
        return (
            QueryResult(
                items=[],
                result_text=text,
                result_bytes=len(text.encode("utf-8")),
                elapsed_seconds=data["elapsed_seconds"],
                parse_seconds=data["parse_seconds"],
                documents_parsed=data["documents_parsed"],
                bytes_parsed=data["bytes_parsed"],
                documents_scanned=data["documents_scanned"],
                documents_pruned=data["documents_pruned"],
                cache_hits=data.get("cache_hits", 0),
                simulated_overhead_seconds=data.get(
                    "simulated_overhead_seconds", 0.0
                ),
                binary_decodes=data.get("binary_decodes", 0),
            ),
            sent,
            received,
        )

    def execute_stream(
        self,
        query: str,
        default_collection: Optional[str] = None,
        on_chunk=None,
        read_timeout: Optional[float] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ) -> tuple[QueryResult, int, int]:
        """Run a query remotely in streaming mode.

        ``on_chunk`` is called with each RESULT_CHUNK's raw bytes as it
        arrives (the concatenation of all chunks is exactly the UTF-8
        monolithic answer); the returned :class:`QueryResult` carries the
        RESULT_END stats with an empty ``result_text`` — callers that
        want the text must assemble it from the chunks. A connection that
        dies before RESULT_END raises :class:`TransportError`, so a
        truncated stream can never be mistaken for a short answer.
        """
        payload: dict = {"query": query, "stream": True}
        if default_collection is not None:
            payload["default_collection"] = default_collection
        if use_indexes is not None:
            payload["use_indexes"] = use_indexes
        if parallel_degree is not None:
            payload["parallel_degree"] = parallel_degree
        rid = self._next_request_id()
        sock = self._borrow()
        timeout = read_timeout if read_timeout is not None else self.read_timeout
        streamed = 0
        received_total = 0
        try:
            sock.settimeout(timeout)
            sent = send_frame(
                sock,
                Frame(type=FrameType.EXECUTE, request_id=rid, payload=payload),
            )
            while True:
                reply, received = recv_frame(sock)
                received_total += received
                if reply.request_id != rid:
                    sock.close()
                    raise TransportError(
                        f"site {self.site or self.host!r} answered request"
                        f" {reply.request_id}, expected {rid} — stream"
                        " desynchronized"
                    )
                if reply.type is FrameType.RESULT_CHUNK:
                    streamed += len(reply.raw)
                    if on_chunk is not None:
                        on_chunk(reply.raw)
                elif reply.type is FrameType.RESULT_END:
                    break
                elif reply.type is FrameType.ERROR:
                    # The connection is back in a clean state after an
                    # ERROR frame; any partial chunks are the caller's
                    # sink to discard (the dispatcher resets its lane on
                    # every retry attempt).
                    self._repool(sock)
                    self._count(sent, received_total)
                    raise payload_to_exception(reply.payload)
                else:
                    sock.close()
                    raise TransportError(
                        f"streamed EXECUTE answered with {reply.type.name}"
                    )
        except socket.timeout as exc:
            sock.close()
            raise TransportTimeout(
                f"site {self.site or self.host!r} did not answer a streamed"
                f" EXECUTE within {timeout:.3f}s"
            ) from exc
        except (OSError, ProtocolError) as exc:
            sock.close()
            raise TransportError(
                f"stream from site {self.site or self.host!r} truncated"
                f" before RESULT_END ({streamed} chunk bytes received): {exc}"
            ) from exc
        self._repool(sock)
        self._count(sent, received_total)
        with self._lock:
            self.requests += 1
        data = reply.payload
        return (
            QueryResult(
                items=[],
                result_text="",
                result_bytes=data.get("result_bytes", streamed),
                elapsed_seconds=data["elapsed_seconds"],
                parse_seconds=data["parse_seconds"],
                documents_parsed=data["documents_parsed"],
                bytes_parsed=data["bytes_parsed"],
                documents_scanned=data["documents_scanned"],
                documents_pruned=data["documents_pruned"],
                cache_hits=data.get("cache_hits", 0),
                simulated_overhead_seconds=data.get(
                    "simulated_overhead_seconds", 0.0
                ),
                binary_decodes=data.get("binary_decodes", 0),
            ),
            sent,
            received_total,
        )

    def create_collection(self, name: str) -> None:
        self.call(FrameType.CREATE_COLLECTION, {"collection": name})

    def store_document(
        self,
        collection: str,
        document: str,
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        self.call(
            FrameType.STORE_DOCUMENT,
            {
                "collection": collection,
                "document": document,
                "name": name,
                "origin": origin,
            },
        )

    def document_count(self, collection: str) -> int:
        reply, _, _ = self.call(FrameType.DOCUMENT_COUNT, {"collection": collection})
        return reply.payload["count"]

    def collection_bytes(self, collection: str) -> int:
        reply, _, _ = self.call(FrameType.COLLECTION_BYTES, {"collection": collection})
        return reply.payload["bytes"]

    def shutdown_server(self, read_timeout: Optional[float] = 5.0) -> bool:
        """Ask the server to drain and exit; False if it was unreachable."""
        try:
            self.request(FrameType.SHUTDOWN, {}, read_timeout)
        except (TransportError, ProtocolError):
            return False
        return True


class RemoteSiteDriver(PartixDriver):
    """The PartiX driver contract over a :class:`SiteClient`.

    This is the piece §4 promised: "a PartiX Driver, which allows
    accessing remote DBMSs to store and retrieve XML documents" — the
    publisher and middleware use it exactly like the in-process
    :class:`~repro.partix.driver.MiniXDriver`.
    """

    def __init__(self, client: SiteClient):
        self.client = client

    def create_collection(self, name: str) -> None:
        self.client.create_collection(name)

    def store_document(
        self,
        collection: str,
        document: Union["XMLDocument", str, bytes],
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> None:
        from repro.datamodel.document import XMLDocument
        from repro.xmltext.serializer import serialize

        if isinstance(document, XMLDocument):
            name = name or document.name
            origin = origin or document.origin
            text = serialize(document)
        elif isinstance(document, bytes):
            text = document.decode("utf-8")
        else:
            text = document
        self.client.store_document(collection, text, name=name, origin=origin)

    def execute(
        self,
        query: str,
        default_collection: Optional[str] = None,
        use_indexes: Optional[bool] = None,
        parallel_degree: Optional[int] = None,
    ) -> QueryResult:
        result, _, _ = self.client.execute(
            query,
            default_collection=default_collection,
            use_indexes=use_indexes,
            parallel_degree=parallel_degree,
        )
        return result

    def document_count(self, collection: str) -> int:
        # The ERROR-frame class mapping resurfaces the server's typed
        # exception, so a missing collection is matched by class — an
        # unrelated error whose text happens to mention "no collection"
        # propagates instead of being swallowed as 0.
        try:
            return self.client.document_count(collection)
        except CollectionNotFoundError:
            return 0

    def collection_bytes(self, collection: str) -> int:
        try:
            return self.client.collection_bytes(collection)
        except CollectionNotFoundError:
            return 0


class TcpTransport(Transport):
    """Socket lanes for :class:`ParallelDispatcher`: one client per site.

    ``execute`` applies the dispatcher's per-sub-query timeout as the
    socket *read* timeout, so over TCP the budget is enforced on the
    wire (the in-process transport can only check it after the fact).
    """

    def __init__(self, clients: dict[str, SiteClient]):
        self.clients = dict(clients)

    def resolve(self, site_names: Sequence[str]) -> None:
        for name in site_names:
            if name not in self.clients:
                raise ClusterError(f"no site named {name!r}")

    def ping(self, site: str) -> bool:
        """A real PING/PONG round-trip — the health probe that readmits
        an ejected site once it answers again."""
        client = self.clients.get(site)
        if client is None:
            return False
        try:
            client.ping(read_timeout=2.0)
        except (TransportError, ProtocolError, OSError):
            return False
        return True

    def execute(
        self,
        subquery: "SubQuery",
        default_collection: Optional[str] = None,
        timeout: Optional[float] = None,
        on_chunk=None,
    ) -> SubQueryExecution:
        client = self.clients.get(subquery.site)
        if client is None:
            raise ClusterError(f"no site named {subquery.site!r}")
        if on_chunk is not None:
            result, sent, received = client.execute_stream(
                subquery.query,
                default_collection=default_collection,
                on_chunk=on_chunk,
                read_timeout=timeout,
                use_indexes=subquery.use_indexes,
                parallel_degree=subquery.parallel_degree,
            )
        else:
            result, sent, received = client.execute(
                subquery.query,
                default_collection=default_collection,
                read_timeout=timeout,
                use_indexes=subquery.use_indexes,
                parallel_degree=subquery.parallel_degree,
            )
        return SubQueryExecution(
            site=subquery.site,
            fragment=subquery.fragment,
            query=subquery.query,
            result=result,
            bytes_sent=sent,
            bytes_received=received,
            on_wire=True,
        )
