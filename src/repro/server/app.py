"""Asyncio JSON-over-HTTP server wrapping :class:`repro.store.QueryEngine`.

Stdlib-only: connections are handled with :func:`asyncio.start_server`
and a minimal HTTP/1.1 reader (request line + headers + Content-Length
body, keep-alive by default), because the engine underneath is
CPU-bound numpy work — the event loop only does admission, parsing, and
response writing, and hands each admitted query to a worker-thread
pool.

Request lifecycle:

1. **Admission** — a bounded pending counter
   (:class:`~repro.server.admission.AdmissionController`).  A request
   arriving while ``max_pending`` queries are queued or running is shed
   immediately with ``503`` + ``Retry-After``; the event loop never
   blocks, so shedding stays fast under any load.
2. **Deadline propagation** — the client's :data:`DEADLINE_HEADER`
   (milliseconds) becomes the engine's cooperative per-query deadline
   (`engine.execute(..., timeout_s=...)`): a slow shard degrades the
   response to ``partial``/``timed_out`` instead of running the full
   scatter.  The responder additionally waits at most
   ``grace_factor ×`` the deadline for the worker (a single shard's
   evaluation cannot be preempted mid-numpy-kernel); past that the
   request is *abandoned* — the response reports ``timed_out`` and the
   worker's eventual result is discarded, while admission keeps
   counting the still-running thread until it actually finishes.
3. **Response** — executed queries answer 200 (degraded ones included;
   inspect ``status``), outright failures 500, protocol errors 400,
   shed requests 503.

Endpoints: ``POST /query``, ``POST /ingest`` (writable stores only —
batches go through the same admission gate as queries and are
acknowledged only after the store's WAL fsync), ``GET /healthz``,
``GET /metrics`` (the :class:`~repro.server.metrics.ServerMetrics`
snapshot, including write-path counters when the store is writable).
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor

from repro.server.admission import AdmissionController
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    DEADLINE_HEADER,
    HTTP_STATUS_FOR,
    JSON_CONTENT_TYPE,
    MAX_BODY_BYTES,
    IngestRequest,
    IngestResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    abandoned_response,
    encode_query_response,
    response_from_result,
)
from repro.store.engine import QueryEngine
from repro.store.segments import WritablePostingStore

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _parse_body(body: bytes, from_body):
    """Decode a JSON request body through *from_body*.

    Every malformed body becomes a :class:`ProtocolError` (answered 400),
    including one nested deeply enough that decoding it exhausts the
    recursion limit.
    """
    try:
        return from_body(json.loads(body.decode("utf-8")) if body else None)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ProtocolError("request body is nested too deeply") from None


#: Default bounded-queue depth (pending + running requests).
DEFAULT_MAX_PENDING = 64
#: Default worker threads executing engine queries.
DEFAULT_WORKERS = 8


class _BadRequest(Exception):
    """Internal: answer 400 with this message and keep the connection."""


async def read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Read one HTTP/1.1 request: ``(method, target, headers, body)``.

    Returns ``None`` on clean EOF between requests; raises
    :class:`_BadRequest` on malformed input.  Module-level because the
    cluster router (:mod:`repro.cluster.router`) serves the same wire
    protocol and reuses this reader and :func:`_encode_response` rather
    than growing a second HTTP implementation.
    """
    line = await reader.readline()
    if not line:
        return None  # clean EOF between requests
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        raise _BadRequest(f"malformed request line: {line[:80]!r}") from None
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise asyncio.IncompleteReadError(partial=raw, expected=2)
        if len(headers) > 100:
            raise _BadRequest("too many headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header: {raw[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _BadRequest(f"bad Content-Length: {length_text!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest(f"request body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


def _encode_response(
    code: int,
    body: dict | bytes,
    *,
    keep_alive: bool = True,
    extra_headers: tuple[tuple[str, str], ...] = (),
    content_type: str = JSON_CONTENT_TYPE,
) -> bytes:
    """One HTTP response; a dict *body* is sent as JSON, bytes as given."""
    payload = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    lines = [
        f"HTTP/1.1 {code} {_REASONS[code]}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines += [f"{name}: {value}" for name, value in extra_headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def encode_query_answer(
    response: QueryResponse, version: int, *, keep_alive: bool = True
) -> tuple[str, bytes]:
    """``(status, HTTP answer)`` to a ``/query`` request of wire *version*.

    A response the v3 frame cannot carry (a value outside uint32) is
    answered as a ``failed`` response naming the reason, never truncated;
    the returned status is the one actually sent.
    """
    try:
        payload, content_type = encode_query_response(response, version)
    except ProtocolError as exc:
        response = QueryResponse(
            status="failed",
            values=None,
            n_results=None,
            latency_ms=response.latency_ms,
            error=f"cannot encode the answer: {exc}",
            query_id=response.query_id,
        )
        payload, content_type = encode_query_response(response, version)
    return response.status, _encode_response(
        HTTP_STATUS_FOR[response.status],
        payload,
        keep_alive=keep_alive,
        content_type=content_type,
    )


#: Public names for the HTTP plumbing the cluster router shares.
encode_http_response = _encode_response
BadHttpRequest = _BadRequest
parse_body = _parse_body


class StoreServer:
    """The network face of a :class:`~repro.store.engine.QueryEngine`.

    Args:
        engine: the engine to serve.  Its :class:`StoreMetrics` keeps
            recording query outcomes; the server wraps it in a
            :class:`ServerMetrics` for the ``/metrics`` endpoint.
        host / port: bind address; port 0 picks a free port (read
            ``server.port`` after :meth:`start`).
        max_pending: admission bound — pending + running requests
            beyond which new queries are shed with 503.
        workers: engine worker threads (each runs one query end to end).
        default_deadline_ms: deadline applied when the client sends no
            :data:`DEADLINE_HEADER`; ``None`` = unbounded.
        max_deadline_ms: cap on client-requested deadlines, so one
            client cannot park a worker for minutes.
        grace_factor: responder waits ``grace_factor × deadline`` for a
            worker before abandoning the request.
        retry_after_s: ``Retry-After`` value sent with 503 responses.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = DEFAULT_MAX_PENDING,
        workers: int = DEFAULT_WORKERS,
        default_deadline_ms: float | None = None,
        max_deadline_ms: float | None = 60_000.0,
        grace_factor: float = 2.0,
        retry_after_s: float = 1.0,
    ) -> None:
        if grace_factor < 1.0:
            raise ValueError(f"grace_factor must be >= 1, got {grace_factor}")
        self.engine = engine
        self.host = host
        self.port = port
        self.default_deadline_ms = default_deadline_ms
        self.max_deadline_ms = max_deadline_ms
        self.grace_factor = grace_factor
        self.admission = AdmissionController(
            max_pending=max_pending, retry_after_s=retry_after_s
        )
        self.metrics = ServerMetrics(engine.metrics, self.admission)
        if isinstance(engine.store, WritablePostingStore):
            self.metrics.attach_write_stats(engine.store.write_stats)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.engine.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            # Client hung up mid-request or mid-response; nothing to do —
            # its worker (if any) finishes and releases admission itself.
            self.metrics.record_response("disconnected")
        except _BadRequest as exc:
            try:
                writer.write(
                    _encode_response(400, {"error": str(exc)}, keep_alive=False)
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            self.metrics.record_response("bad_request")
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        return await read_http_request(reader)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        body: dict,
        *,
        keep_alive: bool,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        writer.write(
            _encode_response(
                code, body, keep_alive=keep_alive, extra_headers=extra_headers
            )
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        request: tuple[str, str, dict[str, str], bytes],
        writer: asyncio.StreamWriter,
    ) -> bool:
        method, target, headers, body = request
        target = target.split("?", 1)[0]
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"

        if target == "/query":
            if method != "POST":
                await self._respond(
                    writer,
                    405,
                    {"error": "use POST /query"},
                    keep_alive=keep_alive,
                )
                self.metrics.record_response("bad_request")
                return keep_alive
            await self._handle_query(headers, body, writer, keep_alive)
            return keep_alive
        if target == "/ingest":
            if method != "POST":
                await self._respond(
                    writer,
                    405,
                    {"error": "use POST /ingest"},
                    keep_alive=keep_alive,
                )
                self.metrics.record_response("bad_request")
                return keep_alive
            await self._handle_ingest(body, writer, keep_alive)
            return keep_alive
        if target == "/healthz" and method == "GET":
            await self._respond(
                writer, 200, self._health_body(), keep_alive=keep_alive
            )
            return keep_alive
        if target == "/metrics" and method == "GET":
            await self._respond(
                writer, 200, self.metrics.snapshot(), keep_alive=keep_alive
            )
            return keep_alive
        await self._respond(
            writer, 404, {"error": f"no such endpoint: {target}"}, keep_alive=keep_alive
        )
        self.metrics.record_response("not_found")
        return keep_alive

    def _health_body(self) -> dict:
        return {
            "status": "ok",
            "shards": len(self.engine.store),
            # Names too: the cluster CLI discovers placement from these.
            "shard_names": sorted(self.engine.store.shard_names()),
            "in_flight": self.admission.pending,
        }

    # ------------------------------------------------------------------
    # /query
    # ------------------------------------------------------------------
    def _deadline_s(self, headers: dict[str, str]) -> float | None:
        raw = headers.get(DEADLINE_HEADER.lower())
        if raw is None:
            if self.default_deadline_ms is None:
                return None
            ms = self.default_deadline_ms
        else:
            try:
                ms = float(raw)
            except ValueError:
                raise ProtocolError(
                    f"bad {DEADLINE_HEADER} header: {raw!r}"
                ) from None
            if ms <= 0:
                raise ProtocolError(
                    f"{DEADLINE_HEADER} must be positive, got {raw!r}"
                )
        if self.max_deadline_ms is not None:
            ms = min(ms, self.max_deadline_ms)
        return ms / 1000.0

    async def _handle_query(
        self,
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()

        if not self.admission.try_acquire():
            await self._respond(
                writer,
                503,
                {
                    "error": "server at capacity, retry later",
                    "in_flight": self.admission.pending,
                },
                keep_alive=keep_alive,
                extra_headers=(
                    ("Retry-After", f"{self.admission.retry_after_s:g}"),
                ),
            )
            self.metrics.record_response("shed", (loop.time() - t0) * 1000.0)
            return

        # Admitted.  From here on, exactly one release() must happen: via
        # the worker-future callback once submitted, or in the finally on
        # any path that never submits.
        fut = None
        try:
            request = _parse_body(body, QueryRequest.from_body)
            timeout_s = self._deadline_s(headers)
            fut = loop.run_in_executor(
                self._executor,
                functools.partial(
                    self.engine.execute, request.to_query(), timeout_s=timeout_s
                ),
            )
            fut.add_done_callback(self._release_when_done)
        except ProtocolError as exc:
            rejected = (400, str(exc), "bad_request")
        except RuntimeError as exc:  # executor shut down mid-stop
            rejected = (500, str(exc), "error")
        finally:
            if fut is None:
                self.admission.release()
        if fut is None:
            await self._reject(writer, *rejected, t0, keep_alive=keep_alive)
            return

        grace = (
            None if timeout_s is None else max(0.1, timeout_s * self.grace_factor)
        )
        try:
            result = await asyncio.wait_for(asyncio.shield(fut), timeout=grace)
            response = response_from_result(result, strict=request.strict)
        except asyncio.TimeoutError:
            response = abandoned_response(
                request.query_id, (loop.time() - t0) * 1000.0
            )
            if request.strict:
                response = QueryResponse(
                    **{**response.__dict__, "status": "failed",
                       "detail": {"strict_violation": "timed_out"}}
                )
        except Exception as exc:  # repro: noqa[REPRO106] -- engine bug: answer a failed response, keep serving; error text is returned to the client
            response = QueryResponse(
                status="failed",
                values=None,
                n_results=None,
                latency_ms=(loop.time() - t0) * 1000.0,
                error=f"{type(exc).__name__}: {exc}",
                query_id=request.query_id,
            )
        status, answer = encode_query_answer(
            response, request.version, keep_alive=keep_alive
        )
        writer.write(answer)
        await writer.drain()
        self.metrics.record_response(status, (loop.time() - t0) * 1000.0)

    async def _reject(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        error: str,
        outcome: str,
        t0: float,
        *,
        keep_alive: bool,
    ) -> None:
        """Answer an admitted request that never reached a worker."""
        await self._respond(
            writer, code, {"error": error}, keep_alive=keep_alive and code < 500
        )
        elapsed_ms = (asyncio.get_running_loop().time() - t0) * 1000.0
        self.metrics.record_response(outcome, elapsed_ms)

    def _release_when_done(self, fut: "asyncio.Future | Future") -> None:
        self.admission.release()
        if not fut.cancelled():
            fut.exception()  # retrieve, so abandoned failures don't warn

    # ------------------------------------------------------------------
    # /ingest
    # ------------------------------------------------------------------
    @property
    def writable_store(self) -> WritablePostingStore | None:
        store = self.engine.store
        return store if isinstance(store, WritablePostingStore) else None

    async def _handle_ingest(
        self,
        body: bytes,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> None:
        """Apply one durable write batch through the admission gate.

        Same accounting contract as ``/query``: a batch occupies one
        admission slot from acceptance until its WAL fsync returns, so
        write load and read load shed each other under pressure.  The
        200 response is only written after the fsync — an acked batch
        survives ``kill -9``.
        """
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        store = self.writable_store
        if store is None:
            await self._respond(
                writer,
                400,
                {"error": "store is read-only; start the server with --writable"},
                keep_alive=keep_alive,
            )
            self.metrics.record_response("bad_request", (loop.time() - t0) * 1000.0)
            return

        if not self.admission.try_acquire():
            await self._respond(
                writer,
                503,
                {
                    "error": "server at capacity, retry later",
                    "in_flight": self.admission.pending,
                },
                keep_alive=keep_alive,
                extra_headers=(
                    ("Retry-After", f"{self.admission.retry_after_s:g}"),
                ),
            )
            self.metrics.record_response("shed", (loop.time() - t0) * 1000.0)
            return

        fut = None
        try:
            request = _parse_body(body, IngestRequest.from_body)
            fut = loop.run_in_executor(
                self._executor,
                functools.partial(store.ingest_batch, request.ops),
            )
            fut.add_done_callback(self._release_when_done)
        except ProtocolError as exc:
            rejected = (400, str(exc), "bad_request")
        except RuntimeError as exc:  # executor shut down mid-stop
            rejected = (500, str(exc), "error")
        finally:
            if fut is None:
                self.admission.release()
        if fut is None:
            await self._reject(writer, *rejected, t0, keep_alive=keep_alive)
            return

        try:
            acked = await asyncio.shield(fut)
            latency_ms = (loop.time() - t0) * 1000.0
            response = IngestResponse(
                status="ok",
                acked_ops=acked,
                latency_ms=latency_ms,
                pending_ops=store.pending_ops(),
                generation=store.generation,
                batch_id=request.batch_id,
            )
            self.metrics.record_ingest(acked, latency_ms)
        except Exception as exc:  # repro: noqa[REPRO106] -- bad shard, closed store, WAL error: answer failed, keep serving other writers
            latency_ms = (loop.time() - t0) * 1000.0
            response = IngestResponse(
                status="failed",
                acked_ops=0,
                latency_ms=latency_ms,
                pending_ops=0,
                generation=store.generation,
                error=f"{type(exc).__name__}: {exc}",
                batch_id=request.batch_id,
            )
            self.metrics.record_ingest(0, latency_ms, failed=True)
        code = 200 if response.status == "ok" else 500
        await self._respond(
            writer, code, response.to_body(), keep_alive=keep_alive
        )
        self.metrics.record_response(
            f"ingest_{response.status}", (loop.time() - t0) * 1000.0
        )


# ----------------------------------------------------------------------
# Thread-hosted runner (tests, benchmarks, and the closed-loop experiment)
# ----------------------------------------------------------------------
class BackgroundServer:
    """Run a :class:`StoreServer` on a dedicated event-loop thread.

    Usage::

        with BackgroundServer(StoreServer(engine)) as server:
            client = connect(f"http://127.0.0.1:{server.port}")
            ...
    """

    def __init__(self, server: StoreServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-server", daemon=True
        )

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "BackgroundServer":
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=10)
        return self

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
