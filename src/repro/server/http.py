"""The HTTP/1.1 layer of the gateway and the router (stdlib asyncio only).

Both network processes — the replica gateway (:mod:`repro.server.gateway`)
and the fleet router (:mod:`repro.fleet.router`) — serve through this module
and talk to each other through it:

* **wire format** — :func:`read_request` and :func:`encode_response`:
  ``Content-Length`` bodies on keep-alive connections, so closed-loop clients
  pay no TCP handshake per solve.  No chunked encoding, TLS or HTTP/2.
* **server skeleton** — :class:`HttpServer`: listener lifecycle, connection
  loop, route table with 404/405 fallbacks, traced-request root span, and
  the ``/healthz``, ``/metrics``, ``/debug/traces`` and ``/dashboard``
  mounts; :class:`BackgroundServer` runs one on its own event-loop thread.
* **keep-alive client** — :func:`open_connection` and :func:`round_trip`
  (one request encoder, one response reader :func:`read_response`), used by
  the router's upstream pools and the load generator's ``GatewayClient``.
* **``/solve`` decode** — :meth:`HttpServer.decode_job` and its
  :class:`DecodeMemo`: a body seen before is answered with its
  :class:`JobKey` without a JSON parse or a thread hop.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import json
import signal
import threading
import time
from collections import OrderedDict
from typing import Awaitable, Callable, Dict, NamedTuple, Optional, Tuple

from repro.analysis.report import (
    SERVER_COUNTER_HEADERS,
    SIM_LATENCY_HEADERS,
    format_table,
    server_counter_rows,
    sim_latency_rows,
)
from repro.obs.recorder import TraceRecorder
from repro.obs.trace import TRACE_HEADER, Span, Trace, new_id, summarize_trace_doc
from repro.server.protocol import ProtocolError, deadline_from_payload, job_from_dict
from repro.service.jobs import SolveJob

__all__ = [
    "HttpError",
    "HttpRequest",
    "HtmlPayload",
    "HttpServer",
    "BackgroundServer",
    "DecodeMemo",
    "JobKey",
    "read_request",
    "encode_response",
    "parse_query",
    "render_tables",
    "open_connection",
    "round_trip",
    "read_response",
    "REASONS",
]

#: ``(status, payload, extra headers)`` — what every route handler returns.
Response = Tuple[int, object, Optional[Dict[str, str]]]


def parse_query(query: str) -> Dict[str, str]:
    """``"a=1&b"`` → ``{"a": "1", "b": ""}`` (no decoding; keys are ASCII)."""
    params: Dict[str, str] = {}
    for pair in query.split("&"):
        if not pair:
            continue
        name, _sep, value = pair.partition("=")
        params[name] = value
    return params

#: Largest accepted request body; big devices encode to ~1 MB, so 32 MB is
#: generous while still bounding a hostile Content-Length.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Largest accepted request line + header block.
MAX_HEADER_BYTES = 64 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HtmlPayload(str):
    """A response body to serve as ``text/html`` instead of JSON.

    The gateway/router response path is JSON-first; the dashboard wraps its
    rendered page in this marker type so :func:`encode_response` picks the
    right content type without a parallel write path.
    """


class HttpError(Exception):
    """A malformed request; carries the status the connection should answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclasses.dataclass
class HttpRequest:
    """One parsed request: ``path`` without the query string, ``query``
    after the ``?``, and the peer host the connection came from."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    query: str = ""
    peer: str = ""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def json(self) -> object:
        """Decode the body as JSON (:class:`HttpError` 400 on failure)."""
        if not self.body:
            raise HttpError(400, "empty request body")
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc


async def _read_line(reader, limit: int) -> bytes:
    try:
        line = await reader.readline()
    except ValueError as exc:
        # the StreamReader's own buffer limit tripped before ours could:
        # surface it as the same 413 instead of an unhandled exception
        raise HttpError(413, "header line too long") from exc
    if len(line) > limit:
        raise HttpError(413, "header line too long")
    return line


async def read_request(reader) -> Optional[HttpRequest]:
    """Parse one request; ``None`` on a cleanly closed connection.

    Raises :class:`HttpError` on malformed input — the caller answers with the
    carried status and closes the connection.
    """
    request_line = await _read_line(reader, MAX_HEADER_BYTES)
    if not request_line:
        return None  # EOF between requests: client closed the keep-alive
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    consumed = len(request_line)
    while True:
        line = await _read_line(reader, MAX_HEADER_BYTES)
        consumed += len(line)
        if consumed > MAX_HEADER_BYTES:
            raise HttpError(413, "header block too large")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise HttpError(400, "connection closed mid-headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "malformed Content-Length") from exc
        if length < 0:
            raise HttpError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length)
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")
    path, _sep, query = target.partition("?")
    return HttpRequest(
        method=method.upper(), path=path, headers=headers, body=body, query=query
    )


def encode_response(
    status: int,
    payload: object,
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize a response: a payload to encode as JSON, a JSON body already
    encoded as ``bytes`` (a cache entry's hit body, a relayed replica answer),
    or an :class:`HtmlPayload`."""
    if isinstance(payload, HtmlPayload):
        body = str(payload).encode("utf-8")
        content_type = "text/html; charset=utf-8"
    else:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def render_tables(
    document: Dict[str, object], counters_title: str, latency_title: str
) -> Dict[str, object]:
    """Add the rendered counter and latency tables to a ``/metrics`` document."""
    document["tables"] = {
        "counters": format_table(
            SERVER_COUNTER_HEADERS,
            server_counter_rows(document["counters"]),
            title=counters_title,
        ),
        "latency": format_table(
            SIM_LATENCY_HEADERS,
            sim_latency_rows(document["latency"]),
            title=latency_title,
        ),
    }
    return document


# ----------------------------------------------------------------------
# /solve decode memo
# ----------------------------------------------------------------------
#: Entries of a server's :class:`DecodeMemo`.  One entry is a 32-byte digest
#: and a :class:`JobKey` whose name is at most :data:`MEMO_NAME_CHARS` long,
#: so the memo stays under 1 MB at this bound whatever the bodies' size.
DECODE_MEMO_ENTRIES = 1024

#: Longest job name a memo entry keeps; the name comes from the body, so a
#: body with a longer one is decoded in full on every send instead.
MEMO_NAME_CHARS = 256

#: Bodies shorter than this are hashed for the memo on the event loop (64 KiB
#: hash in ~50 us); longer ones are hashed off the loop, beside their decode.
INLINE_DIGEST_BYTES = 64 * 1024


class JobKey(NamedTuple):
    """What routing and a cache probe need of a ``/solve`` body: the job
    fingerprint, the in-band ``deadline_s`` budget and the job name."""

    fingerprint: str
    deadline_s: Optional[float]
    name: str


class DecodeMemo:
    """Bounded LRU from the SHA-256 of a body's exact bytes to its :class:`JobKey`.

    :func:`job_from_dict` and :func:`deadline_from_payload` are pure
    functions of the body, so a hit is exact.  Values hold no job, problem or
    device, and only bodies that decoded are stored.  Thread-safe: long
    bodies are looked up and stored from executor threads.
    """

    def __init__(self, capacity: int = DECODE_MEMO_ENTRIES) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, JobKey]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def digest(body: bytes) -> bytes:
        return hashlib.sha256(body).digest()

    def get(self, digest: bytes) -> Optional[JobKey]:
        with self._lock:
            key = self._entries.get(digest)
            if key is not None:
                self._entries.move_to_end(digest)
        return key

    def put(self, digest: bytes, key: JobKey) -> None:
        """Store ``key``, unless its name is longer than :data:`MEMO_NAME_CHARS`."""
        if len(key.name) > MEMO_NAME_CHARS:
            return
        with self._lock:
            self._entries[digest] = key
            self._entries.move_to_end(digest)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# server skeleton
# ----------------------------------------------------------------------
TRACES_PATH = "/debug/traces"

#: A route handler: ``await handler(request)`` answers the request.
Handler = Callable[[HttpRequest], Awaitable[Response]]


class HttpServer:
    """Listener, keep-alive connection loop and route table of one server.

    Mounts ``GET /healthz`` (:meth:`health`), ``GET /metrics``
    (:meth:`metrics_document`; ``?format=json`` asks for the raw form),
    ``GET /debug/traces[/<id>]`` over :attr:`recorder`, and
    ``GET /dashboard``.  Subclasses set :attr:`kind` and :attr:`title`,
    :meth:`route` their ``/solve`` handler, and implement the two documents.

    ``config`` supplies ``host`` and ``port`` (``port=0`` binds an ephemeral
    port, read back from :attr:`port` after :meth:`start`) and ``tracing``,
    ``trace_capacity`` and ``trace_sink`` for the trace recorder.
    """

    #: names the server in trace origins, root spans and error messages
    kind: str
    #: dashboard title prefix (the bound port is appended)
    title: str

    def __init__(self, config) -> None:
        self.config = config
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(capacity=config.trace_capacity, sink_path=config.trace_sink)
            if config.tracing
            else None
        )
        self.decode_memo = DecodeMemo()
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._routes: Dict[str, Dict[str, Handler]] = {}
        self.route("GET", "/healthz", self._healthz)
        self.route("GET", "/metrics", self._metrics)
        self.route("GET", TRACES_PATH, self._debug_traces)
        self.route("GET", "/dashboard", self._dashboard)

    def route(self, method: str, path: str, handler: Handler) -> None:
        """Answer ``method path`` with ``await handler(request)``."""
        self._routes.setdefault(path, {})[method] = handler

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` document."""
        raise NotImplementedError

    async def metrics_document(self, raw: bool = False) -> Dict[str, object]:
        """The ``/metrics`` document (``raw``: the machine-readable form)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (call once)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Refuse new work and close the listener; subclasses extend this to
        finish their in-flight work and release their resources."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def serve_until_signal(
        self,
        quiet: bool = False,
        before_drain: Optional[Callable[[], Awaitable[None]]] = None,
    ) -> None:
        """Serve until SIGINT/SIGTERM, then stop accepting and drain.

        ``before_drain`` runs between the two, while whatever stands behind
        the server can still answer.
        """
        assert self._server is not None, "call start() first"
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # pragma: no cover - win32
                loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
        finally:
            if not quiet:
                print("draining ...", flush=True)
            self._server.close()
            if before_drain is not None:
                await before_drain()
            await self.drain()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "unknown"
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(encode_response(exc.status, {"error": str(exc)}, False))
                    await writer.drain()
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                request.peer = peer_host
                try:
                    status, payload, headers = await self._dispatch(request)
                except Exception as exc:  # noqa: BLE001 — a request must never
                    # kill the connection without an answer
                    status, headers = 500, None
                    payload = {"error": f"{type(exc).__name__}: {exc}"}
                writer.write(encode_response(status, payload, request.keep_alive, headers))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest) -> Response:
        methods = self._routes.get(request.path)
        if methods is None:
            if request.method == "GET" and request.path.startswith(TRACES_PATH + "/"):
                return self._debug_trace_by_id(request.path[len(TRACES_PATH) + 1:])
            return 404, {"error": f"no route for {request.method} {request.path}"}, None
        handler = methods.get(request.method)
        if handler is None:
            return 405, {"error": f"{request.method} not allowed on {request.path}"}, None
        return await handler(request)

    async def traced(
        self,
        request: HttpRequest,
        client: Optional[str],
        handle: Callable[[Optional[Trace], Optional[Span]], Awaitable[Response]],
    ) -> Response:
        """Answer ``await handle(trace, root)`` under a ``<kind>.request`` root span.

        The trace continues the id the ``X-Repro-Trace`` header names (or
        mints one), the response carries the id back, and every exit lands
        the trace in the recorder with its final status.  With tracing off,
        ``handle`` gets ``(None, None)``.
        """
        if self.recorder is None:
            return await handle(None, None)
        trace = Trace.begin(
            request.header(TRACE_HEADER) or None,
            origin=self.kind,
            metadata={"client": client},
        )
        root = Span(
            name=f"{self.kind}.request",
            span_id=new_id(),
            parent_id=trace.remote_parent,
            start=trace.start,
            end=0.0,
        )
        status = 500
        try:
            status, payload, headers = await handle(trace, root)
            headers = dict(headers or {})
            headers.setdefault(TRACE_HEADER, trace.trace_id)
            return status, payload, headers
        finally:
            root.annotations["http_status"] = status
            root.end = trace.wall(time.perf_counter())
            trace.spans.insert(0, root)
            trace.finish("ok" if status == 200 else f"http_{status}")
            self.recorder.record(trace)

    async def decode_job(
        self, request: HttpRequest, trace: Optional[Trace], root: Optional[Span]
    ) -> Tuple[JobKey, Optional[SolveJob]]:
        """Decode a ``/solve`` body into ``(key, job)``.

        A body already in :attr:`decode_memo` is answered from it with
        ``job=None``: no JSON parse, no ``job_from_dict``, and for a body
        under :data:`INLINE_DIGEST_BYTES` no executor hop.  Any other body is
        decoded off the event loop, since the decode is CPU work proportional
        to the (up to 32 MB) body, and its key is memoized.  Traced as
        ``<kind>.decode`` with ``memo=true|false``.  Raises
        :class:`HttpError` or :class:`~repro.server.protocol.ProtocolError`;
        a body that fails to decode is never memoized.
        """
        started = time.perf_counter()
        memo = self.decode_memo
        body = request.body
        digest = memo.digest(body) if len(body) < INLINE_DIGEST_BYTES else None
        key = memo.get(digest) if digest is not None else None
        job: Optional[SolveJob] = None
        if key is None:

            def decode():
                nonlocal digest
                if digest is None:  # a long body: hash and probe here
                    digest = memo.digest(body)
                    hit = memo.get(digest)
                    if hit is not None:
                        return hit, None
                payload = request.json()
                decoded = job_from_dict(payload)
                found = JobKey(
                    decoded.fingerprint, deadline_from_payload(payload), decoded.name
                )
                memo.put(digest, found)
                return found, decoded

            try:
                key, job = await asyncio.get_running_loop().run_in_executor(None, decode)
            except (HttpError, ProtocolError) as exc:
                if trace is not None:
                    trace.add_span(
                        f"{self.kind}.decode", started, time.perf_counter(),
                        parent=root, memo=False, error=str(exc),
                    )
                raise
        if trace is not None:
            trace.add_span(
                f"{self.kind}.decode", started, time.perf_counter(),
                parent=root, memo=job is None,
            )
            trace.metadata["fingerprint"] = key.fingerprint
            trace.metadata["job"] = key.name
        return key, job

    # ------------------------------------------------------------------
    # the shared mounts
    # ------------------------------------------------------------------
    async def _healthz(self, request: HttpRequest) -> Response:
        return 200, self.health(), None

    async def _metrics(self, request: HttpRequest) -> Response:
        # ``?format=json`` is the machine-readable form: raw histogram bucket
        # counts, no rendered tables — what the fleet router's roll-up and
        # the load generator consume
        raw = "format=json" in request.query.split("&")
        return 200, await self.metrics_document(raw=raw), None

    def _tracing_disabled(self) -> Response:
        return 404, {"error": f"tracing is disabled on this {self.kind}"}, None

    async def _debug_traces(self, request: HttpRequest) -> Response:
        if self.recorder is None:
            return self._tracing_disabled()
        params = parse_query(request.query)
        try:
            limit = int(params.get("limit", "50"))
        except ValueError:
            return 400, {"error": "limit must be an integer"}, None
        full = params.get("full", "").lower() in ("1", "true", "yes")
        docs = self.recorder.list(limit=max(1, limit))
        traces = docs if full else [summarize_trace_doc(doc) for doc in docs]
        return 200, {"traces": traces, "stats": self.recorder.stats()}, None

    def _debug_trace_by_id(self, trace_id: str) -> Response:
        if self.recorder is None:
            return self._tracing_disabled()
        doc = self.recorder.get(trace_id.strip("/"))
        if doc is None:
            return 404, {"error": f"no trace {trace_id!r} (evicted or never seen)"}, None
        return 200, doc, None

    async def _dashboard(self, request: HttpRequest) -> Response:
        from repro.obs.dashboard import render_dashboard

        page = render_dashboard(
            await self.metrics_document(raw=True),
            traces=self.recorder.list(limit=20) if self.recorder is not None else [],
            title=f"{self.title} :{self.port}",
            health=self.health(),
        )
        return 200, page, None


#: How long a :class:`BackgroundServer` waits for its server to bind.
_START_TIMEOUT_S = 10.0


class BackgroundServer:
    """Run an :class:`HttpServer` on a dedicated event-loop thread.

    The synchronous harness of the examples, tests and benchmarks: the
    constructor starts the server, :attr:`port` reads the bound port, load
    may come from any thread, and :meth:`stop` drains gracefully.  Usable as
    a context manager.
    """

    def __init__(self, server: HttpServer, thread_name: str = "repro-http") -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name=thread_name, daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(server.start(), self._loop)
        try:
            future.result(timeout=_START_TIMEOUT_S)
        except BaseException:
            # a failed bind (port in use, bad host) must not leak the loop
            # thread this constructor just started
            self._stop_loop(_START_TIMEOUT_S)
            raise
        self._stopped = False

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _stop_loop(self, timeout: float) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        if not self._loop.is_running():
            self._loop.close()

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server and stop the loop thread (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(self.server.drain(), self._loop)
        try:
            future.result(timeout=timeout)
        finally:
            self._stop_loop(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# keep-alive client
# ----------------------------------------------------------------------
async def open_connection(
    host: str, port: int, timeout: Optional[float] = None
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open one client connection; a timeout surfaces as :class:`ConnectionError`."""
    try:
        return await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
    except asyncio.TimeoutError as exc:
        raise ConnectionError("connect timed out") from exc


async def read_response(reader) -> Tuple[int, Dict[str, str], bytes]:
    """Read one response: ``(status, lower-cased headers, body)``.

    Anything but a well-formed response — the peer closing early, a
    malformed status line, a malformed ``Content-Length`` — raises
    :class:`ConnectionError`: the connection is unusable either way, and a
    caller with somewhere else to go (the router's failover) goes there.
    """
    try:
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split()
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ConnectionError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection mid-headers")
            if line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if length < 0:
            raise ConnectionError(f"negative Content-Length: {length}")
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("server closed the connection mid-body") from exc
    except ValueError as exc:  # a non-integer status or length, or a line
        # longer than the StreamReader's limit
        raise ConnectionError(f"malformed response: {exc}") from exc
    return status, headers, body


async def round_trip(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    host: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """One request/response on an open keep-alive connection.

    Transport failures raise :class:`ConnectionError` (or :class:`OSError`);
    the connection must then be discarded, never reused.
    """
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        f"Content-Length: {len(body)}",
        "Content-Type: application/json",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
    return await read_response(reader)
