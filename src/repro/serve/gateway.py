"""``bcache-gateway`` — HTTP/1.1 + JSON front end for ``bcache-serve``.

The native serve protocol (length-prefixed JSON frames) is ideal for
trusted, long-lived clients but useless for a browser, a ``curl`` one
liner, or a fleet of short-lived lambda-style callers.  This gateway
terminates plain HTTP/1.1 on the stdlib asyncio stack — no third-party
web framework — and proxies onto a ``bcache-serve`` backend over a
small pool of persistent native connections.

Routes:

* ``POST /v1/simulate`` — body is one job description (the same fields
  as the native ``simulate`` op, optionally ``client``); answers the
  full ``CacheStats`` snapshot as JSON.
* ``POST /v1/sweep`` — body is ``{"jobs": [...]}``; the response is
  **NDJSON streamed with chunked transfer encoding**: one line per job
  *in completion order* (each tagged with its ``index``), then a final
  summary line.  A slow job never blocks the lines of finished jobs.
* ``GET /v1/status`` — the backend's ``status`` response.
* ``GET /metrics`` — this process's Prometheus registry concatenated
  with the backend's (fetched via the native ``metrics`` op), so one
  scrape covers both tiers.
* ``GET /healthz`` — liveness probe.

Error mapping (HTTP is the contract, native codes are the source):
``bad_request`` → 400, ``rate_limited``/``overloaded`` → 429 with a
``Retry-After`` header, ``draining`` → 503, ``simulation_failed`` →
500, backend unreachable → 502, backend deadline → 504.

HTTP parsing follows the repo's **sans-IO** discipline
(:class:`RequestDecoder` mirrors ``protocol.FrameDecoder``): bytes in,
parsed requests out, no sockets inside the parser — so the parser is
unit-testable without a loop and the connection handler stays a thin
pump.  Request bodies require ``Content-Length`` (no request chunking)
and are bounded, as are header blocks; both bounds reject from the
header alone.

On SIGTERM the gateway drains: the listener closes, in-flight requests
finish and are answered, backend connections close, exit 0.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.obs import tracectx
from repro.obs.exposition import CONTENT_TYPE, render
from repro.obs.instrument import record
from repro.obs.metrics import default_registry
from repro.obs.tracectx import TraceContext
from repro.serve.client import AsyncServeClient
from repro.serve.protocol import ProtocolError

#: Default gateway port (serve is 4006; the gateway fronts it).
DEFAULT_PORT = 8006

#: Bound on one request's header block (request line + headers).
MAX_HEADER_BYTES = 16 * 1024

#: Default bound on one request body.
MAX_BODY_BYTES = 1 << 20

_NDJSON_TYPE = "application/x-ndjson"
_JSON_TYPE = "application/json"

#: Native error code → HTTP status for proxied backend responses.
_ERROR_STATUS = {
    "bad_request": 400,
    "rate_limited": 429,
    "overloaded": 429,
    "draining": 503,
    "simulation_failed": 500,
    "frame_too_large": 502,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """An HTTP-level rejection produced before (or instead of) a proxy."""

    def __init__(
        self,
        status: int,
        detail: str,
        headers: dict[str, str] | None = None,
        code: str | None = None,
    ) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = headers or {}
        #: Machine-readable error slug; mirrors the native protocol's
        #: ``error`` field so HTTP and native clients share one taxonomy.
        self.code = code or f"http_{status}"


@dataclass(slots=True)
class HttpRequest:
    """One parsed request: the decoder's output, the router's input."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


class RequestDecoder:
    """Sans-IO incremental HTTP/1.1 request parser.

    Feed raw bytes as they arrive; complete requests come out.  The
    parser never touches a socket, mirroring ``protocol.FrameDecoder``.
    Oversized header blocks and bodies are rejected from the declared
    sizes alone, before buffering the payload.
    """

    def __init__(self, max_body: int = MAX_BODY_BYTES) -> None:
        self.max_body = max_body
        self._buffer = bytearray()
        self._pending: HttpRequest | None = None  # headers parsed, body short

    def feed(self, data: bytes) -> list[HttpRequest]:
        """Consume ``data``; return every request completed by it.

        Raises :class:`HttpError` on malformed or oversized input; the
        connection should answer it and close.
        """
        self._buffer.extend(data)
        requests: list[HttpRequest] = []
        while True:
            request = self._next_request()
            if request is None:
                return requests
            requests.append(request)

    def _next_request(self) -> HttpRequest | None:
        if self._pending is not None:
            need = int(self._pending.headers.get("content-length", "0"))
            if len(self._buffer) < need:
                return None
            request = self._pending
            self._pending = None
            request.body = bytes(self._buffer[:need])
            del self._buffer[:need]
            return request
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            if len(self._buffer) > MAX_HEADER_BYTES:
                raise HttpError(431, "request header block too large")
            return None
        head = bytes(self._buffer[:end])
        del self._buffer[: end + 4]
        request = self._parse_head(head)
        need = int(request.headers.get("content-length", "0"))
        if len(self._buffer) < need:
            self._pending = request
            return None
        request.body = bytes(self._buffer[:need])
        del self._buffer[:need]
        return request

    def _parse_head(self, head: bytes) -> HttpRequest:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise HttpError(400, "undecodable request head") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(400, f"malformed request line {lines[0]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise HttpError(411, "chunked request bodies are not accepted; "
                                 "send Content-Length")
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as exc:
            raise HttpError(400, f"bad Content-Length {length_text!r}") from exc
        if length < 0:
            raise HttpError(400, f"bad Content-Length {length_text!r}")
        if length > self.max_body:
            raise HttpError(
                413, f"body of {length} bytes exceeds the {self.max_body} cap"
            )
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = "close" not in connection
        else:  # HTTP/1.0 closes unless the client opts in
            keep_alive = "keep-alive" in connection
        path = target.split("?", 1)[0]
        return HttpRequest(
            method=method.upper(),
            path=path,
            headers=headers,
            body=b"",
            keep_alive=keep_alive,
        )


def render_response(
    status: int,
    body: bytes,
    content_type: str = _JSON_TYPE,
    extra_headers: dict[str, str] | None = None,
    *,
    keep_alive: bool = True,
) -> bytes:
    """Assemble one fixed-length HTTP/1.1 response (sans-IO)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _json_body(payload: dict[str, Any]) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _chunk(data: bytes) -> bytes:
    """One chunk of a chunked transfer-encoded body."""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


_LAST_CHUNK = b"0\r\n\r\n"


@dataclass(slots=True)
class GatewayConfig:
    """Tuning for one :class:`Gateway`.

    Attributes:
        host/port: HTTP listener (``port=0`` binds an ephemeral port).
        backend: ``bcache-serve`` address (``host:port`` or
            ``unix:/path.sock``).
        pool: persistent backend connections; also the bound on
            concurrent backend requests (sweep fan-out included).
        max_body: request-body byte cap.
        backend_timeout: per-request backend deadline in seconds.
        client_header: HTTP header consulted for the client identity
            forwarded to the backend's admission control (the peer
            host is the fallback).
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    backend: str = "127.0.0.1:4006"
    pool: int = 8
    max_body: int = MAX_BODY_BYTES
    backend_timeout: float = 30.0
    client_header: str = "x-bcache-client"


@dataclass(slots=True)
class GatewayMetrics:
    """Aggregate counters (mirrored into the obs registry per route)."""

    requests: int = 0
    errors: int = 0
    streams: int = 0
    streamed_results: int = 0
    connections_total: int = 0
    backend_errors: int = 0
    started_at: float = field(default_factory=time.monotonic)


class BackendPool:
    """Bounded pool of native connections to the serve backend.

    A lease is exclusive (the native protocol is one-in-flight per
    connection), so the pool size bounds backend concurrency.  A
    connection that fails mid-request is replaced on the next lease —
    the pool never caches a broken pipe.
    """

    def __init__(self, address: str, size: int, timeout: float) -> None:
        self.address = address
        self.size = max(1, size)
        self.timeout = timeout
        self._slots: asyncio.Queue[AsyncServeClient | None] = asyncio.Queue()
        for _ in range(self.size):
            self._slots.put_nowait(None)  # lazily connected

    async def _lease(self) -> AsyncServeClient:
        client = await self._slots.get()
        if client is None:
            try:
                client = await AsyncServeClient.connect(
                    self.address, timeout=self.timeout
                )
            except (OSError, asyncio.TimeoutError):
                self._slots.put_nowait(None)
                raise
        return client

    def _release(self, client: AsyncServeClient | None) -> None:
        self._slots.put_nowait(client)

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One proxied round trip; maps transport failures to HTTP.

        Raises :class:`HttpError` 502 when the backend is unreachable
        or answers garbage, 504 when it misses the deadline.
        """
        try:
            client = await self._lease()
        except (OSError, asyncio.TimeoutError) as exc:
            record("repro_gateway_backend_errors_total", kind="connect")
            raise HttpError(502, f"backend unreachable: {exc}") from exc
        done = False
        try:
            response = await client.request(payload)
            done = True
            return response
        except (asyncio.TimeoutError, TimeoutError) as exc:
            record("repro_gateway_backend_errors_total", kind="timeout")
            raise HttpError(504, "backend deadline exceeded") from exc
        except (ConnectionError, ProtocolError, OSError) as exc:
            record("repro_gateway_backend_errors_total", kind="transport")
            raise HttpError(502, f"backend connection failed: {exc}") from exc
        finally:
            if done:
                self._release(client)
            else:
                # Any failure — including CancelledError when a sweep
                # stream aborts mid-request — leaves a half-finished
                # native request on this connection, so it must not be
                # reused.  Restore the slot first (the pool must never
                # leak capacity), then close without suspending: a
                # cancelled caller may not await again here.
                self._release(None)
                client.abort()

    async def close(self) -> None:
        for _ in range(self.size):
            with contextlib.suppress(asyncio.QueueEmpty):
                client = self._slots.get_nowait()
                if client is not None:
                    await client.close()


class Gateway:
    """The asyncio HTTP gateway (see module docstring)."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.metrics = GatewayMetrics()
        self.pool = BackendPool(
            config.backend, config.pool, config.backend_timeout
        )
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._active = 0
        self._idle: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._draining = False
        self._drain_task: asyncio.Task[None] | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def address(self) -> tuple[str, int] | None:
        if self._server is None:
            return None
        for sock in self._server.sockets or ():
            if sock.family.name in ("AF_INET", "AF_INET6"):
                addr = sock.getsockname()
                return (addr[0], addr[1])
        return None

    @property
    def draining(self) -> bool:
        return self._draining

    def request_drain(self) -> None:
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(
                self.drain()
            )

    async def drain(self) -> None:
        """Close the listener, answer in-flight requests, then stop."""
        if self._draining:
            await self.wait_stopped()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._idle is not None
        await self._idle.wait()
        for writer in list(self._writers):
            writer.close()
        await self.pool.close()
        assert self._stopped is not None
        self._stopped.set()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "gateway was never started"
        await self._stopped.wait()

    def abort(self) -> None:
        if self._server is not None:
            self._server.close()
        if self._stopped is not None:
            self._stopped.set()

    # -- connection pump -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections_total += 1
        self._writers.add(writer)
        peer = writer.get_extra_info("peername")
        peer_host = (
            str(peer[0]) if isinstance(peer, tuple) and len(peer) >= 2 else "anon"
        )
        decoder = RequestDecoder(self.config.max_body)
        try:
            keep_going = True
            while keep_going:
                try:
                    requests = await self._read_requests(reader, decoder)
                except HttpError as exc:
                    with contextlib.suppress(ConnectionError, OSError):
                        writer.write(self._error_bytes(exc, keep_alive=False))
                        await writer.drain()
                    return
                if requests is None:  # EOF
                    return
                for request in requests:
                    keep_going = await self._serve_one(
                        request, writer, peer_host
                    )
                    if not keep_going:
                        break
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _read_requests(
        self, reader: asyncio.StreamReader, decoder: RequestDecoder
    ) -> list[HttpRequest] | None:
        """Pump the socket until the decoder yields at least one request."""
        while True:
            data = await reader.read(65536)
            if not data:
                return None
            requests = decoder.feed(data)
            if requests:
                return requests

    def _error_bytes(self, exc: HttpError, *, keep_alive: bool) -> bytes:
        self.metrics.errors += 1
        return render_response(
            exc.status,
            _json_body(
                {"ok": False, "error": exc.code, "detail": exc.detail}
            ),
            extra_headers=exc.headers,
            keep_alive=keep_alive,
        )

    async def _serve_one(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        peer_host: str,
    ) -> bool:
        """Route one request and write its response; returns keep-alive."""
        self.metrics.requests += 1
        self._active += 1
        assert self._idle is not None
        self._idle.clear()
        started = time.monotonic()
        status = 500
        keep_alive = request.keep_alive and not self._draining
        trace = self._trace_for(request)
        try:
            try:
                with _obs.stage_span("gateway", trace=trace,
                                     path=request.path):
                    if (request.method == "POST"
                            and request.path == "/v1/sweep"):
                        status = await self._route_sweep(
                            request, writer, peer_host, keep_alive
                        )
                    else:
                        status, body, ctype, extra = await self._route_simple(
                            request, peer_host
                        )
                        writer.write(
                            render_response(
                                status, body, ctype, extra,
                                keep_alive=keep_alive,
                            )
                        )
                        await writer.drain()
            except HttpError as exc:
                status = exc.status
                writer.write(self._error_bytes(exc, keep_alive=keep_alive))
                await writer.drain()
        except (ConnectionError, OSError):
            return False
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()
            record("repro_gateway_requests_total", route=request.path, code=status)
            record("repro_gateway_request_seconds", time.monotonic() - started,
                   route=request.path)
        return keep_alive

    def _trace_for(self, request: HttpRequest) -> TraceContext | None:
        """The request's root trace context, if the request is traced.

        A W3C ``traceparent`` header wins on every tier (the caller
        already decided to trace, and its sampling flag rides the
        header); otherwise a root is minted for simulate/sweep requests
        whenever events are recorded.  Minted ids hash the pid and the
        request ordinal — deterministic, no ``random``, no wall clock
        (rule BCL019) — and their sampling verdict is the pure function
        ``sampled_for(hash(trace_id))``, so reruns sample identically.
        """
        trace = TraceContext.from_traceparent(
            request.headers.get("traceparent")
        )
        if trace is not None:
            return trace
        if not obs_events.enabled():
            return None
        if request.path not in ("/v1/simulate", "/v1/sweep"):
            return None
        return TraceContext.new(
            f"gateway/{os.getpid()}/{self.metrics.requests}"
        )

    # -- routing -------------------------------------------------------
    async def _route_simple(
        self, request: HttpRequest, peer_host: str
    ) -> tuple[int, bytes, str, dict[str, str]]:
        """Every route except the streaming sweep."""
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "healthz is GET-only")
            return 200, _json_body({"ok": True, "draining": self._draining}), \
                _JSON_TYPE, {}
        if path == "/v1/status":
            if method != "GET":
                raise HttpError(405, "status is GET-only")
            response = await self.pool.request({"op": "status"})
            self._check_backend(response)
            response["gateway"] = self.snapshot()
            return 200, _json_body(response), _JSON_TYPE, {}
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "metrics is GET-only")
            local = render(default_registry())
            backend = ""
            with contextlib.suppress(HttpError):
                response = await self.pool.request({"op": "metrics"})
                if response.get("ok"):
                    backend = str(response.get("metrics", ""))
            body = (local + backend).encode("utf-8")
            return 200, body, CONTENT_TYPE, {}
        if path == "/v1/simulate":
            if method != "POST":
                raise HttpError(405, "simulate is POST-only")
            with _obs.stage_span("gateway_parse", trace=tracectx.current()):
                payload = self._parse_json_object(request.body)
            payload.setdefault(
                "client", self._client_identity(request, peer_host)
            )
            ctx = tracectx.current()
            if ctx is not None and ctx.sampled:
                payload["trace"] = ctx.to_wire()
            response = await self.pool.request({"op": "simulate", **payload})
            self._check_backend(response)
            return 200, _json_body(response), _JSON_TYPE, {}
        raise HttpError(404, f"no route {method} {path}; see docs/gateway.md")

    async def _route_sweep(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        peer_host: str,
        keep_alive: bool,
    ) -> int:
        """NDJSON-streamed sweep: one line per job, completion order."""
        with _obs.stage_span("gateway_parse", trace=tracectx.current()):
            payload = self._parse_json_object(request.body)
            jobs = payload.get("jobs")
            if not isinstance(jobs, list) or not jobs:
                raise HttpError(400, "'sweep' needs a non-empty 'jobs' list")
            for entry in jobs:
                if not isinstance(entry, dict):
                    raise HttpError(400, "sweep jobs must be JSON objects")
        client = payload.get("client")
        if not (isinstance(client, str) and client):
            client = self._client_identity(request, peer_host)
        ctx = tracectx.current()
        wire = ctx.to_wire() if ctx is not None and ctx.sampled else None
        self.metrics.streams += 1
        head = (
            f"HTTP/1.1 200 OK\r\nContent-Type: {_NDJSON_TYPE}\r\n"
            f"Transfer-Encoding: chunked\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))

        async def one(index: int, job: dict[str, Any]) -> dict[str, Any]:
            backend_payload = {"op": "simulate", "client": client, **job}
            if wire is not None:
                backend_payload["trace"] = wire
            response = await self.pool.request(backend_payload)
            return {"index": index, **response}

        ok = errors = 0
        tasks = [
            asyncio.ensure_future(one(index, job))
            for index, job in enumerate(jobs)
        ]
        try:
            for next_done in asyncio.as_completed(tasks):
                try:
                    line = await next_done
                except HttpError as exc:
                    line = {"ok": False, "error": exc.code,
                            "detail": exc.detail}
                if line.get("ok"):
                    ok += 1
                else:
                    errors += 1
                self.metrics.streamed_results += 1
                writer.write(_chunk(_json_body(line)))
                await writer.drain()
            summary = {"done": True, "jobs": len(jobs), "ok": ok,
                       "errors": errors}
            writer.write(_chunk(_json_body(summary)) + _LAST_CHUNK)
            await writer.drain()
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            record("repro_gateway_streamed_results_total", len(jobs))
        return 200

    # -- helpers -------------------------------------------------------
    def _client_identity(self, request: HttpRequest, peer_host: str) -> str:
        header = request.headers.get(self.config.client_header, "")
        return header if header else peer_host

    @staticmethod
    def _parse_json_object(body: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        return payload

    def _check_backend(self, response: dict[str, Any]) -> None:
        """Raise the HTTP mapping of a native error response."""
        if response.get("ok"):
            return
        self.metrics.backend_errors += 1
        code = str(response.get("error", "unknown_error"))
        detail = str(response.get("detail", "")) or code
        status = _ERROR_STATUS.get(code, 502)
        headers: dict[str, str] = {}
        if status == 429:
            retry_after = response.get("retry_after", 1.0)
            seconds = (
                float(retry_after)
                if isinstance(retry_after, (int, float))
                else 1.0
            )
            headers["Retry-After"] = str(max(1, math.ceil(seconds)))
        raise HttpError(status, detail, headers, code=code)

    def snapshot(self) -> dict[str, Any]:
        metrics = self.metrics
        return {
            "draining": self._draining,
            "uptime_s": round(time.monotonic() - metrics.started_at, 3),
            "connections_total": metrics.connections_total,
            "requests": metrics.requests,
            "errors": metrics.errors,
            "streams": metrics.streams,
            "streamed_results": metrics.streamed_results,
            "backend_errors": metrics.backend_errors,
            "backend": self.config.backend,
            "pool": self.config.pool,
        }


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcache-gateway",
        description="HTTP/1.1 + JSON gateway in front of bcache-serve "
        "(NDJSON-streamed sweeps, Retry-After on overload).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="HTTP bind host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, metavar="N",
                        help=f"HTTP port (default {DEFAULT_PORT}; "
                        "0 = ephemeral)")
    parser.add_argument("--backend", default="127.0.0.1:4006",
                        metavar="ADDR",
                        help="bcache-serve address, host:port or "
                        "unix:/path.sock (default 127.0.0.1:4006)")
    parser.add_argument("--pool", type=int, default=8, metavar="N",
                        help="backend connection pool size / concurrency "
                        "bound (default 8)")
    parser.add_argument("--max-body", type=int, default=MAX_BODY_BYTES,
                        metavar="BYTES",
                        help="request body cap (default 1 MiB)")
    parser.add_argument("--backend-timeout", type=float, default=30.0,
                        metavar="S",
                        help="per-request backend deadline (default 30 s)")
    return parser


def config_from_args(args: argparse.Namespace) -> GatewayConfig:
    return GatewayConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        pool=args.pool,
        max_body=args.max_body,
        backend_timeout=args.backend_timeout,
    )


async def _amain(config: GatewayConfig) -> int:
    gateway = Gateway(config)
    try:
        await gateway.start()
    except OSError as exc:
        print(f"bcache-gateway: cannot bind: {exc}", file=sys.stderr)
        return 4
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, gateway.request_drain)
    addr = gateway.address
    addr_text = f"{addr[0]}:{addr[1]}" if addr else "-"
    print(
        f"bcache-gateway: ready http={addr_text} backend={config.backend} "
        f"pool={config.pool} pid={os.getpid()}",
        flush=True,
    )
    try:
        await gateway.wait_stopped()
    finally:
        gateway.abort()
    print("bcache-gateway: drained, exiting", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-gateway``; returns a process exit code.

    ``0`` after a clean drain (SIGTERM), ``130`` on SIGINT, ``4`` when
    the listener cannot bind, ``2`` for bad usage.
    """
    args = _build_parser().parse_args(argv)
    if args.pool < 1:
        print("bcache-gateway: --pool must be >= 1", file=sys.stderr)
        return 2
    try:
        return asyncio.run(_amain(config_from_args(args)))
    except KeyboardInterrupt:
        print("bcache-gateway: interrupted (SIGINT)", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
