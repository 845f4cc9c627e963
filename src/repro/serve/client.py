"""Client library for the ``bcache-serve`` simulation service.

Two flavours over the same length-prefixed JSON protocol:

* :class:`ServeClient` — blocking sockets, for scripts, tests and
  ``bcache-sim --connect``.  One request at a time per connection.
* :class:`AsyncServeClient` — asyncio streams, used by the load
  generator to keep hundreds of requests in flight.

Both return real :class:`~repro.stats.counters.CacheStats` objects
rebuilt from the server's snapshots, so a served result compares
``==`` (bit-identical, per-set counters included) against a local
``access_trace`` replay of the same job.

Addresses are given as ``host:port`` or ``unix:/path/to.sock`` (a bare
path containing ``/`` also works).

Both flavours carry deadlines: ``connect(...)`` takes separate
``connect_timeout``/``timeout`` (read) knobs, every ``request`` accepts
a per-call ``timeout=`` override, and a hung server surfaces as
:class:`TimeoutError` instead of blocking the caller forever.
:meth:`ServeClient.sweep` takes its deadline as a required argument.
Reconnecting is the caller's business: a fleet sweep's supervisor
reconnects a failed node after its retry backoff.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import asdict
from typing import Any, Sequence

from repro.engine.runner import SweepJob
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.stats.counters import CacheStats


class ServeError(RuntimeError):
    """The server answered with an error response."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class OverloadedError(ServeError):
    """The server shed this request (bounded queue full); retry later."""


class RateLimitedError(ServeError):
    """The client is over its admission rate; retry after ``retry_after``."""

    def __init__(
        self, code: str, detail: str = "", retry_after: float = 1.0
    ) -> None:
        super().__init__(code, detail)
        self.retry_after = retry_after


class DrainingError(ServeError):
    """The server is draining and no longer accepts work."""


def parse_address(address: str) -> tuple[str, Any]:
    """``host:port`` / ``unix:/path`` → ``("tcp", (host, port))`` / ``("unix", path)``."""
    if address.startswith("unix:"):
        return ("unix", address[len("unix:"):])
    if ":" in address:
        host, _, port_text = address.rpartition(":")
        try:
            return ("tcp", (host or "127.0.0.1", int(port_text)))
        except ValueError:
            pass
    if "/" in address:
        return ("unix", address)
    raise ValueError(
        f"bad server address {address!r}; use host:port or unix:/path.sock"
    )


def _raise_for_error(response: dict[str, Any]) -> None:
    if response.get("ok"):
        return
    code = str(response.get("error", "unknown_error"))
    detail = str(response.get("detail", ""))
    if code == "overloaded":
        raise OverloadedError(code, detail)
    if code == "rate_limited":
        retry_after = response.get("retry_after", 1.0)
        raise RateLimitedError(
            code,
            detail,
            float(retry_after) if isinstance(retry_after, (int, float)) else 1.0,
        )
    if code == "draining":
        raise DrainingError(code, detail)
    raise ServeError(code, detail)


def _job_payload(job: SweepJob | dict[str, Any]) -> dict[str, Any]:
    return asdict(job) if isinstance(job, SweepJob) else dict(job)


def _stats_from(response: dict[str, Any]) -> CacheStats:
    _raise_for_error(response)
    return CacheStats.from_snapshot(response["stats"])


def _sweep_stats_from(response: dict[str, Any]) -> list[CacheStats]:
    _raise_for_error(response)
    return [_stats_from(entry) for entry in response["results"]]


class ServeClient:
    """Blocking client; one in-flight request per connection.

    Usage::

        with ServeClient.connect("127.0.0.1:4006") as client:
            stats = client.simulate(SweepJob(spec="mf8_bas8", benchmark="gcc"))
    """

    def __init__(
        self,
        sock: socket.socket,
        max_frame: int = MAX_FRAME_BYTES,
        timeout: float | None = 30.0,
    ) -> None:
        self._sock = sock
        self._decoder = FrameDecoder(max_frame)
        self.max_frame = max_frame
        self.timeout = timeout

    @classmethod
    def connect(
        cls,
        address: str,
        timeout: float | None = 30.0,
        max_frame: int = MAX_FRAME_BYTES,
        connect_timeout: float | None = None,
    ) -> "ServeClient":
        """Open a connection; ``timeout`` bounds every later read/write.

        ``connect_timeout`` bounds the TCP/Unix connect handshake only
        and defaults to ``timeout`` — a fleet coordinator wants a short
        connect deadline (is the node there at all?) but a generous
        request deadline (a sweep batch takes real time).
        """
        kind, target = parse_address(address)
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(connect_timeout if connect_timeout is not None else timeout)
        try:
            sock.connect(target)
        except OSError:
            sock.close()
            raise
        sock.settimeout(timeout)
        return cls(sock, max_frame, timeout)

    # -- low level -----------------------------------------------------
    def request(
        self, payload: dict[str, Any], timeout: float | None = None
    ) -> dict[str, Any]:
        """Send one request frame and block for its response frame.

        ``timeout`` overrides the connection's read deadline for this
        request only; a quiet server raises :class:`TimeoutError` when
        the deadline passes instead of blocking forever.
        """
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            self._sock.sendall(encode_frame(payload, self.max_frame))
            while True:
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ProtocolError("server closed the connection mid-response")
                frames = self._decoder.feed(chunk)
                if frames:
                    return frames[0]
        finally:
            if timeout is not None:
                self._sock.settimeout(self.timeout)

    # -- ops -----------------------------------------------------------
    def simulate(self, job: SweepJob | dict[str, Any]) -> CacheStats:
        return _stats_from(self.request({"op": "simulate", **_job_payload(job)}))

    def sweep(
        self,
        jobs: Sequence[SweepJob | dict[str, Any]],
        *,
        timeout: float | None,
        trace: str | None = None,
    ) -> list[CacheStats]:
        """Run a batch; ``timeout`` (required) is its read deadline.

        ``None`` says the connection's own read deadline suffices.
        """
        payload: dict[str, Any] = {
            "op": "sweep",
            "jobs": [_job_payload(job) for job in jobs],
        }
        if trace:
            payload["trace"] = trace
        return _sweep_stats_from(self.request(payload, timeout=timeout))

    def status(self) -> dict[str, Any]:
        response = self.request({"op": "status"})
        _raise_for_error(response)
        return response

    def drain(self) -> dict[str, Any]:
        response = self.request({"op": "drain"})
        _raise_for_error(response)
        return response

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncServeClient:
    """asyncio client; one in-flight request per connection.

    Open many instances for concurrency — the load generator opens one
    per simulated user.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame: int = MAX_FRAME_BYTES,
        timeout: float | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.max_frame = max_frame
        self.timeout = timeout

    @classmethod
    async def connect(
        cls,
        address: str,
        max_frame: int = MAX_FRAME_BYTES,
        timeout: float | None = None,
        connect_timeout: float | None = 10.0,
    ) -> "AsyncServeClient":
        """Open a connection; ``connect_timeout`` bounds the handshake.

        ``timeout`` becomes the default per-request deadline (``None``
        keeps the historical unbounded behaviour for trusted local
        servers; fleet callers should always set one).
        """
        kind, target = parse_address(address)
        if kind == "unix":
            open_coro = asyncio.open_unix_connection(target)
        else:
            open_coro = asyncio.open_connection(target[0], target[1])
        reader, writer = await asyncio.wait_for(open_coro, connect_timeout)
        return cls(reader, writer, max_frame, timeout)

    async def request(
        self, payload: dict[str, Any], timeout: float | None = None
    ) -> dict[str, Any]:
        """One round trip; raises ``TimeoutError`` past the deadline.

        The effective deadline is the per-call ``timeout`` or the
        connection default; it covers the write and the full response
        read, so a server that accepts the request and then hangs still
        surfaces within the deadline.
        """
        deadline = timeout if timeout is not None else self.timeout
        response = await asyncio.wait_for(self._round_trip(payload), deadline)
        if response is None:
            raise ProtocolError("server closed the connection mid-response")
        return response

    async def _round_trip(self, payload: dict[str, Any]) -> dict[str, Any] | None:
        await write_frame(self._writer, payload, self.max_frame)
        return await read_frame(self._reader, self.max_frame)

    async def simulate(self, job: SweepJob | dict[str, Any]) -> CacheStats:
        return _stats_from(await self.request({"op": "simulate", **_job_payload(job)}))

    async def sweep(
        self,
        jobs: Sequence[SweepJob | dict[str, Any]],
        trace: str | None = None,
    ) -> list[CacheStats]:
        payload: dict[str, Any] = {
            "op": "sweep",
            "jobs": [_job_payload(job) for job in jobs],
        }
        if trace:
            payload["trace"] = trace
        return _sweep_stats_from(await self.request(payload))

    async def status(self) -> dict[str, Any]:
        response = await self.request({"op": "status"})
        _raise_for_error(response)
        return response

    async def drain(self) -> dict[str, Any]:
        response = await self.request({"op": "drain"})
        _raise_for_error(response)
        return response

    def abort(self) -> None:
        """Close the transport immediately, without awaiting teardown.

        Unlike :meth:`close` this never suspends, so it is safe from a
        ``CancelledError`` handler (a cancelled caller must not be
        interrupted again mid-cleanup).
        """
        self._writer.close()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
