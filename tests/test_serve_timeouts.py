"""Client deadlines: hung sockets must raise, not block forever.

A tiny in-test TCP listener accepts connections and then goes silent —
the pathological peer every deadline exists for.  The sync and async
clients must both surface ``TimeoutError`` within the configured
deadline.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.serve.client import AsyncServeClient, ServeClient


class HungServer:
    """Accept connections, read forever, never reply."""

    def __init__(self) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._accepted: list[socket.socket] = []
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.1)
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except (socket.timeout, OSError):
                continue
            self._accepted.append(conn)

    def close(self) -> None:
        self._stopping.set()
        self._thread.join(timeout=5)
        self._listener.close()
        for conn in self._accepted:
            conn.close()


@pytest.fixture
def hung_server():
    server = HungServer()
    try:
        yield server
    finally:
        server.close()


class TestSyncClientDeadlines:
    def test_request_times_out_on_hung_socket(self, hung_server):
        client = ServeClient.connect(hung_server.address, timeout=0.2)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            client.request({"op": "status"})
        assert time.monotonic() - start < 5.0
        client.close()

    def test_per_request_override_restores_default(self, hung_server):
        client = ServeClient.connect(hung_server.address, timeout=30.0)
        with pytest.raises(TimeoutError):
            client.request({"op": "status"}, timeout=0.1)
        # The one-shot override must not stick to the connection.
        assert client._sock.gettimeout() == 30.0
        client.close()

    def test_connect_timeout_is_independent_of_read_timeout(self, hung_server):
        client = ServeClient.connect(
            hung_server.address, timeout=15.0, connect_timeout=1.0
        )
        assert client._sock.gettimeout() == 15.0
        client.close()


class TestAsyncClientDeadlines:
    def test_request_times_out_on_hung_socket(self, hung_server):
        async def scenario():
            client = await AsyncServeClient.connect(
                hung_server.address, timeout=0.2
            )
            try:
                with pytest.raises((TimeoutError, asyncio.TimeoutError)):
                    await client.request({"op": "status"})
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_per_request_deadline_overrides_connection_default(self, hung_server):
        async def scenario():
            client = await AsyncServeClient.connect(
                hung_server.address, timeout=60.0
            )
            try:
                start = time.monotonic()
                with pytest.raises((TimeoutError, asyncio.TimeoutError)):
                    await client.request({"op": "status"}, timeout=0.1)
                assert time.monotonic() - start < 5.0
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_connect_deadline_on_dead_endpoint(self, tmp_path):
        async def scenario():
            with pytest.raises(OSError):
                await AsyncServeClient.connect(
                    f"unix:{tmp_path}/nobody.sock", connect_timeout=1.0
                )

        asyncio.run(scenario())
