"""The open loop times requests from their due time, against a fake
server speaking the serve protocol on a Unix socket."""

from __future__ import annotations

import asyncio
import math
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.engine.runner import SweepJob
from repro.serve.client import AsyncServeClient
from repro.serve.protocol import read_frame, write_frame
from repro.stats.counters import CacheStats

from bench import loadgen

JOB = SweepJob(spec="dm", benchmark="gcc", n=1000)
SNAPSHOT = CacheStats(num_sets=4).snapshot()

#: (request index) -> response, run inside the server's handler.
Behaviour = Callable[[int], Any]


def _serve(behaviour: Behaviour, scenario: Callable[[loadgen.Connect], Any]) -> Any:
    """Run ``scenario(connect)`` against a fake server on one event loop."""
    with tempfile.TemporaryDirectory() as tmp:
        sock = os.path.relpath(Path(tmp) / "fake.sock")
        count = 0

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            nonlocal count
            while await read_frame(reader) is not None:
                index, count = count, count + 1
                response = behaviour(index)
                if asyncio.iscoroutine(response):
                    response = await response
                await write_frame(writer, response)
            writer.close()

        async def main() -> Any:
            server = await asyncio.start_unix_server(handle, path=sock)
            try:
                return await scenario(lambda: AsyncServeClient.connect(f"unix:{sock}"))
            finally:
                server.close()

        return loadgen.run(main(), timeout=30.0)


def _ok(index: int) -> dict[str, Any]:
    return {"ok": True, "stats": SNAPSHOT}


async def _open(connect: loadgen.Connect, jobs: list[SweepJob], rate: float,
                connections: int) -> loadgen.LoopReport:
    _, opened = await loadgen.drive(connect, [loadgen.Round(open=jobs)], rate, connections,
                                    keep=frozenset({JOB}))
    return opened


async def _closed(connect: loadgen.Connect, passes: list[list[SweepJob]],
                  connections: int) -> loadgen.LoopReport:
    rounds = [loadgen.Round(closed=jobs) for jobs in passes]
    closed, _ = await loadgen.drive(connect, rounds, 1.0, connections, keep=frozenset({JOB}))
    return closed


def test_a_stall_shows_in_lag_and_in_latency() -> None:
    """A 200 ms stall of the process delays the generator (lag) and
    every request due during it (latency from the due time)."""

    def stalls_once(index: int) -> dict[str, Any]:
        if index == 10:
            time.sleep(0.2)  # blocks the whole event loop, generator included
        return _ok(index)

    report = _serve(stalls_once, lambda connect: _open(
        connect, [JOB] * 60, rate=200.0, connections=2))
    assert len(report.outcomes) == 60 and not any(o.error for o in report.outcomes)
    lags = [outcome.lag for outcome in report.outcomes]
    latencies = [outcome.latency for outcome in report.outcomes]
    assert max(lags) >= 0.15
    # The ~40 requests due during the stall all waited for it.
    assert sum(1 for latency in latencies if latency >= 0.05) >= 20
    # Without the stall the fake server answers within a few ms.
    assert min(latencies) < 0.02


def test_a_slow_answer_delays_queued_requests_but_not_the_generator() -> None:
    """A server-side wait (not a stall of this process) holds up the
    requests queued behind it; their latency counts from the due time."""

    async def slow_once(index: int) -> dict[str, Any]:
        if index == 5:
            await asyncio.sleep(0.3)
        return _ok(index)

    report = _serve(slow_once, lambda connect: _open(
        connect, [JOB] * 40, rate=100.0, connections=1))
    latencies = [outcome.latency for outcome in report.outcomes]
    assert max(outcome.lag for outcome in report.outcomes) < 0.05
    # ~30 requests fall due during the 300 ms wait on the only connection.
    assert sum(1 for latency in latencies if latency >= 0.05) >= 20


def test_failed_requests_are_infinitely_slow() -> None:
    def fails_odd(index: int) -> dict[str, Any]:
        if index % 2:
            return {"ok": False, "error": "simulation_failed", "detail": "boom"}
        return _ok(index)

    report = _serve(fails_odd, lambda connect: _open(
        connect, [JOB] * 10, rate=500.0, connections=2))
    failed = [outcome for outcome in report.outcomes if outcome.error]
    assert len(failed) == 5
    assert all(math.isinf(outcome.latency) and outcome.stats is None for outcome in failed)


def test_shed_requests_are_retried_and_counted() -> None:
    def sheds_first_two(index: int) -> dict[str, Any]:
        if index < 2:
            return {"ok": False, "error": "overloaded", "detail": "full"}
        return _ok(index)

    report = _serve(sheds_first_two, lambda connect: _closed(
        connect, [[JOB] * 4], connections=1))
    assert report.counters.shed_retries == 2
    assert len(report.outcomes) == 4 and not any(o.error for o in report.outcomes)
    assert all(outcome.stats == CacheStats(num_sets=4) for outcome in report.outcomes)


def test_rounds_interleave_closed_passes_and_open_segments() -> None:
    rounds = [loadgen.Round(closed=[JOB] * 8, open=[JOB] * 5) for _ in range(3)]
    closed, opened = _serve(_ok, lambda connect: loadgen.drive(connect, rounds, 500.0, 2))
    assert len(closed.passes) == 3 and len(closed.outcomes) == 24
    assert all(start < end for start, end in closed.passes)
    assert len(opened.outcomes) == 15 and not opened.passes
    # Every request's clock starts inside its own round: a closed one at
    # its send, within its pass; an open one at its due time, after it.
    for index, (start, end) in enumerate(closed.passes):
        assert all(start <= o.start <= end for o in closed.outcomes[8 * index:8 * index + 8])
        assert all(end <= o.start for o in opened.outcomes[5 * index:5 * index + 5])
    # Nothing was asked to be kept, so no snapshot was held.
    assert all(o.stats is None and o.error is None for o in closed.outcomes + opened.outcomes)
