"""Closed- and open-loop load generation, timed from the due time.

A run is a list of rounds over a fixed set of connections; each round
is a closed pass, then an open-loop segment.  Interleaving the two
spreads both metrics' samples over the whole window, so a slow spell
of the (shared) host lands in both instead of in one phase.

Closed pass: the connections take the next job as soon as their last
answer arrives; the pass is timed from its first send to its last
answer.

Open segment: request ``i`` is due at ``start + i / rate`` whatever
happened to earlier requests.  The generator puts it on a queue that
the connections drain, and its latency runs from the due time to the
response.  So a stall anywhere, in the server or in this process,
shows in every request it delays: a request that waits for a free
connection is late, and is measured late.  (``bcache-loadgen --rate``
starts its clock only once a pooled connection is free, which hides
exactly that wait.)  How late the generator itself queued each request
is its *lag*; a lagging generator sends less load than the schedule
says, so the lag is reported with the latencies.

The loops run on an event loop whose selector waits with
microsecond resolution (``select``); the default epoll selector rounds
every timer up to the next millisecond, which alone would make the
generator up to 1 ms late.
"""

from __future__ import annotations

import asyncio
import math
import selectors
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Coroutine, Protocol, TypeVar

from repro.engine.runner import SweepJob
from repro.serve.client import OverloadedError, RateLimitedError, ServeError
from repro.serve.protocol import ProtocolError
from repro.stats.counters import CacheStats

#: Shed and rate-limited answers are retried this often before failing.
SHED_RETRIES = 5

T = TypeVar("T")


class Client(Protocol):
    """What the loops need of a connection (``AsyncServeClient``,
    ``repro.serve.loadgen.GatewayClient``)."""

    async def simulate(self, job: SweepJob) -> CacheStats: ...

    async def close(self) -> None: ...


Connect = Callable[[], Awaitable[Client]]


@dataclass
class Outcome:
    """One request: ``latency`` is infinite when it failed; it counts
    from ``start`` (``time.perf_counter``): the send in a closed pass,
    the due time in an open segment."""

    job: SweepJob
    latency: float
    lag: float = 0.0
    stats: CacheStats | None = None
    error: str | None = None
    start: float = 0.0


@dataclass
class Counters:
    shed_retries: int = 0
    rate_limited_retries: int = 0


@dataclass
class LoopReport:
    """The outcomes of one kind of loop; ``passes`` holds each closed
    pass's ``(start, end)``."""

    outcomes: list[Outcome] = field(default_factory=list)
    passes: list[tuple[float, float]] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)


@dataclass
class Round:
    closed: list[SweepJob] = field(default_factory=list)
    open: list[SweepJob] = field(default_factory=list)


def run(coro: Coroutine[Any, Any, T], timeout: float) -> T:
    """Run ``coro`` on a fresh fine-grained event loop, within ``timeout``."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(asyncio.wait_for(coro, timeout))
    finally:
        loop.close()


async def drive(connect: Connect, rounds: list[Round], rate: float, connections: int,
                keep: frozenset[SweepJob] = frozenset(),
                seconds: float = math.inf) -> tuple[LoopReport, LoopReport]:
    """Run the rounds over ``connections``, starting no new round once
    ``seconds`` have passed; ``(closed, open)`` reports.

    Only answers to jobs in ``keep`` are kept as ``Outcome.stats``; the
    rest are counted and dropped, so this process stays small (and its
    garbage collector quick) while it measures.
    """
    closed, opened = LoopReport(), LoopReport()
    clients: list[Client] = []
    try:
        for _ in range(connections):
            clients.append(await connect())
        started = time.perf_counter()
        for round_ in rounds:
            if time.perf_counter() - started >= seconds:
                break
            if round_.closed:
                await _closed_pass(clients, round_.closed, closed, keep)
            if round_.open:
                await _open_segment(clients, round_.open, rate, opened, keep)
    finally:
        for client in clients:
            await client.close()
    return closed, opened


async def _send(client: Client, job: SweepJob, counters: Counters,
                 keep: frozenset[SweepJob]) -> tuple[CacheStats | None, str | None]:
    """One request, retried while the server sheds it."""
    for attempt in range(SHED_RETRIES + 1):
        try:
            stats = await client.simulate(job)
            return (stats if job in keep else None), None
        except RateLimitedError as exc:
            counters.rate_limited_retries += 1
            delay = min(2.0, max(0.01, exc.retry_after))
        except OverloadedError:
            counters.shed_retries += 1
            delay = 0.01 * 2 ** attempt
        except (ServeError, ProtocolError, ConnectionError, OSError) as exc:
            return None, f"{type(exc).__name__}: {exc}"
        if attempt < SHED_RETRIES:
            await asyncio.sleep(delay)
    return None, f"still shed after {SHED_RETRIES} retries"


async def _closed_pass(clients: list[Client], jobs: list[SweepJob],
                       report: LoopReport, keep: frozenset[SweepJob]) -> None:
    pending = list(reversed(jobs))

    async def caller(client: Client) -> None:
        while pending:
            job = pending.pop()
            sent = time.perf_counter()
            stats, error = await _send(client, job, report.counters, keep)
            latency = time.perf_counter() - sent if error is None else math.inf
            report.outcomes.append(Outcome(job, latency, 0.0, stats, error, sent))

    started = time.perf_counter()
    await asyncio.gather(*(caller(client) for client in clients))
    report.passes.append((started, time.perf_counter()))


async def _open_segment(clients: list[Client], jobs: list[SweepJob], rate: float,
                        report: LoopReport, keep: frozenset[SweepJob]) -> None:
    queue: asyncio.Queue[tuple[SweepJob, float, float] | None] = asyncio.Queue()

    async def sender(client: Client) -> None:
        while (item := await queue.get()) is not None:
            job, due, lag = item
            stats, error = await _send(client, job, report.counters, keep)
            latency = time.perf_counter() - due if error is None else math.inf
            report.outcomes.append(Outcome(job, latency, lag, stats, error, due))

    senders = [asyncio.ensure_future(sender(client)) for client in clients]
    try:
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((job, due, time.perf_counter() - due))
        for _ in senders:
            queue.put_nowait(None)
        await asyncio.gather(*senders)
    finally:
        for task in senders:
            task.cancel()
        await asyncio.gather(*senders, return_exceptions=True)
