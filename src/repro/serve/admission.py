"""Admission control for the serving tier: rate limits + fair queueing.

The server's original admission story was a single bounded in-flight
budget (``max_pending``): a request that would exceed it was shed with
an ``overloaded`` error.  That bounds memory, but under overload it is
first-come-first-served — one hot client hammering the socket starves
everyone else, and every polite client sees the same shed storm.

This module layers two classic mechanisms in front of that budget:

* **Per-client token buckets** (:class:`TokenBucket`) — each client
  identity accrues ``rate`` job tokens per second up to a ``burst``
  ceiling; a request arriving without tokens is rejected immediately
  with a computed ``retry_after``, which the gateway surfaces as HTTP
  429 + ``Retry-After``.  The clock is monotonic and injectable, so
  tests are deterministic.
* **Weighted fair queueing** (:class:`AdmissionController`) — when the
  in-flight budget is exhausted, admitted-but-waiting requests park in
  bounded per-client FIFO queues and budget slots freed by completions
  are granted **round-robin across clients** (optionally weighted), so
  a flood from one client costs that client, not its neighbours.  Each
  queue is bounded in depth and in wait time; overflow and timeout shed
  with ``overloaded`` exactly like the original path — queueing here is
  a fairness device, never an unbounded buffer.

Everything is single-event-loop state (plain dicts and deques); the
server calls :meth:`AdmissionController.acquire`/``release`` from its
request coroutines.

**Trust model.** Client identity defaults to the peer address but may
be overridden by the request payload (``client`` field, or the
gateway's ``x-bcache-client`` header), and that override is *not*
authenticated.  Per-client rate limiting is therefore a fairness
device for cooperating clients, not a security boundary: an
adversarial caller can rotate identities to mint fresh burst budgets.
The bucket table is LRU-bounded (``max_clients``) so identity rotation
cannot grow server memory without bound, and the global ``max_pending``
budget still caps total work regardless of how identities are spread.
Deployments that need enforceable per-tenant limits must authenticate
the identity upstream (or strip the override and key on peer address).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import events as obs_events
from repro.obs.instrument import record

#: Client identity used when a connection offers none.
ANONYMOUS = "anon"


class RateLimited(Exception):
    """The client is over its token budget; retry after ``retry_after``."""

    def __init__(self, client: str, retry_after: float) -> None:
        super().__init__(
            f"client {client!r} is over its rate limit; "
            f"retry in {retry_after:.3f}s"
        )
        self.client = client
        self.retry_after = retry_after


class AdmissionOverload(Exception):
    """The request cannot be queued fairly; shed it (``overloaded``)."""


@dataclass(slots=True)
class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``.

    ``try_acquire`` returns ``0.0`` when the tokens were taken, else
    the seconds until enough tokens will have accrued (the caller's
    ``Retry-After``).  Time is supplied by the caller so the bucket is
    clock-agnostic and deterministic under test.
    """

    rate: float
    burst: float
    tokens: float = 0.0
    updated: float = field(default=-1.0)

    def try_acquire(self, amount: float, now: float) -> float:
        if self.updated < 0.0:  # first sight of this client: full burst
            self.tokens = self.burst
            self.updated = now
        elif now > self.updated:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated) * self.rate
            )
            self.updated = now
        if self.tokens >= amount:
            self.tokens -= amount
            return 0.0
        if self.rate <= 0.0:
            return float("inf")
        return (amount - self.tokens) / self.rate


@dataclass(slots=True)
class _Waiter:
    """One queued admission: jobs wanted plus the grant future."""

    jobs: int
    future: asyncio.Future[None]


class AdmissionController:
    """Token-bucket rate limiting + weighted fair queueing + shedding.

    Args:
        max_pending: in-flight job budget (the original shed threshold).
        rate: per-client token refill in jobs/second; ``0`` disables
            rate limiting entirely.
        burst: per-client token ceiling (defaults to ``rate`` when
            unset, minimum 1 token).
        queue_depth: per-client bounded wait queue; ``0`` restores the
            original immediate-shed behaviour.
        queue_timeout: max seconds a request may wait for a slot before
            being shed — the explicit bound on queueing delay.
        weights: optional per-client grant weights (grants per
            round-robin turn; default 1).
        max_clients: bound on tracked client identities; beyond it the
            least-recently-seen bucket is evicted (identity is
            caller-supplied and unauthenticated, so the table must not
            grow with the number of identities a caller invents — see
            the module docstring's trust model).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_pending: int,
        *,
        rate: float = 0.0,
        burst: float = 0.0,
        queue_depth: int = 0,
        queue_timeout: float = 2.0,
        weights: dict[str, int] | None = None,
        max_clients: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_pending = max(1, max_pending)
        self.rate = max(0.0, rate)
        self.burst = max(1.0, burst if burst > 0.0 else self.rate)
        self.queue_depth = max(0, queue_depth)
        self.queue_timeout = max(0.0, queue_timeout)
        self.weights = dict(weights) if weights else {}
        self.max_clients = max(1, max_clients)
        self._clock = clock
        self._inflight = 0
        #: client -> token bucket, most-recently-seen last (LRU order).
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self.buckets_evicted = 0
        #: client -> FIFO of waiters; OrderedDict doubles as the
        #: round-robin rotation order (move_to_end after each grant).
        self._queues: "OrderedDict[str, deque[_Waiter]]" = OrderedDict()
        self.rate_limited = 0
        self.queued = 0
        self.shed_queue_full = 0
        self.shed_timeout = 0

    # -- introspection --------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    def waiting(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def snapshot(self) -> dict[str, Any]:
        """Counters for the server's ``status`` response."""
        return {
            "rate": self.rate,
            "burst": self.burst,
            "queue_depth": self.queue_depth,
            "queue_timeout": self.queue_timeout,
            "inflight": self._inflight,
            "waiting": self.waiting(),
            "clients_tracked": len(self._buckets),
            "max_clients": self.max_clients,
            "buckets_evicted": self.buckets_evicted,
            "rate_limited": self.rate_limited,
            "queued": self.queued,
            "shed_queue_full": self.shed_queue_full,
            "shed_timeout": self.shed_timeout,
        }

    # -- admission ------------------------------------------------------
    async def acquire(self, client: str, jobs: int) -> None:
        """Admit ``jobs`` for ``client`` or raise.

        Raises :class:`RateLimited` when the client's bucket is dry and
        :class:`AdmissionOverload` when the budget is exhausted and the
        request cannot be queued (depth or wait bound exceeded).  On
        return the jobs are accounted in flight; the caller must pair
        with :meth:`release`.
        """
        client = client or ANONYMOUS
        if self.rate > 0.0:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(rate=self.rate, burst=self.burst)
                self._buckets[client] = bucket
                while len(self._buckets) > self.max_clients:
                    self._buckets.popitem(last=False)
                    self.buckets_evicted += 1
            else:
                self._buckets.move_to_end(client)
            retry_after = bucket.try_acquire(float(jobs), self._clock())
            if retry_after > 0.0:
                self.rate_limited += 1
                record("repro_admission_shed_total", reason="rate_limited")
                obs_events.emit("admission.shed", reason="rate_limited", client=client)
                raise RateLimited(client, retry_after)
        if self._fits(jobs) and not self._queues:
            self._inflight += jobs
            return
        if self.queue_depth <= 0:
            record("repro_admission_shed_total", reason="budget")
            obs_events.emit("admission.shed", reason="budget", client=client)
            raise AdmissionOverload(
                f"in-flight job budget ({self.max_pending}) exhausted"
            )
        queue = self._queues.get(client)
        if queue is None:
            queue = deque()
            self._queues[client] = queue
        if len(queue) >= self.queue_depth:
            self.shed_queue_full += 1
            record("repro_admission_shed_total", reason="queue_full")
            obs_events.emit("admission.shed", reason="queue_full", client=client)
            if not queue:
                self._queues.pop(client, None)
            raise AdmissionOverload(
                f"client {client!r} wait queue is full ({self.queue_depth})"
            )
        waiter = _Waiter(
            jobs=jobs, future=asyncio.get_running_loop().create_future()
        )
        queue.append(waiter)
        self.queued += 1
        started = self._clock()
        try:
            await asyncio.wait_for(waiter.future, self.queue_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self._discard(client, waiter)
            self.shed_timeout += 1
            record("repro_admission_shed_total", reason="timeout")
            obs_events.emit("admission.shed", reason="timeout", client=client)
            raise AdmissionOverload(
                f"no capacity within {self.queue_timeout:g}s"
            ) from None
        except asyncio.CancelledError:
            self._discard(client, waiter)
            raise
        record("repro_admission_wait_seconds", self._clock() - started)

    def release(self, jobs: int) -> None:
        """Return ``jobs`` worth of budget and grant queued waiters."""
        self._inflight = max(0, self._inflight - jobs)
        self._grant_round_robin()

    # -- internals ------------------------------------------------------
    def _fits(self, jobs: int) -> bool:
        return self._inflight + jobs <= self.max_pending

    def _discard(self, client: str, waiter: _Waiter) -> None:
        queue = self._queues.get(client)
        if queue is None:
            return
        try:
            queue.remove(waiter)
        except ValueError:
            pass
        if not queue:
            self._queues.pop(client, None)

    def _grant_round_robin(self) -> None:
        """Hand freed budget to waiters, one fair turn per client.

        Each pass grants every queued client up to its weight in
        requests (head of its FIFO first) while budget lasts.  A client
        that received a grant rotates to the back; a client whose head
        request did not fit keeps its place at the front, so the next
        freed slot goes to it, not back to whoever drained the budget.
        """
        progressed = True
        while progressed and self._queues:
            progressed = False
            for client in list(self._queues):
                queue = self._queues.get(client)
                if not queue:
                    self._queues.pop(client, None)
                    continue
                turns = max(1, self.weights.get(client, 1))
                granted = False
                for _ in range(turns):
                    if not queue:
                        break
                    head = queue[0]
                    if head.future.done():  # timed out / cancelled
                        queue.popleft()
                        progressed = True
                        continue
                    if not self._fits(head.jobs):
                        break
                    queue.popleft()
                    self._inflight += head.jobs
                    head.future.set_result(None)
                    progressed = True
                    granted = True
                if not queue:
                    self._queues.pop(client, None)
                elif granted:
                    self._queues.move_to_end(client)
