"""Singleflight: collapse concurrent identical async work.

The served result cache itself (:class:`~repro.engine.results.ResultCache`)
answers repeats that already finished; this layer covers the window in
between — identical jobs that arrive while the first one is still
executing await its result instead of executing again.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.obs.instrument import record


class Singleflight:
    """Collapse concurrent identical async work: one execution, N waiters.

    The first caller of :meth:`run` for a key becomes the **leader**
    and starts the supplier; every caller that arrives while that
    execution is in flight awaits the same task and receives the same
    result (or exception).  Unlike the micro-batcher's gather window,
    this holds for the *entire* execution, so identical jobs collapse
    across batch windows too.

    The execution runs in its **own task**, tied to the flight rather
    than to the leader's request coroutine: a leader whose connection
    is torn down mid-flight (``CancelledError``) does not poison the
    waiters — they keep awaiting the shielded execution and still get
    the real result.  The work is only cancelled when the *last*
    interested caller goes away.

    Single event loop only (plain dict state, no locks needed).
    """

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Task[Any]] = {}
        self._interest: dict[str, int] = {}
        self.leaders = 0
        self.waits = 0

    def inflight(self) -> int:
        return len(self._inflight)

    async def run(
        self, key: str, supplier: Callable[[], Awaitable[Any]]
    ) -> tuple[Any, bool]:
        """``(result, shared)``: shared is True for non-leader callers."""
        task = self._inflight.get(key)
        shared = task is not None
        if shared:
            self.waits += 1
            record("repro_resultcache_singleflight_total")
        else:
            task = asyncio.get_running_loop().create_task(supplier())
            self._inflight[key] = task
            self._interest[key] = 0
            self.leaders += 1
        self._interest[key] += 1
        try:
            result = await asyncio.shield(task)
        except asyncio.CancelledError:
            if task.done():
                self._forget(key, task)
            else:
                # This caller was torn down; the execution outlives it
                # for the sake of the other interested callers.  Only
                # the last one to leave cancels the work.
                remaining = self._interest.get(key, 1) - 1
                self._interest[key] = remaining
                if remaining <= 0:
                    self._forget(key, task)
                    task.cancel()
            raise
        except BaseException:
            self._forget(key, task)
            raise
        self._forget(key, task)
        return result, shared

    def _forget(self, key: str, task: asyncio.Task[Any]) -> None:
        """Retire a finished (or abandoned) flight; idempotent."""
        if self._inflight.get(key) is task:
            self._inflight.pop(key, None)
            self._interest.pop(key, None)
