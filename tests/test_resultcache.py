"""The content-addressed result cache and its admission front door.

Three contracts under test:

* **Job keys** — ``SweepJob.key()`` covers exactly the dataclass's
  fields, and its bytes are pinned by a golden string because every
  on-disk entry is filed under them.
* **Two-tier store** — memory LRU in front of a CRC-framed disk tier:
  promotion, eviction, corruption quarantine, fingerprint invalidation,
  and a ``put`` that reports whether the entry reached disk.
* **Admission** — deterministic token buckets under an injected clock,
  and fair queueing that makes a flooding client pay for its own flood.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.engine.resilience import job_key
from repro.engine.results import ResultCache, job_hash
from repro.engine.runner import SweepJob
from repro.serve.admission import (
    AdmissionController,
    AdmissionOverload,
    RateLimited,
    TokenBucket,
)
from repro.serve.singleflight import Singleflight
from repro.stats.counters import CacheStats

#: Blobs and entries written by an earlier build of the stores.
FORMATS = Path(__file__).resolve().parent / "fixtures" / "formats"

JOB = SweepJob(spec="mf8_bas8", benchmark="gcc", n=3000, with_kinds=True)
SNAP = {"accesses": 3000, "misses": 412, "hits": 2588}


# ----------------------------------------------------------------------
# Job keys
# ----------------------------------------------------------------------
class TestCanonicalKey:
    def test_matches_resilience_job_key_for_sweepjob(self):
        # resilience.job_key is kept as a thin alias for callers that
        # import it; it must stay the very same bytes.
        assert job_key(JOB) == JOB.key()

    def test_hash_depends_on_fingerprint(self):
        assert job_hash(JOB, "aaaa") != job_hash(JOB, "bbbb")
        assert len(job_hash(JOB)) == 32  # 128 bits of hex

    def test_key_field_sets_agree_everywhere(self):
        # The key is built from the dataclass, so it names every field
        # and nothing else.
        sweep_fields = {f.name for f in dataclasses.fields(SweepJob)}
        assert set(json.loads(JOB.key())) == sweep_fields

    def test_golden_key_string(self):
        # Every stored entry (result cache and run journal) is filed
        # under these bytes: changing them orphans every entry on disk.
        assert JOB.key() == (
            '{"benchmark":"gcc","line_size":32,"n":3000,"policy":"lru",'
            '"seed":2006,"side":"data","size":16384,"spec":"mf8_bas8",'
            '"with_kinds":true}'
        )
        assert job_hash(JOB) == "cc10c0f73ecd4d6d4f1c2c4649e3d30e"


# ----------------------------------------------------------------------
# Two-tier store
# ----------------------------------------------------------------------
class TestResultCache:
    def _cache(self, tmp_path, **kw) -> ResultCache:
        kw.setdefault("fingerprint", "testfp0000000000")
        kw.setdefault("fsync", False)
        return ResultCache(tmp_path / "rc", **kw)

    def test_roundtrip_memory_hit(self, tmp_path):
        cache = self._cache(tmp_path)
        assert cache.get(JOB) is None
        cache.put(JOB, SNAP)
        assert cache.get(JOB) == SNAP
        snap = cache.snapshot()
        assert snap["hits_memory"] == 1
        assert snap["misses"] == 1
        assert snap["stores"] == 1

    def test_disk_hit_survives_process_restart(self, tmp_path):
        self._cache(tmp_path).put(JOB, SNAP)
        fresh = self._cache(tmp_path)  # empty memory tier
        assert fresh.get(JOB) == SNAP
        assert fresh.snapshot()["hits_disk"] == 1
        # The disk hit was promoted: the next probe is a memory hit.
        assert fresh.lookup_memory(fresh.key(JOB)) == SNAP

    def test_lru_evicts_oldest_entry(self, tmp_path):
        cache = self._cache(tmp_path, capacity=2)
        jobs = [SweepJob(spec="dm", benchmark="gcc", n=1000 + i)
                for i in range(3)]
        for job in jobs:
            cache.put(job, {"n": job.n})
        snap = cache.snapshot()
        assert snap["entries_memory"] == 2
        assert snap["evictions"] == 1
        assert cache.lookup_memory(cache.key(jobs[0])) is None
        # ... but the evicted entry is still on disk.
        assert cache.get(jobs[0]) == {"n": 1000}

    def test_corrupt_entry_is_quarantined_not_served(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put(JOB, SNAP)
        path = cache.entry_path(cache.key(JOB))
        path.write_text(path.read_text("utf-8")[:-10] + "corrupted!\n")
        fresh = self._cache(tmp_path)
        assert fresh.get(JOB) is None  # recompute, never trust bit rot
        assert fresh.snapshot()["quarantined"] == 1
        assert not path.exists()
        assert (fresh.quarantine_root / path.name).exists()

    def test_prune_stale_removes_other_fingerprints_only(self, tmp_path):
        old = self._cache(tmp_path, fingerprint="oldfp00000000000")
        old.put(JOB, SNAP)
        new = self._cache(tmp_path, fingerprint="newfp00000000000")
        new.put(JOB, SNAP)
        assert new.prune_stale() == 1
        assert not old.dir.exists()
        assert new.get(JOB) == SNAP  # own fingerprint untouched

    def test_key_folds_fingerprint(self, tmp_path):
        a = self._cache(tmp_path, fingerprint="aaaa000000000000")
        b = self._cache(tmp_path, fingerprint="bbbb000000000000")
        assert a.key(JOB) != b.key(JOB)

    def test_undecodable_snapshot_is_quarantined(self, tmp_path):
        # The CRC holds but the stats are not a CacheStats snapshot: a
        # run journal must re-run the job, not resurrect garbage.
        self._cache(tmp_path).put(JOB, SNAP)
        fresh = self._cache(tmp_path)
        assert fresh.get_stats(JOB) is None
        assert fresh.snapshot()["quarantined"] == 1
        assert fresh.get(JOB) is None

    def test_snapshot_without_slow_hit_counters_is_recomputed(self, tmp_path):
        # An entry stored before CacheStats counted slow hits must not
        # come back with zero slow hits: it is quarantined and re-run.
        stats = CacheStats(num_sets=4, accesses=3, hits=2, misses=1, reads=3,
                           slow_hits=1, slow_hit_cycles=2,
                           set_accesses=[3, 0, 0, 0], set_hits=[2, 0, 0, 0],
                           set_misses=[1, 0, 0, 0])
        self._cache(tmp_path).put(JOB, stats.snapshot())
        assert self._cache(tmp_path).get_stats(JOB) == stats
        old = stats.snapshot()
        del old["slow_hits"], old["slow_hit_cycles"]
        self._cache(tmp_path).put(JOB, old)
        fresh = self._cache(tmp_path)
        assert fresh.get_stats(JOB) is None
        assert fresh.snapshot()["quarantined"] == 1

    def test_put_reports_a_failed_write(self, tmp_path, read_only_dir):
        # Serving ignores the result (the memory tier still answers);
        # the run journal raises on it (tests/test_resilience.py).
        cache = self._cache(tmp_path)
        assert cache.put(JOB, SNAP) is True
        other = SweepJob(spec="dm", benchmark="gcc", n=1000)
        read_only_dir(cache.dir)
        assert cache.put(other, SNAP) is False
        assert cache.snapshot()["stores"] == 1
        assert cache.get(other) == SNAP  # memory tier

    def test_loads_and_rewrites_an_earlier_entry(self, tmp_path):
        job = SweepJob(spec="dm", benchmark="gzip", n=16, size=1024)
        name = "b7951acd552046eb450f3d9a78d4e374.json"
        old = ResultCache(tmp_path / "old", fingerprint="format", fsync=False)
        old.dir.mkdir(parents=True)
        shutil.copy(FORMATS / name, old.dir / name)
        stats = old.get_stats(job)
        assert stats is not None and (stats.accesses, stats.misses) == (16, 12)
        assert old.snapshot()["hits_disk"] == 1
        new = ResultCache(tmp_path / "new", fingerprint="format", fsync=False)
        assert new.put(job, stats.snapshot())
        assert (new.dir / name).read_bytes() == (FORMATS / name).read_bytes()


# ----------------------------------------------------------------------
# Singleflight
# ----------------------------------------------------------------------
class TestSingleflight:
    def test_concurrent_identical_calls_execute_once(self):
        async def scenario():
            flight = Singleflight()
            executions = 0
            gate = asyncio.Event()

            async def supplier():
                nonlocal executions
                executions += 1
                await gate.wait()
                return SNAP

            tasks = [
                asyncio.ensure_future(flight.run("k", supplier))
                for _ in range(5)
            ]
            await asyncio.sleep(0)  # let every caller reach the flight
            assert flight.inflight() == 1
            gate.set()
            results = await asyncio.gather(*tasks)
            return flight, executions, results

        flight, executions, results = asyncio.run(scenario())
        assert executions == 1
        assert [r for r, _ in results] == [SNAP] * 5
        assert sorted(shared for _, shared in results) == [
            False, True, True, True, True,
        ]
        assert flight.leaders == 1
        assert flight.waits == 4
        assert flight.inflight() == 0

    def test_leader_failure_propagates_to_waiters(self):
        async def scenario():
            flight = Singleflight()
            gate = asyncio.Event()

            async def supplier():
                await gate.wait()
                raise RuntimeError("shard died")

            tasks = [
                asyncio.ensure_future(flight.run("k", supplier))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            gate.set()
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_cancelled_leader_does_not_poison_waiters(self):
        # The execution is owned by the flight, not the leader's
        # request coroutine: tearing down the leader's connection must
        # not fail the N unrelated callers sharing the flight.
        async def scenario():
            flight = Singleflight()
            gate = asyncio.Event()

            async def supplier():
                await gate.wait()
                return SNAP

            leader = asyncio.ensure_future(flight.run("k", supplier))
            await asyncio.sleep(0)
            waiters = [
                asyncio.ensure_future(flight.run("k", supplier))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            gate.set()
            results = await asyncio.gather(*waiters)
            return flight, results

        flight, results = asyncio.run(scenario())
        assert [r for r, _ in results] == [SNAP] * 3
        assert all(shared for _, shared in results)
        assert flight.inflight() == 0

    def test_last_caller_cancellation_cancels_the_execution(self):
        # No interested caller left -> the work is not orphaned.
        async def scenario():
            flight = Singleflight()
            started = asyncio.Event()
            cancelled = asyncio.Event()

            async def supplier():
                started.set()
                try:
                    await asyncio.sleep(60)
                except asyncio.CancelledError:
                    cancelled.set()
                    raise

            leader = asyncio.ensure_future(flight.run("k", supplier))
            await started.wait()
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            await asyncio.wait_for(cancelled.wait(), 1.0)
            return flight

        flight = asyncio.run(scenario())
        assert flight.inflight() == 0

    def test_sequential_calls_both_lead(self):
        async def scenario():
            flight = Singleflight()

            async def supplier():
                return 1

            await flight.run("k", supplier)
            await flight.run("k", supplier)
            return flight

        flight = asyncio.run(scenario())
        assert flight.leaders == 2
        assert flight.waits == 0


# ----------------------------------------------------------------------
# Token bucket (pure, deterministic)
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_first_sight_grants_full_burst(self):
        bucket = TokenBucket(rate=2.0, burst=4.0)
        assert bucket.try_acquire(4.0, now=100.0) == 0.0
        assert bucket.try_acquire(1.0, now=100.0) == pytest.approx(0.5)

    def test_refill_is_linear_and_capped(self):
        bucket = TokenBucket(rate=2.0, burst=4.0)
        bucket.try_acquire(4.0, now=0.0)  # drain
        assert bucket.try_acquire(1.0, now=0.5) == 0.0  # 1 token accrued
        # A long sleep cannot bank more than the burst ceiling.
        assert bucket.try_acquire(5.0, now=1000.0) == pytest.approx(0.5)

    def test_retry_after_is_exact(self):
        bucket = TokenBucket(rate=4.0, burst=4.0)
        bucket.try_acquire(4.0, now=0.0)
        # 3 tokens short at 4/s -> 0.75 s.
        assert bucket.try_acquire(3.0, now=0.0) == pytest.approx(0.75)


# ----------------------------------------------------------------------
# Admission controller
# ----------------------------------------------------------------------
class _Clock:
    """Injectable monotonic clock for deterministic admission tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestAdmissionController:
    def test_rate_limit_rejects_with_retry_after(self):
        async def scenario():
            clock = _Clock()
            ctl = AdmissionController(
                100, rate=2.0, burst=2.0, clock=clock
            )
            await ctl.acquire("alice", 2)  # burst spent
            with pytest.raises(RateLimited) as exc:
                await ctl.acquire("alice", 2)
            assert exc.value.retry_after == pytest.approx(1.0)
            # Another client has its own bucket.
            await ctl.acquire("bob", 2)
            # Time heals alice.
            clock.now = 1.0
            await ctl.acquire("alice", 2)
            return ctl

        ctl = asyncio.run(scenario())
        assert ctl.rate_limited == 1
        assert ctl.inflight == 6

    def test_budget_exhaustion_sheds_without_queue(self):
        async def scenario():
            ctl = AdmissionController(2, queue_depth=0)
            await ctl.acquire("a", 2)
            with pytest.raises(AdmissionOverload, match="budget"):
                await ctl.acquire("b", 1)
            ctl.release(2)
            await ctl.acquire("b", 1)  # freed budget admits again
            return ctl

        ctl = asyncio.run(scenario())
        assert ctl.inflight == 1

    def test_fair_queue_round_robins_across_clients(self):
        # One flooding client queues 4 requests; a polite client queues
        # 1.  Round-robin granting must serve the polite client on the
        # first freed slot, not after the entire flood.
        async def scenario():
            ctl = AdmissionController(1, queue_depth=8, queue_timeout=30.0)
            await ctl.acquire("flood", 1)  # budget now full
            order: list[str] = []

            async def wait_then_record(client: str) -> None:
                await ctl.acquire(client, 1)
                order.append(client)
                ctl.release(1)

            floods = [
                asyncio.ensure_future(wait_then_record("flood"))
                for _ in range(4)
            ]
            await asyncio.sleep(0)  # flood queues first
            polite = asyncio.ensure_future(wait_then_record("polite"))
            await asyncio.sleep(0)
            assert ctl.waiting() == 5
            ctl.release(1)  # free the slot; grants cascade via release
            await asyncio.gather(polite, *floods)
            return ctl, order

        ctl, order = asyncio.run(scenario())
        # The polite client was not last despite arriving last.
        assert order.index("polite") < len(order) - 1
        assert ctl.queued == 5
        assert ctl.waiting() == 0

    def test_queue_timeout_sheds(self):
        async def scenario():
            ctl = AdmissionController(1, queue_depth=4, queue_timeout=0.05)
            await ctl.acquire("a", 1)
            with pytest.raises(AdmissionOverload, match="no capacity"):
                await ctl.acquire("b", 1)
            return ctl

        ctl = asyncio.run(scenario())
        assert ctl.shed_timeout == 1
        assert ctl.waiting() == 0  # timed-out waiter fully discarded

    def test_bucket_table_is_lru_bounded(self):
        # Client identity is caller-supplied and unauthenticated, so
        # an identity-rotating caller must not grow the bucket table
        # without bound: least-recently-seen buckets are evicted.
        async def scenario():
            clock = _Clock()
            ctl = AdmissionController(
                1000, rate=1.0, burst=5.0, max_clients=3, clock=clock
            )
            for name in ("a", "b", "c"):
                await ctl.acquire(name, 1)
            await ctl.acquire("a", 1)  # refresh a: b becomes the LRU
            await ctl.acquire("d", 1)  # over the cap: b is evicted
            return ctl

        ctl = asyncio.run(scenario())
        assert set(ctl._buckets) == {"c", "a", "d"}
        assert ctl.buckets_evicted == 1
        assert ctl.snapshot()["clients_tracked"] == 3
        assert ctl.snapshot()["max_clients"] == 3

    def test_queue_depth_bound_sheds(self):
        async def scenario():
            ctl = AdmissionController(1, queue_depth=1, queue_timeout=5.0)
            await ctl.acquire("a", 1)
            queued = asyncio.ensure_future(ctl.acquire("b", 1))
            await asyncio.sleep(0)
            with pytest.raises(AdmissionOverload, match="queue is full"):
                await ctl.acquire("b", 1)
            ctl.release(1)
            await queued
            return ctl

        ctl = asyncio.run(scenario())
        assert ctl.shed_queue_full == 1
