"""The serve stack in-process: batcher coalescing, shard routing and
restart, and the asyncio server's request/backpressure/drain semantics.

Served statistics must be bit-identical to a direct ``access_trace``
replay — that is the contract that makes ``--connect`` a drop-in."""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.caches import make_cache
from repro.engine.results import ResultCache
from repro.engine.runner import SweepJob, execute_job
from repro.engine.trace_store import default_store
from repro.serve.batcher import MicroBatcher, SimulationError
from repro.serve.client import (
    AsyncServeClient,
    OverloadedError,
    ServeError,
    parse_address,
)
from repro.serve.protocol import HEADER
from repro.serve.server import ServeConfig, SimServer, _job_from_payload, BadRequest
from repro.engine.workers import ResilienceConfig, trace_shard_key
from repro.serve.workers import ShardPool

JOB = SweepJob(spec="mf8_bas8", benchmark="gcc", n=3000, with_kinds=True)


# ----------------------------------------------------------------------
# Batcher (deterministic, against a fake pool)
# ----------------------------------------------------------------------
class _FakePool:
    """Records batches; resolves every job with a canned payload."""

    def __init__(self, shards: int = 1, fail: bool = False) -> None:
        self.shards = shards
        self.fail = fail
        self.batches: list[tuple[int, list[SweepJob]]] = []

    def shard_of(self, job: SweepJob) -> int:
        return trace_shard_key(job) % self.shards

    async def run_batch(self, shard_id, jobs, traces):
        self.batches.append((shard_id, list(jobs)))
        if self.fail:
            return [("error", "injected failure") for _ in jobs]
        return [("ok", {"key": job.key()}) for job in jobs]


class TestMicroBatcher:
    def test_identical_jobs_share_one_execution(self):
        async def scenario():
            pool = _FakePool()
            batcher = MicroBatcher(pool, window=0.01)
            results = await asyncio.gather(*(batcher.submit(JOB) for _ in range(6)))
            return pool, batcher, results

        pool, batcher, results = asyncio.run(scenario())
        assert len(pool.batches) == 1
        assert len(pool.batches[0][1]) == 1  # one distinct job travelled
        assert all(r == {"key": JOB.key()} for r in results)
        assert batcher.metrics.requests == 6
        assert batcher.metrics.coalesced == 5
        assert batcher.metrics.mean_batch_size == 6.0

    def test_max_batch_flushes_without_waiting_for_window(self):
        async def scenario():
            pool = _FakePool()
            # A 10 s window would time the test out if the size trigger
            # did not fire.
            batcher = MicroBatcher(pool, window=10.0, max_batch=2)
            jobs = [
                SweepJob(spec=spec, benchmark="gzip", n=1000)
                for spec in ("dm", "2way")
            ]
            return await asyncio.wait_for(
                asyncio.gather(*(batcher.submit(j) for j in jobs)), timeout=5.0
            )

        assert len(asyncio.run(scenario())) == 2

    def test_worker_error_raises_simulation_error(self):
        async def scenario():
            batcher = MicroBatcher(_FakePool(fail=True), window=0.001)
            await batcher.submit(JOB)

        with pytest.raises(SimulationError, match="injected failure"):
            asyncio.run(scenario())

    def test_drain_flushes_pending(self):
        async def scenario():
            pool = _FakePool()
            batcher = MicroBatcher(pool, window=60.0)
            waiter = asyncio.ensure_future(batcher.submit(JOB))
            await asyncio.sleep(0)  # let submit reach the pending bucket
            assert batcher.pending_jobs == 1
            await batcher.drain()
            return await waiter

        assert asyncio.run(scenario()) == {"key": JOB.key()}


# ----------------------------------------------------------------------
# Shard pool
# ----------------------------------------------------------------------
class TestShardPool:
    def test_trace_affinity_ignores_spec(self):
        a = SweepJob(spec="dm", benchmark="gcc", n=5000)
        b = SweepJob(spec="mf8_bas8", benchmark="gcc", n=5000)
        assert trace_shard_key(a) == trace_shard_key(b)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardPool(0)

    def test_batch_matches_execute_job(self):
        job = SweepJob(spec="dm", benchmark="gzip", n=2000)
        with ShardPool(1) as pool:
            [(status, snapshot)] = pool.run_batch_blocking(0, [job])
        assert status == "ok"
        assert snapshot == execute_job(job).snapshot()

    def test_unwritable_result_cache_still_serves(self, tmp_path, read_only_dir):
        # A serving cache that cannot persist is still a cache: the
        # failed write-through must not fail the request.
        job = SweepJob(spec="dm", benchmark="gzip", n=2000)
        cache = ResultCache(tmp_path / "rc", fingerprint="testfp0000000000", fsync=False)
        read_only_dir(cache.dir)
        with ShardPool(1, cache=cache) as pool:
            [(status, snapshot)] = pool.run_batch_blocking(0, [job])
        assert status == "ok"
        assert snapshot == execute_job(job).snapshot()
        assert cache.snapshot()["stores"] == 0

    def test_bad_spec_reports_error_not_crash(self):
        job = SweepJob(spec="no_such_spec", benchmark="gzip", n=1000)
        with ShardPool(1) as pool:
            [(status, message)] = pool.run_batch_blocking(0, [job])
            assert status == "error"
            assert "no_such_spec" in message
            # The shard survives a failing job.
            [(status2, _)] = pool.run_batch_blocking(
                0, [SweepJob(spec="dm", benchmark="gzip", n=1000)]
            )
            assert status2 == "ok"

    def test_dead_shard_restarts_and_serves(self):
        job = SweepJob(spec="dm", benchmark="gzip", n=1500)
        with ShardPool(1) as pool:
            os.kill(pool.snapshot()[0]["pid"], signal.SIGKILL)
            [(status, snapshot)] = pool.run_batch_blocking(0, [job])
            assert status == "ok"
            assert snapshot == execute_job(job).snapshot()
            assert pool.snapshot()[0]["restarts"] >= 1

    def test_stopped_shard_is_killed_restarted_and_answers(self):
        # A hung shard used to block its callers forever; now its
        # deadline kills it and the batch goes to a fresh worker.
        job = SweepJob(spec="dm", benchmark="gzip", n=1500)
        with ShardPool(1, config=ResilienceConfig(job_timeout=2.0)) as pool:
            stopped = pool.snapshot()[0]["pid"]
            os.kill(stopped, signal.SIGSTOP)
            [(status, snapshot)] = pool.run_batch_blocking(0, [job])
            assert (status, snapshot) == ("ok", execute_job(job).snapshot())
            shard = pool.snapshot()[0]
            assert shard["restarts"] == 1
            assert shard["pid"] != stopped
            assert pool.supervisor.fallback_batches == 0


# ----------------------------------------------------------------------
# The asyncio server, end to end in-process (ephemeral TCP port)
# ----------------------------------------------------------------------
def serve(config: ServeConfig, scenario):
    """Start a server, run ``scenario(server, address)``, drain."""

    async def runner():
        server = SimServer(config)
        await server.start()
        try:
            host, port = server.tcp_address
            return await scenario(server, f"{host}:{port}")
        finally:
            await server.drain()

    return asyncio.run(runner())


def quick_config(**overrides) -> ServeConfig:
    defaults = dict(port=0, shards=1, window=0.01)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestSimServer:
    def test_simulate_bit_identical_to_access_trace(self):
        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                return await client.simulate(JOB)
            finally:
                await client.close()

        served = serve(quick_config(), scenario)
        # Same path as the CLI tools...
        assert served == execute_job(JOB)
        # ...and against the raw batch kernel, not just the runner.
        cache = make_cache(JOB.spec, size=JOB.size, line_size=JOB.line_size)
        addresses, kinds = default_store().accesses(
            JOB.benchmark, JOB.side, JOB.n, JOB.seed
        )
        cache.access_trace(addresses, kinds)
        assert served == cache.stats

    def test_concurrent_clients_coalesce(self):
        async def scenario(server, address):
            clients = [await AsyncServeClient.connect(address) for _ in range(8)]
            try:
                results = await asyncio.gather(
                    *(client.simulate(JOB) for client in clients)
                )
            finally:
                for client in clients:
                    await client.close()
            return results, server.batcher.metrics

        results, metrics = serve(quick_config(), scenario)
        expected = execute_job(JOB)
        assert all(stats == expected for stats in results)
        assert metrics.mean_batch_size > 1.0
        assert metrics.coalesced > 0

    def test_sweep_order_aligned(self):
        jobs = [
            SweepJob(spec=spec, benchmark="gzip", n=1500)
            for spec in ("dm", "2way", "mf8_bas8")
        ]

        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                return await client.sweep(jobs)
            finally:
                await client.close()

        swept = serve(quick_config(shards=2), scenario)
        assert swept == [execute_job(job) for job in jobs]

    def test_status_reports_metrics(self):
        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                await client.simulate(JOB)
                return await client.status()
            finally:
                await client.close()

        status = serve(quick_config(), scenario)
        assert status["server"]["completed"] == 1
        assert status["server"]["inflight_jobs"] == 0
        assert status["batcher"]["requests"] == 1
        assert len(status["shards"]) == 1
        assert status["shards"][0]["alive"]
        # Fleet-coordination fields: a cluster coordinator keys its
        # compatibility and batch sizing off these three.
        assert status["server"]["draining"] is False
        assert status["server"]["protocol_version"] == 1
        assert status["server"]["cpus_usable"] >= 1

    def test_overload_sheds_with_explicit_error(self):
        # Budget of one in-flight job and a long window: the second
        # request deterministically exceeds the budget while the first
        # is still gathering.
        config = quick_config(window=0.3, max_pending=1)

        async def scenario(server, address):
            first = await AsyncServeClient.connect(address)
            second = await AsyncServeClient.connect(address)
            try:
                pending = asyncio.ensure_future(first.simulate(JOB))
                await asyncio.sleep(0.05)  # first job admitted, gathering
                other = SweepJob(spec="dm", benchmark="gzip", n=1000)
                with pytest.raises(OverloadedError):
                    await second.simulate(other)
                stats = await pending
            finally:
                await first.close()
                await second.close()
            return stats, server.metrics.shed

        stats, shed = serve(config, scenario)
        assert stats == execute_job(JOB)
        assert shed == 1

    def test_oversized_sweep_is_shed_whole(self):
        config = quick_config(max_pending=2)
        jobs = [
            SweepJob(spec=spec, benchmark="gzip", n=1000)
            for spec in ("dm", "2way", "4way")
        ]

        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                with pytest.raises(OverloadedError):
                    await client.sweep(jobs)
                return server.admission.inflight
            finally:
                await client.close()

        assert serve(config, scenario) == 0  # nothing leaked into the budget

    def test_bad_requests_are_reported_not_fatal(self):
        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            errors = []
            try:
                for payload in (
                    {"op": "noop"},
                    {"op": "simulate"},  # missing spec/benchmark
                    {"op": "simulate", "spec": "dm", "benchmark": "gzip",
                     "n": 10 ** 9},
                    {"op": "simulate", "spec": "dm", "benchmark": "gzip",
                     "side": "sideways"},
                    {"op": "sweep", "jobs": []},
                    {"op": "sweep", "jobs": ["dm"]},
                ):
                    response = await client.request(payload)
                    assert response["ok"] is False
                    errors.append(response["error"])
                # The connection still works afterwards.
                stats = await client.simulate(JOB)
            finally:
                await client.close()
            return errors, stats

        errors, stats = serve(quick_config(), scenario)
        assert set(errors) == {"bad_request"}
        assert stats == execute_job(JOB)

    def test_request_id_is_echoed(self):
        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                return await client.request({"op": "status", "id": "req-7"})
            finally:
                await client.close()

        assert serve(quick_config(), scenario)["id"] == "req-7"

    def test_oversized_frame_gets_error_then_close(self):
        async def scenario(server, address):
            host, port = address.rsplit(":", 1)
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(HEADER.pack(server.config.max_frame + 1))
            await writer.drain()
            from repro.serve.protocol import read_frame

            response = await read_frame(reader)
            eof = await read_frame(reader)
            writer.close()
            return response, eof

        response, eof = serve(quick_config(), scenario)
        assert response["error"] == "frame_too_large"
        assert eof is None  # server closed the connection afterwards

    def test_drain_op_refuses_new_work(self):
        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                response = await client.request({"op": "drain"})
                assert response == {"ok": True, "draining": True}
                await server.wait_stopped()
                with pytest.raises(OSError):
                    await AsyncServeClient.connect(address)
            finally:
                await client.close()
            return server.draining

        assert serve(quick_config(), scenario) is True


class TestServeTelemetry:
    def test_metrics_op_renders_parseable_exposition(self):
        from repro.obs.exposition import CONTENT_TYPE, parse_text

        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                await client.simulate(JOB)
                return await client.request({"op": "metrics"})
            finally:
                await client.close()

        response = serve(quick_config(), scenario)
        assert response["ok"] is True
        assert response["content_type"] == CONTENT_TYPE
        families = parse_text(response["metrics"])
        sizes = families["repro_serve_batch_size"]
        assert sizes.sample_value("repro_serve_batch_size_count") >= 1.0
        assert families["repro_serve_batches_total"].sample_value(shard="0") >= 1.0

    def test_status_sources_restarts_from_registry(self):
        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                os.kill(server.pool.snapshot()[0]["pid"], signal.SIGKILL)
                await client.simulate(JOB)
                return await client.status()
            finally:
                await client.close()

        status = serve(quick_config(), scenario)
        assert status["shards"][0]["restarts"] >= 1
        assert status["server"]["shard_restarts_total"] >= 1
        assert status["shards"][0]["uptime_s"] >= 0.0

    def test_http_metrics_listener(self):
        from repro.obs.exposition import parse_text

        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                await client.simulate(JOB)
            finally:
                await client.close()
            host, port = server.metrics_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw.decode("utf-8")

        raw = serve(quick_config(metrics_port=0), scenario)
        head, _, body = raw.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain; version=0.0.4" in head
        families = parse_text(body)
        assert "repro_serve_batch_size" in families

    def test_http_metrics_unknown_path_is_404(self):
        async def scenario(server, address):
            host, port = server.metrics_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /nope HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw.decode("utf-8")

        raw = serve(quick_config(metrics_port=0), scenario)
        assert raw.startswith("HTTP/1.0 404")

    def test_no_metrics_port_means_no_listener(self):
        async def scenario(server, address):
            return server.metrics_address

        assert serve(quick_config(), scenario) is None


class TestJobValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequest, match="unknown job field"):
            _job_from_payload({"spec": "dm", "benchmark": "gzip", "turbo": 1})

    def test_combined_side_needs_kinds(self):
        with pytest.raises(BadRequest, match="with_kinds"):
            _job_from_payload(
                {"spec": "dm", "benchmark": "gzip", "side": "combined"}
            )

    def test_valid_payload_builds_job(self):
        job = _job_from_payload({"spec": "dm", "benchmark": "gzip", "n": 500})
        assert job == SweepJob(spec="dm", benchmark="gzip", n=500)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5),     # a float seed is not an exact key scalar
            ("seed", "2006"),
            ("size", None),
            ("size", 0),
            ("line_size", -32),
            ("policy", 7),
            ("with_kinds", "yes"),
            ("n", True),       # bool is not an int for key purposes
        ],
    )
    def test_bad_scalar_types_rejected_up_front(self, field, value):
        # Every job field feeds SweepJob.key(), so only exact scalars
        # may pass; a lossy value must be a bad_request at the door.
        with pytest.raises(BadRequest):
            _job_from_payload(
                {"spec": "dm", "benchmark": "gzip", field: value}
            )


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.1:4006") == ("tcp", ("10.0.0.1", 4006))

    def test_bare_port_defaults_host(self):
        assert parse_address(":4006") == ("tcp", ("127.0.0.1", 4006))

    def test_unix_prefix(self):
        assert parse_address("unix:/tmp/s.sock") == ("unix", "/tmp/s.sock")

    def test_bare_path(self):
        assert parse_address("/tmp/s.sock") == ("unix", "/tmp/s.sock")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_address("not-an-address")
