"""Distributed tracing: context propagation, span trees, bcache-trace.

Covers the whole pipeline the waterfall analyzer consumes:

* :mod:`repro.obs.tracectx` — deterministic ids, W3C ``traceparent``
  round-trips, head sampling, the ambient contextvar;
* trace-aware spans and ``emit_raw`` replay in :mod:`repro.obs.events`,
  plus the per-stage helpers in :mod:`repro.obs.instrument`;
* the event log under concurrent multi-process appenders;
* kernel span deltas forwarded out of :class:`ShardPool` workers —
  exactly once, across a forced worker restart;
* :mod:`repro.obs.traceview` reconstruction (completeness, critical
  path, stage attribution, Chrome export, the ``--check`` gate);
* end-to-end waterfalls through a real ``SimServer`` and through the
  HTTP gateway with an external ``traceparent``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal

import pytest

from repro.engine.runner import SweepJob
from repro.obs import events as obs_events
from repro.obs import instrument as obs_instrument
from repro.obs.events import read_events
from repro.obs.metrics import default_registry
from repro.obs.tracectx import (
    TraceContext,
    current,
    mint_trace_id,
    sampled_for,
    use,
)
from repro.obs.traceview import (
    Span,
    check_traces,
    chrome_trace,
    load_spans,
    render_stage_summary,
    render_waterfall,
    self_times,
    span_from_record,
    stage_summary,
)
from repro.obs.traceview import main as traceview_main
from repro.serve.gateway import Gateway, GatewayConfig
from repro.serve.server import ServeConfig, SimServer
from repro.serve.workers import ShardPool


@pytest.fixture
def events_log(tmp_path):
    path = tmp_path / "events.jsonl"
    obs_events.configure(mode="events", log_path=path)
    return path


# ----------------------------------------------------------------------
# TraceContext
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_mint_is_deterministic(self):
        assert mint_trace_id("gw/1/1") == mint_trace_id("gw/1/1")
        assert mint_trace_id("gw/1/1") != mint_trace_id("gw/1/2")
        a = TraceContext.new("serve/1/1")
        b = TraceContext.new("serve/1/1")
        assert a.trace_id == b.trace_id
        # Span ids fold a per-process ordinal: two mints never collide.
        assert a.span_id != b.span_id

    def test_child_links_to_parent(self):
        parent = TraceContext.new("k")
        child = parent.child("stage.shard")
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert child.span_id != parent.span_id
        assert child.sampled == parent.sampled

    def test_traceparent_round_trip(self):
        ctx = TraceContext.new("k")
        header = ctx.to_traceparent()
        parsed = TraceContext.from_traceparent(header)
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id
        assert parsed.sampled is True

    def test_traceparent_unsampled_flag(self):
        header = f"00-{'a' * 32}-{'b' * 16}-00"
        parsed = TraceContext.from_traceparent(header)
        assert parsed is not None and parsed.sampled is False

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-span-01",
            f"00-{'0' * 32}-{'b' * 16}-01",  # zero trace id
            f"00-{'a' * 32}-{'0' * 16}-01",  # zero span id
            f"ff-{'a' * 32}-{'b' * 16}-01",  # unknown version
        ],
    )
    def test_from_traceparent_rejects_junk(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_from_wire_accepts_str_and_mapping(self):
        ctx = TraceContext.new("k")
        wire = ctx.to_wire()
        assert TraceContext.from_wire(wire) is not None
        assert TraceContext.from_wire({"traceparent": wire}) is not None
        assert TraceContext.from_wire(12345) is None
        assert TraceContext.from_wire({"nope": 1}) is None

    def test_sampling_is_deterministic_per_trace_id(self):
        tid = mint_trace_id("k")
        assert sampled_for(tid, 1.0) is True
        assert sampled_for(tid, 0.0) is False
        first = sampled_for(tid, 0.5)
        assert all(sampled_for(tid, 0.5) == first for _ in range(5))

    def test_sample_rate_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.0")
        assert TraceContext.new("k").sampled is False
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1.0")
        assert TraceContext.new("k").sampled is True

    def test_ambient_context(self):
        assert current() is None
        ctx = TraceContext.new("k")
        with use(ctx):
            assert current() is ctx
        assert current() is None


# ----------------------------------------------------------------------
# Trace-aware spans and replay
# ----------------------------------------------------------------------
class TestTracedSpans:
    def test_span_with_trace_records_ids(self, events_log):
        root = TraceContext.new("k")
        with obs_events.span("serve.request", trace=root) as child:
            assert child is not None
            assert current() is child
        (record,) = read_events(events_log)
        assert record["trace_id"] == root.trace_id
        assert record["span_id"] == child.span_id
        assert record["parent_id"] == root.span_id
        assert record["ok"] is True

    def test_unsampled_trace_emits_nothing(self, events_log):
        root = TraceContext.new("k", rate=0.0)
        with obs_events.span("serve.request", trace=root) as child:
            assert child is None
        assert read_events(events_log) == []

    def test_emit_raw_replays_record(self, events_log):
        record = {"name": "stage.kernel", "t": 1.0, "mono": 2.0,
                  "pid": 1234, "trace_id": "a" * 32, "span_id": "b" * 16,
                  "parent_id": "c" * 16, "dur_s": 0.5, "ok": True}
        obs_events.emit_raw(record)
        obs_events.emit_raw({"no": "name"})  # silently dropped
        (read_back,) = read_events(events_log)
        assert read_back == record

    def test_emit_raw_is_noop_when_off(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs_events.configure(mode="off", log_path=path)
        obs_events.emit_raw({"name": "stage.kernel", "dur_s": 0.1})
        assert not path.exists()

    def test_stage_span_observes_histogram_even_when_off(self, tmp_path):
        obs_events.configure(mode="off", log_path=tmp_path / "e.jsonl")
        with obs_instrument.stage_span("admission") as child:
            assert child is None
        histogram = default_registry().histogram(
            "repro_stage_seconds", "")
        series = histogram.series(stage="admission")
        assert series is not None and series.count == 1

    def test_stage_event_derives_child_record(self, events_log):
        root = TraceContext.new("k")
        obs_instrument.stage_event("batch_window", 0.005, trace=root)
        (record,) = read_events(events_log)
        assert record["name"] == "stage.batch_window"
        assert record["parent_id"] == root.span_id
        assert record["dur_s"] == 0.005

    def test_stage_record_for_uses_given_context(self, events_log):
        ctx = TraceContext.new("k").child("stage.shard")
        record = obs_instrument.stage_record_for("shard", ctx, 0.25)
        assert record["span_id"] == ctx.span_id
        assert record["parent_id"] == ctx.parent_id
        assert record["dur_s"] == 0.25


# ----------------------------------------------------------------------
# Satellite: the event log under concurrent multi-process appenders
# ----------------------------------------------------------------------
def _append_events(path, writer_id: int, count: int) -> None:
    """Child-process body: a private EventLog appending to one file."""
    obs_events.reset()
    obs_events.configure(mode="events", log_path=path)
    for seq in range(count):
        obs_events.emit("concurrency.probe", writer=writer_id, seq=seq)


class TestConcurrentAppenders:
    WRITERS = 4
    EVENTS = 200

    def test_interleaved_writers_lose_nothing(self, events_log):
        procs = [
            multiprocessing.Process(
                target=_append_events, args=(events_log, i, self.EVENTS)
            )
            for i in range(self.WRITERS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        records = read_events(events_log)
        assert len(records) == self.WRITERS * self.EVENTS
        # Every line parsed back whole: no torn or interleaved writes.
        by_writer: dict[int, set[int]] = {}
        for record in records:
            assert record["name"] == "concurrency.probe"
            by_writer.setdefault(record["writer"], set()).add(record["seq"])
        assert by_writer == {
            i: set(range(self.EVENTS)) for i in range(self.WRITERS)
        }


# ----------------------------------------------------------------------
# Satellite: kernel span deltas across a worker restart
# ----------------------------------------------------------------------
class TestWorkerSpanDeltas:
    JOBS = [
        SweepJob(spec="dm", benchmark="gzip", n=1500),
        SweepJob(spec="dm", benchmark="gcc", n=1500),
    ]

    @staticmethod
    def _traces() -> list[str]:
        return [
            TraceContext.new(f"test/{i}").child("stage.shard").to_wire()
            for i in range(len(TestWorkerSpanDeltas.JOBS))
        ]

    def _kernel_records(self, path):
        return [r for r in read_events(path) if r["name"] == "stage.kernel"]

    def test_exactly_one_kernel_span_per_traced_job(self, events_log):
        traces = self._traces()
        with ShardPool(1) as pool:
            results = pool.run_batch_blocking(0, self.JOBS, traces)
        assert [status for status, _ in results] == ["ok", "ok"]
        records = self._kernel_records(events_log)
        assert len(records) == len(self.JOBS)
        wanted = {TraceContext.from_wire(w).span_id for w in traces}
        assert {r["parent_id"] for r in records} == wanted
        # The records were built worker-side: a different pid.
        assert all(r["pid"] != os.getpid() for r in records)

    def test_no_drop_or_double_merge_across_restart(self, events_log):
        traces = self._traces()
        with ShardPool(1) as pool:
            pool.run_batch_blocking(0, self.JOBS, traces)
            assert len(self._kernel_records(events_log)) == len(self.JOBS)
            os.kill(pool.snapshot()[0]["pid"], signal.SIGKILL)
            results = pool.run_batch_blocking(0, self.JOBS, traces)
            assert [status for status, _ in results] == ["ok", "ok"]
            assert pool.snapshot()[0]["restarts"] >= 1
        # Exactly one more record per traced job: the retried batch
        # merged the answering attempt's spans, never both.
        assert len(self._kernel_records(events_log)) == 2 * len(self.JOBS)

    def test_untraced_batch_produces_no_spans(self, events_log):
        with ShardPool(1) as pool:
            pool.run_batch_blocking(0, self.JOBS)
        assert self._kernel_records(events_log) == []


# ----------------------------------------------------------------------
# traceview reconstruction on synthetic records
# ----------------------------------------------------------------------
def _record(name, trace_id, span_id, parent_id, start, dur, **attrs):
    return {"name": name, "t": start + dur, "mono": start + dur,
            "pid": 42, "trace_id": trace_id, "span_id": span_id,
            "parent_id": parent_id, "dur_s": dur, "ok": True, **attrs}


def _write_log(path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


#: One complete trace: gateway -> request -> {admission, shard->kernel}.
#: Every top-level span hangs off the unrecorded root "r" * 16.
COMPLETE = [
    _record("stage.gateway", "a" * 32, "01" * 8, "r" * 16, 0.0, 1.0,
            stage="gateway"),
    _record("stage.serve_request", "a" * 32, "02" * 8, "01" * 8, 0.1, 0.8,
            stage="serve_request"),
    _record("stage.admission", "a" * 32, "03" * 8, "02" * 8, 0.1, 0.1,
            stage="admission"),
    _record("stage.shard", "a" * 32, "04" * 8, "02" * 8, 0.3, 0.6,
            stage="shard"),
    _record("stage.kernel", "a" * 32, "05" * 8, "04" * 8, 0.35, 0.5,
            stage="kernel"),
]


class TestTraceview:
    def test_span_from_record_skips_untraced(self):
        assert span_from_record({"name": "job.done", "t": 1.0}) is None
        span = span_from_record(COMPLETE[0])
        assert isinstance(span, Span)
        assert span.start == 0.0 and span.end == 1.0
        assert span.stage == "gateway"

    def test_complete_single_rooted_tree(self, tmp_path):
        log = tmp_path / "a.jsonl"
        _write_log(log, COMPLETE)
        traces = load_spans([log])
        assert set(traces) == {"a" * 32}
        trace = traces["a" * 32]
        assert trace.is_complete()
        assert trace.unresolved_parents() == {"r" * 16}
        assert len(trace.roots()) == 1

    def test_shared_virtual_root_is_complete(self, tmp_path):
        # Two top-level spans, both children of the unrecorded root:
        # the direct-serve shape (serve_request + serialize).
        records = COMPLETE + [
            _record("stage.serialize", "a" * 32, "06" * 8, "r" * 16,
                    0.9, 0.05, stage="serialize"),
        ]
        log = tmp_path / "a.jsonl"
        _write_log(log, records)
        trace = load_spans([log])["a" * 32]
        assert len(trace.roots()) == 2
        assert trace.is_complete()

    def test_distinct_dangling_parents_incomplete(self, tmp_path):
        records = COMPLETE + [
            _record("stage.serialize", "a" * 32, "06" * 8, "x" * 16,
                    0.9, 0.05, stage="serialize"),
        ]
        log = tmp_path / "a.jsonl"
        _write_log(log, records)
        trace = load_spans([log])["a" * 32]
        assert not trace.is_complete()

    def test_multi_log_merge_stitches_processes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_log(a, COMPLETE[:2])
        _write_log(b, COMPLETE[2:])
        traces = load_spans([a, b])
        assert traces["a" * 32].is_complete()
        assert len(traces["a" * 32].spans) == len(COMPLETE)

    def test_critical_path_follows_latest_ending_chain(self, tmp_path):
        log = tmp_path / "a.jsonl"
        _write_log(log, COMPLETE)
        trace = load_spans([log])["a" * 32]
        path = trace.critical_path()
        # gateway -> serve_request -> shard -> kernel (not admission).
        assert path == {"01" * 8, "02" * 8, "04" * 8, "05" * 8}

    def test_waterfall_renders_all_spans(self, tmp_path):
        log = tmp_path / "a.jsonl"
        _write_log(log, COMPLETE)
        trace = load_spans([log])["a" * 32]
        text = render_waterfall(trace)
        assert "trace " + "a" * 32 in text
        for record in COMPLETE:
            assert record["name"] in text
        assert "*" in text  # critical-path marker

    def test_stage_summary_self_time_attribution(self, tmp_path):
        log = tmp_path / "a.jsonl"
        _write_log(log, COMPLETE)
        traces = load_spans([log])
        table = stage_summary(traces)
        assert set(table) == {
            "gateway", "serve_request", "admission", "shard", "kernel"
        }
        # kernel has no children: self == total.
        assert table["kernel"].self_total == pytest.approx(0.5)
        # shard's self time excludes the kernel below it.
        assert table["shard"].self_total == pytest.approx(0.1)
        # Self times sum to the root's duration (full attribution).
        total_self = sum(s.self_total for s in table.values())
        assert total_self == pytest.approx(1.0)
        text = render_stage_summary(table)
        assert "kernel" in text and "self" in text

    def test_chrome_trace_export_shape(self, tmp_path):
        log = tmp_path / "a.jsonl"
        _write_log(log, COMPLETE)
        document = chrome_trace(load_spans([log]))
        events = document["traceEvents"]
        assert len(events) == len(COMPLETE)
        kernel = next(e for e in events if e["name"] == "stage.kernel")
        assert kernel["ph"] == "X"
        assert kernel["dur"] == pytest.approx(0.5e6)
        assert kernel["args"]["trace_id"] == "a" * 32

    def test_check_traces_threshold(self, tmp_path):
        log = tmp_path / "a.jsonl"
        broken = _record("stage.orphan", "b" * 32, "0a" * 8, "y" * 16,
                         0.0, 0.1)
        lonely = _record("stage.orphan2", "b" * 32, "0b" * 8, "z" * 16,
                         0.0, 0.1)
        _write_log(log, COMPLETE + [broken, lonely])
        traces = load_spans([log])
        ok, report = check_traces(traces, threshold=0.99)
        assert not ok and "1/2" in report
        ok, _ = check_traces(traces, threshold=0.5)
        assert ok
        assert check_traces({}, threshold=0.5) == (
            False, "bcache-trace --check: no traces found"
        )


class TestTraceviewCli:
    def test_waterfall_and_slowest(self, tmp_path, capsys):
        log = tmp_path / "a.jsonl"
        _write_log(log, COMPLETE)
        assert traceview_main([str(log), "--slowest", "1"]) == 0
        out = capsys.readouterr().out
        assert "stage.kernel" in out

    def test_stage_summary_flag(self, tmp_path, capsys):
        log = tmp_path / "a.jsonl"
        _write_log(log, COMPLETE)
        assert traceview_main([str(log), "--stage-summary"]) == 0
        assert "serve_request" in capsys.readouterr().out

    def test_check_exit_codes(self, tmp_path, capsys):
        log = tmp_path / "a.jsonl"
        _write_log(log, COMPLETE)
        assert traceview_main([str(log), "--check"]) == 0
        _write_log(log, [_record("stage.o", "b" * 32, "0a" * 8, "y" * 16,
                                 0.0, 0.1),
                         _record("stage.p", "b" * 32, "0b" * 8, "z" * 16,
                                 0.0, 0.1)])
        assert traceview_main([str(log), "--check"]) == 1
        capsys.readouterr()

    def test_export_writes_chrome_json(self, tmp_path, capsys):
        log = tmp_path / "a.jsonl"
        out_file = tmp_path / "chrome.json"
        _write_log(log, COMPLETE)
        assert traceview_main(
            [str(log), "--export", str(out_file), "--check"]
        ) == 0
        document = json.loads(out_file.read_text(encoding="utf-8"))
        assert len(document["traceEvents"]) == len(COMPLETE)
        capsys.readouterr()

    def test_missing_log_is_an_error(self, tmp_path, capsys):
        assert traceview_main([str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()

    def test_empty_log_no_check_fails(self, tmp_path, capsys):
        log = tmp_path / "a.jsonl"
        log.write_text("", encoding="utf-8")
        assert traceview_main([str(log)]) == 1
        capsys.readouterr()


# ----------------------------------------------------------------------
# End to end: SimServer waterfall, gateway traceparent
# ----------------------------------------------------------------------
JOB_PAYLOAD = {"spec": "mf8_bas8", "benchmark": "gcc", "n": 3000}


def _serve(config: ServeConfig, scenario):
    async def runner():
        server = SimServer(config)
        await server.start()
        try:
            host, port = server.tcp_address
            return await scenario(server, f"{host}:{port}")
        finally:
            await server.drain()

    return asyncio.run(runner())


class TestEndToEndWaterfall:
    def test_serve_request_yields_complete_waterfall(
        self, events_log, tmp_path
    ):
        from repro.serve.client import AsyncServeClient

        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                return await client.simulate(SweepJob(**JOB_PAYLOAD))
            finally:
                await client.close()

        config = ServeConfig(
            port=0, shards=1, window=0.01,
            result_cache=str(tmp_path / "cache"),
        )
        stats = _serve(config, scenario)
        assert stats.accesses > 0
        traces = load_spans([events_log])
        assert len(traces) == 1
        (trace,) = traces.values()
        assert trace.is_complete()
        stages = {span.stage for span in trace.spans.values()}
        assert stages >= {
            "serve_request", "admission", "resultcache", "singleflight",
            "batch_window", "shard", "kernel", "serialize",
        }
        # Per-stage attribution: self times cannot exceed the trace's
        # end-to-end window (the 5% slack covers clock rounding).
        total_self = sum(self_times(trace).values())
        assert total_self <= trace.duration * 1.05
        # The kernel span really ran in the worker process.
        kernel = next(s for s in trace.spans.values()
                      if s.stage == "kernel")
        assert kernel.pid != os.getpid()

    def test_gateway_honors_external_traceparent(self, events_log):
        incoming = TraceContext.new("external/client/1")

        async def runner():
            server = SimServer(ServeConfig(port=0, shards=1, window=0.01))
            await server.start()
            host, port = server.tcp_address
            gateway = Gateway(GatewayConfig(
                port=0, backend=f"{host}:{port}",
            ))
            await gateway.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *gateway.address
                )
                body = json.dumps(JOB_PAYLOAD).encode()
                head = (
                    "POST /v1/simulate HTTP/1.1\r\nHost: t\r\n"
                    "Connection: close\r\n"
                    f"traceparent: {incoming.to_traceparent()}\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                )
                writer.write(head.encode("latin-1") + body)
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                return raw
            finally:
                await gateway.drain()
                await server.drain()

        raw = asyncio.run(runner())
        assert b" 200 " in raw.split(b"\r\n", 1)[0]
        traces = load_spans([events_log])
        # The externally-supplied id is the trace's identity.
        assert set(traces) == {incoming.trace_id}
        trace = traces[incoming.trace_id]
        assert trace.is_complete()
        assert trace.unresolved_parents() == {incoming.span_id}
        stages = {span.stage for span in trace.spans.values()}
        assert stages >= {
            "gateway", "gateway_parse", "serve_request", "admission",
            "batch_window", "shard", "kernel", "serialize",
        }

    def test_off_tier_stays_byte_identical(self, tmp_path):
        from repro.serve.client import AsyncServeClient

        async def scenario(server, address):
            client = await AsyncServeClient.connect(address)
            try:
                return await client.simulate(SweepJob(**JOB_PAYLOAD))
            finally:
                await client.close()

        path = tmp_path / "events.jsonl"
        obs_events.configure(mode="off", log_path=path)
        baseline = _serve(
            ServeConfig(port=0, shards=1, window=0.01), scenario
        )
        assert not path.exists()  # no spans, no log, no trace fields
        obs_events.configure(mode="events", log_path=path)
        traced = _serve(
            ServeConfig(port=0, shards=1, window=0.01), scenario
        )
        assert baseline.snapshot() == traced.snapshot()
