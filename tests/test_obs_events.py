"""Event log, spans and REPRO_OBS tiers (repro.obs.events)."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import events as obs_events
from repro.obs.events import (
    EventLog,
    read_events,
    span,
    tail_events,
)


@pytest.fixture
def events_log(tmp_path):
    """Switch the tier to ``events`` with a log in tmp_path."""
    path = tmp_path / "events.jsonl"
    obs_events.configure(mode="events", log_path=path)
    return path


# ----------------------------------------------------------------------
# Tiers
# ----------------------------------------------------------------------
class TestTiers:
    def test_default_tier_is_off(self, monkeypatch):
        monkeypatch.delenv(obs_events.ENV_MODE, raising=False)
        obs_events.reset()
        assert obs_events.mode() == "off"
        assert not obs_events.enabled()
        assert not obs_events.metrics_enabled()

    def test_env_selects_tier(self, monkeypatch):
        monkeypatch.setenv(obs_events.ENV_MODE, "full")
        obs_events.reset()
        assert obs_events.mode() == "full"
        assert obs_events.enabled()
        assert obs_events.metrics_enabled()

    def test_unknown_env_value_treated_as_off(self, monkeypatch):
        monkeypatch.setenv(obs_events.ENV_MODE, "verbose")
        obs_events.reset()
        assert obs_events.mode() == "off"

    def test_configure_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            obs_events.configure(mode="loud")

    def test_off_tier_writes_nothing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs_events.configure(mode="off", log_path=path)
        obs_events.emit("point", x=1)
        with span("block"):
            pass
        assert not path.exists()


# ----------------------------------------------------------------------
# Emitting
# ----------------------------------------------------------------------
class TestEmit:
    def test_emit_writes_one_json_line(self, events_log):
        obs_events.emit("trace.miss", benchmark="gcc", seconds=0.25)
        lines = events_log.read_bytes().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "trace.miss"
        assert record["benchmark"] == "gcc"
        assert record["pid"] == os.getpid()
        assert "t" in record and "mono" in record

    def test_span_emits_duration_and_ok(self, events_log):
        with span("job.run", key="k1"):
            pass
        (record,) = read_events(events_log)
        assert record["name"] == "job.run"
        assert record["ok"] is True
        assert record["key"] == "k1"
        assert record["dur_s"] >= 0.0

    def test_span_records_failure_and_reraises(self, events_log):
        with pytest.raises(RuntimeError):
            with span("job.run", key="k1"):
                raise RuntimeError("boom")
        (record,) = read_events(events_log)
        assert record["ok"] is False

    def test_emit_never_raises_on_unwritable_log(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        log = EventLog(target / "events.jsonl")  # parent is a file
        log.emit("x")  # must not raise
        assert log.dropped == 1

    def test_log_to_routes_and_restores(self, events_log, tmp_path):
        run_log = tmp_path / "run" / "events.jsonl"
        with obs_events.log_to(run_log):
            obs_events.emit("inside")
        obs_events.emit("outside")
        assert [e["name"] for e in read_events(run_log)] == ["inside"]
        assert [e["name"] for e in read_events(events_log)] == ["outside"]


# ----------------------------------------------------------------------
# Reading: torn-tail tolerance (satellite d)
# ----------------------------------------------------------------------
class TestTailEvents:
    def test_torn_tail_not_consumed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"name":"a"}\n{"name":"b"')  # writer died mid-line
        events, offset = tail_events(path, 0)
        assert [e["name"] for e in events] == ["a"]
        # Completing the line later makes the next tail pick it up.
        with open(path, "ab") as handle:
            handle.write(b',"x":1}\n')
        events, offset = tail_events(path, offset)
        assert [e["name"] for e in events] == ["b"]
        assert offset == path.stat().st_size

    def test_corrupt_complete_line_skipped_and_consumed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"name":"a"}\n###garbage###\n{"name":"c"}\n')
        events, offset = tail_events(path, 0)
        assert [e["name"] for e in events] == ["a", "c"]
        assert offset == path.stat().st_size
        # The garbage is behind the offset: never re-read.
        events, _ = tail_events(path, offset)
        assert events == []

    def test_missing_file_returns_empty(self, tmp_path):
        events, offset = tail_events(tmp_path / "nope.jsonl", 7)
        assert events == [] and offset == 7

    def test_non_dict_lines_ignored(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'[1,2]\n"str"\n{"name":"a"}\n')
        assert [e["name"] for e in read_events(path)] == ["a"]

    def test_incremental_offsets_see_each_event_once(self, events_log):
        offset = 0
        seen = []
        for i in range(3):
            obs_events.emit("tick", i=i)
            events, offset = tail_events(events_log, offset)
            seen.extend(e["i"] for e in events)
        assert seen == [0, 1, 2]


# ----------------------------------------------------------------------
# bcache-bench raw iteration samples land in the event log
# ----------------------------------------------------------------------
class TestBenchIterationEvents:
    def test_hot_loop_emits_one_event_per_sample(self, events_log):
        from repro.engine.bench import HOT_SPECS, bench_hot_loop

        bench_hot_loop(n=400, repeats=2, benchmark="gzip")
        samples = [
            e for e in read_events(events_log) if e["name"] == "bench.iteration"
        ]
        # repeats × flavours (scalar, batch) per spec, every raw sample
        # kept.
        assert len(samples) == len(HOT_SPECS) * 2 * 2
        assert {e["flavor"] for e in samples} == {"scalar", "batch"}
        first = samples[0]
        assert first["refs"] == 400
        assert first["dur_s"] >= 0.0


# ----------------------------------------------------------------------
# Zero-overhead contract: REPRO_OBS=off must not change results
# (satellite d — bit-identical CacheStats)
# ----------------------------------------------------------------------
class TestOffTierIdenticalResults:
    def _run(self, tmp_path, mode):
        from repro.engine.runner import SweepJob, execute_job
        from repro.engine.trace_store import TraceStore

        obs_events.configure(
            mode=mode, log_path=tmp_path / f"events-{mode}.jsonl"
        )
        store = TraceStore(tmp_path / "store", fsync=False)
        jobs = [
            SweepJob(spec=spec, benchmark="gcc", n=5_000)
            for spec in ("dm", "mf8_bas8")
        ]
        return [execute_job(job, store=store).snapshot() for job in jobs]

    def test_off_and_full_tiers_produce_identical_stats(self, tmp_path):
        baseline = self._run(tmp_path, "off")
        instrumented = self._run(tmp_path, "full")
        assert baseline == instrumented
