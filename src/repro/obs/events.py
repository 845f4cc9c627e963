"""Tracing events: spans, a crash-safe JSONL event log, REPRO_OBS tiers.

Telemetry is tiered by the ``REPRO_OBS`` environment variable so the
tier-1 test suite (and any latency-sensitive caller) pays nothing:

========  ============================================================
tier      behaviour
========  ============================================================
``off``   (default) spans and events are no-ops — one mode check each
``events``  spans/events are appended to the JSONL event log
``full``  events **plus** metrics recording (see ``repro.obs.metrics``)
========  ============================================================

The event log is a plain JSONL file (one JSON object per line, each
line written with a single ``write`` on an ``O_APPEND`` handle, flushed
immediately).  That makes it *crash-safe*: a crash can tear at most
the final line, and the readers
(:func:`read_events` / :func:`tail_events`) skip a torn tail instead of
failing — ``bcache-top`` keeps rendering through a dying run.  Multiple
processes (the sweep supervisor and its workers) may append to the same
log; per-line appends keep records intact.

Spans are context managers only::

    with span("engine.sweep", jobs=26):
        ...

Each span emits one event on exit carrying the monotonic start, the
duration, the pid, and whether the body raised.  Point events go
through :func:`emit`.

Spans join a distributed trace by threading a
:class:`~repro.obs.tracectx.TraceContext`::

    with span("serve.request", trace=ctx) as child:
        ...  # child is ctx.child("serve.request"); nested spans that
             # pass trace=tracectx.current() parent under it

A traced span's event additionally carries ``trace_id``/``span_id``/
``parent_id``, which is everything ``bcache-trace`` needs to rebuild
the request waterfall.  An unsampled context disables recording for
that span (the body still runs, the ids are simply not logged).
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from repro.obs import tracectx
from repro.obs.tracectx import TraceContext

log = logging.getLogger("repro.obs")

ENV_MODE = "REPRO_OBS"
ENV_LOG = "REPRO_OBS_LOG"

MODES = ("off", "events", "full")


def cache_dir(env: str | None, leaf: str) -> Path:
    """``$<env>`` if set, else ``$XDG_CACHE_HOME/bcache-repro/<leaf>``.

    The one resolution of every on-disk root (trace store, run root,
    result cache, compiled kernels); ``XDG_CACHE_HOME`` defaults to
    ``~/.cache``.  It lives here because obs is the leaf every tier
    already imports.
    """
    override = os.environ.get(env) if env else None
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path("~/.cache").expanduser()
    return base / "bcache-repro" / leaf


def default_log_path() -> Path:
    """Event-log path: ``$REPRO_OBS_LOG`` or the run root's ``events.jsonl``."""
    env = os.environ.get(ENV_LOG)
    if env:
        return Path(env)
    return cache_dir("REPRO_RUN_ROOT", "runs") / "events.jsonl"


class EventLog:
    """Append-only JSONL event sink (crash-safe, multi-process friendly)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.emitted = 0
        self.dropped = 0
        self._handle: BinaryIO | None = None

    def _ensure_open(self) -> BinaryIO:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # O_APPEND + one write() per line keeps concurrent writers'
            # records whole; buffering=0 makes each line durable-ish
            # immediately (no interpreter-level buffering to tear).
            self._handle = open(self.path, "ab", buffering=0)
        return self._handle

    def emit(self, name: str, **fields: Any) -> None:
        """Append one event; never raises (telemetry must not kill work)."""
        record = {
            "name": name,
            "t": round(time.time(), 6),
            "mono": round(time.monotonic(), 6),
            "pid": os.getpid(),
            **fields,
        }
        self.emit_record(record)

    def emit_record(self, record: dict[str, Any]) -> None:
        """Append a pre-built record verbatim; never raises."""
        try:
            line = json.dumps(record, separators=(",", ":"), default=str)
            self._write_line(line.encode("utf-8") + b"\n")
            self.emitted += 1
        except (OSError, ValueError, TypeError) as exc:
            self.dropped += 1
            if self.dropped == 1:  # warn once, not once per event
                log.warning("event log %s: dropping events (%s)", self.path, exc)

    def _write_line(self, data: bytes) -> None:
        """One whole line per ``write``; finish short writes immediately.

        Concurrent appenders rely on O_APPEND making each ``write(2)``
        land contiguously; an unbuffered ``FileIO.write`` may still
        return short (signal delivery, near-full disk), and stopping
        there would leave a torn *head* that a neighbour's line then
        splices into — corrupting two records, not one.  Retrying the
        remainder immediately bounds the damage to this line, which the
        torn/corrupt-tolerant readers already skip.
        """
        handle = self._ensure_open()
        written = handle.write(data)
        while written is not None and written < len(data):
            data = data[written:]
            written = handle.write(data)

    def close(self) -> None:
        if self._handle is not None:
            with contextlib.suppress(OSError):
                self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Process-wide state
# ----------------------------------------------------------------------
@dataclass
class _ObsState:
    mode: str
    log_path: Path
    log: EventLog | None = None

    def sink(self) -> EventLog:
        if self.log is None:
            self.log = EventLog(self.log_path)
        return self.log


_STATE: _ObsState | None = None


def _state() -> _ObsState:
    global _STATE
    if _STATE is None:
        raw = os.environ.get(ENV_MODE, "off").strip().lower()
        mode = raw if raw in MODES else ("off" if raw in ("", "0", "no") else "off")
        if raw and raw not in MODES and raw not in ("", "0", "no"):
            log.warning("%s=%r is not one of %s; treating as 'off'",
                        ENV_MODE, raw, "/".join(MODES))
        _STATE = _ObsState(mode=mode, log_path=default_log_path())
    return _STATE


def mode() -> str:
    """The active tier: ``off``, ``events`` or ``full``."""
    return _state().mode


def enabled() -> bool:
    """Are events being recorded at all (tier ``events`` or ``full``)?"""
    return _state().mode != "off"


def metrics_enabled() -> bool:
    """Is metric recording on (tier ``full``)?

    Service-level metrics in ``repro.serve`` are always on (a server is
    an instrumented process by definition); this gate covers library
    hot paths — kernel timings, trace-store counters, engine jobs.
    """
    return _state().mode == "full"


def configure(mode: str | None = None, log_path: str | Path | None = None) -> None:
    """Override the env-derived tier and/or event-log path.

    Passing ``None`` for either keeps its current value.  Used by CLI
    flags (``--obs-log``), worker-process initializers and tests.
    """
    state = _state()
    if mode is not None:
        if mode not in MODES:
            raise ValueError(f"obs mode must be one of {MODES}, got {mode!r}")
        state.mode = mode
    if log_path is not None:
        new_path = Path(log_path)
        if new_path != state.log_path:
            if state.log is not None:
                state.log.close()
            state.log = None
            state.log_path = new_path


def reset() -> None:
    """Drop the override state; the next call re-reads the environment."""
    global _STATE
    if _STATE is not None and _STATE.log is not None:
        _STATE.log.close()
    _STATE = None


def active_log_path() -> Path:
    """Where events currently go (whether or not the file exists yet)."""
    return _state().log_path


@contextlib.contextmanager
def log_to(path: str | Path) -> Iterator[None]:
    """Temporarily route events to ``path`` (no-op while tier is off).

    The run journal (``repro.engine.resilience``) wraps each journaled
    run in this so the event log lands beside the run's result entries.
    """
    state = _state()
    if state.mode == "off":
        yield
        return
    previous_path, previous_log = state.log_path, state.log
    state.log_path, state.log = Path(path), None
    try:
        yield
    finally:
        if state.log is not None:
            state.log.close()
        state.log_path, state.log = previous_path, previous_log


def emit(name: str, **fields: Any) -> None:
    """Record one point event (no-op while the tier is ``off``)."""
    state = _state()
    if state.mode == "off":
        return
    state.sink().emit(name, **fields)


def emit_raw(record: dict[str, Any]) -> None:
    """Append one pre-built event record verbatim (no-op while off).

    The cross-process span merge path: shard workers build complete
    span records — their own ``t``/``mono``/``pid`` — buffer them, and
    ship them back with the batch response; the parent writes them here
    unchanged, so the merged log reads as if the worker had appended
    directly.  Junk (non-dict, no ``name``) is dropped silently, the
    same contract as :meth:`EventLog.emit`.
    """
    state = _state()
    if state.mode == "off":
        return
    if not isinstance(record, dict) or not record.get("name"):
        return
    state.sink().emit_record(record)


@contextlib.contextmanager
def span(
    name: str, *, trace: TraceContext | None = None, **attrs: Any
) -> Iterator[TraceContext | None]:
    """Time a block; emit one event on exit with duration and outcome.

    Must be used in context-manager form (``with span(...):``); a
    manual ``__enter__`` leaks the frame and its ambient trace context.

    When ``trace`` is a sampled :class:`TraceContext`, the span becomes
    a child of it: the yielded value is the child context (also made
    ambient via :func:`repro.obs.tracectx.current` for the body), and
    the emitted event carries ``trace_id``/``span_id``/``parent_id``.
    An unsampled context suppresses the event entirely (the sampling
    verdict is a pure function of the trace id, so every hop agrees).
    """
    state = _state()
    if trace is not None and not trace.sampled:
        yield None
        return
    if state.mode == "off":
        yield None
        return
    child = trace.child(name) if trace is not None else None
    if child is not None:
        attrs = {
            "trace_id": child.trace_id,
            "span_id": child.span_id,
            "parent_id": child.parent_id,
            **attrs,
        }
    scope = tracectx.use(child) if child is not None else contextlib.nullcontext()
    start = time.monotonic()
    try:
        with scope:
            yield child
    except BaseException:
        state.sink().emit(
            name, dur_s=round(time.monotonic() - start, 6), ok=False, **attrs
        )
        raise
    state.sink().emit(
        name, dur_s=round(time.monotonic() - start, 6), ok=True, **attrs
    )


# ----------------------------------------------------------------------
# Reading (bcache-top, tests, post-hoc analysis)
# ----------------------------------------------------------------------
def tail_events(
    path: str | Path, offset: int = 0
) -> tuple[list[dict[str, Any]], int]:
    """Events appended since ``offset``; returns ``(events, new_offset)``.

    Torn-tail tolerant: a final line without a trailing newline (a
    writer died mid-append, or is mid-append right now) is *not*
    consumed — the offset stays before it, so the next call rereads it
    once it is complete.  Complete-but-corrupt lines are skipped and
    their bytes consumed.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except OSError:
        return [], offset
    events: list[dict[str, Any]] = []
    consumed = 0
    while True:
        newline = data.find(b"\n", consumed)
        if newline < 0:
            break  # torn tail (or empty remainder): do not consume
        line = data[consumed:newline]
        consumed = newline + 1
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue  # corrupt line: skip, but its bytes are consumed
        if isinstance(payload, dict):
            events.append(payload)
    return events, offset + consumed


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Every complete, well-formed event in the log (torn tail skipped)."""
    events, _ = tail_events(path, 0)
    return events
