"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path
from typing import Callable, Iterator

import pytest
from hypothesis import settings

from repro.analysis.sanitizer import SanitizedCache, install_global_sanitizer
from repro.caches.base import Cache
from repro.core.config import BCacheGeometry

# Property tests must not flake in CI: derandomise example generation
# (the searches stay thorough, just reproducible run to run).  Tiered
# profiles let CI trade depth for wall-clock: select one with
# REPRO_HYPOTHESIS_PROFILE (quick/repro/thorough).
settings.register_profile("repro", deadline=None, derandomize=True)
settings.register_profile(
    "quick", deadline=None, derandomize=True, max_examples=20
)
settings.register_profile(
    "thorough", deadline=None, derandomize=True, max_examples=400
)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "repro"))

# Shadow-check every cache the suite builds (lenient mode: structural,
# accounting and stable-residency invariants; see docs/analysis.md).
# Disable with REPRO_SANITIZE=0 to time the models unchecked.
if os.environ.get("REPRO_SANITIZE", "1") not in {"0", "off", "no"}:
    install_global_sanitizer(check_interval=256)


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_store(tmp_path_factory: pytest.TempPathFactory):
    """Point the process-wide trace store at a per-session temp dir.

    Keeps test runs from writing blobs into the user's real cache
    directory and from reading stale blobs left by earlier runs.
    """
    from repro.engine.trace_store import TraceStore, set_default_store

    previous = set_default_store(
        TraceStore(tmp_path_factory.mktemp("trace-store"), fsync=False)
    )
    yield
    set_default_store(previous)


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_home(tmp_path_factory: pytest.TempPathFactory):
    """Point ``XDG_CACHE_HOME`` at a per-session temp dir.

    Every default on-disk root resolves under it (``obs.events.
    cache_dir``), the compiled kernels' build included, so a test run
    builds them once for itself and writes nothing to the user's
    ``~/.cache``.
    """
    previous = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache-home"))
    yield
    if previous is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = previous


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_root(tmp_path_factory: pytest.TempPathFactory):
    """Point the resilience journal root at a per-session temp dir.

    Tests that pass ``run_id=`` without an explicit ``run_root`` must
    never journal into the user's real ``~/.cache`` runs directory.
    """
    previous = os.environ.get("REPRO_RUN_ROOT")
    os.environ["REPRO_RUN_ROOT"] = str(tmp_path_factory.mktemp("run-root"))
    yield
    if previous is None:
        os.environ.pop("REPRO_RUN_ROOT", None)
    else:
        os.environ["REPRO_RUN_ROOT"] = previous


@pytest.fixture
def read_only_dir() -> Iterator[Callable[[Path], None]]:
    """Make a directory refuse new files for the rest of the test.

    Read-only mode where permissions are enforced; where they are not
    (running as root) a regular file takes the directory's place (its
    contents are dropped), which fails every write beneath it the same.
    """
    blocked: list[Path] = []

    def block(path: Path) -> None:
        path.mkdir(parents=True, exist_ok=True)
        path.chmod(0o555)
        blocked.append(path)
        if os.access(path, os.W_OK):
            path.chmod(0o755)
            shutil.rmtree(path)
            path.write_text("")

    yield block
    for path in blocked:
        if path.is_dir():
            path.chmod(0o755)


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Reset telemetry state around every test.

    The obs tier is derived from ``$REPRO_OBS`` lazily and the metrics
    registry is process-global (the serve ``status`` op reads restart
    counters from it), so a test that calls ``obs.configure`` or runs a
    server must not leak spans, counters or an open event log into the
    next test.
    """
    from repro.obs import events as obs_events
    from repro.obs.metrics import MetricsRegistry, set_default_registry

    obs_events.reset()
    previous = set_default_registry(MetricsRegistry())
    yield
    obs_events.reset()
    set_default_registry(previous)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def sanitize() -> Callable[..., SanitizedCache]:
    """Factory wrapping a cache in a strict per-access sanitizer."""

    def _wrap(cache: Cache, **kwargs: object) -> SanitizedCache:
        kwargs.setdefault("check_interval", 64)
        return SanitizedCache(cache, **kwargs)  # type: ignore[arg-type]

    return _wrap


@pytest.fixture
def headline_geometry() -> BCacheGeometry:
    """The paper's headline design point: 16 kB, MF=8, BAS=8."""
    return BCacheGeometry(16 * 1024, 32, mapping_factor=8, associativity=8)


@pytest.fixture
def toy_geometry() -> BCacheGeometry:
    """The Section 2.2 worked example: 8 sets, 1-byte lines, MF=2, BAS=2."""
    return BCacheGeometry(8, 1, mapping_factor=2, associativity=2)
