"""The loader of the compiled batch kernels (``repro.caches.native``).

Each test builds into its own ``XDG_CACHE_HOME`` and resets the
per-process memo, so it sees a cold build cache.  Whatever the loader
meets (no compiler, a truncated library, an unwritable directory, a
racing build), a batch replay stays bit-identical to the per-access
path.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.caches import make_cache, native
from test_engine_equivalence import mixed_trace, real_kernels  # noqa: F401

ROOT = Path(__file__).resolve().parents[1]

needs_compiler = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler (cc) on PATH"
)


@pytest.fixture
def cold_loader(tmp_path, monkeypatch):
    """A fresh build cache and no library loaded yet in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native, "_library", native._UNSET)
    return tmp_path / "xdg" / "bcache-repro" / "native"


def assert_batch_matches_per_access(spec: str) -> str:
    """Replay one stream both ways; returns the batch's kernel path."""
    addresses, kinds = mixed_trace(3000, seed=71)
    scalar = make_cache(spec)
    for address, kind in zip(addresses, kinds):
        scalar.access(address, kind == 1)
    batch = make_cache(spec)
    assert batch.access_trace(addresses, kinds) == scalar.stats
    return batch.last_kernel


@pytest.mark.parametrize("spec", ("8way", "mf8_bas8", "psa2", "dm", "victim16"))
def test_no_compiler_falls_back(spec, cold_loader, tmp_path, monkeypatch, caplog,
                                real_kernels):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    with caplog.at_level(logging.WARNING, logger="repro.caches.native"):
        assert native.load() is None
        assert native.load() is None
    assert [record.getMessage() for record in caplog.records] == [
        "compiled kernels unavailable, batches replay per access: "
        "no C compiler (cc) on PATH"
    ]
    assert assert_batch_matches_per_access(spec) == "stdlib"


@needs_compiler
@pytest.mark.parametrize(
    "spec", ("8way", "mf8_bas8", "psa2", "dm", "victim16", "column", "skew2", "hac")
)
def test_compiled_path_reports_native(spec, cold_loader, real_kernels):
    assert assert_batch_matches_per_access(spec) == "native"
    assert [path.suffix for path in cold_loader.iterdir()] == [".so"]


@needs_compiler
def test_every_kernel_resolves(cold_loader):
    library = native.load()
    assert library is not None
    for name in native.KERNELS:
        assert getattr(library, name).restype is None


@needs_compiler
def test_truncated_library_is_rebuilt(cold_loader, real_kernels):
    path = native.library_path()
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\x7fELF\x02\x01\x01" + bytes(57))
    assert native.load() is not None
    assert path.stat().st_size > 1024
    assert assert_batch_matches_per_access("mf8_bas8") == "native"


def test_unwritable_cache_dir_falls_back(cold_loader, read_only_dir, real_kernels):
    read_only_dir(cold_loader.parent)
    assert native.load() is None
    assert assert_batch_matches_per_access("4way") == "stdlib"


@needs_compiler
def test_racing_builds_both_load(cold_loader):
    probe = "from repro.caches import native; print(native.load() is not None)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = [
        subprocess.Popen([sys.executable, "-c", probe], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [out.strip() for out, _ in outputs] == ["True", "True"], outputs
    # One library, no temporary build left behind.
    assert [path.name for path in cold_loader.iterdir()] == [native.library_path().name]
