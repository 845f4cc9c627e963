"""A run leaves nothing behind, even when it is interrupted."""

from __future__ import annotations

import os

import pytest

from repro.engine.shm import leaked_segments

from bench import served
from bench.sandbox import Sandbox, _running_members


def test_an_interrupted_run_reaps_servers_shards_and_segments() -> None:
    os.environ["REPRO_JOBS"] = "4"
    try:
        with pytest.raises(KeyboardInterrupt):
            with Sandbox() as sandbox:
                assert "REPRO_JOBS" not in os.environ
                stack, _ = served.start_stack(sandbox, "serve-cold", 1, "off")
                group = stack.server.pid  # the shards share the server's group
                assert len(_running_members(group)) >= 3
                raise KeyboardInterrupt
        assert os.environ["REPRO_JOBS"] == "4"
    finally:
        del os.environ["REPRO_JOBS"]
    assert stack.server.poll() is not None
    assert not _running_members(group)
    assert not [name for name in leaked_segments() if f"-{group}-" in name]
    assert not sandbox.root.exists()
