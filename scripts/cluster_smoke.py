"""Chaos gate for the fleet coordinator (``make cluster`` / CI).

Starts a real two-node ``bcache-serve`` fleet on Unix sockets and runs
``bcache-cluster`` against it twice:

1. with ``node_down``/``node_hang``/``node_flaky`` faults injected at
   dispatch — the sweep must stay bit-identical to a serial local run
   (``--verify``), must have re-dispatched at least one job
   (``--expect-redispatch``), and every fault kind must have fired (its
   ``injected`` line is in the coordinator's stderr).  The faults hit
   successive dispatches of one job: a node fails the whole batch it
   was handed, so faults on other jobs of that batch would arrive at
   the next attempt and never fire;
2. against two endpoints that do not exist — every node is down, so
   the coordinator must degrade to local in-process execution
   (``--expect-fallback``) and still verify bit-identical.

Exit status is non-zero if either leg fails; the servers are always
SIGTERMed and reaped so CI never leaks processes.
"""

from __future__ import annotations

import contextlib
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def start_server(sock_path: Path) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--unix", str(sock_path),
         "--shards", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    ready = proc.stdout.readline()
    if "ready" not in ready:
        proc.kill()
        raise SystemExit(f"bcache-serve did not come up: {ready!r}")
    return proc


#: One fault per dispatch of job 1: attempt 0 retires a node, the
#: re-dispatches hang and then fail transiently on the survivor.
FAULT_PLAN = "node_down@1,node_hang@1:1,node_flaky@1:2"


def run_leg(title: str, argv: list[str], must_fire: tuple[str, ...] = ()) -> int:
    """Run ``bcache-cluster``; fail unless each ``must_fire`` kind fired."""
    print(f"=== cluster-smoke: {title} ===", flush=True)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.engine.cluster", *argv],
        stderr=subprocess.PIPE, text=True,
    )
    sys.stderr.write(proc.stderr)
    code = proc.returncode
    for kind in must_fire:
        if f"{kind}: injected" not in proc.stderr:
            print(f"cluster-smoke: FAIL — {kind} never fired", file=sys.stderr)
            code = code or 1
    return code


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as tmp:
        root = Path(tmp)
        sock_a, sock_b = root / "a.sock", root / "b.sock"
        servers = [start_server(sock_a), start_server(sock_b)]
        try:
            code = run_leg(
                "2-node fleet under node faults",
                ["--connect", f"unix:{sock_a},unix:{sock_b}",
                 "--inject-faults", FAULT_PLAN,
                 "--verify", "--expect-redispatch", "1"],
                must_fire=("node_down", "node_hang", "node_flaky"),
            )
            if code == 0:
                code = run_leg(
                    "all nodes down -> local fallback",
                    ["--connect", f"unix:{root}/ghost-a.sock,unix:{root}/ghost-b.sock",
                     "--verify", "--expect-fallback", "1"],
                )
        finally:
            for server in servers:
                with contextlib.suppress(ProcessLookupError):
                    server.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 30.0
            for server in servers:
                with contextlib.suppress(subprocess.TimeoutExpired):
                    server.wait(timeout=max(0.1, deadline - time.monotonic()))
                if server.poll() is None:
                    server.kill()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
