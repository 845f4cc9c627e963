"""Run isolation: fresh directories, a scrubbed environment, and the
reaping of every process the benchmark starts.

Everything a run writes lives under ``.bench_work/`` in the checkout
and is deleted when the run ends.  Every cache root the program could
fall back to (``REPRO_TRACE_STORE``, ``REPRO_RUN_ROOT``,
``REPRO_OBS_LOG``, ``REPRO_RESULT_CACHE``, ``XDG_CACHE_HOME``) points
inside the run's directory, so a run never reads ``~/.cache`` and a
warm store left by an earlier run cannot leak into set-up time.
"""

from __future__ import annotations

import contextlib
import os
import platform
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator

from repro.engine.runner import available_cpus
from repro.engine.shm import reap_stale_segments

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Seconds a stopped server may take to drain before it is killed.
STOP_TIMEOUT_S = 15.0
#: Seconds the host sampler may take to write its first sample.
SAMPLER_START_S = 30.0


class Sandbox:
    """One run's working directory, environment and child processes.

    Use as a context manager: on exit (normal, error or Ctrl-C) every
    process started through :meth:`spawn` is stopped and waited for,
    shared-memory segments their owners left behind are unlinked, the
    directory is deleted and the caller's environment is restored.
    """

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self._procs: list[subprocess.Popen[str]] = []
        self._saved_env: dict[str, str] | None = None

    def __enter__(self) -> "Sandbox":
        # The harness itself calls into the library (trace set-up,
        # oracles), so it gets the same scrubbed environment: no
        # REPRO_JOBS, no REPRO_OBS, no user cache roots.
        self._saved_env = dict(os.environ)
        for key in [key for key in os.environ if key.startswith("REPRO_")]:
            del os.environ[key]
        os.environ["REPRO_OBS"] = "off"
        os.environ["XDG_CACHE_HOME"] = str(self.root / "xdg")
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            for proc in reversed(list(self._procs)):
                self.stop(proc)
            reap_stale_segments()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)
            if self._saved_env is not None:
                os.environ.clear()
                os.environ.update(self._saved_env)

    def fresh(self, name: str) -> Path:
        """A new, empty directory for one set-up or one leg."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.root))

    def env(
        self, home: Path, *, obs: str = "off", log: Path | None = None
    ) -> dict[str, str]:
        """Environment for a child whose caches all live under ``home``."""
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
            REPRO_OBS=obs,
            REPRO_TRACE_STORE=str(home / "traces"),
            REPRO_RUN_ROOT=str(home / "runs"),
            REPRO_RESULT_CACHE=str(home / "results"),
            REPRO_OBS_LOG=str(log if log is not None else home / "events.jsonl"),
        )
        return env

    # -- processes -----------------------------------------------------
    def spawn(self, argv: list[str], env: dict[str, str], log: Path) -> subprocess.Popen[str]:
        """Start a long-lived child in its own process group.

        Its stdout is a pipe (for the ready line); stderr goes to
        ``log``.  The own group lets :meth:`stop` reach grandchildren
        (a server's shard workers) as well.
        """
        with open(log, "ab") as stderr:
            proc = subprocess.Popen(
                argv, env=env, stdout=subprocess.PIPE, stderr=stderr,
                text=True, start_new_session=True,
            )
        self._procs.append(proc)
        return proc

    @contextlib.contextmanager
    def sampling(self) -> Iterator[Path]:
        """Run the host sampler (:mod:`bench.host`) around the body.

        Yields the file the samples go to; read it with
        ``bench.host.Samples.load`` once the body is done.  The sampler
        inherits this process's CPU affinity (``bench.host.pinned``).
        """
        home = self.fresh("host")
        samples = home / "samples.txt"
        proc = self.spawn([sys.executable, "-m", "bench.host", str(samples)],
                          self.env(home), home / "sampler.log")
        try:
            deadline = time.monotonic() + SAMPLER_START_S
            while not (samples.exists() and samples.stat().st_size):
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the host sampler did not start")
                time.sleep(0.01)
            yield samples
        finally:
            self.stop(proc)

    def stop(self, proc: subprocess.Popen[str]) -> None:
        """SIGTERM (a graceful drain), then SIGKILL the whole group.

        Helpers the child leaves in its group (multiprocessing's
        resource tracker unlinking shared memory) get a moment to
        finish before they are killed.
        """
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.wait()
        _kill_group(proc.pid, grace_s=2.0)
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self._procs:
            self._procs.remove(proc)


def _kill_group(pgid: int, grace_s: float = 0.0) -> None:
    """Wait ``grace_s`` for a process group to end, then kill the rest.

    The group's members are not our children once their leader has
    exited, so they cannot be waited for; poll until none is left
    running.  A killed member stays a zombie until init reaps it,
    which can take a while, so zombies count as gone.
    """
    started = time.monotonic()
    while _running_members(pgid) and time.monotonic() - started < STOP_TIMEOUT_S:
        if time.monotonic() - started >= grace_s:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(pgid, signal.SIGKILL)
        time.sleep(0.01)


def _running_members(pgid: int) -> list[int]:
    """Pids in process group ``pgid`` that are not zombies (Linux)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # exited while we looked
            continue
        state, _ppid, group = stat.rpartition(")")[2].split()[:3]
        if int(group) == pgid and state != "Z":
            members.append(int(entry))
    return members


def wait_ready(proc: subprocess.Popen[str], what: str, timeout: float = 60.0) -> str:
    """The child's first stdout line, which must announce ``ready``."""
    assert proc.stdout is not None
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            raise RuntimeError(f"{what} printed nothing within {timeout:.0f}s")
    line = proc.stdout.readline()
    if "ready" not in line:
        raise RuntimeError(f"{what} did not come up: {line.strip()!r}")
    return line


def environment() -> dict[str, Any]:
    """The hardware and software record printed with every run."""
    from repro.caches import columnar

    numpy = columnar.get_numpy()
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu": cpu,
        "numpy": f"numpy {numpy.__version__}" if numpy is not None else "stdlib kernels",
        "cpus": os.cpu_count(),
        "cpus_usable": available_cpus(),
    }
