"""The host's speed, and timings read against it.

The benchmark runs on a few cores of a shared virtual machine whose
speed moves by a factor of two to four for minutes at a time, and
jitters within a second, for reasons the guest cannot see: the slow
spells show neither as steal time nor as lost CPU time, only as every
instruction taking longer, on every CPU at once.  A raw timing taken
in a slow spell cannot be compared with one taken in a fast spell.

So while a workload runs, a *sampler* process (``python -m bench.host
FILE``) times a fixed pure-Python loop, the *reference*, every
``SAMPLE_INTERVAL_S`` seconds, and every timing is reported
*host-adjusted*::

    adjusted = measured * reference_rate / NOMINAL_RATE

where ``reference_rate`` is the mean of the samples taken while the
timed work ran: the time the work would have taken on a host that
runs the reference at ``NOMINAL_RATE`` iterations per microsecond.
The reference never calls the repository's code, so a change to that
code moves an adjusted timing exactly as much as the raw one; only the
host's own swings cancel.  A sample is timed in the sampler's own CPU
time, so a sample that had to wait for a busy CPU still reads the
CPU's speed, not how busy it was; and it is the fastest of a few short
chunks, so a chunk that another process preempted, and whose caches it
left cold, does not count.  The raw timings are printed as note lines.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Iterator

#: ``(start, end)`` of a timed span, in ``time.perf_counter`` seconds.
Span = tuple[float, float]

#: Reference iterations per microsecond an adjusted timing assumes
#: (about the 2-vCPU host of bench/README.md in its fast mode).
NOMINAL_RATE = 20.0
#: One sample: the fastest of ``SAMPLE_CHUNKS`` chunks of this many
#: loop iterations (a tenth of a millisecond each at the nominal rate),
#: every ``SAMPLE_INTERVAL_S`` (about 2.5 % of one CPU).  At 20 ms a
#: quarter-second experiment holds a dozen samples of its own; at 50 ms
#: the same experiments read twice as noisy.
CHUNK_ITERATIONS = 2_000
SAMPLE_CHUNKS = 5
SAMPLE_INTERVAL_S = 0.02
#: A timing is adjusted by the mean of at least this many samples:
#: those taken while it ran or, for a short one, the nearest.
MIN_SAMPLES = 10


def reference_rate() -> float:
    """One sample: the loop's iterations per microsecond of CPU time,
    in the fastest of ``SAMPLE_CHUNKS`` chunks."""
    table: dict[int, int] = {}
    fastest = float("inf")
    for _ in range(SAMPLE_CHUNKS):
        started = time.thread_time()
        for i in range(CHUNK_ITERATIONS):
            table[i & 255] = i
        fastest = min(fastest, time.thread_time() - started)
    return CHUNK_ITERATIONS / fastest / 1e6


def adjusted(seconds: float, rate: float) -> float:
    """``seconds`` measured at reference ``rate``, on the nominal host."""
    return seconds * rate / NOMINAL_RATE


class Samples:
    """The sampler's readings: ``(perf_counter time, rate)`` pairs.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux,
    so the sampler's times and the harness's compare directly.
    """

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        if not samples:
            raise ValueError("the host sampler took no samples")
        self.samples = sorted(samples)
        self._times = [at for at, _ in self.samples]

    @classmethod
    def load(cls, path: Path) -> "Samples":
        # The sampler is killed mid-write at the end; skip a torn line.
        lines = [line.split() for line in path.read_text().splitlines()]
        return cls([(float(at), float(rate)) for at, rate in
                    (words for words in lines if len(words) == 2)])

    def rate(self, start: float, end: float) -> float:
        """Mean rate over ``[start, end]``, widened symmetrically to
        the ``MIN_SAMPLES`` nearest samples when fewer fell inside."""
        low = bisect.bisect_left(self._times, start)
        high = bisect.bisect_right(self._times, end)
        while high - low < MIN_SAMPLES and (low > 0 or high < len(self._times)):
            before = start - self._times[low - 1] if low > 0 else float("inf")
            after = self._times[high] - end if high < len(self._times) else float("inf")
            if before <= after:
                low -= 1
            else:
                high += 1
        return statistics.fmean(rate for _, rate in self.samples[low:high])

    def adjusted(self, start: float, end: float) -> float:
        """The host-adjusted length of the span ``[start, end]``."""
        return adjusted(end - start, self.rate(start, end))

    def summary(self) -> str:
        rates = [rate for _, rate in self.samples]
        return (f"host reference {statistics.median(rates):.2f} it/us (min {min(rates):.2f}, "
                f"max {max(rates):.2f}, {len(rates)} samples)")


@contextlib.contextmanager
def pinned() -> Iterator[None]:
    """Pin this process to one CPU for the body, and with it every
    process it starts meanwhile: the sampler, offline passes, servers.

    The guest's CPUs do not slow down together, so a sampler on one
    CPU misreads work on the other; on one CPU it time-shares with the
    work and reads the speed the work ran at.
    """
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def main(argv: list[str] | None = None) -> int:
    """``python -m bench.host FILE``: append ``time rate`` lines to
    FILE, one per sample, until the process is terminated."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m bench.host FILE", file=sys.stderr)
        return 2
    with open(args[0], "a", encoding="utf-8") as out:
        while True:
            time.sleep(SAMPLE_INTERVAL_S)
            at = time.perf_counter()
            out.write(f"{at!r} {reference_rate()!r}\n")
            out.flush()


if __name__ == "__main__":
    raise SystemExit(main())
