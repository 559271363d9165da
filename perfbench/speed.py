"""Host-speed calibration of timed runs.

The benchmark shares a few cores of a host whose speed drifts: a fixed
piece of work takes up to 1.5x longer for tens of seconds to minutes at a
time, while the process's CPU time grows as fast as its wall time (the
slowdown is contention for the core and its caches, not time taken away
from the process).  Wall times of runs made minutes apart then differ by
more than any change worth detecting.

A ``Speedometer`` measures that speed while the program runs.  An interval
timer interrupts the measuring process every ``INTERVAL_S`` and runs a fixed
calibration kernel in the signal handler, on the same core and between the
program's own bytecodes.  ``net`` subtracts the kernel's time from a
measured interval; ``normalize`` scales it by the kernel's nominal duration
over its median duration around that interval.  A normalized time is the
wall time the program would have taken at the host's reference speed: a
program that does more work still reads slower, a host that is busier does
not.

Contention does not slow every kind of work alike.  Measured on a 2-vCPU
Xeon guest, a tight interpreter loop slows down with the acceptance pass
and the period quadrature, while object-allocating ``Fraction`` arithmetic
slows down with the metric sweeps and the exact queries; normalized by the
other kernel, each workload spreads two to four times as much.  So each
workload names the kernel that follows it (``WORKLOAD_KERNEL``).  Set-up
(imports and warm-up) is the same kind of work on every workload and is
normalized by the loop kernel, which follows it more closely.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# One kernel every 50 ms of wall time, 2-4 % of it.
INTERVAL_S = 0.05
# Kernel samples within this distance of an interval describe its speed.
WINDOW_S = 0.5


def loop_kernel() -> int:
    """Integer arithmetic in a tight interpreter loop."""
    total = 0
    for i in range(15_000):
        total += i * i
    return total


def fraction_kernel() -> Fraction:
    """Exact rational arithmetic: many short-lived objects and calls."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return total


# name -> (kernel, its duration at the reference speed, which sets the
# scale of every normalized time: about its median as a timer tick on a
# 2-vCPU Xeon guest).
KERNELS = {
    "loop": (loop_kernel, 1.0e-3),
    "fraction": (fraction_kernel, 1.6e-3),
}
SETUP_KERNEL = "loop"
WORKLOAD_KERNEL = {
    "certify": "loop",
    "cycle_quadrature": "loop",
    "potential_sweep": "fraction",
    "exact_queries": "fraction",
}


class Speedometer:
    """Runs one kernel on an interval timer and keeps (start, end) of every
    run on the ``time.monotonic`` clock, which on Linux is shared by the
    processes of one host."""

    def __init__(self, kernel: str) -> None:
        self.kernel = KERNELS[kernel][0]
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.monotonic()
        self.kernel()
        self.samples.append((start, time.monotonic()))

    def start(self) -> None:
        """Run the kernel once now, so that no interval goes unsampled, then
        every INTERVAL_S."""
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def net(samples, start: float, end: float) -> float:
    """``end - start`` less the kernel runs that began inside it."""
    starts = [s for s, _ in samples]
    lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
    return end - start - sum(e - s for s, e in samples[lo:hi])


def normalize(samples, start: float, end: float, seconds: float, nominal: float) -> float:
    """``seconds`` measured in [start, end], at the reference speed: scaled
    by ``nominal`` over the median kernel duration of the samples within
    WINDOW_S of the interval (all samples when none is that close)."""
    starts = [s for s, _ in samples]
    lo = bisect.bisect_left(starts, start - WINDOW_S)
    hi = bisect.bisect_right(starts, end + WINDOW_S)
    near = samples[lo:hi] or samples
    return seconds * nominal / statistics.median(e - s for s, e in near)
