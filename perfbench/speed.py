"""The machine's speed, measured alongside the work it is used to scale.

On a shared virtual machine the speed of one process changes by up to 2x,
from one tenth of a second to the next and over minutes, whatever that
process runs (see README.md, *Noise*).  So the benchmark times a small
fixed kernel (exact arithmetic and dict work in the style of spinalg's
own, but no spinalg code) next to every measured interval, and reports the
interval scaled to a fixed reference speed: the speed at which the kernel
takes ``REFERENCE_S`` seconds.  A change to the program moves the scaled
time as it moves the measured time; a change in the machine's speed moves
both the interval and the kernel, and mostly cancels.

Inside a session a ``Speedometer`` runs the kernel from a ``SIGALRM``
handler every ``PERIOD_S`` seconds; the kernel's own time is taken out of
every interval it falls into.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0004  # the kernel's time at the reference speed
PERIOD_S = 0.02


def kernel() -> int:
    """A fixed piece of exact arithmetic and dictionary work, about 0.4 ms."""
    acc = Fraction(0)
    for i in range(1, 50):
        acc += Fraction(i % 7 - 3, i)
    counts: dict = {}
    for i in range(400):
        key = (i & 63, (i * 7) & 31, i % 5)
        counts[key] = counts.get(key, 0) + i
    return acc.numerator + len(counts)


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured where the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Speedometer:
    """Kernel timings taken every ``PERIOD_S`` seconds while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def __enter__(self) -> "Speedometer":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def interval(self, start: float, end: float) -> tuple[float, float]:
        """The work time of ``[start, end]`` and that time at reference speed.

        Kernel runs that started inside the interval are taken out of it; the
        speed is the median kernel time over the runs within one period of it
        (at least the nearest run on each side)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        work = end - start - sum(self.times[lo:hi])
        near_lo = min(bisect.bisect_left(self.starts, start - PERIOD_S), max(lo - 1, 0))
        near_hi = max(bisect.bisect_right(self.starts, end + PERIOD_S), hi + 1)
        return work, scale(work, statistics.median(self.times[near_lo:near_hi]))
