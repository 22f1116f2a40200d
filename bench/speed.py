"""Host-speed probe: times measured in seconds at a fixed reference speed.

The benchmark runs on shared virtual machines whose CPUs change speed by a
third or more for seconds to minutes at a time while the process keeps
running (its CPU time moves with its wall time).  A median within one run
cannot cancel a slow phase that outlasts the run, so raw wall times of the
same code spread too widely between runs to hold a regression bound.

SpeedProbe samples the host's speed while a timed section runs: a real-time
interval timer interrupts the main thread every INTERVAL_S, and the signal
handler times KERNEL, a fixed piece of exact rational arithmetic of the
kind that dominates reflect_gkm.  The section's own time (wall time minus
the probe's) is scaled by REFERENCE_US over the kernel's mean time, which
gives the seconds the section would take on a host where one kernel call
takes REFERENCE_US microseconds.  A program change moves this figure as it
moves wall time; a slow phase of the host moves the kernel with it and
cancels out.  The probe costs about one percent of the section.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
REFERENCE_US = 100.0
_TERMS = tuple(Fraction(i % 97 + 1, i % 13 + 1) for i in range(1, 61))


def kernel() -> Fraction:
    total = Fraction(0)
    for term in _TERMS:
        total += term
    return total


class SpeedProbe:
    """Context manager that times its section (wall_s) and KERNEL every
    INTERVAL_S of it, plus once just before and once just after it, so that
    even a short section has samples."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall_s = 0.0
        self._inside_s = 0.0  # kernel time inside the section

    def _time_kernel(self) -> float:
        t0 = time.perf_counter()
        kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def _on_alarm(self, *_):
        self._inside_s += self._time_kernel()

    def __enter__(self):
        self._time_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._time_kernel()
        return False

    def slowdown(self) -> float:
        """The mean kernel time over REFERENCE_US."""
        return statistics.fmean(self.samples) * 1e6 / REFERENCE_US

    def scaled_s(self) -> float:
        """The section's own time, less the probe's, in reference seconds."""
        return (self.wall_s - self._inside_s) / self.slowdown()
