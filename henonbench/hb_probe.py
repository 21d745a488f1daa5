"""Machine-speed probe: a fixed kernel timed while an operation runs.

On a shared host the speed available to one process changes by tens of
percent over seconds to minutes (the same pass of ``jets`` took 7.5 s and
12 s a quarter of an hour apart, with no steal time), and a multi-second
operation averages over those changes, so no fastest-of-N removes them.
The probe runs a small fixed kernel from a SIGPROF handler every
``INTERVAL_S`` of CPU time, so its samples cover the operation itself rather
than the moments before and after it.  The kernel's own time is subtracted
from the operation's time.

``quiet_seconds`` scales an operation's time by ``REFERENCE_S`` over the
kernel's mean time while it ran: the operation's time on a machine where the
kernel takes ``REFERENCE_S``.  The kernel is fixed code outside henonlab, so
a change to henonlab moves the scaled time as it moves the raw time
on an unchanged machine.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.1
# About the kernel's fastest time on the 2-core Xeon of NOTES.md, so that a
# scaled time reads close to the raw time there when the host is quiet.
REFERENCE_S = 0.75e-3
_S = np.linspace(0.0, 1.0, 64).reshape(8, 8)


def kernel() -> float:
    """Seconds taken by 400 numpy calls on an 8x8 array (under 1 ms): the
    per-call interpreter and numpy dispatch work that most of henonlab's
    time goes to.  Four kernels were sampled side by side in eight separate
    processes per workload: this one, a pure-Python loop, a mix of the two,
    and a 256k-element vector expression.  This one tracked the slowdown of
    all three workloads best: the interquartile range over the median of
    the processes' pass times fell from 0.46 (raw) to 0.03 on ``jets``,
    0.13 to 0.04 on ``julia`` and 0.13 to 0.05 on ``scan``."""
    t0 = time.perf_counter()
    for _ in range(400):
        (_S * 2.0 + _S).sum()
    return time.perf_counter() - t0


class Probe:
    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Sample once on entry, then every ``INTERVAL_S`` of CPU time."""
        self._sample()
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def mean(self) -> float:
        return statistics.fmean(self.samples)


def quiet_seconds(seconds: float, probe_s) -> float:
    """``seconds`` at the reference kernel speed; an operation that never
    ran (no samples) keeps its time."""
    return seconds if probe_s is None else seconds * REFERENCE_S / probe_s


def sample(n: int) -> float:
    """Mean kernel time over ``n`` back-to-back runs."""
    return statistics.fmean(kernel() for _ in range(n))
