"""A fixed unit of work that measures how fast the host runs right now.

The benchmark's host is shared.  Its speed drifts by tens of percent over
seconds to minutes, and the drift moves CPU time as much as wall time, so
neither can be compared across runs as it stands.  ``kernel`` does the same
work on every call and never touches cachecast, so its CPU time tracks only
the host.  Every time the benchmark reports is scaled by
``REFERENCE_KERNEL_S / <kernel time measured alongside it>``: the time the
program would have taken on a host that runs the kernel in
``REFERENCE_KERNEL_S``.  The raw times are kept in the run record.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# About the median kernel CPU time on the 2-CPU Xeon host the bounds were set on.
REFERENCE_KERNEL_S = 0.0009

_BITS = np.random.default_rng(0).integers(0, 2, size=(32, 2048), dtype=np.uint8)
KERNEL_RESULT = 1159


def kernel() -> int:
    """Exact rational sums, hashing, sorting, combinations and small numpy
    XORs: the mix of work cachecast's planners and simulator do."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 150):
        acc += Fraction(i, i * i + 1)
        table[(i, i % 7)] = acc.denominator % 9973
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    combos = sum(1 for c in itertools.combinations(range(14), 3) if sum(c) % 3 == 0)
    x = np.zeros(_BITS.shape[1], dtype=np.uint8)
    for row in _BITS:
        x ^= row
        x[::3] ^= row[1::3][: x[::3].size]
    return ranked[0][1] + combos + int(x.sum())


def timed_kernel(repeats: int = 3) -> float:
    """Median CPU time of ``repeats`` back-to-back kernel runs."""
    times = []
    for _ in range(repeats):
        c0 = time.process_time()
        if kernel() != KERNEL_RESULT:
            raise RuntimeError("calibration kernel gave a wrong result")
        times.append(time.process_time() - c0)
    return statistics.median(times)


SAMPLE_INTERVAL_S = 0.1


class Sampler:
    """Times the kernel every ``SAMPLE_INTERVAL_S`` of wall time, from
    SIGALRM, while the workload runs in the same thread.

    ``spent`` is the CPU time the sampler used, to be taken off the
    workload's own CPU time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a signal that arrived while a sample was taken
            return
        self._busy = True
        try:
            c0 = time.process_time()
            self.samples.append(timed_kernel())
            self.spent += time.process_time() - c0
        finally:
            self._busy = False

    def start(self) -> None:
        timed_kernel()  # warm-up, not kept
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int, last: int) -> float:
        """The factor that takes the CPU time between ``samples[first]`` and
        ``samples[last]`` to the reference host.

        Samples are evenly spaced in time, so the factor is the mean of
        ``REFERENCE_KERNEL_S / sample`` over them.  A stretch too short to
        hold a sample uses the three samples before it.
        """
        if last <= first:
            first, last = max(0, first - 3), first
        return statistics.fmean(REFERENCE_KERNEL_S / k for k in self.samples[first:last])
