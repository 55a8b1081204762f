"""Machine-speed probe: scales timings to a reference speed.

The benchmark runs on a shared 2-core machine whose speed drifts by 15-50%
over seconds to minutes, while a run lasts tens of seconds, so raw run-to-run
timings spread by up to a third. A fixed calibration kernel (an interpreter
loop, small-array sorts and tiny numpy calls, the mix that dominates the
workloads' per-profile code; no burnlab code) is
timed between ops, at most every INTERVAL_S. An op's latency is multiplied by
REFERENCE_S over the median of the kernel times nearest to it, so timings
read as seconds on a machine where the kernel takes REFERENCE_S. Raw times
stay in the record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the 2-core machine the benchmark was tuned on.
REFERENCE_S = 0.0015
INTERVAL_S = 0.1
# factor_at uses the samples within this many places of a mark on each side.
NEAREST = 2

_SORTED = np.arange(2048, dtype=float)
_TINY = np.array([0.3, 0.1, 0.7, 0.5])


def _kernel() -> float:
    s = 0
    for i in range(5_000):
        s += i * i % 7
    a = _SORTED.copy()
    for _ in range(20):
        a = np.sort(a[::-1]) + 1.0
    for _ in range(50):
        s += np.unique(np.concatenate((_TINY, [0.2]))).size
        s += int(np.searchsorted(_TINY, 0.4))
    return s + float(a[0])


def _timed_kernel() -> float:
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class SpeedProbe:
    """Kernel timings over one stretch of a run (a pass or a set-up)."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self, times: int = 1):
        begin = perf_counter()
        for _ in range(times):
            # The fastest of three back-to-back runs: the first one refills
            # the caches the workload evicted, which is not a speed change.
            self.samples.append(min(_timed_kernel() for _ in range(3)))
        self._last = perf_counter()
        self.spent += self._last - begin

    def maybe_sample(self):
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def mark(self) -> int:
        """Position in the sample sequence, to be passed to factor_at."""
        return len(self.samples)

    @property
    def factor(self) -> float:
        """Multiplier from this stretch's seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)

    def factor_at(self, mark: int) -> float:
        """The multiplier from the samples nearest to a mark: speed drifts
        within a pass too."""
        lo = max(0, mark - 1 - NEAREST)
        return REFERENCE_S / statistics.median(self.samples[lo:mark + NEAREST])
