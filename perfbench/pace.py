"""The host's pace: how long a fixed reference kernel takes right now.

The build host is a 2-vCPU guest whose physical cores other guests
share.  Its speed moves by up to ~1.6x, sometimes within a second and
sometimes for minutes at a time, and the process CPU time moves with the
wall time.  No statistic over one run's own operations removes a slow
stretch that covers the whole run.  So the benchmark times a fixed
reference kernel every half second or so between operations and scales
every measured time by ``NOMINAL_S`` over the kernel's time at that
moment: a time is reported as it would read on the host at its nominal
pace.  The kernel is benchmark code, so a change to the program cannot
change the yardstick: the numpy skyline of ``perfbench/oracle.py`` on a
fixed 2,000 x 5 input, then a pure-Python skyline of a fixed 150-point
list.  The program mixes interpreted code and numpy, and the host's
fast and slow states speed the two up by different factors (a numpy
kernel by ~1.4x, a pure-Python loop by ~1.6x), so the kernel holds
both.  Raw wall-clock figures stay in the run record next to the scaled
ones.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Sequence, Tuple

import numpy as np

from perfbench import oracle
from perfbench.stats import MISS

#: the kernel's time on the build host at its usual pace (median of 100
#: back-to-back ticks: 11.9 ms)
NOMINAL_S = 0.012
#: the kernel's inputs: grid points, so the oracle's integer shortcut
#: holds
_ROWS, _PY_ROWS, _DIMS, _SEED = 2_000, 150, 5, 20190408


def python_skyline(rows: List[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Block-nested-loop skyline in plain Python (minimisation)."""
    sky: List[Tuple[int, ...]] = []
    for p in rows:
        if any(q != p and all(a <= b for a, b in zip(q, p)) for q in sky):
            continue
        sky = [q for q in sky
               if not (q != p and all(a <= b for a, b in zip(p, q)))]
        sky.append(p)
    return sky


class Pace:
    """Reference-kernel times taken during a run, and the scaling of
    operation times by them."""

    def __init__(self, every: float = 0.5) -> None:
        self.every = every
        rng = np.random.default_rng(_SEED)
        self._points = rng.integers(0, 4096, size=(_ROWS, _DIMS)).astype(
            np.float64)
        self._ids = np.arange(_ROWS, dtype=np.int64)
        self._rows = [tuple(int(x) for x in row) for row in rng.integers(
            0, 4096, size=(_PY_ROWS, _DIMS))]
        #: when each reference time was taken, and the time
        self.at: List[float] = []
        self.reference: List[float] = []

    def tick(self, force: bool = False) -> None:
        """Time the kernel (best of two calls) unless it was timed less
        than ``every`` seconds ago; ``force`` times it regardless."""
        now = perf_counter()
        if not force and self.at and now - self.at[-1] < self.every:
            return
        best = MISS
        for _ in range(2):
            began = perf_counter()
            oracle.skyline_ids(self._points, self._ids)
            python_skyline(self._rows)
            best = min(best, perf_counter() - began)
        self.at.append(perf_counter())
        self.reference.append(best)

    def scaled(self, starts: Sequence[float], times: Sequence[float]
               ) -> List[float]:
        """Each time times ``NOMINAL_S`` over the kernel's time at the
        operation's midpoint (interpolated); a miss stays a miss."""
        if not self.at:
            raise ValueError("the kernel was never timed")
        out = []
        for start, elapsed in zip(starts, times):
            if elapsed == MISS:
                out.append(MISS)
                continue
            ref = float(np.interp(start + elapsed / 2, self.at,
                                  self.reference))
            out.append(elapsed * NOMINAL_S / ref)
        return out

    def median_s(self) -> float:
        return float(np.median(self.reference)) if self.reference else 0.0
