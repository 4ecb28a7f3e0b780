"""Host-speed calibration: a fixed reference job, timed between operations.

On a shared host the same code runs up to 1.6 times faster or slower from
one moment to the next: the job below takes about 17 ms in the fast state
and 26 ms in the slow one, and the share of time spent in each changes
over minutes (see README.md).  A run's raw times therefore say as much
about the host's state as about the program.  The measured process also
times this job, which does not use the package, between its operations,
and the time metrics are reported in reference seconds:

    reference seconds = measured seconds * REF_S / mean job time

that is, the time the operation would take on a host where the job takes
``REF_S``.  A change to the package moves the operation's time but not
the job's, so it shows in full.

The job is a Python loop and numpy calls on 1024-element arrays, the kind
of work every workload's operation is made of.  Each sample is a short
look at the host's state, so their mean, not their median, follows the
share of time spent in each state, as an operation's duration does.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_S = 0.022          # a fixed scale: about the job's time on the baseline host
SHARE = 0.10           # job time kept at this share of the operations' time
MIN_SAMPLES = 5        # taken before the first operation


class Calibrator:
    """Times the job and keeps its total at SHARE of the busy time."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._draws = rng.integers(0, 4, size=(32, 1024))
        self._dx = np.array([1, -1, 0, 0])
        self._dy = np.array([0, 0, 1, -1])
        self._grid = rng.integers(-1, 8, size=(256, 256))
        self.samples: list[float] = []

    def _job(self) -> int:
        acc, table = 0, {}
        for i in range(70_000):
            acc = (acc + i * i) % 1_000_003
            table[i & 255] = acc
        for k in range(180):
            d = self._draws[k % 32]
            xs = np.clip(128 + np.cumsum(self._dx[d]), 0, 255)
            ys = np.clip(128 + np.cumsum(self._dy[d]), 0, 255)
            acc += int(np.count_nonzero(self._grid[xs, ys] < 0))
        return acc + len(table)

    def keep_up(self, busy_s: float) -> None:
        """Sample until the job has taken SHARE of ``busy_s``, and at
        least MIN_SAMPLES times."""
        need = MIN_SAMPLES - len(self.samples)
        deficit = SHARE * busy_s - sum(self.samples)
        if self.samples and deficit > 0:
            need = max(need, math.ceil(deficit / statistics.mean(self.samples)))
        for _ in range(need):
            t0 = time.perf_counter()
            self._job()
            self.samples.append(time.perf_counter() - t0)


def speed_factor(samples) -> float:
    """How much slower than the baseline host the host ran."""
    return statistics.mean(samples) / REF_S
