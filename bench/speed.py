"""Machine-speed calibration, so that timings survive host contention.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, with CPU time tracking wall time (the slowdown is
contention, not descheduling).  Medians over one run cannot remove a
slowdown that lasts the whole run.  So the worker runs this fixed kernel,
which is independent of the program, between operations and divides each
latency by the speed index measured around it: reported times are seconds
at the reference speed, at which the index reads 1.0.

The kernel mixes the three kinds of work the program does: a scalar
Python loop, small NumPy calls from a Python loop (greedy and estimator
steps), and vectorised NumPy over a 4 x 40k array (grid scans, genomic
matrices).  Each part is scaled by its reference time, measured as the
10th percentile of 700 repeats on the reference machine (see README.md).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_X = np.random.default_rng(0).uniform(0.0, 10.0, (4, 40_000))
_G = np.random.default_rng(1).uniform(0.0, 1.0, (4, 4))


def _python() -> float:
    s = 0.0
    for i in range(30_000):
        s += i * 0.5
    return s


def _small_numpy() -> None:
    c = np.zeros(6)
    for i in range(1_200):
        c[i % 6] += 1.0
        int(np.argmax(c))


def _vector() -> None:
    for _ in range(4):
        int(np.sqrt(_G @ _X).sum(axis=0).argmax())


PARTS = ((_python, 0.0019), (_small_numpy, 0.0024), (_vector, 0.0066))
WINDOW_S = 1.0  # index samples within this distance of an operation are used


def index() -> float:
    """Current slowness relative to the reference: 1.0 at reference speed."""
    total = 0.0
    for part, reference in PARTS:
        t0 = time.perf_counter()
        part()
        total += (time.perf_counter() - t0) / reference
    return total / len(PARTS)


def factor(samples: list, start: float, end: float) -> float:
    """Median index of the samples taken within WINDOW_S of [start, end];
    the nearest sample when none is that close."""
    near = [i for t, i in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    if near:
        return statistics.median(near)
    mid = 0.5 * (start + end)
    return min(samples, key=lambda s: abs(s[0] - mid))[1]
