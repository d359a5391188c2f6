"""The reference clock: how fast the shared machine runs right now.

The machine the benchmark was built on (a 2-vCPU Intel Xeon VM) switches
between a fast and a slow state in spells that last from seconds to
minutes, and in the slow state grit runs up to twice as long. Timing the
same fixed code next to grit's shows which state the machine is in. The
fixed code is frozen here, outside the program, so no change to grit moves
it: a pure-Python integer loop, and small numpy point-to-segment
projections like the ones grit's lane geometry makes.
"""

from __future__ import annotations

import math
import time

import numpy as np

# reference_s() in the fast state of the machine above; a timing taken at
# the reference clock is its wall time times REFERENCE_S / reference_s().
REFERENCE_S = 0.011

_rng = np.random.default_rng(0)
_LINES = [np.cumsum(_rng.random((30, 2)), axis=0) for _ in range(50)]
_SEGS = [(p[:-1], p[1:] - p[:-1]) for p in _LINES]
_SEGS = [(start, seg, (seg * seg).sum(axis=1)) for start, seg in _SEGS]
_POINTS = (_rng.random((300, 2)) * 10).tolist()


def _integer_loop() -> None:
    total = 0
    for i in range(100_000):
        total += i * i


def _projections() -> None:
    for n, (x, y) in enumerate(_POINTS):
        start, seg, seg_sq = _SEGS[n % len(_SEGS)]
        t = np.clip(((np.array([x, y]) - start) * seg).sum(axis=1) / seg_sq, 0.0, 1.0)
        closest = start + t[:, None] * seg
        float(np.hypot(closest[:, 0] - x, closest[:, 1] - y).min())


def reference_s() -> float:
    """Seconds the fixed code takes now: the best of three of each part."""
    total = 0.0
    for part in (_integer_loop, _projections):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total
