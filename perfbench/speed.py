"""Machine-speed calibration that the benchmark scales its stage times by.

On a shared 2-vCPU Intel Xeon virtual machine, a fixed loop of interpreter
work and small numpy operations ran up to 40% slower in some 5-second windows
than in others, in phases that lasted from seconds to more than half a
minute; CPU time slowed as much as wall time, so the cause is outside the
process. Whole benchmark runs landed in one phase or the other: over ten
seeds, the raw round times of one workload spread by 15-35% (interquartile
range over median), and the scaled ones by 7-10%.

So each stage's time is scaled to the loop's reference speed: the loop is
timed right before and right after the stage, and the stage's seconds are
multiplied by REFERENCE_S over the mean of the two. Code that gets faster
still reads faster; a slow phase of the machine reads much less slow. The raw
seconds are printed next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# The loop's duration on that machine in its fast phase, so that scaled
# seconds read close to raw seconds there.
REFERENCE_S = 0.032
ITERATIONS = 1600
# A calibration this recent still describes the machine for the next stage.
FRESH_S = 0.5

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((14, 3))
_I, _J = np.triu_indices(14, k=1)
_MATRIX = _rng.standard_normal((40, 40))


def loop_seconds() -> float:
    """Time a fixed mix of the work confgen's hot paths do: bytecode, fancy
    indexing and reductions on small arrays, and a small matmul."""
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        d = _POINTS[_I] - _POINTS[_J]
        np.sqrt((d * d).sum(axis=1)).sum()
        _MATRIX @ _MATRIX
        sum(i * i for i in range(40))
    return time.perf_counter() - start


class Calibration:
    """The latest loop time, reused while fresh."""

    def __init__(self):
        self.seconds = 0.0
        self._taken_at = -FRESH_S

    def measure(self) -> float:
        self.seconds = loop_seconds()
        self._taken_at = time.perf_counter()
        return self.seconds

    def current(self) -> float:
        if time.perf_counter() - self._taken_at > FRESH_S:
            return self.measure()
        return self.seconds


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds at the reference speed, given the loop times around them."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
