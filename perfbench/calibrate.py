"""A fixed calibration kernel that tracks how fast the host runs right now.

The host's speed drifts on its own by 30% or more within minutes, and CPU
time drifts with wall time, so the slow-downs are slower execution rather
than lost scheduling.  The benchmark runs short slices of this kernel between
its timed steps and reports times scaled to the speed at which one slice
takes :data:`REFERENCE_SLICE_S`.  The kernel mixes what the workloads
do: a Python loop over small NumPy arrays, BLAS matrix products, and plain
interpreter arithmetic.  Its inputs are constants, so every slice does the
same work in every run and on every commit.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one slice takes at the reference speed.  Any constant would do;
# this is a typical slice time on a 2-vCPU Xeon VM, so that scaled and raw
# seconds are of the same size there.
REFERENCE_SLICE_S = 0.007
# A calibration sample runs at least this many slices, and slices worth
# this share of the timed step before it.
MIN_SLICES = 3
SHARE = 0.05

_SMALL = np.linspace(-1.0, 1.0, 256).reshape(16, 16, 1)
_ROWS = np.linspace(-1.0, 1.0, 128 * 256).reshape(128, 256)
_WEIGHTS = np.cos(np.arange(128 * 256, dtype=np.float64)).reshape(128, 256)


def calibration_slice() -> float:
    """One fixed unit of mixed work; returns a checksum so nothing is skipped."""
    total = 0.0
    for i in range(300):
        total += float((_SMALL * (i % 7) + 1.0).sum())
    for _ in range(10):
        total += float((np.maximum(_ROWS @ _WEIGHTS.T, 0.0) @ _WEIGHTS).sum())
    acc = 0
    for i in range(10000):
        acc += i * i
    return total + acc


class Calibration:
    """Calibration samples taken before and after each timed step of a phase.

    Call :meth:`sample` once before the first step and once after every
    step.  Step ``i`` is then scaled by the samples on either side of it, so
    the scale follows the host's speed from step to step.
    """

    def __init__(self) -> None:
        self.samples: list[list[float]] = []

    def sample(self, step_seconds: float = 0.0) -> None:
        slices: list[float] = []
        while len(slices) < MIN_SLICES or sum(slices) < SHARE * step_seconds:
            started = time.perf_counter()
            calibration_slice()
            slices.append(time.perf_counter() - started)
        self.samples.append(slices)

    def factors(self) -> list[float]:
        """Per step: the reference slice time over the median slice beside it."""
        return [
            REFERENCE_SLICE_S / statistics.median(before + after)
            for before, after in zip(self.samples, self.samples[1:])
        ]

    def summary(self) -> dict:
        slices = [s for sample in self.samples for s in sample]
        return {"slices": len(slices), "median_s": statistics.median(slices)}
