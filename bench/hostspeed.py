"""Host speed, measured around each round, to report times at one speed.

On a shared 2-core host the same work takes up to ~50% longer in some
minutes than in others, on both cores together (CPU time equals wall time;
steal time is nil).  A run cannot outlast that drift.  So the run times a
fixed kernel in a short burst before and after every round, and reports

    time = raw time * REFERENCE_S / (mean kernel time in the bursts)

The kernel does what the program does most: interpreter-bound scalar math
(log-gamma, complex recurrences) and small numpy calls.  It is independent
of the program, so a change to the program moves the raw time and leaves
the kernel alone.  The bursts run between rounds, with nothing else
running, so the work of a round does not change what they read.
"""

from __future__ import annotations

import math
import time

import numpy as np

BURST_S = 0.5
REFERENCE_S = 250e-6


def kernel():
    s = 0.0
    for i in range(600):
        s += math.lgamma(i + 1.5)
    z, acc = 0.3 + 0.2j, 0j
    for i in range(600):
        acc = acc * z + i
    a = np.arange(32.0)
    for _ in range(40):
        a = np.sqrt(a + 1.0)
    return s, acc, a


def burst() -> list[float]:
    """Kernel call times over BURST_S of wall time."""
    samples = []
    end = time.perf_counter() + BURST_S
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return samples


def scale(samples: list[float]) -> float:
    """REFERENCE_S over the mean kernel time of ``samples``."""
    return REFERENCE_S * len(samples) / sum(samples)
