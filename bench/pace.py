"""The machine's pace, and timings scaled by it.

The reference machine is a few cores of a shared host whose speed wanders by
up to 1.5x within seconds, as neighbours come and go; CPU time moves with wall
time, so it does not help. Every timed call is therefore bracketed by a short
fixed kernel of the benchmark's own, and its time is scaled by the kernel's
nominal time over its measured time. The kernel does not touch cfgctrl, so a
change to the program moves the scaled time exactly as it moves the raw time,
while the machine's speed changes largely cancel. Raw times are kept beside
the scaled ones in every record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_ARRAY = np.linspace(-1.0, 1.0, 1024).reshape(256, 4)
_MATRIX = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
_WIDE = np.linspace(-1.0, 1.0, 20_000).reshape(10_000, 2)


def small_kernel() -> float:
    """Wall time of a fixed mix of interpreter, small-array and 4x4 numpy work."""
    start = perf_counter()
    acc, row = 0.0, []
    for i in range(1500):
        acc += (i % 7) * 0.5
        row.append(acc)
    x = _ARRAY
    for _ in range(25):
        x = np.tanh(x * 0.5 + x.sum(axis=1, keepdims=True) * 1e-3)
    v = np.ones(4)
    for _ in range(60):
        v = _MATRIX @ v
        v = v / np.linalg.norm(v)
    return perf_counter() - start


def wide_kernel() -> float:
    """Wall time of fixed arithmetic on a 10,000 x 2 array, the shape of a 10k-trajectory batch."""
    start = perf_counter()
    x = _WIDE
    for _ in range(8):
        x = x * 0.999 + _WIDE * 1e-3
        x.sum(axis=1)
    return perf_counter() - start


# Each kernel with its time on the reference machine at its median speed; scaled times are in
# seconds of that machine. A workload is paced by the kernel whose slowdowns track its own. The
# slope of log operation time on log kernel time, over single operations: synth runs 1.02 on
# small; 10k-trajectory batches 0.59 on small, 1.09 on wide.
KERNELS = {"small": (small_kernel, 0.0012), "wide": (wide_kernel, 0.0023)}


def machine_pace(kernel: str = "small", repeats: int = 3) -> float:
    """The machine's current pace: the best of ``repeats`` times of ``kernel``."""
    run = KERNELS[kernel][0]
    return min(run() for _ in range(repeats))


def paced(elapsed: float, before: float, after: float, kernel: str = "small") -> float:
    """``elapsed`` scaled to the reference speed, from the pace measured around it."""
    return elapsed * KERNELS[kernel][1] / (0.5 * (before + after))


class PacedClock:
    """Times the calls of one operation, each with the machine's pace measured around it."""

    def __init__(self, kernel: str = "small"):
        self.kernel = kernel
        self.raw = 0.0    # seconds as measured
        self.paced = 0.0  # seconds scaled to the reference speed

    def __call__(self, fn, *args):
        before = machine_pace(self.kernel)
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        self.raw += elapsed
        self.paced += paced(elapsed, before, machine_pace(self.kernel), self.kernel)
        return result
