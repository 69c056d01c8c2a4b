"""Host speed, measured with a fixed reference kernel.

On a shared machine the same code runs 20 to 40 percent faster or slower
from one minute to the next, with process CPU time equal to wall time,
so neither a longer run nor CPU time removes the drift from a timing.
The benchmark therefore times a fixed kernel alongside the program and
scales every end-to-end timing by REF_NOMINAL_S over the kernel's median:
a timing reads as it would on a host that runs the kernel in
REF_NOMINAL_S. The kernel mixes the kinds of work the program does
(small dense SVDs, an interpreted loop, elementwise passes over a long
array) and calls nothing of the program, so a change to the program
moves the scaled timings and a change of host speed does not.

The kernel runs between operations, so it tracks the host speed only
when operations are short against the host's speed swings. Over ten
runs of ten-second operations its scale swung by 30 percent while the
operations' median swung by 16, and scaling did not narrow the spread
between runs; such a workload keeps its unscaled timings (README.md,
Host speed).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median on the host README.md describes, at its usual speed.
REF_NOMINAL_S = 0.010

_RNG = np.random.default_rng(0)
_DESIGN = _RNG.standard_normal((1000, 39))
_COLUMN = _RNG.standard_normal(100_000)


def kernel() -> float:
    """Run the reference kernel once; return its wall time."""
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.svd(_DESIGN, full_matrices=False)
    acc = 0.0
    for k in range(10_000):
        acc += k * 0.5
    for _ in range(3):
        np.exp(_COLUMN) * _COLUMN + np.sqrt(np.abs(_COLUMN))
    return time.perf_counter() - start


class Reference:
    """Kernel times sampled through a run; when not `enabled` it samples
    nothing and scales by 1."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.times: list[float] = []
        if enabled:
            kernel()  # first call loads LAPACK; not a sample

    def sample(self, seconds: float) -> None:
        """Run the kernel until `seconds` have passed, at least once."""
        if not self.enabled:
            return
        begin = time.perf_counter()
        self.times.append(kernel())
        while time.perf_counter() - begin < seconds:
            self.times.append(kernel())

    def scale(self) -> float:
        """Factor that turns a timing taken during the samples into one
        at the nominal speed."""
        if not self.enabled:
            return 1.0
        return REF_NOMINAL_S / statistics.median(self.times)
