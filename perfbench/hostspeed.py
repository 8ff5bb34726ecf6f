"""Host-speed calibration: a fixed piece of work, independent of the
library, timed around every timed operation of the untraced run.

On a shared machine the host's speed moves by 20 % to 2x over phases of
20-60 s, as other tenants load the cores, the shared cache and memory.  A
run of a few tens of seconds cannot outlast those phases, so its medians
follow the phase it ran in.  Each timed sample is therefore scaled by how
long the calibration kernel took around it:

    reported = raw * NOMINAL_S / reading

which gives seconds on a host where the kernel takes ``NOMINAL_S`` (about
its median on the 2-core Xeon VM the benchmark was sized on).

The kernel does, in about equal parts, the two kinds of work the library
is made of: a pure-Python loop (the interpreter work of the per-block
loops in construct and factors) and a batched product of 16x16 complex
blocks with vectors over an 8 MB block array (the arithmetic of apply, the
transfer factors and the middle level).  Tried alone, each part took out
about half of the drift between 20 s windows of factorize, apply, save and
load on the streaming workload, and neither alone followed every one of
them.  The kernel runs only benchmark code and numpy, so no change to the
library moves it.  The raw (unscaled) timings are kept in the result file
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds of one kernel call the readings are scaled to.
NOMINAL_S = 2.5e-3
#: Kernel calls per reading; a reading is their median.
CALLS = 3
#: Seconds after a reading within which it also counts for the next call.
REUSE_S = 0.05


class HostSpeed:
    """Readings of the calibration kernel, and the scale they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._blocks = (rng.standard_normal((2048, 16, 16))
                        + 1j * rng.standard_normal((2048, 16, 16)))
        self._vectors = np.ones((2048, 16, 1), dtype=np.complex128)
        self.readings: list[float] = []
        self._last_end = float("-inf")

    def _kernel(self):
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(2):
            np.matmul(self._blocks, self._vectors)
        return total

    def read(self) -> float:
        """Median seconds of CALLS kernel calls."""
        samples = []
        for _ in range(CALLS):
            start = time.perf_counter()
            self._kernel()
            samples.append(time.perf_counter() - start)
        self._last_end = time.perf_counter()
        self.readings.append(statistics.median(samples))
        return self.readings[-1]

    def bracket(self, fn):
        """Run ``fn()`` between two readings; returns (its result, the scale
        NOMINAL_S / mean reading for the samples it took).  A reading that
        ended less than REUSE_S ago serves as the first of the two."""
        if time.perf_counter() - self._last_end < REUSE_S:
            before = self.readings[-1]
        else:
            before = self.read()
        out = fn()
        after = self.read()
        return out, NOMINAL_S / ((before + after) / 2)

    def summary(self) -> dict:
        return {"median": statistics.median(self.readings),
                "count": len(self.readings), "nominal": NOMINAL_S}
