"""A fixed loop of numpy and Fraction work, timed beside a workload's
tasks, so the benchmark can report times on the scale of a host that
runs at one speed.

The shared host the benchmark was defined on runs the same code 20-60%
slower for minutes at a time, and a slow stretch slows every kind of
work in a process alike.  Timing this loop next to each task and
dividing by it takes the host's speed out of the task time; the loop
uses no part of hktsolve, so no change to the program moves it.

The loop is matched to the workload it is timed beside: the stencil,
FFT and dot-product work of the solver on arrays of the workload's
grid, plus Fraction arithmetic when the task certifies an algebra.
"""

import statistics
import time
from fractions import Fraction

import numpy as np

# element updates of the numpy part per loop, split into passes over the
# grid; about 40 ms on the 512x512 grid
ELEMENT_BUDGET = 1_500_000
# Fraction products per loop: about the certification share of su3-4d-20
# next to its numpy part, and the whole loop for registry-certify
EXACT_TERMS = {"none": 0, "su3": 1500, "registry": 12000}
# the loop is timed this many times per measurement; the median is kept
CALLS = 3


class Calibration:
    """The loop for one workload: ``dims`` is its grid (None for none),
    ``exact`` one of EXACT_TERMS."""

    def __init__(self, dims, exact):
        self.terms = EXACT_TERMS[exact]
        self.dims = tuple(dims) if dims else None
        if self.dims:
            self.axes = tuple(range(len(self.dims)))
            # fixed data: the loop never depends on the seed
            self.field = np.random.default_rng(0).standard_normal(self.dims)
            self.kernel = 1.0 / (1.0 + np.abs(np.fft.rfftn(self.field)))
            self.passes = max(1, round(ELEMENT_BUDGET / self.field.size))
        self._once()  # the first pass in a process pays for allocation

    def _once(self):
        if self.dims:
            u = self.field
            for _ in range(self.passes):
                lap = np.zeros(self.dims)
                for ax in self.axes:
                    lap += np.roll(u, -1, ax) - 2.0 * u + np.roll(u, 1, ax)
                grad = np.roll(u, -1, 0) - np.roll(u, 1, 0)
                u = np.fft.irfftn(np.fft.rfftn(lap + grad * u) * self.kernel,
                                  s=self.dims, axes=self.axes)
                u /= np.sqrt(np.vdot(u, u))
        acc = Fraction(0)
        for j in range(self.terms):
            # bounded denominators, so every term costs about the same
            acc += Fraction(j % 11 + 1, j % 13 + 1) * Fraction(j % 7 + 1, j % 5 + 2)

    def measure(self):
        """Median wall seconds of CALLS passes of the loop."""
        times = []
        for _ in range(CALLS):
            started = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - started)
        return statistics.median(times)
