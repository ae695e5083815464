"""Speed of the shared host, read from a fixed computation that does not use spintomo.

The benchmark's host is a slice of a shared machine whose speed drifts by
up to 2x over seconds to minutes, with the load of its other tenants.  A
round's wall time then says as much about the host as about the program.
``HostSpeed.sample`` times a fixed mix of the kinds of work the workloads do
(interpreter loops, batched LAPACK ``eigh``, random draws and small array
operations) on fixed inputs.  Its time rises and falls with the host, while
no change to the program can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np


class HostSpeed:
    """Times a fixed reference computation.

    ``samples`` holds, per call of ``sample``, the times of its three parts
    (interpreter, eigh, draws), each the median of ``REPEATS`` timings.
    """

    REPEATS = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((90, 16, 16)) + 1j * rng.standard_normal((90, 16, 16))
        self._batch = m + m.conj().transpose(0, 2, 1)
        self._cdf = np.cumsum(rng.dirichlet(np.ones(16), size=64), axis=1)
        self.samples: list[tuple[float, ...]] = []
        for part in self._parts():  # first-call costs stay out of the samples
            part()

    def _parts(self):
        def interpreter():
            table: dict[int, int] = {}
            for i in range(40000):
                table[i % 97] = table.get(i % 97, 0) + i * i

        def eigh():
            np.linalg.eigh(self._batch)

        def draws():
            u = np.random.default_rng(1).random((64, 1400))
            (u[:, :, None] > self._cdf[:, None, :]).sum(axis=2)

        return interpreter, eigh, draws

    def sample(self) -> float:
        """Time the reference computation once more; returns its total time."""
        parts = []
        for part in self._parts():
            times = []
            for _ in range(self.REPEATS):
                t0 = perf_counter()
                part()
                times.append(perf_counter() - t0)
            parts.append(statistics.median(times))
        self.samples.append(tuple(parts))
        return sum(parts)
