"""Reference kernels that gauge the speed of a shared machine while the
benchmark runs.

Other tenants of a shared host slow every process on it, by up to 50 % for
tens of seconds at a time, so a pass time alone says as much about the
neighbours as about frustra.  A ``Gauge`` times a fixed numpy kernel that
does not use frustra, between the benchmark's calls, at most every
``interval`` seconds.  A call's time times ``nominal / kernel time``, with
the kernel timed just before and just after it, is the call's time at the
speed the machine had when the kernel took ``nominal`` seconds.  A slow phase
slows both and cancels; a faster or slower frustra changes only the call.

Each kernel mirrors the work of one layer, because contention slows dense
LAPACK and interpreter-bound code by different factors:

- ``dense``: eigh, Cholesky and real Schur of four 84 x 84 symmetric
  matrices, the work of ``williamson_diagonalize`` at N = 21;
- ``small``: 300 damped Newton steps on a 7-vector (square roots, rolls and
  a 7 x 7 eigh each), the work of ``meanfield``'s solver.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

_RNG = np.random.default_rng(20211201)
_DENSE = [a @ a.T + 84.0 * np.eye(84) for a in _RNG.standard_normal((4, 84, 84))]
_START = _RNG.standard_normal(7)
_COUPLING = np.diag(np.arange(1.0, 8.0)) + 0.1


def dense() -> float:
    total = 0.0
    for matrix in _DENSE:
        values, vectors = np.linalg.eigh(matrix)
        factor = np.linalg.cholesky(matrix)
        schur, _ = scipy.linalg.schur(matrix)
        total += values[0] + (vectors.T @ matrix @ vectors)[0, 0]
        total += factor[0, 0] + schur[0, 0]
    return total


def small() -> float:
    x, total = _START.copy(), 0.0
    for _ in range(300):
        root = np.sqrt(1.0 + 4.0 * x * x)
        grad = 2.0 * x + 0.02 * (np.roll(x, 1) + np.roll(x, -1)) - 2.0 * x / root
        hess = _COUPLING.copy()
        np.fill_diagonal(hess, 2.0 - 2.0 / root**3)
        values, vectors = np.linalg.eigh(hess)
        x = x - 1e-3 * (vectors @ ((vectors.T @ grad) / (np.abs(values) + 1.0)))
        total += float(np.max(np.abs(grad)))
    return total


KERNELS = {"dense": dense, "small": small}
#: Fastest of 300 runs of each kernel, one BLAS thread, on the 2-core x86_64
#: machine the benchmark was defined on.  A fixed scale: it turns kernel
#: units back into seconds and never changes between commits.
NOMINAL_S = {"dense": 0.0168, "small": 0.0137}


class Gauge:
    """Readings of one reference kernel, taken between timed calls.

    ``mark()`` goes just before a timed call: it times the kernel if the last
    reading is ``interval`` seconds old or more, and returns the index of
    the latest reading.  ``scale(index)`` is the factor that brings a call
    marked with ``index`` to nominal machine speed; it uses the mean of that
    reading and the next, so ``close()`` takes one last reading after the
    final call.
    """

    def __init__(self, kernel: str, interval: float = 0.5):
        self.kernel = KERNELS[kernel]
        self.nominal = NOMINAL_S[kernel]
        self.interval = interval
        self.readings: list[float] = []
        self.taken_at = -float("inf")

    def read(self) -> int:
        start = time.perf_counter()
        self.kernel()
        self.taken_at = time.perf_counter()
        self.readings.append(self.taken_at - start)
        return len(self.readings) - 1

    def mark(self) -> int:
        if time.perf_counter() - self.taken_at >= self.interval:
            return self.read()
        return len(self.readings) - 1

    def close(self) -> None:
        self.read()

    def scale(self, index: int) -> float:
        around = self.readings[index:index + 2]
        return self.nominal * len(around) / sum(around)
