"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same operation can take half as long again in one
minute as in the next, because of load the benchmark cannot see. The
benchmark times this kernel just before every operation and scales each
operation's latency by ``NOMINAL_S`` over the kernel's local median, so
latencies read in seconds of a host running at its reference speed. A change
to mereokit cannot change the kernel: it is numpy and plain Python only, on
inputs fixed here, with BLAS on one thread like everything else.

The kernel mixes what mereokit operations spend their time on: small dense
eigendecompositions and matrix products, an einsum over a qubit tensor, a
larger matrix product, and an interpreted loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.linalg import eigh  # bound now, so a traced run's wrapper never sees the kernel

# The kernel's typical time on a 2-vCPU Xeon VM when its host is quiet (numpy 2.4, OpenBLAS
# on one thread); only the scale of the reported latencies depends on it.
NOMINAL_S = 0.0012
WINDOW = 3  # kernel samples on each side of an operation in its local median

_rng = np.random.default_rng(20240917)
_H = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_H = _H + _H.conj().T
_T = _rng.standard_normal((4, 4, 4, 4)) + 1j * _rng.standard_normal((4, 4, 4, 4))
_M = _rng.standard_normal((96, 96))


def kernel() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(12):
        w, v = eigh(_H)
        (v * np.exp(-1j * w)) @ v.conj().T
        np.einsum("abcd,cdef->abef", _T, _T)
    _M @ _M
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    return time.perf_counter() - start


def warm_up(calls: int = 20):
    for _ in range(calls):
        kernel()


def scale_now(calls: int = 5) -> float:
    """Scale factor for something about to run: ``NOMINAL_S`` over the
    median of ``calls`` kernel runs."""
    return NOMINAL_S / statistics.median(kernel() for _ in range(calls))


def scales(samples: list[float]) -> list[float]:
    """Scale factor of each operation, given the kernel times taken before
    each of ``len(samples) - 1`` operations and once after the last.

    Operation ``j`` ran between samples ``j`` and ``j + 1``; its factor is
    ``NOMINAL_S`` over the median of the samples within ``WINDOW`` of it.
    """
    n = len(samples) - 1
    return [
        NOMINAL_S / statistics.median(samples[max(0, j - WINDOW + 1): min(n + 1, j + WINDOW + 1)])
        for j in range(n)
    ]
