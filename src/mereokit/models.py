"""Reference Hamiltonians and structures: Ising chains, the string-variable
dual structure in which they stay 2-local, and scrambled K-local instances
with known ground truth."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import Dims, HermitianOp, UnitaryOp, _formed_hermitian, _formed_unitary, _times_dagger, haar_unitary
from .hilbert import kron_all
from .basis import klocal_mask, matrix_from_coeffs
from .tps import Tps

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string(s: str) -> HermitianOp:
    """Tensor product of Paulis, e.g. "XX" or "ZIZ"."""
    try:
        mats = [SIGMA[ch] for ch in s.upper()]
    except KeyError as e:
        raise InvariantViolation(f"unknown Pauli letter {e.args[0]!r}") from None
    if len(mats) < 2:
        raise DimensionMismatch("need at least two sites")
    return _formed_hermitian(kron_all(mats))


def ising_chain(n: int, J: float, h: float) -> HermitianOp:
    """Transverse-field Ising chain J sum_i Z_i Z_{i+1} + h sum_i X_i on n >= 2 sites, open ends."""
    if n < 2:
        raise InvariantViolation("need n >= 2 sites")
    terms = [(J, "I" * i + "ZZ" + "I" * (n - i - 2)) for i in range(n - 1)]
    terms += [(h, "I" * i + "X" + "I" * (n - i - 1)) for i in range(n)]
    return _formed_hermitian(sum(c * kron_all([SIGMA[ch] for ch in s]) for c, s in terms))


def jw_dual_tps(n: int) -> Tps:
    """Structure whose factors carry the string variables of an n-site chain.

    Closed form: the n-fold Hadamard matrix with its rows in Gray-code order,
    W[b] = (H^{(x)n})[b ^ (b >> 1)]. In the X basis (the rows of H^{(x)n})
    each X_j acts as Z_j, and the Gray relabelling turns the prefix product
    Z_0...Z_i into Z_i, so the i-th string X_0...X_i maps exactly onto a
    single-site Z, and Z_i Z_{i+1} (and Z_{n-1} at the end) map exactly onto
    single-site X's. The Ising chain is therefore 2-local here too, even
    though the strings themselves are nonlocal.
    """
    dims = Dims((2,) * n)  # refuses n < 2
    b = np.arange(dims.total)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    return Tps(dims, _formed_unitary(kron_all([hadamard] * n).real[b ^ (b >> 1)]))


def random_klocal(dims: Dims, K: int, stream: np.random.Generator) -> HermitianOp:
    """Gaussian coefficients on every weight-1..K multi-index, reassembled."""
    n = dims.n
    if not (1 <= K <= n):
        raise DimensionMismatch(f"K={K} out of range 1..{n}")
    mask = klocal_mask(dims.factors, K)
    coeffs = np.zeros(mask.shape, dtype=complex)
    coeffs[mask] = stream.standard_normal(int(mask.sum()))
    return _formed_hermitian(matrix_from_coeffs(coeffs, dims))


def scrambled_klocal(
    dims: Dims, K: int, stream: np.random.Generator
) -> tuple[HermitianOp, UnitaryOp]:
    """Haar-conjugated K-local instance plus the ground-truth scrambler.

    The scrambler is for acceptance checks only; searches must not see it.
    """
    H = random_klocal(dims, K, stream)
    V = haar_unitary(dims.total, stream)
    return _formed_hermitian(_times_dagger(V.mat @ H.mat, V.mat)), V
