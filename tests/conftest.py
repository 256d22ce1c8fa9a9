from dataclasses import dataclass
from string import ascii_lowercase

import numpy as np
import pytest

from mereokit import DimensionMismatch, Dims, HermitianOp, HypothesisViolation, InvariantViolation, StateVec
from mereokit import haar_state, stream
from mereokit.hilbert import ATOL, _entropy_of_probs, _square
from mereokit.kinds import check_spectral_hypotheses


def random_hermitian(D, rng, scale=1.0):
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return HermitianOp(scale * (A + A.conj().T) / 2)


def nondegenerate_instance(D, seed, *path):
    """(H, psi) with simple spectrum and full support; deterministic resampling."""
    for attempt in range(64):
        rng = stream(seed, *path, attempt)
        H = random_hermitian(D, rng)
        psi = haar_state(D, rng)
        try:
            check_spectral_hypotheses(H, psi)
        except HypothesisViolation:
            continue
        return H, psi
    raise RuntimeError("no non-degenerate full-support instance found")


# reference oracles: density matrices, partial traces and entropies, against which the
# library's pure-state shortcuts (site_entropies, Parseval in the product basis) are tested


@dataclass(frozen=True)
class DensityOp:
    mat: np.ndarray

    def __post_init__(self):
        m = _square(self.mat)
        if np.abs(m - m.conj().T).max() > ATOL:
            raise InvariantViolation("density matrix not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL:
            raise InvariantViolation(f"trace {tr!r} is not 1")
        lo = np.linalg.eigvalsh(m).min()
        if lo < -ATOL:
            raise InvariantViolation(f"negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "mat", m)


def hs_norm_sq(a) -> float:
    """Squared Hilbert-Schmidt norm of a matrix, an operator carrier or a coefficient tensor."""
    A = getattr(a, "mat", a)
    return float(np.vdot(A, A).real)


def partial_trace(rho: DensityOp, dims: Dims, keep: int) -> DensityOp:
    """Trace out all factors except ``keep`` (0-based)."""
    m = rho.mat
    if m.shape[0] != dims.total:
        raise DimensionMismatch(f"operator dim {m.shape[0]} != product dim {dims.total}")
    n = dims.n
    if not (0 <= keep < n):
        raise DimensionMismatch(f"factor index {keep} out of range for n={n}")
    row = list(ascii_lowercase[:n])
    col = list(row)
    col[keep] = ascii_lowercase[n]
    sub = "".join(row) + "".join(col) + "->" + row[keep] + col[keep]
    return DensityOp(np.einsum(sub, m.reshape(dims.factors + dims.factors)))


def vn_entropy(rho: DensityOp) -> float:
    """von Neumann entropy in nats; eigenvalues are clamped to [0, 1] first."""
    return float(_entropy_of_probs(np.linalg.eigvalsh(rho.mat)))


def basis_state(D, k):
    v = np.zeros(D, dtype=complex)
    v[k] = 1.0
    return StateVec(v)


@pytest.fixture
def dims22():
    return Dims((2, 2))


@pytest.fixture
def dims222():
    return Dims((2, 2, 2))
