import math
from dataclasses import dataclass
from string import ascii_lowercase

import numpy as np
import pytest

from mereokit import DimensionMismatch, Dims, HermitianOp, HypothesisViolation, InvariantViolation, StateVec
from mereokit import haar_state, stream
from mereokit.basis import coeff_tensor, weight_tensor
from mereokit.hilbert import ATOL, _entropy_of_probs, _square
from mereokit.kinds import check_spectral_hypotheses


def random_hermitian(D, rng, scale=1.0):
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return HermitianOp(scale * (A + A.conj().T) / 2)


def per_factor_haar(d, stream):
    """One Haar unitary drawn on its own, (d, d) normals at a time: the oracle of ``haar_unitaries``."""
    z = (stream.standard_normal((d, d)) + 1j * stream.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


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


def partial_trace(rho: DensityOp, dims: Dims, keep) -> DensityOp:
    """Trace out all factors except ``keep`` (0-based): one factor, or a sequence of distinct
    factors whose order is the order of the kept factors in the result."""
    m = rho.mat
    if m.shape[0] != dims.total:
        raise DimensionMismatch(f"operator dim {m.shape[0]} != product dim {dims.total}")
    n = dims.n
    keep = (keep,) if isinstance(keep, (int, np.integer)) else tuple(keep)
    for i in keep:
        if not (0 <= i < n):
            raise DimensionMismatch(f"factor index {i} out of range for n={n}")
    row = list(ascii_lowercase[:n])
    col = list(row)
    for i in keep:
        col[i] = ascii_lowercase[n + i]
    sub = "".join(row) + "".join(col) + "->" + "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    d = math.prod(dims.factors[i] for i in keep)
    return DensityOp(np.einsum(sub, m.reshape(dims.factors + dims.factors)).reshape(d, d))


def realign(W, factors, i, j=None) -> np.ndarray:
    """(d_i^2, (D / d_i)^2) realignment of a D x D operator across slot j (default i), factor i: W
    as a tensor on factors + factors with the axes (j, n + i) first, then the other slots and the
    other factors in order. Its singular values are W's operator-Schmidt coefficients across the cut."""
    n, j = len(factors), i if j is None else j
    order = [j, n + i] + [a for a in range(n) if a != j] + [n + a for a in range(n) if a != i]
    return np.transpose(np.reshape(W, factors + factors), order).reshape(factors[i] ** 2, -1)


def realigned_singular_values(W, factors, i, j=None) -> np.ndarray:
    """Singular values of ``realign(W, factors, i, j)``, descending: the SVD oracle of the slot Grams."""
    return np.linalg.svd(realign(W, factors, i, j), compute_uv=False)


def vn_entropy(rho: DensityOp) -> float:
    """von Neumann entropy in nats; eigenvalues are clamped to [0, 1] first."""
    return float(_entropy_of_probs(np.linalg.eigvalsh(rho.mat)))


def projector_jacobian(W: np.ndarray, dims: Dims, K: int) -> np.ndarray:
    """d mu_k / d x_a = <w_k|B_a|w_k> from the expansions of the D projectors w_k w_k^dag.

    Rows are the eigenvectors (columns of W), columns the weight-1..K coefficients in the
    order of ``coeff_tensor(...)[mask]``. It costs D^3 sum(d_i^2), where the library's
    support-built Jacobian costs D^2 prod(d_S) per K-site support."""
    w = weight_tensor(dims.factors)
    mask = (w >= 1) & (w <= K)
    return np.stack([coeff_tensor(np.outer(v, v.conj()), dims)[mask].real for v in W.T])


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
