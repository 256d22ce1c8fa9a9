"""Dense finite-dimensional complex linear algebra with checked invariants.

All carrier types copy their arrays on construction and mark them
read-only, so values are immutable and safe to share across concurrent
tasks. Entropies are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from string import ascii_lowercase

import numpy as np

from .errors import DimensionMismatch, InvariantViolation

ATOL = 1e-10  # absolute tolerance for algebraic identities


def _frozen(a, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _to_pairs(a) -> list:
    """Nested ``[re, im]`` lists of a complex array, the JSON form of matrices and states."""
    return np.stack((np.real(a), np.imag(a)), axis=-1).tolist()


def _from_pairs(rows) -> np.ndarray:
    """Complex array from nested ``[re, im]`` lists; the inverse of ``_to_pairs``.

    Ragged input raises ValueError naming the first top-level row shaped unlike most.
    """
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        shapes = [np.array(r, dtype=object).shape for r in rows]
        common = max(shapes, key=shapes.count, default=None)
        for i, shape in enumerate(shapes):
            if shape != common:
                raise ValueError(f"row {i} has shape {shape}, most have {common}") from None
        raise ValueError("expected nested lists of numbers") from None
    if a.ndim < 2 or a.shape[-1] != 2:
        raise ValueError(f"expected [re, im] pairs, got an array of shape {a.shape}")
    return a.view(complex)[..., 0]


def _mat(x) -> np.ndarray:
    """Unwrap an operator carrier to its matrix; pass ndarrays through."""
    return x.mat if hasattr(x, "mat") else np.asarray(x, dtype=complex)


def _vec(x) -> np.ndarray:
    return x.vec if hasattr(x, "vec") else np.asarray(x, dtype=complex)


@dataclass(frozen=True)
class Dims:
    """Ordered factor dimensions (d_0, ..., d_{n-1}) of a product space."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(d, (int, np.integer)) or float(d).is_integer() for d in self.factors):
            raise InvariantViolation(f"factor dimensions must be integers, got {self.factors!r}")
        object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))
        if len(self.factors) < 2:
            raise InvariantViolation("need at least two factors")
        if any(d < 2 for d in self.factors):
            raise InvariantViolation("every factor dimension must be >= 2")

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def total(self) -> int:
        return int(np.prod(self.factors))


@dataclass(frozen=True)
class HermitianOp:
    mat: np.ndarray

    def __post_init__(self):
        m = _frozen(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        scale = 1.0 + (np.abs(m).max() if m.size else 0.0)
        dev = np.abs(m - m.conj().T).max()
        if dev > ATOL * scale:
            raise InvariantViolation(f"not Hermitian: max deviation {dev:.3e}")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvector columns, computed once, read-only."""
        lam, V = np.linalg.eigh(self.mat)
        lam.setflags(write=False)
        V.setflags(write=False)
        return lam, V


@dataclass(frozen=True)
class UnitaryOp:
    mat: np.ndarray

    def __post_init__(self):
        m = _frozen(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if dev > ATOL:
            raise InvariantViolation(f"not unitary: max deviation {dev:.3e}")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class StateVec:
    vec: np.ndarray

    def __post_init__(self):
        v = _frozen(np.asarray(self.vec).reshape(-1))
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > ATOL:
            raise InvariantViolation(f"state norm {nrm!r} is not 1")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


@dataclass(frozen=True)
class DensityOp:
    mat: np.ndarray

    def __post_init__(self):
        m = _frozen(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > ATOL:
            raise InvariantViolation("density matrix not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL:
            raise InvariantViolation(f"trace {tr!r} is not 1")
        lo = np.linalg.eigvalsh(m).min()
        if lo < -ATOL:
            raise InvariantViolation(f"negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(A^dag B)."""
    A, B = _mat(a), _mat(b)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch {A.shape} vs {B.shape}")
    return complex(np.vdot(A, B))


def hs_norm_sq(a) -> float:
    A = _mat(a)
    return float(np.vdot(A, A).real)


def eig_hermitian(H: HermitianOp):
    """Eigenvalues (ascending) and the eigenvector unitary of a Hermitian operator."""
    lam, V = H.eig
    return lam, UnitaryOp(V)


def expm_i(H: HermitianOp, t: float) -> UnitaryOp:
    """Time-evolution unitary e^{-i t H} via eigendecomposition."""
    lam, V = H.eig
    Vm = V * np.exp(-1j * t * lam)
    return UnitaryOp(Vm @ V.conj().T)


def partial_trace(rho, dims: Dims, keep: int) -> DensityOp:
    """Trace out all factors except ``keep`` (0-based)."""
    m = _mat(rho)
    if m.shape[0] != dims.total:
        raise DimensionMismatch(f"operator dim {m.shape[0]} != product dim {dims.total}")
    n = dims.n
    if not (0 <= keep < n):
        raise DimensionMismatch(f"factor index {keep} out of range for n={n}")
    t = m.reshape(dims.factors + dims.factors)
    row = list(ascii_lowercase[:n])
    col = list(row)
    col[keep] = ascii_lowercase[n]
    sub = "".join(row) + "".join(col) + "->" + row[keep] + col[keep]
    return DensityOp(np.einsum(sub, t))


def _entropy_of_probs(p: np.ndarray) -> np.ndarray:
    """Shannon entropy over the last axis; entries are clamped to [0, 1], and 0 log 0 = 0."""
    p = np.clip(p.real, 0.0, 1.0)
    return -(p * np.log(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=-1)


def vn_entropy(rho) -> float:
    """von Neumann entropy in nats; eigenvalues are clamped to [0, 1] first."""
    return float(_entropy_of_probs(np.linalg.eigvalsh(_mat(rho))))


def purity(rho) -> float:
    """tr(rho^2)."""
    m = _mat(rho)
    return float(np.vdot(m, m).real)


def site_entropies(psi, dims: Dims) -> np.ndarray:
    """Per-factor marginal entropies of a pure state, or of every state in a stack (..., D).

    Uses the Schmidt coefficients of each single-factor bipartition, which for
    a pure state equal the marginal's spectrum; one stacked SVD per factor.
    """
    v = _vec(psi)
    if v.shape[-1] != dims.total:
        raise DimensionMismatch(f"state dim {v.shape[-1]} != product dim {dims.total}")
    lead = v.shape[:-1]
    t = v.reshape(lead + dims.factors)
    out = np.empty(lead + (dims.n,))
    for i, d in enumerate(dims.factors):
        m = np.moveaxis(t, len(lead) + i, len(lead)).reshape(lead + (d, dims.total // d))
        s = np.linalg.svd(m, compute_uv=False)
        out[..., i] = _entropy_of_probs(s * s)
    return out


def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, [_mat(m) for m in mats])


def haar_unitary(D: int, stream: np.random.Generator) -> UnitaryOp:
    """Haar-distributed unitary: Ginibre sample, QR, phase fix on diag(R)."""
    z = (stream.standard_normal((D, D)) + 1j * stream.standard_normal((D, D))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    ph = d / np.abs(d)
    return UnitaryOp(q * ph)


def haar_state(D: int, stream: np.random.Generator) -> StateVec:
    """Uniformly random unit vector."""
    z = stream.standard_normal(D) + 1j * stream.standard_normal(D)
    return StateVec(z / np.linalg.norm(z))
