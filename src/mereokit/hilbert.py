"""Dense finite-dimensional complex linear algebra with checked invariants.

All carrier types copy their arrays on construction and mark them
read-only, so values are immutable and safe to share across concurrent
tasks. Entropies are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import DimensionMismatch, InvariantViolation

ATOL = 1e-10  # absolute tolerance for algebraic identities


def _frozen(a, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _finite(a) -> np.ndarray:
    """``_frozen(a)``, refused if an entry is NaN or inf, which pass every ``dev > tol`` check."""
    out = _frozen(a)
    if not np.isfinite(out).all():
        raise InvariantViolation("entries must be finite, got NaN or inf")
    return out


def _square(a) -> np.ndarray:
    m = _finite(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _unit(v) -> np.ndarray:
    """v / |v|, refused when v is zero or has a non-finite entry.

    v is first scaled by the power of two that brings its largest part into [0.5, 1), which is
    exact: the norm of [1e200, 1e200] or [1e-200, 1e-200] is taken, and no other quotient changes."""
    v = _finite(v)
    peak = np.abs(v.view(float)).max(initial=0.0)
    if peak == 0.0:
        raise InvariantViolation("cannot normalise a vector of norm 0.0")
    v = np.ldexp(v.view(float), -math.frexp(peak)[1]).view(complex)
    return v / np.linalg.norm(v)


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
        return math.prod(self.factors)


@dataclass(frozen=True)
class HermitianOp:
    mat: np.ndarray

    def __post_init__(self):
        m = _square(self.mat)
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
        m = _square(self.mat)
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
        v = _finite(np.asarray(self.vec).reshape(-1))
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > ATOL:
            raise InvariantViolation(f"state norm {nrm!r} is not 1")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


def expm_i(H: HermitianOp, t: float) -> UnitaryOp:
    """Time-evolution unitary e^{-i t H} via eigendecomposition."""
    lam, V = H.eig
    Vm = V * np.exp(-1j * t * lam)
    return UnitaryOp(Vm @ V.conj().T)


def _entropy_of_probs(p: np.ndarray) -> np.ndarray:
    """Shannon entropy over the last axis; entries are clamped to [0, 1], and 0 log 0 = 0."""
    p = np.clip(p.real, 0.0, 1.0)
    return -(p * np.log(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=-1)


def site_entropies(psi, dims: Dims) -> np.ndarray:
    """Per-factor marginal entropies of a pure state, or of every state in a stack (..., D).

    The marginal of factor i is the d_i x d_i Gram matrix m m^dag of the state reshaped
    to (d_i, D / d_i); one stacked ``eigvalsh`` per factor reads its spectrum.
    """
    v = _vec(psi)
    if v.shape[-1] != dims.total:
        raise DimensionMismatch(f"state dim {v.shape[-1]} != product dim {dims.total}")
    lead = v.shape[:-1]
    t = v.reshape(lead + dims.factors)
    out = np.empty(lead + (dims.n,))
    for i, d in enumerate(dims.factors):
        m = np.moveaxis(t, len(lead) + i, len(lead)).reshape(lead + (d, dims.total // d))
        out[..., i] = _entropy_of_probs(np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2)))
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
