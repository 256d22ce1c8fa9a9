"""Dense finite-dimensional complex linear algebra with checked invariants.

All carrier types copy their arrays on construction and mark them
read-only, so values are immutable and safe to share across concurrent
tasks. Entropies are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate

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


def _tol(tol: float, name: str = "tol") -> float:
    """tol, refused naming ``name`` unless finite and positive: a NaN or inf bound decides every check."""
    if not 0 < tol < np.inf:  # also False for NaN
        raise DimensionMismatch(f"{name} must be finite and positive, got {tol!r}")
    return tol


def _square(a) -> np.ndarray:
    m = _finite(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _scaled(a, axis=None) -> tuple[np.ndarray, int | np.ndarray]:
    """(a / 2^e, e), e = 0 for zero, else the exact power of two that brings a's largest real or
    imaginary part into [0.5, 1), so that squares and Gram sums neither overflow nor underflow;
    with ``axis`` the last axis of a, e holds one such power per row along it."""
    a = _finite(a).view(float)
    e = np.frexp(np.abs(a).max(axis=axis, initial=0.0, keepdims=axis is not None))[1]
    return np.ldexp(a, -e).view(complex), (e if axis is None else e.squeeze(axis))


def _unit(v) -> np.ndarray:
    """v / |v|, refused when v is zero or has a non-finite entry; v is first ``_scaled``, so the norm
    of [1e200, 1e200] or [1e-200, 1e-200] is taken, and no other quotient changes."""
    v = _scaled(v)[0]
    if not v.any():
        raise InvariantViolation("cannot normalise a vector of norm 0.0")
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


def _check_unitary(m: np.ndarray):
    """Refuse m, a square matrix or a stack of them, when an entry of m^dag m - 1 exceeds ATOL in
    modulus; the 1 is subtracted on the diagonal in place, so no identity is built."""
    g = m.conj().swapaxes(-1, -2) @ m
    n = m.shape[-1]
    g.reshape(g.shape[:-2] + (n * n,))[..., :: n + 1] -= 1
    dev = np.abs(g).max()
    if dev > ATOL:
        raise InvariantViolation(f"not unitary: max deviation {dev:.3e}")


@dataclass(frozen=True)
class UnitaryOp:
    mat: np.ndarray

    def __post_init__(self):
        m = _square(self.mat)
        _check_unitary(m)
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


def site_entropies(psi, dims: Dims, sites=None) -> np.ndarray:
    """Marginal entropies of the listed factors (all by default, in that order) of a pure state,
    or of every state in a stack (..., D); the result is (..., len(sites)).

    The marginal of factor i is the d_i x d_i Gram matrix G = m m^dag of the state reshaped
    to (d_i, D / d_i); one stacked ``eigvalsh`` reads its spectrum for d_i >= 3. For a qubit,
    a, c, b = G_00, G_11, G_01 are sums over the strided views (..., prod d[:i], 2, prod d[i+1:])
    of |psi|^2 and psi, with no moveaxis copy of the state per site, written into (..., qubits)
    arrays; then, over all qubit sites at once,
    hi = (a + c) / 2 + sqrt(((a - c) / 2)^2 + |b|^2) and lo = (a c - |b|^2) / hi (0 when hi is),
    each within a few eps (a + c) of exact, as ``eigvalsh``'s. An out-of-range or repeated site
    raises DimensionMismatch naming it.
    """
    v = _vec(psi)
    if v.shape[-1] != dims.total:
        raise DimensionMismatch(f"state dim {v.shape[-1]} != product dim {dims.total}")
    sites = range(dims.n) if sites is None else tuple(sites)
    for k, i in enumerate(sites):
        if not 0 <= i < dims.n:
            raise DimensionMismatch(f"site {i} out of range for n={dims.n}")
        if i in sites[:k]:
            raise DimensionMismatch(f"site {i} repeated in sites {sites}")
    lead = v.shape[:-1]
    t = v.reshape(lead + dims.factors)
    out = np.empty(lead + (len(sites),))
    qubits = [k for k, i in enumerate(sites) if dims.factors[i] == 2]
    if qubits:
        p = v.real * v.real + v.imag * v.imag
        a, c, b = (np.empty(lead + (len(qubits),), dtype) for dtype in (float, float, complex))
        for q, k in enumerate(qubits):
            left = math.prod(dims.factors[: sites[k]])
            split = lead + (left, 2, dims.total // (2 * left))
            # each half copied first: numpy sums a strided view in short inner loops, slowly
            a[..., q], c[..., q] = (np.ascontiguousarray(p.reshape(split)[..., j, :]).sum(axis=(-2, -1))
                                    for j in (0, 1))
            m = v.reshape(split)
            b[..., q] = (m[..., 0, :] * m[..., 1, :].conj()).sum(axis=(-2, -1))
        b2 = b.real * b.real + b.imag * b.imag
        hi = (a + c) / 2 + np.sqrt(((a - c) / 2) ** 2 + b2)
        lo = np.divide(a * c - b2, hi, out=np.zeros_like(hi), where=hi > 0.0)
        out[..., qubits] = _entropy_of_probs(np.stack((lo, hi), axis=-1))
    for k, i in enumerate(sites):
        d = dims.factors[i]
        if d != 2:
            m = np.moveaxis(t, len(lead) + i, len(lead)).reshape(lead + (d, dims.total // d))
            out[..., k] = _entropy_of_probs(np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2)))
    return out


def kron_all(mats) -> np.ndarray:
    """Kronecker product of the factors, all of one ndim: each step is the one broadcast multiply,
    axes interleaved, that ``np.kron`` makes, so the result is its chain's bit for bit, without its
    per-call work."""
    ms = [_mat(m) for m in mats]
    left, right = (slice(None), None) * ms[0].ndim, (None, slice(None)) * ms[0].ndim
    return reduce(lambda a, b: (a[left] * b[right]).reshape([p * q for p, q in zip(a.shape, b.shape)]), ms)


def haar_unitaries(factors, stream: np.random.Generator) -> list[UnitaryOp]:
    """Haar-distributed unitaries, one d x d per entry d of ``factors``, in order (Mezzadri 2007):
    every factor's Ginibre block (real parts, then imaginary) comes from one ``standard_normal``
    call, the same numbers per-factor (d, d) draws take from the sequential stream; then one QR,
    phase fix on diag(R) and ``UnitaryOp``'s unitarity check run per stack of equal-d factors."""
    factors = [int(d) for d in factors]
    start = list(accumulate((2 * d * d for d in factors), initial=0))
    g = stream.standard_normal(start[-1])
    out = [None] * len(factors)
    for d in dict.fromkeys(factors):
        idx = [i for i, e in enumerate(factors) if e == d]
        block = np.concatenate([g[start[i]:start[i + 1]] for i in idx]).reshape(len(idx), 2, d, d)
        z = np.empty((len(idx), d, d), complex)
        z.real, z.imag = block[:, 0], block[:, 1]
        z /= math.sqrt(2)
        q, r = np.linalg.qr(z)
        diag = r.diagonal(0, -2, -1)
        q *= (diag / np.abs(diag))[:, None, :]
        _check_unitary(q)
        q.setflags(write=False)
        for k, i in enumerate(idx):  # checked above as UnitaryOp checks, so not again
            out[i] = object.__new__(UnitaryOp)
            object.__setattr__(out[i], "mat", q[k])
    return out


def haar_unitary(D: int, stream: np.random.Generator) -> UnitaryOp:
    """Haar-distributed D x D unitary: ``haar_unitaries`` of the one factor D."""
    return haar_unitaries((D,), stream)[0]


def haar_state(D: int, stream: np.random.Generator) -> StateVec:
    """Uniformly random unit vector."""
    z = stream.standard_normal(D) + 1j * stream.standard_normal(D)
    return StateVec(z / np.linalg.norm(z))
