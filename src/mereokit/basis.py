"""Orthonormal Hermitian site bases and weight-graded product expansions.

Every Hermitian operator on the product space expands uniquely over tensor
products of single-site basis operators. Grouping squared coefficients by
weight (the number of non-identity sites in a term) grades the operator;
which weight sectors vanish is independent of the per-site basis choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import ATOL, Dims, HermitianOp
from .tps import Tps

DUST_RTOL = 1e-10  # coefficients below this (relative to the HS norm) count as zero


@dataclass(frozen=True)
class SiteBasis:
    """d^2 Hermitian operators, HS-orthonormal, identity-proportional first."""

    d: int
    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = self.d
        ops = tuple(np.asarray(o, dtype=complex) for o in self.ops)
        if len(ops) != d * d:
            raise InvariantViolation(f"need {d * d} operators, got {len(ops)}")
        gram = np.array([[np.vdot(a, b) for b in ops] for a in ops])
        if np.abs(gram - np.eye(d * d)).max() > ATOL:
            raise InvariantViolation("site basis is not HS-orthonormal")
        if np.abs(ops[0] - np.eye(d) / math.sqrt(d)).max() > ATOL:
            raise InvariantViolation("ops[0] must be I/sqrt(d)")
        for a, op in enumerate(ops):
            if np.abs(op - op.conj().T).max() > ATOL:
                raise InvariantViolation(f"ops[{a}] is not Hermitian")
            if a >= 1 and abs(np.trace(op)) > ATOL:
                raise InvariantViolation(f"ops[{a}] is not traceless")
        object.__setattr__(self, "ops", ops)


@lru_cache(maxsize=None)
def site_basis(d: int) -> SiteBasis:
    """Generalized Gell-Mann basis scaled to unit HS norm, identity first.

    For d=2 this is {I, sx, sy, sz}/sqrt(2) in that order.
    """
    if d < 2:
        raise InvariantViolation("site dimension must be >= 2")
    ops = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1 / math.sqrt(2)
            ops.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j / math.sqrt(2)
            asym[k, j] = 1j / math.sqrt(2)
            ops.append(asym)
    for l in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -l
        ops.append(np.diag(diag) / math.sqrt(l * (l + 1)))
    return SiteBasis(d, tuple(ops))


@dataclass(frozen=True)
class Decomposition:
    """Dense coefficient tensor over all multi-indices, axis i indexed by alpha_i."""

    dims: Dims
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        expected = tuple(d * d for d in self.dims.factors)
        if c.shape != expected:
            raise DimensionMismatch(f"coefficient shape {c.shape} != {expected}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def hs_norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


@dataclass(frozen=True)
class WeightProfile:
    """w[k] = sum of |coeff|^2 over multi-indices of weight k, k = 0..n."""

    w: np.ndarray

    def __post_init__(self):
        arr = np.array(self.w, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    @property
    def total(self) -> float:
        return float(self.w.sum())


@lru_cache(maxsize=None)
def _gell_mann_maps(factors: tuple[int, ...], adjoint: bool) -> tuple[np.ndarray, ...]:
    # per site, conj(B_alpha) flattened over (row, col), one row per alpha; or its adjoint
    maps = [np.stack(site_basis(d).ops).reshape(d * d, d * d) for d in factors]
    return tuple(np.ascontiguousarray(m.T) if adjoint else m.conj() for m in maps)


def _contract(t: np.ndarray, factors, adjoint: bool):
    # one (d^2, d^2) map per site; the transpose rotates the mapped axis to
    # the back, so after n sites the axes are in order again
    for m in _gell_mann_maps(factors, adjoint):
        t = (m @ t.reshape(m.shape[1], -1)).T
    return t


def coeff_tensor(mat: np.ndarray, dims: Dims) -> np.ndarray:
    """Expansion coefficients of a D x D matrix over the product basis.

    One site at a time, so the cost is D^2 * sum(d_i^2) rather than D^4.
    """
    f, n = dims.factors, dims.n
    t = mat.reshape(f + f).transpose([a for i in range(n) for a in (i, n + i)])
    return _contract(t, f, adjoint=False).reshape(tuple(d * d for d in f))


def matrix_from_coeffs(coeffs: np.ndarray, dims: Dims) -> np.ndarray:
    """Adjoint of ``coeff_tensor``: reassemble the matrix from coefficients."""
    f, n, D = dims.factors, dims.n, dims.total
    t = _contract(coeffs, f, adjoint=True).reshape(tuple(d for d in f for _ in "rc"))
    return t.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(D, D)


def decompose(H: HermitianOp, T: Tps) -> Decomposition:
    """Expand H, seen through the structure T, over the product basis."""
    if H.dim != T.dims.total:
        raise DimensionMismatch(f"operator dim {H.dim} != product dim {T.dims.total}")
    pushed = T.iso.mat @ H.mat @ T.iso.mat.conj().T
    return Decomposition(T.dims, coeff_tensor(pushed, T.dims))


def reconstruct(dec: Decomposition) -> HermitianOp:
    return HermitianOp(matrix_from_coeffs(dec.coeffs, dec.dims))


@lru_cache(maxsize=None)
def weight_tensor(factors: tuple[int, ...]) -> np.ndarray:
    """Weight of every multi-index, shaped like the coefficient tensor."""
    n = len(factors)
    w = np.zeros(tuple(d * d for d in factors), dtype=np.int64)
    for i, d in enumerate(factors):
        shape = [1] * n
        shape[i] = d * d
        w = w + (np.arange(d * d) != 0).astype(np.int64).reshape(shape)
    return w


def weight_masses(coeffs: np.ndarray, factors: tuple[int, ...], dust: float = 0.0) -> np.ndarray:
    """Squared-coefficient mass per weight sector; entries below ``dust`` dropped."""
    mag2 = (coeffs.conj() * coeffs).real
    if dust > 0.0:
        mag2 = np.where(np.abs(coeffs) > dust, mag2, 0.0)
    return np.bincount(
        weight_tensor(factors).ravel(), weights=mag2.ravel(), minlength=len(factors) + 1
    )


def weight_profile(dec: Decomposition) -> WeightProfile:
    norm = math.sqrt(dec.hs_norm_sq())
    return WeightProfile(weight_masses(dec.coeffs, dec.dims.factors, dust=DUST_RTOL * norm))


def decomposition_to_json(dec: Decomposition) -> dict:
    """JSON form {dims, entries}, entries in C order; those at or below the dust threshold
    (``DUST_RTOL`` times the HS norm) are omitted."""
    keep = np.abs(dec.coeffs) > DUST_RTOL * math.sqrt(dec.hs_norm_sq())
    entries = [
        {"alphas": alphas, "re": z.real, "im": z.imag}
        for alphas, z in zip(np.argwhere(keep).tolist(), dec.coeffs[keep].tolist())
    ]
    return {"dims": list(dec.dims.factors), "entries": entries}
