"""Orthonormal Hermitian site bases and weight-graded product expansions.

Every Hermitian operator on the product space expands uniquely over tensor
products of single-site basis operators. Grouping squared coefficients by
weight (the number of non-identity sites in a term) grades the operator;
which weight sectors vanish is independent of the per-site basis choice.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, ScaleOutOfRange
from .hilbert import Dims, HermitianOp, _frozen, _times_dagger
from .tps import Tps


@lru_cache(maxsize=None)
def site_basis(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis scaled to unit HS norm, identity first: d^2 Hermitian operators
    as one read-only (d^2, d, d) array, traceless after the first.

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
    return _frozen(ops)


@lru_cache(maxsize=None)
def _gell_mann_maps(factors: tuple[int, ...], adjoint: bool) -> tuple[np.ndarray, ...]:
    # per site, conj(B_alpha) flattened over (row, col), one row per alpha; or its adjoint
    maps = [site_basis(d).reshape(d * d, d * d) for d in factors]
    return tuple(np.ascontiguousarray(m.T) if adjoint else m.conj() for m in maps)


def _contract(t: np.ndarray, factors, adjoint: bool):
    # one (d^2, d^2) map per site; the transpose rotates the mapped axis to
    # the back, so after n sites the axes are in order again
    for m in _gell_mann_maps(factors, adjoint):
        t = t.reshape(m.shape[1], -1)  # a copy: the previous product goes before the next is formed
        t = (m @ t).T
    return t


def coeff_tensor(mat: np.ndarray, dims: Dims) -> np.ndarray:
    """Expansion coefficients over the product basis of D x D matrices stacked (..., D, D), shaped
    (..., d_1^2, ..., d_n^2); any other shape is refused (DimensionMismatch).

    One site at a time, so the cost is D^2 * sum(d_i^2) per matrix rather than D^4; the batch axes
    go last, so each site map takes the whole stack in one product.
    """
    f, n, D, batch = dims.factors, dims.n, dims.total, np.shape(mat)[:-2]
    if np.shape(mat)[-2:] != (D, D):
        raise DimensionMismatch(f"matrix shape {np.shape(mat)} != (..., {D}, {D})")
    b = len(batch)
    t = mat.reshape(batch + f + f).transpose([b + a for i in range(n) for a in (i, n + i)] + list(range(b)))
    return _contract(t, f, adjoint=False).reshape(batch + tuple(d * d for d in f))


def matrix_from_coeffs(coeffs: np.ndarray, dims: Dims) -> np.ndarray:
    """Adjoint of ``coeff_tensor``: reassemble matrices (..., D, D) from coefficients shaped
    (..., d_1^2, ..., d_n^2), the batch axes moved last, refusing any other shape (DimensionMismatch)."""
    f, n, D, batch = dims.factors, dims.n, dims.total, np.shape(coeffs)[:-dims.n]
    if np.shape(coeffs)[-n:] != weight_tensor(f).shape:
        raise DimensionMismatch(f"coefficient shape {np.shape(coeffs)} != (...) + {weight_tensor(f).shape}")
    b = len(batch)
    t = _contract(coeffs.transpose(list(range(b, b + n)) + list(range(b))), f, adjoint=True)
    t = t.reshape(batch + tuple(d for d in f for _ in "rc"))
    return t.transpose([*range(b), *range(b, b + 2 * n, 2), *range(b + 1, b + 2 * n, 2)]).reshape(batch + (D, D))


def decompose(H: HermitianOp, T: Tps) -> np.ndarray:
    """Coefficient tensor of H, seen through the structure T, over the product basis."""
    if H.dim != T.dims.total:
        raise DimensionMismatch(f"operator dim {H.dim} != product dim {T.dims.total}")
    pushed = _times_dagger(T.iso.mat @ H.mat, T.iso.mat)
    m = np.trace(pushed).real / H.dim  # expanded apart: rounding a large c I leaks into no sector
    pushed.reshape(-1)[:: H.dim + 1] -= m
    coeffs = coeff_tensor(pushed, T.dims)
    coeffs.flat[0] += m * math.sqrt(H.dim)
    return coeffs


@lru_cache(maxsize=None)
def weight_tensor(factors: tuple[int, ...]) -> np.ndarray:
    """Weight of every multi-index, shaped like the coefficient tensor."""
    n = len(factors)
    w = np.zeros(tuple(d * d for d in factors), dtype=np.int64)
    for i, d in enumerate(factors):
        shape = [1] * n
        shape[i] = d * d
        w = w + (np.arange(d * d) != 0).astype(np.int64).reshape(shape)
    w.setflags(write=False)  # cached, so shared by every caller
    return w


@lru_cache(maxsize=None)
def klocal_mask(factors: tuple[int, ...], K: int) -> np.ndarray:
    """The weight-1..K multi-indices, the one K-local set: read-only, shaped like the coefficient tensor."""
    w = weight_tensor(factors)
    mask = (w >= 1) & (w <= K)
    mask.setflags(write=False)  # cached, so shared by every caller
    return mask


def weight_masses(coeffs: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    """Squared-coefficient mass per weight sector; one at or below (D eps)^2 times the total is 0.

    Rounding in the D-term sums that formed the matrix leaves noise of about D eps^2 times the
    total mass (the expansion is orthonormal); the floor, a factor D above, is scale-free.
    Nonzero coefficients whose masses overflow, all underflow or fall subnormal raise ScaleOutOfRange;
    a tensor not shaped like ``weight_tensor(factors)`` raises DimensionMismatch."""
    if np.shape(coeffs) != weight_tensor(factors).shape:
        raise DimensionMismatch(f"coefficient shape {np.shape(coeffs)} != {weight_tensor(factors).shape}")
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        mag2 = (coeffs.conj() * coeffs).real.ravel()
    masses = np.bincount(weight_tensor(factors).ravel(), weights=mag2, minlength=len(factors) + 1)
    masses[masses <= (math.prod(factors) * np.finfo(float).eps) ** 2 * masses.sum()] = 0.0
    lost = (masses > 0.0) & (masses < np.finfo(float).tiny)  # a subnormal mass has lost digits
    if lost.any() or (not masses.any() and coeffs.any()):  # an infinite mass floors them all
        raise ScaleOutOfRange(f"weight masses leave float64 at scale {np.abs(coeffs).max():.1e}")
    return masses
