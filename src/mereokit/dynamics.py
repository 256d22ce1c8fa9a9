"""Symmetry dimension counting, nonlocal symmetries from the spectrum, and entropy orbits.

Every Hamiltonian has a commutative symmetry group of dimension D (phases
along its eigenbasis), while any commutative subgroup of a structure's
stabilizer has dimension at most sum(d_i) - (n - 1). The strict gap is what
guarantees symmetries of H that move the structure. An evolution e^{-itH} moves
it for some t exactly when H is not 1-local in it, at a t read off the spectrum,
and the per-site entropy curve along the evolved structures separates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import Dims, HermitianOp, StateVec, UnitaryOp, _tol, expm_i
from .locality import _evolved_entropies, is_k_local
from .tps import Tps, act, equivalent


@dataclass(frozen=True)
class SymmetryDims:
    """Dimension bookkeeping for stabilizers at the given factor dimensions. The D = dims.total phases
    along the eigenbasis of any H exceed abelian_bound: ab >= a + b for a, b >= 2 ((a - 1)(b - 1) >= 1),
    so D = prod d_i >= sum d_i > sum d_i - (n - 1) = abelian_bound, as n >= 2."""

    dims: Dims
    stab_tps_dim: int
    abelian_bound: int


def symmetry_dims(dims: Dims) -> SymmetryDims:
    n = dims.n
    return SymmetryDims(
        dims=dims,
        stab_tps_dim=sum(d * d for d in dims.factors) - n + 1,
        abelian_bound=sum(dims.factors) - (n - 1),
    )


def find_nonlocal_symmetry(H: HermitianOp, T: Tps) -> Optional[tuple[float, UnitaryOp]]:
    """(t, e^{-itH}) with e^{-itH} moving T; None exactly when ``is_k_local(H, T, 1)`` holds.

    t = pi / (2 Delta), Delta the spectral spread. For t Delta < pi the spectrum of e^{-itH}
    lies on an arc shorter than pi. A product of site unitaries with such a spectrum has a
    1-local logarithm on that arc, which is then tH up to a constant; a factor permutation (an
    m-cycle, m >= 2) puts all m-th roots of a phase into the spectrum, which no such arc holds.
    So each 0 < t < pi / Delta moves T unless H is 1-local; the midpoint stays away from t -> 0,
    where the move vanishes, and from t Delta = pi, where e^{-i pi XX / 2} = -i X (x) X is local.
    ``equivalent`` confirms the move; one it cannot confirm raises InvariantViolation, not None.
    """
    if is_k_local(H, T, 1):  # also H ∝ I, whose spread Delta is 0
        return None
    lam = H.eig[0]
    t = float(np.pi / (2.0 * (lam[-1] - lam[0])))
    U = expm_i(H, t)
    if equivalent(act(U, T), T):
        raise InvariantViolation(f"H is not 1-local, yet e^(-itH) at t = {t!r} keeps the structure")
    return t, U


def entropy_orbit(
    H: HermitianOp, T: Tps, probe: StateVec, site: int, t_grid: Sequence[float]
) -> np.ndarray:
    """Site entropy of the probe pushed through iso . e^{-itH}, per grid point, read-only and shaped
    like the grid; only that site's marginal is read. A site out of range raises DimensionMismatch."""
    ents = _evolved_entropies(H, T, [probe], t_grid, (site,))[:, 0, 0]
    bound = np.log(T.dims.factors[site]) + 1e-9
    top = ents.max(initial=0.0)
    if not top <= bound:  # also refuses NaN
        raise InvariantViolation(f"entropy {top:.12f} above log d bound")
    ents.setflags(write=False)
    return ents


def distinct_value_count(entropies: np.ndarray, bin: float) -> int:
    """Number of distinct entropy values after rounding to multiples of ``bin``."""
    s = np.asarray(entropies, dtype=float)
    if not np.isfinite(s).all():
        raise DimensionMismatch("entropies must be finite, got NaN or inf")
    _tol(bin, "bin")
    with np.errstate(over="ignore"):  # an infinite quotient is refused below
        q = np.round(s / bin)
    if not np.isfinite(q).all():
        raise DimensionMismatch(f"bin {bin!r} is too small: an entropy / bin is not finite")
    q = np.sort(q, axis=None)  # distinct bins from a sort: np.unique imports numpy.ma on its first call
    return int(q.size and 1 + np.count_nonzero(q[1:] != q[:-1]))


def default_time_grid(H: HermitianOp, points: int = 64) -> np.ndarray:
    """Uniform grid of ``points`` >= 0 times on [0, 2*pi] in units of the spectral radius of H."""
    if points < 0:
        raise DimensionMismatch(f"a time grid needs points >= 0, got {points}")
    rho = float(np.abs(H.eig[0]).max())
    if rho == 0.0:
        rho = 1.0
    return np.linspace(0.0, 2.0 * np.pi / rho, points)
