"""Symmetry dimension counting, nonlocal-symmetry witnesses, and entropy orbits.

Every Hamiltonian has a commutative symmetry group of dimension D (phases
along its eigenbasis), while any commutative subgroup of a structure's
stabilizer has dimension at most sum(d_i) - (n - 1). The strict gap is what
guarantees symmetries of H that move the structure; the time-evolution
family makes such symmetries concrete, and the per-site entropy curve along
the evolved structures separates them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import Dims, HermitianOp, StateVec, UnitaryOp, _frozen, expm_i
from .locality import WITNESS_ENTROPY, _require_product_probes
from .tps import Tps, _eigen_entropies, act, equivalent

COMMUTANT_TOL = 1e-9


@dataclass(frozen=True)
class SymmetryDims:
    """Dimension bookkeeping for stabilizers at the given factor dimensions."""

    dims: Dims
    stab_tps_dim: int
    abelian_bound: int
    hamiltonian_abelian_dim: int

    @property
    def hamiltonian_exceeds_bound(self) -> bool:
        return self.hamiltonian_abelian_dim > self.abelian_bound


def symmetry_dims(dims: Dims) -> SymmetryDims:
    n = dims.n
    return SymmetryDims(
        dims=dims,
        stab_tps_dim=sum(d * d for d in dims.factors) - n + 1,
        abelian_bound=sum(dims.factors) - (n - 1),
        hamiltonian_abelian_dim=dims.total,
    )


def inequality_sweep(max_n: int, max_d: int) -> bool:
    """Check D > sum(d_i) - (n-1) for every dims tuple with n <= max_n, d_i <= max_d."""
    if max_n < 2 or max_d < 2:
        raise DimensionMismatch("need max_n >= 2 and max_d >= 2")
    for n in range(2, max_n + 1):
        for factors in itertools.product(range(2, max_d + 1), repeat=n):
            if not symmetry_dims(Dims(factors)).hamiltonian_exceeds_bound:
                return False
    return True


def find_nonlocal_symmetry(
    H: HermitianOp, T: Tps, t_grid: Sequence[float], probes: Sequence[StateVec]
) -> Optional[tuple[float, UnitaryOp]]:
    """First grid time whose evolution unitary commutes with H but moves T.

    Probe entanglement flags a candidate time; the move is then confirmed by
    the equivalence test. Returns None when the grid shows nothing, which is
    the expected outcome exactly for 1-local Hamiltonians.
    """
    C = _require_product_probes(H, T, probes)
    for t in t_grid:
        ents = _eigen_entropies(H, T, C, np.exp(-1j * float(t) * H.eig[0]))
        if not (ents > WITNESS_ENTROPY).any():
            continue
        U = expm_i(H, float(t))
        if equivalent(act(U, T), T):
            continue
        comm = np.abs(U.mat @ H.mat - H.mat @ U.mat).max()
        if comm > COMMUTANT_TOL:
            raise InvariantViolation(f"evolution unitary fails to commute: {comm:.3e}")
        return float(t), U
    return None


@dataclass(frozen=True)
class OrbitCurve:
    """Entropy of one site along the time-evolved structures, for a fixed probe."""

    t_values: np.ndarray
    entropies: np.ndarray
    site: int
    probe: StateVec

    def __post_init__(self):
        t = _frozen(self.t_values, float)
        s = _frozen(self.entropies, float)
        if t.shape != s.shape:
            raise DimensionMismatch("t_values and entropies must have equal length")
        object.__setattr__(self, "t_values", t)
        object.__setattr__(self, "entropies", s)

    def to_csv_rows(self):
        return [(float(t), float(s)) for t, s in zip(self.t_values, self.entropies)]


def entropy_orbit(
    H: HermitianOp, T: Tps, probe: StateVec, site: int, t_grid: Sequence[float]
) -> OrbitCurve:
    """Site entropy of the probe pushed through iso . e^{-itH}, per grid point."""
    c = _require_product_probes(H, T, [probe])[0]
    n = T.dims.n
    if not (0 <= site < n):
        raise DimensionMismatch(f"site {site} out of range for n={n}")
    t = np.asarray(t_grid, dtype=float)
    # Equal blocks of at most 2**16 // D times bound the memory; a 1-point block would take
    # numpy's matrix-vector product, which rounds unlike the matrix-matrix one.
    blocks = np.array_split(t, len(t) // max(1, 2**16 // H.dim) + 1)
    lam = H.eig[0]
    ents = np.concatenate(
        [_eigen_entropies(H, T, c, np.exp(-1j * np.multiply.outer(b, lam)))[:, site] for b in blocks]
    )
    bound = np.log(T.dims.factors[site]) + 1e-9
    if len(ents) and ents.max() > bound:
        raise InvariantViolation(f"entropy {ents.max():.12f} above log d bound")
    return OrbitCurve(t, ents, site, probe)


def distinct_value_count(curve: OrbitCurve, bin: float) -> int:
    """Number of distinct entropy values after rounding to multiples of ``bin``."""
    if not 0 < bin < np.inf:  # also False for NaN
        raise DimensionMismatch(f"bin must be finite and positive, got {bin!r}")
    with np.errstate(over="ignore"):  # an infinite quotient is refused below
        q = np.round(curve.entropies / bin)
    if not np.isfinite(q).all():
        raise DimensionMismatch(f"bin {bin!r} is too small: an entropy / bin is not finite")
    return int(np.unique(q).size)


def default_time_grid(H: HermitianOp, points: int = 64) -> np.ndarray:
    """Uniform grid on [0, 2*pi] in units of the spectral radius of H."""
    rho = float(np.abs(H.eig[0]).max())
    if rho == 0.0:
        rho = 1.0
    return np.linspace(0.0, 2.0 * np.pi / rho, points)
