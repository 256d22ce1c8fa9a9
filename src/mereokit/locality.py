"""K-locality predicates and the check tying locality to time evolution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, ObjectiveUndefined
from .hilbert import PURE_TOL, HermitianOp, StateVec, _impurity, _marginals, _phases_finite, _tol
from .basis import decompose, weight_masses
from .tps import Tps, _eigen_entropies

# default bound on the K-local residual, the weight mass above K relative to the non-constant mass
LOCALITY_RTOL = 1e-9
# site entropy above this witnesses entanglement generation; absolute, in nats
WITNESS_ENTROPY = 1e-6


@dataclass(frozen=True)
class LocalityReport:
    """``weights[k]``, read-only, is the ``weight_masses`` of sector k = 0..n; ``min_k`` is the
    smallest K in 1..n with ``is_k_local`` (0 for H ∝ I)."""

    weights: np.ndarray
    min_k: int
    tol: float

    def to_json(self) -> dict:
        return {
            "min_k": int(self.min_k),
            "tol": float(self.tol),
            "weights": [float(x) for x in self.weights],
        }


def k_local_residual(masses: np.ndarray, K: int) -> float:
    """``weight_masses`` above K over those of sectors 1..n; undefined for H ∝ I (all of them 0)."""
    M = float(masses[1:].sum())
    if M == 0.0:
        raise ObjectiveUndefined("operator is proportional to the identity")
    return float(masses[K + 1 :].sum()) / M


def _within(masses: np.ndarray, K: int, tol: float) -> bool:
    tol = _tol(tol)  # before the residual, which H ∝ I leaves undefined
    return k_local_residual(masses, K) <= tol


def _masses(H: HermitianOp, T: Tps) -> np.ndarray:
    return weight_masses(decompose(H, T), T.dims.factors)


def locality_report(H: HermitianOp, T: Tps, tol: float = LOCALITY_RTOL) -> LocalityReport:
    """Weight masses, read-only, plus the smallest K whose K-local residual is at most tol."""
    w = _masses(H, T)
    w.setflags(write=False)
    try:  # K = n always holds: nothing sits above it
        min_k = next(K for K in range(1, T.dims.n + 1) if _within(w, K, tol))
    except ObjectiveUndefined:
        min_k = 0
    return LocalityReport(w, min_k, tol)


def is_k_local(H: HermitianOp, T: Tps, K: int, tol: float = LOCALITY_RTOL) -> bool:
    """True iff the K-local residual of H in T is at most tol; H ∝ I is K-local for every K."""
    if not (1 <= K <= T.dims.n):
        raise DimensionMismatch(f"K={K} out of range 1..{T.dims.n}")
    try:
        return _within(_masses(H, T), K, tol)
    except ObjectiveUndefined:
        return True


@dataclass(frozen=True)
class EvolutionWitness:
    t: float
    probe_index: int
    entropy: float


@dataclass(frozen=True)
class EvolutionVerdict:
    """``consistent`` is ``is_k_local(H, T, 1)``; ``witness`` the first (t, probe) on the grid whose
    site entropy exceeds ``WITNESS_ENTROPY``, or None, also when the grid misses a non-1-local H
    (empty, or on periods of its spectrum); ``max_entropy`` the largest entropy up to it."""

    consistent: bool
    witness: Optional[EvolutionWitness]
    max_entropy: float


def _evolved_entropies(
    H: HermitianOp, T: Tps, probes: Sequence[StateVec], t_grid, sites=None
) -> np.ndarray:
    """Site entropies (times, probes, sites) in T of product probes evolved by e^{-itH}, at
    ``sites`` (all by default).

    Refuses an H or a probe of the wrong dim, a grid that is not one finite sequence or one whose phases
    t * eigenvalue overflow (DimensionMismatch), and a probe whose ``_impurity`` in T exceeds
    ``PURE_TOL`` at some site (InvariantViolation): as S >= 1 - tr rho^2, every probe of site entropies
    <= 1e-9 nats passes, and so may one of entropies up to about 1.2e-8 nats. Equal blocks of at
    most 2**16 // (D * probes) times, each one matrix product, bound the memory to two (times,
    probes, D) arrays per block; a 1-point block would take numpy's matrix-vector product, which
    rounds unlike the matrix-matrix one.
    """
    D = T.dims.total
    if H.dim != D:
        raise DimensionMismatch(f"operator dim {H.dim} != product dim {D}")
    for j, probe in enumerate(probes):
        if probe.dim != D:
            raise DimensionMismatch(f"probe {j} has dim {probe.dim} != {D}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or not np.isfinite(t).all():
        raise DimensionMismatch(f"grid times must be a 1-d sequence of finite numbers, got shape {t.shape}")
    _phases_finite(H, float(np.abs(t).max(initial=0.0)), "grid")
    P = np.array([p.vec for p in probes], dtype=complex).reshape(-1, D)
    C = P @ H.eig[1].conj()
    dims, psi = T.dims.factors, (P @ T.iso.mat.T).reshape((-1,) + T.dims.factors)  # the probes in T
    rho = [_marginals(psi, tuple((i,) for i, e in enumerate(dims) if e == d)) for d in set(dims)]
    for j, impurity in enumerate(np.concatenate([_impurity(r) for r in rho]).max(axis=0)):  # (sites, probes)
        if not impurity <= PURE_TOL:  # also refuses NaN
            raise InvariantViolation(f"probe {j} is not a product state (impurity {impurity:.3e})")
    blocks = np.array_split(t, len(t) // max(1, 2**16 // (D * max(1, len(C)))) + 1)
    lam, ents = -1j * H.eig[0], []
    for b in blocks:
        f = np.multiply.outer(b, lam)[:, None]  # the phase table (times, 1, D)
        np.exp(f, out=f)
        # times C, in place for one probe, where the product keeps the table's shape
        ents.append(_eigen_entropies(H, [T], np.multiply(f, C, out=f if len(C) == 1 else None), sites)[0])
    ents = np.concatenate(ents)
    return ents.reshape(len(t), len(C), ents.shape[-1])


def one_local_evolution_check(
    H: HermitianOp, T: Tps, t_grid: Sequence[float], probes: Sequence[StateVec]
) -> EvolutionVerdict:
    """``is_k_local(H, T, 1)``, with the first probe on the grid whose evolution shows it.

    The two disagree only when H lies within ``LOCALITY_RTOL`` of 1-local and the grid reaches
    times long enough for that remainder to entangle a probe past ``WITNESS_ENTROPY``.
    """
    ents = _evolved_entropies(H, T, probes, t_grid).max(axis=-1).ravel()  # (t, probe) order
    hits = np.flatnonzero(ents > WITNESS_ENTROPY)
    witness = None
    if len(hits):
        k = int(hits[0])
        witness = EvolutionWitness(float(t_grid[k // len(probes)]), k % len(probes), float(ents[k]))
        ents = ents[: k + 1]
    return EvolutionVerdict(is_k_local(H, T, 1), witness, float(ents.max(initial=0.0)))
