"""K-locality predicates and the check tying locality to time evolution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, ObjectiveUndefined
from .hilbert import HermitianOp, StateVec
from .basis import WeightProfile, decompose, weight_profile
from .tps import Tps, _eigen_entropies

LOCALITY_RTOL = 1e-9  # default bound on the K-local residual
WITNESS_ENTROPY = 1e-6  # site entropy above this witnesses entanglement generation
PRODUCT_PROBE_TOL = 1e-9  # max site entropy for a probe to count as a product state


@dataclass(frozen=True)
class LocalityReport:
    """Weight profile; ``min_k`` is the smallest K in 1..n with ``is_k_local`` (0 for H ∝ I)."""

    profile: WeightProfile
    min_k: int
    tol: float

    def to_json(self) -> dict:
        return {
            "min_k": int(self.min_k),
            "tol": float(self.tol),
            "weights": [float(x) for x in self.profile.w],
        }


def k_local_residual(masses: np.ndarray, K: int) -> float:
    """``weight_masses`` above K over those of sectors 1..n; undefined for H ∝ I (all of them 0)."""
    M = float(masses[1:].sum())
    if M == 0.0:
        raise ObjectiveUndefined("operator is proportional to the identity")
    return float(masses[K + 1 :].sum()) / M


def _within(masses: np.ndarray, K: int, tol: float) -> bool:
    if not 0 < tol < np.inf:  # also False for NaN
        raise DimensionMismatch(f"tol must be finite and positive, got {tol!r}")
    return k_local_residual(masses, K) <= tol


def _profile(H: HermitianOp, T: Tps) -> WeightProfile:
    return weight_profile(decompose(H, T))


def locality_report(H: HermitianOp, T: Tps, tol: float = LOCALITY_RTOL) -> LocalityReport:
    """Weight profile plus the smallest K whose K-local residual is at most tol."""
    prof = _profile(H, T)
    try:  # K = n always holds: nothing sits above it
        min_k = next(K for K in range(1, T.dims.n + 1) if _within(prof.w, K, tol))
    except ObjectiveUndefined:
        min_k = 0
    return LocalityReport(prof, min_k, tol)


def is_k_local(H: HermitianOp, T: Tps, K: int, tol: float = LOCALITY_RTOL) -> bool:
    """True iff the K-local residual of H in T is at most tol; H ∝ I is K-local for every K."""
    if not (1 <= K <= T.dims.n):
        raise DimensionMismatch(f"K={K} out of range 1..{T.dims.n}")
    try:
        return _within(_profile(H, T).w, K, tol)
    except ObjectiveUndefined:
        return True


@dataclass(frozen=True)
class EvolutionWitness:
    t: float
    probe_index: int
    entropy: float


@dataclass(frozen=True)
class EvolutionVerdict:
    """Outcome of scanning a time grid for entanglement generation.

    ``consistent`` means no witness was found on the grid; it is evidence,
    not proof, so the largest site entropy seen is reported alongside.
    """

    consistent: bool
    witness: Optional[EvolutionWitness]
    max_entropy: float


def _require_product_probes(H: HermitianOp, T: Tps, probes: Sequence[StateVec]):
    """Eigenbasis amplitudes (one row per probe), once every probe is a product state in T."""
    for j, probe in enumerate(probes):
        if probe.dim != T.dims.total:
            raise DimensionMismatch(f"probe {j} has dim {probe.dim} != {T.dims.total}")
    C = np.array([p.vec for p in probes], dtype=complex).reshape(-1, T.dims.total)
    C = C @ H.eig[1].conj()
    for j, ent in enumerate(_eigen_entropies(H, T, C, 1.0).max(axis=-1)):
        if ent > PRODUCT_PROBE_TOL:
            raise InvariantViolation(f"probe {j} is not a product state (entropy {ent:.3e})")
    return C


def one_local_evolution_check(
    H: HermitianOp, T: Tps, t_grid: Sequence[float], probes: Sequence[StateVec]
) -> EvolutionVerdict:
    """Scan evolved product probes for entanglement in T.

    Product states stay product under evolution exactly when H acts as a sum
    of single-site terms, so the first probe whose marginal entropy exceeds
    ``WITNESS_ENTROPY`` witnesses that H is not 1-local. The scan order is
    (t index, probe index), so the reported witness is deterministic.
    """
    C = _require_product_probes(H, T, probes)
    max_seen = 0.0
    for t in t_grid:
        ents = _eigen_entropies(H, T, C, np.exp(-1j * float(t) * H.eig[0])).max(axis=-1)
        for j, ent in enumerate(ents.tolist()):
            max_seen = max(max_seen, ent)
            if ent > WITNESS_ENTROPY:
                return EvolutionVerdict(False, EvolutionWitness(float(t), j, ent), max_seen)
    return EvolutionVerdict(True, None, max_seen)
