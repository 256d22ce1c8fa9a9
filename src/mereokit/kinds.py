"""Orbit classes of (Hamiltonian, state) pairs and entanglement fingerprints.

Two pairs with the same spectrum and the same eigenspace weights of the
state are always related by a unitary, and the witness is pinned uniquely
(up to a global phase) when the spectrum is simple and every weight is
nonzero. Under those same conditions the polynomial probe states R(H)|psi>
span the whole space, so their per-site entropies with respect to a
structure separate inequivalent structures; ``cross_validate_tps`` checks
that separation against the direct equivalence test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolation,
    IncomparableFingerprints,
    InvariantViolation,
    NoWitnessError,
)
from .hilbert import HermitianOp, StateVec, UnitaryOp, _frozen, _square, _vec
from .tps import Tps, _eigen_entropies, equivalent

DEGENERACY_GAP = 1e-8  # minimum eigenvalue gap for a spectrum to count as simple
SUPPORT_MIN = 1e-8  # minimum |<eigvec|psi>| for full support
GROUPING_TOL = 1e-9  # eigenvalues closer than this share an eigenspace
SKIP_NORM = 1e-10  # probe states below this norm are skipped, not normalized
FINGERPRINT_TOL = 1e-7  # max fingerprint distance for two structures to count as the same
WITNESS_TOL = 1e-8  # max spectrum, eigenspace-weight or Gram mismatch for pairs to share an orbit


@dataclass(frozen=True)
class SpectrumSpec:
    """Sorted eigenvalue list, with multiplicity."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise InvariantViolation("spectrum values must be sorted ascending")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ProjectionSpec:
    """Probability weights on the eigenspaces; non-negative, summing to 1."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lambdas)
        if any(x < 0 for x in lam):
            raise InvariantViolation("weights must be non-negative")
        if abs(sum(lam) - 1.0) > 1e-9:
            raise InvariantViolation(f"weights sum to {sum(lam)!r}, not 1")
        object.__setattr__(self, "lambdas", lam)


def _group_starts(values: Sequence[float]) -> list[int]:
    return [0] + [k for k in range(1, len(values)) if values[k] - values[k - 1] > GROUPING_TOL]


@dataclass(frozen=True)
class PairKindSpec:
    """Class label for (Hermitian, state) pairs: spectrum plus eigenspace weights."""

    spectrum: SpectrumSpec
    weights: ProjectionSpec

    def __post_init__(self):
        groups = len(_group_starts(self.spectrum.values))
        if groups != len(self.weights.lambdas):
            raise DimensionMismatch(
                f"{len(self.weights.lambdas)} weights for {groups} eigenspaces"
            )


def _eigenspace_weights(values: Sequence[float], amplitudes: np.ndarray) -> np.ndarray:
    starts = _group_starts(values) + [len(values)]
    mags = np.abs(amplitudes) ** 2
    return np.array([mags[a:b].sum() for a, b in zip(starts, starts[1:])])


def _amplitudes(H: HermitianOp, psi: StateVec) -> np.ndarray:
    """Amplitudes of psi in the eigenbasis of H; DimensionMismatch if their dims differ."""
    if H.dim != psi.dim:
        raise DimensionMismatch(f"operator dim {H.dim} != state dim {psi.dim}")
    return H.eig[1].conj().T @ psi.vec


def pair_kind_of(H: HermitianOp, psi: StateVec) -> PairKindSpec:
    """The class label realized by a concrete pair."""
    lam = H.eig[0]
    w = _eigenspace_weights(lam, _amplitudes(H, psi))
    w = w / w.sum()
    return PairKindSpec(SpectrumSpec(tuple(lam)), ProjectionSpec(tuple(w)))


def pair_membership(
    H: HermitianOp, psi: StateVec, spec: PairKindSpec, tol: float = WITNESS_TOL
) -> bool:
    """Does (H, psi) match the spectrum and eigenspace weights of ``spec``?"""
    c = _amplitudes(H, psi)
    if H.dim != len(spec.spectrum.values):
        return False
    if np.abs(H.eig[0] - np.array(spec.spectrum.values)).max() > tol:
        return False
    got = _eigenspace_weights(spec.spectrum.values, c)
    return bool(np.abs(got - np.array(spec.weights.lambdas)).max() <= tol)


def check_spectral_hypotheses(
    H: HermitianOp, psi: Optional[StateVec] = None
) -> Optional[np.ndarray]:
    """Eigenbasis amplitudes of ``psi``, once H has a simple spectrum and psi full support.

    Raises HypothesisViolation ``degenerate_spectrum`` (some gap <= DEGENERACY_GAP), then
    DimensionMismatch or ``zero_projection`` (some amplitude <= SUPPORT_MIN) for a state.
    """
    lam = H.eig[0]
    gap = float(np.diff(lam).min()) if len(lam) > 1 else np.inf
    if gap <= DEGENERACY_GAP:
        raise HypothesisViolation(
            "degenerate_spectrum", f"eigenvalue gap {gap:.3e} below {DEGENERACY_GAP:.0e}"
        )
    if psi is None:
        return None
    c = _amplitudes(H, psi)
    k = int(np.abs(c).argmin())
    if abs(c[k]) <= SUPPORT_MIN:
        raise HypothesisViolation(
            "zero_projection",
            f"state overlap {abs(c[k]):.3e} with eigenvector {k} below {SUPPORT_MIN:.0e}",
        )
    return c


def pair_orbit_witness(
    H1: HermitianOp,
    psi1: StateVec,
    H2: HermitianOp,
    psi2: StateVec,
    tol: float = WITNESS_TOL,
) -> UnitaryOp:
    """Unitary U with U H1 U^dag = H2 and U psi1 = psi2.

    Requires a simple spectrum (otherwise the eigenbasis is ambiguous) and
    full support of both states on it (the per-eigenvector phases are read
    off the amplitude ratios, which pins U completely).
    """
    (lam1, V1), (lam2, V2) = H1.eig, H2.eig
    if len(lam1) != len(lam2):
        raise DimensionMismatch("operator dimensions differ")
    check_spectral_hypotheses(H1)
    check_spectral_hypotheses(H2)
    if np.abs(lam1 - lam2).max() > tol:
        raise NoWitnessError("spectra differ; no conjugating unitary exists")
    c1 = check_spectral_hypotheses(H1, psi1)
    c2 = check_spectral_hypotheses(H2, psi2)
    if np.abs(np.abs(c1) ** 2 - np.abs(c2) ** 2).max() > tol:
        raise NoWitnessError("eigenspace weights differ; pairs lie on different orbits")
    phases = c2 / c1
    phases = phases / np.abs(phases)
    return UnitaryOp((V2 * phases) @ V1.conj().T)


@dataclass(frozen=True)
class GramSpec:
    """Pairwise inner products of a family of vectors; Hermitian PSD."""

    matrix: np.ndarray

    def __post_init__(self):
        g = _square(self.matrix)
        if np.abs(g - g.conj().T).max() > 1e-10 * (1.0 + np.abs(g).max()):
            raise InvariantViolation("Gram matrix not Hermitian")
        if g.size and np.linalg.eigvalsh(g).min() < -1e-10 * (1.0 + np.abs(g).max()):
            raise InvariantViolation("Gram matrix not positive semidefinite")
        object.__setattr__(self, "matrix", g)


def gram_matrix(family: Sequence) -> GramSpec:
    F = np.stack([np.asarray(_vec(v)) for v in family])
    return GramSpec(F.conj() @ F.T)


def gram_orbit_witness(family1: Sequence, family2: Sequence, tol: float = WITNESS_TOL) -> UnitaryOp:
    """Unitary mapping family1 onto family2, member by member.

    Exists exactly when the Gram matrices agree. The witness is an orthogonal Procrustes
    solution (Schoenemann 1966) for M = sum_k f2_k f1_k^dag = F2^T F1^*, solved on the span:
    with complete QRs F1^T = Q1 R1 and F2^T = Q2 R2 (one stacked call; k members in dim D,
    m = min(k, D), rows of R past m zero), M = Q2[:, :m] C Q1[:, :m]^dag for the m x m core
    C = R2[:m] R1[:m]^dag. One SVD w s vh of C gives W Vh = Q2 blockdiag(w vh, I) Q1^dag: the
    polar factor of M on the span, completed by a unitary on its complement. Equal Grams mean
    R1^dag R1 = R2^dag R2, so R2[:m] = V R1[:m] for a unitary V; then C = V P with
    P = R1[:m] R1[:m]^dag PSD, and w vh = V on the range of P (C^dag C = P^2 pins the polar
    factor there, whatever SVD is taken), which holds every column of R1[:m]: the witness maps
    every member exactly.
    """
    F1 = np.stack([np.asarray(_vec(v)) for v in family1])
    F2 = np.stack([np.asarray(_vec(v)) for v in family2])
    if F1.shape != F2.shape:
        raise DimensionMismatch(f"family shapes differ: {F1.shape} vs {F2.shape}")
    G1, G2 = (F.conj() @ F.T for F in (F1, F2))
    if np.abs(G1 - G2).max() > tol:
        raise NoWitnessError("Gram matrices differ; no unitary can match the families")
    m = min(F1.shape)
    (Q1, Q2), (R1, R2) = np.linalg.qr(np.stack((F1, F2)).swapaxes(-1, -2), mode="complete")
    w, _, vh = np.linalg.svd(R2[:m] @ R1[:m].conj().T)
    B = Q1.conj().T
    B[:m] = (w @ vh) @ B[:m]
    return UnitaryOp(Q2 @ B)


@dataclass(frozen=True)
class ProbeSet:
    """Probe polynomials held as their values on the spectrum of H.

    ``values[r, k]`` is R_r(lambda_k) at the ascending eigenvalues, read-only.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        if values.ndim != 2:
            raise DimensionMismatch("need a 2-d value array")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def build_probe_set(
    H: HermitianOp,
    psi: StateVec,
    count: Optional[int] = None,
    stream: Optional[np.random.Generator] = None,
) -> ProbeSet:
    """Interpolation probes for every eigenvector plus seeded rational extras.

    Refuses, naming the failed condition, when the spectrum is (nearly)
    degenerate or the state misses an eigenvector: in either case the probe
    states cannot span the space.

    Their rank D is certified in O(count D), without an SVD: the probe states (values * c) V^T
    begin with the D rows diag(c) V^T, so sigma_min >= min |c|, while ``matrix_rank``'s threshold
    is at most ||values * c||_F count eps. A min |c| not above that bound raises
    InvariantViolation, so no set is accepted that ``matrix_rank`` would refuse.
    """
    c = check_spectral_hypotheses(H, psi)
    D = H.dim
    if count is None:
        count = 2 * D
    if count < D:
        raise DimensionMismatch(f"need at least {D} probes, got {count}")
    q = np.zeros((0, 2, D))
    if count > D:
        if stream is None:
            raise DimensionMismatch("a stream is required to draw the extra probes")
        # extra r is q[r, 0] + i q[r, 1], numerators in [-12, 12] over denominators in [1, 12]
        shape = (count - D, 2, D)
        q = stream.integers(-12, 13, size=shape) / stream.integers(1, 13, size=shape)
    values = np.concatenate([np.eye(D), q[:, 0] + 1j * q[:, 1]])
    bound = np.linalg.norm(values * c) * count * np.finfo(float).eps
    if np.abs(c).min() <= bound:
        raise InvariantViolation(f"probe-state rank {D} not certified: min |c| <= {bound:.3e}")
    return ProbeSet(values)


@dataclass(frozen=True)
class Fingerprint:
    """Per-(probe, site) entropies of the normalized probe states in one structure."""

    entries: np.ndarray
    skipped: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries, float))
        object.__setattr__(self, "skipped", frozenset(int(i) for i in self.skipped))


def fingerprint(H: HermitianOp, psi: StateVec, Ts: Sequence[Tps], probes: ProbeSet) -> list[Fingerprint]:
    """Entropy table of the probe states R(H)|psi> seen through each structure of Ts.

    The structures, at least one, must share one ``Dims``; the probe states are formed once
    and one ``site_entropies`` call reads them in every structure. Probe states are
    normalized before the entropy is taken; near-zero probes are recorded as skipped rather
    than amplified.
    """
    c = _amplitudes(H, psi)
    if probes.values.shape[1] != H.dim:
        raise DimensionMismatch(f"probe values of length {probes.values.shape[1]} != dim {H.dim}")
    nrm = np.linalg.norm(probes.values * c, axis=1)
    keep = nrm >= SKIP_NORM
    kept = _eigen_entropies(H, Ts, c, probes.values[keep] / nrm[keep, None])  # checks Ts and H
    entries = np.full((len(Ts), len(probes), kept.shape[-1]), np.nan)
    entries[:, keep] = kept
    skipped = frozenset(np.flatnonzero(~keep))
    return [Fingerprint(e, skipped) for e in entries]


def fingerprints_equal(f1: Fingerprint, f2: Fingerprint, tol: float = FINGERPRINT_TOL) -> bool:
    """Entrywise comparison over the shared, unskipped probes."""
    if f1.entries.shape != f2.entries.shape:
        raise IncomparableFingerprints(
            f"entry shapes differ: {f1.entries.shape} vs {f2.entries.shape}"
        )
    if f1.skipped != f2.skipped:
        raise IncomparableFingerprints("skip patterns differ")
    return fingerprint_distance(f1, f2) <= tol


def fingerprint_distance(f1: Fingerprint, f2: Fingerprint) -> float:
    keep = np.ones(f1.entries.shape[0], dtype=bool)
    keep[list(f1.skipped)] = False
    if not keep.any():
        return 0.0
    return float(np.abs(f1.entries[keep] - f2.entries[keep]).max())


class TpsVerdict(enum.Enum):
    SAME = "SameTps"
    DIFFERENT = "DifferentTps"
    INCONSISTENT = "Inconsistent"

    @classmethod
    def of(cls, fp_same: bool, tps_same: bool) -> "TpsVerdict":
        """SAME or DIFFERENT when the fingerprint and equivalence tests agree."""
        if fp_same != tps_same:
            return cls.INCONSISTENT
        return cls.SAME if tps_same else cls.DIFFERENT


def cross_validate_tps(
    H: HermitianOp,
    psi: StateVec,
    T1: Tps,
    T2: Tps,
    probes: ProbeSet,
    tol: float = FINGERPRINT_TOL,
) -> TpsVerdict:
    """Cross-check the fingerprint discriminator against direct equivalence.

    With a spanning probe set the two tests must agree; an Inconsistent
    verdict indicts the implementation, not the mathematics.
    """
    fp_same = fingerprints_equal(*fingerprint(H, psi, [T1, T2], probes), tol)
    return TpsVerdict.of(fp_same, equivalent(T1, T2))

