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
from .hilbert import HermitianOp, StateVec, UnitaryOp
from .hilbert import _finite, _formed_unitary, _frozen, _scaled, _tol, _vec
from .tps import Tps, _eigen_entropies, equivalent

# eigenvalues no more than this apart share an eigenspace; absolute, in the units of H's spectrum
DEGENERACY_GAP = 1e-8
# minimum |<eigvec|psi>| for full support; an amplitude of a unit state, so relative to |psi| = 1
SUPPORT_MIN = 1e-8
# max entrywise fingerprint distance for two structures to count as the same; absolute, in nats
FINGERPRINT_TOL = 1e-7
# max spectrum mismatch, absolute in the units of the spectra, and max amplitude residual, relative to
# |psi| = 1, for a pair match or a pair witness; for a Gram witness, max |U f1_k - f2_k|, absolute in
# the units of the family members
WITNESS_TOL = 1e-8


def _group_starts(values: Sequence[float]) -> np.ndarray:
    """First index of each eigenspace of the ascending ``values``: a gap > DEGENERACY_GAP opens
    one, so a spectrum passes the gap test of ``check_spectral_hypotheses`` exactly when it has
    one eigenspace per eigenvalue."""
    return np.flatnonzero(np.diff(values, prepend=-np.inf) > DEGENERACY_GAP)


@dataclass(frozen=True)
class PairKindSpec:
    """Class label for (Hermitian, state) pairs: the ascending spectrum, with multiplicity, and
    the state's weight on each eigenspace (non-negative, summing to 1 within 1e-9)."""

    spectrum: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        spectrum = tuple(float(v) for v in self.spectrum)
        weights = tuple(float(x) for x in self.weights)
        if not all(a <= b for a, b in zip(spectrum, spectrum[1:])):
            raise InvariantViolation("spectrum values must be sorted ascending")
        if not all(x >= 0 for x in weights):
            raise InvariantViolation("weights must be non-negative")
        if not abs(sum(weights) - 1.0) <= 1e-9:
            raise InvariantViolation(f"weights sum to {sum(weights)!r}, not 1")
        groups = len(_group_starts(spectrum))
        if groups != len(weights):
            raise DimensionMismatch(f"{len(weights)} weights for {groups} eigenspaces")
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "weights", weights)


def _eigenspace_weights(values: Sequence[float], amplitudes: np.ndarray) -> np.ndarray:
    return np.add.reduceat(np.abs(amplitudes) ** 2, _group_starts(values))


def _amplitudes(H: HermitianOp, psi: StateVec) -> np.ndarray:
    """Amplitudes of psi in the eigenbasis of H; DimensionMismatch if their dims differ."""
    if H.dim != psi.dim:
        raise DimensionMismatch(f"operator dim {H.dim} != state dim {psi.dim}")
    return H.eig[1].conj().T @ psi.vec


def _amplitudes_differ(a1: np.ndarray, a2: np.ndarray, tol: float) -> bool:
    """Is ||a1 - a2||_2 > tol, or NaN, for two non-negative amplitude vectors (|c| or sqrt of weights)?"""
    return not np.linalg.norm(a1 - a2) <= tol


def pair_kind_of(H: HermitianOp, psi: StateVec) -> PairKindSpec:
    """The class label realized by a concrete pair."""
    lam = H.eig[0]
    return PairKindSpec(tuple(lam), tuple(_eigenspace_weights(lam, _amplitudes(H, psi))))


def pair_membership(
    H: HermitianOp, psi: StateVec, spec: PairKindSpec, tol: float = WITNESS_TOL
) -> bool:
    """Does (H, psi) lie in the class ``spec`` within tol?

    True iff the dims match, the spectra agree within tol entrywise and ||sqrt(w) -
    sqrt(spec.weights)||_2 <= tol, w being psi's weights on the eigenspaces of ``spec``. That
    residual is min ||U psi - psi_spec|| over the unitaries U that commute with H, for any state
    psi_spec of the class: within one eigenspace the best U aligns the two projections, which
    leaves |sqrt(w_j) - sqrt(w_spec_j)|. For a simple spectrum it is ||c| - |c_spec||_2, the
    residual ``pair_orbit_witness`` decides by, so the two agree.
    """
    tol = _tol(tol)
    c = _amplitudes(H, psi)
    if H.dim != len(spec.spectrum) or not np.abs(H.eig[0] - spec.spectrum).max() <= tol:
        return False
    got = _eigenspace_weights(spec.spectrum, c)
    return not _amplitudes_differ(np.sqrt(got), np.sqrt(spec.weights), tol)


def check_spectral_hypotheses(
    H: HermitianOp, psi: Optional[StateVec] = None
) -> Optional[np.ndarray]:
    """Eigenbasis amplitudes of ``psi``, once H has a simple spectrum and psi full support.

    Raises HypothesisViolation ``degenerate_spectrum`` (some gap not above DEGENERACY_GAP), then
    DimensionMismatch or ``zero_projection`` (some amplitude not above SUPPORT_MIN) for a state.
    """
    lam = H.eig[0]
    gap = float(np.diff(lam).min()) if len(lam) > 1 else np.inf
    if not gap > DEGENERACY_GAP:
        raise HypothesisViolation(
            "degenerate_spectrum", f"eigenvalue gap {gap:.3e} below {DEGENERACY_GAP:.0e}"
        )
    if psi is None:
        return None
    c = _amplitudes(H, psi)
    k = int(np.abs(c).argmin())
    if not abs(c[k]) > SUPPORT_MIN:
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
    """Unitary U with U H1 U^dag = H2 and U psi1 = psi2 within tol, else NoWitnessError.

    Requires a simple spectrum (otherwise the eigenbasis is ambiguous) and full support of both
    states on it (the per-eigenvector phases are read off the amplitude ratios, which pins U
    completely). Spectra within tol entrywise give |U H1 U^dag - H2|_max <= tol; U maps amplitude
    c1_k to |c1_k| c2_k / |c2_k|, so it is returned iff |U psi1 - psi2| = ||c1| - |c2||_2 <= tol,
    the comparison ``pair_membership`` makes.
    """
    tol = _tol(tol)
    (lam1, V1), (lam2, V2) = H1.eig, H2.eig
    if len(lam1) != len(lam2):
        raise DimensionMismatch("operator dimensions differ")
    check_spectral_hypotheses(H1)
    check_spectral_hypotheses(H2)
    if not np.abs(lam1 - lam2).max() <= tol:
        raise NoWitnessError("spectra differ; no conjugating unitary exists")
    c1 = check_spectral_hypotheses(H1, psi1)
    c2 = check_spectral_hypotheses(H2, psi2)
    if _amplitudes_differ(np.abs(c1), np.abs(c2), tol):
        raise NoWitnessError("eigenspace amplitudes differ; pairs lie on different orbits")
    phases = c2 / c1
    phases = phases / np.abs(phases)
    return _formed_unitary((V2 * phases) @ V1.conj().T)


def _family(family: Sequence, name: str) -> np.ndarray:
    """The members as the rows of one array; an empty family, or a member that is not a vector of
    member 0's length, is a DimensionMismatch, and a member with a NaN or inf entry an
    InvariantViolation, each naming the family."""
    if not len(family):
        raise DimensionMismatch(f"{name} needs at least one member")
    members = [np.asarray(_vec(v)) for v in family]
    for k, f in enumerate(members):
        if f.ndim != 1:
            raise DimensionMismatch(f"{name} member {k} has shape {f.shape}, not a vector")
        if f.shape != members[0].shape:
            raise DimensionMismatch(f"{name} member {k} has length {f.size}, member 0 {members[0].size}")
    F = np.stack(members)
    bad = [k for k, f in enumerate(F) if not np.isfinite(f).all()]
    if bad:
        raise InvariantViolation(f"{name} member {bad[0]} has a NaN or inf entry")
    return F


def gram_orbit_witness(family1: Sequence, family2: Sequence, tol: float = WITNESS_TOL) -> UnitaryOp:
    """Unitary U mapping family1 onto family2 member by member, returned iff max_k |U f1_k - f2_k|
    <= tol, else NoWitnessError.

    U is the orthogonal Procrustes solution (Schoenemann 1966) for M = sum_k f2_k f1_k^dag =
    F2^T F1^*, solved on the span: with complete QRs F1^T = Q1 R1 and F2^T = Q2 R2 (one stacked
    call; k members in dim D, m = min(k, D), rows of R past m zero), M = Q2[:, :m] C Q1[:, :m]^dag
    for the m x m core C = R2[:m] R1[:m]^dag. One SVD w s vh of C gives U = Q2 blockdiag(w vh, I)
    Q1^dag: the polar factor of M on the span, completed by a unitary on its complement. Equal
    Grams mean R1^dag R1 = R2^dag R2, so R2[:m] = V R1[:m] for a unitary V; then C = V P with
    P = R1[:m] R1[:m]^dag PSD, and w vh = V on the range of P, which holds every column of R1[:m]
    (C^dag C = P^2 pins the polar factor there, whatever SVD is taken): U maps each member exactly.
    Both families are first divided by one exact power of two, which leaves U as it is and keeps C
    and the residual's squares within float64; the residual is compared with tol in their units.
    """
    tol = _tol(tol)
    F1, F2 = _family(family1, "family1"), _family(family2, "family2")
    if F1.shape != F2.shape:
        raise DimensionMismatch(f"family shapes differ: {F1.shape} vs {F2.shape}")
    m = min(F1.shape)
    F, e = _scaled(np.stack((F1, F2)))
    (Q1, Q2), (R1, R2) = np.linalg.qr(F.swapaxes(-1, -2), mode="complete")
    w, _, vh = np.linalg.svd(R2[:m] @ R1[:m].conj().T)
    B = Q1.conj().T
    B[:m] = (w @ vh) @ B[:m]
    U = Q2 @ B
    with np.errstate(over="ignore"):  # a residual past float64 reads inf, above every tol
        residual = np.ldexp(np.linalg.norm(F[0] @ U.T - F[1], axis=1).max(), e)
    if not residual <= tol:
        raise NoWitnessError("no unitary maps the families within tol; their Gram matrices differ")
    return _formed_unitary(U)


@dataclass(frozen=True)
class ProbeSet:
    """Probe polynomials held as their values on the spectrum of H.

    ``values[r, k]`` is R_r(lambda_k) at the ascending eigenvalues, read-only. Refused: a value
    array that is not 2-d or is empty (DimensionMismatch), a NaN or inf value, and a row that is
    zero on the whole spectrum (InvariantViolation): its probe state would be 0 for every psi.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _finite(self.values)
        if values.ndim != 2 or not values.size:
            raise DimensionMismatch(f"need a non-empty 2-d value array, got shape {values.shape}")
        zero = np.flatnonzero(~values.any(axis=1))
        if len(zero):
            raise InvariantViolation(f"probe {zero[0]} is zero on the whole spectrum")
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


def fingerprint(H: HermitianOp, psi: StateVec, Ts: Sequence[Tps], probes: ProbeSet) -> np.ndarray:
    """Entropies (structures, probes, sites), read-only, of the normalized probe states
    R(H)|psi> seen through each structure of Ts.

    The structures, at least one, must share one ``Dims``; the probe states are formed once
    and one ``site_entropies`` call reads them in every structure. H and psi must meet
    ``check_spectral_hypotheses``. Each row of values is first scaled by the exact power of two
    that brings its largest real or imaginary part into [0.5, 1), so every probe state has norm
    at least min |c| / 2 before it is normalized, whatever the scale of the row, and the
    normalized state is the one the unscaled row gives.
    """
    c = check_spectral_hypotheses(H, psi)
    if probes.values.shape[1] != H.dim:
        raise DimensionMismatch(f"probe values of length {probes.values.shape[1]} != dim {H.dim}")
    values = _scaled(probes.values, axis=1)[0]
    values /= np.linalg.norm(values * c, axis=1)[:, None]
    return _frozen(_eigen_entropies(H, Ts, c, values), float)  # checks Ts and H


def fingerprints_equal(f1: np.ndarray, f2: np.ndarray, tol: float = FINGERPRINT_TOL) -> bool:
    """Do two (probes, sites) fingerprints agree entrywise within tol (finite and positive)?"""
    return fingerprint_distance(f1, f2) <= _tol(tol)


def fingerprint_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    """Largest entrywise difference of two (probes, sites) fingerprints; IncomparableFingerprints
    when their shapes differ."""
    if f1.shape != f2.shape:
        raise IncomparableFingerprints(f"entry shapes differ: {f1.shape} vs {f2.shape}")
    return float(np.abs(f1 - f2).max())


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

