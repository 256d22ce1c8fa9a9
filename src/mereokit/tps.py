"""Tensor product structures and the decision procedure for their equivalence.

A ``Tps`` holds one representative isomorphism from the abstract space onto
the canonical product space, as a D x D unitary in the canonical basis. Two
representatives describe the same structure when they differ by single-site
unitaries and permutations of equal-dimension factors; ``equivalent``
decides this from the operator Schmidt spectra (Gram eigenvalues) of every
(output slot, input factor) pair, which pin the permutation, and one Kronecker residual
of the matched Grams' top eigenvectors (the rearrangement view of Van Loan and Pitsianis,
1993), as ``is_product_operator`` does; neither takes an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import Dims, HermitianOp, StateVec, UnitaryOp, _mat, _vec, haar_state, haar_unitary
from .hilbert import _from_pairs, _scaled, _to_pairs, _unit, kron_all, site_entropies

PRODUCT_RTOL = 1e-8  # a product fit zP is accepted iff ||zP - W||_F <= c PRODUCT_RTOL ||W||_F, c = 2
ENTANGLED_RATIO = 1e-6  # a factor whose least slot Gram ratio lam_2 / lam_1 exceeds this is entangled


@dataclass(frozen=True)
class Tps:
    dims: Dims
    iso: UnitaryOp

    def __post_init__(self):
        if self.iso.dim != self.dims.total:
            raise DimensionMismatch(f"iso dim {self.iso.dim} != product dim {self.dims.total}")


@dataclass(frozen=True)
class ProductOpCertificate:
    """Witness that an operator is a product of single-factor operators: ``kron(factors)`` composed
    with the factor permutation reproduces it, any global phase folded into ``factors[0]``."""

    factors: tuple[np.ndarray, ...]
    permutation: tuple[int, ...]

    def assemble(self) -> np.ndarray:
        return perm_matrix(tuple(f.shape[0] for f in self.factors), self.permutation).T @ kron_all(self.factors)


def _eigen_entropies(H: HermitianOp, Ts, c, f, sites=None) -> np.ndarray:
    """Site entropies (len(Ts), k, sites) in every structure of Ts of the states V (f * c), V the
    eigenvectors of H, formed once in one (k, D) matrix product and read through the stacked
    isomorphisms by one ``site_entropies`` call, at ``sites`` (all by default). Amplitudes ``c`` and
    per-eigenvalue multipliers ``f`` broadcast to (..., D), k states. Ts must be non-empty, share the
    dims of the first and match H's dim, else DimensionMismatch; one structure is a stack of 1."""
    if not Ts:
        raise DimensionMismatch("no structures to read the states in")
    dims = Ts[0].dims
    if any(T.dims != dims for T in Ts):
        raise DimensionMismatch(f"structures of differing dims: {[T.dims.factors for T in Ts]}")
    if H.dim != dims.total:
        raise DimensionMismatch(f"operator dim {H.dim} != product dim {dims.total}")
    isos = np.stack([T.iso.mat for T in Ts]).swapaxes(-1, -2)  # each T.iso.mat.T, as a view
    return site_entropies(((f * c).reshape(-1, dims.total) @ H.eig[1].T) @ isos, dims, sites)


def canonical(dims: Dims) -> Tps:
    return Tps(dims, UnitaryOp(np.eye(dims.total)))


def act(U: UnitaryOp, T: Tps) -> Tps:
    """Push a TPS along a unitary of the abstract space: the new representative is iso . U^dag, so
    an operator H seen through the new structure looks exactly like U H U^dag through the old one."""
    if U.dim != T.dims.total:
        raise DimensionMismatch(f"unitary dim {U.dim} != product dim {T.dims.total}")
    return Tps(T.dims, UnitaryOp(T.iso.mat @ U.mat.conj().T))


def random_tps(dims: Dims, stream: np.random.Generator) -> Tps:
    return Tps(dims, haar_unitary(dims.total, stream))


@lru_cache
def _perm_index(factors: tuple[int, ...], sigma: tuple[int, ...]) -> np.ndarray:
    """Rows idx with ``perm_matrix(factors, sigma) @ W == W[idx]``, read-only and cached per
    (factors, sigma), both tuples; refuses what perm_matrix refuses."""
    if sorted(sigma) != list(range(len(factors))):
        raise DimensionMismatch(f"{sigma} is not a permutation")
    if any(factors[sigma[j]] != factors[j] for j in range(len(factors))):
        raise DimensionMismatch(f"{sigma} permutes unequal factor dimensions {factors}")
    digits = np.unravel_index(np.arange(int(np.prod(factors))), factors)
    idx = np.ravel_multi_index(tuple(digits[j] for j in np.argsort(sigma)), factors)
    idx.setflags(write=False)
    return idx


def perm_matrix(factors: tuple[int, ...], sigma: tuple[int, ...]) -> np.ndarray:
    """Permutation unitary sending input factor sigma[j] to slot j (equal dimensions only)."""
    return np.eye(int(np.prod(factors)))[_perm_index(tuple(factors), tuple(sigma))]


@lru_cache
def _realign_order(n: int, i: int, j: int) -> tuple[int, ...]:
    """Axis order of ``_single_factor_realign`` on n factors across slot j, factor i."""
    return (j, n + i) + tuple(a for a in range(n) if a != j) + tuple(n + a for a in range(n) if a != i)


def _single_factor_realign(mat: np.ndarray, factors: tuple[int, ...], i: int, j=None, out=None) -> np.ndarray:
    """(d_i^2, (D/d_i)^2) realignment of a D x D operator across slot j (default i), factor i; into ``out`` if given."""
    t = np.transpose(mat.reshape(factors + factors), _realign_order(len(factors), i, i if j is None else j))
    if out is None:
        return t.reshape(factors[i] ** 2, -1)
    out.reshape(t.shape)[...] = t
    return out


def _slot_grams(mat: np.ndarray, factors: tuple[int, ...], i: int, slots, bufs: dict) -> np.ndarray:
    """Grams R R^dag, stacked over ``slots``, of mat's realignments R across (slot j, factor i); R and
    its conjugate go to buffers kept in ``bufs`` by d_i, so no later call allocates them afresh."""
    d = factors[i]
    if d not in bufs:
        bufs[d] = np.empty((2, len(slots), d * d, mat.size // (d * d)), complex)
    R, Rc = bufs[d]
    for k, j in enumerate(slots):
        _single_factor_realign(mat, factors, i, j, R[k])
    return R @ np.conjugate(R, out=Rc).swapaxes(-1, -2)


def _product_certificate(grams, mat: np.ndarray, dims: Dims, permutation, exp: int = 0):
    """Certificate that 2^exp mat (nonzero) is z P, P the kron of the sqrt(d_i) v_i, v_i the top
    eigenvector of grams[i] (one ``eigh`` per factor dimension) as a d_i x d_i matrix, z = <P, mat> /
    <P, P> folded into ``factors[0]``; None unless ||z P - mat||_F <= c PRODUCT_RTOL ||mat||_F, c = 2:
    zP is rank one across every single-factor cut, so the residual is at least each cut's s_1 / s_0
    (Eckart-Young), and it reads 1.3-2.4 times the largest on planted (x)U_i e^{-i eps G} (~1e-15 at
    eps = 0); so verdicts equal a largest-s_1 / s_0 <= PRODUCT_RTOL test's outside [0.8, 2] PRODUCT_RTOL."""
    factors = [None] * dims.n
    for d in set(dims.factors):
        idx = [i for i, e in enumerate(dims.factors) if e == d]
        for i, v in zip(idx, np.linalg.eigh(np.stack([grams[i] for i in idx]))[1][..., -1]):
            factors[i] = np.sqrt(d) * v.reshape(d, d)
    P = kron_all(factors)
    z = np.vdot(P, mat) / np.vdot(P, P)
    if not np.linalg.norm(z * P - mat) <= 2 * PRODUCT_RTOL * np.linalg.norm(mat):
        return None
    factors[0] = np.ldexp((factors[0] * z).view(float), exp).view(complex)
    return ProductOpCertificate(tuple(factors), tuple(permutation))


def is_product_operator(W, dims: Dims) -> Optional[ProductOpCertificate]:
    """Certificate that W is a phase times a product of single-factor operators, else None (also for
    W = 0): ``_product_certificate`` of the (i, i) Grams of W ``_scaled``; NaN or inf: InvariantViolation."""
    mat, exp = _scaled(_mat(W))
    if mat.shape != (dims.total, dims.total):
        raise DimensionMismatch(f"operator shape {mat.shape} != dim {dims.total}")
    if not mat.any():
        return None
    bufs = {}
    grams = [_slot_grams(mat, dims.factors, i, [i], bufs)[0] for i in range(dims.n)]
    return _product_certificate(grams, mat, dims, range(dims.n), exp)


def equivalent(T1: Tps, T2: Tps) -> bool:
    """Do two representatives define the same structure? ``_equivalence_certificate`` decides."""
    return _equivalence_certificate(T1, T2) is not None


def _equivalence_certificate(T1: Tps, T2: Tps) -> Optional[ProductOpCertificate]:
    """Certificate that P_sigma . W is a product operator for an admissible factor permutation
    sigma, W = T1.iso . T2.iso^{-1}; None when there is none.

    Factor i goes to the equal-dimension output slot whose realignment R of W across (slot, factor
    i) has the least ratio lam_2 / lam_1 of the two largest eigenvalues of its Gram R R^dag, by one
    ``eigvalsh`` over the slots: for W = P_sigma^T (x)U_i it is 0 at sigma(i) and 1 elsewhere, so the
    argmin needs no tolerance. The matched Grams are P_sigma . W's own across (i, i) (R with columns
    permuted); ``_product_certificate`` decides from them. A least ratio above ``ENTANGLED_RATIO`` =
    1e-6 (s_1 / s_0 > 1e-3 in every slot, beyond the Gram's rounding of at most (D / d)^2 eps lam_1)
    ends it with None at once, as any product's residual is then above 1e-3 / d_i >> 2 PRODUCT_RTOL."""
    if T1.dims != T2.dims:
        raise DimensionMismatch(f"factor dimensions differ: {T1.dims} vs {T2.dims}")
    f = T1.dims.factors
    W = T1.iso.mat @ T2.iso.mat.conj().T
    sigma, grams, bufs = [], [], {}
    for i, d in enumerate(f):
        slots = [j for j in range(len(f)) if f[j] == d]
        G = _slot_grams(W, f, i, slots, bufs)
        lam = np.linalg.eigvalsh(G)  # squared singular values
        ratios = lam[:, -2] / lam[:, -1]
        k = int(np.argmin(ratios))
        if ratios[k] > ENTANGLED_RATIO or slots[k] in sigma:  # entangled, or sigma no permutation
            return None
        sigma.append(slots[k])
        grams.append(G[k])
    return _product_certificate(grams, W[_perm_index(f, tuple(sigma))], T1.dims, sigma)


def product_state_in(T: Tps, site_vectors) -> StateVec:
    """State of the abstract space that is the given pure tensor in T; each site vector
    (nonzero and finite) is normalised before the product, which then cannot overflow."""
    return StateVec(T.iso.mat.conj().T @ kron_all([_unit(_vec(v)) for v in site_vectors]))


def random_product_probe(T: Tps, stream: np.random.Generator) -> StateVec:
    """Random product state in T, one Haar-uniform ket per factor."""
    return product_state_in(T, [haar_state(d, stream).vec for d in T.dims.factors])


def tps_to_json(T: Tps) -> dict:
    return {"dims": list(T.dims.factors), "iso": _to_pairs(T.iso.mat)}


def tps_from_json(obj: dict) -> Tps:
    dims = Dims(tuple(obj["dims"]))
    iso = _from_pairs(obj["iso"])
    if iso.shape != (dims.total, dims.total):
        raise InvariantViolation(f"iso shape {iso.shape} inconsistent with dims {dims.factors}")
    return Tps(dims, UnitaryOp(iso))
