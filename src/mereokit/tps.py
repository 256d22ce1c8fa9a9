"""Tensor product structures and the decision procedure for their equivalence.

A ``Tps`` holds one representative isomorphism from the abstract space onto the canonical
product space, as a D x D unitary in the canonical basis. Two representatives describe the same
structure when they differ by single-site unitaries and permutations of equal-dimension factors;
``equivalent`` decides this from the impurity of the realignment Gram of every (output slot, input
factor) pair, which pins the permutation, and one Kronecker residual of the matched Grams' top
eigenvectors (the rearrangement view of Van Loan and Pitsianis, 1993), as ``is_product_operator``
does; neither takes an SVD. Read as one state on factors + factors, W's realignment Gram across
(slot j, factor i) is its ``hilbert._marginals`` on (j, n + i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import PURE_TOL, Dims, HermitianOp, StateVec, UnitaryOp, _from_pairs, _impurity, _marginals, _mat
from .hilbert import _scaled, _to_pairs, _unit, _vec, haar_state, haar_unitary, kron_all, site_entropies

# relative to ||W||_F: a product fit zP is accepted iff ||zP - W||_F <= c PRODUCT_RTOL ||W||_F, c = 2
PRODUCT_RTOL = 1e-8


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
    t, n, bufs = mat.reshape((1,) + dims.factors * 2), dims.n, {}  # a state on factors + factors
    grams = [_marginals(t, ((i, n + i),), bufs)[0, 0] for i in range(n)]
    return _product_certificate(grams, mat, dims, range(n), exp)


def equivalent(T1: Tps, T2: Tps) -> bool:
    """Do two representatives define the same structure? ``_equivalence_certificate`` decides."""
    return _equivalence_certificate(T1, T2) is not None


def _equivalence_certificate(T1: Tps, T2: Tps) -> Optional[ProductOpCertificate]:
    """Certificate that P_sigma . W is a product operator for an admissible factor permutation
    sigma, W = T1.iso . T2.iso^{-1}; None when there is none.

    Factor i goes to the equal-dimension output slot whose realignment Gram of W across (slot,
    factor i) has the least ``_impurity``: 0 at sigma(i) and 1 - 1 / d^2 elsewhere for W = P_sigma^T
    (x)U_i. Slot i is read first and taken when free with impurity at most ``PURE_TOL``: a unitary W
    has at most one slot per factor that close to rank one. Else the other slots are read. The
    matched Grams are P_sigma . W's own across (i, i); ``_product_certificate`` decides from them. A
    least impurity above ``PURE_TOL`` ends it with None at once: a product fit within 2 PRODUCT_RTOL
    leaves its slot an impurity of at most about 2 (d^2 - 1)(2 PRODUCT_RTOL)^2 << PURE_TOL, and the
    Gram's rounding, at most (D / d)^2 eps, is far below it too."""
    if T1.dims != T2.dims:
        raise DimensionMismatch(f"factor dimensions differ: {T1.dims} vs {T2.dims}")
    f, n = T1.dims.factors, T1.dims.n
    W = T1.iso.mat @ T2.iso.mat.conj().T
    t, sigma, grams, bufs = W.reshape((1,) + f * 2), [], [], {}
    for i, d in enumerate(f):
        others = [j for j in range(n) if f[j] == d and j != i]
        for slots in ([i], others) if others else ([i],):  # its own slot first, then the rest
            G = _marginals(t, tuple((j, n + i) for j in slots), bufs)[:, 0]
            impurity = _impurity(G)
            k = int(np.argmin(impurity))
            if impurity[k] <= PURE_TOL and slots[k] not in sigma:
                break
        else:  # entangled, or sigma no permutation
            return None
        sigma.append(slots[k])
        grams.append(G[k])
    return _product_certificate(grams, W[_perm_index(f, tuple(sigma))], T1.dims, sigma)


def product_state_in(T: Tps, site_vectors) -> StateVec:
    """State of the abstract space that is the given pure tensor in T; each site vector
    (nonzero and finite) is normalised before the product, which then cannot overflow. One vector
    of d_i entries per factor, else DimensionMismatch."""
    kets = [_vec(v) for v in site_vectors]
    if len(kets) != T.dims.n:
        raise DimensionMismatch(f"{len(kets)} site vectors for {T.dims.n} factors")
    for i, (k, d) in enumerate(zip(kets, T.dims.factors)):
        if k.shape != (d,):
            raise DimensionMismatch(f"site {i} vector has shape {k.shape}, its factor dimension is {d}")
    return StateVec(T.iso.mat.conj().T @ kron_all([_unit(k) for k in kets]))


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
