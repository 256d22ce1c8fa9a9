"""Tensor product structures and the decision procedure for their equivalence.

A ``Tps`` holds one representative isomorphism from the abstract space onto
the canonical product space, as a D x D unitary in the canonical basis. Two
representatives describe the same structure when they differ by single-site
unitaries and permutations of equal-dimension factors; ``equivalent``
decides this from the operator Schmidt spectra (Gram eigenvalues) of every
(output slot, input factor) pair, which pin the permutation, and one product test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import Dims, HermitianOp, StateVec, UnitaryOp, _mat, _vec, haar_state, haar_unitary
from .hilbert import _from_pairs, _to_pairs, _unit, kron_all, site_entropies

PRODUCT_RTOL = 1e-8  # relative second-singular-value threshold for product detection
ENTANGLED_RATIO = 1e-6  # a factor whose least slot Gram ratio lam_2 / lam_1 exceeds this is entangled


@dataclass(frozen=True)
class Tps:
    dims: Dims
    iso: UnitaryOp

    def __post_init__(self):
        if self.iso.dim != self.dims.total:
            raise DimensionMismatch(
                f"iso dim {self.iso.dim} != product dim {self.dims.total}"
            )


@dataclass(frozen=True)
class ProductOpCertificate:
    """Witness that an operator is a product of single-factor operators.

    ``kron(factors)`` composed with the factor permutation reproduces the
    certified operator, with any global phase folded into ``factors[0]``.
    """

    factors: tuple[np.ndarray, ...]
    permutation: tuple[int, ...]

    def assemble(self) -> np.ndarray:
        dims = Dims(tuple(f.shape[0] for f in self.factors))
        return perm_matrix(dims.factors, self.permutation).T @ kron_all(self.factors)


def _eigen_entropies(H: HermitianOp, Ts, c, f, sites=None) -> np.ndarray:
    """Site entropies (len(Ts), k, sites) in every structure of Ts of the states V (f * c), V the
    eigenvectors of H. The states are formed once, in one (k, D) matrix product, and read
    through the stacked isomorphisms by one ``site_entropies`` call, at ``sites`` (all by default);
    one structure is a stack of 1.

    Amplitudes ``c`` and per-eigenvalue multipliers ``f`` broadcast to (..., D), k states. Ts must be
    non-empty, every structure must share the dims of the first (they are read with them), and
    H must act on their product space, else DimensionMismatch.
    """
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
    """Push a TPS along a unitary of the abstract space.

    The new representative is iso . U^dag, so an operator H seen through the
    new structure looks exactly like U H U^dag seen through the old one.
    """
    if U.dim != T.dims.total:
        raise DimensionMismatch(f"unitary dim {U.dim} != product dim {T.dims.total}")
    return Tps(T.dims, UnitaryOp(T.iso.mat @ U.mat.conj().T))


def random_tps(dims: Dims, stream: np.random.Generator) -> Tps:
    return Tps(dims, haar_unitary(dims.total, stream))


def _perm_index(factors: tuple[int, ...], sigma: tuple[int, ...]) -> np.ndarray:
    """Rows idx with ``perm_matrix(factors, sigma) @ W == W[idx]``; refuses what perm_matrix refuses."""
    if sorted(sigma) != list(range(len(factors))):
        raise DimensionMismatch(f"{sigma} is not a permutation")
    if any(factors[sigma[j]] != factors[j] for j in range(len(factors))):
        raise DimensionMismatch(f"{sigma} permutes unequal factor dimensions {factors}")
    digits = np.unravel_index(np.arange(int(np.prod(factors))), factors)
    return np.ravel_multi_index(tuple(digits[j] for j in np.argsort(sigma)), factors)


def perm_matrix(factors: tuple[int, ...], sigma: tuple[int, ...]) -> np.ndarray:
    """Permutation unitary sending factor sigma[j] of the input to slot j.

    Only permutations between equal-dimension factors are admissible.
    """
    return np.eye(int(np.prod(factors)))[_perm_index(factors, sigma)]


def _single_factor_realign(mat: np.ndarray, factors: tuple[int, ...], i: int, j=None) -> np.ndarray:
    """Reshape a D x D operator into a (d_i^2, (D/d_i)^2) matrix across slot j (default i), factor i."""
    n = len(factors)
    j = i if j is None else j
    t = mat.reshape(factors + factors)
    order = [j, n + i] + [a for a in range(n) if a != j] + [n + a for a in range(n) if a != i]
    d = factors[i]
    return np.transpose(t, order).reshape(d * d, -1)


def is_product_operator(W, dims: Dims) -> Optional[ProductOpCertificate]:
    """Certificate that W equals a phase times a product of single-factor operators.

    Decision: across every single-factor-vs-rest bipartition the realigned
    operator must have relative second singular value below ``PRODUCT_RTOL``.
    Returns None for entangling operators. These are SVDs, not Gram eigenvalues:
    a Gram's eigenvalue ratio resolves s_1 / s_0 only down to sqrt(eps) ~ 1.5e-8.
    """
    mat = _mat(W)
    if mat.shape != (dims.total, dims.total):
        raise DimensionMismatch(f"operator shape {mat.shape} != dim {dims.total}")
    factors = []
    for i, d in enumerate(dims.factors):
        M = _single_factor_realign(mat, dims.factors, i)
        U, s, _ = np.linalg.svd(M, full_matrices=False)
        if s[0] == 0.0 or s[1] > PRODUCT_RTOL * s[0]:
            return None
        factors.append(U[:, 0].reshape(d, d) * np.sqrt(d))
    # pin scale and global phase on the first factor
    prod = kron_all(factors)
    z = np.vdot(prod, mat) / np.vdot(prod, prod)
    factors[0] = factors[0] * z
    residual = np.abs(kron_all(factors) - mat).max()
    if residual > 10 * PRODUCT_RTOL * (1.0 + np.abs(mat).max()):
        return None
    return ProductOpCertificate(tuple(factors), tuple(range(dims.n)))


def equivalent(T1: Tps, T2: Tps, with_certificate: bool = False):
    """Decide whether two representatives define the same structure.

    True iff some admissible factor permutation sigma makes P_sigma . W a product
    operator, W = T1.iso . T2.iso^{-1}. Factor i goes to the equal-dimension output slot
    whose realignment R of W across (slot, factor i) has the least ratio lam_2 / lam_1 of
    the two largest eigenvalues of R R^dag (its squared singular values), one ``eigvalsh``
    over the stack of slots: if W = P_sigma^T (x)U_i that ratio is 0 at sigma(i) and 1 at
    every other slot, so the argmin needs no tolerance. One product test then decides.

    A factor whose least ratio exceeds ``ENTANGLED_RATIO`` = 1e-6 ends the decision with
    False at once: there s_1 / s_0 > 1e-3, far above ``PRODUCT_RTOL``, in every slot, and the
    product test reads P_sigma . W across (i, i), which is R at slot sigma(i) with its rows
    permuted, so it refuses whatever sigma is chosen. The Gram's rounding, at most
    (D / d)^2 eps lam_1 (1.5e-11 lam_1 at D = 512), cannot move a ratio across that bound.
    P_sigma is applied as the exact row gather it is.
    """
    if T1.dims != T2.dims:
        raise DimensionMismatch(f"factor dimensions differ: {T1.dims} vs {T2.dims}")
    f = T1.dims.factors
    W = T1.iso.mat @ T2.iso.mat.conj().T
    sigma = []
    for i, d in enumerate(f):
        slots = [j for j in range(len(f)) if f[j] == d]
        R = np.stack([_single_factor_realign(W, f, i, j) for j in slots])
        lam = np.linalg.eigvalsh(R @ R.conj().swapaxes(-1, -2))  # squared singular values
        ratios = lam[:, -2] / lam[:, -1]
        if ratios.min() > ENTANGLED_RATIO:
            break  # sigma stays short, so no product test runs
        sigma.append(slots[int(np.argmin(ratios))])
    cert = None
    if len(set(sigma)) == len(f):
        cert = is_product_operator(W[_perm_index(f, tuple(sigma))], T1.dims)
    if cert is None:
        return (False, None) if with_certificate else False
    cert = ProductOpCertificate(cert.factors, tuple(sigma))
    return (True, cert) if with_certificate else True


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
