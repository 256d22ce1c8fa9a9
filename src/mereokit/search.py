"""Search for structures that make a Hamiltonian (approximately) K-local, from its spectrum.

H has a K-local structure exactly when some K-local operator L has its eigenvalues (Cotler,
Penington, Ranard, "Locality from the Spectrum", arXiv:1702.06142). For K = 1 the spectrum is
factored into site spectra (``_site_spectra``); for K >= 2 Levenberg-Marquardt matches it with
the ascending eigenvalues of L(x) over the real weight-1..K coefficients x, reading the
Hellmann-Feynman Jacobian from reduced density matrices (``_spectral_jacobian``); at small D, L(x)
and the Jacobian are one product each with a cached dense map of the basis operators. Then
V = W U^dag, W and U the eigenvectors of L and H, maps H onto L up to the remaining mismatch. The
residual (``objective``) is the K-local residual of H in V as ``is_k_local`` reads it, so
``converged`` and ``certify`` threshold one number.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch
from .hilbert import Dims, HermitianOp, UnitaryOp, _formed_unitary, _marginals, _tol
from .basis import coeff_tensor, klocal_mask, matrix_from_coeffs, weight_masses, weight_tensor
from .locality import _masses, is_k_local, k_local_residual
from .tps import Tps
from .rng import stream as rng_stream

_GRAD_TOL = 1e-9  # the spectrum match stops once |grad f| <= _GRAD_TOL * |lam - mean lam|
# the spectrum match's Levenberg-Marquardt (K >= 2); damping is in units of tr(J J^T) / D
_DAMP_INIT = 1e-3  # damping of the first step
_DAMP_UP = 10.0  # multiply the damping by this after a rejected trial step
# divide it by this after an accepted one; lowered less than raised, because with 10 both ways
# it bounced between two values at (2,)x8, one rejected and one accepted trial per iteration
_DAMP_DOWN = 3.0
_DAMP_FLOOR = 1e-12  # the damping never falls below this, so J J^T + damp I stays invertible
_MAX_REJECTIONS = 10  # trial steps per iteration; when all are rejected the match stops
# below this D^3 P (D the total dim, P the weight-1..K coefficient count) the match assembles L(x)
# and J through the dense basis map (``_basis_map``), above it from the coefficients and the
# marginals, whose memory and cost grow slower: the map holds 2 D^2 P floats and its Jacobian
# takes 4 D^3 P flops, where the marginals take D^2 prod(d_S) per support. Jacobian ms, marginal
# -> dense, medians of 300 calls on one OpenBLAS thread (2-vCPU Xeon VM), and the number of 10
# alternations in which the dense one was faster (BENCH_40.json):
#   (2,2,2) K=2    1.8e4  0.065 -> 0.012  10      (2,2,2,2) K=3  7.1e5  0.231 -> 0.189  10
#   (2,2,3) K=2    1.2e5  0.084 -> 0.026  10      (3,5) K=2      7.6e5  0.149 -> 0.197   0
#   (2,2,2,2) K=2  2.7e5  0.125 -> 0.048  10      (2,3,3) K=2    7.6e5  0.129 -> 0.135   5
#   (2,2,4) K=2    4.9e5  0.162 -> 0.071  10      (4,4) K=2      1.0e6  0.146 -> 0.187   0
#   (2,7) K=2      5.4e5  0.122 -> 0.106  10      (2,)*5 K=2     3.4e6  0.397 -> 0.681   0
_DENSE_MAX = 7.5e5


@dataclass(frozen=True)
class SearchConfig:
    K: int
    restarts: int = 8
    max_iters: int = 500
    success_residual: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.K < 1 or self.restarts < 1 or self.max_iters < 1:
            raise DimensionMismatch("K, restarts and max_iters must be positive")
        _tol(self.success_residual, "success_residual")


@dataclass(frozen=True)
class SearchResult:
    tps: Tps
    residual: float
    iterations: int
    trace: tuple[tuple[int, float], ...]
    converged: bool
    restart_residuals: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": [[i, r] for i, r in self.trace],
            "tps_dims": list(self.tps.dims.factors),
        }


def objective(H: HermitianOp, V: UnitaryOp, K: int, dims: Dims) -> float:
    """The K-local residual of H in the structure V, from the masses ``is_k_local`` reads."""
    return k_local_residual(_masses(H, Tps(dims, V)), K)


def _spectral_point(x: np.ndarray, c: np.ndarray, mask: np.ndarray, lam: np.ndarray, dims: Dims,
                    B: np.ndarray | None = None):
    """(f, W, mu - lam) at x; ``c`` holds the fixed weight-0 coefficient c_0. Without B, c takes x
    on the mask and ``matrix_from_coeffs`` assembles L(x); with the basis map B of the mask
    (``_basis_map``), L(x) = B x + c_0 I / sqrt(D), one matrix-vector product."""
    if B is None:
        c[mask] = x
        L = matrix_from_coeffs(c, dims)
    else:
        D = dims.total
        L = B @ x
        L[:: 2 * D + 2] += c.flat[0] / math.sqrt(D)  # the real part of each diagonal entry
        L = L.view(complex).reshape(D, D)
    mu, W = np.linalg.eigh(L)
    r = mu - lam
    return float(r @ r), W, r


@lru_cache(maxsize=None)
def _supports(factors: tuple[int, ...], K: int):
    """The K-site supports S, grouped by their factor dims, and the index maps of their expansions.

    Each group is (dims of S, the supports with those dims). Stacked group by
    group, the supports' expansions have one column per local multi-index; ``cols`` picks the
    column each mask coefficient is read from, in mask order, and ``scales`` its factor
    prod_{m not in S} d_m^-1/2. A coefficient of weight below K lies in several supports and is
    read from the first."""
    n, mask = len(factors), klocal_mask(factors, K)
    P = int(mask.sum())
    position = np.full(mask.shape, -1)  # mask-order position of every multi-index, -1 off the mask
    position[mask] = np.arange(P)
    by_dims: dict[tuple[int, ...], list] = {}
    for S in combinations(range(n), K):
        by_dims.setdefault(tuple(factors[i] for i in S), []).append(S)
    cols, scales, offset = np.full(P, -1), np.empty(P), 0
    for fS, supports in by_dims.items():
        local = np.indices(tuple(d * d for d in fS)).reshape(K, -1)
        for S in supports:
            full = np.zeros((n, local.shape[1]), dtype=np.int64)
            full[list(S)] = local
            a = position[tuple(full)]
            new = (a >= 0) & (cols[a] < 0)
            cols[a[new]] = offset + np.flatnonzero(new)
            scales[a[new]] = math.sqrt(math.prod(fS) / math.prod(factors))
            offset += local.shape[1]
    cols.setflags(write=False)  # cached, so shared by every caller
    scales.setflags(write=False)
    return tuple((fS, tuple(supports)) for fS, supports in by_dims.items()), cols, scales


@lru_cache(maxsize=None)
def _basis_map(factors: tuple[int, ...], K: int) -> np.ndarray:
    """The weight-1..K product-basis operators B_a as one read-only (2 D^2, P) map, in mask order.

    Column a is B_a flattened row-major, each entry's real and imaginary parts in turn, as
    ``ndarray.view(float)`` lays out a complex array: B x is L(x) - c_0 I / sqrt(D) as floats, and
    for a complex (D, D^2) N, N.view(float) @ B = Re(conj(N) B). It is ``matrix_from_coeffs`` of
    the P unit coefficient tensors, one batch."""
    mask = klocal_mask(factors, K)
    P = int(mask.sum())
    unit = np.zeros((P,) + mask.shape)
    unit.reshape(P, -1)[np.arange(P), np.flatnonzero(mask)] = 1.0
    B = np.ascontiguousarray(matrix_from_coeffs(unit, Dims(factors)).reshape(P, -1).view(float).T)
    B.setflags(write=False)  # cached, so shared by every caller
    return B


def _dense_map(dims: Dims, K: int) -> np.ndarray | None:
    """``_basis_map`` where assembling L(x) and J through it is the faster path, else None."""
    P = int(klocal_mask(dims.factors, K).sum())
    return _basis_map(dims.factors, K) if dims.total ** 3 * P < _DENSE_MAX else None


def _spectral_jacobian(W: np.ndarray, dims: Dims, K: int, B: np.ndarray | None = None) -> np.ndarray:
    """J[k, a] = <w_k|B_a|w_k> over the weight-1..K coefficients a, in mask order.

    With the basis map B (``_basis_map``), J = Re(M B), M[k] = conj(w_k) (x) w_k flattened: one
    product of D x 2 D^2 by 2 D^2 x P. Without it, per dims group of K-site supports S, one
    ``_marginals`` call gives the reduced density matrices rho_S of every eigenvector w_k, and one
    ``coeff_tensor`` call expands them:
    <w_k|B_a|w_k> is tr(b_a rho_S) prod_{m not in S} d_m^-1/2, B_a = b_a on S and I / sqrt(d_m)
    off it. The cost is D^2 prod(d_S) per support, not the D^3 sum(d_i^2) of D projectors."""
    f, D = dims.factors, dims.total
    if B is not None:
        conj_M = np.multiply(W.T[:, :, None], W.T.conj()[:, None, :], order="C").reshape(D, -1)
        return conj_M.view(float) @ B
    groups, cols, scales = _supports(f, K)
    psi = W.T.reshape((D,) + f)  # psi[k] is w_k as a tensor
    blocks = []
    for fS, supports in groups:
        c = coeff_tensor(_marginals(psi, supports), Dims(fS)).reshape(len(supports), D, -1)
        blocks.append(c.transpose(1, 0, 2).reshape(D, -1))
    return np.concatenate(blocks, axis=1).real.take(cols, axis=1) * scales


def _levenberg_marquardt(x: np.ndarray, c: np.ndarray, mask: np.ndarray, lam: np.ndarray,
                         dims: Dims, K: int, max_iters: int) -> np.ndarray:
    """Eigenvectors of L(x) after Levenberg-Marquardt on the residuals mu(x) - lam from x.

    The step solves min |r - J s|^2 + damp |s|^2 in its D x D form, s = J^T (J J^T + damp I)^-1 r,
    since there are at least D - 1 parameters. J J^T is singular: its rows sum to tr B_a = 0, and a
    degenerate L(x) drops more rank, so damp never falls below _DAMP_FLOOR tr(J J^T) / D."""
    B = _dense_map(dims, K)
    f, W, r = _spectral_point(x, c, mask, lam, dims, B)
    tol = _GRAD_TOL * float(np.linalg.norm(lam - lam.mean()))
    eye = np.eye(dims.total)
    damp = _DAMP_INIT  # in units of tr(J J^T) / D
    for _ in range(max_iters):
        J = _spectral_jacobian(W, dims, K, B)
        if np.linalg.norm(2.0 * (r @ J)) <= tol:  # |grad f|, f = |r|^2
            break
        JJ = J @ J.T
        unit = np.trace(JJ) / dims.total
        for _ in range(_MAX_REJECTIONS):
            xn = x - J.T @ np.linalg.solve(JJ + damp * unit * eye, r)
            fn, Wn, rn = _spectral_point(xn, c, mask, lam, dims, B)
            if fn < f:
                damp = max(damp / _DAMP_DOWN, _DAMP_FLOOR)
                break
            damp *= _DAMP_UP
        else:  # every trial step rejected: f is at its floor along J
            break
        x, f, W, r = xn, fn, Wn, rn
    return W


def _site_spectra(lam: np.ndarray, factors: tuple[int, ...], delta: float):
    """Site spectra A_i, |A_i| = factors[i], whose sum set A_1 + ... + A_n matches the ascending
    lam - lam[0] value by value within delta; None when there are none.

    Site by site, the multiset T left to explain (at first lam - lam[0]) splits into A + R with
    |A| the site's dim and min A = min R = 0, and R goes on to the next site. A split walks T
    upwards: each value matches the least pending sum a + r within delta, or else it is the next
    value of A or of R and pends its sums with the other side's values. Matches are taken
    greedily, and only A-or-R branches, depth first on an explicit stack, since recursing per
    value would go about D deep. An exact sum set splits off every site, so the sites are taken
    in order; branching over them as well changed no verdict on mixed-dim near-threshold inputs.
    """
    stack = [((), (lam - lam[0]).tolist(), 1, (0.0,), (0.0,), [])]
    while stack:
        peeled, T, i, A, R, pending = stack.pop()
        d = factors[len(peeled)]
        while i < len(T):
            t = T[i]
            if pending and pending[0] < t - delta:  # a pending sum that no later value can match
                break
            if pending and pending[0] <= t + delta:
                heapq.heappop(pending)
            else:  # t is the next value of A, or else of R, which the stack tries later
                if len(R) < len(T) // d:
                    other = pending + [a + t for a in A[1:]]
                    heapq.heapify(other)
                    stack.append((peeled, T, i + 1, A, R + (t,), other))
                if len(A) == d:
                    break
                for r in R[1:]:
                    heapq.heappush(pending, t + r)
                A += (t,)
            i += 1
        else:  # T = A + R
            if len(peeled) == len(factors) - 2:
                return peeled + (A, R)
            stack.append((peeled + (A,), list(R), 1, (0.0,), (0.0,), []))
    return None


def _factored_frame(lam: np.ndarray, U: np.ndarray, dims: Dims, delta: float) -> np.ndarray:
    """V = W U^dag for a factoring of lam within delta, W the permutation that sorts the diagonal
    of L = sum_i diag(A_i) on site i; the given frame I when there is none."""
    spectra = _site_spectra(lam, dims.factors, delta)
    if spectra is None:
        return np.eye(dims.total)
    L = sum(np.reshape(A, (-1,) + (1,) * (dims.n - 1 - i)) for i, A in enumerate(spectra))
    V = np.empty_like(U)
    V[np.argsort(L, axis=None, kind="stable")] = U.conj().T  # V u_k = e_j, L_j the k-th lowest
    return V


def search(H: HermitianOp, dims: Dims, cfg: SearchConfig) -> SearchResult:
    """Best structure over restarts: spectrum factorings for K = 1, matches for K >= 2.

    For K = 1 each restart factors the spectrum (``_site_spectra``) at one tolerance delta, in
    units of u = sqrt(s M / D), s = ``success_residual`` and M = |lam - mean lam|^2. When every
    eigenvalue lies within u of its match in L, H has mass at most D u^2 = s M above weight 1 in
    V, so every match certifies. A match reads a value t against a pending sum a + r, and the
    errors of t, a, r and lam[0] add, so near-threshold inputs can need a few u: the restarts
    try u, 4 u and 2 sqrt(D) u. The last is what any certifying factoring needs: its spectrum
    is within sqrt(s M) of lam (Hoffman-Wielandt), so four errors add to at most 2 sqrt(s M).
    The narrower tries stay because a wide window takes wrong greedy matches at large D.
    A tolerance with no factoring gives the given frame (V = I); ``restarts`` and
    ``max_iters`` do not apply.

    For K >= 2 each restart matches the eigenvalues of a K-local L(x) to those of H by
    Levenberg-Marquardt over its weight-1..K coefficients x, weight 0 fixed by tr H, until
    |grad f| <= _GRAD_TOL |lam - mean lam|, no trial step lowers f, or ``max_iters`` iterations.
    Restart 0 starts from the coefficients of H in the given frame, so an already K-local H
    starts at zero mismatch; restart r >= 1 from a Gaussian x on sub-stream r of the seed,
    scaled to the HS norm of H - tr H / D. Every restart runs.

    ``restart_residuals`` holds each restart's residual, evaluated once at V = W U^dag (W, U the
    eigenvectors of L and H). The winner is the (residual, restart index) minimum; its residual
    is the one point (0, residual) of ``trace``, so ``iterations`` is 0. It is *a* K-local
    structure, not *the* one: distinct restarts may certify inequivalent structures.
    """
    if H.dim != dims.total:
        raise DimensionMismatch(f"operator dim {H.dim} != product dim {dims.total}")
    if cfg.K > dims.n:
        raise DimensionMismatch(f"K={cfg.K} exceeds n={dims.n}")
    lam, U = H.eig
    coeffs = coeff_tensor(H.mat, dims).real
    weight_masses(coeffs, dims.factors)  # refuses an H out of float64 range before any norm of it
    mask = klocal_mask(dims.factors, cfg.K)
    c = np.where(weight_tensor(dims.factors) == 0, coeffs, 0.0)
    scale = float(np.linalg.norm(lam - lam.mean()))  # = |H - tr H / D|_HS
    u = scale * math.sqrt(cfg.success_residual / dims.total)  # K = 1 tolerances, see above
    deltas = (u, 4 * u, 2 * math.sqrt(dims.total) * u)
    best, residuals = None, []
    for r in range(len(deltas) if cfg.K == 1 else cfg.restarts):
        if cfg.K == 1:
            V = _formed_unitary(_factored_frame(lam, U, dims, deltas[r]))
        else:
            if r == 0:
                x0 = coeffs[mask]
            else:
                x0 = rng_stream(cfg.seed, r).standard_normal(int(mask.sum()))
                x0 *= scale / np.linalg.norm(x0)
            W = _levenberg_marquardt(x0, c, mask, lam, dims, cfg.K, cfg.max_iters)
            V = _formed_unitary(W @ U.conj().T)
        residuals.append(objective(H, V, cfg.K, dims))
        if best is None or residuals[-1] < residuals[best[0]]:
            best = (r, V)
    r, V = best
    return SearchResult(
        tps=Tps(dims, V),
        residual=residuals[r],
        iterations=0,
        trace=((0, residuals[r]),),
        converged=residuals[r] <= cfg.success_residual,
        restart_residuals=tuple(residuals),
    )


def certify(H: HermitianOp, result: SearchResult, K: int, tol: float) -> bool:
    """True iff the residual ``converged`` thresholds, recomputed from H and result.tps, is <= tol."""
    return is_k_local(H, result.tps, K, tol)
