"""Search for structures that make a Hamiltonian (approximately) K-local,
by matching spectra.

H has a K-local structure exactly when some K-local operator L(x) has its
eigenvalues (Cotler, Penington, Ranard, "Locality from the Spectrum",
arXiv:1702.06142). The match runs over the real weight-1..K coefficients x
on the residuals r(x) = mu(x) - lam, mu the ascending eigenvalues of L(x) and
lam those of H. By Hellmann-Feynman d mu_k / d x_a = <w_k|B_a|w_k>, w_k the
eigenvectors of L(x). For K >= 2, Levenberg-Marquardt reads that Jacobian
from the reduced density matrices of the w_k on each K-site support. For
K = 1, L-BFGS minimises f = |r|^2 with the gradient 2 Re coeff_tensor(W
diag(r) W^dag), since LM loses K = 1 basins that L-BFGS finds. Then
V = W U^dag, U the eigenvectors of H, maps H onto L(x) up to the remaining
mismatch. The residual (``objective``) is the K-local residual of H in V as
``is_k_local`` reads it, so ``converged`` and ``certify`` threshold one number.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import Dims, HermitianOp, UnitaryOp
from .basis import _contract, coeff_tensor, matrix_from_coeffs, weight_masses, weight_tensor
from .locality import _profile, is_k_local, k_local_residual
from .tps import Tps
from .rng import stream as rng_stream

_GRAD_TOL = 1e-9  # the spectrum match stops once |grad f| <= _GRAD_TOL * |lam - mean lam|
# the spectrum match's L-BFGS (K = 1)
_STEP_INIT = 1.0  # first trial step of each line search
_ARMIJO_C = 1e-4  # accept a step once f falls by at least _ARMIJO_C * step * slope
_BACKTRACK_RATIO = 0.5  # else shrink the step by this factor, at most _MAX_BACKTRACKS times
_MAX_BACKTRACKS = 60
_LBFGS_HISTORY = 10  # (step, gradient change) pairs kept by the spectrum match
# the spectrum match's Levenberg-Marquardt (K >= 2); damping is in units of tr(J J^T) / D
_DAMP_INIT = 1e-3  # damping of the first step
_DAMP_UP = 10.0  # multiply the damping by this after a rejected trial step
# divide it by this after an accepted one; lowered less than raised, because with 10 both ways
# it bounced between two values at (2,)x8, one rejected and one accepted trial per iteration
_DAMP_DOWN = 3.0
_DAMP_FLOOR = 1e-12  # the damping never falls below this, so J J^T + damp I stays invertible
_MAX_REJECTIONS = 10  # trial steps per iteration; when all are rejected the match stops


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
        r = self.success_residual
        if not 0 < r < np.inf:  # also False for NaN
            raise DimensionMismatch(f"success_residual must be finite and positive, got {r!r}")


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
    return k_local_residual(_profile(H, Tps(dims, V)).w, K)


def _spectral_point(x: np.ndarray, c: np.ndarray, mask: np.ndarray, lam: np.ndarray, dims: Dims):
    """(f, W, mu - lam) at x; ``c`` holds the fixed weight-0 coefficient and takes x on the mask."""
    c[mask] = x
    mu, W = np.linalg.eigh(matrix_from_coeffs(c, dims))
    r = mu - lam
    return float(r @ r), W, r


def _spectral_gradient(W: np.ndarray, r: np.ndarray, mask: np.ndarray, dims: Dims) -> np.ndarray:
    # Hellmann-Feynman: d mu_k / d x_a = w_k^dag B_a w_k, so grad f = 2 Re <B_a, W diag(r) W^dag>
    return 2.0 * coeff_tensor((W * r) @ W.conj().T, dims)[mask].real


@lru_cache(maxsize=None)
def _supports(factors: tuple[int, ...], K: int):
    """The K-site supports S, grouped by their factor dims, and the index maps of their expansions.

    Each group is (dims of S, one axis order per support that puts S first). Stacked group by
    group, the supports' expansions have one column per local multi-index; ``cols`` picks the
    column each mask coefficient is read from, in mask order, and ``scales`` its factor
    prod_{m not in S} d_m^-1/2. A coefficient of weight below K lies in several supports and is
    read from the first."""
    n, weight = len(factors), weight_tensor(factors)
    mask = ((weight >= 1) & (weight <= K)).ravel()
    P = int(mask.sum())
    position = np.full(weight.size, -1)  # mask-order position of every multi-index, -1 off the mask
    position[mask] = np.arange(P)
    by_dims: dict[tuple[int, ...], list] = {}
    for S in combinations(range(n), K):
        by_dims.setdefault(tuple(factors[i] for i in S), []).append(S)
    groups, cols, scales, offset = [], np.full(P, -1), np.empty(P), 0
    for fS, supports in by_dims.items():
        local = np.indices(tuple(d * d for d in fS)).reshape(K, -1)
        for S in supports:
            full = np.zeros((n, local.shape[1]), dtype=np.int64)
            full[list(S)] = local
            a = position[np.ravel_multi_index(full, weight.shape)]
            new = (a >= 0) & (cols[a] < 0)
            cols[a[new]] = offset + np.flatnonzero(new)
            scales[a[new]] = math.sqrt(math.prod(fS) / math.prod(factors))
            offset += local.shape[1]
        axes = tuple((0,) + tuple(1 + i for i in S) + tuple(1 + i for i in range(n) if i not in S)
                     for S in supports)
        groups.append((fS, axes))
    cols.setflags(write=False)  # cached, so shared by every caller
    scales.setflags(write=False)
    return tuple(groups), cols, scales


def _spectral_jacobian(W: np.ndarray, dims: Dims, K: int) -> np.ndarray:
    """J[k, a] = <w_k|B_a|w_k> over the weight-1..K coefficients a, in mask order.

    Per K-site support S, one batched matmul gives the reduced density matrices rho_S of every
    eigenvector w_k, and the Gell-Mann site maps expand those of a group at once:
    <w_k|B_a|w_k> is tr(b_a rho_S) prod_{m not in S} d_m^-1/2, B_a = b_a on S and I / sqrt(d_m)
    off it. The cost is D^2 prod(d_S) per support, not the D^3 sum(d_i^2) of D projectors."""
    f, D = dims.factors, dims.total
    groups, cols, scales = _supports(f, K)
    psi = W.T.reshape((D,) + f)  # psi[k] is w_k as a tensor
    blocks = []
    for fS, axes in groups:
        dS = math.prod(fS)
        rho = np.empty((len(axes), D, dS, dS), dtype=complex)
        for s, ax in enumerate(axes):
            A = psi.transpose(ax).reshape(D, dS, -1)
            np.matmul(A, A.conj().transpose(0, 2, 1), out=rho[s])
        # (row, col) axes site by site with the batch axis last; _contract rotates it to the front
        t = rho.reshape((-1,) + fS + fS).transpose([a for i in range(K) for a in (1 + i, 1 + K + i)] + [0])
        c = _contract(t, fS, adjoint=False).reshape(len(axes), D, -1)
        blocks.append(c.transpose(1, 0, 2).reshape(D, -1))
    return np.concatenate(blocks, axis=1)[:, cols].real * scales


def _two_loop(g: np.ndarray, history) -> np.ndarray:
    """H_k g by the L-BFGS two-loop recursion (Nocedal & Wright, Alg. 7.4)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if history:
        s, y, _ = history[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q


def _lbfgs(x: np.ndarray, c: np.ndarray, mask: np.ndarray, lam: np.ndarray,
           dims: Dims, max_iters: int) -> np.ndarray:
    """Eigenvectors of L(x) after L-BFGS on the spectral mismatch from x."""
    f, W, r = _spectral_point(x, c, mask, lam, dims)
    g = _spectral_gradient(W, r, mask, dims)
    # relative to the shift-free spread of the spectrum, in the units of grad f
    tol = _GRAD_TOL * float(np.linalg.norm(lam - lam.mean()))
    history = deque(maxlen=_LBFGS_HISTORY)
    for _ in range(max_iters):
        if np.linalg.norm(g) <= tol:
            break
        d = -_two_loop(g, history)
        slope = float(g @ d)
        if slope >= 0:  # the curvature model went bad: fall back to steepest descent
            history.clear()
            d, slope = -g, -float(g @ g)
        s = _STEP_INIT
        for _ in range(_MAX_BACKTRACKS):
            xn = x + s * d
            fn, Wn, rn = _spectral_point(xn, c, mask, lam, dims)
            # strict: at a rounding floor f + c s slope == f would accept standing still
            if fn < f and fn <= f + _ARMIJO_C * s * slope:
                break
            s *= _BACKTRACK_RATIO
        else:  # no sufficient decrease within _MAX_BACKTRACKS halvings
            break
        gn = _spectral_gradient(Wn, rn, mask, dims)
        step, dg = xn - x, gn - g
        if step @ dg > 0:
            history.append((step, dg, 1.0 / (step @ dg)))
        x, f, W, g = xn, fn, Wn, gn
    return W


def _levenberg_marquardt(x: np.ndarray, c: np.ndarray, mask: np.ndarray, lam: np.ndarray,
                         dims: Dims, K: int, max_iters: int) -> np.ndarray:
    """Eigenvectors of L(x) after Levenberg-Marquardt on the residuals mu(x) - lam from x.

    The step solves min |r - J s|^2 + damp |s|^2 in its D x D form, s = J^T (J J^T + damp I)^-1 r,
    since there are at least D - 1 parameters. J J^T is singular: its rows sum to tr B_a = 0, and a
    degenerate L(x) drops more rank, so damp never falls below _DAMP_FLOOR tr(J J^T) / D."""
    f, W, r = _spectral_point(x, c, mask, lam, dims)
    tol = _GRAD_TOL * float(np.linalg.norm(lam - lam.mean()))
    eye = np.eye(dims.total)
    damp = _DAMP_INIT  # in units of tr(J J^T) / D
    for _ in range(max_iters):
        J = _spectral_jacobian(W, dims, K)
        if np.linalg.norm(2.0 * (r @ J)) <= tol:  # |grad f|, as in the L-BFGS
            break
        JJ = J @ J.T
        unit = np.trace(JJ) / dims.total
        for _ in range(_MAX_REJECTIONS):
            xn = x - J.T @ np.linalg.solve(JJ + damp * unit * eye, r)
            fn, Wn, rn = _spectral_point(xn, c, mask, lam, dims)
            if fn < f:
                damp = max(damp / _DAMP_DOWN, _DAMP_FLOOR)
                break
            damp *= _DAMP_UP
        else:  # every trial step rejected: f is at its floor along J
            break
        x, f, W, r = xn, fn, Wn, rn
    return W


def search(H: HermitianOp, dims: Dims, cfg: SearchConfig) -> SearchResult:
    """Best structure over restarts, each a spectrum match.

    Each restart matches the eigenvalues of a K-local L(x) to those of H over
    its weight-1..K coefficients x, with the weight-0 coefficient fixed by
    tr H: by Levenberg-Marquardt for K >= 2 and by L-BFGS for K = 1. Each
    stops once |grad f| <= _GRAD_TOL |lam - mean lam|, when no trial step
    lowers f, or after ``max_iters`` iterations. The restart's residual is
    evaluated once, at V = W U^dag (W, U the eigenvectors of L(x) and H).
    Restart 0 starts from the weight-1..K coefficients of H in the given
    frame, so an H that is already K-local starts at zero mismatch; restart
    r >= 1 starts from a Gaussian x drawn from sub-stream r of the configured
    seed, scaled to the HS norm of H - tr H / D. Every restart runs.

    ``restart_residuals`` holds each restart's residual. The winner is the
    (residual, restart index) minimum; its residual is the one point (0,
    residual) of ``trace``, so ``iterations`` is 0. It is *a* K-local
    structure when one is found, not *the* one, since distinct restarts may
    certify inequivalent structures.
    """
    if H.dim != dims.total:
        raise DimensionMismatch(f"operator dim {H.dim} != product dim {dims.total}")
    if cfg.K > dims.n:
        raise DimensionMismatch(f"K={cfg.K} exceeds n={dims.n}")
    lam, U = H.eig
    coeffs = coeff_tensor(H.mat, dims).real
    weight_masses(coeffs, dims.factors)  # refuses an H out of float64 range before any norm of it
    weight = weight_tensor(dims.factors)
    mask = (weight >= 1) & (weight <= cfg.K)
    c = np.where(weight == 0, coeffs, 0.0)
    scale = float(np.linalg.norm(lam - lam.mean()))  # = |H - tr H / D|_HS
    best, residuals = None, []
    for r in range(cfg.restarts):
        if r == 0:
            x0 = coeffs[mask]
        else:
            x0 = rng_stream(cfg.seed, r).standard_normal(int(mask.sum()))
            x0 *= scale / np.linalg.norm(x0)
        if cfg.K == 1:  # LM loses K = 1 basins that L-BFGS finds
            W = _lbfgs(x0, c, mask, lam, dims, cfg.max_iters)
        else:
            W = _levenberg_marquardt(x0, c, mask, lam, dims, cfg.K, cfg.max_iters)
        V = UnitaryOp(W @ U.conj().T)
        residuals.append(objective(H, V, cfg.K, dims))
        if best is None or residuals[-1] < residuals[best[0]]:
            best = (r, V)
    r, V = best
    residual = objective(H, V, cfg.K, dims)
    if abs(residual - residuals[r]) > 1e-12:
        raise InvariantViolation("recomputed residual disagrees with the winning restart's")
    return SearchResult(
        tps=Tps(dims, V),
        residual=residual,
        iterations=0,
        trace=((0, residuals[r]),),
        converged=residual <= cfg.success_residual,
        restart_residuals=tuple(residuals),
    )


def certify(H: HermitianOp, result: SearchResult, K: int, tol: float) -> bool:
    """True iff the residual ``converged`` thresholds, recomputed from H and result.tps, is <= tol."""
    return is_k_local(H, result.tps, K, tol)
