"""Search for structures that make a Hamiltonian (approximately) K-local,
by matching spectra.

H has a K-local structure exactly when some K-local operator L(x) has its
eigenvalues (Cotler, Penington, Ranard, "Locality from the Spectrum",
arXiv:1702.06142). L-BFGS over the real weight-1..K coefficients x minimises
f(x) = sum_k (mu_k - lam_k)^2, mu the ascending eigenvalues of L(x) and lam
those of H; by Hellmann-Feynman its gradient is 2 Re coeff_tensor(W diag(mu
- lam) W^dag) on those coefficients, W the eigenvectors of L(x). Then
V = W U^dag, U the eigenvectors of H, maps H onto L(x) up to the remaining
mismatch. The residual (``objective``) is the K-local residual of H in V as
``is_k_local`` reads it, so ``converged`` and ``certify`` threshold one number.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import Dims, HermitianOp, UnitaryOp
from .basis import coeff_tensor, matrix_from_coeffs, weight_masses, weight_tensor
from .locality import _profile, is_k_local, k_local_residual
from .tps import Tps
from .rng import stream as rng_stream

# the spectrum match's L-BFGS
_GRAD_TOL = 1e-9  # stop once |grad f| <= _GRAD_TOL * |lam - mean lam|
_STEP_INIT = 1.0  # first trial step of each line search
_ARMIJO_C = 1e-4  # accept a step once f falls by at least _ARMIJO_C * step * slope
_BACKTRACK_RATIO = 0.5  # else shrink the step by this factor, at most _MAX_BACKTRACKS times
_MAX_BACKTRACKS = 60
_LBFGS_HISTORY = 10  # (step, gradient change) pairs kept by the spectrum match


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


def _match_spectrum(x: np.ndarray, c: np.ndarray, mask: np.ndarray, lam: np.ndarray,
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


def search(H: HermitianOp, dims: Dims, cfg: SearchConfig) -> SearchResult:
    """Best structure over restarts, each a spectrum match.

    Each restart runs L-BFGS over the weight-1..K coefficients x of a K-local
    L(x) whose eigenvalues should match those of H, with the weight-0
    coefficient fixed by tr H, and evaluates the residual once at
    V = W U^dag (W, U the eigenvectors of L(x) and H). Restart 0 starts from
    the weight-1..K coefficients of H in the given frame, so an H that is
    already K-local starts at zero mismatch; restart r >= 1 starts from a
    Gaussian x drawn from sub-stream r of the configured seed, scaled to the
    HS norm of H - tr H / D. Every restart runs.

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
        W = _match_spectrum(x0, c, mask, lam, dims, cfg.max_iters)
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
