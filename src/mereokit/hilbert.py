"""Dense finite-dimensional complex linear algebra with checked invariants.

Every carrier holds a read-only array, so values are immutable and safe to
share across concurrent tasks. The public constructors ``HermitianOp(m)``,
``UnitaryOp(m)`` and ``StateVec(v)`` copy what the caller passes; the
library's own producers hand a matrix they have just formed, and hold no
other reference to, to ``_formed_unitary`` or ``_formed_hermitian``, which
keep that array instead of copying it. Entropies are in nats throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, ScaleOutOfRange

# tolerance for algebraic identities: HermitianOp scales it by 1 + max |H_ij|; the unitarity
# check and the state norm use it as is
ATOL = 1e-10
# largest ``_impurity`` of a marginal read as pure; near rank one the impurity is about 2 lam_2 / lam_1
PURE_TOL = 1e-9


def _frozen(a, dtype=complex) -> np.ndarray:
    """A read-only C-ordered copy of a, always a copy: the caller may go on writing to a."""
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _finite(a) -> np.ndarray:
    """``_frozen(a)``, refused if an entry is NaN or inf, which pass every ``dev > tol`` check."""
    out = _frozen(a)
    if not np.isfinite(out).all():
        raise InvariantViolation("entries must be finite, got NaN or inf")
    return out


def _tol(tol: float, name: str = "tol") -> float:
    """tol, refused naming ``name`` unless finite and positive: a NaN or inf bound decides every check."""
    if not 0 < tol < np.inf:  # also False for NaN
        raise DimensionMismatch(f"{name} must be finite and positive, got {tol!r}")
    return tol


def _kept(m) -> np.ndarray:
    """m, refused unless finite (InvariantViolation) and square (DimensionMismatch), made read-only
    in place: not copied when it is already a C-ordered complex array, as a matrix the library has
    just formed is."""
    m = np.asarray(m, dtype=complex, order="C")
    if not np.isfinite(m).all():
        raise InvariantViolation("entries must be finite, got NaN or inf")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


def _square(a) -> np.ndarray:
    """``_kept`` of a copy of a: what the public constructors hold, whatever the caller does to a."""
    return _kept(np.array(a, dtype=complex, order="C"))


def _scaled(a, axis=None) -> tuple[np.ndarray, int | np.ndarray]:
    """(a / 2^e, e), e = 0 for zero, else the exact power of two that brings a's largest real or
    imaginary part into [0.5, 1), so that squares and Gram sums neither overflow nor underflow;
    with ``axis`` the last axis of a, e holds one such power per row along it."""
    a = _finite(a).view(float)
    e = np.frexp(np.abs(a).max(axis=axis, initial=0.0, keepdims=axis is not None))[1]
    return np.ldexp(a, -e).view(complex), (e if axis is None else e.squeeze(axis))


def _unit(v) -> np.ndarray:
    """v / |v|, refused when v is zero or has a non-finite entry; v is first ``_scaled``, so the norm
    of [1e200, 1e200] or [1e-200, 1e-200] is taken, and no other quotient changes."""
    v = _scaled(v)[0]
    if not v.any():
        raise InvariantViolation("cannot normalise a vector of norm 0.0")
    return v / np.linalg.norm(v)


def _to_pairs(a) -> list:
    """Nested ``[re, im]`` lists of a complex array, the JSON form of matrices and states."""
    return np.stack((np.real(a), np.imag(a)), axis=-1).tolist()


def _from_pairs(rows) -> np.ndarray:
    """Complex array from nested ``[re, im]`` lists; the inverse of ``_to_pairs``.

    Ragged input raises ValueError naming the first top-level row shaped unlike most.
    """
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        shapes = [np.array(r, dtype=object).shape for r in rows]
        common = max(shapes, key=shapes.count, default=None)
        for i, shape in enumerate(shapes):
            if shape != common:
                raise ValueError(f"row {i} has shape {shape}, most have {common}") from None
        raise ValueError("expected nested lists of numbers") from None
    if a.ndim < 2 or a.shape[-1] != 2:
        raise ValueError(f"expected [re, im] pairs, got an array of shape {a.shape}")
    return a.view(complex)[..., 0]


def _mat(x) -> np.ndarray:
    """Unwrap an operator carrier to its matrix; pass ndarrays through."""
    return x.mat if hasattr(x, "mat") else np.asarray(x, dtype=complex)


def _vec(x) -> np.ndarray:
    return x.vec if hasattr(x, "vec") else np.asarray(x, dtype=complex)


@dataclass(frozen=True)
class Dims:
    """Ordered factor dimensions (d_0, ..., d_{n-1}) of a product space."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(d, numbers.Real) and float(d).is_integer() for d in self.factors):
            raise InvariantViolation(f"factor dimensions must be integers, got {self.factors!r}")
        object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))
        if len(self.factors) < 2:
            raise InvariantViolation("need at least two factors")
        if any(d < 2 for d in self.factors):
            raise InvariantViolation("every factor dimension must be >= 2")

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def total(self) -> int:
        return math.prod(self.factors)


def _check_hermitian(m: np.ndarray):
    """Refuse the finite square matrix m unless max |m - m^dag| <= ATOL (1 + max |m_ij|), taken on
    m / 2^e (exact) from 2^1023 up, where inf <= inf could pass; (m^dag - m)^T is formed in the one
    conjugated copy, so the check holds m plus one complex and one real D x D array."""
    top = np.abs(m).max(initial=0.0)
    s, e = (m, 0) if top < 2.0 ** 1023 else _scaled(m)
    d = s.conj()
    d -= s.T
    dev = np.abs(d).max()
    if not dev <= ATOL * ((1.0 + top) if e == 0 else (math.ldexp(1.0, -int(e)) + np.abs(s).max())):
        with np.errstate(over="ignore"):  # the deviation reported may be inf
            raise InvariantViolation(f"not Hermitian: max deviation {np.ldexp(dev, e):.3e}")


@dataclass(frozen=True)
class HermitianOp:
    """A Hermitian matrix. ``HermitianOp(m)`` copies m and refuses it unless ``_check_hermitian``
    passes; the Hermitian matrices the library builds (model Hamiltonians, GUE draws, conjugated
    pairs) come from ``_formed_hermitian``, which checks them too but keeps the array."""

    mat: np.ndarray

    def __post_init__(self):
        m = _square(self.mat)
        _check_hermitian(m)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvector columns, computed once, read-only; ScaleOutOfRange
        if not finite. A memo without a lock, so two operators' reads run side by side. An error is
        not memoized: every read raises it."""
        got = self.__dict__.get("_eig")
        if got is None:
            got = _eigh(self.mat)
            object.__setattr__(self, "_eig", got)
        return got


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``HermitianOp.eig`` of the matrix m."""
    lam, V = np.linalg.eigh(m)
    if not (np.isfinite(lam).all() and np.isfinite(V).all()):
        raise ScaleOutOfRange(f"spectrum leaves float64 at scale {np.abs(m.view(float)).max():.1e}")
    lam.setflags(write=False)
    V.setflags(write=False)
    return lam, V


def _check_unitary(m: np.ndarray):
    """Refuse the square matrix m unless every entry of m^dag m - 1 is within ATOL in modulus; the 1
    is subtracted on the diagonal in place, so no identity is built. A finite m whose m^dag m
    overflows reads NaN there, and is refused too."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = m.conj().T @ m
    g.reshape(-1)[:: m.shape[0] + 1] -= 1
    dev = np.abs(g).max()
    if not dev <= ATOL:
        raise InvariantViolation(f"not unitary: max deviation {dev:.3e}")


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary matrix. ``UnitaryOp(m)`` is for matrices from outside the library, a caller's or a
    tps file's (``tps_from_json``), and refuses m unless every entry of m^dag m - 1 is within ATOL.
    The unitaries the library forms (eigenvector and QR factors, closed forms, and products of
    these) come from ``_formed_unitary`` unchecked: a product of checked unitaries is unitary to
    within their rounding, and the tests hold each such producer at ATOL."""

    mat: np.ndarray

    def __post_init__(self):
        m = _square(self.mat)
        _check_unitary(m)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _formed_unitary(m) -> UnitaryOp:
    """A UnitaryOp of m, a matrix the library has just formed and holds no other reference to:
    m itself, ``_kept`` read-only (copied only if not a C-ordered complex array), without the D^3
    check."""
    U = object.__new__(UnitaryOp)
    object.__setattr__(U, "mat", _kept(m))
    return U


def _formed_hermitian(m) -> HermitianOp:
    """A HermitianOp of m, a matrix the library has just formed and holds no other reference to:
    m itself, ``_kept`` read-only, refused unless ``_check_hermitian`` passes."""
    H = object.__new__(HermitianOp)
    m = _kept(m)
    _check_hermitian(m)
    object.__setattr__(H, "mat", m)
    return H


@dataclass(frozen=True)
class StateVec:
    vec: np.ndarray

    def __post_init__(self):
        v = _finite(np.asarray(self.vec).reshape(-1))
        nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= ATOL:
            raise InvariantViolation(f"state norm {nrm!r} is not 1")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


def _times_dagger(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b^dag as conj(conj(a) b^T): equal term by term, with no conjugated copy of b; a, a fresh
    array the caller gives up, is conjugated in place, and the product is conjugated in place."""
    np.conjugate(a, out=a)
    out = a @ b.T
    return np.conjugate(out, out=out)


def _phases_finite(H: HermitianOp, t_max: float, what: str) -> None:
    """Refuse (DimensionMismatch) times up to |t_max| whose phases t * eigenvalue of H overflow,
    or a NaN t_max: every such phase is at most max |t| * max |lambda|, a float product that
    reads inf with no warning."""
    reach = abs(t_max) * float(np.abs(H.eig[0]).max())
    if not math.isfinite(reach):
        raise DimensionMismatch(f"{what} phases t * eigenvalue overflow: max |t| * max |lambda| = {reach}")


def expm_i(H: HermitianOp, t: float) -> UnitaryOp:
    """Time-evolution unitary e^{-i t H} via eigendecomposition; a t whose phases t * eigenvalue
    are not finite raises DimensionMismatch."""
    _phases_finite(H, t, "evolution")
    lam, V = H.eig
    return _formed_unitary(_times_dagger(V * np.exp(-1j * t * lam), V))


def _entropy_of_probs(p: np.ndarray) -> np.ndarray:
    """Shannon entropy over the last axis; entries are clamped to [0, 1], and 0 log 0 = 0."""
    p = np.clip(p.real, 0.0, 1.0)
    return -(p * np.log(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=-1) + 0.0  # -0.0 -> 0.0


@lru_cache
def _support_first(shape: tuple[int, ...], supports: tuple[tuple[int, ...], ...]):
    """The copy buffer's shape (batch, d_S, D / d_S), and per support S the axis order of states shaped
    (batch,) + factors with S first, as listed, then the rest in order (None if unmoved), and the shape
    it gives. Cached: recomputed on every call, they made the (2,2,2) search Jacobian 10-25 % slower."""
    n, dS = len(shape) - 1, math.prod(shape[1 + i] for i in supports[0])
    orders = [(0,) + tuple(1 + i for i in S) + tuple(1 + i for i in range(n) if i not in S) for S in supports]
    return (shape[0], dS, math.prod(shape[1:]) // dS), tuple(
        (None if o == tuple(range(n + 1)) else o, tuple(shape[a] for a in o)) for o in orders)


def _marginals(t: np.ndarray, supports: tuple[tuple[int, ...], ...], bufs=None) -> np.ndarray:
    """Grams A A^dag, (len(supports), batch, d_S, d_S), of states t shaped (batch,) + factors, A the
    support-first copy of t (t itself if S leads) reshaped to (batch, d_S, D / d_S): the reduced density
    matrices on each support S, all of one factor dims. One copy buffer and its conjugate serve every
    support in turn; ``bufs``, a dict the caller keeps, holds them by shape across calls."""
    shape, layouts = _support_first(t.shape, supports)
    bufs = {} if bufs is None else bufs
    A, Ac = bufs.get(shape) or bufs.setdefault(shape, (np.empty(shape, complex), np.empty(shape, complex)))
    out = np.empty((len(layouts),) + shape[:2] + shape[1:2], complex)
    for (order, moved), rho in zip(layouts, out):
        if order is not None:
            A.reshape(moved)[...] = t.transpose(order)
        a = A if order is not None else t.reshape(shape)
        np.matmul(a, np.conjugate(a, out=Ac).swapaxes(-1, -2), out=rho)
    return out


def _impurity(rho: np.ndarray) -> np.ndarray:
    """1 - tr rho^2 / (tr rho)^2 of each Hermitian Gram in a stack (..., d, d), with no spectrum: a sum
    of squared moduli over the squared trace. 0 at rank one up to a few eps, 1 - 1/d at rho ∝ I."""
    return 1 - np.einsum("...ij,...ij->...", rho, rho.conj()).real / np.einsum("...ii->...", rho).real ** 2


def _spectra3(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., 3), unordered, of a stack rho (..., 3, 3) of Hermitian A: each op runs on rows
    a_i = A_ii, o_i = A_{i,i+1 mod 3}, one column per matrix, A scaled by an exact power of two. With
    B = (A - q) / p, q = tr A / 3, p^2 = tr (A - q)^2 / 6 and det B = +-2 cos 3phi, r = |cos 3phi|, they
    are q + p mu, mu = +-2 cos phi and +-2 cos(phi +- 2pi/3) (Smith, CACM 4:168, 1961). The two nearest
    roots lose ~eps / sqrt(1 - r), splitting a rank-1 zero pair by ~1e-8 (Kopp 2006), so the rows with
    r > 1 - 1e-3 (two roots within ~3 % of the spread: 0-10 % of a stack of marginals) take all three
    from one stacked ``eigvalsh`` of their scaled matrices, whose roots hold to a few eps there."""
    nx = [1, 2, 0]  # row i -> row i + 1 (mod 3)
    x = rho.reshape(-1, 9).T[[0, 4, 8, 1, 5, 6]]
    e = np.frexp(np.abs(x).max(axis=0))[1]
    x *= np.ldexp(1.0, -e)
    a, o = x[:3].real, x[3:]
    q = a.sum(axis=0) / 3
    c = a - q
    oo = o.real * o.real + o.imag * o.imag
    p = np.sqrt(((c * c).sum(axis=0) + 2 * oo.sum(axis=0)) / 6)
    ps = np.maximum(p, np.finfo(float).tiny)  # B = 0 when p = 0
    c /= ps
    on = o / ps
    oo = oo[nx] / ps / ps  # |B_{i+1,i+2}|^2
    det = c.prod(axis=0) + 2 * on.prod(axis=0).real - (c * oo).sum(axis=0)
    r = np.minimum(np.abs(det) / 2, 1.0)
    mu = np.copysign(2.0, det) * np.cos(np.arccos(r) / 3 + np.array([[0.0], [2.0], [-2.0]]) * math.pi / 3)
    lam = q + p * mu
    k = np.flatnonzero(r > 1 - 1e-3)
    if k.size:
        lam[:, k] = np.linalg.eigvalsh(rho.reshape(-1, 3, 3)[k] * np.ldexp(1.0, -e[k])[:, None, None]).T
    return np.ldexp(lam.T, e[:, None]).reshape(rho.shape[:-1])


def site_entropies(psi, dims: Dims, sites=None) -> np.ndarray:
    """Marginal entropies of the listed factors (all by default, in that order) of a pure state,
    or of every state in a stack (..., D); the result is (..., len(sites)).

    The marginal of factor i is the d_i x d_i Gram ``_marginals`` forms; one stacked ``eigvalsh``
    per group of equal d_i >= 4 reads their spectra, one ``_spectra3`` call the qutrits'. For a qubit,
    a, c, b = G_00, G_11, G_01 are sums over the strided views (..., prod d[:i], 2, prod d[i+1:]) of
    |psi|^2 and psi, with no support-first copy per site, written into (..., qubits) arrays; then,
    over all qubit sites at once, hi = (a + c) / 2 + sqrt(((a - c) / 2)^2 + |b|^2) and lo = (a c -
    |b|^2) / hi (0 when hi is), each within a few eps (a + c) of exact, as ``eigvalsh``'s. An
    out-of-range or repeated site raises DimensionMismatch naming it; a NaN or inf entry,
    InvariantViolation.
    """
    v = _vec(psi)
    if v.shape[-1] != dims.total:
        raise DimensionMismatch(f"state dim {v.shape[-1]} != product dim {dims.total}")
    if not np.isfinite(v).all():
        raise InvariantViolation("state entries must be finite, got NaN or inf")
    sites = range(dims.n) if sites is None else tuple(sites)
    groups = {}
    for k, i in enumerate(sites):
        if not 0 <= i < dims.n:
            raise DimensionMismatch(f"site {i} out of range for n={dims.n}")
        if i in sites[:k]:
            raise DimensionMismatch(f"site {i} repeated in sites {sites}")
        groups.setdefault(dims.factors[i], []).append(k)  # factor dim -> positions k in sites
    lead = v.shape[:-1]
    out = np.empty(lead + (len(sites),))
    qubits = groups.pop(2, None)
    if qubits:
        a, c, b = (np.empty(lead + (len(qubits),), dtype) for dtype in (float, float, complex))
        lefts = [math.prod(dims.factors[: sites[k]]) for k in qubits]
        splits = [lead + (left, 2, dims.total // (2 * left)) for left in lefts]
        for q, split in enumerate(splits):  # b first: its two products and |psi|^2 are never held at once
            m = v.reshape(split)
            b[..., q] = (m[..., 0, :] * m[..., 1, :].conj()).sum(axis=(-2, -1))
        p = v.real * v.real
        p += v.imag * v.imag
        for q, split in enumerate(splits):
            # each half copied first: numpy sums a strided view in short inner loops, slowly
            a[..., q], c[..., q] = (np.ascontiguousarray(p.reshape(split)[..., j, :]).sum(axis=(-2, -1))
                                    for j in (0, 1))
        b2 = b.real * b.real + b.imag * b.imag
        hi = (a + c) / 2 + np.sqrt(((a - c) / 2) ** 2 + b2)
        lo = np.divide(a * c - b2, hi, out=np.zeros_like(hi), where=hi > 0.0)
        out[..., qubits] = _entropy_of_probs(np.stack((lo, hi), axis=-1))
    for d, ks in groups.items():
        rho = _marginals(v.reshape((-1,) + dims.factors), tuple((sites[k],) for k in ks))
        spectra = _spectra3(rho) if d == 3 else np.linalg.eigvalsh(rho)
        out[..., ks] = _entropy_of_probs(spectra).T.reshape(lead + (len(ks),))
    return out


def kron_all(mats) -> np.ndarray:
    """Kronecker product of the factors, all of one ndim: each step is the one broadcast multiply,
    axes interleaved, that ``np.kron`` makes, so the result is its chain's bit for bit, without its
    per-call work."""
    ms = [_mat(m) for m in mats]
    if not ms:
        raise DimensionMismatch("kron_all needs at least one factor")
    if len({m.ndim for m in ms}) > 1:
        raise DimensionMismatch(f"kron_all needs factors of one ndim, got ndims {[m.ndim for m in ms]}")
    left, right = (slice(None), None) * ms[0].ndim, (None, slice(None)) * ms[0].ndim
    return reduce(lambda a, b: (a[left] * b[right]).reshape([p * q for p, q in zip(a.shape, b.shape)]), ms)


def _ginibre(factors: list[int], stream: np.random.Generator) -> dict:
    """{d: (positions of d in factors, their Ginibre blocks (k, d, d))}: every factor's block, real
    parts then imaginary, from one ``standard_normal`` call, the same numbers per-factor (d, d) draws
    take from the sequential stream, read in place when one factor has its d. The draw is let go on
    return, before any QR."""
    start = list(accumulate((2 * d * d for d in factors), initial=0))
    g = stream.standard_normal(start[-1])
    out = {}
    for d in dict.fromkeys(factors):
        idx = [i for i, e in enumerate(factors) if e == d]
        parts = [g[start[i]:start[i + 1]] for i in idx]
        block = (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(len(idx), 2, d, d)
        z = np.empty((len(idx), d, d), complex)
        z.real, z.imag = block[:, 0], block[:, 1]
        z /= math.sqrt(2)
        out[d] = idx, z
    return out


def haar_unitaries(factors, stream: np.random.Generator) -> list[UnitaryOp]:
    """Haar-distributed unitaries, one d x d per entry d of ``factors``, in order (Mezzadri 2007):
    the ``_ginibre`` blocks, then one QR, phase fix on diag(R) per stack of equal-d factors, and
    each unitary keeps its slice of Q."""
    factors = [int(d) for d in factors]
    if min(factors, default=1) < 1:
        raise DimensionMismatch(f"unitary dimensions must be >= 1, got {factors}")
    out = [None] * len(factors)
    for idx, z in _ginibre(factors, stream).values():
        q, r = np.linalg.qr(z)
        diag = r.diagonal(0, -2, -1)
        q *= (diag / np.abs(diag))[:, None, :]
        for k, i in enumerate(idx):
            out[i] = _formed_unitary(q[k])
    return out


def haar_unitary(D: int, stream: np.random.Generator) -> UnitaryOp:
    """Haar-distributed D x D unitary: ``haar_unitaries`` of the one factor D."""
    return haar_unitaries((D,), stream)[0]


def haar_state(D: int, stream: np.random.Generator) -> StateVec:
    """Uniformly random unit vector."""
    z = stream.standard_normal(D) + 1j * stream.standard_normal(D)
    return StateVec(z / np.linalg.norm(z))
