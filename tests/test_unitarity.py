"""Unitarity where the library forms a unitary, the one boundary where it checks one, and who owns
the arrays of the carriers the library forms.

``UnitaryOp(m)`` checks max |m^dag m - 1| <= ATOL on matrices from outside the library; the
unitaries the library forms come from ``hilbert._formed_unitary`` unchecked. These tests hold each
such producer at ATOL instead, and keep the boundary: no second check and no second bypass.
``_formed_unitary`` and ``_formed_hermitian`` keep the array their producer has just formed instead
of copying it, so every formed carrier must be read-only and share no memory with an array its
caller passed in; the public constructors still copy.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import mereokit as mk
from mereokit import cli
from mereokit.hilbert import ATOL, _formed_hermitian, _formed_unitary
from mereokit.search import SearchConfig, search

from conftest import nondegenerate_instance, random_hermitian

SRC = Path(mk.__file__).parent


def drift(m) -> float:
    """max |m^dag m - 1|, entrywise."""
    return float(np.abs(m.conj().T @ m - np.eye(len(m))).max())


# each producer returns (the carriers it formed, every array its caller passed in or holds)


def _expm_i(dims, rng):
    H = random_hermitian(dims.total, rng)
    return [mk.expm_i(H, t) for t in (0.3, 7.0)], [H.mat, *H.eig]


def _act(dims, rng):
    T, U = mk.random_tps(dims, rng), mk.haar_unitary(dims.total, rng)
    return [mk.act(U, T).iso], [T.iso.mat, U.mat]


def _pair_witness(dims, rng):
    H1, psi1 = nondegenerate_instance(dims.total, int(rng.integers(2**16)))
    V = mk.haar_unitary(dims.total, rng).mat
    H2, psi2 = mk.HermitianOp(V @ H1.mat @ V.conj().T), mk.StateVec(V @ psi1.vec)
    U = mk.pair_orbit_witness(H1, psi1, H2, psi2)
    return [U], [V, H1.mat, psi1.vec, H2.mat, psi2.vec, *H1.eig, *H2.eig]


def _gram_witness(dims, rng):
    D = dims.total
    out, given = [], []
    for count in (3, D) if D <= 64 else (3,):  # a span, and up to D = 64 the whole space
        fam1 = rng.standard_normal((count, D)) + 1j * rng.standard_normal((count, D))
        fam2 = fam1 @ mk.haar_unitary(D, rng).mat.T
        out.append(mk.gram_orbit_witness(list(fam1), list(fam2)))
        given += [fam1, fam2]
    return out, given


def _search(K, restarts, max_iters):
    def run(dims, rng):
        H = mk.scrambled_klocal(dims, K, rng)[0]
        cfg = SearchConfig(K=K, restarts=restarts, max_iters=max_iters, seed=int(rng.integers(2**16)))
        return [search(H, dims, cfg).tps.iso], [H.mat, *H.eig]
    return run


def _local_move(dims, rng):
    T = mk.random_tps(dims, rng)
    return [cli._local_move(T, rng).iso], [T.iso.mat]


PRODUCERS = {
    "expm_i": _expm_i,
    "haar_unitaries": lambda dims, rng: (mk.haar_unitaries(dims.factors + (dims.total,), rng), []),
    "canonical": lambda dims, rng: ([mk.canonical(dims).iso], []),
    "act": _act,
    "pair_orbit_witness": _pair_witness,
    "gram_orbit_witness": _gram_witness,
    "search_factored_frame": _search(1, 1, 1),
    "search_matched_frame": _search(2, 2, 20),
    "jw_dual_tps": lambda dims, rng: ([mk.jw_dual_tps(dims.n).iso], []),
    "local_move": _local_move,
}
QUDITS = [(2, 2, 3), (3, 3, 3)]
QUBITS = [(2,) * n for n in (3, 4, 5)]
# the largest D each producer is held at: 512 wherever it runs there in well under a second
TOP = {"search_factored_frame": (2,) * 7, "search_matched_frame": (2,) * 6}
CASES = [(name, dims) for name in PRODUCERS
         for dims in (QUBITS if name == "jw_dual_tps" else QUDITS + QUBITS) + [TOP.get(name, (2,) * 9)]]


def assert_owned(mat, given):
    """mat is read-only and shares no memory with any of the arrays given."""
    assert not mat.flags.writeable
    assert not any(np.shares_memory(mat, g) for g in given)


@pytest.mark.parametrize("name, factors", CASES, ids=[f"{n}-{'x'.join(map(str, f))}" for n, f in CASES])
def test_formed_unitaries_within_atol(name, factors):
    dims = mk.Dims(factors)
    formed, given = PRODUCERS[name](dims, mk.stream(701, len(factors), factors[-1]))
    for U in formed:
        assert type(U) is mk.UnitaryOp
        assert_owned(U.mat, given)
        assert drift(U.mat) <= ATOL


def _conjugated(dims, rng):
    H1, psi1 = random_hermitian(dims.total, rng), mk.haar_state(dims.total, rng)
    H2, psi2 = cli._conjugated(H1, psi1, rng)
    return [H2], [H1.mat, psi1.vec, psi2.vec, *H1.eig]


def _scrambled(dims, rng):
    H, V = mk.scrambled_klocal(dims, 2, rng)
    return [H], [V.mat]


HERMITIAN = {
    "gue": lambda dims, rng: ([cli._gue(dims.total, rng)], []),
    "random_klocal": lambda dims, rng: ([mk.random_klocal(dims, 2, rng)], []),
    "scrambled_klocal": _scrambled,
    "conjugated_pair": _conjugated,
    "ising_chain": lambda dims, rng: ([mk.ising_chain(dims.n, 0.7, 1.3)], []),
    "pauli_string": lambda dims, rng: ([mk.pauli_string("XYZ"[: dims.n] + "X" * (dims.n - 3))], []),
}
HERMITIAN_CASES = [(name, dims) for name in HERMITIAN
                   for dims in (QUBITS if name in ("ising_chain", "pauli_string") else QUDITS + QUBITS) + [(2,) * 9]]


@pytest.mark.parametrize("name, factors", HERMITIAN_CASES,
                         ids=[f"{n}-{'x'.join(map(str, f))}" for n, f in HERMITIAN_CASES])
def test_formed_hermitians_are_owned(name, factors):
    dims = mk.Dims(factors)
    formed, given = HERMITIAN[name](dims, mk.stream(704, len(factors), factors[-1]))
    for H in formed:
        assert type(H) is mk.HermitianOp and H.dim == dims.total
        assert_owned(H.mat, given)
        assert np.abs(H.mat - H.mat.conj().T).max() <= ATOL * (1 + np.abs(H.mat).max())


def test_chain_of_acts_stays_within_atol():
    # each act multiplies in one more Haar unitary's rounding; 100 of them at D = 128 stay within ATOL
    rng = mk.stream(702)
    T = mk.canonical(mk.Dims((2,) * 7))
    for _ in range(100):
        T = mk.act(mk.haar_unitary(128, rng), T)
    assert drift(T.iso.mat) <= ATOL


def test_formed_unitary_keeps_the_producers_array():
    # a C-ordered complex matrix is kept and made read-only; only the D^3 product is skipped
    m = mk.haar_unitary(4, mk.stream(703)).mat.copy()
    U = _formed_unitary(m)
    assert U.mat is m and not m.flags.writeable
    for other in (np.asfortranarray(m), m.real.copy()):  # any other layout or dtype is copied into one
        U = _formed_unitary(other)
        assert U.mat.flags.c_contiguous and U.mat.dtype == complex and not np.shares_memory(U.mat, other)
        assert np.array_equal(U.mat, other) and not U.mat.flags.writeable and other.flags.writeable
    with pytest.raises(mk.InvariantViolation, match="finite"):
        _formed_unitary(np.full((2, 2), np.nan))
    with pytest.raises(mk.DimensionMismatch, match="square"):
        _formed_unitary(np.eye(2)[:1])


def test_formed_hermitian_keeps_and_checks():
    m = random_hermitian(4, mk.stream(705)).mat.copy()
    H = _formed_hermitian(m)
    assert H.mat is m and not m.flags.writeable
    bad = m.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(mk.InvariantViolation, match="not Hermitian"):
        _formed_hermitian(bad)
    with pytest.raises(mk.InvariantViolation, match="finite"):
        _formed_hermitian(np.full((2, 2), np.inf))
    with pytest.raises(mk.DimensionMismatch, match="square"):
        _formed_hermitian(np.eye(2)[:1])


@pytest.mark.parametrize("make, field, value", [
    (mk.UnitaryOp, "mat", lambda: mk.haar_unitary(4, mk.stream(706)).mat.copy()),
    (mk.HermitianOp, "mat", lambda: random_hermitian(4, mk.stream(707)).mat.copy()),
    (mk.StateVec, "vec", lambda: mk.haar_state(4, mk.stream(708)).vec.copy()),
], ids=["UnitaryOp", "HermitianOp", "StateVec"])
def test_public_constructors_copy(make, field, value):
    # what a caller passes stays the caller's: mutating it afterwards leaves the carrier as it was
    m = value()
    carrier = make(m)
    kept = getattr(carrier, field)
    before = kept.copy()
    m[...] = 0
    assert np.array_equal(kept, before) and not np.shares_memory(kept, m) and not kept.flags.writeable


# -- the boundary: one check, one bypass, one outside entry -------------------------------------


def _calls(node, where):
    """(where, call) for every call under node, where the dotted module.class.function path around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Call):
            yield where, child
        yield from _calls(child, where)


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""


def test_unitarity_boundary():
    check, bypass, outside, hermitian_check, hermitian_bypass = set(), set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for where, call in _calls(ast.parse(path.read_text(), filename=str(path)), path.stem):
            name = _name(call.func)
            if name == "_check_unitary":
                check.add(where)
            if name == "__new__" and any(_name(a) == "UnitaryOp" for a in call.args):
                bypass.add(where)
            if name == "UnitaryOp":
                outside.add(where)
            if name == "_check_hermitian":
                hermitian_check.add(where)
            if name == "__new__" and any(_name(a) == "HermitianOp" for a in call.args):
                hermitian_bypass.add(where)
    assert check == {"hilbert.UnitaryOp.__post_init__"}
    assert bypass == {"hilbert._formed_unitary"}
    assert outside == {"tps.tps_from_json"}
    # the Hermitian counterpart skips only the copy: both of its entries run the check
    assert hermitian_check == {"hilbert.HermitianOp.__post_init__", "hilbert._formed_hermitian"}
    assert hermitian_bypass == {"hilbert._formed_hermitian"}
