"""Unitarity where the library forms a unitary, and the one boundary where it checks one.

``UnitaryOp(m)`` checks max |m^dag m - 1| <= ATOL on matrices from outside the library; the
unitaries the library forms come from ``hilbert._formed_unitary`` unchecked. These tests hold each
such producer at ATOL instead, and keep the boundary: no second check and no second bypass.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import mereokit as mk
from mereokit import cli
from mereokit.hilbert import ATOL, _formed_unitary
from mereokit.search import SearchConfig, search

from conftest import nondegenerate_instance, random_hermitian

SRC = Path(mk.__file__).parent


def drift(m) -> float:
    """max |m^dag m - 1|, entrywise."""
    return float(np.abs(m.conj().T @ m - np.eye(len(m))).max())


def _expm_i(dims, rng):
    H = random_hermitian(dims.total, rng)
    return [mk.expm_i(H, t) for t in (0.3, 7.0)]


def _act(dims, rng):
    T = mk.random_tps(dims, rng)
    return [mk.act(mk.haar_unitary(dims.total, rng), T).iso]


def _pair_witness(dims, rng):
    H1, psi1 = nondegenerate_instance(dims.total, int(rng.integers(2**16)))
    V = mk.haar_unitary(dims.total, rng).mat
    H2 = mk.HermitianOp(V @ H1.mat @ V.conj().T)
    return [mk.pair_orbit_witness(H1, psi1, H2, mk.StateVec(V @ psi1.vec))]


def _gram_witness(dims, rng):
    D = dims.total
    out = []
    for count in (3, D) if D <= 64 else (3,):  # a span, and up to D = 64 the whole space
        fam1 = rng.standard_normal((count, D)) + 1j * rng.standard_normal((count, D))
        fam2 = fam1 @ mk.haar_unitary(D, rng).mat.T
        out.append(mk.gram_orbit_witness(list(fam1), list(fam2)))
    return out


def _search(K, restarts, max_iters):
    def run(dims, rng):
        H = mk.scrambled_klocal(dims, K, rng)[0]
        cfg = SearchConfig(K=K, restarts=restarts, max_iters=max_iters, seed=int(rng.integers(2**16)))
        return [search(H, dims, cfg).tps.iso]
    return run


PRODUCERS = {
    "expm_i": _expm_i,
    "haar_unitaries": lambda dims, rng: mk.haar_unitaries(dims.factors + (dims.total,), rng),
    "canonical": lambda dims, rng: [mk.canonical(dims).iso],
    "act": _act,
    "pair_orbit_witness": _pair_witness,
    "gram_orbit_witness": _gram_witness,
    "search_factored_frame": _search(1, 1, 1),
    "search_matched_frame": _search(2, 2, 20),
    "jw_dual_tps": lambda dims, rng: [mk.jw_dual_tps(dims.n).iso],
    "local_move": lambda dims, rng: [cli._local_move(mk.random_tps(dims, rng), rng).iso],
}
QUDITS = [(2, 2, 3), (3, 3, 3)]
QUBITS = [(2,) * n for n in (3, 4, 5)]
# the largest D each producer is held at: 512 wherever it runs there in well under a second
TOP = {"search_factored_frame": (2,) * 7, "search_matched_frame": (2,) * 6}
CASES = [(name, dims) for name in PRODUCERS
         for dims in (QUBITS if name == "jw_dual_tps" else QUDITS + QUBITS) + [TOP.get(name, (2,) * 9)]]


@pytest.mark.parametrize("name, factors", CASES, ids=[f"{n}-{'x'.join(map(str, f))}" for n, f in CASES])
def test_formed_unitaries_within_atol(name, factors):
    dims = mk.Dims(factors)
    for U in PRODUCERS[name](dims, mk.stream(701, len(factors), factors[-1])):
        assert type(U) is mk.UnitaryOp and not U.mat.flags.writeable
        assert drift(U.mat) <= ATOL


def test_chain_of_acts_stays_within_atol():
    # each act multiplies in one more Haar unitary's rounding; 100 of them at D = 128 stay within ATOL
    rng = mk.stream(702)
    T = mk.canonical(mk.Dims((2,) * 7))
    for _ in range(100):
        T = mk.act(mk.haar_unitary(128, rng), T)
    assert drift(T.iso.mat) <= ATOL


def test_formed_unitary_keeps_the_square_copy():
    # finite, square and a read-only copy, as UnitaryOp(m) has it; only the D^3 product is skipped
    m = mk.haar_unitary(4, mk.stream(703)).mat.copy()
    U = _formed_unitary(m)
    assert U.mat is not m and np.array_equal(U.mat, m) and not U.mat.flags.writeable
    with pytest.raises(mk.InvariantViolation, match="finite"):
        _formed_unitary(np.full((2, 2), np.nan))
    with pytest.raises(mk.DimensionMismatch, match="square"):
        _formed_unitary(np.eye(2)[:1])


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
    check, bypass, outside = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for where, call in _calls(ast.parse(path.read_text(), filename=str(path)), path.stem):
            name = _name(call.func)
            if name == "_check_unitary":
                check.add(where)
            if name == "__new__" and any(_name(a) == "UnitaryOp" for a in call.args):
                bypass.add(where)
            if name == "UnitaryOp":
                outside.add(where)
    assert check == {"hilbert.UnitaryOp.__post_init__"}
    assert bypass == {"hilbert._formed_unitary"}
    assert outside == {"tps.tps_from_json"}
