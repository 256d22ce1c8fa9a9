import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit import tps
from mereokit.models import SIGMA
from mereokit.tps import _single_factor_realign

from conftest import random_hermitian

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def local_in(T, site_unitaries):
    """Unitary of the abstract space acting as the given product through T."""
    L = mk.kron_all([u for u in site_unitaries])
    return mk.UnitaryOp(T.iso.mat.conj().T @ L @ T.iso.mat)


def planted(T, sigma, rng):
    """T moved by Haar local unitaries composed with the factor permutation sigma,
    so that T.iso . planted.iso^dag = perm_matrix(sigma)^T . (x)L_i."""
    L = mk.kron_all([mk.haar_unitary(d, rng).mat for d in T.dims.factors])
    P = mk.perm_matrix(T.dims.factors, sigma)
    return mk.Tps(T.dims, mk.UnitaryOp(L.conj().T @ P @ T.iso.mat))


def admissible_permutation(factors, rng):
    """Uniformly random permutation that moves factors only among equal dimensions."""
    sigma = list(range(len(factors)))
    for d in sorted(set(factors)):
        slots = [j for j, e in enumerate(factors) if e == d]
        for j, k in zip(slots, rng.permutation(slots)):
            sigma[j] = int(k)
    return tuple(sigma)


def enumerated_equivalent(T1, T2):
    """Reference decision: the product test on every admissible permutation (n! for qubits)."""
    f = T1.dims.factors
    W = T1.iso.mat @ T2.iso.mat.conj().T
    for sigma in itertools.permutations(range(len(f))):
        if all(f[sigma[j]] == f[j] for j in range(len(f))):
            if mk.is_product_operator(mk.perm_matrix(f, sigma) @ W, T1.dims) is not None:
                return True, sigma
    return False, None


def svd_slot_equivalent(T1, T2):
    """Reference decision: each factor's slot by the least s_1 / s_0 from one SVD per slot."""
    f = T1.dims.factors
    W = T1.iso.mat @ T2.iso.mat.conj().T
    sigma = []
    for i, d in enumerate(f):
        slots = [j for j in range(len(f)) if f[j] == d]
        svs = [np.linalg.svd(_single_factor_realign(W, f, i, j), compute_uv=False) for j in slots]
        sigma.append(slots[int(np.argmin([s[1] / s[0] for s in svs]))])
    if len(set(sigma)) == len(f):
        if mk.is_product_operator(mk.perm_matrix(f, tuple(sigma)) @ W, T1.dims) is not None:
            return True, tuple(sigma)
    return False, None


class TestConstruction:
    def test_canonical_identity(self, dims22):
        T = mk.canonical(dims22)
        assert np.array_equal(T.iso.mat, np.eye(4))
        assert mk.equivalent(T, mk.canonical(dims22))

    def test_canonical_matches_plain_expansion(self, dims22):
        H = random_hermitian(4, mk.stream(301))
        dec = mk.decompose(H, mk.canonical(dims22))
        from test_basis import brute_force_coeffs

        assert np.abs(dec.coeffs - brute_force_coeffs(H.mat, dims22)).max() < 1e-12

    def test_iso_dims_consistency(self):
        with pytest.raises(mk.DimensionMismatch):
            mk.Tps(mk.Dims((2, 2)), mk.UnitaryOp(np.eye(8)))


class TestAct:
    def test_identity_action(self, dims22):
        T = mk.random_tps(dims22, mk.stream(302))
        T2 = mk.act(mk.UnitaryOp(np.eye(4)), T)
        assert np.abs(T2.iso.mat - T.iso.mat).max() < 1e-12

    def test_group_action_law(self, dims22):
        rng = mk.stream(303)
        T = mk.random_tps(dims22, rng)
        U, V = mk.haar_unitary(4, rng), mk.haar_unitary(4, rng)
        lhs = mk.act(U, mk.act(V, T)).iso.mat
        rhs = mk.act(mk.UnitaryOp(U.mat @ V.mat), T).iso.mat
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_profile_covariance(self, dims222):
        rng = mk.stream(304)
        H = random_hermitian(8, rng)
        T = mk.random_tps(dims222, rng)
        U = mk.haar_unitary(8, rng)
        p1 = mk.weight_profile(mk.decompose(H, T))
        HU = mk.HermitianOp(U.mat @ H.mat @ U.mat.conj().T)
        p2 = mk.weight_profile(mk.decompose(HU, mk.act(U, T)))
        assert np.abs(p1.w - p2.w).max() < 1e-9


class TestProductOperator:
    def test_pauli_product(self, dims22):
        W = np.kron(SIGMA["X"], SIGMA["Y"])
        cert = mk.is_product_operator(W, dims22)
        assert cert is not None
        assert np.abs(cert.assemble() - W).max() < 1e-8

    def test_cnot_rejected(self, dims22):
        assert mk.is_product_operator(CNOT, dims22) is None
        # the realigned CNOT has singular values (sqrt2, sqrt2, 0, 0)
        s = np.linalg.svd(_single_factor_realign(CNOT, (2, 2), 0), compute_uv=False)
        assert np.allclose(s[:2], np.sqrt(2))
        assert s[1] / s[0] > 1e-3

    def test_haar_product_recovered(self, dims222):
        rng = mk.stream(305)
        for _ in range(5):
            W = mk.kron_all([mk.haar_unitary(2, rng).mat for _ in range(3)])
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            cert = mk.is_product_operator(phase * W, dims222)
            assert cert is not None
            assert np.abs(cert.assemble() - phase * W).max() < 1e-8

    def test_haar_global_rejected(self, dims222):
        rng = mk.stream(306)
        for _ in range(5):
            W = mk.haar_unitary(8, rng).mat
            assert mk.is_product_operator(W, dims222) is None


class TestEquivalent:
    def test_local_action_preserves_class(self, dims22):
        rng = mk.stream(307)
        T = mk.random_tps(dims22, rng)
        U = local_in(T, [mk.haar_unitary(2, rng).mat, mk.haar_unitary(2, rng).mat])
        assert mk.equivalent(T, mk.act(U, T))

    def test_literal_local_on_canonical(self, dims22):
        rng = mk.stream(308)
        U = mk.UnitaryOp(np.kron(mk.haar_unitary(2, rng).mat, mk.haar_unitary(2, rng).mat))
        assert mk.equivalent(mk.canonical(dims22), mk.act(U, mk.canonical(dims22)))

    def test_swap_preserves_class(self, dims22):
        swap = mk.UnitaryOp(mk.perm_matrix((2, 2), (1, 0)))
        assert mk.equivalent(mk.canonical(dims22), mk.act(swap, mk.canonical(dims22)))

    def test_permuted_iso_equivalent(self, dims222):
        # composing the iso with a factor permutation stays in the class
        T = mk.random_tps(dims222, mk.stream(309))
        P = mk.perm_matrix((2, 2, 2), (2, 0, 1))
        T2 = mk.Tps(dims222, mk.UnitaryOp(P @ T.iso.mat))
        assert mk.equivalent(T, T2)

    def test_entangler_breaks_class(self, dims22):
        U = mk.expm_i(mk.pauli_string("XX"), np.pi / 4)
        assert not mk.equivalent(mk.canonical(dims22), mk.act(U, mk.canonical(dims22)))

    def test_unequal_dims_swap_is_error(self):
        with pytest.raises(mk.DimensionMismatch):
            mk.perm_matrix((2, 3), (1, 0))

    def test_certificate_reassembles(self, dims22):
        rng = mk.stream(310)
        T = mk.random_tps(dims22, rng)
        U = local_in(T, [mk.haar_unitary(2, rng).mat, mk.haar_unitary(2, rng).mat])
        T2 = mk.act(U, T)
        same, cert = mk.equivalent(T, T2, with_certificate=True)
        assert same
        W = T.iso.mat @ T2.iso.mat.conj().T
        P = mk.perm_matrix((2, 2), cert.permutation)
        assert np.abs(mk.kron_all(cert.factors) - P @ W).max() < 1e-8

    def test_reflexive_symmetric(self):
        rng = mk.stream(311)
        for factors in [(2, 2), (2, 3)]:
            dims = mk.Dims(factors)
            A = mk.random_tps(dims, rng)
            B = mk.random_tps(dims, rng)
            assert mk.equivalent(A, A)
            assert mk.equivalent(A, B) == mk.equivalent(B, A)

    def test_transitive_on_sampled_triples(self, dims22):
        rng = mk.stream(315)
        for _ in range(5):
            A = mk.random_tps(dims22, rng)
            B = mk.act(local_in(A, [mk.haar_unitary(2, rng).mat for _ in range(2)]), A)
            C = mk.act(local_in(B, [mk.haar_unitary(2, rng).mat for _ in range(2)]), B)
            assert mk.equivalent(A, B) and mk.equivalent(B, C)
            assert mk.equivalent(A, C)


class TestEquivalentDecision:
    @pytest.fixture
    def product_tests(self, monkeypatch):
        calls = []
        original = tps.is_product_operator

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tps, "is_product_operator", counting)
        return calls

    def test_at_most_one_product_test(self, product_tests):
        # the n! enumerator made 24 product tests on an inequivalent (2,2,2,2) pair
        dims = mk.Dims((2, 2, 2, 2))
        rng = mk.stream(316)
        T1 = mk.random_tps(dims, rng)
        assert not mk.equivalent(T1, mk.random_tps(dims, rng))
        assert len(product_tests) <= 1
        product_tests.clear()
        same, cert = mk.equivalent(T1, planted(T1, (3, 0, 1, 2), rng), with_certificate=True)
        assert same and cert.permutation == (3, 0, 1, 2)
        assert len(product_tests) == 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(factors=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=5), seed=st.integers(0, 2**16))
    def test_agrees_with_enumerator(self, factors, seed):
        dims = mk.Dims(tuple(factors))
        rng = mk.stream(seed)
        T1 = mk.random_tps(dims, rng)
        sigma = admissible_permutation(dims.factors, rng)
        T2 = planted(T1, sigma, rng)
        same, cert = mk.equivalent(T1, T2, with_certificate=True)
        assert same and cert.permutation == sigma
        assert np.abs(cert.assemble() - T1.iso.mat @ T2.iso.mat.conj().T).max() < 1e-8
        assert enumerated_equivalent(T1, T2) == (True, sigma)
        # a Haar structure, and the planted one behind a small diagonal entangler
        entangler = np.exp(1e-3j * rng.standard_normal(dims.total))
        perturbed = mk.Tps(dims, mk.UnitaryOp(entangler[:, None] * T2.iso.mat))
        for T in (mk.random_tps(dims, rng), perturbed):
            assert mk.equivalent(T1, T, with_certificate=True) == (False, None)
            assert enumerated_equivalent(T1, T) == (False, None)

    def test_svds_only_in_the_product_test(self, monkeypatch):
        calls = []
        for name in ("svd", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda *a, _name=name, _real=real, **kw: calls.append((_name, sys._getframe(1).f_code.co_name))
                or _real(*a, **kw),
            )
        dims = mk.Dims((2, 2, 3, 2))
        rng = mk.stream(318)
        T1 = mk.random_tps(dims, rng)
        for T2, same in ((planted(T1, (1, 3, 2, 0), rng), True), (mk.random_tps(dims, rng), False)):
            calls.clear()
            assert mk.equivalent(T1, T2) == same
            assert calls[: dims.n] == [("eigvalsh", "equivalent")] * dims.n
            svds = calls[dims.n :]
            assert set(svds) <= {("svd", "is_product_operator")} and len(svds) <= dims.n

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from([(2, 2), (2, 3), (2, 2, 3), (3, 3, 3), (2,) * 4, (2,) * 5, (2,) * 6]),
        seed=st.integers(0, 2**16),
    )
    def test_agrees_with_svd_slot_oracle(self, factors, seed):
        # local moves, swapped equal factors, evolved structures and Haar structures
        dims = mk.Dims(factors)
        rng = mk.stream(seed)
        T1 = mk.random_tps(dims, rng)
        H = random_hermitian(dims.total, rng)
        cases = [planted(T1, tuple(range(dims.n)), rng), planted(T1, admissible_permutation(factors, rng), rng)]
        cases += [mk.act(mk.expm_i(H, t), T1) for t in (1e-3, 0.7)] + [mk.random_tps(dims, rng)]
        for T2 in cases:
            same, cert = mk.equivalent(T1, T2, with_certificate=True)
            assert (same, cert and cert.permutation) == svd_slot_equivalent(T1, T2)

    @pytest.mark.parametrize("n", [6, 7])
    def test_many_qubits(self, n):
        dims = mk.Dims((2,) * n)
        rng = mk.stream(317, n)
        T1 = mk.random_tps(dims, rng)
        sigma = tuple((j + 1) % n for j in range(n))
        same, cert = mk.equivalent(T1, planted(T1, sigma, rng), with_certificate=True)
        assert same and cert.permutation == sigma
        assert not mk.equivalent(T1, mk.random_tps(dims, rng))


class TestRandomTps:
    def test_deterministic(self, dims22):
        a = mk.random_tps(dims22, mk.stream(99)).iso.mat
        b = mk.random_tps(dims22, mk.stream(99)).iso.mat
        assert np.array_equal(a, b)

    def test_independent_streams_distinct(self, dims22):
        # Haar pairs are almost surely inequivalent
        for k in range(20):
            A = mk.random_tps(dims22, mk.stream(312, k, 0))
            B = mk.random_tps(dims22, mk.stream(312, k, 1))
            assert not mk.equivalent(A, B)


class TestProbesAndSerialization:
    def test_product_probe_is_product(self, dims222):
        rng = mk.stream(313)
        T = mk.random_tps(dims222, rng)
        probe = mk.random_product_probe(T, rng)
        ent = mk.site_entropies(T.iso.mat @ probe.vec, dims222)
        assert ent.max() < 1e-9

    def test_json_roundtrip(self, dims22):
        T = mk.random_tps(dims22, mk.stream(314))
        back = mk.tps_from_json(mk.tps_to_json(T))
        assert np.abs(back.iso.mat - T.iso.mat).max() < 1e-15
        assert back.dims == T.dims
