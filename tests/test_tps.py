import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit import tps
from mereokit.models import SIGMA
from mereokit.hilbert import PURE_TOL, _impurity, _marginals
from mereokit.tps import PRODUCT_RTOL, _equivalence_certificate, _perm_index

from conftest import random_hermitian, realign, realigned_singular_values

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


# the range of the SVD test's largest s_1 / s_0 in which the residual test may part from it
VERDICT_BAND = (0.8 * PRODUCT_RTOL, 2 * PRODUCT_RTOL)


def svd_product_operator(W, dims):
    """Reference product test, by one SVD per factor: (verdict, largest s_1 / s_0 of the (i, i)
    realignments). The verdict is s_1 / s_0 <= PRODUCT_RTOL at every factor and the kron of the top
    left singular vectors, times the fitted phase, within 10 PRODUCT_RTOL (1 + max|W|) of W."""
    factors, ratios = [], []
    for i, d in enumerate(dims.factors):
        U, s, _ = np.linalg.svd(realign(W, dims.factors, i), full_matrices=False)
        ratios.append(s[1] / s[0])
        factors.append(U[:, 0].reshape(d, d) * np.sqrt(d))
    prod = mk.kron_all(factors)
    z = np.vdot(prod, W) / np.vdot(prod, prod)
    close = np.abs(z * prod - W).max() <= 10 * PRODUCT_RTOL * (1.0 + np.abs(W).max())
    return bool(max(ratios) <= PRODUCT_RTOL and close), max(ratios)


def svd_slot_equivalent(T1, T2):
    """Reference decision: each factor's slot by the least s_1 / s_0 from one SVD per slot, then
    ``svd_product_operator``. Returns ((same, sigma or None), its largest s_1 / s_0 or None)."""
    f = T1.dims.factors
    W = T1.iso.mat @ T2.iso.mat.conj().T
    sigma = []
    for i, d in enumerate(f):
        slots = [j for j in range(len(f)) if f[j] == d]
        svs = [realigned_singular_values(W, f, i, j) for j in slots]
        sigma.append(slots[int(np.argmin([s[1] / s[0] for s in svs]))])
    if len(set(sigma)) != len(f):
        return (False, None), None
    same, ratio = svd_product_operator(mk.perm_matrix(f, tuple(sigma)) @ W, T1.dims)
    return ((True, tuple(sigma)) if same else (False, None)), ratio


def outside_band(ratio):
    return ratio is None or not VERDICT_BAND[0] <= ratio <= VERDICT_BAND[1]


class TestConstruction:
    def test_canonical_identity(self, dims22):
        T = mk.canonical(dims22)
        assert np.array_equal(T.iso.mat, np.eye(4))
        assert mk.equivalent(T, mk.canonical(dims22))

    def test_canonical_matches_plain_expansion(self, dims22):
        H = random_hermitian(4, mk.stream(301))
        coeffs = mk.decompose(H, mk.canonical(dims22))
        from test_basis import brute_force_coeffs

        assert np.abs(coeffs - brute_force_coeffs(H.mat, dims22)).max() < 1e-12

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
        p1 = mk.locality_report(H, T).weights
        HU = mk.HermitianOp(U.mat @ H.mat @ U.mat.conj().T)
        p2 = mk.locality_report(HU, mk.act(U, T)).weights
        assert np.abs(p1 - p2).max() < 1e-9


class TestProductOperator:
    def test_pauli_product(self, dims22):
        W = np.kron(SIGMA["X"], SIGMA["Y"])
        cert = mk.is_product_operator(W, dims22)
        assert cert is not None
        assert np.abs(cert.assemble() - W).max() < 1e-8

    def test_cnot_rejected(self, dims22):
        assert mk.is_product_operator(CNOT, dims22) is None
        # the realigned CNOT has singular values (sqrt2, sqrt2, 0, 0)
        s = realigned_singular_values(CNOT, (2, 2), 0)
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

    @pytest.mark.parametrize("c", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_any_scale_certified(self, dims22, c):
        # the Grams are taken after an exact power-of-two rescaling, so they neither underflow
        # nor overflow
        W = c * np.kron(SIGMA["X"], SIGMA["Z"])
        cert = mk.is_product_operator(W, dims22)
        assert cert is not None
        assert np.abs(cert.assemble() - W).max() <= 1e-14 * c

    def test_non_finite_refused_and_zero_is_none(self, dims22):
        for bad in (np.full((4, 4), np.nan), np.diag([1.0, np.inf, 1.0, 1.0])):
            with pytest.raises(mk.InvariantViolation):
                mk.is_product_operator(bad, dims22)
        assert mk.is_product_operator(np.zeros((4, 4)), dims22) is None

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 3, 3), (4, 2, 2), (2,) * 5]),
        seed=st.integers(0, 2**16),
    )
    def test_residual_against_svd_oracle(self, factors, seed):
        # planted W = (x)U_i e^{-i eps G}: outside the band the verdict is the SVD test's, and the
        # residual grows linearly in eps from about 1e-15 at eps = 0
        dims = mk.Dims(factors)
        rng = mk.stream(seed)
        L = mk.kron_all([mk.haar_unitary(d, rng).mat for d in factors])
        G = random_hermitian(dims.total, rng)
        eps = [0.0] + [10.0**-k for k in range(12, 5, -1)]
        Ws = [L @ mk.expm_i(G, e).mat for e in eps]
        for W in Ws:
            same, ratio = svd_product_operator(W, dims)
            if outside_band(ratio):
                assert (mk.is_product_operator(W, dims) is not None) == same
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tps, "PRODUCT_RTOL", 1.0)  # accept every fit, to read its residual
            res = [np.linalg.norm(mk.is_product_operator(W, dims).assemble() - W) / np.linalg.norm(W) for W in Ws]
        assert res[0] < 1e-13
        slopes = np.array(res[1:]) / eps[1:]
        assert np.ptp(slopes) <= 0.02 * slopes[-1]


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

    def test_index_maps_cached_read_only(self):
        # one index array per (factors, sigma), shared read-only; perm_matrix takes any sequence
        idx = _perm_index((2, 3, 2), (2, 1, 0))
        assert _perm_index((2, 3, 2), (2, 1, 0)) is idx and not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 1
        P = mk.perm_matrix([2, 3, 2], np.array([2, 1, 0]))
        assert np.array_equal(P, np.eye(12)[idx])
        with pytest.raises(mk.DimensionMismatch):
            mk.perm_matrix([2, 3, 2], [1, 0, 2])

    @pytest.mark.parametrize("factors", [(2, 3, 2), (2, 2), (3, 2, 2, 2)])
    def test_realignment_as_the_uncached_axis_order(self, factors):
        # W read as one state on factors + factors: its marginal on (j, n + i) is R R^dag, bit for
        # bit, R the realignment across (slot j, factor i) by the explicit axis order
        n = len(factors)
        W = random_hermitian(int(np.prod(factors)), mk.stream(311)).mat
        t = W.reshape((1,) + factors * 2)
        for i, j in itertools.product(range(n), repeat=2):
            if factors[i] != factors[j]:
                continue
            R = realign(W, factors, i, j)
            assert np.array_equal(_marginals(t, ((j, n + i),))[0, 0], R @ R.conj().T)

    def test_certificate_reassembles(self, dims22):
        rng = mk.stream(310)
        T = mk.random_tps(dims22, rng)
        U = local_in(T, [mk.haar_unitary(2, rng).mat, mk.haar_unitary(2, rng).mat])
        T2 = mk.act(U, T)
        cert = _equivalence_certificate(T, T2)
        assert cert is not None
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
        original = tps._product_certificate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tps, "_product_certificate", counting)
        return calls

    def test_at_most_one_product_test(self, product_tests):
        # the n! enumerator made 24 product tests on an inequivalent (2,2,2,2) pair; a Haar pair
        # now stops at the first entangled factor with none
        dims = mk.Dims((2, 2, 2, 2))
        rng = mk.stream(316)
        T1 = mk.random_tps(dims, rng)
        assert not mk.equivalent(T1, mk.random_tps(dims, rng))
        assert product_tests == []
        product_tests.clear()
        cert = _equivalence_certificate(T1, planted(T1, (3, 0, 1, 2), rng))
        assert cert is not None and cert.permutation == (3, 0, 1, 2)
        assert len(product_tests) == 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(factors=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=5), seed=st.integers(0, 2**16))
    def test_agrees_with_enumerator(self, factors, seed):
        dims = mk.Dims(tuple(factors))
        rng = mk.stream(seed)
        T1 = mk.random_tps(dims, rng)
        sigma = admissible_permutation(dims.factors, rng)
        T2 = planted(T1, sigma, rng)
        cert = _equivalence_certificate(T1, T2)
        assert cert is not None and cert.permutation == sigma
        assert np.abs(cert.assemble() - T1.iso.mat @ T2.iso.mat.conj().T).max() < 1e-8
        assert enumerated_equivalent(T1, T2) == (True, sigma)
        # a Haar structure, and the planted one behind a small diagonal entangler
        entangler = np.exp(1e-3j * rng.standard_normal(dims.total))
        perturbed = mk.Tps(dims, mk.UnitaryOp(entangler[:, None] * T2.iso.mat))
        for T in (mk.random_tps(dims, rng), perturbed):
            assert _equivalence_certificate(T1, T) is None
            assert enumerated_equivalent(T1, T) == (False, None)

    def test_svds_only_in_the_product_test(self, monkeypatch):
        # no SVD at all: the slot choice makes no LAPACK call, one impurity read per factor for its
        # own slot and one more over the other slots for a factor that moved, and one eigh per
        # factor dimension gives the matched Grams' top eigenvectors
        calls = []
        for name in ("svd", "eigvalsh", "eigh", "eig", "qr", "lstsq", "pinv"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda *a, _name=name, _real=real, **kw: calls.append((_name, sys._getframe(1).f_code.co_name))
                or _real(*a, **kw),
            )
        real_impurity = tps._impurity
        monkeypatch.setattr(tps, "_impurity", lambda G: calls.append(("_impurity", len(G))) or real_impurity(G))
        dims = mk.Dims((2, 2, 3, 2))
        rng = mk.stream(318)
        T1 = mk.random_tps(dims, rng)
        for sigma, moved in (((0, 1, 2, 3), 0), ((1, 3, 2, 0), 3)):
            T2 = planted(T1, sigma, rng)
            calls.clear()
            assert mk.equivalent(T1, T2)
            reads = dims.n + moved
            assert [name for name, _ in calls[:reads]] == ["_impurity"] * reads
            assert calls[reads:] == [("eigh", "_product_certificate")] * 2
        calls.clear()
        assert mk.is_product_operator(T1.iso.mat @ T2.iso.mat.conj().T, dims) is None
        assert calls == [("eigh", "_product_certificate")] * 2
        # a Haar pair is entangled from factor 0 on, in its own slot and the other qubit slots, and
        # the decision stops there, with no LAPACK call
        T3 = mk.random_tps(dims, rng)
        calls.clear()
        assert not mk.equivalent(T1, T3)
        assert calls == [("_impurity", 1), ("_impurity", 2)]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from(
            [(2, 2), (2, 3), (2, 2, 3), (2, 3, 2), (3, 2, 3), (4, 2, 2), (3, 3, 3), (2,) * 4, (2,) * 5, (2,) * 6]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_agrees_with_svd_slot_oracle(self, factors, seed):
        # local moves, swapped equal factors, structures evolved from a local move by
        # e^{-i eps H} (eps = 0 to 0.7, across the product test's threshold) and Haar
        # structures; the oracle scans every factor, so it also checks the early stop
        dims = mk.Dims(factors)
        rng = mk.stream(seed)
        T1 = mk.random_tps(dims, rng)
        H = random_hermitian(dims.total, rng)
        local = planted(T1, tuple(range(dims.n)), rng)
        cases = [local, planted(T1, admissible_permutation(factors, rng), rng), mk.random_tps(dims, rng)]
        cases += [mk.act(mk.expm_i(H, eps), local) for eps in (0.0, 1e-9, 1e-8, 1e-7, 1e-5, 1e-3, 0.1, 0.7)]
        for T2 in cases:
            cert = _equivalence_certificate(T1, T2)
            same = cert is not None
            expected, ratio = svd_slot_equivalent(T1, T2)
            if outside_band(ratio):
                assert (same, cert and cert.permutation) == expected

    @pytest.mark.parametrize("factors", [(2, 2, 2), (2, 3), (3, 3, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("moved", [False, True])
    def test_pure_tol_band_agrees_with_svd_slot_oracle(self, factors, moved):
        # W = P_sigma^T (x)U_i e^{-i eps G}, eps set so that the largest matched-slot impurity is
        # share * PURE_TOL (impurity grows as eps^2), straddling PURE_TOL, beside eps = 0 and 1e-10
        dims = mk.Dims(factors)
        rng = mk.stream(319, len(factors), moved)
        T1 = mk.random_tps(dims, rng)
        G = random_hermitian(dims.total, rng)
        sigma = admissible_permutation(factors, rng) if moved else tuple(range(dims.n))
        base = planted(T1, sigma, rng)
        n = dims.n

        def matched_impurity(T2):
            W = (T1.iso.mat @ T2.iso.mat.conj().T).reshape((1,) + factors * 2)
            return max(_impurity(_marginals(W, ((sigma[i], n + i),))[:, 0])[0] for i in range(n))

        eps0 = 1e-4
        unit = matched_impurity(mk.act(mk.expm_i(G, eps0), base))
        for share in (0.0, None, 0.5, 0.9, 1.1, 2.0):
            eps = 1e-10 if share is None else eps0 * np.sqrt(share * PURE_TOL / unit)
            T2 = mk.act(mk.expm_i(G, eps), base)
            if share:
                assert (matched_impurity(T2) <= PURE_TOL) == (share < 1)
            cert = _equivalence_certificate(T1, T2)
            expected, ratio = svd_slot_equivalent(T1, T2)
            assert outside_band(ratio) and (cert is not None, cert and cert.permutation) == expected
            assert expected[0] == (not share)

    @pytest.mark.parametrize("n", [6, 7])
    def test_many_qubits(self, n):
        dims = mk.Dims((2,) * n)
        rng = mk.stream(317, n)
        T1 = mk.random_tps(dims, rng)
        sigma = tuple((j + 1) % n for j in range(n))
        cert = _equivalence_certificate(T1, planted(T1, sigma, rng))
        assert cert is not None and cert.permutation == sigma
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
