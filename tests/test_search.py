import importlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit.basis import matrix_from_coeffs, weight_tensor
from mereokit.search import _MAX_REJECTIONS, _spectral_jacobian, _spectral_point

from conftest import projector_jacobian, random_hermitian

# the package re-exports the function ``search``, which shadows the module
search_mod = importlib.import_module("mereokit.search")

# (factors, K) from {2, 3, 4}, 2-4 factors and K = 2..n, on both sides of the dense assembly's
# crossover, up to D^3 P = 5e6 (P the weight-1..K coefficient count), where the map is a few MB
ASSEMBLY_CASES = [
    (f, K) for n in (2, 3, 4) for f in product((2, 3, 4), repeat=n) for K in range(2, n + 1)
    if np.prod(f) ** 3 * ((weight_tensor(f) >= 1) & (weight_tensor(f) <= K)).sum() <= 5e6
]


class TestObjective:
    def test_zero_for_local_identity_frame(self, dims222):
        H = mk.random_klocal(dims222, 2, mk.stream(801))
        V = mk.UnitaryOp(np.eye(8))
        assert mk.objective(H, V, 2, dims222) == pytest.approx(0.0, abs=1e-14)

    def test_exact_unwinding(self, dims222):
        H, V0 = mk.scrambled_klocal(dims222, 2, mk.stream(802))
        J = mk.objective(H, mk.UnitaryOp(V0.mat.conj().T), 2, dims222)
        assert J < 1e-12

    def test_scrambled_positive(self, dims222):
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(803))
        J = mk.objective(H, mk.UnitaryOp(np.eye(8)), 2, dims222)
        assert 0 < J <= 1

    def test_identity_undefined(self, dims22):
        with pytest.raises(mk.ObjectiveUndefined):
            mk.objective(mk.HermitianOp(np.eye(4)), mk.UnitaryOp(np.eye(4)), 1, dims22)

    def test_constant_shift_invariant(self, dims222):
        # the identity component never contributes
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(804))
        shifted = mk.HermitianOp(H.mat + 3.7 * np.eye(8))
        V = mk.haar_unitary(8, mk.stream(804, 1))
        a = mk.objective(H, V, 2, dims222)
        b = mk.objective(shifted, V, 2, dims222)
        assert a == pytest.approx(b, rel=1e-10)


class TestSearch:
    def test_already_local_fast_path(self, dims222):
        H = mk.random_klocal(dims222, 2, mk.stream(809))
        res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=1, max_iters=50))
        assert res.converged
        assert res.residual < 1e-12
        assert res.trace[0] == (0, res.trace[0][1])
        assert res.trace[0][1] < 1e-12

    def test_scrambled_recovery(self, dims222):
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(810))
        res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=8, max_iters=500, seed=810))
        assert res.converged
        assert res.residual < 1e-6
        assert mk.certify(H, res, 2, 1e-6)

    def test_generic_not_one_localizable(self, dims222):
        # generic instances never reach the success threshold; the residual
        # floor itself is evidence, logged rather than pinned per instance
        rng = mk.stream(812)
        H = random_hermitian(8, rng)
        res = mk.search(H, dims222, mk.SearchConfig(K=1, restarts=3, max_iters=150, seed=812))
        assert not res.converged
        assert res.residual > 1e-3
        print(f"generic K=1 residual floor: {res.residual:.3e}")

    def test_deterministic(self, dims222):
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(813))
        cfg = mk.SearchConfig(K=2, restarts=3, max_iters=100, seed=99)
        a = mk.search(H, dims222, cfg)
        b = mk.search(H, dims222, cfg)
        assert a.residual == b.residual
        assert np.array_equal(a.tps.iso.mat, b.tps.iso.mat)

    def test_pooled_restart_success_rate(self, dims222):
        # statistical acceptance over 3 instances here (10 in the acceptance
        # suite); the per-instance distribution is logged
        succeeded = total = 0
        dist = []
        for k in range(3):
            H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(818, k))
            res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=8, max_iters=2000, seed=818 + k))
            finals = res.restart_residuals
            s = sum(1 for f in finals if f < 1e-6)
            succeeded += s
            total += len(finals)
            dist.append(s)
        print(f"restart successes per instance: {dist}")
        assert succeeded * 8 >= total * 7

    def test_config_validation(self):
        with pytest.raises(mk.DimensionMismatch):
            mk.SearchConfig(K=0)
        for value in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(mk.DimensionMismatch, match="success_residual"):
                mk.SearchConfig(K=2, success_residual=value)

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_scale_refused_before_the_match(self, dims222, scale):
        # at 1e160 the norms of the spectrum match overflowed, with a RuntimeWarning, before
        # the residual's masses raised; at 1e-160 the masses are subnormal
        H = mk.HermitianOp(scale * mk.ising_chain(3, 1.0, 1.0).mat)
        with pytest.raises(mk.ScaleOutOfRange):
            mk.search(H, dims222, mk.SearchConfig(K=2, restarts=1))

    def test_result_json(self, dims222):
        H = mk.random_klocal(dims222, 2, mk.stream(814))
        res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=1, max_iters=10))
        obj = res.to_json()
        assert set(obj) >= {"residual", "iterations", "converged", "trace", "tps_dims"}


class TestSpectrumMatch:
    @pytest.mark.parametrize("factors,seed", [((2, 2, 2), 840), ((2, 2, 3), 841)])
    def test_gradient_finite_difference_match(self, factors, seed):
        # Hellmann-Feynman gradient 2 J^T r of the spectral mismatch f = |r|^2 vs central differences
        dims = mk.Dims(factors)
        w = weight_tensor(factors)
        mask = (w >= 1) & (w <= 2)
        rng = mk.stream(seed)
        lam = np.sort(rng.standard_normal(dims.total))
        c = np.where(w == 0, lam.sum() / np.sqrt(dims.total), 0.0)
        eps = 1e-6
        for _ in range(5):
            x = rng.standard_normal(int(mask.sum()))
            _, W, r = _spectral_point(x, c, mask, lam, dims)
            assert np.diff(r + lam).min() > 1e-3  # L(x) non-degenerate, so f is smooth at x
            g = 2.0 * (r @ _spectral_jacobian(W, dims, 2))
            for _ in range(3):
                d = rng.standard_normal(x.size)
                fd = (
                    _spectral_point(x + eps * d, c, mask, lam, dims)[0]
                    - _spectral_point(x - eps * d, c, mask, lam, dims)[0]
                ) / (2 * eps)
                an = float(g @ d)
                assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an), 1e-12)

    @pytest.mark.parametrize("factors,K", [((2, 2, 2), 2), ((2, 2, 3), 2), ((3, 3, 3), 2), ((2,) * 5, 3)])
    def test_jacobian_matches_projector_oracle(self, factors, K):
        # the support-built J against the expansions of the D projectors
        dims = mk.Dims(factors)
        w = weight_tensor(factors)
        mask = (w >= 1) & (w <= K)
        rng = mk.stream(846, dims.total, K)
        _, W = np.linalg.eigh(random_hermitian(dims.total, rng).mat)
        J = _spectral_jacobian(W, dims, K)
        assert J.shape == (dims.total, int(mask.sum()))
        assert np.abs(J - projector_jacobian(W, dims, K)).max() <= 1e-12

    @pytest.mark.parametrize("H", [
        mk.pauli_string("ZZI"), mk.pauli_string("XXXX"), mk.ising_chain(4, 1.0, 0.7),
    ], ids=["ZZI", "XXXX", "ising4"])
    def test_degenerate_spectrum_converges(self, H):
        # J J^T loses rank at a degenerate L(x); with no floor on the damping the solve
        # raised LinAlgError on ZZI and XXXX
        dims = mk.Dims((2,) * int(round(np.log2(H.dim))))
        cfg = mk.SearchConfig(K=2, restarts=4, seed=1)
        res = mk.search(H, dims, cfg)
        assert res.converged
        assert mk.certify(H, res, 2, cfg.success_residual) == res.converged

    def _count_spectral_points(self, monkeypatch, transform=None):
        calls = [0]
        point = search_mod._spectral_point

        def wrapped(*args):
            calls[0] += 1
            out = point(*args)
            return out if transform is None else transform(calls[0], out)

        monkeypatch.setattr(search_mod, "_spectral_point", wrapped)
        return calls

    @pytest.mark.parametrize("factors", [(2, 2, 2), (2, 2, 3), (2, 2, 2, 2)])
    def test_levenberg_marquardt_work_count(self, factors, monkeypatch):
        # L-BFGS took medians of 14, 16 and 24.5 spectral points (one eigh each) on these instances
        dims = mk.Dims(factors)
        calls = self._count_spectral_points(monkeypatch)
        counts = []
        for k in range(20):
            H, _ = mk.scrambled_klocal(dims, 2, mk.stream(847, k))
            calls[0] = 0
            assert mk.search(H, dims, mk.SearchConfig(K=2, restarts=1, seed=k)).converged
            counts.append(calls[0])
        print(f"spectral points per search at {factors}: {counts}")
        assert max(counts) <= 8

    def test_rejection_bound(self, dims222, monkeypatch):
        # one iteration evaluates at most _MAX_REJECTIONS trial points after the first point;
        # when every trial is rejected the match stops there, however many iterations remain
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(848))
        calls = self._count_spectral_points(monkeypatch)
        mk.search(H, dims222, mk.SearchConfig(K=2, restarts=3, max_iters=1, seed=848))
        assert calls[0] <= 3 * (1 + _MAX_REJECTIONS)
        reject_all_trials = lambda i, out: out if i == 1 else (np.inf,) + out[1:]  # noqa: E731
        calls = self._count_spectral_points(monkeypatch, reject_all_trials)
        res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=1, seed=848))
        assert calls[0] == 1 + _MAX_REJECTIONS
        assert len(res.restart_residuals) == 1

    @pytest.mark.parametrize("factors,seed", [((2, 2, 2, 2), 842), ((2,) * 6, 843)])
    def test_scrambled_converges_with_one_restart(self, factors, seed):
        dims = mk.Dims(factors)
        H, _ = mk.scrambled_klocal(dims, 2, mk.stream(seed))
        res = mk.search(H, dims, mk.SearchConfig(K=2, restarts=1, seed=seed))
        assert res.converged
        assert mk.certify(H, res, 2, 1e-6)

    def test_every_restart_runs(self, dims222):
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(844))
        res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=4, seed=844))
        assert len(res.restart_residuals) == 4
        assert all(r < 1e-6 for r in res.restart_residuals)

    def test_one_reassembly_per_spectral_point(self, dims222, monkeypatch):
        # L(x) is assembled once per spectral point, by matrix_from_coeffs above the crossover and
        # as B @ x through the basis map below it; nothing else reassembles. The map is itself one
        # batched matrix_from_coeffs, built once per (factors, K) and cached, so it is built first
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(845))
        search_mod._basis_map(dims222.factors, 2)
        calls = {"matrix_from_coeffs": 0, "_spectral_point": 0, "B @ x": 0}

        def counting(name):
            fn = getattr(search_mod, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        class CountedMap(np.ndarray):  # counts the products that take the map on the left
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                calls["B @ x"] += ufunc is np.matmul and inputs[0] is self
                return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

        for name in ("matrix_from_coeffs", "_spectral_point"):
            monkeypatch.setattr(search_mod, name, counting(name))
        basis_map = search_mod._basis_map
        monkeypatch.setattr(search_mod, "_basis_map", lambda *key: basis_map(*key).view(CountedMap))
        for dense_max, path in ((0.0, "matrix_from_coeffs"), (np.inf, "B @ x")):
            monkeypatch.setattr(search_mod, "_DENSE_MAX", dense_max)
            calls.update(dict.fromkeys(calls, 0))
            res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=4, seed=845))
            assert calls["_spectral_point"] > 0
            assert calls[path] == calls["_spectral_point"]
            assert sum(calls.values()) == 2 * calls["_spectral_point"]  # the other path's count is 0
            assert res.iterations == 0
            assert len(res.restart_residuals) == 4
            assert res.trace == ((0, min(res.restart_residuals)),)

    def test_dense_assembly_below_the_crossover(self):
        # D^3 P = 2.7e5 at (2,2,2,2), K = 2 takes the basis map; 3.4e6 at (2,)*5 the marginals
        assert search_mod._dense_map(mk.Dims((2, 2, 2, 2)), 2) is search_mod._basis_map((2, 2, 2, 2), 2)
        assert search_mod._dense_map(mk.Dims((2,) * 5), 2) is None

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=st.sampled_from(ASSEMBLY_CASES))
    def test_dense_and_marginal_assemblies_agree(self, case):
        factors, K = case
        dims, D = mk.Dims(factors), int(np.prod(factors))
        w = weight_tensor(factors)
        mask = (w >= 1) & (w <= K)
        rng = mk.stream(849, *factors, K)
        x, lam = rng.standard_normal(int(mask.sum())), np.sort(rng.standard_normal(D))
        B = search_mod._basis_map(factors, K)
        try:
            c = np.zeros(w.shape)
            c[mask] = x
            L = matrix_from_coeffs(c, dims)
            assert np.abs((B @ x).view(complex).reshape(D, D) - L).max() <= 1e-12 * np.abs(L).max()
            c = np.where(w == 0, 1.7, 0.0)  # with a weight-0 part
            _, W, r = _spectral_point(x, c.copy(), mask, lam, dims)
            rd = _spectral_point(x, c.copy(), mask, lam, dims, B)[2]
            assert np.abs(rd - r).max() <= 1e-12 * np.abs(r + lam).max()
            J = _spectral_jacobian(W, dims, K)
            assert np.abs(_spectral_jacobian(W, dims, K, B) - J).max() <= 1e-12 * np.abs(J).max()
            H, _ = mk.scrambled_klocal(dims, K, mk.stream(849, *factors, K))
            converged = []
            with pytest.MonkeyPatch.context() as mp:
                for dense_max in (0.0, np.inf):
                    mp.setattr(search_mod, "_DENSE_MAX", dense_max)
                    converged.append(mk.search(H, dims, mk.SearchConfig(K=K, restarts=1, seed=849)).converged)
            assert converged[0] == converged[1]
        finally:
            search_mod._basis_map.cache_clear()  # one map per case would stay cached

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(factors=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4), seed=st.integers(0, 2**16))
    def test_scrambled_two_local_converges_and_certifies(self, factors, seed):
        dims = mk.Dims(tuple(factors))
        H, _ = mk.scrambled_klocal(dims, 2, mk.stream(seed))
        res = mk.search(H, dims, mk.SearchConfig(K=2, restarts=1, seed=seed))
        assert res.converged
        assert mk.certify(H, res, 2, 1e-6)


def near_threshold(dims, eps, rng):
    """A scrambled 1-local + eps 2-local operator and the residual of its planted structure."""
    L = mk.random_klocal(dims, 1, rng).mat + eps * mk.random_klocal(dims, 2, rng).mat
    U = mk.haar_unitary(dims.total, rng).mat
    H = mk.HermitianOp(U @ L @ U.conj().T)
    return H, mk.objective(H, mk.UnitaryOp(U.conj().T), 1, dims)


def planted_fraction(dims, f, seed):
    """A random 1-local operator plus a weight-2 part that holds the fraction f of its
    non-constant mass, conjugated by a Haar unitary: its planted structure reads residual f."""
    rng = mk.stream(9, seed, dims.n)
    w = weight_tensor(dims.factors)
    c, c2 = np.zeros(w.shape), np.zeros(w.shape)
    c[w == 1] = rng.standard_normal(int((w == 1).sum()))
    c2[w == 2] = rng.standard_normal(int((w == 2).sum()))
    c += c2 * np.sqrt(f / (1 - f) * (c ** 2).sum() / (c2 ** 2).sum())
    U = mk.haar_unitary(dims.total, rng).mat
    return mk.HermitianOp(U @ matrix_from_coeffs(c, dims) @ U.conj().T)


class TestFactoring:
    """K = 1: the spectrum factored into site spectra."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(factors=st.one_of(st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=4),
                             st.integers(2, 8).map(lambda n: [2] * n)),
           seed=st.integers(0, 2**16))
    def test_scrambled_one_local_converges_and_certifies(self, factors, seed):
        dims = mk.Dims(tuple(factors))
        H, _ = mk.scrambled_klocal(dims, 1, mk.stream(seed))
        res = mk.search(H, dims, mk.SearchConfig(K=1, restarts=1, seed=seed))
        assert res.converged
        assert mk.certify(H, res, 1, 1e-6)

    @pytest.mark.parametrize("factors", [(2,) * 10, (2, 3, 4), (4, 4, 4), (3, 2, 3, 2)])
    def test_site_spectra_of_a_planted_sum_set(self, factors):
        # an exact sum set factors back into one of its own; at D = 1024 a recursion per value
        # would pass Python's default recursion limit of 1000
        def sum_set(spectra):  # the ascending sums, one value of each site's spectrum
            n = len(spectra)
            sums = sum(np.reshape(A, (-1,) + (1,) * (n - 1 - i)) for i, A in enumerate(spectra))
            return np.sort(sums.ravel())

        rng = mk.stream(860, len(factors))
        lam = sum_set([rng.standard_normal(d) for d in factors])
        spectra = search_mod._site_spectra(lam, factors)
        assert [len(A) for A in spectra] == list(factors)
        assert np.abs(sum_set(spectra) - (lam - lam[0])).max() <= 1e-9

    @pytest.mark.parametrize("H", [
        mk.pauli_string("ZZI"), mk.pauli_string("XXXX"), mk.ising_chain(4, 1.0, 0.0),
    ], ids=["ZZI", "XXXX", "ising4_h0"])
    def test_degenerate_spectrum_converges(self, H):
        dims = mk.Dims((2,) * int(round(np.log2(H.dim))))
        res = mk.search(H, dims, mk.SearchConfig(K=1, seed=1))
        assert res.converged
        assert mk.certify(H, res, 1, 1e-6)

    @pytest.mark.parametrize("factors", [(2, 2, 2), (3, 3), (2, 3, 4)])
    def test_gue_refused_in_the_given_frame(self, factors):
        dims = mk.Dims(factors)
        for k in range(3):
            H = random_hermitian(dims.total, mk.stream(861, dims.total, k))
            res = mk.search(H, dims, mk.SearchConfig(K=1, restarts=5, seed=k))
            assert not res.converged and not mk.certify(H, res, 1, 1e-6)
            # one factoring, whatever restarts says
            assert len(res.restart_residuals) == 1 and res.residual >= 1e-5

    @pytest.mark.parametrize("factors", [(2, 2, 2), (2, 2, 3), (3, 3), (2, 3, 3), (3, 3, 3), (3, 3, 3, 3)])
    def test_near_threshold_converges_below_success_residual(self, factors):
        # 1-local + eps 2-local, scrambled: whenever the planted structure certifies, the
        # search converges (it may also find another structure that certifies)
        dims = mk.Dims(factors)
        planted_ok = 0
        for j, eps in enumerate((1e-4, 3e-4, 1e-3)):
            for k in range(3):
                H, planted = near_threshold(dims, eps, mk.stream(862, dims.total, j, k))
                res = mk.search(H, dims, mk.SearchConfig(K=1, seed=k))
                assert mk.certify(H, res, 1, 1e-6) == res.converged
                if planted <= 1e-6:
                    planted_ok += 1
                    assert res.converged
        assert planted_ok >= 3

    @pytest.mark.parametrize("factors,eps,k,which", [
        ((3, 3), 1e-3, 9, 2), ((3, 3), 1e-3, 15, 1), ((2, 3, 3), 1e-3, 17, 1), ((3, 3, 3, 3), 3e-4, 1, 1),
    ])
    def test_each_tolerance_is_needed(self, factors, eps, k, which):
        # near-threshold inputs whose planted structure misses 1e-6 (residuals 1.2e-6 to 9e-6) but
        # which have another structure that certifies; a greedy matcher with a fixed window
        # (u, 4 u, 2 sqrt(D) u) factors each into it at the one window `which` only, as match
        # errors add and a wide window takes wrong matches. One tolerance-free factoring does all
        dims = mk.Dims(factors)
        H, _ = near_threshold(dims, eps, mk.stream(950, dims.total, k))
        res = mk.search(H, dims, mk.SearchConfig(K=1))
        assert len(res.restart_residuals) == 1 and res.residual <= 1e-6
        assert res.converged and mk.certify(H, res, 1, 1e-6)

    @pytest.mark.parametrize("factors,f,seed", [((2,) * 8, 0.5e-6, 9), ((3,) * 5, 0.5e-6, 3),
                                                ((4,) * 4, 0.5e-6, 0)])
    def test_planted_fraction_converges(self, factors, f, seed):
        # planted structures that certify, at D >= 243; at (3,)*5 and (4,)*4 near-degenerate
        # values swap against their pending sums, so matching a value whenever the least pending
        # sum is nearer it than the next value splits the spectrum wrongly
        dims = mk.Dims(factors)
        H = planted_fraction(dims, f, seed)
        res = mk.search(H, dims, mk.SearchConfig(K=1))
        assert res.converged and mk.certify(H, res, 1, 1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(factors=st.one_of(st.integers(3, 7).map(lambda n: (2,) * n),
                             st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=4).map(tuple)
                             .filter(lambda f: 8 <= np.prod(f) <= 128)),
           f=st.sampled_from([0.5e-6, 0.9e-6]), seed=st.integers(0, 2**16))
    def test_near_threshold_converges_gue_does_not_exact_reads_zero(self, factors, f, seed):
        # D >= 8: over 300 GUE inputs each, (2,2) came within 5.7e-6 of a sum set and (2,3) 1.1e-5
        dims, cfg = mk.Dims(factors), mk.SearchConfig(K=1)
        H = planted_fraction(dims, f, seed)
        res = mk.search(H, dims, cfg)
        assert res.converged and mk.certify(H, res, 1, 1e-6)
        G = random_hermitian(dims.total, mk.stream(seed, 1))
        res = mk.search(G, dims, cfg)
        assert not res.converged and not mk.certify(G, res, 1, 1e-6) and res.residual >= 1e-5
        H, _ = mk.scrambled_klocal(dims, 1, mk.stream(seed, 2))
        assert mk.search(H, dims, cfg).residual == 0.0


class TestCertify:
    def test_successful_recovery(self, dims222):
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(815))
        res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=8, max_iters=500, seed=815))
        assert mk.certify(H, res, 2, 1e-6) == (res.residual <= 1e-6)

    def test_failed_search(self, dims222):
        rng = mk.stream(816)
        H = random_hermitian(8, rng)
        res = mk.search(H, dims222, mk.SearchConfig(K=1, restarts=2, max_iters=100, seed=816))
        assert not mk.certify(H, res, 1, 1e-6)

    @pytest.mark.parametrize("shift", [0.0, 1e2, 1e4])
    def test_shifted_gue_certify_agrees(self, dims222, shift):
        # the GUE drawn by the CLI's {"name": "gue", "dims": [2, 2, 2]} under seed 3; at
        # shift 1e4 certify used to measure the tail against the identity's mass and pass
        G = random_hermitian(8, mk.stream(3, 1))
        H = mk.HermitianOp(G.mat + shift * np.eye(8))
        cfg = mk.SearchConfig(K=1, restarts=2, seed=3)
        res = mk.search(H, dims222, cfg)
        assert not res.converged
        assert res.residual == pytest.approx(mk.search(G, dims222, cfg).residual, rel=1e-9)
        assert not mk.certify(H, res, 1, 1e-6)

    @pytest.mark.parametrize("factors", [(2, 2), (2, 2, 2), (2, 3), (2, 2, 3)])
    def test_certify_equals_converged(self, factors):
        # scrambled K-local and generic instances, shifted and not, K = 1 and 2
        dims = mk.Dims(factors)
        verdicts = set()
        for k, (K, shift) in enumerate([(1, 0.0), (1, 1e4), (2, 0.0), (2, -1e3)]):
            for scrambled in (True, False):
                rng = mk.stream(850, dims.total, k)
                H = mk.scrambled_klocal(dims, K, rng)[0] if scrambled else random_hermitian(dims.total, rng)
                H = mk.HermitianOp(H.mat + shift * np.eye(dims.total))
                cfg = mk.SearchConfig(K=K, restarts=2, seed=k)
                res = mk.search(H, dims, cfg)
                assert mk.certify(H, res, K, cfg.success_residual) == res.converged
                verdicts.add(res.converged)
        assert verdicts == {True, False}

    def test_invariant_under_local_postcomposition(self, dims222):
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(817))
        res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=8, max_iters=500, seed=817))
        rng = mk.stream(817, 1)
        L = mk.kron_all([mk.haar_unitary(2, rng).mat for _ in range(3)])
        moved = mk.Tps(dims222, mk.UnitaryOp(L @ res.tps.iso.mat))
        assert mk.is_k_local(H, moved, 2, 1e-6) == mk.is_k_local(H, res.tps, 2, 1e-6)

