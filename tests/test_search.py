import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit.basis import weight_tensor
from mereokit.search import _spectral_gradient, _spectral_point

from conftest import random_hermitian

# the package re-exports the function ``search``, which shadows the module
search_mod = importlib.import_module("mereokit.search")


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
        H = mk.HermitianOp(scale * mk.ising_chain(mk.IsingParams(3, 1.0, 1.0)).mat)
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
        # Hellmann-Feynman gradient of the spectral mismatch vs central differences
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
            g = _spectral_gradient(W, r, mask, dims)
            for _ in range(3):
                d = rng.standard_normal(x.size)
                fd = (
                    _spectral_point(x + eps * d, c, mask, lam, dims)[0]
                    - _spectral_point(x - eps * d, c, mask, lam, dims)[0]
                ) / (2 * eps)
                an = float(g @ d)
                assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an), 1e-12)

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
        # L(x) is assembled once per spectral point; nothing else reassembles
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(845))
        calls = {"matrix_from_coeffs": 0, "_spectral_point": 0}

        def counting(name):
            fn = getattr(search_mod, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(search_mod, name, counting(name))
        res = mk.search(H, dims222, mk.SearchConfig(K=2, restarts=4, seed=845))
        assert calls["_spectral_point"] > 0
        assert calls["matrix_from_coeffs"] == calls["_spectral_point"]
        assert res.iterations == 0
        assert len(res.restart_residuals) == 4
        assert res.trace == ((0, min(res.restart_residuals)),)

    @settings(max_examples=30, deadline=None)
    @given(factors=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4), seed=st.integers(0, 2**16))
    def test_scrambled_two_local_converges_and_certifies(self, factors, seed):
        dims = mk.Dims(tuple(factors))
        H, _ = mk.scrambled_klocal(dims, 2, mk.stream(seed))
        res = mk.search(H, dims, mk.SearchConfig(K=2, restarts=1, seed=seed))
        assert res.converged
        assert mk.certify(H, res, 2, 1e-6)

    @settings(max_examples=30, deadline=None)
    @given(factors=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4), seed=st.integers(0, 2**16))
    def test_scrambled_one_local_certify_agrees(self, factors, seed):
        # K = 1 is a sum-set matching problem with local minima, so only the
        # verdict's consistency and the monotone trace are properties here
        dims = mk.Dims(tuple(factors))
        H, _ = mk.scrambled_klocal(dims, 1, mk.stream(seed))
        res = mk.search(H, dims, mk.SearchConfig(K=1, restarts=1, seed=seed))
        assert mk.certify(H, res, 1, 1e-6) == res.converged
        residuals = [r for _, r in res.trace]
        assert all(b <= a for a, b in zip(residuals, residuals[1:]))


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
        res = mk.search(H, dims222, mk.SearchConfig(K=1, restarts=2, seed=3))
        assert res.residual == pytest.approx(2.84e-3, rel=1e-2)
        assert not res.converged
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

