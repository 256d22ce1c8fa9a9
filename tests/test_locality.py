import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit.basis import weight_tensor
from mereokit.locality import k_local_residual
from mereokit.models import SIGMA

from conftest import random_hermitian


def sum_single_z(n):
    terms = []
    for i in range(n):
        terms.append(mk.kron_all([SIGMA["Z"] if j == i else SIGMA["I"] for j in range(n)]))
    return mk.HermitianOp(sum(terms))


class TestIsKLocal:
    def test_ising_two_local(self, dims222):
        H = mk.ising_chain(mk.IsingParams(3, 1.0, 1.0))
        T = mk.canonical(dims222)
        assert mk.is_k_local(H, T, 2)
        assert not mk.is_k_local(H, T, 1)

    def test_single_site_sum(self, dims222):
        assert mk.is_k_local(sum_single_z(3), mk.canonical(dims222), 1)

    def test_k_out_of_range(self, dims222):
        H = sum_single_z(3)
        with pytest.raises(mk.DimensionMismatch):
            mk.is_k_local(H, mk.canonical(dims222), 0)
        with pytest.raises(mk.DimensionMismatch):
            mk.is_k_local(H, mk.canonical(dims222), 4)

    def test_monotone_in_k(self, dims222):
        rng = mk.stream(401)
        for _ in range(5):
            H = random_hermitian(8, rng)
            T = mk.random_tps(dims222, rng)
            verdicts = [mk.is_k_local(H, T, K) for K in (1, 2, 3)]
            for a, b in zip(verdicts, verdicts[1:]):
                assert (not a) or b

    def test_scale_invariance(self, dims222):
        H = mk.ising_chain(mk.IsingParams(3, 1.0, 1.0))
        big = mk.HermitianOp(1e6 * H.mat)
        T = mk.canonical(dims222)
        assert mk.is_k_local(big, T, 2)
        assert not mk.is_k_local(big, T, 1)


class TestLocalityReport:
    def test_identity(self, dims22):
        rep = mk.locality_report(mk.HermitianOp(np.eye(4)), mk.canonical(dims22))
        assert rep.min_k == 0

    def test_scrambled_generic(self, dims222):
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(402))
        rep = mk.locality_report(H, mk.canonical(dims222))
        assert rep.min_k == 3

    def test_ising(self, dims222):
        rep = mk.locality_report(mk.ising_chain(mk.IsingParams(3, 1.0, 1.0)), mk.canonical(dims222))
        assert rep.min_k == 2

    def test_report_json(self, dims222):
        rep = mk.locality_report(mk.ising_chain(mk.IsingParams(3, 1.0, 1.0)), mk.canonical(dims222))
        obj = rep.to_json()
        assert obj["min_k"] == 2 and len(obj["weights"]) == 4


def shifted(H, c, s=1.0):
    return mk.HermitianOp(s * H.mat + c * np.eye(H.dim))


class TestOneResidual:
    """``is_k_local``, ``min_k`` and ``objective`` read the same K-local residual."""

    @pytest.mark.parametrize("c", [0.0, 1e2, 1e5, -1e5])
    def test_shifted_ising_chain(self, dims222, c):
        # weights 24 and 16 in sectors 1 and 2 whatever the shift; the identity's
        # mass (8 c^2) used to swamp the cut and report min_k 0 and 1-local
        H = shifted(mk.ising_chain(mk.IsingParams(3, 1.0, 1.0)), c)
        T = mk.canonical(dims222)
        rep = mk.locality_report(H, T)
        assert rep.min_k == 2
        assert rep.profile.w[1:] == pytest.approx([24.0, 16.0, 0.0], abs=1e-6)
        assert not mk.is_k_local(H, T, 1)
        assert mk.is_k_local(H, T, 2)
        J = mk.objective(H, mk.UnitaryOp(np.eye(8)), 1, dims222)
        assert J == pytest.approx(0.4, rel=1e-9)
        assert J == pytest.approx(k_local_residual(rep.profile.w, 1), rel=1e-9)

    def test_min_k_agrees_with_is_k_local(self, dims222):
        # masses 1, 6e-4, 6e-4 in sectors 1..3: every single sector is below tol,
        # but the weight above K = 1 is not, so min_k is 2 (it used to be 1)
        w = weight_tensor(dims222.factors)
        c = np.zeros(w.shape)
        for k, mass in ((1, 1.0), (2, 6e-4), (3, 6e-4)):
            c[tuple(np.argwhere(w == k)[0])] = np.sqrt(mass)
        H = mk.reconstruct(mk.Decomposition(dims222, c))
        T = mk.canonical(dims222)
        assert mk.locality_report(H, T, 1e-3).min_k == 2
        assert not mk.is_k_local(H, T, 1, 1e-3)
        assert mk.is_k_local(H, T, 2, 1e-3)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_tol_raises(self, dims222, tol):
        T = mk.canonical(dims222)
        for H in (mk.ising_chain(mk.IsingParams(3, 1.0, 1.0)), mk.HermitianOp(np.eye(8))):
            with pytest.raises(mk.DimensionMismatch, match="tol"):
                mk.locality_report(H, T, tol)
            with pytest.raises(mk.DimensionMismatch, match="tol"):
                mk.is_k_local(H, T, 2, tol)

    def test_identity_outcomes(self, dims222):
        T = mk.canonical(dims222)
        H = mk.HermitianOp(3.0 * np.eye(8))
        assert mk.locality_report(H, T).min_k == 0
        assert all(mk.is_k_local(H, T, K) for K in (1, 2, 3))
        with pytest.raises(mk.ObjectiveUndefined):
            mk.objective(H, mk.UnitaryOp(np.eye(8)), 1, dims222)

    @settings(max_examples=60, deadline=None)
    @given(
        factors=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 3)]),
        seed=st.integers(0, 2**16),
        c=st.floats(-1e5, 1e5),
        s=st.floats(0.1, 10.0),
        data=st.data(),
    )
    def test_invariant_under_scale_and_shift(self, factors, seed, c, s, data):
        # s is kept within a decade of 1: with |c| = 1e5 a much smaller s leaves
        # the non-constant weight below 1e-14 of the total, where H counts as ∝ I
        dims = mk.Dims(factors)
        K = data.draw(st.integers(1, dims.n))
        H = mk.random_klocal(dims, K, mk.stream(seed))
        T = mk.canonical(dims)
        min_k = mk.locality_report(H, T).min_k
        assert min_k == K
        moved = shifted(H, c, s)
        assert mk.locality_report(moved, T).min_k == min_k
        for k in range(1, dims.n + 1):
            assert mk.is_k_local(moved, T, k) == mk.is_k_local(H, T, k) == (k >= min_k)
        assert mk.is_k_local(moved, T, min_k)
        if min_k >= 2:
            assert not mk.is_k_local(moved, T, min_k - 1)


class TestConjugationCovariance:
    def test_identity_unitary(self, dims22):
        H = random_hermitian(4, mk.stream(403))
        T = mk.canonical(dims22)
        assert mk.conjugation_covariance_check(H, T, mk.UnitaryOp(np.eye(4)))

    def test_random(self, dims22):
        rng = mk.stream(404)
        for _ in range(5):
            H = random_hermitian(4, rng)
            T = mk.random_tps(dims22, rng)
            U = mk.haar_unitary(4, rng)
            assert mk.conjugation_covariance_check(H, T, U, tol=1e-9)

    def test_evolution_unitary(self, dims222):
        H = mk.ising_chain(mk.IsingParams(3, 1.0, 1.0))
        U = mk.expm_i(H, 0.7)
        assert mk.conjugation_covariance_check(H, mk.canonical(dims222), U, tol=1e-9)


class TestOneLocalEvolution:
    def test_one_local_stays_product(self, dims22):
        H = mk.HermitianOp(np.kron(SIGMA["Z"], np.eye(2)) + np.kron(np.eye(2), SIGMA["X"]))
        T = mk.canonical(dims22)
        probes = [mk.random_product_probe(T, mk.stream(405, k)) for k in range(4)]
        grid = np.linspace(0, 2 * np.pi, 32)
        verdict = mk.one_local_evolution_check(H, T, grid, probes)
        assert verdict.consistent
        assert verdict.max_entropy < 1e-7

    def test_xx_witness_at_quarter_pi(self, dims22):
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        verdict = mk.one_local_evolution_check(H, T, [0.0, np.pi / 4], [probe])
        assert not verdict.consistent
        w = verdict.witness
        assert w.t == pytest.approx(np.pi / 4)
        assert w.probe_index == 0
        # evolved state is a Bell state; oracle entropy log 2
        assert w.entropy == pytest.approx(np.log(2), abs=1e-9)

    def test_empty_grid_vacuous(self, dims22):
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        assert mk.one_local_evolution_check(H, T, [], [probe]).consistent

    def test_non_product_probe_rejected(self, dims22):
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        bell = mk.StateVec(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        with pytest.raises(mk.InvariantViolation):
            mk.one_local_evolution_check(H, T, [0.1], [bell])

    def test_witness_is_lexicographically_first(self, dims22):
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        p0 = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        verdict = mk.one_local_evolution_check(H, T, [0.0, 0.3, 0.5], [p0, p0])
        assert verdict.witness.t == pytest.approx(0.3)
        assert verdict.witness.probe_index == 0


class TestStatisticalDirections:
    def test_forward_one_local_never_witnesses(self):
        # 1-local pairs, scrambled jointly so the TPS is not just canonical
        rng = mk.stream(406)
        for factors in [(2, 2), (2, 2, 2)]:
            dims = mk.Dims(factors)
            for _ in range(3):
                H0 = mk.random_klocal(dims, 1, rng)
                U = mk.haar_unitary(dims.total, rng)
                H = mk.HermitianOp(U.mat @ H0.mat @ U.mat.conj().T)
                T = mk.act(U, mk.canonical(dims))
                probes = [mk.random_product_probe(T, rng) for _ in range(4)]
                grid = mk.default_time_grid(H, 16)
                v = mk.one_local_evolution_check(H, T, grid, probes)
                assert v.consistent and v.max_entropy < 1e-7

    def test_converse_generic_witnessed(self):
        rng = mk.stream(407)
        found = 0
        trials = 10
        for k in range(trials):
            dims = mk.Dims((2, 2) if k % 2 else (2, 2, 2))
            H = mk.random_klocal(dims, 2, rng)
            T = mk.random_tps(dims, rng)
            probes = [mk.random_product_probe(T, rng) for _ in range(4)]
            grid = mk.default_time_grid(H, 32)
            if not mk.one_local_evolution_check(H, T, grid, probes).consistent:
                found += 1
        assert found >= trials - 1


def looped_scan(H, T, t_grid, probes, threshold=mk.locality.WITNESS_ENTROPY):
    """The per-(t, probe) scan both evolution checks ran before they were batched.

    Returns the first (t, probe index, entropy) above the threshold, or None, and
    the largest site entropy seen up to it.
    """
    lam, V = H.eig
    max_seen = 0.0
    for t in t_grid:
        phases = np.exp(-1j * float(t) * lam)
        for j, p in enumerate(probes):
            evolved = V @ (phases * (V.conj().T @ p.vec))
            ent = float(mk.site_entropies(T.iso.mat @ evolved, T.dims).max())
            max_seen = max(max_seen, ent)
            if ent > threshold:
                return (float(t), j, ent), max_seen
    return None, max_seen


def looped_nonlocal_time(H, T, t_grid, probes):
    """The first grid time the looped scan flags and the equivalence test confirms."""
    for t in t_grid:
        hit, _ = looped_scan(H, T, [t], probes)
        if hit is not None and not mk.equivalent(mk.act(mk.expm_i(H, float(t)), T), T):
            return float(t)
    return None


class TestBatchedScansMatchLoops:
    @pytest.mark.parametrize("factors,K", [((2, 2), 1), ((2, 2, 2), 1), ((2, 3), 1),
                                           ((2, 2), 2), ((2, 2, 2), 2), ((2, 3), 2)])
    def test_same_witness_and_max_entropy(self, factors, K):
        dims = mk.Dims(factors)
        for k in range(3):
            rng = mk.stream(408, K, dims.total, k)
            H0 = mk.random_klocal(dims, K, rng)
            U = mk.haar_unitary(dims.total, rng)
            H = mk.HermitianOp(U.mat @ H0.mat @ U.mat.conj().T)
            T = mk.act(U, mk.canonical(dims))
            probes = [mk.random_product_probe(T, rng) for _ in range(3)]
            grid = mk.default_time_grid(H, 24)
            ref, ref_max = looped_scan(H, T, grid, probes)
            assert (ref is None) == (K == 1)
            v = mk.one_local_evolution_check(H, T, grid, probes)
            assert abs(v.max_entropy - ref_max) <= 1e-12
            if ref is None:
                assert v.consistent and v.witness is None
            else:
                assert (v.witness.t, v.witness.probe_index) == ref[:2]
                assert abs(v.witness.entropy - ref[2]) <= 1e-12
            hit = mk.find_nonlocal_symmetry(H, T, grid, probes)
            assert (None if hit is None else hit[0]) == looped_nonlocal_time(H, T, grid, probes)
