import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit.basis import weight_masses, weight_tensor
from mereokit import locality
from mereokit.hilbert import PURE_TOL
from mereokit.locality import LOCALITY_RTOL, k_local_residual
from mereokit.models import SIGMA

from conftest import hs_norm_sq, random_hermitian


def sum_single_z(n):
    terms = []
    for i in range(n):
        terms.append(mk.kron_all([SIGMA["Z"] if j == i else SIGMA["I"] for j in range(n)]))
    return mk.HermitianOp(sum(terms))


class TestIsKLocal:
    def test_ising_two_local(self, dims222):
        H = mk.ising_chain(3, 1.0, 1.0)
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
        H = mk.ising_chain(3, 1.0, 1.0)
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
        rep = mk.locality_report(mk.ising_chain(3, 1.0, 1.0), mk.canonical(dims222))
        assert rep.min_k == 2

    @pytest.mark.parametrize(
        "scale,in_range", [(1e-150, True), (1e150, True), (1e-160, False), (1e-170, False), (1e160, False)]
    )
    @pytest.mark.filterwarnings("error")
    def test_scale_outside_float_range_raises(self, dims222, scale, in_range):
        # at 1e160 the squared coefficients overflow to inf, which puts every mass under the
        # floor; at 1e-170 they underflow to 0. Neither may read as H ∝ I (min_k 0). At 1e-160
        # the masses are subnormal: sector 1 read 2.39997e-319, not 2.4e-319.
        H = mk.HermitianOp(scale * mk.ising_chain(3, 1.0, 1.0).mat)
        T = mk.canonical(dims222)
        if in_range:
            assert mk.locality_report(H, T).min_k == 2 and mk.is_k_local(H, T, 2)
            return
        with pytest.raises(mk.ScaleOutOfRange):
            mk.locality_report(H, T)
        with pytest.raises(mk.ScaleOutOfRange):
            mk.is_k_local(H, T, 2)

    def test_report_json(self, dims222):
        rep = mk.locality_report(mk.ising_chain(3, 1.0, 1.0), mk.canonical(dims222))
        obj = rep.to_json()
        assert obj["min_k"] == 2 and len(obj["weights"]) == 4

    @pytest.mark.parametrize("factors", [(2, 3, 4), (2,) * 7])
    def test_weights_are_the_read_only_masses(self, factors):
        dims = mk.Dims(factors)
        rng = mk.stream(406)
        H, T = random_hermitian(dims.total, rng), mk.random_tps(dims, rng)
        w = mk.locality_report(H, T).weights
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0
        assert w.tobytes() == weight_masses(mk.decompose(H, T), dims.factors).tobytes()


def shifted(H, c, s=1.0):
    return mk.HermitianOp(s * H.mat + c * np.eye(H.dim))


class TestOneResidual:
    """``is_k_local``, ``min_k`` and ``objective`` read the same K-local residual."""

    @pytest.mark.parametrize("c", [0.0, 1e2, 1e5, -1e5, 3e7, 1e10, 1e12, -1e14])
    def test_shifted_ising_chain(self, dims222, c):
        # weights 24 and 16 in sectors 1 and 2 whatever the shift; the identity's
        # mass (8 c^2) must neither swamp them nor round them away
        H = shifted(mk.ising_chain(3, 1.0, 1.0), c)
        T = mk.canonical(dims222)
        rep = mk.locality_report(H, T)
        assert rep.min_k == 2
        assert rep.weights[1:] == pytest.approx([24.0, 16.0, 0.0], abs=1e-6)
        assert not mk.is_k_local(H, T, 1)
        assert mk.is_k_local(H, T, 2)
        J = mk.objective(H, mk.UnitaryOp(np.eye(8)), 1, dims222)
        assert J == pytest.approx(0.4, rel=1e-9)
        assert J == pytest.approx(k_local_residual(rep.weights, 1), rel=1e-9)

    def test_min_k_agrees_with_is_k_local(self, dims222):
        # masses 1, 6e-4, 6e-4 in sectors 1..3: every single sector is below tol,
        # but the weight above K = 1 is not, so min_k is 2 (it used to be 1)
        w = weight_tensor(dims222.factors)
        c = np.zeros(w.shape)
        for k, mass in ((1, 1.0), (2, 6e-4), (3, 6e-4)):
            c[tuple(np.argwhere(w == k)[0])] = np.sqrt(mass)
        H = mk.HermitianOp(mk.matrix_from_coeffs(c, dims222))
        T = mk.canonical(dims222)
        assert mk.locality_report(H, T, 1e-3).min_k == 2
        assert not mk.is_k_local(H, T, 1, 1e-3)
        assert mk.is_k_local(H, T, 2, 1e-3)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_tol_raises(self, dims222, tol):
        T = mk.canonical(dims222)
        for H in (mk.ising_chain(3, 1.0, 1.0), mk.HermitianOp(np.eye(8))):
            with pytest.raises(mk.DimensionMismatch, match="tol"):
                mk.locality_report(H, T, tol)
            with pytest.raises(mk.DimensionMismatch, match="tol"):
                mk.is_k_local(H, T, 2, tol)

    def test_identity_outcomes(self):
        # c I stays ∝ I in a Haar-conjugated frame too: the rounding floor absorbs its noise
        for n, c in itertools.product((3, 5, 7), (3.0, -1e12)):
            dims = mk.Dims((2,) * n)
            T = mk.canonical(dims)
            H = mk.HermitianOp(c * np.eye(dims.total))
            assert mk.locality_report(H, T).min_k == 0
            assert all(mk.is_k_local(H, T, K) for K in range(1, n + 1))
            for V in (mk.UnitaryOp(np.eye(dims.total)), mk.haar_unitary(dims.total, mk.stream(n))):
                with pytest.raises(mk.ObjectiveUndefined):
                    mk.objective(H, V, 1, dims)
                assert mk.locality_report(H, mk.Tps(dims, V)).min_k == 0

    def test_certify_reads_the_objective(self, dims222):
        # a ZZZ term with 8e-22 of the non-constant mass: certify and converged must
        # threshold that one number (a coefficient cut once hid it from is_k_local)
        delta = np.sqrt(4e-21)
        H = mk.HermitianOp(mk.ising_chain(3, 1.0, 1.0).mat
                           + delta * mk.pauli_string("ZZZ").mat)
        T = mk.canonical(dims222)
        J = mk.objective(H, T.iso, 2, dims222)
        assert J == pytest.approx(8.0e-22, rel=1e-6)
        for tol in (1e-25, 1e-21):
            result = mk.SearchResult(T, J, 0, ((0, J),), J <= tol, (J,))
            assert mk.is_k_local(H, T, 2, tol) == mk.certify(H, result, 2, tol) == (J <= tol)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 3)]),
        seed=st.integers(0, 2**16),
        c=st.sampled_from([0.0, 1e5, -1e5, 3e7, 1e10, 1e12]),
        tol=st.sampled_from([1e-25, 1e-9, 0.3]),
        data=st.data(),
    )
    def test_large_shifts(self, factors, seed, c, tol, data):
        # each sector's root mass within 1e-6 relative, or within sqrt(D) eps |c|: storing
        # H + c I rounds each diagonal entry by up to ulp(c) / 2, which alone moves the
        # weights of a (2, 2, 2) instance by about 4e-6 relative at c = 1e12
        dims = mk.Dims(factors)
        K = data.draw(st.integers(1, dims.n))
        H = mk.random_klocal(dims, K, mk.stream(seed))
        T = mk.canonical(dims)
        moved = shifted(H, c)
        rep = mk.locality_report(moved, T)
        assert rep.min_k == K
        slack = np.sqrt(dims.total) * np.finfo(float).eps * abs(c)
        want = np.sqrt(mk.locality_report(H, T).weights[1:])
        assert np.sqrt(rep.weights[1:]) == pytest.approx(want, rel=1e-6, abs=slack)
        for k in range(1, dims.n + 1):
            J = mk.objective(moved, T.iso, k, dims)
            assert mk.is_k_local(moved, T, k, tol) == (J <= tol)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 3)]),
        seed=st.integers(0, 2**16),
        c=st.floats(-1e5, 1e5),
        s=st.floats(0.1, 10.0),
        data=st.data(),
    )
    def test_invariant_under_scale_and_shift(self, factors, seed, c, s, data):
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
    @staticmethod
    def assert_covariant(H, T, U, tol=LOCALITY_RTOL):
        # the profiles of (H, T) and (U H U^dag, U T) agree entrywise
        p1 = mk.locality_report(H, T).weights
        HU = mk.HermitianOp(U.mat @ H.mat @ U.mat.conj().T)
        p2 = mk.locality_report(HU, mk.act(U, T)).weights
        assert np.abs(p1 - p2).max() <= tol * (1.0 + hs_norm_sq(H))

    def test_identity_unitary(self, dims22):
        H = random_hermitian(4, mk.stream(403))
        T = mk.canonical(dims22)
        self.assert_covariant(H, T, mk.UnitaryOp(np.eye(4)))

    def test_random(self, dims22):
        rng = mk.stream(404)
        for _ in range(5):
            H = random_hermitian(4, rng)
            T = mk.random_tps(dims22, rng)
            U = mk.haar_unitary(4, rng)
            self.assert_covariant(H, T, U, tol=1e-9)

    def test_evolution_unitary(self, dims222):
        H = mk.ising_chain(3, 1.0, 1.0)
        U = mk.expm_i(H, 0.7)
        self.assert_covariant(H, mk.canonical(dims222), U, tol=1e-9)


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
        # an empty grid shows nothing, and the residual still decides
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        v = mk.one_local_evolution_check(H, T, [], [probe])
        assert not v.consistent and v.witness is None

    def test_zz_on_half_period_grid(self, dims22):
        # e^{-i pi ZZ / 2} = -i Z (x) Z is local, so the grid [0, pi/2] entangles no probe
        H = mk.pauli_string("ZZ")
        T = mk.canonical(dims22)
        probes = [mk.random_product_probe(T, mk.stream(409, k)) for k in range(4)]
        v = mk.one_local_evolution_check(H, T, [0.0, np.pi / 2], probes)
        assert not v.consistent and v.witness is None and v.max_entropy < 1e-9
        t, U = mk.find_nonlocal_symmetry(H, T)
        assert t == pytest.approx(np.pi / 4) and not mk.equivalent(mk.act(U, T), T)

    def test_operator_dim_unlike_the_structure_rejected(self, dims22):
        # an 8 x 8 H on a 4-dim structure once reached numpy's matmul ValueError
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(mk.DimensionMismatch, match="operator dim 8 != product dim 4"):
            mk.one_local_evolution_check(mk.pauli_string("XXX"), mk.canonical(dims22), [0.1], [probe])

    @pytest.mark.parametrize("grid", [[np.nan, np.inf], [0.0, np.nan]])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_grid_rejected(self, dims22, grid):
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(mk.DimensionMismatch, match="finite"):
            mk.one_local_evolution_check(mk.pauli_string("XX"), mk.canonical(dims22), grid, [probe])

    def test_non_product_probe_rejected(self, dims22):
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        bell = mk.StateVec(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        with pytest.raises(mk.InvariantViolation):
            mk.one_local_evolution_check(H, T, [0.1], [bell])

    def test_nan_probe_entropy_rejected(self, dims22, monkeypatch):
        # a NaN impurity passes an ``impurity > tol`` check; the product-probe check must refuse it
        real = locality._impurity
        monkeypatch.setattr(locality, "_impurity", lambda rho: real(rho) * np.nan)
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(mk.InvariantViolation, match=r"probe 0 is not a product state \(impurity nan\)"):
            mk.one_local_evolution_check(mk.pauli_string("XX"), mk.canonical(dims22), [0.1], [probe])

    @pytest.mark.parametrize("share, accepted", [(0.9, True), (1.1, False)])
    def test_product_probe_band_edge(self, dims22, share, accepted):
        # sqrt(1 - p) |00> + sqrt(p) |11> has qubit marginals diag(1 - p, p), of impurity 2 p (1 - p),
        # here share * PURE_TOL; at 0.9 its site entropy, about 1e-8 nats, lies in the band that an
        # entropy bound of 1e-9 nats refused
        p = (1 - np.sqrt(1 - 2 * share * PURE_TOL)) / 2
        probe = mk.StateVec(np.array([np.sqrt(1 - p), 0, 0, np.sqrt(p)], dtype=complex))
        check = lambda: mk.one_local_evolution_check(mk.pauli_string("XX"), mk.canonical(dims22), [0.1], [probe])
        if accepted:
            # inside the band stated in ``_evolved_entropies``: above the old 1e-9 nats, below 1.2e-8
            assert 1e-9 < mk.site_entropies(probe, dims22).max() < 1.2e-8
            assert check().witness is not None
        else:
            with pytest.raises(mk.InvariantViolation, match=r"probe 0 is not a product state \(impurity 1\.1"):
                check()

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
            if mk.one_local_evolution_check(H, T, grid, probes).witness is not None:
                found += 1
        assert found >= trials - 1


def looped_scan(H, T, t_grid, probes, threshold=mk.locality.WITNESS_ENTROPY):
    """The per-(t, probe) scan the evolution check ran before it was batched.

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


def near_one_local(dims, eps, seed):
    """A 1-local operator plus eps times a 2-local one."""
    rng = mk.stream(seed)
    return mk.HermitianOp(mk.random_klocal(dims, 1, rng).mat + eps * mk.random_klocal(dims, 2, rng).mat)


def entropy_allowed(H, T, t):
    """Largest site entropy e^{-itH} can give a product probe in T. With N the weight >= 2 part
    of H, e^{-itH} stays within t |N| <= t sqrt(r) |H - tr H / D|_F of the product state
    e^{-it(H - N)} probe (r the 1-local residual), so the marginal's top eigenvalue is at least
    1 - p, p = (that distance)^2, and its entropy at most h(p) + p ln(d - 1)."""
    r = k_local_residual(mk.locality_report(H, T).weights, 1)
    dist = t * np.sqrt(r) * np.linalg.norm(H.mat - np.trace(H.mat) / H.dim * np.eye(H.dim))
    d = max(T.dims.factors)
    p = min(dist**2, (d - 1) / d)
    return -p * np.log(p) - (1 - p) * np.log1p(-p) + p * np.log(d - 1)


class TestVerdictIsTheResidual:
    """The verdict is ``is_k_local(H, T, 1)`` whatever the grid; the grid only adds a witness."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3)]),
        kind=st.sampled_from([1, 2, 1e-6, 1e-5, 3e-5, 1e-4, 1e-3]),  # K, or eps near threshold
        grid=st.sampled_from(["default", "empty", 1, 2, 4]),  # or 8 times spaced by that many pi/2
        seed=st.integers(0, 2**16),
    )
    def test_verdict_and_symmetry_follow_residual(self, factors, kind, grid, seed):
        dims = mk.Dims(factors)
        if kind in (1, 2):
            H0 = mk.random_klocal(dims, kind, mk.stream(seed))
        else:
            H0 = near_one_local(dims, kind, seed)
        U = mk.haar_unitary(dims.total, mk.stream(seed, 1))
        H = mk.HermitianOp(U.mat @ H0.mat @ U.mat.conj().T)
        T = mk.act(U, mk.canonical(dims))
        probes = [mk.random_product_probe(T, mk.stream(seed, 2, k)) for k in range(2)]
        if grid == "default":
            t_grid = mk.default_time_grid(H, 32)
        elif grid == "empty":
            t_grid = []
        else:
            t_grid = np.arange(8) * grid * np.pi / 2
        local = mk.is_k_local(H, T, 1)
        v = mk.one_local_evolution_check(H, T, t_grid, probes)
        assert v.consistent == local
        if v.witness is not None and v.consistent:
            # a grid long enough outruns the tolerance: H is within LOCALITY_RTOL of 1-local,
            # and the witness entropy is what that remainder allows by time t
            assert v.witness.entropy <= entropy_allowed(H, T, v.witness.t)
        hit = mk.find_nonlocal_symmetry(H, T)
        assert (hit is None) == local
        if hit is not None:
            t, W = hit
            assert np.abs(W.mat @ H.mat - H.mat @ W.mat).max() <= 1e-9 * (1.0 + np.abs(H.mat).max())
            assert not mk.equivalent(mk.act(W, T), T)
