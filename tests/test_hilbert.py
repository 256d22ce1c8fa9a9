import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit.hilbert import _from_pairs, _to_pairs
from mereokit.models import SIGMA

from conftest import random_hermitian


class TestCarriers:
    def test_dims_invariants(self):
        d = mk.Dims((2, 3, 2))
        assert d.n == 3 and d.total == 12
        with pytest.raises(mk.InvariantViolation):
            mk.Dims((2,))
        with pytest.raises(mk.InvariantViolation):
            mk.Dims((2, 1))

    def test_dims_integral_factors(self):
        assert mk.Dims((2.0, np.int64(3))).factors == (2, 3)
        for bad in [(2, 2.5), (2, float("nan")), (2, float("inf"))]:
            with pytest.raises(mk.InvariantViolation, match="integers"):
                mk.Dims(bad)

    def test_hermitian_rejects_nonhermitian(self):
        with pytest.raises(mk.InvariantViolation):
            mk.HermitianOp(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_unitary_rejects_nonunitary(self):
        with pytest.raises(mk.InvariantViolation):
            mk.UnitaryOp(2 * np.eye(3))

    def test_state_rejects_unnormalized(self):
        with pytest.raises(mk.InvariantViolation):
            mk.StateVec(np.array([1.0, 1.0]))

    def test_density_invariants(self):
        mk.DensityOp(np.eye(2) / 2)
        with pytest.raises(mk.InvariantViolation):
            mk.DensityOp(np.eye(2))  # trace 2
        with pytest.raises(mk.InvariantViolation):
            mk.DensityOp(np.diag([1.5, -0.5]).astype(complex))

    def test_arrays_are_readonly(self):
        H = mk.HermitianOp(np.eye(2))
        with pytest.raises(ValueError):
            H.mat[0, 0] = 5.0


class TestComplexPairs:
    def test_roundtrip_keeps_every_bit(self):
        a = np.array([[complex(1.5, -0.0), complex(-0.0, 2.0)], [1e-300j, -3.25 + 0.1j]])
        rows = _to_pairs(a)
        assert rows[0][1] == [-0.0, 2.0] and isinstance(rows[1][1][0], float)
        back = _from_pairs(rows)
        assert back.dtype == complex and back.shape == (2, 2)
        assert np.array_equal(back.view(float), a.view(float))
        assert np.signbit(back[0, 1].real) and np.signbit(back[0, 0].imag)
        assert np.array_equal(_from_pairs([[1, 2], [3, -4]]), np.array([1 + 2j, 3 - 4j]))

    @pytest.mark.parametrize("rows", [[[1.0, 2.0, 3.0, 4.0]], [[1.0, 2.0], [3.0]], [1.0, 2.0], []])
    def test_rejects_non_pairs(self, rows):
        with pytest.raises(ValueError):
            _from_pairs(rows)


class TestHsInner:
    def test_identity(self):
        assert mk.hs_inner(np.eye(4), np.eye(4)) == pytest.approx(4.0)

    def test_traceless_product(self):
        assert mk.hs_inner(SIGMA["X"], SIGMA["Z"]) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(mk.DimensionMismatch):
            mk.hs_inner(np.eye(2), np.eye(3))

    def test_unitary_invariance(self):
        rng = mk.stream(101)
        for _ in range(10):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            U = mk.haar_unitary(4, rng).mat
            lhs = mk.hs_inner(U @ A @ U.conj().T, U @ B @ U.conj().T)
            assert abs(lhs - mk.hs_inner(A, B)) < 1e-10 * (1 + abs(mk.hs_inner(A, B)))


class TestEig:
    def test_sigma_z(self):
        lam, V = mk.eig_hermitian(mk.HermitianOp(SIGMA["Z"]))
        assert np.allclose(lam, [-1, 1])
        # eigenvectors |1>, |0> up to phase
        assert abs(abs(V.mat[1, 0]) - 1) < 1e-12
        assert abs(abs(V.mat[0, 1]) - 1) < 1e-12

    def test_identity_degenerate(self):
        lam, V = mk.eig_hermitian(mk.HermitianOp(np.eye(2)))
        assert np.allclose(lam, [1, 1])

    def test_roundtrip(self):
        rng = mk.stream(102)
        for _ in range(5):
            H = random_hermitian(8, rng)
            lam, V = mk.eig_hermitian(H)
            rebuilt = (V.mat * lam) @ V.mat.conj().T
            scale = np.abs(H.mat).max()
            assert np.abs(rebuilt - H.mat).max() < 1e-9 * (1 + scale)
            assert np.all(np.diff(lam) >= 0)

    def test_cached_and_read_only(self):
        H = random_hermitian(4, mk.stream(105))
        assert H.eig is H.eig
        lam, V = H.eig
        for a in (lam, V):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestExpm:
    def test_zero_time(self):
        H = random_hermitian(4, mk.stream(103))
        assert np.abs(mk.expm_i(H, 0.0).mat - np.eye(4)).max() < 1e-12

    def test_sigma_z_pi(self):
        U = mk.expm_i(mk.HermitianOp(SIGMA["Z"]), np.pi)
        assert np.abs(U.mat + np.eye(2)).max() < 1e-12

    def test_group_law(self):
        rng = mk.stream(104)
        for _ in range(5):
            H = random_hermitian(6, rng)
            t, s = rng.uniform(0, 2, size=2)
            lhs = mk.expm_i(H, t).mat @ mk.expm_i(H, s).mat
            rhs = mk.expm_i(H, t + s).mat
            assert np.abs(lhs - rhs).max() < 1e-9


class TestPartialTrace:
    def test_product_state(self, dims22):
        zero = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        psi = np.kron(zero, plus)
        rho = mk.DensityOp(np.outer(psi, psi.conj()))
        red = mk.partial_trace(rho, dims22, keep=1)
        assert np.abs(red.mat - np.outer(plus, plus.conj())).max() < 1e-12

    def test_bell_marginal(self, dims22):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = mk.DensityOp(np.outer(bell, bell.conj()))
        red = mk.partial_trace(rho, dims22, keep=0)
        assert np.abs(red.mat - np.eye(2) / 2).max() < 1e-12

    def test_index_out_of_range(self, dims22):
        rho = mk.DensityOp(np.eye(4) / 4)
        with pytest.raises(mk.DimensionMismatch):
            mk.partial_trace(rho, dims22, keep=2)

    def test_local_covariance(self, dims222):
        rng = mk.stream(105)
        for _ in range(5):
            psi = mk.haar_state(8, rng)
            rho = mk.DensityOp(np.outer(psi.vec, psi.vec.conj()))
            locals_ = [mk.haar_unitary(2, rng).mat for _ in range(3)]
            L = mk.kron_all(locals_)
            rot = mk.DensityOp(L @ rho.mat @ L.conj().T)
            for i in range(3):
                lhs = mk.partial_trace(rot, dims222, keep=i).mat
                rhs = locals_[i] @ mk.partial_trace(rho, dims222, keep=i).mat @ locals_[i].conj().T
                assert np.abs(lhs - rhs).max() < 1e-10

    def test_trace_preserved(self, dims222):
        rng = mk.stream(106)
        psi = mk.haar_state(8, rng)
        rho = mk.DensityOp(np.outer(psi.vec, psi.vec.conj()))
        for i in range(3):
            red = mk.partial_trace(rho, dims222, keep=i)
            assert abs(np.trace(red.mat) - 1) < 1e-12


class TestEntropy:
    def test_pure_projector(self):
        psi = mk.haar_state(4, mk.stream(107))
        rho = mk.DensityOp(np.outer(psi.vec, psi.vec.conj()))
        assert mk.vn_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        assert mk.vn_entropy(mk.DensityOp(np.eye(2) / 2)) == pytest.approx(np.log(2), abs=1e-12)

    def test_unitary_invariance(self):
        rng = mk.stream(108)
        for _ in range(5):
            p = rng.dirichlet(np.ones(4))
            rho = mk.DensityOp(np.diag(p).astype(complex))
            U = mk.haar_unitary(4, rng)
            rotated = mk.DensityOp(U.mat @ rho.mat @ U.mat.conj().T)
            assert abs(mk.vn_entropy(rotated) - mk.vn_entropy(rho)) < 1e-9

    def test_entropy_bounds(self):
        rng = mk.stream(109)
        dims = mk.Dims((2, 3))
        psi = mk.haar_state(6, rng)
        rho = mk.DensityOp(np.outer(psi.vec, psi.vec.conj()))
        for i, d in enumerate(dims.factors):
            s = mk.vn_entropy(mk.partial_trace(rho, dims, keep=i))
            assert -1e-12 <= s <= np.log(d) + 1e-9

    def test_site_entropies_match_partial_trace(self):
        rng = mk.stream(110)
        dims = mk.Dims((2, 2, 3))
        psi = mk.haar_state(12, rng)
        rho = mk.DensityOp(np.outer(psi.vec, psi.vec.conj()))
        fast = mk.site_entropies(psi.vec, dims)
        slow = [mk.vn_entropy(mk.partial_trace(rho, dims, keep=i)) for i in range(3)]
        assert np.abs(fast - np.array(slow)).max() < 1e-9


class TestStackedSiteEntropies:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        factors=st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=3),
        lead=st.sampled_from([(), (3,), (0,), (2, 3), (1,)]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_state_and_partial_trace(self, factors, lead, seed):
        dims = mk.Dims(tuple(factors))
        rng = mk.stream(seed)
        z = rng.standard_normal(lead + (dims.total,)) + 1j * rng.standard_normal(lead + (dims.total,))
        psi = z / np.linalg.norm(z, axis=-1, keepdims=True)
        got = mk.site_entropies(psi, dims)
        assert got.shape == lead + (dims.n,)
        for idx in np.ndindex(*lead):
            one = mk.site_entropies(psi[idx], dims)
            assert np.array_equal(got[idx], one)
            rho = mk.DensityOp(np.outer(psi[idx], psi[idx].conj()))
            slow = [mk.vn_entropy(mk.partial_trace(rho, dims, keep=i)) for i in range(dims.n)]
            assert np.abs(one - np.array(slow)).max() < 1e-9

    def test_product_state_entropies_are_zero(self):
        # exact zero Schmidt coefficients contribute 0 log 0 = 0, without a warning
        dims = mk.Dims((2, 3))
        psi = np.zeros((2, 6), dtype=complex)
        psi[0, 0] = psi[1, 4] = 1.0
        assert np.array_equal(mk.site_entropies(psi, dims), np.zeros((2, 2)))

    def test_stack_dimension_mismatch(self):
        with pytest.raises(mk.DimensionMismatch):
            mk.site_entropies(np.zeros((3, 5), dtype=complex), mk.Dims((2, 2)))


class TestPurity:
    def test_values(self):
        psi = mk.haar_state(4, mk.stream(111))
        rho = mk.DensityOp(np.outer(psi.vec, psi.vec.conj()))
        assert mk.purity(rho) == pytest.approx(1.0, abs=1e-10)
        assert mk.purity(mk.DensityOp(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-12)

    def test_unitary_invariance(self):
        rng = mk.stream(112)
        p = rng.dirichlet(np.ones(4))
        rho = mk.DensityOp(np.diag(p).astype(complex))
        U = mk.haar_unitary(4, rng)
        rotated = mk.DensityOp(U.mat @ rho.mat @ U.mat.conj().T)
        assert abs(mk.purity(rotated) - mk.purity(rho)) < 1e-10


class TestHaar:
    def test_deterministic_per_stream(self):
        a = mk.haar_unitary(4, mk.stream(42)).mat
        b = mk.haar_unitary(4, mk.stream(42)).mat
        assert np.array_equal(a, b)

    def test_unitarity(self):
        U = mk.haar_unitary(6, mk.stream(113))
        assert np.abs(U.mat.conj().T @ U.mat - np.eye(6)).max() < 1e-10

    def test_entry_moment(self):
        # mean |entry|^2 over Haar samples at D=2 is exactly 1/D = 0.5
        rng = mk.stream(114)
        acc = 0.0
        n = 10_000
        for _ in range(n):
            U = mk.haar_unitary(2, rng)
            acc += float(np.abs(U.mat[0, 0]) ** 2)
        assert abs(acc / n - 0.5) < 0.02
