import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit.basis import coeff_tensor, klocal_mask, matrix_from_coeffs, weight_masses, weight_tensor
from mereokit.models import SIGMA

from conftest import hs_norm_sq, random_hermitian


def brute_force_coeffs(mat, dims, site_ops=None):
    """Independent oracle: explicit kron products and trace inner products.

    ``site_ops`` holds one sequence of d^2 site operators per factor; by default
    the Gell-Mann bases of ``site_basis``.
    """
    bases = site_ops or [mk.site_basis(d) for d in dims.factors]
    out = np.zeros(tuple(d * d for d in dims.factors), dtype=complex)
    for alphas in np.ndindex(out.shape):
        B = mk.kron_all([bases[i][a] for i, a in enumerate(alphas)])
        out[alphas] = np.vdot(B, mat)
    return out


class TestSiteBasis:
    def test_qubit_is_scaled_paulis(self):
        b = mk.site_basis(2)
        s = 1 / np.sqrt(2)
        for got, want in zip(b, [np.eye(2), SIGMA["X"], SIGMA["Y"], SIGMA["Z"]]):
            assert np.abs(got - s * want).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_orthonormal(self, d):
        b = mk.site_basis(d)
        assert b.shape == (d * d, d, d)
        g = np.array([[np.vdot(x, y) for y in b] for x in b])
        assert np.abs(g - np.eye(d * d)).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_identity_first_then_hermitian_traceless(self, d):
        b = mk.site_basis(d)
        assert np.abs(b[0] - np.eye(d) / np.sqrt(d)).max() < 1e-12
        assert np.abs(b - b.conj().swapaxes(1, 2)).max() < 1e-12
        assert np.abs(np.trace(b[1:], axis1=1, axis2=2)).max() < 1e-12

    def test_read_only(self):
        b = mk.site_basis(3)
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0, 0] = 0.0

    def test_d3_spans_hermitian(self):
        b = mk.site_basis(3)
        flat = np.stack([op.ravel() for op in b])
        assert np.linalg.matrix_rank(flat) == 9


class TestDecompose:
    def test_zx_single_coefficient(self, dims22):
        H = mk.pauli_string("ZX")
        coeffs = mk.decompose(H, mk.canonical(dims22))
        # oracle: brute-force inner products against explicit kron basis
        oracle = brute_force_coeffs(H.mat, dims22)
        assert np.abs(coeffs - oracle).max() < 1e-12
        assert coeffs[3, 1] == pytest.approx(2.0)
        rest = np.abs(coeffs).sum() - abs(coeffs[3, 1])
        assert rest < 1e-12

    def test_identity_weight_zero_only(self, dims22):
        coeffs = mk.decompose(mk.HermitianOp(np.eye(4)), mk.canonical(dims22))
        assert coeffs[0, 0] == pytest.approx(2.0)
        w = weight_tensor(dims22.factors)
        assert np.abs(coeffs[w > 0]).max() < 1e-12

    def test_parseval(self, dims222):
        rng = mk.stream(201)
        for _ in range(5):
            H = random_hermitian(8, rng)
            coeffs = mk.decompose(H, mk.canonical(dims222))
            assert hs_norm_sq(coeffs) == pytest.approx(hs_norm_sq(H), rel=1e-9)

    def test_real_coefficients_for_hermitian(self, dims222):
        H = random_hermitian(8, mk.stream(202))
        coeffs = mk.decompose(H, mk.canonical(dims222))
        assert np.abs(coeffs.imag).max() < 1e-10

    def test_dimension_mismatch(self, dims22):
        with pytest.raises(mk.DimensionMismatch):
            mk.decompose(mk.HermitianOp(np.eye(8)), mk.canonical(dims22))


def roundtrip(H, dims):
    """H expanded in the canonical structure of dims and reassembled."""
    return mk.matrix_from_coeffs(mk.decompose(H, mk.canonical(dims)), dims)


class TestMatrixFromCoeffs:
    def test_empty_is_zero(self, dims22):
        assert np.abs(mk.matrix_from_coeffs(np.zeros((4, 4)), dims22)).max() == 0.0

    def test_roundtrip_random(self, dims222):
        rng = mk.stream(203)
        H = random_hermitian(8, rng)
        assert np.abs(roundtrip(H, dims222) - H.mat).max() < 1e-10 * (1 + np.abs(H.mat).max())

    def test_roundtrip_ising(self):
        H = mk.ising_chain(3, 1.0, 0.7)
        back = roundtrip(H, mk.Dims((2, 2, 2)))
        assert np.abs(back - H.mat).max() < 1e-10 * (1 + np.abs(H.mat).max())

    def test_roundtrip_nonqubit(self):
        H = random_hermitian(6, mk.stream(204))
        back = roundtrip(H, mk.Dims((3, 2)))
        assert np.abs(back - H.mat).max() < 1e-10 * (1 + np.abs(H.mat).max())

    @pytest.mark.parametrize("call, shape, factors, match", [
        (lambda a, f: mk.matrix_from_coeffs(a, mk.Dims(f)), (9, 4), (2, 3), "coefficient shape"),
        (lambda a, f: mk.matrix_from_coeffs(a, mk.Dims(f)), (16,), (2, 2), "coefficient shape"),
        (weight_masses, (3, 3), (2, 2), "coefficient shape"),
        (lambda a, f: coeff_tensor(a, mk.Dims(f)), (8, 8), (2, 2), "matrix shape"),
        (lambda a, f: coeff_tensor(a, mk.Dims(f)), (4, 6), (2, 2), "matrix shape"),
    ], ids=["9x4-for-2x3", "16-for-2x2", "weight_masses-3x3-for-2x2", "coeff_tensor-8x8-for-2x2",
            "coeff_tensor-4x6-for-2x2"])
    def test_refuses_a_tensor_not_shaped_by_the_dims(self, call, shape, factors, match):
        # (9, 4) holds as many entries as (4, 9), and (16,) as (4, 4): each reshapes without error;
        # the other three once raised numpy's own errors, which name no shape
        with pytest.raises(mk.DimensionMismatch, match=match):
            call(np.ones(shape), factors)


def einsum_coeffs(mat, dims):
    """Reference expansion: every site in one einsum, conj(B) contracted on (row, col)."""
    n = dims.n
    rows, cols, outs = "abcd"[:n], "efgh"[:n], "ijkl"[:n]
    sites = ",".join(outs[i] + rows[i] + cols[i] for i in range(n))
    stacks = [mk.site_basis(d).conj() for d in dims.factors]
    t = mat.reshape(dims.factors * 2)
    return np.einsum(f"{rows}{cols},{sites}->{outs}", t, *stacks, optimize=True)


small_factors = st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=4).filter(
    lambda f: int(np.prod(f)) <= 64
)


class TestKernel:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(factors=small_factors, seed=st.integers(0, 2**16))
    def test_matches_einsum_adjoint_and_roundtrip(self, factors, seed):
        dims = mk.Dims(tuple(factors))
        D = dims.total
        rng = mk.stream(seed)
        A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        shape = tuple(d * d for d in factors)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs = coeff_tensor(A, dims)
        assert coeffs.shape == shape
        scale = np.abs(A).max()
        assert np.abs(coeffs - einsum_coeffs(A, dims)).max() < 1e-12 * D * scale
        lhs = np.vdot(A, matrix_from_coeffs(c, dims))
        rhs = np.vdot(coeffs, c)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))
        assert np.abs(matrix_from_coeffs(coeffs, dims) - A).max() < 1e-12 * D * scale

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(factors=small_factors, batch=st.sampled_from([(), (3,), (2, 3)]), K=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_batched_forms_and_klocal_mask(self, factors, batch, K, seed):
        # a batched call is the stacked unbatched calls, and round-trips A. The reassembly is so
        # within an eps, not bit for bit: batch and strides change the shapes and layouts numpy's
        # matmul hands to BLAS (or keeps in its own loop), and at a qutrit site its 9-term sums
        # then round differently, by up to 0.74 eps max|A| over qubit and qudit dims to D = 64
        f = tuple(factors)
        dims, D, shape = mk.Dims(f), int(np.prod(f)), tuple(d * d for d in f)
        rng = mk.stream(seed)
        A = rng.standard_normal(batch + (D, D)) + 1j * rng.standard_normal(batch + (D, D))
        coeffs = coeff_tensor(A, dims)
        back = matrix_from_coeffs(coeffs, dims)
        assert coeffs.shape == batch + shape and back.shape == A.shape
        for i in np.ndindex(batch):
            assert coeffs[i].tobytes() == coeff_tensor(A[i], dims).tobytes()
            assert np.abs(back[i] - matrix_from_coeffs(coeffs[i], dims)).max() <= 4 * np.finfo(float).eps * np.abs(A).max()
        assert np.abs(back - A).max() < 1e-12 * D * np.abs(A).max()
        # the one K-local set: the weight-1..K band, cached and read-only
        K = min(K, len(f))
        mask, w = klocal_mask(f, K), weight_tensor(f)
        assert np.array_equal(mask, (w >= 1) & (w <= K)) and klocal_mask(f, K) is mask
        with pytest.raises(ValueError):
            mask[...] = True

    def test_roundtrip_nine_qubits(self):
        # beyond the former 8-factor limit of the single-einsum expansion
        dims = mk.Dims((2,) * 9)
        H = random_hermitian(dims.total, mk.stream(209))
        coeffs = mk.decompose(H, mk.canonical(dims))
        assert hs_norm_sq(coeffs) == pytest.approx(hs_norm_sq(H), rel=1e-9)
        back = mk.matrix_from_coeffs(coeffs, dims)
        assert np.abs(back - H.mat).max() < 1e-10 * (1 + np.abs(H.mat).max())


class TestWeightProfile:
    def test_identity(self, dims22):
        w = weight_masses(mk.decompose(mk.HermitianOp(np.eye(4)), mk.canonical(dims22)), dims22.factors)
        assert w[0] == pytest.approx(4.0)
        assert w[1:].max() < 1e-12

    def test_ising_profile(self, dims222):
        H = mk.ising_chain(3, 1.0, 1.0)
        w = weight_masses(mk.decompose(H, mk.canonical(dims222)), dims222.factors)
        assert w[1] > 0 and w[2] > 0
        assert w[0] >= 0 and w[3] == pytest.approx(0.0, abs=1e-12)

    def test_scrambled_weight3(self, dims222):
        rng = mk.stream(205)
        coeffs = np.zeros((4, 4, 4), dtype=complex)
        w = weight_tensor(dims222.factors)
        coeffs[w == 3] = rng.standard_normal(int((w == 3).sum()))
        H3 = mk.matrix_from_coeffs(coeffs, dims222)
        U = mk.haar_unitary(8, rng)
        scrambled = mk.HermitianOp(U.mat @ H3 @ U.mat.conj().T)
        assert weight_masses(mk.decompose(scrambled, mk.canonical(dims222)), dims222.factors)[3] > 0

    def test_parseval_matches_total(self, dims222):
        H = random_hermitian(8, mk.stream(206))
        w = weight_masses(mk.decompose(H, mk.canonical(dims222)), dims222.factors)
        assert w.sum() == pytest.approx(hs_norm_sq(H), rel=1e-9)


class TestCovarianceAndBasisChoice:
    def test_conjugation_covariance(self):
        rng = mk.stream(207)
        for factors in [(2, 2), (2, 2, 2)]:
            dims = mk.Dims(factors)
            for _ in range(5):
                H = random_hermitian(dims.total, rng)
                T = mk.random_tps(dims, rng)
                U = mk.haar_unitary(dims.total, rng)
                p1 = weight_masses(mk.decompose(H, T), factors)
                HU = mk.HermitianOp(U.mat @ H.mat @ U.mat.conj().T)
                p2 = weight_masses(mk.decompose(HU, mk.act(U, T)), factors)
                assert np.abs(p1 - p2).max() < 1e-9

    def test_basis_choice_independence(self):
        # any real-orthogonal recombination of the traceless part is a valid
        # site basis and must give the same weight profile
        rng = mk.stream(208)
        dims = mk.Dims((2, 3))
        H = random_hermitian(6, rng)
        alt = []
        for d in dims.factors:
            ops = mk.site_basis(d)
            m = d * d - 1
            gauss = rng.standard_normal((m, m))
            O, _ = np.linalg.qr(gauss)
            alt.append(np.concatenate([ops[:1], np.tensordot(O, ops[1:], axes=1)]))
        p1 = weight_masses(mk.decompose(H, mk.canonical(dims)), dims.factors)
        alt_coeffs = brute_force_coeffs(H.mat, dims, alt)
        p2 = weight_masses(alt_coeffs, dims.factors)
        assert np.abs(p1 - p2).max() < 1e-9
