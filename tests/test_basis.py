import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit.basis import coeff_tensor, matrix_from_coeffs, weight_masses, weight_tensor
from mereokit.models import SIGMA

from conftest import hs_norm_sq, random_hermitian


def brute_force_coeffs(mat, dims, site_ops=None):
    """Independent oracle: explicit kron products and trace inner products.

    ``site_ops`` holds one sequence of d^2 site operators per factor; by default
    the Gell-Mann bases of ``site_basis``.
    """
    bases = site_ops or [mk.site_basis(d).ops for d in dims.factors]
    out = np.zeros(tuple(d * d for d in dims.factors), dtype=complex)
    for alphas in np.ndindex(out.shape):
        B = mk.kron_all([bases[i][a] for i, a in enumerate(alphas)])
        out[alphas] = np.vdot(B, mat)
    return out


class TestSiteBasis:
    def test_qubit_is_scaled_paulis(self):
        b = mk.site_basis(2)
        s = 1 / np.sqrt(2)
        for got, want in zip(b.ops, [np.eye(2), SIGMA["X"], SIGMA["Y"], SIGMA["Z"]]):
            assert np.abs(got - s * want).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal(self, d):
        b = mk.site_basis(d)
        g = np.array([[np.vdot(x, y) for y in b.ops] for x in b.ops])
        assert np.abs(g - np.eye(d * d)).max() < 1e-12

    def test_d3_spans_hermitian(self):
        b = mk.site_basis(3)
        flat = np.stack([op.ravel() for op in b.ops])
        assert np.linalg.matrix_rank(flat) == 9

    def test_invalid_basis_rejected(self):
        ops = list(mk.site_basis(2).ops)
        ops[1] = ops[3]  # duplicate breaks orthonormality
        with pytest.raises(mk.InvariantViolation):
            mk.SiteBasis(2, tuple(ops))


class TestDecompose:
    def test_zx_single_coefficient(self, dims22):
        H = mk.pauli_string("ZX")
        dec = mk.decompose(H, mk.canonical(dims22))
        # oracle: brute-force inner products against explicit kron basis
        oracle = brute_force_coeffs(H.mat, dims22)
        assert np.abs(dec.coeffs - oracle).max() < 1e-12
        assert dec.coeffs[3, 1] == pytest.approx(2.0)
        rest = np.abs(dec.coeffs).sum() - abs(dec.coeffs[3, 1])
        assert rest < 1e-12

    def test_identity_weight_zero_only(self, dims22):
        dec = mk.decompose(mk.HermitianOp(np.eye(4)), mk.canonical(dims22))
        assert dec.coeffs[0, 0] == pytest.approx(2.0)
        w = weight_tensor(dims22.factors)
        assert np.abs(dec.coeffs[w > 0]).max() < 1e-12

    def test_parseval(self, dims222):
        rng = mk.stream(201)
        for _ in range(5):
            H = random_hermitian(8, rng)
            dec = mk.decompose(H, mk.canonical(dims222))
            assert hs_norm_sq(dec.coeffs) == pytest.approx(hs_norm_sq(H), rel=1e-9)

    def test_real_coefficients_for_hermitian(self, dims222):
        H = random_hermitian(8, mk.stream(202))
        dec = mk.decompose(H, mk.canonical(dims222))
        assert np.abs(dec.coeffs.imag).max() < 1e-10

    def test_dimension_mismatch(self, dims22):
        with pytest.raises(mk.DimensionMismatch):
            mk.decompose(mk.HermitianOp(np.eye(8)), mk.canonical(dims22))


class TestReconstruct:
    def test_empty_is_zero(self, dims22):
        dec = mk.Decomposition(dims22, np.zeros((4, 4)))
        assert np.abs(mk.reconstruct(dec).mat).max() == 0.0

    def test_roundtrip_random(self, dims222):
        rng = mk.stream(203)
        H = random_hermitian(8, rng)
        back = mk.reconstruct(mk.decompose(H, mk.canonical(dims222)))
        assert np.abs(back.mat - H.mat).max() < 1e-10 * (1 + np.abs(H.mat).max())

    def test_roundtrip_ising(self):
        H = mk.ising_chain(mk.IsingParams(3, 1.0, 0.7))
        dims = mk.Dims((2, 2, 2))
        back = mk.reconstruct(mk.decompose(H, mk.canonical(dims)))
        assert np.abs(back.mat - H.mat).max() < 1e-10 * (1 + np.abs(H.mat).max())

    def test_roundtrip_nonqubit(self):
        dims = mk.Dims((3, 2))
        H = random_hermitian(6, mk.stream(204))
        back = mk.reconstruct(mk.decompose(H, mk.canonical(dims)))
        assert np.abs(back.mat - H.mat).max() < 1e-10 * (1 + np.abs(H.mat).max())


def einsum_coeffs(mat, dims):
    """Reference expansion: every site in one einsum, conj(B) contracted on (row, col)."""
    n = dims.n
    rows, cols, outs = "abcd"[:n], "efgh"[:n], "ijkl"[:n]
    sites = ",".join(outs[i] + rows[i] + cols[i] for i in range(n))
    stacks = [np.stack(mk.site_basis(d).ops).conj() for d in dims.factors]
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

    def test_roundtrip_nine_qubits(self):
        # beyond the former 8-factor limit of the single-einsum expansion
        dims = mk.Dims((2,) * 9)
        H = random_hermitian(dims.total, mk.stream(209))
        dec = mk.decompose(H, mk.canonical(dims))
        assert hs_norm_sq(dec.coeffs) == pytest.approx(hs_norm_sq(H), rel=1e-9)
        back = mk.reconstruct(dec)
        assert np.abs(back.mat - H.mat).max() < 1e-10 * (1 + np.abs(H.mat).max())


class TestWeightProfile:
    def test_identity(self, dims22):
        prof = mk.weight_profile(mk.decompose(mk.HermitianOp(np.eye(4)), mk.canonical(dims22)))
        assert prof.w[0] == pytest.approx(4.0)
        assert prof.w[1:].max() < 1e-12

    def test_ising_profile(self, dims222):
        H = mk.ising_chain(mk.IsingParams(3, 1.0, 1.0))
        prof = mk.weight_profile(mk.decompose(H, mk.canonical(dims222)))
        assert prof.w[1] > 0 and prof.w[2] > 0
        assert prof.w[0] >= 0 and prof.w[3] == pytest.approx(0.0, abs=1e-12)

    def test_scrambled_weight3(self, dims222):
        rng = mk.stream(205)
        coeffs = np.zeros((4, 4, 4), dtype=complex)
        w = weight_tensor(dims222.factors)
        coeffs[w == 3] = rng.standard_normal(int((w == 3).sum()))
        H3 = mk.reconstruct(mk.Decomposition(dims222, coeffs))
        U = mk.haar_unitary(8, rng)
        scrambled = mk.HermitianOp(U.mat @ H3.mat @ U.mat.conj().T)
        prof = mk.weight_profile(mk.decompose(scrambled, mk.canonical(dims222)))
        assert prof.w[3] > 0

    def test_parseval_matches_total(self, dims222):
        H = random_hermitian(8, mk.stream(206))
        prof = mk.weight_profile(mk.decompose(H, mk.canonical(dims222)))
        assert prof.w.sum() == pytest.approx(hs_norm_sq(H), rel=1e-9)


class TestCovarianceAndBasisChoice:
    def test_conjugation_covariance(self):
        rng = mk.stream(207)
        for factors in [(2, 2), (2, 2, 2)]:
            dims = mk.Dims(factors)
            for _ in range(5):
                H = random_hermitian(dims.total, rng)
                T = mk.random_tps(dims, rng)
                U = mk.haar_unitary(dims.total, rng)
                p1 = mk.weight_profile(mk.decompose(H, T))
                HU = mk.HermitianOp(U.mat @ H.mat @ U.mat.conj().T)
                p2 = mk.weight_profile(mk.decompose(HU, mk.act(U, T)))
                assert np.abs(p1.w - p2.w).max() < 1e-9

    def test_basis_choice_independence(self):
        # any real-orthogonal recombination of the traceless part is a valid
        # site basis and must give the same weight profile
        rng = mk.stream(208)
        dims = mk.Dims((2, 3))
        H = random_hermitian(6, rng)
        alt = []
        for d in dims.factors:
            ops = list(mk.site_basis(d).ops)
            m = d * d - 1
            gauss = rng.standard_normal((m, m))
            O, _ = np.linalg.qr(gauss)
            mixed = [sum(O[a, b] * ops[1 + b] for b in range(m)) for a in range(m)]
            alt.append(mk.SiteBasis(d, tuple([ops[0]] + mixed)))
        p1 = mk.weight_profile(mk.decompose(H, mk.canonical(dims)))
        alt_coeffs = brute_force_coeffs(H.mat, dims, [b.ops for b in alt])
        p2 = weight_masses(alt_coeffs, dims.factors)
        assert np.abs(p1.w - p2).max() < 1e-9
