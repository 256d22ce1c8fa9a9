import numpy as np
import pytest

import mereokit as mk
from mereokit.basis import weight_tensor
from mereokit.models import SIGMA

from conftest import hs_norm_sq


def canonical_site(op, i, n):
    return mk.kron_all([op if j == i else SIGMA["I"] for j in range(n)])


def loop_jw_dual(n):
    """Reference: one row per basis state b, the n-fold kron of |+> where bit i of b equals
    bit i - 1 (bit -1 being 0) and |-> where it differs."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    W = np.zeros((2**n, 2**n))
    for b in range(2**n):
        bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
        W[b, :] = mk.kron_all([plus if bit == prev else minus for prev, bit in zip([0] + bits, bits)]).real
    return W


def bond_product_ising(n, J, h):
    """Reference: each bond term as the matrix product of two single-site Z's."""
    H = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n - 1):
        H += J * canonical_site(SIGMA["Z"], i, n) @ canonical_site(SIGMA["Z"], i + 1, n)
    for i in range(n):
        H += h * canonical_site(SIGMA["X"], i, n)
    return H


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_forms_match_references(n):
    assert np.array_equal(mk.jw_dual_tps(n).iso.mat, loop_jw_dual(n))
    for J, h in [(0.731, 1.213), (1.0, 1.0), (-2.5, 0.0)]:
        assert np.array_equal(mk.ising_chain(n, J, h).mat, bond_product_ising(n, J, h))


class TestIsingChain:
    def test_zz_only(self):
        H = mk.ising_chain(2, 1.0, 0.0)
        assert np.abs(H.mat - np.kron(SIGMA["Z"], SIGMA["Z"])).max() < 1e-12
        assert np.allclose(np.linalg.eigvalsh(H.mat), [-1, -1, 1, 1])

    def test_field_only(self):
        H = mk.ising_chain(2, 0.0, 1.0)
        want = np.kron(SIGMA["X"], np.eye(2)) + np.kron(np.eye(2), SIGMA["X"])
        assert np.abs(H.mat - want).max() < 1e-12
        assert np.allclose(np.linalg.eigvalsh(H.mat), [-2, 0, 0, 2])

    def test_two_local(self, dims222):
        H = mk.ising_chain(3, 1.0, 1.0)
        assert mk.locality_report(H, mk.canonical(dims222)).min_k == 2

    def test_params_validated(self):
        with pytest.raises(mk.InvariantViolation, match="n >= 2"):
            mk.ising_chain(1, 1.0, 1.0)


class TestDualTps:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_strings_map_to_z(self, n):
        T = mk.jw_dual_tps(n)
        W = T.iso.mat
        for i in range(n):  # the string variable X_0 X_1 ... X_i
            conj = W @ mk.pauli_string("X" * (i + 1) + "I" * (n - i - 1)).mat @ W.conj().T
            assert np.abs(conj - canonical_site(SIGMA["Z"], i, n)).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_bond_operators_map_to_x(self, n):
        T = mk.jw_dual_tps(n)
        W = T.iso.mat
        for i in range(n - 1):
            zz = canonical_site(SIGMA["Z"], i, n) @ canonical_site(SIGMA["Z"], i + 1, n)
            assert np.abs(W @ zz @ W.conj().T - canonical_site(SIGMA["X"], i, n)).max() < 1e-10
        zn = canonical_site(SIGMA["Z"], n - 1, n)
        assert np.abs(W @ zn @ W.conj().T - canonical_site(SIGMA["X"], n - 1, n)).max() < 1e-10

    @pytest.mark.parametrize("n", [3, 4])
    def test_ising_two_local_in_dual(self, n):
        H = mk.ising_chain(n, 1.0, 1.0)
        T = mk.jw_dual_tps(n)
        w = mk.locality_report(H, T).weights
        assert w[3:].sum() < 1e-9 * hs_norm_sq(H)
        assert mk.is_k_local(H, T, 2)

    def test_transformed_chain_is_dual_chain(self):
        # numerically verified closed form of the conjugated chain:
        # J sum_{i<n-1} X_i + h (Z_0 + sum_{i>=1} Z_{i-1} Z_i)
        n, J, h = 4, 1.0, 1.0
        H = mk.ising_chain(n, J, h)
        W = mk.jw_dual_tps(n).iso.mat
        got = W @ H.mat @ W.conj().T
        want = np.zeros_like(got)
        for i in range(n - 1):
            want += J * canonical_site(SIGMA["X"], i, n)
        want += h * canonical_site(SIGMA["Z"], 0, n)
        for i in range(1, n):
            want += h * canonical_site(SIGMA["Z"], i - 1, n) @ canonical_site(SIGMA["Z"], i, n)
        assert np.abs(got - want).max() < 1e-10

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_needs_two_sites(self, n):
        with pytest.raises(mk.InvariantViolation):
            mk.jw_dual_tps(n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_dual_not_equivalent_to_canonical(self, n):
        T = mk.jw_dual_tps(n)
        assert not mk.equivalent(T, mk.canonical(mk.Dims((2,) * n)))

    def test_ground_state_discriminator(self):
        # a unitary-invariant separation of the two structures for the chain
        H = mk.ising_chain(4, 1.0, 1.0)
        ground = H.eig[1][:, 0]
        dims = mk.Dims((2, 2, 2, 2))
        s_canonical = np.sort(mk.site_entropies(ground, dims))
        s_dual = np.sort(mk.site_entropies(mk.jw_dual_tps(4).iso.mat @ ground, dims))
        assert np.abs(s_canonical - s_dual).max() > 1e-3


class TestRandomKlocal:
    def test_full_k_is_dense(self, dims222):
        H = mk.random_klocal(dims222, 3, mk.stream(701))
        assert mk.locality_report(H, mk.canonical(dims222)).weights[3] > 0

    def test_one_local_no_witness(self, dims22):
        H = mk.random_klocal(dims22, 1, mk.stream(702))
        T = mk.canonical(dims22)
        probes = [mk.random_product_probe(T, mk.stream(702, k)) for k in range(4)]
        v = mk.one_local_evolution_check(H, T, mk.default_time_grid(H, 32), probes)
        assert v.consistent

    def test_profile_vanishes_above_k(self, dims222):
        H = mk.random_klocal(dims222, 2, mk.stream(703))
        coeffs = mk.decompose(H, mk.canonical(dims222))
        w = weight_tensor(dims222.factors)
        assert np.abs(coeffs[w > 2]).max() < 1e-12

    def test_traceless(self, dims222):
        H = mk.random_klocal(dims222, 2, mk.stream(704))
        assert abs(np.trace(H.mat)) < 1e-10

    def test_nonqubit_dims(self):
        dims = mk.Dims((3, 2))
        H = mk.random_klocal(dims, 1, mk.stream(705))
        assert mk.is_k_local(H, mk.canonical(dims), 1)


class TestScrambled:
    def test_unscrambling_restores(self, dims222):
        H, V = mk.scrambled_klocal(dims222, 2, mk.stream(706))
        unwound = mk.HermitianOp(V.mat.conj().T @ H.mat @ V.mat)
        assert mk.locality_report(unwound, mk.canonical(dims222)).min_k <= 2

    def test_scrambled_generic_full_weight(self, dims222):
        H, _ = mk.scrambled_klocal(dims222, 2, mk.stream(707))
        assert mk.locality_report(H, mk.canonical(dims222)).min_k == 3

    def test_spectrum_preserved(self, dims222):
        rng = mk.stream(708)
        H, V = mk.scrambled_klocal(dims222, 2, rng)
        unwound = V.mat.conj().T @ H.mat @ V.mat
        a = np.linalg.eigvalsh(H.mat)
        b = np.linalg.eigvalsh(unwound)
        assert np.abs(a - b).max() < 1e-10


class TestPauliString:
    def test_xx(self):
        H = mk.pauli_string("XX")
        assert np.abs(H.mat - np.kron(SIGMA["X"], SIGMA["X"])).max() < 1e-12

    def test_bad_letter(self):
        with pytest.raises(mk.InvariantViolation):
            mk.pauli_string("XQ")
