import math
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit.hilbert import ATOL, _check_unitary, _entropy_of_probs, _from_pairs, _to_pairs, _unit
from mereokit.models import SIGMA

from conftest import DensityOp, partial_trace, per_factor_haar, random_hermitian, vn_entropy


def per_site_entropies(psi, dims, sites=None):
    """``site_entropies`` read one site at a time, each qubit's closed form on its own: the oracle."""
    v = np.asarray(psi)
    sites = range(dims.n) if sites is None else tuple(sites)
    lead = v.shape[:-1]
    t = v.reshape(lead + dims.factors)
    p = v.real * v.real + v.imag * v.imag
    out = np.empty(lead + (len(sites),))
    for k, i in enumerate(sites):
        d = dims.factors[i]
        if d == 2:
            left = math.prod(dims.factors[:i])
            split = lead + (left, 2, dims.total // (2 * left))
            a, c = (np.ascontiguousarray(p.reshape(split)[..., j, :]).sum(axis=(-2, -1)) for j in (0, 1))
            m = v.reshape(split)
            b = (m[..., 0, :] * m[..., 1, :].conj()).sum(axis=(-2, -1))
            b2 = b.real * b.real + b.imag * b.imag
            hi = (a + c) / 2 + np.sqrt(((a - c) / 2) ** 2 + b2)
            lo = np.divide(a * c - b2, hi, out=np.zeros_like(hi), where=hi > 0.0)
            out[..., k] = _entropy_of_probs(np.stack((lo, hi), axis=-1))
        else:
            m = np.moveaxis(t, len(lead) + i, len(lead)).reshape(lead + (d, dims.total // d))
            out[..., k] = _entropy_of_probs(np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2)))
    return out


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

    @pytest.mark.parametrize("scale", [1.0, 1 + 1e-12, 1 + 1e-9, 2.0, 1j])
    def test_unitary_check_as_the_identity_formula(self, scale):
        # the 1 comes off the diagonal of m^dag m in place; accepted and refused as by
        # |m^dag m - eye| with the same max deviation, for a matrix and for a stack
        m = scale * mk.haar_unitary(5, mk.stream(115)).mat
        dev = np.abs(m.conj().T @ m - np.eye(5)).max()
        for check in (mk.UnitaryOp, lambda m: _check_unitary(np.stack([np.eye(5), m]))):
            if dev > ATOL:
                with pytest.raises(mk.InvariantViolation, match=re.escape(f"not unitary: max deviation {dev:.3e}") + "$"):
                    check(m)
            else:
                check(m)

    def test_unitary_check_of_an_empty_matrix(self):
        # as with the identity formula, the max over no entries is a ValueError
        with pytest.raises(ValueError):
            mk.UnitaryOp(np.zeros((0, 0)))

    def test_state_rejects_unnormalized(self):
        with pytest.raises(mk.InvariantViolation):
            mk.StateVec(np.array([1.0, 1.0]))

    def test_density_invariants(self):
        DensityOp(np.eye(2) / 2)
        with pytest.raises(mk.InvariantViolation):
            DensityOp(np.eye(2))  # trace 2
        with pytest.raises(mk.InvariantViolation):
            DensityOp(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_entries_rejected(self, bad):
        # NaN passed every "deviation > tol" check, and inf warned in HermitianOp
        for make, good in [(mk.HermitianOp, np.eye(2)), (mk.UnitaryOp, np.eye(2)),
                           (DensityOp, np.eye(2) / 2), (mk.StateVec, np.array([1.0, 0.0]))]:
            a = np.array(good, dtype=complex)
            a.flat[0] = bad
            with pytest.raises(mk.InvariantViolation, match="finite"):
                make(a)

    @pytest.mark.filterwarnings("error")
    def test_product_state_refuses_zero_or_non_finite_site_vector(self, dims22):
        T = mk.canonical(dims22)
        for bad in ([0.0, 0.0], [float("nan"), 1.0], [float("inf"), 1.0]):
            with pytest.raises(mk.InvariantViolation):
                mk.product_state_in(T, [np.array(bad), np.array([1.0, 0.0])])

    @pytest.mark.filterwarnings("error")
    def test_product_state_of_small_site_vectors(self, dims22):
        # the raw product has entries 1e-200, whose squared norm underflows to 0; normalised
        # per site, it is the uniform state
        psi = mk.product_state_in(mk.canonical(dims22), [np.array([1e-100, 1e-100])] * 2)
        assert np.abs(psi.vec - 0.5).max() < 1e-15

    @pytest.mark.parametrize("sites", [
        [[1e200, 1e200], [1.0, 0.0]],
        [[1e-200, 1e-200], [1.0, 0.0]],
        [[1e200, 1e200], [1e200, 1.0]],  # the raw product's entries overflow (1e400)
        [[1e308, -1e308j], [5e-324, 0.0]],
    ])
    @pytest.mark.filterwarnings("error")
    def test_product_state_of_site_vectors_whose_norms_square_out_of_range(self, dims22, sites):
        psi = mk.product_state_in(mk.canonical(dims22), [np.array(v) for v in sites])
        want = mk.kron_all([np.array(v) / np.abs(np.array(v)).max() for v in sites])
        assert np.abs(psi.vec - want / np.linalg.norm(want)).max() < 1e-15

    def test_unit_keeps_every_bit_of_an_in_range_quotient(self):
        # the power-of-two prescaling is exact, so state and probe payloads are unchanged
        rng = mk.stream(114)
        for scale in (1e-150, 1e-3, 1.0, 7.0, 1e150):
            for D in (2, 3, 12, 64):
                z = scale * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
                assert np.array_equal(_unit(z), z / np.linalg.norm(z))

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


class TestEig:
    def test_sigma_z(self):
        lam, V = mk.HermitianOp(SIGMA["Z"]).eig
        assert np.allclose(lam, [-1, 1])
        # eigenvectors |1>, |0> up to phase
        assert abs(abs(V[1, 0]) - 1) < 1e-12
        assert abs(abs(V[0, 1]) - 1) < 1e-12

    def test_identity_degenerate(self):
        lam, V = mk.HermitianOp(np.eye(2)).eig
        assert np.allclose(lam, [1, 1])

    def test_roundtrip(self):
        rng = mk.stream(102)
        for _ in range(5):
            H = random_hermitian(8, rng)
            lam, V = H.eig
            mk.UnitaryOp(V)  # orthonormal eigenvectors
            rebuilt = (V * lam) @ V.conj().T
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
        rho = DensityOp(np.outer(psi, psi.conj()))
        red = partial_trace(rho, dims22, keep=1)
        assert np.abs(red.mat - np.outer(plus, plus.conj())).max() < 1e-12

    def test_bell_marginal(self, dims22):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = DensityOp(np.outer(bell, bell.conj()))
        red = partial_trace(rho, dims22, keep=0)
        assert np.abs(red.mat - np.eye(2) / 2).max() < 1e-12

    def test_index_out_of_range(self, dims22):
        rho = DensityOp(np.eye(4) / 4)
        with pytest.raises(mk.DimensionMismatch):
            partial_trace(rho, dims22, keep=2)

    def test_local_covariance(self, dims222):
        rng = mk.stream(105)
        for _ in range(5):
            psi = mk.haar_state(8, rng)
            rho = DensityOp(np.outer(psi.vec, psi.vec.conj()))
            locals_ = [mk.haar_unitary(2, rng).mat for _ in range(3)]
            L = mk.kron_all(locals_)
            rot = DensityOp(L @ rho.mat @ L.conj().T)
            for i in range(3):
                lhs = partial_trace(rot, dims222, keep=i).mat
                rhs = locals_[i] @ partial_trace(rho, dims222, keep=i).mat @ locals_[i].conj().T
                assert np.abs(lhs - rhs).max() < 1e-10

    def test_trace_preserved(self, dims222):
        rng = mk.stream(106)
        psi = mk.haar_state(8, rng)
        rho = DensityOp(np.outer(psi.vec, psi.vec.conj()))
        for i in range(3):
            red = partial_trace(rho, dims222, keep=i)
            assert abs(np.trace(red.mat) - 1) < 1e-12


class TestEntropy:
    def test_pure_projector(self):
        psi = mk.haar_state(4, mk.stream(107))
        rho = DensityOp(np.outer(psi.vec, psi.vec.conj()))
        assert vn_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        assert vn_entropy(DensityOp(np.eye(2) / 2)) == pytest.approx(np.log(2), abs=1e-12)

    def test_unitary_invariance(self):
        rng = mk.stream(108)
        for _ in range(5):
            p = rng.dirichlet(np.ones(4))
            rho = DensityOp(np.diag(p).astype(complex))
            U = mk.haar_unitary(4, rng)
            rotated = DensityOp(U.mat @ rho.mat @ U.mat.conj().T)
            assert abs(vn_entropy(rotated) - vn_entropy(rho)) < 1e-9

    def test_entropy_bounds(self):
        rng = mk.stream(109)
        dims = mk.Dims((2, 3))
        psi = mk.haar_state(6, rng)
        rho = DensityOp(np.outer(psi.vec, psi.vec.conj()))
        for i, d in enumerate(dims.factors):
            s = vn_entropy(partial_trace(rho, dims, keep=i))
            assert -1e-12 <= s <= np.log(d) + 1e-9

    def test_site_entropies_match_partial_trace(self):
        rng = mk.stream(110)
        dims = mk.Dims((2, 2, 3))
        psi = mk.haar_state(12, rng)
        rho = DensityOp(np.outer(psi.vec, psi.vec.conj()))
        fast = mk.site_entropies(psi.vec, dims)
        slow = [vn_entropy(partial_trace(rho, dims, keep=i)) for i in range(3)]
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
        sites = tuple(int(i) for i in rng.permutation(dims.n)[: rng.integers(dims.n + 1)])
        assert np.array_equal(mk.site_entropies(psi, dims, sites), got[..., list(sites)])
        for idx in np.ndindex(*lead):
            one = mk.site_entropies(psi[idx], dims)
            assert np.array_equal(got[idx], one)
            rho = DensityOp(np.outer(psi[idx], psi[idx].conj()))
            slow = [vn_entropy(partial_trace(rho, dims, keep=i)) for i in range(dims.n)]
            assert np.abs(one - np.array(slow)).max() < 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from(
            [(2, 2), (2, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 3)] + [(2,) * n for n in range(3, 7)]
        ),
        eps=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]),
        seed=st.integers(0, 2**16),
    )
    def test_gram_spectra_match_svd_oracle(self, factors, eps, seed):
        # Haar states, states product across factor 0 and the rest, Haar product states and
        # product states off by eps, whose small marginal eigenvalue tests the closed form
        dims = mk.Dims(factors)
        rng = mk.stream(seed)
        z = rng.standard_normal((3, dims.total)) + 1j * rng.standard_normal((3, dims.total))
        cut = np.kron(mk.haar_state(factors[0], rng).vec, mk.haar_state(dims.total // factors[0], rng).vec)
        product = mk.kron_all([mk.haar_state(d, rng).vec for d in factors])
        near = product + eps * mk.haar_state(dims.total, rng).vec
        psi = np.vstack([z / np.linalg.norm(z, axis=-1, keepdims=True), cut, near / np.linalg.norm(near)])
        t = psi.reshape((len(psi),) + factors)
        oracle = np.empty((len(psi), dims.n))
        for i, d in enumerate(factors):
            s = np.linalg.svd(np.moveaxis(t, 1 + i, 1).reshape(len(psi), d, -1), compute_uv=False)
            p = s * s
            oracle[:, i] = -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)
        got = mk.site_entropies(psi, dims)
        assert np.abs(got - oracle).max() <= 1e-12
        for one, row in zip(psi, got):  # the density-matrix oracle
            rho = DensityOp(np.outer(one, one.conj()))
            slow = [vn_entropy(partial_trace(rho, dims, keep=i)) for i in range(dims.n)]
            assert np.abs(row - slow).max() <= 1e-12
        assert mk.site_entropies(product, dims).max() <= 1e-12

    @pytest.mark.parametrize("sites", [(3,), (-1,), (0, 0), (2, 1, 2)])
    def test_bad_sites_refused(self, sites):
        psi = np.full(12, 12**-0.5, dtype=complex)
        with pytest.raises(mk.DimensionMismatch, match=f"site {sites[-1]} "):
            mk.site_entropies(psi, mk.Dims((2, 2, 3)), sites)

    def test_one_eigvalsh_per_qudit_factor_and_no_svd(self, monkeypatch):
        # qubit factors read their 2 x 2 marginal spectra in closed form
        calls = []
        for name in ("svd", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _name=name, _real=real, **kw: calls.append(_name) or _real(*a, **kw)
            )
        z = mk.stream(113).standard_normal((5, 12)) + 0j
        mk.site_entropies(z / np.linalg.norm(z, axis=-1, keepdims=True), mk.Dims((2, 2, 3)))
        assert calls == ["eigvalsh"]

    def test_product_state_entropies_are_zero(self):
        # exact zero Schmidt coefficients contribute 0 log 0 = 0, without a warning
        dims = mk.Dims((2, 3))
        psi = np.zeros((2, 6), dtype=complex)
        psi[0, 0] = psi[1, 4] = 1.0
        assert np.array_equal(mk.site_entropies(psi, dims), np.zeros((2, 2)))

    def test_stack_dimension_mismatch(self):
        with pytest.raises(mk.DimensionMismatch):
            mk.site_entropies(np.zeros((3, 5), dtype=complex), mk.Dims((2, 2)))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        factors=st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=4),
        lead=st.sampled_from([(), (1,), (3,), (0,), (2, 3)]),
        subset=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bit_equal_to_per_site_loop(self, factors, lead, subset, seed):
        # all qubit sites in one closed-form pass give the per-site loop's bits, for every
        # stack shape and every ordered subset of sites
        dims = mk.Dims(tuple(factors))
        rng = mk.stream(seed)
        z = rng.standard_normal(lead + (dims.total,)) + 1j * rng.standard_normal(lead + (dims.total,))
        psi = z / np.linalg.norm(z, axis=-1, keepdims=True)
        sites = tuple(int(i) for i in rng.permutation(dims.n)[: rng.integers(dims.n + 1)]) if subset else None
        got = mk.site_entropies(psi, dims, sites)
        assert np.array_equal(got, per_site_entropies(psi, dims, sites))


class TestKronAll:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shapes=st.lists(st.sampled_from([(2, 2), (3, 3), (2, 3), (1, 4)]), min_size=1, max_size=5),
        vectors=st.booleans(),
        complex_=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_to_kron_chain(self, shapes, vectors, complex_, seed):
        rng = mk.stream(seed)
        shapes = [s[:1] for s in shapes] if vectors else shapes
        mats = [rng.standard_normal(s) + (1j * rng.standard_normal(s) if complex_ else 0.0) for s in shapes]
        # kron_all works in complex, as the chain on complex copies does (a real input's
        # products can carry a -0 imaginary part that the real chain has no place for)
        got, want = mk.kron_all(mats), reduce(np.kron, [m.astype(complex) for m in mats])
        assert got.dtype == complex and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, reduce(np.kron, mats))


class TestHaar:
    def test_deterministic_per_stream(self):
        a = mk.haar_unitary(4, mk.stream(42)).mat
        b = mk.haar_unitary(4, mk.stream(42)).mat
        assert np.array_equal(a, b)

    def test_unitarity(self):
        U = mk.haar_unitary(6, mk.stream(113))
        assert np.abs(U.mat.conj().T @ U.mat - np.eye(6)).max() < 1e-10

    @pytest.mark.parametrize("factors", [(2, 2, 3), (3, 3, 3), (2, 4, 2), (2,) * 5, (8,), (128,)])
    def test_stacked_sampler_bit_equal_to_per_factor_draws(self, factors):
        # one standard_normal call for all the blocks takes the numbers per-factor draws take,
        # so the unitaries and the next draw from the stream are the same bits
        a, b = mk.stream(116, len(factors)), mk.stream(116, len(factors))
        got = mk.haar_unitaries(factors, a)
        want = [per_factor_haar(d, b) for d in factors]
        assert [U.mat.shape for U in got] == [w.shape for w in want]
        assert all(U.mat.tobytes() == w.tobytes() for U, w in zip(got, want))
        assert np.array_equal(a.standard_normal(5), b.standard_normal(5))
        assert all(isinstance(U, mk.UnitaryOp) and not U.mat.flags.writeable for U in got)

    def test_one_factor_sampler_is_haar_unitary(self):
        want = per_factor_haar(6, mk.stream(117))
        assert mk.haar_unitary(6, mk.stream(117)).mat.tobytes() == want.tobytes()

    def test_stacked_check_refuses_as_unitary_op(self, monkeypatch):
        # a QR gone wrong on the second factor of the qubit stack is refused with the error
        # UnitaryOp gives 2 U: max |4 U^dag U - 1| = 3
        real_qr = np.linalg.qr

        def qr(z):  # the k-th Q of a stack scaled by k + 1
            q, r = real_qr(z)
            return q * np.arange(1, len(q) + 1)[:, None, None], r

        monkeypatch.setattr(np.linalg, "qr", qr)
        with pytest.raises(mk.InvariantViolation, match=re.escape("not unitary: max deviation 3.000e+00")):
            mk.haar_unitaries((2, 2, 3), mk.stream(118))
        with pytest.raises(mk.InvariantViolation, match=re.escape("not unitary: max deviation 3.000e+00")):
            mk.UnitaryOp(2 * mk.haar_unitary(2, mk.stream(118)).mat)

    def test_entry_moment(self):
        # mean |entry|^2 over Haar samples at D=2 is exactly 1/D = 0.5
        rng = mk.stream(114)
        acc = 0.0
        n = 10_000
        for _ in range(n):
            U = mk.haar_unitary(2, rng)
            acc += float(np.abs(U.mat[0, 0]) ** 2)
        assert abs(acc / n - 0.5) < 0.02
