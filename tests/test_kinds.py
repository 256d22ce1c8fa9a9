from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mereokit as mk
from mereokit.kinds import TpsVerdict, _amplitudes_differ, check_spectral_hypotheses
from mereokit.models import SIGMA

from conftest import nondegenerate_instance

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
ZERO = np.array([1, 0], dtype=complex)


class TestPairMembership:
    def test_sigma_z_plus(self):
        spec = mk.PairKindSpec((-1.0, 1.0), (0.5, 0.5))
        assert mk.pair_membership(mk.HermitianOp(SIGMA["Z"]), mk.StateVec(PLUS), spec)

    def test_sigma_z_zero_fails(self):
        spec = mk.PairKindSpec((-1.0, 1.0), (0.5, 0.5))
        assert not mk.pair_membership(mk.HermitianOp(SIGMA["Z"]), mk.StateVec(ZERO), spec)

    def test_conjugation_invariance(self):
        rng = mk.stream(601)
        for _ in range(5):
            H, psi = nondegenerate_instance(4, 601, int(rng.integers(100)))
            spec = mk.pair_kind_of(H, psi)
            U = mk.haar_unitary(4, rng)
            H2 = mk.HermitianOp(U.mat @ H.mat @ U.mat.conj().T)
            psi2 = mk.StateVec(U.mat @ psi.vec)
            assert mk.pair_membership(H, psi, spec)
            assert mk.pair_membership(H2, psi2, spec)

    def test_degenerate_grouping(self):
        # spectrum (-1, -1, 1): two eigenspaces, weights grouped accordingly
        H = mk.HermitianOp(np.diag([-1.0, -1.0, 1.0]).astype(complex))
        psi = mk.StateVec(np.array([0.6, 0.0, 0.8], dtype=complex))
        spec = mk.pair_kind_of(H, psi)
        assert spec.spectrum == (-1.0, -1.0, 1.0) and len(spec.weights) == 2
        assert spec.weights[0] == pytest.approx(0.36)
        assert mk.pair_membership(H, psi, spec)

    def test_spec_validation(self):
        with pytest.raises(mk.InvariantViolation, match="sum"):
            mk.PairKindSpec((-1.0, 1.0), (0.5, 0.6))
        with pytest.raises(mk.InvariantViolation, match="non-negative"):
            mk.PairKindSpec((-1.0, 1.0), (1.5, -0.5))
        with pytest.raises(mk.InvariantViolation, match="ascending"):
            mk.PairKindSpec((1.0, -1.0), (0.5, 0.5))
        with pytest.raises(mk.DimensionMismatch):
            mk.PairKindSpec((-1.0, 1.0), (1.0,))
        spec = mk.PairKindSpec(np.array([-1.0, 1.0]), [0.25, 0.75])  # stored as float tuples
        assert spec.spectrum == (-1.0, 1.0) and spec.weights == (0.25, 0.75)
        assert all(type(x) is float for x in spec.spectrum + spec.weights)

    def test_spec_refuses_nan(self):
        # NaN passed every "b < a", "x < 0" and "dev > tol" check: this spectrum read as three
        # eigenspaces, and pair_membership took diag(0, 1, 2, 3) with weights (0.4, 0.3, 0.2, 0.1)
        # into its class
        with pytest.raises(mk.InvariantViolation, match="ascending"):
            mk.PairKindSpec((0.0, 1.0, 2.0, np.nan), (0.4, 0.3, 0.3))
        with pytest.raises(mk.InvariantViolation, match="non-negative"):
            mk.PairKindSpec((-1.0, 1.0), (np.nan, 1.0))
        assert _amplitudes_differ(np.array([np.nan, 0.0]), np.zeros(2), 1e-8)


class TestPairOrbitWitness:
    def test_self_witness_is_identity_phase(self):
        H, psi = nondegenerate_instance(4, 602)
        U = mk.pair_orbit_witness(H, psi, H, psi)
        # free action: the only symmetry of the pair is a global phase
        phase = U.mat[0, 0] / abs(U.mat[0, 0])
        assert np.abs(U.mat - phase * np.eye(4)).max() < 1e-8

    def test_construct_then_recover(self):
        rng = mk.stream(603)
        for k in range(10):
            H, psi = nondegenerate_instance(4, 603, k)
            V = mk.haar_unitary(4, rng)
            H2 = mk.HermitianOp(V.mat @ H.mat @ V.mat.conj().T)
            psi2 = mk.StateVec(V.mat @ psi.vec)
            U = mk.pair_orbit_witness(H, psi, H2, psi2)
            assert np.abs(U.mat @ H.mat @ U.mat.conj().T - H2.mat).max() < 1e-8
            assert np.linalg.norm(U.mat @ psi.vec - psi2.vec) < 1e-8

    def test_z_plus_vs_x_zero(self):
        # both pairs have spectrum (-1, 1) and weights (1/2, 1/2)
        U = mk.pair_orbit_witness(
            mk.HermitianOp(SIGMA["Z"]), mk.StateVec(PLUS),
            mk.HermitianOp(SIGMA["X"]), mk.StateVec(ZERO),
        )
        assert np.abs(U.mat @ SIGMA["Z"] @ U.mat.conj().T - SIGMA["X"]).max() < 1e-8
        assert np.linalg.norm(U.mat @ PLUS - ZERO) < 1e-8

    def test_degenerate_refused(self):
        H = mk.HermitianOp(np.eye(2))
        psi = mk.StateVec(PLUS)
        with pytest.raises(mk.HypothesisViolation) as e:
            mk.pair_orbit_witness(H, psi, H, psi)
        assert e.value.reason == "degenerate_spectrum"

    def test_mismatched_weights_no_witness(self):
        skew = mk.StateVec(np.array([np.sqrt(0.9), np.sqrt(0.1)], dtype=complex))
        with pytest.raises(mk.NoWitnessError):
            mk.pair_orbit_witness(
                mk.HermitianOp(SIGMA["Z"]), mk.StateVec(PLUS),
                mk.HermitianOp(SIGMA["Z"]), skew,
            )

    def test_zero_support_refused(self):
        with pytest.raises(mk.HypothesisViolation) as e:
            mk.pair_orbit_witness(
                mk.HermitianOp(SIGMA["Z"]), mk.StateVec(PLUS),
                mk.HermitianOp(SIGMA["Z"]), mk.StateVec(ZERO),
            )
        assert e.value.reason == "zero_projection"

    def test_mismatched_spectra_no_witness(self):
        with pytest.raises(mk.NoWitnessError):
            mk.pair_orbit_witness(
                mk.HermitianOp(SIGMA["Z"]), mk.StateVec(PLUS),
                mk.HermitianOp(2 * SIGMA["Z"]), mk.StateVec(PLUS),
            )
        # spectra are compared before support: a zero-support state does not
        # turn the missing witness into a hypothesis violation
        with pytest.raises(mk.NoWitnessError):
            mk.pair_orbit_witness(
                mk.HermitianOp(SIGMA["Z"]), mk.StateVec(PLUS),
                mk.HermitianOp(2 * SIGMA["Z"]), mk.StateVec(ZERO),
            )


class TestOneOrbitRule:
    """Pair classes, ``pair_membership`` and ``pair_orbit_witness`` split the spectrum at
    DEGENERACY_GAP and decide by one amplitude residual, so they answer alike."""

    @pytest.mark.parametrize("D", [2, 4])
    def test_gap_test_iff_simple_split(self, D):
        gap = mk.kinds.DEGENERACY_GAP
        psi = mk.StateVec(np.ones(D, dtype=complex) / np.sqrt(D))
        V = mk.haar_unitary(D, mk.stream(639, D)).mat
        gaps = list(gap * np.linspace(0.5, 1.5, 21)) + [np.nextafter(gap, 0), gap, np.nextafter(gap, 1)]
        for g in gaps:
            lam = np.concatenate([[0.0, g], np.arange(2, D)])
            for H in (mk.HermitianOp(np.diag(lam).astype(complex)), mk.HermitianOp((V * lam) @ V.conj().T)):
                try:
                    check_spectral_hypotheses(H)
                    simple = True
                except mk.HypothesisViolation:
                    simple = False
                assert (len(mk.pair_kind_of(H, psi).weights) == D) is simple

    def test_weight_moved_onto_small_amplitude(self):
        # 9e-9 of weight moved onto the |c|^2 = 4e-8 eigenvector: the weights differ by at most
        # 9e-9 <= tol, but the amplitudes by 2.1e-5, so neither the class nor a witness matches;
        # both accept the pair conjugated by a Haar unitary
        H = mk.HermitianOp(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex))
        w1 = np.array([0.5, 0.3, 0.2 - 4e-8, 4e-8])
        w2 = w1 + [-9e-9, 0.0, 0.0, 9e-9]
        psi1, psi2 = (mk.StateVec(np.sqrt(w).astype(complex)) for w in (w1, w2))
        spec = mk.pair_kind_of(H, psi1)
        assert not mk.pair_membership(H, psi2, spec)
        with pytest.raises(mk.NoWitnessError, match="amplitudes differ"):
            mk.pair_orbit_witness(H, psi1, H, psi2)
        V = mk.haar_unitary(4, mk.stream(1)).mat
        Hc, psic = mk.HermitianOp(V @ H.mat @ V.conj().T), mk.StateVec(V @ psi1.vec)
        assert mk.pair_membership(Hc, psic, spec)
        mk.pair_orbit_witness(H, psi1, Hc, psic)

    def test_gap_below_degeneracy_shares_an_eigenspace(self):
        H = mk.HermitianOp(np.diag([0.0, 5e-9, 1.0]).astype(complex))
        psi = mk.StateVec(np.array([0.6, 0.0, 0.8], dtype=complex))
        with pytest.raises(mk.HypothesisViolation) as e:
            check_spectral_hypotheses(H)
        assert e.value.reason == "degenerate_spectrum"
        spec = mk.pair_kind_of(H, psi)
        assert len(spec.weights) == 2 and spec.weights[0] == pytest.approx(0.36)


class TestGram:
    def test_witness_between_orthonormal_bases(self):
        rng = mk.stream(605)
        B1 = mk.haar_unitary(4, rng).mat
        B2 = mk.haar_unitary(4, rng).mat
        U = mk.gram_orbit_witness(list(B1.T), list(B2.T))
        for a, b in zip(B1.T, B2.T):
            assert np.linalg.norm(U.mat @ a - b) < 1e-8

    def test_construct_then_recover(self):
        rng = mk.stream(606)
        for _ in range(10):
            fam1 = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
            V = mk.haar_unitary(5, rng)
            fam2 = [V.mat @ f for f in fam1]
            U = mk.gram_orbit_witness(fam1, fam2)
            for a, b in zip(fam1, fam2):
                assert np.linalg.norm(U.mat @ a - b) < 1e-8

    def test_rank_deficient_family(self):
        rng = mk.stream(607)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = 2.0 * v  # dependent
        V = mk.haar_unitary(4, rng)
        U = mk.gram_orbit_witness([v, w], [V.mat @ v, V.mat @ w])
        assert np.linalg.norm(U.mat @ v - V.mat @ v) < 1e-8
        assert np.linalg.norm(U.mat @ w - V.mat @ w) < 1e-8

    def test_gram_mismatch_errors(self):
        v = np.array([1.0, 0.0], dtype=complex)
        w = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(mk.NoWitnessError):
            mk.gram_orbit_witness([v, v], [v, w])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(D=st.integers(2, 32), data=st.data())
    def test_witness_recovers_haar_rotation(self, D, data):
        N = data.draw(st.integers(1, 2 * D))
        role = st.sampled_from(["new", "repeat", "dependent"])
        roles = data.draw(st.lists(role, min_size=N - 1, max_size=N - 1))
        rng = mk.stream(608, data.draw(st.integers(0, 2**16)))
        fam = [rng.standard_normal(D) + 1j * rng.standard_normal(D)]
        for role in roles:
            if role == "new":
                fam.append(rng.standard_normal(D) + 1j * rng.standard_normal(D))
            elif role == "repeat":
                fam.append(fam[rng.integers(len(fam))].copy())
            else:
                a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                fam.append(a * fam[rng.integers(len(fam))] + b * fam[rng.integers(len(fam))])
        V = mk.haar_unitary(D, rng)
        rotated = [V.mat @ f for f in fam]
        U = mk.gram_orbit_witness(fam, rotated)
        scale = 1.0 + max(np.linalg.norm(f) for f in fam)
        assert max(np.linalg.norm(U.mat @ a - b) for a, b in zip(fam, rotated)) <= 1e-12 * scale
        # the oracle: Procrustes from one D x D SVD of sum_k rotated_k fam_k^dag
        W, _, Vh = np.linalg.svd(np.array(rotated).T @ np.array(fam).conj())
        assert max(np.linalg.norm((U.mat - W @ Vh) @ a) for a in fam) <= 1e-12 * scale
        k = int(rng.integers(N))
        rotated[k] = 1.001 * rotated[k]
        with pytest.raises(mk.NoWitnessError):
            mk.gram_orbit_witness(fam, rotated)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(D=st.sampled_from([2, 4, 8, 3, 9, 27]), log_scale=st.integers(-300, 300), seed=st.integers(0, 2**16))
    @example(D=8, log_scale=300, seed=0)
    @example(D=8, log_scale=-300, seed=0)
    def test_verdict_does_not_depend_on_scale(self, D, log_scale, seed):
        # at 1e200 the core R2 R1^dag overflowed into numpy's "SVD did not converge", and at 1e-300
        # the residual's squares read 0, so an off-orbit member got a witness; both families now go
        # over one power of two first, and the residual is read in the members' own units
        rng = mk.stream(610, seed)
        scale = 10.0 ** log_scale
        fam1 = (rng.standard_normal((3, D)) + 1j * rng.standard_normal((3, D))) * scale
        fam2 = fam1 @ mk.haar_unitary(D, rng).mat.T
        tol = 1e-8 * scale
        U = mk.gram_orbit_witness(list(fam1), list(fam2), tol).mat
        assert np.abs(fam1 @ U.T - fam2).max() <= tol
        fam2[int(rng.integers(3))] *= 1.5
        with pytest.raises(mk.NoWitnessError):
            mk.gram_orbit_witness(list(fam1), list(fam2), tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("name", ["family1", "family2"])
    def test_refuses_a_non_finite_member_naming_its_family(self, bad, name):
        good = [np.ones(2, complex)] * 2
        fams = {"family1": good, "family2": good, name: [good[0], np.array([1.0, bad])]}
        with pytest.raises(mk.InvariantViolation, match=f"^{name} member 1 has a NaN or inf entry$"):
            mk.gram_orbit_witness(fams["family1"], fams["family2"])

    @pytest.mark.parametrize("name, members, message", [
        # numpy's "matmul: Input operand 1 has a mismatch in its core dimension 0"
        ("family1", [np.eye(2)], r"^family1 member 0 has shape \(2, 2\), not a vector$"),
        ("family2", [np.ones(2), np.eye(2)], r"^family2 member 1 has shape \(2, 2\), not a vector$"),
        # numpy's "all input arrays must have the same shape"
        ("family1", [np.ones(2), np.ones(3)], "^family1 member 1 has length 3, member 0 2$"),
        ("family2", [np.ones(2), np.ones(2), np.ones(3)], "^family2 member 2 has length 3, member 0 2$"),
        # "a family needs at least one member", whichever family it was
        ("family1", [], "^family1 needs at least one member$"),
        ("family2", [], "^family2 needs at least one member$"),
    ], ids=["matrix", "matrix-later", "ragged", "ragged-later", "empty1", "empty2"])
    def test_refuses_a_misshapen_family_naming_it(self, name, members, message):
        good = [np.ones(2, complex)]
        fams = {"family1": good, "family2": good, name: members}
        with pytest.raises(mk.DimensionMismatch, match=message):
            mk.gram_orbit_witness(fams["family1"], fams["family2"])

    def test_witness_is_two_qrs_and_one_core_svd(self, monkeypatch):
        rng = mk.stream(609)
        fam = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3)]
        V = mk.haar_unitary(6, rng)
        rotated = [V.mat @ f for f in fam]
        calls = []
        for name in ("svd", "qr"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda a, *r, _name=name, _real=real, **kw: calls.append((_name, a.shape)) or _real(a, *r, **kw),
            )
        mk.gram_orbit_witness(fam, rotated)
        # Procrustes on the 3-dim span: both QRs in one stacked call, and no 6 x 6 SVD
        assert calls == [("qr", (2, 6, 3)), ("svd", (3, 3))]


class TestWitnessResidual:
    """A witness is returned only when the residuals the CLI reports for it are within tol."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(D=st.sampled_from([2, 4, 8, 32]), seed=st.integers(0, 2**16), log_delta=st.floats(-12, -4))
    def test_pair_witness_meets_tol(self, D, seed, log_delta):
        tol = mk.kinds.WITNESS_TOL
        H1, psi1 = nondegenerate_instance(D, 636, seed)
        V = mk.haar_unitary(D, mk.stream(636, seed, 1)).mat
        H2 = mk.HermitianOp(V @ H1.mat @ V.conj().T)
        spec = mk.pair_kind_of(H1, psi1)
        c = H1.eig[1].conj().T @ psi1.vec
        k = int(np.abs(c).argmin())
        for delta in (0.0, 10.0**log_delta):
            c2 = c.copy()
            c2[k] += delta * c[k] / abs(c[k])  # the smallest amplitude, lengthened by delta
            psi2 = mk.StateVec(V @ H1.eig[1] @ (c2 / np.linalg.norm(c2)))
            member = mk.pair_membership(H2, psi2, spec, tol)  # the class test decides alike
            try:
                U = mk.pair_orbit_witness(H1, psi1, H2, psi2, tol).mat
            except mk.NoWitnessError:
                assert delta > 0 and not member
                continue
            assert member
            assert np.linalg.norm(U @ psi1.vec - psi2.vec) <= tol
            assert np.abs(U @ H1.mat @ U.conj().T - H2.mat).max() <= tol

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(D=st.sampled_from([2, 4, 8, 32]), seed=st.integers(0, 2**16), log_delta=st.floats(-12, -4),
           data=st.data())
    def test_gram_witness_meets_tol(self, D, seed, log_delta, data):
        tol = mk.kinds.WITNESS_TOL
        rng = mk.stream(637, seed)
        count = data.draw(st.integers(1, D - 1))
        fam1 = rng.standard_normal((count, D)) + 1j * rng.standard_normal((count, D))
        fam1 = np.concatenate([fam1, fam1[data.draw(st.integers(0, count - 1))][None]])  # a repeat
        fam2 = fam1 @ mk.haar_unitary(D, rng).mat.T
        # moving the repeat off the span of family2 moves the Gram entries by delta^2 only, while
        # the best unitary misses one of the two copies by about delta / 2
        step = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        Q = np.linalg.qr(fam2[:-1].T)[0]
        step -= Q @ (Q.conj().T @ step)
        for delta in (0.0, 10.0**log_delta):
            moved = fam2.copy()
            moved[-1] += delta * step / np.linalg.norm(step)
            try:
                U = mk.gram_orbit_witness(list(fam1), list(moved), tol).mat
            except mk.NoWitnessError:
                assert delta > 0
                continue
            assert np.linalg.norm(fam1 @ U.T - moved, axis=1).max() <= tol


class TestTolerances:
    """Every tol must be finite and positive: NaN passes every ``dev > tol`` check, inf every
    ``dist <= tol``, so either turned unrelated inputs into a witness or a match."""

    @pytest.fixture(scope="class")
    def unrelated(self):
        (H1, psi1), (H2, psi2) = (nondegenerate_instance(4, 635, k) for k in range(2))
        rng = mk.stream(635)
        fam1, fam2 = ([rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)] for _ in "ab")
        dims = mk.Dims((2, 2))
        T1 = mk.random_tps(dims, rng)
        T2 = mk.act(mk.expm_i(H1, 0.7), T1)
        probes = mk.build_probe_set(H1, psi1, 8, rng)
        f1, f2 = mk.fingerprint(H1, psi1, [T1, T2], probes)
        return {
            "pair_membership": lambda tol: mk.pair_membership(H1, psi1, mk.pair_kind_of(H2, psi2), tol),
            "pair_orbit_witness": lambda tol: mk.pair_orbit_witness(H1, psi1, H2, psi2, tol),
            "gram_orbit_witness": lambda tol: mk.gram_orbit_witness(fam1, fam2, tol),
            "fingerprints_equal": lambda tol: mk.fingerprints_equal(f1, f2, tol),
            "cross_validate_tps": lambda tol: mk.cross_validate_tps(H1, psi1, T1, T2, probes, tol),
        }

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    @pytest.mark.parametrize(
        "name",
        ["pair_membership", "pair_orbit_witness", "gram_orbit_witness", "fingerprints_equal", "cross_validate_tps"],
    )
    def test_refused(self, unrelated, name, tol):
        with pytest.raises(mk.DimensionMismatch, match="finite and positive"):
            unrelated[name](tol)

    def test_defaults_decide(self, unrelated):
        # the same unrelated inputs under the default tolerances: no match and no witness
        assert not unrelated["pair_membership"](mk.kinds.WITNESS_TOL)
        assert not unrelated["fingerprints_equal"](mk.kinds.FINGERPRINT_TOL)
        for name in ("pair_orbit_witness", "gram_orbit_witness"):
            with pytest.raises(mk.NoWitnessError):
                unrelated[name](mk.kinds.WITNESS_TOL)

    @pytest.mark.parametrize("lam,V,reason", [
        ([0.0, np.nan], np.eye(2), "degenerate_spectrum"),
        ([0.0, 1.0], [[1.0, 0.0], [0.0, np.nan]], "zero_projection"),
    ])
    def test_hypotheses_refuse_nan(self, lam, V, reason):
        # a stand-in eigendecomposition (HermitianOp.eig refuses a non-finite one): a NaN gap or
        # amplitude fails "not x > bound", where "x <= bound" let it pass
        H = SimpleNamespace(dim=2, eig=(np.array(lam), np.array(V, dtype=complex)))
        with pytest.raises(mk.HypothesisViolation) as e:
            check_spectral_hypotheses(H, mk.StateVec(np.array([0.6, 0.8], dtype=complex)))
        assert e.value.reason == reason

    def test_empty_families_refused(self):
        # they raised numpy's "need at least one array to stack"
        v = np.array([1.0, 0.0], dtype=complex)
        for fam1, fam2 in (([], []), ([v], []), ([], [v])):
            with pytest.raises(mk.DimensionMismatch, match="at least one member"):
                mk.gram_orbit_witness(fam1, fam2)


class TestProbeSet:
    def test_identity_refused(self):
        psi = mk.haar_state(4, mk.stream(608))
        with pytest.raises(mk.HypothesisViolation) as e:
            mk.build_probe_set(mk.HermitianOp(np.eye(4)), psi, 8, mk.stream(1))
        assert e.value.reason == "degenerate_spectrum"

    def test_eigenvector_refused(self):
        H, _ = nondegenerate_instance(4, 609)
        psi = mk.StateVec(H.eig[1][:, 0])
        with pytest.raises(mk.HypothesisViolation) as e:
            mk.build_probe_set(H, psi, 8, mk.stream(1))
        assert e.value.reason == "zero_projection"

    def test_count_and_rank(self):
        H, psi = nondegenerate_instance(4, 610)
        probes = mk.build_probe_set(H, psi, 8, mk.stream(610, 1))
        assert len(probes) == 8 and probes.values.shape == (8, 4)
        assert np.array_equal(probes.values[:4], np.eye(4))  # one interpolation probe per eigenvector
        lam, V = np.linalg.eigh(H.mat)
        c = V.conj().T @ psi.vec
        mat = (probes.values * c) @ V.T
        assert np.linalg.matrix_rank(mat) == 4

    def test_interpolation_probes_are_eigenvectors(self):
        H, psi = nondegenerate_instance(4, 611)
        probes = mk.build_probe_set(H, psi, 4)
        lam, V = np.linalg.eigh(H.mat)
        c = V.conj().T @ psi.vec
        for k in range(4):
            assert np.array_equal(probes.values[k], np.eye(4)[k])
            phi = V @ (probes.values[k] * c)
            phi = phi / np.linalg.norm(phi)
            overlap = abs(np.vdot(V[:, k], phi))
            assert overlap == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("amplitude", [0.0, 1e-300, 1e-18])
    def test_rank_certificate_refuses_without_support_check(self, monkeypatch, amplitude):
        # with the support check off, a (nearly) vanishing amplitude must still be refused by
        # the rank check, as matrix_rank refused it; H diagonal, so the amplitudes are psi's own
        monkeypatch.setattr(mk.kinds, "SUPPORT_MIN", -np.inf)
        H = mk.HermitianOp(np.diag([0.1, 0.9, 2.0, 3.3]).astype(complex))
        psi = mk.StateVec(np.array([0.6, amplitude, 0.48, 0.64], dtype=complex))
        assert np.abs(check_spectral_hypotheses(H, psi)).min() == amplitude
        with pytest.raises(mk.InvariantViolation):
            mk.build_probe_set(H, psi, 8, mk.stream(1))

    def test_too_few_probes(self):
        H, psi = nondegenerate_instance(4, 612)
        with pytest.raises(mk.DimensionMismatch):
            mk.build_probe_set(H, psi, 3, mk.stream(1))

    @pytest.mark.parametrize(
        "factors",
        [(2,) * n for n in range(2, 7)] + [(3, 3, 3), (2, 2, 3), (4, 4, 4), (2, 3, 4), (4, 4, 2, 2)],
    )
    def test_full_rank_across_dims(self, factors):
        D = mk.Dims(factors).total
        for k in range(3):
            H, psi = nondegenerate_instance(D, 624, D, k)
            probes = mk.build_probe_set(H, psi, stream=mk.stream(624, D, k))
            assert probes.values.shape == (2 * D, D)
            lam, V = H.eig
            c = V.conj().T @ psi.vec
            assert np.linalg.matrix_rank((probes.values * c) @ V.T) == D

    def test_extras_draw(self):
        H, psi = nondegenerate_instance(4, 628)
        values = mk.build_probe_set(H, psi, 4 + 400, mk.stream(628, 1)).values
        assert values.shape == (404, 4) and np.array_equal(values[:4], np.eye(4))
        # each real and imaginary part is a numerator in [-12, 12] over a denominator in [1, 12]
        parts = values[4:].view(float)
        scaled = parts[..., None] * np.arange(1, 13)
        num = np.round(scaled)
        assert ((np.abs(scaled - num) < 1e-9) & (np.abs(num) <= 12)).any(axis=-1).all()
        assert parts.max() == 12.0 and parts.min() == -12.0  # 12 / 1 and -12 / 1 are drawn

    def test_count_equal_dim_needs_no_stream(self):
        H, psi = nondegenerate_instance(4, 629)
        assert np.array_equal(mk.build_probe_set(H, psi, 4).values, np.eye(4))
        with pytest.raises(mk.DimensionMismatch):
            mk.build_probe_set(H, psi, 5)

    def test_deterministic(self):
        H, psi = nondegenerate_instance(4, 613)
        a = mk.build_probe_set(H, psi, 8, mk.stream(7))
        b = mk.build_probe_set(H, psi, 8, mk.stream(7))
        assert np.array_equal(a.values, b.values)
        assert not a.values.flags.writeable


class TestFingerprint:
    def test_product_probe_zero_entropy(self, dims22):
        # H diagonal, psi product and full-support: probes stay product
        H = mk.HermitianOp(np.diag([0.1, 0.9, 2.0, 3.3]).astype(complex))
        amp = np.array([0.8, 0.6], dtype=complex)
        psi = mk.StateVec(np.kron(amp, amp))
        probes = mk.build_probe_set(H, psi, 4)
        fp = mk.fingerprint(H, psi, [mk.canonical(dims22)], probes)[0]
        # interpolation probes are computational basis states here
        assert fp.max() < 1e-9

    def test_bell_probe_log2(self, dims22):
        H = mk.HermitianOp(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex))
        bellish = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        psi = mk.StateVec(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        # probe polynomial selecting components 0 and 3 equally: R with
        # R(0)=1, R(1)=0, R(2)=0, R(3)=1 gives the Bell state from psi
        probes = mk.ProbeSet(np.array([[1.0, 0.0, 0.0, 1.0]]))
        fp = mk.fingerprint(H, psi, [mk.canonical(dims22)], probes)[0]
        assert fp[0, 0] == pytest.approx(np.log(2), abs=1e-9)
        assert fp[0, 1] == pytest.approx(np.log(2), abs=1e-9)

    def test_joint_conjugation_invariance(self, dims22):
        rng = mk.stream(614)
        H, psi = nondegenerate_instance(4, 614)
        T = mk.random_tps(dims22, rng)
        probes = mk.build_probe_set(H, psi, 8, rng)
        U = mk.haar_unitary(4, rng)
        H2 = mk.HermitianOp(U.mat @ H.mat @ U.mat.conj().T)
        psi2 = mk.StateVec(U.mat @ psi.vec)
        f1 = mk.fingerprint(H, psi, [T], probes)[0]
        f2 = mk.fingerprint(H2, psi2, [mk.act(U, T)], probes)[0]
        assert mk.fingerprint_distance(f1, f2) < 1e-9

    def test_nan_row_refused(self):
        values = np.eye(4, dtype=complex)
        values[2, 1] = np.nan
        with pytest.raises(mk.InvariantViolation, match="finite"):
            mk.ProbeSet(values)

    def test_zero_row_refused(self):
        # its probe state is 0 for every psi, so it has no entropy to read
        with pytest.raises(mk.InvariantViolation, match="probe 0 is zero"):
            mk.ProbeSet(np.vstack([np.zeros(4), np.eye(4)]))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (4,)])
    def test_empty_or_flat_set_refused(self, shape):
        with pytest.raises(mk.DimensionMismatch):
            mk.ProbeSet(np.ones(shape))

    def test_read_only_float_table(self, dims222):
        H, psi = nondegenerate_instance(8, 633)
        probes = mk.build_probe_set(H, psi, 16, mk.stream(633))
        fp = mk.fingerprint(H, psi, [mk.canonical(dims222)] * 2, probes)
        assert fp.shape == (2, 16, 3) and fp.dtype == float and not fp.flags.writeable

    def test_refuses_what_the_probe_set_refuses(self, dims22):
        # a state off an eigenvector: its amplitude is 0, so some probe states would vanish
        H = mk.HermitianOp(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex))
        psi = mk.StateVec(np.array([0.0, 0.6, 0.0, 0.8], dtype=complex))
        with pytest.raises(mk.HypothesisViolation) as e:
            mk.fingerprint(H, psi, [mk.canonical(dims22)], mk.ProbeSet(np.eye(4)))
        assert e.value.reason == "zero_projection"


    def test_one_site_entropies_call(self, dims222, monkeypatch):
        from mereokit import tps

        calls = []
        real = tps.site_entropies
        monkeypatch.setattr(tps, "site_entropies", lambda *a: calls.append(1) or real(*a))
        H, psi = nondegenerate_instance(8, 625)
        probes = mk.build_probe_set(H, psi, 16, mk.stream(625))
        fp = mk.fingerprint(H, psi, [mk.random_tps(dims222, mk.stream(626))], probes)[0]
        assert len(calls) == 1 and fp.shape == (16, 3)

    @pytest.mark.parametrize("factors", [(2, 2), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2, 2)])
    def test_stacked_bit_equal_to_single(self, factors):
        dims = mk.Dims(factors)
        rng = mk.stream(630, dims.total)
        H, psi = nondegenerate_instance(dims.total, 630, dims.total)
        probes = mk.build_probe_set(H, psi, stream=rng)
        Ts = [mk.random_tps(dims, rng) for _ in range(3)] + [mk.canonical(dims)]
        stacked = mk.fingerprint(H, psi, Ts, probes)
        assert len(stacked) == len(Ts)
        for T, f in zip(Ts, stacked):
            (single,) = mk.fingerprint(H, psi, [T], probes)
            assert np.array_equal(f, single)

    def test_stacked_dims_must_agree(self):
        # equal D, other factors: the second structure must not be read with the first's dims
        H, psi = nondegenerate_instance(8, 631)
        probes = mk.build_probe_set(H, psi, 8)
        Ts = [mk.canonical(mk.Dims((2, 4))), mk.canonical(mk.Dims((4, 2)))]
        with pytest.raises(mk.DimensionMismatch):
            mk.fingerprint(H, psi, Ts, probes)

    def test_empty_structure_list_refused(self):
        # it raised a bare IndexError from Ts[0]
        H, psi = nondegenerate_instance(4, 632)
        with pytest.raises(mk.DimensionMismatch, match="no structures"):
            mk.fingerprint(H, psi, [], mk.build_probe_set(H, psi, 4))

    def test_probe_length_mismatch(self, dims22):
        H, psi = nondegenerate_instance(4, 627)
        probes = mk.ProbeSet(np.ones((2, 8)))
        with pytest.raises(mk.DimensionMismatch):
            mk.fingerprint(H, psi, [mk.canonical(dims22)], probes)


class TestStateDimension:
    """A state of another dimension than H is a DimensionMismatch, not a numpy error."""

    @pytest.fixture
    def mismatched(self):
        H, psi = nondegenerate_instance(4, 615)
        return H, psi, mk.haar_state(8, mk.stream(615))

    def test_check_spectral_hypotheses(self, mismatched):
        H, _, psi8 = mismatched
        with pytest.raises(mk.DimensionMismatch):
            check_spectral_hypotheses(H, psi8)

    def test_pair_kind_of(self, mismatched):
        H, _, psi8 = mismatched
        with pytest.raises(mk.DimensionMismatch):
            mk.pair_kind_of(H, psi8)

    def test_fingerprint(self, mismatched, dims22):
        H, psi, psi8 = mismatched
        probes = mk.build_probe_set(H, psi, 4)
        with pytest.raises(mk.DimensionMismatch):
            mk.fingerprint(H, psi8, [mk.canonical(dims22)], probes)


class TestFingerprintsEqual:
    def test_self(self, dims22):
        H, psi = nondegenerate_instance(4, 615)
        probes = mk.build_probe_set(H, psi, 8, mk.stream(615, 1))
        f = mk.fingerprint(H, psi, [mk.canonical(dims22)], probes)[0]
        assert mk.fingerprints_equal(f, f)

    def test_local_move_equal(self, dims22):
        rng = mk.stream(616)
        H, psi = nondegenerate_instance(4, 616)
        T = mk.random_tps(dims22, rng)
        probes = mk.build_probe_set(H, psi, 8, rng)
        L = mk.kron_all([mk.haar_unitary(2, rng).mat for _ in range(2)])
        U = mk.UnitaryOp(T.iso.mat.conj().T @ L @ T.iso.mat)
        f1, f2 = mk.fingerprint(H, psi, [T, mk.act(U, T)], probes)
        assert mk.fingerprints_equal(f1, f2, tol=1e-9)

    def test_evolved_differs(self, dims22):
        rng = mk.stream(617)
        H, psi = nondegenerate_instance(4, 617)
        T = mk.random_tps(dims22, rng)
        probes = mk.build_probe_set(H, psi, 8, rng)
        f1, f2 = mk.fingerprint(H, psi, [T, mk.act(mk.expm_i(H, 0.7), T)], probes)
        assert not mk.fingerprints_equal(f1, f2, tol=1e-7)
        assert mk.fingerprint_distance(f1, f2) > 1e-3

    def test_incomparable_shapes(self, dims22):
        H, psi = nondegenerate_instance(4, 618)
        p1 = mk.build_probe_set(H, psi, 8, mk.stream(618, 1))
        p2 = mk.build_probe_set(H, psi, 4)
        f1 = mk.fingerprint(H, psi, [mk.canonical(dims22)], p1)[0]
        f2 = mk.fingerprint(H, psi, [mk.canonical(dims22)], p2)[0]
        with pytest.raises(mk.IncomparableFingerprints):
            mk.fingerprints_equal(f1, f2)


class TestScaleCovariance:
    """A fingerprint reads the normalized probe states, so it cannot depend on the scale of a probe
    row: bit for bit under powers of two, which are exact, and within rounding under 10^k."""

    @staticmethod
    def moved_pair(factors, seed):
        dims = mk.Dims(factors)
        rng = mk.stream(636, seed)
        H, psi = nondegenerate_instance(dims.total, 636, seed)
        T1 = mk.random_tps(dims, rng)
        L = mk.kron_all([mk.haar_unitary(d, rng).mat for d in factors])
        local = mk.act(mk.UnitaryOp(T1.iso.mat.conj().T @ L @ T1.iso.mat), T1)
        evolved = mk.act(mk.expm_i(H, 0.7), T1)
        return H, psi, [T1, local, evolved], mk.build_probe_set(H, psi, 2 * dims.total, rng), rng

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 2, 2, 2)]),
        power_of_two=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_row_scales(self, factors, power_of_two, seed):
        H, psi, Ts, probes, rng = self.moved_pair(factors, seed)
        if power_of_two:  # values lie in [1/12, 12] in modulus, so 2^±1000 keeps them normal
            scales = np.ldexp(1.0, rng.integers(-1000, 1001, size=len(probes)))
        else:
            scales = 10.0 ** rng.integers(-300, 301, size=len(probes))
        scaled = mk.ProbeSet(probes.values * scales[:, None])
        ref, fp = (mk.fingerprint(H, psi, Ts, p) for p in (probes, scaled))
        assert np.abs(fp - ref).max() <= 1e-12
        if power_of_two:
            assert np.array_equal(fp, ref)
        assert mk.fingerprints_equal(fp[0], fp[1]) and not mk.fingerprints_equal(fp[0], fp[2])
        for T2 in Ts[1:]:
            assert mk.cross_validate_tps(H, psi, Ts[0], T2, scaled) is not TpsVerdict.INCONSISTENT

    def test_tiny_rows_still_read(self):
        # the interpolation probes are eigenvectors, whose entropies no evolution changes; only the
        # extras see the evolved move. Rows of norm 1e-11 were once skipped, so shrinking the
        # extras read the evolved pair as equal, and shrinking every row gave Inconsistent.
        H, psi, (T1, _, T2), probes, _ = self.moved_pair((2, 2, 2), 1)
        D = H.dim
        full = mk.fingerprint(H, psi, [T1, T2], probes)
        assert mk.fingerprint_distance(*full[:, :D]) < 1e-12
        assert not mk.fingerprints_equal(*full)
        shrunk = np.concatenate([probes.values[:D], 1e-11 * probes.values[D:]])
        f1, f2 = mk.fingerprint(H, psi, [T1, T2], mk.ProbeSet(shrunk))
        assert not mk.fingerprints_equal(f1, f2)
        assert abs(mk.fingerprint_distance(f1, f2) - mk.fingerprint_distance(*full)) < 1e-12
        tiny = mk.ProbeSet(1e-11 * probes.values)
        assert mk.cross_validate_tps(H, psi, T1, T2, tiny) is TpsVerdict.DIFFERENT


class TestCrossValidate:
    def test_verdict_table(self):
        assert TpsVerdict.of(True, True) is TpsVerdict.SAME
        assert TpsVerdict.of(False, False) is TpsVerdict.DIFFERENT
        assert TpsVerdict.of(True, False) is TpsVerdict.INCONSISTENT
        assert TpsVerdict.of(False, True) is TpsVerdict.INCONSISTENT

    def test_local_same(self, dims22):
        rng = mk.stream(619)
        H, psi = nondegenerate_instance(4, 619)
        T1 = mk.random_tps(dims22, rng)
        probes = mk.build_probe_set(H, psi, 8, rng)
        L = mk.kron_all([mk.haar_unitary(2, rng).mat for _ in range(2)])
        U = mk.UnitaryOp(T1.iso.mat.conj().T @ L @ T1.iso.mat)
        assert mk.cross_validate_tps(H, psi, T1, mk.act(U, T1), probes) is TpsVerdict.SAME

    def test_evolved_different(self, dims22):
        rng = mk.stream(620)
        H, psi = nondegenerate_instance(4, 620)
        T1 = mk.random_tps(dims22, rng)
        probes = mk.build_probe_set(H, psi, 8, rng)
        T2 = mk.act(mk.expm_i(H, 1.1), T1)
        assert mk.cross_validate_tps(H, psi, T1, T2, probes) is TpsVerdict.DIFFERENT

    def test_no_inconsistency_sampled(self):
        for factors, seed in [((2, 2), 621), ((2, 2, 2), 622)]:
            dims = mk.Dims(factors)
            for k in range(10):
                rng = mk.stream(seed, k)
                H, psi = nondegenerate_instance(dims.total, seed, k)
                T1 = mk.random_tps(dims, rng)
                probes = mk.build_probe_set(H, psi, 2 * dims.total, rng)
                L = mk.kron_all([mk.haar_unitary(d, rng).mat for d in factors])
                U = mk.UnitaryOp(T1.iso.mat.conj().T @ L @ T1.iso.mat)
                for T2 in (mk.act(U, T1), mk.act(mk.expm_i(H, 0.7), T1)):
                    v = mk.cross_validate_tps(H, psi, T1, T2, probes)
                    assert v is not TpsVerdict.INCONSISTENT
