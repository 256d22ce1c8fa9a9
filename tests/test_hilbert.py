import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mereokit as mk
from mereokit import cli
from mereokit.hilbert import (
    ATOL, _entropy_of_probs, _from_pairs, _impurity, _marginals, _spectra3, _to_pairs, _unit,
)
from mereokit.kinds import check_spectral_hypotheses
from mereokit.models import SIGMA

from conftest import DensityOp, partial_trace, per_factor_haar, random_hermitian, vn_entropy


def per_site_entropies(psi, dims, sites=None):
    """``site_entropies`` read one site at a time, each qubit's closed form on its own, each qutrit's
    spectrum from ``_spectra3`` and every other from ``eigvalsh``: the oracle."""
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
            rho = m @ m.conj().swapaxes(-1, -2)
            spectra = _spectra3(rho) if d == 3 else np.linalg.eigvalsh(rho)
            out[..., k] = _entropy_of_probs(spectra)
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
        # a string or None was read as its float(), or raised a TypeError
        for bad in [(2, 2.5), (2, float("nan")), (2, float("inf")), ("2", "2"), (2, "3"), (None, 2), (2, 2j)]:
            with pytest.raises(mk.InvariantViolation, match="integers"):
                mk.Dims(bad)

    def test_hermitian_rejects_nonhermitian(self):
        with pytest.raises(mk.InvariantViolation):
            mk.HermitianOp(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_hermitian_refuses_an_entry_beyond_float64(self):
        # |H_01| overflows to inf, so the deviation and its bound ATOL (1 + max |H_ij|) both read
        # inf unless compared on the scaled matrix, and inf <= inf held
        with pytest.raises(mk.InvariantViolation, match="not Hermitian: max deviation inf"):
            mk.HermitianOp(np.array([[0, 1.5e308 + 1.5e308j], [0, 0]]))

    @pytest.mark.parametrize("scale", [1e-320, 1e-300, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e300, 5e306, 1.5e307, 5e307])
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 0.99, 1.01, 2.0])
    def test_hermitian_verdict_as_the_unscaled_bound(self, scale, ratio):
        # the comparison, scaled from max |H_ij| = 2^1023 up, is exact: where |H_ij| fits, dev <= ATOL (1 + max |H_ij|) decides
        m = scale * random_hermitian(3, mk.stream(41)).mat
        m[0, 1] += ratio * ATOL * (1.0 + np.abs(m).max())
        want = np.abs(m - m.conj().T).max() <= ATOL * (1.0 + np.abs(m).max())
        if want:
            mk.HermitianOp(m)
        else:
            with pytest.raises(mk.InvariantViolation, match="not Hermitian"):
                mk.HermitianOp(m)

    def test_unitary_rejects_nonunitary(self):
        with pytest.raises(mk.InvariantViolation):
            mk.UnitaryOp(2 * np.eye(3))

    @pytest.mark.parametrize("scale", [1.0, 1 + 1e-12, 1 + 1e-9, 2.0, 1j])
    def test_unitary_check_as_the_identity_formula(self, scale):
        # the 1 comes off the diagonal of m^dag m in place; accepted and refused as by
        # |m^dag m - eye| with the same max deviation
        m = scale * mk.haar_unitary(5, mk.stream(115)).mat
        dev = np.abs(m.conj().T @ m - np.eye(5)).max()
        if dev > ATOL:
            with pytest.raises(mk.InvariantViolation, match=re.escape(f"not unitary: max deviation {dev:.3e}") + "$"):
                mk.UnitaryOp(m)
        else:
            mk.UnitaryOp(m)

    @pytest.mark.parametrize("scale", [1e200, 1e155])
    @pytest.mark.filterwarnings("error")
    def test_unitary_refuses_an_overflowing_gram(self, scale):
        # finite entries whose m^dag m overflows: its diagonal reads NaN, which "dev > ATOL" let pass
        with pytest.raises(mk.InvariantViolation, match="not unitary: max deviation nan"):
            mk.UnitaryOp(scale * (1 + 1j) * np.eye(2))

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

    def test_product_state_refuses_site_vectors_unlike_the_dims(self, dims22):
        # [1, 0, 0, 1] (x) [1] was once returned as a Bell state
        T = mk.canonical(dims22)
        for kets, message in [([[1, 0, 0, 1], [1]], r"site 0 vector has shape \(4,\), its factor dimension is 2"),
                              ([[1, 0], [0, 1, 0]], r"site 1 vector has shape \(3,\)"),
                              ([[1, 0], [[1], [0]]], r"site 1 vector has shape \(2, 1\)"),
                              ([[1, 0]], "1 site vectors for 2 factors"),
                              ([[1, 0]] * 3, "3 site vectors for 2 factors")]:
            with pytest.raises(mk.DimensionMismatch, match=message):
                mk.product_state_in(T, [np.array(k) for k in kets])

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


# a fresh process runs the witness, a fingerprint and an entropy orbit at D = 128 through the library,
# then kinds hsf (conjugated), orbit, fingerprint and dualscan at D = 128 through cli.main; it prints
# the thread count and whether concurrent.futures was imported
LIBRARY_CHILD = """
import json, sys, threading
import numpy as np
import mereokit as mk
from mereokit import cli
dims, rng = mk.Dims((2,) * 7), mk.stream(112)
A = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
H, psi = mk.HermitianOp(A + A.conj().T), mk.haar_state(128, rng)
V, T = mk.haar_unitary(128, rng), mk.random_tps(dims, rng)
mk.pair_orbit_witness(H, psi, mk.HermitianOp(V.mat @ H.mat @ V.mat.conj().T), mk.StateVec(V.mat @ psi.vec))
mk.fingerprint(H, psi, [T], mk.build_probe_set(H, psi, None, rng))
probe = mk.product_state_in(T, [np.eye(2)[0]] * 7)
mk.entropy_orbit(H, T, probe, 0, mk.default_time_grid(H, 16))
where, gue = sys.argv[1], {"name": "gue", "dims": [2] * 7}
configs = {
    "kinds": {"mode": "hsf", "pair1": {"model": gue, "state": "haar"}, "pair2": "conjugated"},
    "orbit": {"model": gue, "tps": {"kind": "random"}, "grid": {"points": 16}},
    "fingerprint": {"model": gue, "state": "haar", "tps1": {"kind": "random"}, "tps2": {"kind": "local"}},
    "dualscan": {"dims": [2] * 7, "trials": 1},
}
for name, cfg in configs.items():
    with open(f"{where}/{name}.json", "w") as f:
        json.dump({**cfg, "seed": 1}, f)
    assert cli.main([name, "--config", f"{where}/{name}.json", "--out", f"{where}/{name}.out"]) == 0
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""


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

    def test_spectrum_beyond_float64_refused(self):
        # finite entries, eigenvalues (2.8e292, 4.4e292, inf, inf): the gap read NaN after a
        # RuntimeWarning, and the spectrum passed the hypotheses as simple; and a Hermitian H whose
        # off-diagonal moduli overflow
        z = 1.5e308 + 1.5e308j
        for m, scale in [
            (np.kron(np.diag([1e308, 0.95e308]), np.ones((2, 2))) + np.diag([1e292] * 2 + [3e292] * 2), "1.0e\\+308"),
            (np.array([[0, z], [np.conj(z), 0]]), "1.5e\\+308"),
        ]:
            H = mk.HermitianOp(m)  # every read raises
            for read in (lambda: H.eig, lambda: H.eig, lambda: check_spectral_hypotheses(H)):
                with pytest.raises(mk.ScaleOutOfRange, match=f"spectrum leaves float64 at scale {scale}"):
                    read()

    def test_cached_and_read_only(self):
        H = random_hermitian(4, mk.stream(105))
        assert H.eig is H.eig
        lam, V = H.eig
        for a in (lam, V):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_library_starts_no_thread(self, tmp_path):
        # neither the library nor the CLI starts a thread, or imports an executor, at D = 128
        src = str(Path(mk.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", LIBRARY_CHILD, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "False"]

    def test_concurrent_callers_write_the_bytes_of_a_run_alone(self, tmp_path):
        # six threads each run three D = 64 subcommands, in rotated orders and each to its own
        # output; a short switch interval interleaves their eigendecompositions and memo reads, and
        # every output has the bytes of a run alone
        dims = [2] * 6
        configs = {
            "orbit": {"model": {"name": "gue", "dims": dims}, "tps": {"kind": "random"}, "grid": {"points": 16}},
            "fingerprint": {"model": {"name": "gue", "dims": dims}, "state": "haar", "tps1": {"kind": "random"},
                            "tps2": {"kind": "local"}},
            "kinds": {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": dims}, "state": "haar"},
                      "pair2": "conjugated"},
        }
        names = list(configs)
        for name, cfg in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps({**cfg, "seed": 2}))

        def run(name, tag):
            out = tmp_path / f"{name}-{tag}.out"
            code = cli.main([name, "--config", str(tmp_path / f"{name}.json"), "--out", str(out)])
            return code, sorted((p.name[len(out.name):], p.read_bytes()) for p in tmp_path.glob(out.name + "*"))

        want = {name: run(name, "alone") for name in names}
        errors = []

        def work(k):
            try:
                for j in range(len(names)):
                    name = names[(j + k) % len(names)]
                    if run(name, k) != want[name]:
                        errors.append((k, name))
            except Exception as e:
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert all(code == 0 for code, _ in want.values())


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

    def test_overflowing_phases_refused(self):
        # t * lambda = 3e308 overflows: numpy warned twice, then UnitaryOp refused a NaN matrix
        # as "entries must be finite"; a NaN t and inf t * 0 are refused the same way
        H = mk.HermitianOp(3.0 * SIGMA["Z"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e308, -1e308, float("nan")):
                with pytest.raises(mk.DimensionMismatch, match="evolution phases t \\* eigenvalue overflow"):
                    mk.expm_i(H, t)
            with pytest.raises(mk.DimensionMismatch, match="overflow"):
                mk.expm_i(mk.HermitianOp(np.zeros((2, 2))), float("inf"))
            assert np.isfinite(mk.expm_i(H, 1e307).mat).all()  # its phases, up to 3e307, are finite


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
        # qubit and qutrit factors read their marginal spectra in closed form, save qutrit marginals with
        # a near pair (rank one here), which take one eigvalsh for all qutrit sites; every other group
        # of equal d >= 4 takes one eigvalsh
        calls = []
        for name in ("svd", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _name=name, _real=real, **kw: calls.append(_name) or _real(*a, **kw)
            )
        rng = mk.stream(7)
        product = np.stack([mk.kron_all([rng.standard_normal(d) + 0j for d in (3, 2, 3)]) for _ in range(5)])
        for factors, z, expected in [((2, 2, 3), None, []), ((3, 4, 2, 3, 4), None, ["eigvalsh"]),
                                     ((3, 2, 3), product, ["eigvalsh"])]:
            dims = mk.Dims(factors)
            z = mk.stream(113).standard_normal((5, dims.total)) + 0j if z is None else z
            calls.clear()
            mk.site_entropies(z / np.linalg.norm(z, axis=-1, keepdims=True), dims)
            assert calls == expected, factors

    @pytest.mark.parametrize("factors", [(2, 2), (2, 3), (3, 3), (4, 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
    def test_non_finite_state_refused(self, factors, bad):
        # once NaN entropies (qubits), LinAlgError (eigvalsh) or an "invalid value" RuntimeWarning
        dims = mk.Dims(factors)
        psi = np.full((2, dims.total), dims.total**-0.5, dtype=complex)
        psi[1, -1] = bad
        with pytest.raises(mk.InvariantViolation, match="finite"):
            mk.site_entropies(psi, dims)

    def test_product_state_entropies_are_zero(self):
        # exact zero Schmidt coefficients contribute 0 log 0 = 0, without a warning, and a pure
        # marginal reads 0.0, not -(0 + 1 log 1) = -0.0, at qubit, qutrit and d = 4 sites
        dims = mk.Dims((2, 3))
        psi = np.zeros((2, 6), dtype=complex)
        psi[0, 0] = psi[1, 4] = 1.0
        ents = mk.site_entropies(psi, dims)
        assert np.array_equal(ents, np.zeros((2, 2))) and not np.signbit(ents).any()
        for factors in ((2, 2), (3, 3), (4, 2), (2, 3, 4)):
            psi = mk.kron_all([np.eye(d, dtype=complex)[d - 1] for d in factors])
            ents = mk.site_entropies(psi, mk.Dims(factors))
            assert np.array_equal(ents, np.zeros(len(factors))) and not np.signbit(ents).any(), factors

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
        # stack shape and every ordered subset of sites, and so do all qutrit sites in one
        # _spectra3 call
        dims = mk.Dims(tuple(factors))
        rng = mk.stream(seed)
        z = rng.standard_normal(lead + (dims.total,)) + 1j * rng.standard_normal(lead + (dims.total,))
        psi = z / np.linalg.norm(z, axis=-1, keepdims=True)
        sites = tuple(int(i) for i in rng.permutation(dims.n)[: rng.integers(dims.n + 1)]) if subset else None
        got = mk.site_entropies(psi, dims, sites)
        assert np.array_equal(got, per_site_entropies(psi, dims, sites))


class TestSpectra3:
    """``_spectra3``, the closed-form qutrit spectra, against ``eigvalsh``."""

    KINDS = ["generic", "gram", "rank1", "rank2", "pair_low", "pair_high", "pair_zero", "triple", "zero"]

    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(KINDS),
        gap=st.sampled_from([0.0] + [10.0**-k for k in range(4, 15)]),
        diagonal=st.booleans(),
        scale=st.sampled_from([-1000, -7, 0, 7, 1000]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_eigvalsh(self, kind, gap, diagonal, scale, seed):
        rho = self.stack(kind, gap, diagonal, scale, seed)
        n = len(rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _spectra3(rho)
        assert got.shape == (n, 3)
        ref = np.linalg.eigvalsh(np.ldexp(rho.view(float), -scale).view(complex))  # exact unscaling
        got = np.sort(np.ldexp(got, -scale), axis=-1)
        assert np.abs(got - ref).max() <= 1e-14
        assert np.abs(_entropy_of_probs(got) - _entropy_of_probs(ref)).max() <= 1e-12
        if kind == "rank1" or (kind == "pair_zero" and gap == 0.0):
            assert _entropy_of_probs(got).max() <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["rank1", "rank2", "pair_low", "pair_high", "pair_zero"]),
        gap=st.sampled_from([0.0] + [10.0**-k for k in range(4, 15)]),
        diagonal=st.booleans(),
        scale=st.sampled_from([-1000, 0, 1000]),
        seed=st.integers(0, 2**16),
    )
    def test_near_pairs_are_eigvalsh_of_the_scaled_matrix(self, kind, gap, diagonal, scale, seed):
        # a row whose two nearest roots are within ~3 % of the spread (r > 1 - 1e-3) holds the bits
        # of eigvalsh of its matrix times 2^-e, scaled back, the bits it has alone. (A closed-form
        # row may move by an ulp with the stack's length: 4 of 64 generic rows do here.)
        rho = self.stack(kind, gap, diagonal, scale, seed)
        got = _spectra3(rho)
        e = np.frexp(np.abs(rho).max(axis=(1, 2)))[1]
        lam = np.linalg.eigvalsh(np.ldexp(rho.view(float), -e[:, None, None]).view(complex))
        mu = lam - lam.mean(axis=1, keepdims=True)
        p = np.sqrt((mu * mu).sum(axis=1) / 6)
        r = np.abs((mu / np.maximum(p, 1e-300)[:, None]).prod(axis=1)) / 2
        near = r > 1 - 1e-3 + 1e-9  # rows within 1e-9 of the switch could fall either side
        assert near.any() or kind == "rank2"
        assert np.array_equal(got[near], np.ldexp(lam[near], e[near, None]))
        for k in np.flatnonzero(near):
            assert np.array_equal(_spectra3(rho[k]), got[k])

    @staticmethod
    def stack(kind, gap, diagonal, scale, seed):
        """Unit-trace spectra of 64 matrices of one kind, pairs split by gap, conjugated by Haar
        unitaries or by permutations (diagonal inputs), then scaled by 2^scale."""
        rng = mk.stream(seed)
        n = 64
        u, b = rng.random((n, 3)), rng.uniform(0.01, 0.45, n)
        lam = {
            "generic": u,
            "gram": u,
            "rank1": np.tile([1.0, 0.0, 0.0], (n, 1)),
            "rank2": np.stack([b, 1 - b, 0 * b], 1),
            "pair_low": np.stack([b, b + gap, 1 - 2 * b - gap], 1),
            "pair_high": np.stack([1 - 2 * b - gap, b, b + gap], 1),
            "pair_zero": np.tile([0.0, gap, 1.0 - gap], (n, 1)),
            "triple": np.tile([1.0, 1.0, 1.0], (n, 1)),
            "zero": np.zeros((n, 3)),
        }[kind]
        if diagonal:
            U = np.eye(3, dtype=complex)[[rng.permutation(3) for _ in range(n)]]
        else:
            U = np.stack([V.mat for V in mk.haar_unitaries((3,) * n, rng)])
        if kind == "gram":  # the reduced density matrix of a Haar state on 3 x 4
            a = rng.standard_normal((n, 3, 4)) + 1j * rng.standard_normal((n, 3, 4))
            rho = a @ a.conj().swapaxes(1, 2)
        else:
            rho = (U * lam[:, None, :]) @ U.conj().swapaxes(1, 2)
        rho = (rho + rho.conj().swapaxes(1, 2)) / 2
        trace = np.maximum(np.trace(rho, axis1=1, axis2=2).real, 1e-300)[:, None, None]
        return np.ldexp(rho.view(float) / trace, scale).view(complex)  # may round below 2^-1022

    def test_stack_shape_kept(self):
        rho = np.broadcast_to(np.diag([0.5, 0.25, 0.25]).astype(complex), (2, 5, 3, 3))
        assert np.array_equal(np.sort(_spectra3(rho), axis=-1), np.broadcast_to([0.25, 0.25, 0.5], (2, 5, 3)))


class TestImpurity:
    """``_impurity``, 1 - tr rho^2 / (tr rho)^2 with no spectrum, against the ``eigvalsh`` oracle."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(d=st.integers(2, 5), rank=st.integers(1, 5), scale=st.sampled_from([-40, 0, 40]),
           seed=st.integers(0, 2**16))
    def test_matches_eigvalsh(self, d, rank, scale, seed):
        rank, eps = min(rank, d), np.finfo(float).eps
        rng = mk.stream(seed)
        A = rng.standard_normal((3, d, rank)) + 1j * rng.standard_normal((3, d, rank))
        rho = A @ A.conj().swapaxes(-1, -2)
        scaled = np.ldexp(rho.view(float), scale).view(complex)  # exact
        got = _impurity(scaled)
        assert got.shape == (3,) and np.array_equal(got, _impurity(rho))
        lam = np.linalg.eigvalsh(rho)
        assert np.abs(got - (1 - (lam * lam).sum(-1) / lam.sum(-1) ** 2)).max() <= 32 * eps
        if rank == 1:
            assert np.abs(got).max() <= 8 * eps
        mixed = np.ldexp(np.eye(d, dtype=complex).view(float), scale).view(complex)
        assert abs(_impurity(mixed) - (1 - 1 / d)) <= 2 * eps


class TestMarginals:
    """``_marginals``, the one kernel of support-first Grams, against the density-matrix oracle."""

    @st.composite
    def cases(draw):
        factors = draw(st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (2, 3, 2), (4, 2, 3), (3, 3, 3), (2, 2, 2, 2)]))
        n = len(factors)
        first = draw(st.permutations(range(n)))[: draw(st.integers(1, min(3, n)))]
        same = [S for S in itertools.permutations(range(n), len(first))
                if [factors[i] for i in S] == [factors[i] for i in first]]
        supports = draw(st.lists(st.sampled_from(same), min_size=1, max_size=4))
        return factors, tuple(supports), draw(st.sampled_from([0, 1, 5, 128])), draw(st.integers(0, 2**16))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=cases())
    def test_reduced_density_matrices(self, case):
        factors, supports, batch, seed = case
        dims = mk.Dims(factors)
        rng = mk.stream(seed)
        z = rng.standard_normal((batch, dims.total)) + 1j * rng.standard_normal((batch, dims.total))
        psi = z / np.linalg.norm(z, axis=-1, keepdims=True)
        dS = math.prod(factors[i] for i in supports[0])
        t, bufs = psi.reshape((batch,) + factors), {}
        got = _marginals(t, supports, bufs)
        assert got.shape == (len(supports), batch, dS, dS) and len(bufs) == 1
        # several supports in one call give the same bits as one call each
        assert np.array_equal(got, np.concatenate([_marginals(t, (S,)) for S in supports]))
        for s, S in enumerate(supports):
            for b in range(batch):
                want = partial_trace(DensityOp(np.outer(psi[b], psi[b].conj())), dims, S).mat
                assert np.abs(got[s, b] - want).max() <= 1e-13
        # the kept buffers are reused and give the same bits
        again = _marginals(t, supports, bufs)
        assert np.array_equal(again, got) and len(bufs) == 1


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

    def test_refuses_no_factors(self):
        with pytest.raises(mk.DimensionMismatch, match="at least one factor"):
            mk.kron_all([])

    @pytest.mark.parametrize("mats", [[np.ones(2), np.eye(2)], [np.eye(2), np.ones(2)]], ids=["vector-first", "matrix-first"])
    def test_refuses_factors_of_differing_ndim(self, mats):
        # a vector then a matrix gave a wrong shape-(4,) vector; a matrix then a vector an IndexError
        with pytest.raises(mk.DimensionMismatch, match=r"one ndim, got ndims \[\d, \d\]"):
            mk.kron_all(mats)


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

    @pytest.mark.parametrize("factors", [(0,), (2, 0), (-1,)])
    def test_refuses_a_dimension_below_one(self, factors):
        # haar_unitary(0, ...) once failed in numpy's reduction over a zero-size array
        with pytest.raises(mk.DimensionMismatch, match="unitary dimensions must be >= 1"):
            mk.haar_unitaries(factors, mk.stream(119))
        if len(factors) == 1:
            with pytest.raises(mk.DimensionMismatch, match="unitary dimensions must be >= 1"):
                mk.haar_unitary(factors[0], mk.stream(119))

    def test_one_factor_sampler_is_haar_unitary(self):
        want = per_factor_haar(6, mk.stream(117))
        assert mk.haar_unitary(6, mk.stream(117)).mat.tobytes() == want.tobytes()

    def test_scaled_sample_refused_by_unitary_op(self):
        # a sample taken back into the library from outside is checked: 2 U gives max |4 U^dag U - 1| = 3
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
