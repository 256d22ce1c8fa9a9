"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria are evaluated at their stated tolerances; nothing here is tuned
per instance.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import mereokit as mk
from mereokit.basis import coeff_tensor, weight_tensor
from mereokit.cli import main as cli_main
from mereokit.kinds import TpsVerdict
from mereokit.search import _spectral_jacobian, _spectral_point

from conftest import hs_norm_sq, nondegenerate_instance, random_hermitian, realigned_singular_values


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_conjugation_covariance():
    worst = 0.0
    count = 0
    for factors, seed in [((2, 2), 1001), ((2, 2, 2), 1002)]:
        dims = mk.Dims(factors)
        rng = mk.stream(seed)
        for _ in range(50):
            H = random_hermitian(dims.total, rng)
            T = mk.random_tps(dims, rng)
            U = mk.haar_unitary(dims.total, rng)
            p1 = mk.locality_report(H, T).weights
            HU = mk.HermitianOp(U.mat @ H.mat @ U.mat.conj().T)
            p2 = mk.locality_report(HU, mk.act(U, T)).weights
            worst = max(worst, float(np.abs(p1 - p2).max()))
            count += 1
    report(1, count == 100 and worst <= 1e-9,
           f"profiles of 100 conjugated triples agree entrywise, worst dev {worst:.2e}")


def test_criterion_2_one_local_evolution():
    # forward: 1-local pairs never witness on the grid
    forward_max = 0.0
    for factors, seed in [((2, 2), 1101), ((2, 2, 2), 1102)]:
        dims = mk.Dims(factors)
        rng = mk.stream(seed)
        for _ in range(10):
            H0 = mk.random_klocal(dims, 1, rng)
            U = mk.haar_unitary(dims.total, rng)
            H = mk.HermitianOp(U.mat @ H0.mat @ U.mat.conj().T)
            T = mk.act(U, mk.canonical(dims))
            probes = [mk.random_product_probe(T, rng) for _ in range(10)]
            grid = mk.default_time_grid(H, 64)
            v = mk.one_local_evolution_check(H, T, grid, probes)
            forward_max = max(forward_max, v.max_entropy)
            if not v.consistent:
                break
    forward_ok = forward_max < 1e-7

    # converse: non-1-local instances are witnessed in >= 49/50 cases
    witnessed = 0
    for factors, seed in [((2, 2), 1103), ((2, 2, 2), 1104)]:
        dims = mk.Dims(factors)
        rng = mk.stream(seed)
        for _ in range(25):
            while True:
                H = mk.random_klocal(dims, 2, rng)
                T = mk.random_tps(dims, rng)
                if mk.locality_report(H, T).min_k >= 2:
                    break
            probes = [mk.random_product_probe(T, rng) for _ in range(10)]
            grid = mk.default_time_grid(H, 64)
            v = mk.one_local_evolution_check(H, T, grid, probes)
            if v.witness is not None and v.witness.entropy > 1e-6:
                witnessed += 1
    report(2, forward_ok and witnessed >= 49,
           f"forward max entropy {forward_max:.2e} < 1e-7; converse witnessed {witnessed}/50")


def test_criterion_3_entropy_orbit():
    H = mk.pauli_string("XX")
    T = mk.canonical(mk.Dims((2, 2)))
    probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
    grid = np.arange(256) * (np.pi / 2) / 256  # includes pi/4 at index 128
    ents = mk.entropy_orbit(H, T, probe, 0, grid)
    distinct = mk.distinct_value_count(ents, 1e-4)
    peak_dev = abs(ents[128] - np.log(2))
    report(3, distinct >= 100 and peak_dev <= 1e-9,
           f"{distinct} distinct values at bin 1e-4; peak dev from log 2 at pi/4 is {peak_dev:.2e}")


def test_criterion_4_dimension_inequality():
    a = mk.symmetry_dims(mk.Dims((2, 2)))
    b = mk.symmetry_dims(mk.Dims((2, 2, 2)))
    instantiated = (
        a.dims.total == 4 and a.abelian_bound == 3 and a.stab_tps_dim == 7
        and b.dims.total == 8 and b.abelian_bound == 4 and b.stab_tps_dim == 10
    )
    report(4, instantiated, "(2,2): 4 > 3 and (2,2,2): 8 > 4 instantiate the formulas")


def test_criterion_5_product_detector():
    rng = mk.stream(1301)
    worst_residual = 0.0
    certified = 0
    for k in range(100):
        factors = [(2, 2), (2, 2, 2), (3, 2)][k % 3]
        dims = mk.Dims(factors)
        W = mk.kron_all([mk.haar_unitary(d, rng).mat for d in factors])
        W = W * np.exp(1j * rng.uniform(0, 2 * np.pi))
        cert = mk.is_product_operator(W, dims)
        if cert is not None:
            certified += 1
            worst_residual = max(worst_residual, float(np.abs(cert.assemble() - W).max()))
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    dims22 = mk.Dims((2, 2))
    rejected = mk.is_product_operator(cnot, dims22) is None
    min_second = min(s[1] / s[0] for s in (realigned_singular_values(cnot, (2, 2), i) for i in range(2)))
    for k in range(100):
        factors = (2, 2) if k % 2 else (2, 2, 2)
        dims = mk.Dims(factors)
        W = mk.haar_unitary(dims.total, rng).mat
        if mk.is_product_operator(W, dims) is not None:
            rejected = False
            break
        second = min(s[1] / s[0] for s in (realigned_singular_values(W, factors, i) for i in range(len(factors))))
        min_second = min(min_second, second)
    report(5, certified == 100 and worst_residual < 1e-8 and rejected and min_second > 1e-3,
           f"100/100 products certified (worst residual {worst_residual:.2e}); CNOT and 100 Haar "
           f"unitaries rejected (observed second singular ratio >= {min_second:.2e})")


def test_criterion_6_fingerprint_dual_oracle():
    verdicts = {v: 0 for v in TpsVerdict}
    for factors, seed in [((2, 2), 1401), ((2, 2, 2), 1402)]:
        dims = mk.Dims(factors)
        D = dims.total
        for k in range(50):
            rng = mk.stream(seed, k)
            H, psi = nondegenerate_instance(D, seed, k)
            T1 = mk.random_tps(dims, rng)
            probes = mk.build_probe_set(H, psi, 2 * D, rng)
            L = mk.kron_all([mk.haar_unitary(d, rng).mat for d in factors])
            U_local = mk.UnitaryOp(T1.iso.mat.conj().T @ L @ T1.iso.mat)
            cases = [mk.act(U_local, T1)]
            cases += [mk.act(mk.expm_i(H, t), T1) for t in (0.3, 0.7, 1.1)]
            for T2 in cases:
                verdicts[mk.cross_validate_tps(H, psi, T1, T2, probes)] += 1
    total = sum(verdicts.values())
    report(6, verdicts[TpsVerdict.INCONSISTENT] == 0 and total == 400,
           f"{total} verdicts over 100 trials: {verdicts[TpsVerdict.SAME]} same, "
           f"{verdicts[TpsVerdict.DIFFERENT]} different, {verdicts[TpsVerdict.INCONSISTENT]} inconsistent")


def test_criterion_7_kind_witnesses():
    rng = mk.stream(1501)
    worst_pair = 0.0
    for k in range(50):
        H, psi = nondegenerate_instance(4, 1501, k)
        V = mk.haar_unitary(4, rng)
        H2 = mk.HermitianOp(V.mat @ H.mat @ V.mat.conj().T)
        psi2 = mk.StateVec(V.mat @ psi.vec)
        U = mk.pair_orbit_witness(H, psi, H2, psi2)
        worst_pair = max(
            worst_pair,
            float(np.abs(U.mat @ H.mat @ U.mat.conj().T - H2.mat).max()),
            float(np.linalg.norm(U.mat @ psi.vec - psi2.vec)),
        )
    worst_gram = 0.0
    for k in range(50):
        n_vec = 2 + k % 3
        fam1 = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(n_vec)]
        V = mk.haar_unitary(4, rng)
        fam2 = [V.mat @ f for f in fam1]
        U = mk.gram_orbit_witness(fam1, fam2)
        worst_gram = max(
            worst_gram, max(float(np.linalg.norm(U.mat @ a - b)) for a, b in zip(fam1, fam2))
        )
    psi = mk.haar_state(4, rng)
    try:
        mk.build_probe_set(mk.HermitianOp(np.eye(4)), psi, 8, rng)
        degenerate_named = False
    except mk.HypothesisViolation as e:
        degenerate_named = e.reason == "degenerate_spectrum"
    H, _ = nondegenerate_instance(4, 1502)
    try:
        mk.build_probe_set(H, mk.StateVec(H.eig[1][:, 1]), 8, rng)
        support_named = False
    except mk.HypothesisViolation as e:
        support_named = e.reason == "zero_projection"
    report(7, worst_pair < 1e-8 and worst_gram < 1e-8 and degenerate_named and support_named,
           f"50+50 witness rounds (worst residuals {worst_pair:.2e}, {worst_gram:.2e}); "
           f"hypothesis violations named")


def test_criterion_8_dual_structure():
    ok = True
    details = []
    for n in (3, 4):
        dims = mk.Dims((2,) * n)
        H = mk.ising_chain(n, 1.0, 1.0)
        Tc = mk.canonical(dims)
        Td = mk.jw_dual_tps(n)
        norm = hs_norm_sq(H)
        tail_c = mk.locality_report(H, Tc).weights[3:].sum() / norm
        tail_d = mk.locality_report(H, Td).weights[3:].sum() / norm
        product = mk.is_product_operator(Td.iso.mat, dims) is not None
        ok = ok and tail_c < 1e-9 and tail_d < 1e-9 and not product
        details.append(f"n={n}: tails {tail_c:.1e}/{tail_d:.1e}, duality unitary product={product}")
    H4 = mk.ising_chain(4, 1.0, 1.0)
    ground = H4.eig[1][:, 0]
    dims4 = mk.Dims((2, 2, 2, 2))
    s_c = np.sort(mk.site_entropies(ground, dims4))
    s_d = np.sort(mk.site_entropies(mk.jw_dual_tps(4).iso.mat @ ground, dims4))
    discriminator = float(np.abs(s_c - s_d).max())
    ok = ok and discriminator > 1e-3
    report(8, ok, "; ".join(details) + f"; ground-state discriminator {discriminator:.4f}")


def test_criterion_9_search_recovery():
    dims = mk.Dims((2, 2, 2))
    weight = weight_tensor(dims.factors)
    mask = (weight >= 1) & (weight <= 2)
    recovered = 0
    grad_ok = True
    for k in range(10):
        rng = mk.stream(1601, k)
        H, _ = mk.scrambled_klocal(dims, 2, rng)
        lam = H.eig[0]
        c = np.where(weight == 0, coeff_tensor(H.mat, dims).real, 0.0)
        # spectral-mismatch gradient vs central differences at 10 random points
        for _ in range(10):
            x = rng.standard_normal(int(mask.sum()))
            d = rng.standard_normal(x.size)
            _, W, r = _spectral_point(x, c, mask, lam, dims)
            an = float(2.0 * (r @ _spectral_jacobian(W, dims, 2)) @ d)
            eps = 1e-5
            fd = (
                _spectral_point(x + eps * d, c, mask, lam, dims)[0]
                - _spectral_point(x - eps * d, c, mask, lam, dims)[0]
            ) / (2 * eps)
            if abs(fd - an) > 1e-4 * max(abs(fd), abs(an), 1e-12):
                grad_ok = False
        res = mk.search(H, dims, mk.SearchConfig(K=2, restarts=8, max_iters=2000, seed=1601 + k))
        if res.residual < 1e-6:
            recovered += 1
    report(9, recovered >= 9 and grad_ok,
           f"{recovered}/10 instances recovered below 1e-6; gradients match FD at 1e-4")


def test_criterion_10_cli_determinism(tmp_path):
    jobs = {
        "profile": {"model": {"name": "ising", "n": 3, "J": 1.0, "h": 1.0}, "tps": "canonical"},
        "orbit": {"model": {"name": "pauli", "string": "XX"},
                  "grid": {"points": 64, "t_max": 1.5707963267948966}},
        "fingerprint": {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar",
                        "tps1": {"kind": "random"}, "tps2": {"kind": "evolved", "t": 0.7}},
        "search": {"model": {"name": "scrambled_klocal", "dims": [2, 2], "K": 1},
                   "search": {"K": 1, "restarts": 2, "max_iters": 80}},
        "kinds": {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2, 2]},
                                            "state": "haar"}, "pair2": "conjugated"},
        "dualscan": {"dims": [2, 2], "trials": 2, "t_values": [0.5]},
    }
    all_ok = True
    for command, cfg in jobs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({**cfg, "seed": 4242}))
        outs = []
        codes = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}.{tag}.out"
            codes.append(cli_main([command, "--config", str(path), "--out", str(out)]))
            payload = out.read_bytes()
            for side in (".summary.json", ".witness.npy"):
                try:
                    payload += Path(str(out) + side).read_bytes()
                except FileNotFoundError:
                    pass
            outs.append(payload)
        if outs[0] != outs[1] or codes[0] != codes[1]:
            all_ok = False
    report(10, all_ok, "all six subcommands reproduce byte-identical payloads under a fixed config")
