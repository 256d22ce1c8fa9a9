import csv
import dataclasses
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mereokit as mk
from mereokit import cli
from mereokit.cli import _kinds_pair, build_state, main, save_matrix_file

from conftest import per_factor_haar


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(args):
    return main(args)


def csv_rows(path):
    """The rows of a CSV output as dicts of strings, below its '# config=' line."""
    with open(path) as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


class TestProfile:
    def test_ising_min_k(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "ising", "n": 3, "J": 1.0, "h": 1.0}, "tps": "canonical", "seed": 7},
        )
        assert run_cli(["profile", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report"]["min_k"] == 2
        assert out["config"]["seed"] == 7

    def test_identity_matrix_file(self, tmp_path, capsys):
        mat = str(tmp_path / "id.json")
        save_matrix_file(mat, np.eye(4, dtype=complex), mk.Dims((2, 2)))
        cfg = write_config(tmp_path, "c.json", {"file": mat, "tps": "canonical"})
        assert run_cli(["profile", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["min_k"] == 0

    def test_scrambled_min_k(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "scrambled_klocal", "dims": [2, 2, 2], "K": 2}, "seed": 3},
        )
        assert run_cli(["profile", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["min_k"] == 3

    @pytest.mark.parametrize("c", [1e5, 1e12])
    def test_shifted_ising_matrix_file_min_k(self, tmp_path, capsys, c):
        # the three-site Ising chain plus c times the identity, read from a matrix file
        mat = str(tmp_path / "ising_shifted.json")
        save_matrix_file(mat, mk.ising_chain(3, 1.0, 1.0).mat + c * np.eye(8), mk.Dims((2, 2, 2)))
        out = tmp_path / "p.json"
        cfg = write_config(tmp_path, "c.json", {"file": mat, "tps": "canonical"})
        assert run_cli(["profile", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["min_k"] == 2

    @pytest.mark.parametrize("model, tps", [
        ({"name": "random_klocal", "dims": [2] * 7, "K": 2}, "canonical"),
        ({"name": "ising", "n": 7, "J": 1.0, "h": 1.0}, "jw_dual"),  # in its string-variable dual
    ], ids=["klocal", "ising"])
    def test_seven_qubit_min_k(self, tmp_path, model, tps):
        out = tmp_path / "p.json"
        cfg = write_config(tmp_path, "c.json", {"model": model, "tps": tps, "seed": 1})
        assert run_cli(["profile", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["min_k"] == 2

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": }')
        assert run_cli(["profile", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_nonhermitian_matrix_exit_1(self, tmp_path, capsys):
        mat = str(tmp_path / "bad.json")
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        save_matrix_file(mat, m, mk.Dims((2, 2)))
        cfg = write_config(tmp_path, "c.json", {"file": mat, "tps": "canonical"})
        assert run_cli(["profile", "--config", cfg]) == 1

    def test_missing_config_flag_exit_1(self, capsys):
        assert run_cli(["profile"]) == 1


class TestOrbit:
    def test_spectrum_beyond_float64_exits_with_one_error(self, tmp_path, capsys):
        # finite entries up to 1.5e308 whose spectrum overflows: RuntimeWarnings, then "bin 0.0001
        # is too small", once; now HermitianOp.eig refuses it as ScaleOutOfRange
        A = mk.stream(3).standard_normal((4, 4)) + 1j * mk.stream(4).standard_normal((4, 4))
        H = (A + A.conj().T) / 2
        save_matrix_file(str(tmp_path / "big.json"), H / np.abs(H.view(float)).max() * 1.5e308, mk.Dims((2, 2)))
        cfg = write_config(tmp_path, "c.json", {"file": str(tmp_path / "big.json"), "site": 0, "grid": {"points": 16}})
        assert run_cli(["orbit", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err == "error: spectrum leaves float64 at scale 1.5e+308\n"
        assert list(tmp_path.glob("out*")) == []

    def test_pure_marginal_rows_read_positive_zero(self, tmp_path):
        # the zeros probe is an eigenstate of a diagonal H, so site 1 stays pure: every entropy is
        # 0.0, or the rounding of one, and none is -0.0
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "ising", "n": 4, "J": 1.0, "h": 0.0},
                                                "tps": "canonical", "probe": "zeros", "site": 1, "seed": 0})
        out = tmp_path / "orbit.csv"
        assert run_cli(["orbit", "--config", cfg, "--out", str(out)]) == 0
        ents = [float(line.split(",")[1]) for line in out.read_text().splitlines()[2:]]
        assert len(ents) == 64 and max(ents) < 1e-15 and not np.signbit(ents).any()
        summary = json.loads(Path(str(out) + ".summary.json").read_text())
        assert not np.signbit(summary["max_entropy"])

    def test_xx_orbit(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {
                "model": {"name": "pauli", "string": "XX"},
                "site": 0,
                "probe": "zeros",
                "grid": {"points": 256, "t_max": np.pi / 2},
                "bin": 1e-4,
                "seed": 1,
            },
        )
        out = str(tmp_path / "orbit.csv")
        assert run_cli(["orbit", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "t,entropy"
        assert len(lines) == 2 + 256
        summary = json.loads(Path(out + ".summary.json").read_text())
        assert summary["distinct_values"] >= 100
        assert summary["max_entropy"] == pytest.approx(np.log(2), abs=1e-9)

    @pytest.mark.parametrize("dims, site, points, probe", [
        ([2, 3, 2], 1, 64, None),
        # 256 qutrit marginals in one stack, from a product probe
        ([3, 3, 3], 2, 256, [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0.6, 0], [0, 0.8], [0, 0]]]),
    ], ids=["2x3x2", "3x3x3"])
    def test_qutrit_site_entropies_within_log_3(self, tmp_path, dims, site, points, probe):
        cfg = {"model": {"name": "gue", "dims": dims}, "tps": {"kind": "random"}, "site": site,
               "grid": {"points": points}, "seed": 1}
        if probe:
            cfg["probe"] = probe
        out = str(tmp_path / "orbit.csv")
        assert run_cli(["orbit", "--config", write_config(tmp_path, "c.json", cfg), "--out", out]) == 0
        rows = csv_rows(out)
        ents = [float(r["entropy"]) for r in rows]
        assert len(rows) == points and max(ents) <= math.log(3)
        assert float(rows[0]["t"]) == 0.0 and ents[0] <= 1e-12  # a product probe at t = 0

    def test_probe_kets_whose_norms_square_out_of_range(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MEREOKIT_SEED", raising=False)
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "pauli", "string": "XX"},
                                                "probe": [[[1e200, 0], [1e200, 0]], [[1, 0], [0, 0]]],
                                                "grid": {"points": 16}})
        assert run_cli(["orbit", "--config", cfg, "--out", str(tmp_path / "orbit.csv")]) == 0

    def test_one_local_zero_column(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "random_klocal", "dims": [2, 2], "K": 1}, "seed": 5},
        )
        out = str(tmp_path / "orbit.csv")
        assert run_cli(["orbit", "--config", cfg, "--out", out]) == 0
        rows = [line.split(",") for line in Path(out).read_text().splitlines()[2:]]
        assert max(float(e) for _, e in rows) < 1e-9

    def test_nonproduct_probe_rejected(self, tmp_path, capsys):
        bell = [[0.7071067811865476, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7071067811865476, 0.0]]
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "pauli", "string": "XX"}, "probe": [bell], "seed": 1},
        )
        assert run_cli(["orbit", "--config", cfg]) == 1


    @pytest.mark.parametrize("tps, calls", [({"kind": "random"}, 0), ({"kind": "local"}, 1),
                                            ({"kind": "evolved", "t": 0.7}, 1)])
    def test_canonical_built_only_when_read(self, tmp_path, monkeypatch, tps, calls):
        # only a local or evolved structure is relative to the canonical one
        built = []
        real = mk.tps.canonical
        monkeypatch.setattr(mk.tps, "canonical", lambda dims: built.append(dims) or real(dims))
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "gue", "dims": [2, 2]}, "tps": tps,
                                                "grid": {"points": 8}, "seed": 1})
        assert run_cli(["orbit", "--config", cfg, "--out", str(tmp_path / "orbit.csv")]) == 0
        assert len(built) == calls

    @pytest.mark.parametrize("t_max", [5e305, 1e306, 2e306])
    @pytest.mark.filterwarnings("error")
    def test_grid_t_max_with_finite_phases_runs(self, tmp_path, t_max):
        # max |lambda| = 11.18: the last time's phases reach 2.2e307, inside float64, which a bound
        # of 64 * max |lambda| * t_max once refused
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "ising", "n": 2, "J": 5.0, "h": 5.0},
                                                "grid": {"points": 64, "t_max": t_max}, "seed": 1})
        out = str(tmp_path / "orbit.csv")
        assert run_cli(["orbit", "--config", cfg, "--out", out]) == 0
        assert [float(r["t"]) for r in csv_rows(out)] == (np.arange(64) * t_max / 64).tolist()

    @pytest.mark.parametrize("points", [0, -3])
    def test_nonpositive_grid_points_exit_1(self, tmp_path, capsys, points):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "pauli", "string": "XX"}, "grid": {"points": points}, "seed": 1},
        )
        out = tmp_path / "orbit.csv"
        assert run_cli(["orbit", "--config", cfg, "--out", str(out)]) == 1
        assert "grid.points" in capsys.readouterr().err
        assert not out.exists()


class TestFingerprint:
    def test_identical_sources_same(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar",
             "tps1": "canonical", "tps2": "canonical", "seed": 11},
        )
        assert run_cli(["fingerprint", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "SameTps" and out["tps_equal"] is True

    def test_evolved_different(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar",
             "tps1": {"kind": "random"}, "tps2": {"kind": "evolved", "t": 0.7}, "seed": 11},
        )
        assert run_cli(["fingerprint", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "DifferentTps"
        assert out["fingerprint_distance"] > 1e-3

    @pytest.mark.parametrize("n", [7, 8])  # from D = 256 the product test takes the Kronecker residual
    @pytest.mark.parametrize("tps2, verdict", [({"kind": "local"}, "SameTps"),
                                               ({"kind": "evolved", "t": 0.7}, "DifferentTps")],
                             ids=["local", "evolved"])
    def test_random_structure_moved_at_d128_and_d256(self, tmp_path, n, tps2, verdict):
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "gue", "dims": [2] * n}, "state": "haar",
                                                "tps1": {"kind": "random"}, "tps2": tps2, "seed": 1})
        out = tmp_path / "fp.json"
        assert run_cli(["fingerprint", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == verdict

    def test_two_random_structures_differ(self, tmp_path, capsys):
        # tps2 draws its random structure from its own sub-stream
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2, 2]}, "state": "haar",
             "tps1": {"kind": "random"}, "tps2": {"kind": "random"}, "seed": 3},
        )
        assert run_cli(["fingerprint", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tps_equal"] is False and out["verdict"] == "DifferentTps"
        assert out["fingerprint_distance"] > 1e-3

    def test_identity_hypothesis_error_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "pauli", "string": "II"}, "state": "haar",
             "tps1": "canonical", "tps2": "canonical", "seed": 1},
        )
        assert run_cli(["fingerprint", "--config", cfg]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "hypothesis_violation"
        assert err["reason"] == "degenerate_spectrum"


class TestSearchCmd:
    def test_scrambled_recovery_exit_0(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "scrambled_klocal", "dims": [2, 2, 2], "K": 2},
             "search": {"K": 2, "restarts": 4, "max_iters": 500}, "seed": 21},
        )
        out = str(tmp_path / "res.json")
        assert run_cli(["search", "--config", cfg, "--out", out]) == 0
        res = json.loads(Path(out).read_text())["result"]
        assert res["converged"] and res["residual"] < 1e-6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "res.json"]  # no .trace.csv

    @pytest.mark.parametrize("dims, K", [
        ([2] * 6, 2), ([3, 3, 3], 2), ([2, 3, 2], 2), ([2, 2, 2, 2], 2), ([2] * 5, 2), ([2] * 7, 2),
        ([2, 3, 3], 1), ([2] * 7, 1),
    ], ids=["2x6-K2", "3x3x3-K2", "2x3x2-K2", "2x4-K2", "2x5-K2", "2x7-K2", "2x3x3-K1", "2x7-K1"])
    def test_scrambled_recovery_one_restart(self, tmp_path, dims, K):
        # (2,2,2,2) matches on the dense basis map and (2,)*5 on the marginals; K = 1 spectra
        # factor into site spectra
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "scrambled_klocal", "dims": dims, "K": K},
                                                "search": {"K": K, "restarts": 1}, "seed": 1})
        out = tmp_path / "res.json"
        assert run_cli(["search", "--config", cfg, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["result"]
        assert res["converged"] is True
        assert res["iterations"] == 0 and len(res["trace"]) == 1 and res["trace"][0][1] == res["residual"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "res.json"]  # no .trace.csv

    def test_k_equals_n_immediate(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2]}, "search": {"K": 2, "restarts": 1}, "seed": 2},
        )
        assert run_cli(["search", "--config", cfg]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["residual"] == 0.0 and res["trace"][0] == [0, 0.0]

    def test_generic_k1_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2, 2]},
             "search": {"K": 1, "restarts": 2, "max_iters": 100}, "seed": 4},
        )
        assert run_cli(["search", "--config", cfg]) == 2
        res = json.loads(capsys.readouterr().out)["result"]
        assert not res["converged"]
        assert res["residual"] > 1e-6

    def test_gue_five_qubits_two_local_exit_0(self, tmp_path, capsys):
        # a generic spectrum at D = 32 has a 2-local match
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2] * 5}, "search": {"K": 2, "restarts": 1}, "seed": 5},
        )
        assert run_cli(["search", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["residual"] < 1e-6

    def test_gue_three_qubits_one_local_exit_2(self, tmp_path, capsys):
        # a 1-local spectrum on three qubits is a sum set {±a ± b ± c}: three
        # numbers cannot match seven free eigenvalues
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2, 2]}, "search": {"K": 1}, "seed": 6},
        )
        assert run_cli(["search", "--config", cfg]) == 2
        assert json.loads(capsys.readouterr().out)["result"]["residual"] > 1e-6

    def test_unknown_search_field_exit_1(self, tmp_path, capsys):
        # a misspelling, the retired tuning fields of the spectrum match (module constants in
        # search.py), and a seed, which is the top-level one
        for field in ("max_iter", "grad_tol", "step_init", "armijo_c", "backtrack_ratio", "seed"):
            cfg = write_config(
                tmp_path, "c.json",
                {"model": {"name": "gue", "dims": [2, 2]}, "search": {"K": 2, field: 5}, "seed": 2},
            )
            out = tmp_path / "res.json"
            assert run_cli(["search", "--config", cfg, "--out", str(out)]) == 1
            assert f"unknown search field {field!r}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_success_residual_exit_1(self, tmp_path, capsys, value):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2, 2]},
             "search": {"K": 1, "restarts": 1, "success_residual": value}, "seed": 2},
        )
        out = tmp_path / "res.json"
        assert run_cli(["search", "--config", cfg, "--out", str(out)]) == 1
        assert "success_residual must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value,want", [
        ("K", 2.7, "an integer"), ("restarts", 1.9, "an integer"), ("max_iters", 3.5, "an integer"),
        ("K", True, "an integer"), ("restarts", None, "an integer"), ("success_residual", True, "a number"),
        pytest.param("K", "2.7", "an integer", id="K-'2.7'-an integer"), ("success_residual", "abc", "a number"),
    ])
    def test_non_integral_or_bool_field_exit_1(self, tmp_path, capsys, field, value, want):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2]}, "search": {field: value}, "seed": 2},
        )
        out = tmp_path / "res.json"
        assert run_cli(["search", "--config", cfg, "--out", str(out)]) == 1
        assert f"search field {field!r} must be {want}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_int_fields_run(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2]},
             "search": {"K": 2.0, "restarts": 1.0, "max_iters": 3.0}, "seed": 2},
        )
        assert run_cli(["search", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["search"]["K"] == 2.0

    def test_search_fields_default_from_search_config(self):
        from mereokit.cli import _search_config

        config = _search_config({"max_iters": 7.0, "success_residual": 1}, 5)
        assert config == mk.SearchConfig(K=2, max_iters=7, success_residual=1.0, seed=5)
        assert isinstance(config.max_iters, int) and isinstance(config.success_residual, float)
        assert [f.name for f in dataclasses.fields(config)] == [
            "K", "restarts", "max_iters", "success_residual", "seed"
        ]
        # the seed is the run's top-level one; one in the search entry used to be ignored
        with pytest.raises(cli.UsageError, match="unknown search field 'seed'"):
            _search_config({"seed": "abc"}, 5)


class TestKinds:
    def test_conjugated_pair_witness(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"mode": "hsf",
             "pair1": {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar"},
             "pair2": "conjugated", "seed": 5},
        )
        assert run_cli(["kinds", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["residual_operator"] < 1e-8
        assert out["residual_state"] < 1e-8

    def test_mismatched_pairs_no_witness_report(self, tmp_path, capsys):
        z = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]  # dummy
        mat1 = str(tmp_path / "m1.json")
        mat2 = str(tmp_path / "m2.json")
        save_matrix_file(mat1, np.diag([-1.0, 1.0, 2.0, 3.0]).astype(complex), mk.Dims((2, 2)))
        save_matrix_file(mat2, np.diag([-1.0, 1.0, 2.0, 4.0]).astype(complex), mk.Dims((2, 2)))
        cfg = write_config(
            tmp_path, "c.json",
            {"mode": "hsf",
             "pair1": {"file": mat1, "state": "haar"},
             "pair2": {"file": mat2, "state": "haar"}, "seed": 6},
        )
        assert run_cli(["kinds", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] is None
        assert "spectra differ" in out["reason"]

    def test_gram_orthonormal_bases(self, tmp_path, capsys):
        e = np.eye(3)
        fam1 = [[[float(x), 0.0] for x in row] for row in e]
        cfg = write_config(
            tmp_path, "c.json",
            {"mode": "gram", "family1": fam1, "family2": "rotated", "seed": 8},
        )
        assert run_cli(["kinds", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["residual"] < 1e-8

    def test_gram_mismatch_report(self, tmp_path, capsys):
        fam1 = [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        fam2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        cfg = write_config(
            tmp_path, "c.json",
            {"mode": "gram", "family1": fam1, "family2": fam2, "seed": 8},
        )
        assert run_cli(["kinds", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] is None

    @pytest.mark.parametrize("field, family2", [("family1", "rotated"), ("family1", "list"), ("family2", "list")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["NaN", "Infinity"])
    def test_gram_non_finite_member_one_error_line(self, tmp_path, capsys, field, family2, bad):
        # a NaN literal in family1 exited 1 with numpy's "SVD did not converge"
        fams = {name: [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]] for name in ("family1", "family2")}
        fams[field][1][0][1] = bad
        if family2 == "rotated":
            fams["family2"] = "rotated"
        cfg = write_config(tmp_path, "c.json", {"mode": "gram", **fams, "seed": 8})
        assert run_cli(["kinds", "--config", cfg]) == 1
        got = capsys.readouterr()
        assert got.out == "" and got.err == f"error: {field} member 1 has a NaN or inf entry\n"

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("family2", ["rotated", "list", "off-orbit"])
    def test_gram_verdict_does_not_depend_on_scale(self, tmp_path, capsys, scale, family2):
        # at 1e300 the reported residual's squares overflowed (inf, and a RuntimeWarning); at
        # 1e-300 they underflowed to a residual of 0
        rng = mk.stream(641)
        fam1 = (rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))) * scale
        fam2 = fam1 @ mk.haar_unitary(8, rng).mat.T
        fam2[1] *= 1.5 if family2 == "off-orbit" else 1.0
        pairs = lambda f: np.stack((f.real, f.imag), axis=-1).tolist()
        spec2 = "rotated" if family2 == "rotated" else pairs(fam2)
        cfg = write_config(tmp_path, "c.json", {"mode": "gram", "family1": pairs(fam1), "family2": spec2,
                                                "tol": 1e-8 * scale, "seed": 8})
        assert run_cli(["kinds", "--config", cfg]) == 0
        got = capsys.readouterr()
        out = json.loads(got.out)
        assert got.err == "" and (out["witness"] is None) == (family2 == "off-orbit")
        if out["witness"] is not None:
            assert 0.0 < out["residual"] <= 1e-8 * scale

    @pytest.mark.parametrize("seed, code", [(1, 0), (2, 1)])
    def test_gram_rotation_past_float64(self, tmp_path, capsys, seed, code):
        # a member of norm 2.4e308: the rotated family fits float64 for some draws and not for
        # others; either way no RuntimeWarning, and a family2 that overflows is refused by name
        cfg = write_config(tmp_path, "c.json", {"mode": "gram", "family1": [[[1.7e308, 0.0], [1.7e308, 0.0]]],
                                                "family2": "rotated", "tol": 1e300, "seed": seed})
        assert run_cli(["kinds", "--config", cfg]) == code
        got = capsys.readouterr()
        if code:
            assert got.out == "" and got.err == "error: family2 member 0 has a NaN or inf entry\n"
        else:
            assert got.err == "" and json.loads(got.out)["witness"] is not None

    @pytest.mark.parametrize("mode", ["hsf", "gram"])
    def test_near_miss_no_witness(self, tmp_path, mode):
        # every weight, or every Gram entry, agrees within tol = 1e-8, yet the witness would miss
        # psi2 by 2.1e-5, or each family2 member by 4.5e-5: a no-witness payload and no sidecar
        if mode == "hsf":
            mat = str(tmp_path / "m.json")
            save_matrix_file(mat, np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex), mk.Dims((2, 2)))
            w1 = np.array([0.5, 0.3, 0.2 - 4e-8, 4e-8])
            w2 = w1 + np.array([0.0, 0.0, -9e-9, 9e-9])
            cfg = {"pair1": {"file": mat, "state": [[x, 0.0] for x in np.sqrt(w1)]},
                   "pair2": {"file": mat, "state": [[x, 0.0] for x in np.sqrt(w2)]}}
        else:
            cfg = {"family1": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                   "family2": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [9e-5, 0.0]]]}
        path = write_config(tmp_path, "c.json", {"mode": mode, **cfg, "tol": 1e-8, "seed": 1})
        out = tmp_path / "w.json"
        assert run_cli(["kinds", "--config", path, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["witness"] is None and payload["reason"]
        assert list(tmp_path.glob("*.npy")) == []

    def test_pair_states_do_not_collide_across_seeds(self):
        # each pair draws its state from its own sub-stream, so seed 7 on
        # path 1 is no longer seed 8 on path 0
        pair = {"model": {"name": "ising", "n": 2, "J": 1.0, "h": 0.5}, "state": "haar"}
        _, a = _kinds_pair(pair, 7, 1)
        _, b = _kinds_pair(pair, 8, 0)
        assert np.abs(a.vec - b.vec).max() > 1e-3
        _, c = _kinds_pair(pair, 7, 0)
        assert np.abs(a.vec - c.vec).max() > 1e-3

    def test_pair_models_do_not_collide(self):
        # each pair draws its random model from its own sub-stream
        pair = {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar"}
        a, _ = _kinds_pair(pair, 7, 0)
        b, _ = _kinds_pair(pair, 7, 1)
        assert not np.array_equal(a.mat, b.mat)

    def test_default_state_stream_unchanged(self):
        dims = mk.Dims((2, 2))
        assert np.array_equal(
            build_state("haar", dims, 7).vec, mk.haar_state(4, mk.stream(7, 4)).vec
        )


class TestDualscan:
    def test_no_inconsistent(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"dims": [2, 2], "trials": 3, "t_values": [0.3, 0.7], "seed": 9},
        )
        out = str(tmp_path / "scan.csv")
        assert run_cli(["dualscan", "--config", cfg, "--out", out]) == 0
        text = Path(out).read_text()
        assert '"Inconsistent": 0' in text
        assert text.count("SameTps") >= 3

    # mixed dims put closed-form qubit and qutrit marginal spectra beside eigvalsh ones and the early
    # stop across unequal factor dims; at (2, 4, 2) the local move stacks two qubit unitaries beside
    # one d = 4 unitary
    @pytest.mark.parametrize("dims, seed", [
        ([3, 3, 3], 9), ([2] * 5, 9), ([2] * 6, 1), ([2, 3, 2], 1), ([3, 3, 3], 1), ([2, 4, 2], 1),
    ], ids=["3x3x3-9", "2x5-9", "2x6-1", "2x3x2-1", "3x3x3-1", "2x4x2-1"])
    def test_no_inconsistent_past_d16(self, tmp_path, dims, seed):
        cfg = write_config(tmp_path, "c.json", {"dims": dims, "trials": 2, "seed": seed})
        out = str(tmp_path / "scan.csv")
        assert run_cli(["dualscan", "--config", cfg, "--out", out]) == 0
        rows = [r for r in csv_rows(out) if r["trial"] != "summary"]
        assert len(rows) == 2 * 4
        assert all(r["verdict"] in ("SameTps", "DifferentTps") for r in rows)
        assert all(r["verdict"] == "SameTps" for r in rows if r["case"] == "local")

    def test_refused_draw_exits_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # one draw per trial: a draw that misses the spectral hypotheses is refused, not redrawn
        monkeypatch.setattr(cli, "_gue", lambda D, rng: mk.HermitianOp(np.eye(D)))
        cfg = write_config(tmp_path, "c.json", {"dims": [2, 2], "trials": 2, "seed": 9})
        out = tmp_path / "scan.csv"
        assert run_cli(["dualscan", "--config", cfg, "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["reason"] == "degenerate_spectrum"
        assert not out.exists()

    def test_stream_paths_distinct(self, tmp_path, monkeypatch):
        # per trial: the instance from path 0, the probes from 64 and the local move from 65
        paths = []
        monkeypatch.setattr(cli, "stream", lambda seed, *path: paths.append(path) or mk.stream(seed, *path))
        cfg = write_config(tmp_path, "c.json", {"dims": [2, 2], "trials": 2, "t_values": [0.7], "seed": 9})
        out = str(tmp_path / "scan.csv")
        assert run_cli(["dualscan", "--config", cfg, "--out", out]) == 0
        assert paths == [(0, 0), (0, 64), (0, 65), (1, 0), (1, 64), (1, 65)]
        assert '"Inconsistent": 0' in Path(out).read_text()


class TestDraws:
    @pytest.mark.parametrize("D", [4, 12, 27])
    def test_gue_as_the_out_of_place_sum(self, D):
        # A's parts filled in place, then A += A^dag and A /= 2: the bits of (A + A^dag) / 2
        rng = mk.stream(12, D)
        A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        assert cli._gue(D, mk.stream(12, D)).mat.tobytes() == ((A + A.conj().T) / 2).tobytes()

    @pytest.mark.parametrize("factors", [(2, 2, 3), (3, 3, 3), (2, 4, 2), (2,) * 5])
    def test_local_move_as_per_factor_draws(self, factors):
        # the site unitaries come from one stacked draw, with the bits of one draw per factor
        T = mk.random_tps(mk.Dims(factors), mk.stream(13))
        rng = mk.stream(14)
        L = mk.kron_all([per_factor_haar(d, rng) for d in factors])
        want = mk.act(mk.UnitaryOp(T.iso.mat.conj().T @ L @ T.iso.mat), T)
        assert cli._local_move(T, mk.stream(14)).iso.mat.tobytes() == want.iso.mat.tobytes()


class TestWorkCounts:
    """One eigendecomposition per Hamiltonian; every structure of an op fingerprinted once, in one
    ``fingerprint`` call and one ``site_entropies`` kernel call; no equivalence computed twice.
    ``eigh`` counts the D x D calls only: ``equivalent`` also takes the top eigenvectors of its
    d^2 x d^2 slot Grams."""

    @pytest.fixture
    def counts(self, monkeypatch, dims):
        from mereokit import kinds, tps

        counts = {"eigh": 0, "fingerprint": 0, "structures": 0, "site_entropies": 0, "equivalent": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        real_fingerprint = kinds.fingerprint

        def fingerprint(H, psi, Ts, probes):
            counts["structures"] += len(Ts)
            return real_fingerprint(H, psi, Ts, probes)

        D = int(np.prod(dims))
        real_eigh = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            counts["eigh"] += a.shape[-2:] == (D, D)
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(kinds, "fingerprint", counting("fingerprint", fingerprint))
        monkeypatch.setattr(tps, "site_entropies", counting("site_entropies", tps.site_entropies))
        equivalent = counting("equivalent", tps.equivalent)
        monkeypatch.setattr(tps, "equivalent", equivalent)
        monkeypatch.setattr(kinds, "equivalent", equivalent)
        return counts

    @pytest.mark.parametrize("dims", [[2, 2, 2], [2, 2, 3]])
    def test_dualscan_trial(self, tmp_path, counts, dims):
        # T1 and four cases per trial (one local move, three evolved); the
        # first draw of every trial meets the spectral hypotheses
        cfg = write_config(
            tmp_path, "c.json",
            {"dims": dims, "trials": 2, "t_values": [0.3, 0.7, 1.1], "seed": 3},
        )
        assert run_cli(["dualscan", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        assert counts == {"eigh": 2, "fingerprint": 2, "structures": 2 * (1 + 4),
                          "site_entropies": 2, "equivalent": 2 * 4}

    @pytest.mark.parametrize("dims", [[2, 2, 2], [2, 2, 3]])
    def test_fingerprint_command(self, tmp_path, counts, dims):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": dims}, "state": "haar",
             "tps1": {"kind": "random"}, "tps2": {"kind": "evolved", "t": 0.7}, "seed": 3},
        )
        assert run_cli(["fingerprint", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 0
        assert counts == {"eigh": 1, "fingerprint": 1, "structures": 2,
                          "site_entropies": 1, "equivalent": 1}


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("profile", {"model": {"name": "ising", "n": 3, "J": 1.0, "h": 1.0}, "tps": "canonical"}),
            ("orbit", {"model": {"name": "pauli", "string": "XX"}, "grid": {"points": 32, "t_max": 1.5}}),
            ("fingerprint", {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar",
                             "tps1": {"kind": "random"}, "tps2": {"kind": "local"}}),
            ("search", {"model": {"name": "scrambled_klocal", "dims": [2, 2], "K": 1},
                        "search": {"K": 1, "restarts": 2, "max_iters": 60}}),
            ("kinds", {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2, 2]},
                                                 "state": "haar"}, "pair2": "conjugated"}),
            ("dualscan", {"dims": [2, 2], "trials": 2, "t_values": [0.5]}),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, command, cfg, capsys):
        path = write_config(tmp_path, "c.json", {**cfg, "seed": 1234})
        out1 = str(tmp_path / "a.out")
        out2 = str(tmp_path / "b.out")
        rc1 = run_cli([command, "--config", path, "--out", out1])
        rc2 = run_cli([command, "--config", path, "--out", out2])
        assert rc1 == rc2
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_byte_identical_in_fresh_processes(self, tmp_path):
        # every run in its own process, at D = 128 and, for a conjugated kinds pair, at D = 64 too
        configs = {
            "orbit": {"model": {"name": "gue", "dims": [2] * 7}, "tps": {"kind": "random"}, "grid": {"points": 64}},
            "kinds": {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2] * 7}, "state": "haar"},
                      "pair2": "conjugated"},
            "kinds-6q": {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2] * 6}, "state": "haar"},
                         "pair2": "conjugated"},
            "fingerprint": {"model": {"name": "gue", "dims": [2] * 7}, "state": "haar",
                            "tps1": {"kind": "random"}, "tps2": {"kind": "local"}},
        }
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(mk.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        digests = []
        for run in (1, 2):
            where = tmp_path / f"run{run}"
            where.mkdir()
            for name, cfg in configs.items():
                path = write_config(tmp_path, f"{name}.json", {**cfg, "seed": 1})
                proc = subprocess.run([sys.executable, "-m", "mereokit", name.split("-")[0], "--config", path,
                                       "--out", str(where / f"{name}.out")],
                                      env=env, capture_output=True, text=True, timeout=60)
                assert proc.returncode == 0, proc.stderr
            digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in where.iterdir()})
        # orbit's CSV and summary, each kinds payload and its witness sidecar, the fingerprint payload
        assert len(digests[0]) == 7
        assert digests[0] == digests[1]

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MEREOKIT_SEED", "777")
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "gue", "dims": [2, 2]}})
        assert run_cli(["profile", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["seed"] == 777


class TestUsage:
    def test_format_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "pauli", "string": "XX"}})
        assert run_cli(["profile", "--config", cfg, "--format", "json"]) == 1

    @pytest.mark.parametrize("command", ["orbit", "search"])
    def test_tol_flag_rejected_where_unused(self, tmp_path, capsys, command):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2]}, "search": {"K": 2, "restarts": 1}},
        )
        assert run_cli([command, "--config", cfg, "--tol", "5"]) == 1
        assert "--tol" in capsys.readouterr().err

    def test_tol_flag_recorded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "pauli", "string": "XX"}, "tol": 1e-3})
        assert run_cli(["profile", "--config", cfg, "--tol", "1e-5"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == 1e-5

    @pytest.mark.parametrize("command,source,field,value", [
        ("profile", "flag", "tol", "nan"), ("profile", "flag", "tol", "inf"), ("profile", "flag", "tol", "-1"),
        ("kinds", "flag", "tol", "nan"), ("profile", "config", "tol", 0), ("kinds", "config", "tol", "abc"),
        ("profile", "config", "tol", True), ("search", "config", "seed", 2.7), ("search", "config", "seed", True),
        ("profile", "config", "seed", "abc"), ("profile", "config", "seed", -1), ("kinds", "flag", "seed", "-1"),
        ("profile", "env", "seed", "abc"), ("profile", "env", "seed", "-1"), ("profile", "env", "seed", "2.7"),
        ("profile", "config", "seed", "2"), ("kinds", "config", "tol", "1e-3"),
    ])
    def test_bad_seed_or_tol_exit_1(self, tmp_path, capsys, monkeypatch, command, source, field, value):
        # the 3-site Ising chain has min_k 2 and the two GUE pairs have different spectra,
        # so a NaN, infinite or negative tol used to give a wrong report with exit 0
        cfg = {
            "profile": {"model": {"name": "ising", "n": 3, "J": 1.0, "h": 1.0}},
            "kinds": {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar"},
                      "pair2": {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar"}},
            "search": {"model": {"name": "gue", "dims": [2, 2]}, "search": {"K": 2, "restarts": 1}},
        }[command]
        argv = []
        if source == "config":
            cfg = {**cfg, field: value}
        elif source == "flag":
            argv = [f"--{field}", value]
        else:
            monkeypatch.setenv("MEREOKIT_SEED", value)
        out = tmp_path / "out.json"
        argv = [command, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out), *argv]
        assert run_cli(argv) == 1
        want = "a non-negative integer" if field == "seed" else "finite and positive"
        got = {"seed": int, "tol": float}[field](value) if source == "flag" else value  # parsed by argparse
        err = capsys.readouterr().err
        assert f"error: {field} must be {want}, got {got!r}" in err
        assert ("MEREOKIT_SEED" in err) == (source == "env")  # the string it was parsed from
        assert not out.exists()

    @pytest.mark.parametrize("command,cfg,message", [
        ("orbit", {"grid": {"points": 16}, "bin": float("nan")}, "bin must be finite and positive"),
        ("orbit", {"grid": {"points": 16}, "bin": float("inf")}, "bin must be finite and positive"),
        ("orbit", {"grid": {"points": 16, "t_max": float("nan")}}, "grid.t_max must be a finite number"),
        ("orbit", {"site": 0.5}, "site must be an integer"),
        ("dualscan", {"trials": -2}, "trials must be a positive integer"),
        ("dualscan", {"dims": [2, 2.5], "trials": 1}, "dims[1] must be an integer"),
        ("dualscan", {"trials": 1, "t_values": [0.3, float("nan")]}, "t_values[1] must be a finite number"),
        ("dualscan", {"trials": 1, "probe_count": 0}, "probe_count must be a positive integer"),
        ("profile", {"model": {"name": "ising", "n": 3.9, "J": 1.0, "h": 1.0}}, "n must be an integer"),
        ("profile", {"model": {"name": "ising", "n": 3, "J": float("nan"), "h": 1.0}}, "J must be a finite"),
        ("profile", {"model": {"name": "random_klocal", "dims": [2, 2], "K": 1.5}}, "K must be an integer"),
        ("profile", {"model": {"name": "gue", "dims": 4}}, "dims must be a list"),
        ("fingerprint", {"probe_count": 0}, "probe_count must be a positive integer"),
        ("fingerprint", {"tps2": {"kind": "evolved", "t": float("inf")}}, "tps t must be a finite number"),
        ("kinds", {"mode": "gram", "family1": {"random": {"dim": 4, "count": 2.5}}, "family2": "rotated"},
         "count must be a positive integer"),
        # the grid times overflow, or their phases against the spectrum do
        ("orbit", {"grid": {"points": 16, "t_max": 1e308}}, "grid.t_max must be a finite number"),
        ("orbit", {"model": {"name": "ising", "n": 2, "J": 1e300, "h": 1.0}, "grid": {"points": 16, "t_max": 1e10}},
         "grid.t_max must be a finite number"),
        # a NaN matrix entry, a zero state and a zero probe ket: a StopIteration traceback,
        # "Eigenvalues did not converge", and "SVD did not converge" after a RuntimeWarning
        ("profile", {"file": "nan.json"}, "matrix in nan.json: entries must be finite"),
        ("search", {"file": "nan.json"}, "matrix in nan.json: entries must be finite"),
        ("fingerprint", {"state": [[0, 0]] * 4}, "state: cannot normalise a vector of norm 0.0"),
        ("orbit", {"probe": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]}, "probe: cannot normalise a vector of norm 0.0"),
        # an entropy / bin quotient overflows: the count once read 1 with a RuntimeWarning
        ("orbit", {"model": {"name": "ising", "n": 2, "J": 1.0, "h": 1.0}, "bin": 5e-324},
         "bin 5e-324 is too small"),
        # entries of the wrong JSON type, which crashed with an AttributeError or TypeError
        ("profile", [{"model": {"name": "gue", "dims": [2, 2]}}], "config must be an object"),
        ("profile", {"model": "ising"}, "model must be an object, got 'ising'"),
        ("search", {"model": {"name": "gue", "dims": [2, 2]}, "search": 5}, "search must be an object, got 5"),
        ("search", {"model": {"name": "gue", "dims": [2, 2]}, "search": ["K"]}, "search must be an object, got ['K']"),
        ("orbit", {"grid": 5}, "grid must be an object, got 5"),
        ("kinds", {"mode": "hsf", "pair1": 5, "pair2": "conjugated"}, "pair1 must be an object, got 5"),
        ("kinds", {"mode": "gram", "family1": {"random": 5}, "family2": "rotated"},
         "family1.random must be an object, got 5"),
        ("profile", {"model": {"name": "pauli", "string": 5}}, "string must be a string, got 5"),
        # top-level fields the subcommand does not read, which were once copied into the payload
        ("profile", {"bogus": 1}, "unknown profile config field 'bogus'"),
        ("profile", {"search": {"K": 2}}, "unknown profile config field 'search'"),
        ("orbit", {"tol": 1e-3}, "unknown orbit config field 'tol'"),
        ("kinds", {"zeta": 1, "alpha": 2}, "unknown kinds config field 'alpha'"),
        # a falsy grid of the wrong type once ran on the default grid
        ("orbit", {"grid": []}, "grid must be an object, got []"),
        ("orbit", {"grid": 0}, "grid must be an object, got 0"),
        ("orbit", {"grid": ""}, "grid must be an object, got ''"),
        ("orbit", {"grid": False}, "grid must be an object, got False"),
        # malformed shapes, which leaked numpy's messages, an IndexError traceback, or (the first
        # probe) a Bell state that failed as "probe 0 is not a product state"
        ("orbit", {"probe": [[[1, 0], [0, 0], [0, 0], [1, 0]], [[1, 0]]]},
         "probe: site 0 vector has shape (4,), its factor dimension is 2"),
        ("orbit", {"probe": [[[1, 0], [0, 0]]]}, "probe: 1 site vectors for 2 factors"),
        ("kinds", {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2, 2]}, "state": [[1, 0]] * 3},
                   "pair2": "conjugated"}, "state has 3 entries, dims [2, 2] need D = 4"),
        ("kinds", {"mode": "gram", "family1": [[1, 0], [0, 1]], "family2": "rotated"},
         "family1 must be a list of members, each a list of [re, im] pairs, got shape (2,)"),
        ("kinds", {"mode": "gram", "family1": [[[1, 0], [0, 1]]], "family2": [[1, 0], [0, 1]]},
         "family2 must be a list of members, each a list of [re, im] pairs, got shape (2,)"),
        ("kinds", {"mode": "gram", "family1": [[[[1, 0]]]], "family2": [[[[1, 0]]]]},
         "family1 must be a list of members, each a list of [re, im] pairs, got shape (1, 1, 1)"),
        # a missing required field printed the bare key
        ("fingerprint", {"tps2": {"kind": "evolved"}}, "missing config field 't'"),
        ("profile", {"model": {"name": "random_klocal", "dims": [2, 2]}}, "missing config field 'K'"),
        ("profile", {"model": {"name": "pauli", "string": "XX"}, "tps": {"kind": "file"}},
         "missing config field 'path'"),
        # finite times whose phases t * eigenvalue overflow: two RuntimeWarnings, then a NaN
        # unitary refused as "entries must be finite", naming no field
        ("fingerprint", {"tps2": {"kind": "evolved", "t": 1e308}},
         "tps t: evolution phases t * eigenvalue overflow"),
        ("dualscan", {"trials": 1, "t_values": [0.3, 1e308]}, "t_values[1]: evolution phases t * eigenvalue overflow"),
        # numbers given as JSON strings, which int() and float() read, and an integer beyond float64,
        # which float() refused with an OverflowError traceback
        ("orbit", {"grid": {"points": "5"}}, "grid.points must be a positive integer, got '5'"),
        ("orbit", {"grid": {"points": 5}, "bin": "0.01"}, "bin must be finite and positive, got '0.01'"),
        ("fingerprint", {"tol": "1e-3"}, "tol must be finite and positive, got '1e-3'"),
        ("fingerprint", {"probe_count": "8"}, "probe_count must be a positive integer, got '8'"),
        ("fingerprint", {"tol": 10 ** 400}, "tol must be finite and positive, got 1000"),
        ("profile", {"model": {"name": "ising", "n": 3, "J": 1.0, "h": "1.0"}}, "h must be a finite number, got '1.0'"),
        ("search", {"model": {"name": "gue", "dims": [2, 2]}, "search": {"restarts": "1"}},
         "search field 'restarts' must be an integer, got '1'"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_bad_numbers_name_field_and_write_nothing(self, tmp_path, capsys, monkeypatch, command, cfg, message):
        base = {
            "orbit": {"model": {"name": "pauli", "string": "XX"}},
            "profile": {},
            "fingerprint": {"model": {"name": "gue", "dims": [2, 2]}, "tps2": {"kind": "random"}},
            "dualscan": {},
            "kinds": {},
            "search": {"search": {"restarts": 1}},
        }[command]
        monkeypatch.chdir(tmp_path)  # configs name nan.json relative to it
        nan = np.eye(4, dtype=complex)
        nan[1, 2] = np.nan
        save_matrix_file("nan.json", nan, mk.Dims((2, 2)))
        out = tmp_path / "out"
        body = {**base, **cfg, "seed": 1} if isinstance(cfg, dict) else cfg  # a list stays one
        argv = [command, "--config", write_config(tmp_path, "c.json", body)]
        assert run_cli([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("tps, message", [
        ({"dims": 4, "iso": []}, "dims must be a list, got 4"),
        ({"dims": [None, 2], "iso": []}, "factor dimensions must be integers, got (None, 2)"),
        ({"dims": "22", "iso": np.eye(4).tolist()}, "dims must be a list, got '22'"),  # once read as (2, 2)
        ({"dims": [2, 2]}, "missing the 'iso' field"),
        ({"iso": np.eye(4).tolist()}, "missing the 'dims' field"),
    ], ids=["dims-4", "dims-null", "dims-string", "no-iso", "no-dims"])
    def test_malformed_tps_file_one_error_line(self, tmp_path, capsys, tps, message):
        # each crashed with a TypeError traceback, ran, or reported "missing config field 'iso'"
        if "iso" in tps:
            tps = {**tps, "iso": [[[x, 0.0] for x in row] for row in tps["iso"]]}
        path = write_config(tmp_path, "t.json", tps)
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "pauli", "string": "XX"},
                                                "tps": {"kind": "file", "path": path}})
        assert run_cli(["profile", "--config", cfg]) == 1
        got = capsys.readouterr()
        assert got.out == "" and got.err == f"error: tps file {path}: {message}\n"

    @pytest.mark.parametrize("command, field, cfg", [
        ("orbit", "probe", {"model": {"name": "pauli", "string": "XX"},
                            "probe": [[[1, 0], [0, 0], [0, 0], [1, 0]], [[1, 0]]], "grid": {"points": 8}}),
        ("orbit", "probe", {"model": {"name": "pauli", "string": "XX"}, "probe": [[[1, 0], [0, 0]]],
                            "grid": {"points": 8}}),
        ("kinds", "family1", {"mode": "gram", "family1": [[1, 0], [0, 1]], "family2": "rotated"}),
        ("kinds", "family1", {"mode": "gram", "family1": [[1, 0], [0, 1]], "family2": [[1, 0], [0, 1]]}),
        ("kinds", "family1", {"mode": "gram", "family1": [[[[1, 0]]]], "family2": [[[[1, 0]]]]}),
        ("kinds", "state", {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2, 2]},
                                                      "state": [[1, 0], [0, 0], [0, 0]]}, "pair2": "conjugated"}),
        ("fingerprint", "'t'", {"model": {"name": "pauli", "string": "XX"}, "tps1": "canonical",
                                "tps2": {"kind": "evolved"}}),
        ("profile", "'K'", {"model": {"name": "random_klocal", "dims": [2, 2]}}),
        ("profile", "'path'", {"model": {"name": "pauli", "string": "XX"}, "tps": {"kind": "file"}}),
        ("dualscan", "t_values[0]", {"dims": [2, 2], "trials": 1, "t_values": [1e308]}),
        ("fingerprint", "tps t", {"model": {"name": "gue", "dims": [2, 2]}, "tps1": "canonical",
                                  "tps2": {"kind": "evolved", "t": 1e308}}),
        ("orbit", "grid.points", {"model": {"name": "pauli", "string": "XX"}, "grid": {"points": "5"}, "bin": "0.01"}),
        ("orbit", "bin", {"model": {"name": "pauli", "string": "XX"}, "grid": {"points": 5}, "bin": "0.01"}),
        ("fingerprint", "tol", {"model": {"name": "gue", "dims": [2, 2]}, "tol": "1e-3"}),
        ("fingerprint", "probe_count", {"model": {"name": "gue", "dims": [2, 2]}, "probe_count": "8"}),
        ("fingerprint", "seed", {"model": {"name": "gue", "dims": [2, 2]}, "seed": "2"}),
        ("profile", "MEREOKIT_SEED", {"model": {"name": "pauli", "string": "XX"}}),
        ("profile", "nan.json", {"file": "nan.json"}),  # a matrix file with one NaN entry
        ("profile", "model", {"model": "ising"}),  # an entry of the wrong JSON type
        # file paths that are no string, files whose JSON is no object, and a directory as a file
        ("profile", "file", {"file": 5}),
        ("profile", "tps path", {"model": {"name": "pauli", "string": "XX"}, "tps": {"kind": "file", "path": 5}}),
        ("kinds", "pair1.file", {"mode": "hsf", "pair1": {"file": 5}, "pair2": "conjugated"}),
        ("kinds", "pair2.file", {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2, 2]}},
                                 "pair2": {"file": 5}}),
        ("profile", "matrix file five.json", {"file": "five.json"}),
        ("profile", "tps file five.json", {"model": {"name": "pauli", "string": "XX"},
                                           "tps": {"kind": "file", "path": "five.json"}}),
        ("profile", "tps file pair.json", {"model": {"name": "pauli", "string": "XX"},
                                           "tps": {"kind": "file", "path": "pair.json"}}),
        ("profile", "Is a directory: 'dir'", {"file": "dir"}),
    ])
    @pytest.mark.filterwarnings("error")
    def test_malformed_config_one_error_line(self, tmp_path, capsys, monkeypatch, command, field, cfg):
        # the config as given, with the default seed unless the line tests MEREOKIT_SEED: exit 1, one
        # "error:" line that names the field, nothing on stdout and no output file
        monkeypatch.setenv("MEREOKIT_SEED", "abc" if field == "MEREOKIT_SEED" else "0")
        monkeypatch.chdir(tmp_path)
        nan = np.eye(4, dtype=complex)
        nan[1, 2] = np.nan
        save_matrix_file("nan.json", nan, mk.Dims((2, 2)))
        write_config(tmp_path, "five.json", 5)
        write_config(tmp_path, "pair.json", [1, 2])
        (tmp_path / "dir").mkdir()
        path = write_config(tmp_path, "c.json", cfg)
        for out in ([], ["--out", str(tmp_path / "out")]):
            assert run_cli([command, "--config", path, *out]) == 1
            got = capsys.readouterr()
            assert got.out == "" and got.err.startswith("error: ") and got.err.count("\n") == 1
            assert field in got.err
            assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    @pytest.mark.filterwarnings("error")
    def test_directory_path_one_error_line(self, tmp_path, capsys, flag):
        # a directory where a file is read or written: exit 1, one "error:" line naming it, no traceback
        # and nothing written into it
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "pauli", "string": "XX"}})
        (tmp_path / "dir").mkdir()
        argv = {"--config": ["--config", str(tmp_path / "dir")], "--out": ["--config", cfg, "--out", str(tmp_path / "dir")]}
        assert run_cli(["profile", *argv[flag]]) == 1
        got = capsys.readouterr()
        assert got.out == "" and got.err.startswith("error: ") and got.err.count("\n") == 1
        assert "Is a directory" in got.err and str(tmp_path / "dir") in got.err
        assert list((tmp_path / "dir").iterdir()) == []

    def test_integral_floats_run_with_config_kept_raw(self, tmp_path, capsys):
        cfg = {"model": {"name": "ising", "n": 3.0, "J": 1, "h": 1}, "seed": 1}
        assert run_cli(["profile", "--config", write_config(tmp_path, "c.json", cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report"]["min_k"] == 2 and out["config"]["model"] == cfg["model"]
        cfg = {"dims": [2.0, 2], "trials": 1.0, "t_values": [1], "seed": 1}
        assert run_cli(["dualscan", "--config", write_config(tmp_path, "d.json", cfg)]) == 0
        assert '"dims": [2.0, 2]' in capsys.readouterr().out

    @pytest.mark.parametrize("value", [7, 7.0])
    def test_integral_seed_runs(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "gue", "dims": [2, 2]}, "seed": value})
        assert run_cli(["profile", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 7

    def test_ragged_pairs_name_field_and_row(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"model": {"name": "gue", "dims": [2, 2]}, "state": [[1, 0], [0, 1, 3], [0, 0], [0, 0]],
             "tps1": "canonical", "tps2": {"kind": "random"}},
        )
        assert run_cli(["fingerprint", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "state" in err and "row 1" in err and "inhomogeneous" not in err


class TestParser:
    def test_built_once_across_calls(self, tmp_path, capsys, monkeypatch):
        progs = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *a, **kw: progs.append(kw.get("prog")) or init(self, *a, **kw))
        cli._parser.cache_clear()
        model = {"model": {"name": "pauli", "string": "XX"}}
        cfg = write_config(tmp_path, "c.json", model)
        orbit = write_config(tmp_path, "o.json", {**model, "grid": {"points": 4, "t_max": 1.0}})
        assert run_cli(["profile", "--config", cfg]) == 0
        assert run_cli(["orbit", "--config", orbit, "--out", str(tmp_path / "o.csv")]) == 0
        assert progs.count("mereokit") == 1

    @pytest.mark.parametrize("argv,message", [
        (["orbit", "--config", "CFG", "--tol", "5"], "error: unrecognized arguments: --tol 5\n"),
        (["profile"], "error: the following arguments are required: --config\n"),
    ])
    def test_usage_errors_between_runs(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path, "c.json", {"model": {"name": "pauli", "string": "XX"}})
        assert run_cli(["profile", "--config", cfg]) == 0
        capsys.readouterr()
        assert run_cli([cfg if a == "CFG" else a for a in argv]) == 1
        assert capsys.readouterr().err == message
        assert run_cli(["profile", "--config", cfg]) == 0


def stdlib_layout(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


class TestPayloadFormat:
    """The payload writer's bytes are ``json.dumps(obj, sort_keys=True, indent=2)``."""

    def check_file(self, path):
        text = Path(path).read_text()
        assert text == stdlib_layout(json.loads(text)) + "\n"

    @pytest.mark.parametrize("command,cfg,outputs", [
        ("profile", {"model": {"name": "ising", "n": 3, "J": 1.0, "h": 1.0}}, [""]),
        ("fingerprint", {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar",
                         "tps1": {"kind": "random"}, "tps2": {"kind": "local"}}, [""]),
        ("search", {"model": {"name": "scrambled_klocal", "dims": [2, 2, 2], "K": 2},
                    "search": {"K": 2, "restarts": 1}}, [""]),
        ("orbit", {"model": {"name": "pauli", "string": "XX"}, "grid": {"points": 8, "t_max": 1.0}},
         [".summary.json"]),
        ("kinds", {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2, 2]}, "state": "haar"},
                   "pair2": "conjugated"}, [""]),
        ("kinds", {"mode": "gram", "family1": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                   "family2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, [""]),
    ])
    def test_cli_outputs(self, tmp_path, capsys, monkeypatch, command, cfg, outputs):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, "c.json", {**cfg, "seed": 9})
        if command != "orbit":  # the same JSON on stdout, and no witness sidecar anywhere
            assert run_cli([command, "--config", path]) == 0
            assert list(tmp_path.rglob("*.npy")) == []
        out = str(tmp_path / "out")
        assert run_cli([command, "--config", path, "--out", out]) == 0
        for suffix in outputs:
            self.check_file(out + suffix)
        if command != "orbit":
            assert capsys.readouterr().out == Path(out).read_text()

    @pytest.mark.parametrize("command,cfg", [
        ("orbit", {"model": {"name": "gue", "dims": [2, 3]}, "tps": {"kind": "random"}, "grid": {"points": 16}}),
        ("dualscan", {"dims": [2, 2], "trials": 2, "t_values": [0.5]}),
    ])
    def test_csv_cells_as_the_old_formatter(self, tmp_path, monkeypatch, command, cfg):
        # the oracle writes a float cell by repr and any other cell by str, as _dump_csv once did
        def old_dump_csv(header, rows, config, out):
            lines = ["# config=" + json.dumps(config, sort_keys=True), header]
            lines += [",".join(repr(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
            cli._write("\n".join(lines) + "\n", out)

        path = write_config(tmp_path, "c.json", {**cfg, "seed": 5})
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        assert run_cli([command, "--config", path, "--out", str(new)]) == 0
        monkeypatch.setattr(cli, "_dump_csv", old_dump_csv)
        assert run_cli([command, "--config", path, "--out", str(old)]) == 0
        assert new.read_bytes() == old.read_bytes()

    def test_d128_witness_and_matrix_file(self, tmp_path):
        for seed in (3, 1):
            path = write_config(tmp_path, "c.json", {"mode": "gram", "seed": seed, "family2": "rotated",
                                                     "family1": {"random": {"dim": 128, "count": 3}}})
            out = tmp_path / f"w{seed}.json"
            assert run_cli(["kinds", "--config", path, "--out", str(out)]) == 0
            self.check_file(out)
            payload = json.loads(out.read_text())
            U = np.load(str(out) + ".witness.npy")
            assert U.shape == (128, 128) and U.dtype == np.complex128
            assert np.abs(U.conj().T @ U - np.eye(128)).max() <= 1e-10
            assert payload["witness"] == {"shape": [128, 128], "sha256": hashlib.sha256(U.tobytes()).hexdigest()}
            rng = mk.stream(seed, 7)  # family1; family2 is family1 rotated by a Haar unitary from stream (seed, 8)
            fam1 = rng.standard_normal((3, 128)) + 1j * rng.standard_normal((3, 128))
            fam2 = fam1 @ mk.haar_unitary(128, mk.stream(seed, 8)).mat.T
            residual = max(np.linalg.norm(U @ a - b) for a, b in zip(fam1, fam2))
            assert residual == payload["residual"] <= mk.kinds.WITNESS_TOL
        mat = tmp_path / "m.json"
        save_matrix_file(str(mat), mk.haar_unitary(8, np.random.default_rng(0)).mat, mk.Dims((2, 2, 2)))
        self.check_file(mat)

    def test_no_witness_report(self, tmp_path):
        mats = []
        for i, top in enumerate([3.0, 4.0]):
            mats.append(str(tmp_path / f"m{i}.json"))
            save_matrix_file(mats[-1], np.diag([-1.0, 1.0, 2.0, top]).astype(complex), mk.Dims((2, 2)))
        path = write_config(tmp_path, "c.json", {"mode": "hsf", "pair1": {"file": mats[0]},
                                                 "pair2": {"file": mats[1]}, "seed": 6})
        out = tmp_path / "r.json"
        assert run_cli(["kinds", "--config", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["witness"] is None
        assert list(tmp_path.glob("*.npy")) == []
        self.check_file(out)

    @pytest.mark.parametrize("first, second, code", [
        # Grams differ: a no-witness payload
        ({"dim": 2, "count": 1}, {"family1": [[[1.0, 0.0], [0.0, 0.0]]], "family2": [[[0.0, 0.0], [2.0, 0.0]]]}, 0),
        # shapes differ: the run fails
        ({"dim": 2, "count": 1}, {"family1": [[[1.0, 0.0], [0.0, 0.0]]],
                                  "family2": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}, 1),
        # two independent random families: a no-witness payload
        ({"dim": 8, "count": 3}, {"family1": {"random": {"dim": 8, "count": 3}},
                                  "family2": {"random": {"dim": 8, "count": 3}}}, 0),
    ], ids=["grams-differ", "shapes-differ", "random-families"])
    def test_earlier_witness_removed(self, tmp_path, first, second, code):
        out = tmp_path / "w.json"
        a = write_config(tmp_path, "a.json", {"mode": "gram", "family1": {"random": first},
                                              "family2": "rotated", "seed": 1})
        assert run_cli(["kinds", "--config", a, "--out", str(out)]) == 0
        assert [p.name for p in tmp_path.glob("*.npy")] == ["w.json.witness.npy"]
        b = write_config(tmp_path, "b.json", {"mode": "gram", **second, "seed": 1})
        assert run_cli(["kinds", "--config", b, "--out", str(out)]) == code
        if code == 0:
            assert json.loads(out.read_text())["witness"] is None
        assert list(tmp_path.glob("*.npy")) == []


QUBITS7 = [2] * 7
# each subcommand's op at D = 128 as the benchmark runs it, and the most D x D complex arrays
# (256 KiB each) it may hold at once
WORKING_SET = {
    "orbit": ({"model": {"name": "gue", "dims": QUBITS7}, "tps": {"kind": "random"}, "probe": "zeros", "site": 1,
               "grid": {"points": 256}}, 7.5),
    "kinds-hsf": ({"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": QUBITS7}, "state": "haar"},
                   "pair2": "conjugated", "tol": 1e-8}, 7.1),
    "kinds-gram": ({"mode": "gram", "family1": {"random": {"dim": 128, "count": 3}}, "family2": "rotated",
                    "tol": 1e-8}, 5.0),
    "profile": ({"model": {"name": "random_klocal", "dims": QUBITS7, "K": 2}, "tps": "canonical"}, 5.5),
    "fingerprint": ({"model": {"name": "gue", "dims": QUBITS7}, "state": "haar", "tps1": {"kind": "random"},
                     "tps2": {"kind": "evolved", "t": 0.7}}, 17.1),
    "dualscan": ({"dims": QUBITS7, "trials": 1, "t_values": [0.3, 0.7, 1.1]}, 34.0),
    "search": ({"model": {"name": "scrambled_klocal", "dims": QUBITS7, "K": 1}, "search": {"K": 1}}, 8.0),
}


class TestWorkingSet:
    """The traced peak of one in-process op at D = 128, after a warm-up call, in D x D complex arrays:
    what tracemalloc sees (numpy's arrays and Python's objects, not LAPACK's workspace). With -s each
    test prints its row of the table, beside the minor page faults of the measured call (ru_minflt):
    pages the allocator gave back after the warm-up and faults in again. Those are printed, not bounded."""

    @pytest.mark.parametrize("name", WORKING_SET)
    def test_working_set(self, tmp_path, name):
        config, budget = WORKING_SET[name]
        path = write_config(tmp_path, "c.json", {**config, "seed": 3})
        argv = [name.split("-")[0], "--config", path, "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 0  # the warm-up call fills the caches and imports
        tracemalloc.start()
        try:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert run_cli(argv) == 0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            peak = tracemalloc.get_traced_memory()[1] / (16 * 128 * 128)
        finally:
            tracemalloc.stop()
        print(f"\nworking set at D = 128: {name:<12} {peak:6.2f} D x D arrays (budget {budget}), "
              f"{faults:5d} minor page faults")
        assert peak <= budget


# one small config per subcommand; fingerprint (2,)*6 and the kinds Gram family in C^128 reach the
# sizes at which OpenBLAS splits a product across threads
THREAD_CONFIGS = {
    "profile": {"model": {"name": "gue", "dims": [2, 2, 2, 2, 2, 2]}, "tps": {"kind": "random"}},
    "orbit": {"model": {"name": "gue", "dims": [2, 3, 2]}, "tps": {"kind": "random"}, "grid": {"points": 32}},
    "fingerprint": {"model": {"name": "gue", "dims": [2, 2, 2, 2, 2, 2]}, "state": "haar",
                    "tps1": {"kind": "random"}, "tps2": {"kind": "evolved", "t": 0.7}},
    "search": {"model": {"name": "scrambled_klocal", "dims": [2, 2, 2], "K": 2}, "search": {"K": 2, "restarts": 1}},
    "kinds": {"mode": "gram", "family1": {"random": {"dim": 128, "count": 3}}, "family2": "rotated"},
    "dualscan": {"dims": [2, 2, 2], "trials": 2},
    # D = 128: H's eigendecomposition and the Haar QRs at seven qubits
    "orbit-7q": {"model": {"name": "gue", "dims": [2] * 7}, "tps": {"kind": "random"}, "grid": {"points": 32}},
    "kinds-hsf": {"mode": "hsf", "pair1": {"model": {"name": "gue", "dims": [2] * 7}, "state": "haar"},
                  "pair2": "conjugated"},
}
# a child runs every config through cli.main, the subcommand named before any "-" in its key,
# each to its own --out, and prints the exit codes
THREAD_CHILD = """
import json, sys
from mereokit import cli
configs, where = json.loads(sys.argv[1]), sys.argv[2]
codes = {}
for name, cfg in configs.items():
    path = f"{where}/{name}.json"
    with open(path, "w") as f:
        json.dump({**cfg, "seed": 5}, f)
    codes[name] = cli.main([name.split("-")[0], "--config", path, "--out", f"{where}/{name}.out"])
print(json.dumps(codes))
"""
# the thread count reorders BLAS sums, which moves a float by rounding only:
# |a - b| <= FLOAT_BOUND * max(1, |a|, |b|)
FLOAT_BOUND = 1e-12


def assert_close(a, b, where):
    """Equal structure, strings, bools and ints; floats within FLOAT_BOUND. A sha256 is of
    the witness's float bytes, so the .witness.npy is compared instead."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            if k != "sha256":
                assert_close(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_close(x, y, f"{where}[{k}]")
    elif isinstance(a, float) or isinstance(b, float):
        assert abs(a - b) <= FLOAT_BOUND * max(1.0, abs(a), abs(b)), (where, a, b)
    else:
        assert a == b, (where, a, b)


def read_output(path: Path):
    """A payload as numbers and strings: JSON, CSV cells (floats where they parse) or a .npy."""
    if path.suffix == ".npy":
        return np.load(path).view(float).tolist()
    text = path.read_text()
    if text.startswith("{"):
        return json.loads(text)

    def cell(x):
        try:
            return float(x)
        except ValueError:
            return x

    return [line if line.startswith("#") else [cell(x) for x in line.split(",")] for line in text.splitlines()]


class TestThreadCounts:
    """Payloads are byte-identical for a given numpy, BLAS and BLAS thread count; across thread
    counts the exit codes and verdicts are equal and floats agree to FLOAT_BOUND."""

    def test_one_and_two_blas_threads(self, tmp_path):
        src = str(Path(mk.__file__).parents[1])
        dirs, codes = [tmp_path / "1", tmp_path / "2"], []
        for where in dirs:
            where.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": where.name}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", THREAD_CHILD, json.dumps(THREAD_CONFIGS), str(where)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            codes.append(json.loads(proc.stdout))
        assert codes[0] == codes[1] and set(codes[0].values()) == {0}
        names = sorted(p.name for p in dirs[0].glob("*.out*"))
        assert names == sorted(p.name for p in dirs[1].glob("*.out*"))
        assert {n.split(".")[0] for n in names} == set(THREAD_CONFIGS)
        for name in names:
            assert_close(read_output(dirs[0] / name), read_output(dirs[1] / name), name)


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"name": "ising", "n": 2, "J": 1.0, "h": 0.0},
                                   "tps": "canonical", "seed": 0}))
        proc = subprocess.run(
            [sys.executable, "-m", "mereokit", "profile", "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["report"]["min_k"] == 2
