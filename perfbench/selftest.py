"""Tests of the benchmark itself; kept out of the library's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _round_text(workload: str, seed: int, index: int) -> str:
    ops = workloads.round_ops(workload, seed, index)
    return json.dumps([[op.command, op.cell, op.config] for op in ops], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_are_a_pure_function_of_the_seed(workload):
    assert _round_text(workload, 7, 3) == _round_text(workload, 7, 3)
    assert _round_text(workload, 7, 3) != _round_text(workload, 8, 3)
    assert _round_text(workload, 7, 3) != _round_text(workload, 7, 4)
    # the operation mix does not depend on the seed, only the configs do
    cells = lambda seed: [op.cell for op in workloads.round_ops(workload, seed, 0)]
    assert cells(1) == cells(2)
    # nor on the interpreter's hash randomization
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import selftest; "
        f"print(selftest._round_text({workload!r}, 7, 3))"
    )
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run(
            [sys.executable, "-c", code, str(HERE)], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == _round_text(workload, 7, 3)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == tracing.PER_LAYER[m["name"]]


def test_run_size_follows_from_the_arguments_only():
    for workload in workloads.WORKLOADS:
        assert workloads.rounds_for(workload, 0, 1) == 1
        assert workloads.rounds_for(workload, 30, 1) == workloads.rounds_for(workload, 30, 1)
        assert workloads.rounds_for(workload, 600, 1) > workloads.rounds_for(workload, 30, 1)
    # the warm-up round is never one of the timed rounds
    assert workloads.WARMUP_ROUND < 0


def test_changed_flags_outputs_and_outcomes_that_differ():
    rec = lambda digest="d", failure=None: run.Record("c", 0.1, 0.1, failure, "", digest, 1)
    assert run.changed([rec(), rec()], [rec(), rec()]) == []
    assert run.changed([rec(), rec()], [rec(), rec(digest="e")]) == ["op 1 c"]
    assert run.changed([rec()], [rec(failure="exit_2")]) == ["op 0 c"]


def test_scales_follow_the_kernel_around_each_operation():
    import calibrate

    # a host that runs at half speed for the last two operations
    samples = [calibrate.NOMINAL_S] * 5 + [2 * calibrate.NOMINAL_S] * 6
    scales = calibrate.scales(samples)
    assert len(scales) == 10
    assert scales[0] == 1.0 and scales[-1] == 0.5


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail(lat)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    cli, kinds, search = (importlib.import_module(f"mereokit.{m}") for m in ("cli", "kinds", "search"))

    before = (search.coeff_tensor, kinds.equivalent, cli.run_search, numpy.linalg.eigh)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert search.coeff_tensor is not before[0]
        assert kinds.equivalent is not before[1]
        assert cli.run_search is not before[2]
        assert numpy.linalg.eigh is not before[3]
        numpy.linalg.eigh(numpy.eye(2))
    finally:
        tracer.uninstall()
    assert (search.coeff_tensor, kinds.equivalent, cli.run_search, numpy.linalg.eigh) == before
    assert tracer.calls["numpy.linalg.eigh"] == 1


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize(
    "workload,trace",
    [(w, "0") for w in workloads.WORKLOADS] + [("discriminate", "1")],
)
def test_smoke_one_round(workload, trace):
    # --seconds 0 runs exactly one round
    proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.round_ops(workload, 0, 0))
    expected = run.END_TO_END if trace == "0" else tracing.PER_LAYER
    assert list(result["metrics"]) == list(expected)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "discriminate", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
