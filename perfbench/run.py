"""Closed-loop benchmark of the mereokit CLI, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls ``mereokit.cli.main([...])`` in-process; the next operation
starts only when the previous one has returned. A run is a fixed list of
operations, rounds ``0 .. R-1`` of the workload (see ``workloads.py``), with
``R`` sized from ``--seconds``, so the same seed and ``--seconds`` always
give the same operations, and the same ones fail.

The operations run in a fresh worker process. Before each one the worker
times a fixed reference kernel, and each latency is scaled by how fast the
kernel ran around it (``calibrate.py``), so the slow episodes of a shared
host do not show as slow operations. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` the list runs once untraced and once
traced (``tracing.py``), each in a fresh worker, and the run reports the
per-layer metrics and the tracing overhead. Every output is checked
(``checks.py``).

The last stdout line is the result as one JSON object; the lines before it
are a readable report, and the full record, environment included, is
written under ``perfbench/out/``. BLAS is pinned to one thread before numpy
is imported, so the numbers measure mereokit and not the thread scheduler.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import workloads

PROCESS_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
RUN_BUDGET_S = 170.0  # a run that cannot finish in this gives up without a result
FAILURE_KINDS = ("exit_1", "exit_2", "exit_3", "exception", "wrong_output")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    """What one operation did: how long the CLI call took and how it ended."""

    cell: str
    seconds: float  # scaled to the host's reference speed (calibrate.py)
    raw_seconds: float  # as measured
    failure: str | None  # one of FAILURE_KINDS, or None on success
    reason: str  # first line of stderr, or the failed check
    digest: str
    size: int


class Runner:
    """Runs operations through the CLI entry and checks their outputs."""

    def __init__(self, tmp: Path, workload: str, seed: int):
        from mereokit import cli

        self.cli = cli
        self.tmp, self.workload, self.seed = tmp, workload, seed

    def write_round(self, index: int):
        """Generate round ``index`` and write its configs; returns the ops and paths."""
        ops = workloads.round_ops(self.workload, self.seed, index)
        paths = []
        for j, op in enumerate(ops):
            path = self.tmp / f"config-{j}.json"
            path.write_text(json.dumps(op.config, sort_keys=True))
            paths.append(path)
        return list(zip(ops, paths))

    def execute(self, op, config: Path) -> Record:
        out = self.tmp / f"out-{op.command}"
        files = checks.output_files(out)
        for f in files:
            f.unlink(missing_ok=True)
        argv = [op.command, "--config", str(config), "--out", str(out)]
        stderr = io.StringIO()
        failure = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception as e:  # a crash fails this operation; the loop goes on
            rc, failure = None, "exception"
            stderr.write(f"{type(e).__name__}: {e}\n")
        seconds = time.perf_counter() - start
        reason = stderr.getvalue().strip().split("\n")[0]
        wrong = None if rc is None else checks.check(op, rc, out)
        if wrong is not None:
            failure, reason = "wrong_output", wrong
        elif rc not in (0, None):
            failure = f"exit_{rc}"
        digest = hashlib.sha256()
        size = 0
        for f in files:
            if f.exists():
                data = f.read_bytes()
                digest.update(f.name[len(out.name):].encode() + b"\0" + data)
                size += len(data)
        return Record(op.cell, seconds, seconds, failure, reason, digest.hexdigest(), size)

    def determinism(self, ops, records) -> list[str]:
        """Re-run the first operation of each subcommand; list those whose output differs."""
        first = {}
        for (op, config), r in zip(ops, records):
            first.setdefault(op.command, (op, config, r))
        mismatched = []
        for command, (op, config, r) in first.items():
            config.write_text(json.dumps(op.config, sort_keys=True))
            again = self.execute(op, config)
            if (again.digest, again.failure) != (r.digest, r.failure):
                mismatched.append(command)
        return mismatched

    def warm_up(self):
        """Run the first operation of each subcommand of the warm-up round, untimed."""
        seen = set()
        for op, config in self.write_round(workloads.WARMUP_ROUND):
            if op.command not in seen:
                seen.add(op.command)
                self.execute(op, config)


# -- worker: one pass over the run's operations, in a fresh process -----------


def worker(args) -> int:
    """Run rounds ``0 .. args.rounds-1`` once and write what happened to ``args.worker``."""
    import calibrate

    tracer = None
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        runner = Runner(Path(tmp), args.workload, args.seed)
        runner.warm_up()
        calibrate.warm_up()
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        records, samples, first = [], [], []
        try:
            for index in range(args.rounds):
                batch = runner.write_round(index)
                for op, config in batch:
                    if tracer:
                        tracer.op = len(records)
                    samples.append(calibrate.kernel())
                    records.append(runner.execute(op, config))
                first = first or batch
            samples.append(calibrate.kernel())
        finally:
            if tracer:
                tracer.uninstall()
        # the traced run compares every operation with its untraced twin instead
        mismatched = [] if tracer else runner.determinism(first, records)
    for r, scale in zip(records, calibrate.scales(samples)):
        r.seconds = r.raw_seconds * scale
    layer = None
    if tracer:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write_spans(spans)
        layer = {"metrics": tracer.metrics(bytes_written=sum(r.size for r in records)),
                 "spans_file": str(spans.relative_to(HERE.parent))}
    result = {
        "records": [asdict(r) for r in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_median_s": statistics.median(samples),
        "determinism_mismatch": mismatched,
        "layer": layer,
    }
    Path(args.worker).write_text(json.dumps(result))
    return 0


def run_pass(args, rounds: int, traced: bool, path: Path) -> dict:
    """One worker process over the run's operations; waits for it to end."""
    remaining = RUN_BUDGET_S - (time.perf_counter() - PROCESS_START)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--rounds", str(rounds), "--trace", str(int(traced)),
         "--worker", str(path)],
        check=True, stdout=subprocess.DEVNULL, timeout=max(remaining, 1.0),
    )
    result = json.loads(path.read_text())
    result["records"] = [Record(**r) for r in result["records"]]
    return result


def changed(a: list[Record], b: list[Record]) -> list[str]:
    """Operations whose outputs or outcomes differ between two passes."""
    return [
        f"op {index} {x.cell}"
        for index, (x, y) in enumerate(zip(a, b))
        if (x.digest, x.failure) != (y.digest, y.failure)
    ]


def tail(latencies: list[float]):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). With too few samples for
    that, it is the largest latency, with none beyond.
    """
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that set up the run and stop before the
    first op, each scaled by the reference kernel timed just before it."""
    import calibrate

    calibrate.warm_up()
    times = []
    for _ in range(SETUP_PROBES):
        scale = calibrate.scale_now()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True, stdout=subprocess.DEVNULL, timeout=60,
        )
        times.append((time.perf_counter() - start) * scale)
    return times


def environment(seed: int) -> dict:
    import numpy

    try:
        import cpuinfo

        cpu = cpuinfo.get_cpu_info().get("brand_raw", "unknown")
    except Exception as e:  # the CPU model is a label; a run is never lost for it
        cpu = f"unknown ({type(e).__name__}: {e})"
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def failure_counts(records) -> dict[str, int]:
    counts = dict.fromkeys(FAILURE_KINDS, 0)
    for r in records:
        if r.failure:
            counts[r.failure] += 1
    return counts


def cell_table(records) -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for r in records:
        c = cells.setdefault(r.cell, {"attempted": 0, "ok": 0, "ok_seconds": []})
        c["attempted"] += 1
        if r.failure is None:
            c["ok"] += 1
            c["ok_seconds"].append(r.seconds)
    return {
        cell: {
            "attempted": c["attempted"],
            "ok": c["ok"],
            "median_s": statistics.median(c["ok_seconds"]) if c["ok_seconds"] else None,
        }
        for cell, c in cells.items()
    }


def failure_reasons(records) -> dict[str, int]:
    reasons: dict[str, int] = {}
    for r in records:
        if r.failure:
            key = f"{r.cell} {r.failure}: {r.reason}"[:160]
            reasons[key] = reasons.get(key, 0) + 1
    return dict(sorted(reasons.items(), key=lambda kv: -kv[1]))


def summary(records, consistent: bool) -> dict:
    """The result's head: correct unless an output was wrong, an op raised or
    a re-run gave other outputs; a declared failure only counts as failed."""
    failures = failure_counts(records)
    return {
        "correct": failures["wrong_output"] == 0 and failures["exception"] == 0 and consistent,
        "attempted": len(records),
        "failed": sum(failures.values()),
    }


def run_timed(args, tmp: Path) -> tuple[dict, dict]:
    setups = measure_setup(args.workload, args.seed)
    rounds = workloads.rounds_for(args.workload, args.seconds, 1)
    timed = run_pass(args, rounds, False, tmp / "pass.json")
    records, mismatched = timed["records"], timed["determinism_mismatch"]

    ok = [r.seconds for r in records if r.failure is None]
    ok_raw = [r.raw_seconds for r in records if r.failure is None]
    if not ok:
        raise SystemExit("no operation succeeded; no latency to report")
    busy = sum(r.seconds for r in records)
    tail_s, tail_pct, beyond = tail(ok)
    attempted = len(records)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ok) / busy,
        "op_p50_s": statistics.median(ok),
        "op_tail_s": tail_s,
        "ok_frac": len(ok) / attempted,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    samples = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "ops_per_s": f"{len(ok)} good ops in {busy:.3f} s of op time "
                     f"({sum(r.raw_seconds for r in records):.3f} s unscaled), {rounds} rounds",
        "op_p50_s": f"n={len(ok)} successful ops (unscaled {statistics.median(ok_raw):.4g} s)",
        "op_tail_s": f"p{tail_pct:.1f}, {beyond} samples beyond, n={len(ok)}",
        "ok_frac": f"{len(ok)}/{attempted}",
        "peak_rss_mb": "ru_maxrss of the worker process",
    }
    detail = {
        "fail_frac": 1.0 - metrics["ok_frac"],
        "failures": failure_counts(records),
        "failure_reasons": failure_reasons(records),
        "determinism_mismatch": mismatched,
        "cells": cell_table(records),
        "samples": samples,
        "rounds": rounds,
        "setup_probes_s": setups,
        "kernel_median_s": timed["kernel_median_s"],
        "ops": [[r.cell, r.failure, r.seconds, r.raw_seconds] for r in records],
    }
    return summary(records, not mismatched) | {"metrics": metrics}, detail


def run_traced(args, tmp: Path) -> tuple[dict, dict]:
    rounds = workloads.rounds_for(args.workload, args.seconds, 2)
    plain = run_pass(args, rounds, False, tmp / "plain.json")
    traced = run_pass(args, rounds, True, tmp / "traced.json")
    differ = changed(plain["records"], traced["records"])
    plain_s = sum(r.seconds for r in plain["records"])
    traced_s = sum(r.seconds for r in traced["records"])
    metrics = traced["layer"]["metrics"] | {"trace.overhead_ratio": traced_s / plain_s}
    detail = {
        "failures": failure_counts(traced["records"]),
        "output_changed_by_tracing": differ,
        "untraced_op_s": plain_s,
        "traced_op_s": traced_s,
        "rounds": rounds,
        "spans_file": traced["layer"]["spans_file"],
        "cells": cell_table(traced["records"]),
    }
    return summary(traced["records"], not differ) | {"metrics": metrics}, detail


def metric_units(trace: int) -> dict[str, str]:
    if not trace:
        return END_TO_END
    from tracing import PER_LAYER

    return {name: unit for name, (unit, _) in PER_LAYER.items()}


def print_report(args, result: dict, detail: dict, env: dict):
    units = metric_units(args.trace)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in result["metrics"].items():
        note = detail.get("samples", {}).get(name, "")
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} {note}")
    if args.trace == 0:
        print(f"  {'fail_frac':40s} {detail['fail_frac']:14.6g} {'ratio':6s} "
              f"{result['failed']}/{result['attempted']} " + json.dumps(detail["failures"]))
    for cell, c in detail["cells"].items():
        med = "-" if c["median_s"] is None else f"{c['median_s']:.4f} s"
        print(f"  cell {cell:32s} ok {c['ok']:4d}/{c['attempted']:<4d} median {med}")
    for reason, n in list(detail.get("failure_reasons", {}).items())[:8]:
        print(f"  failure x{n}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit before the first operation (setup_s probe)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)  # one pass, written to this file
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mereokit" / "__init__.py").is_file():
        print(f"error: mereokit sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.worker:
        return worker(args)
    if args.setup_only:
        with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
            Runner(Path(tmp), args.workload, args.seed).write_round(0)
        return 0
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        if args.trace:
            result, detail = run_traced(args, Path(tmp))
        else:
            result, detail = run_timed(args, Path(tmp))
    env = environment(args.seed)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "result": result, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    print_report(args, result, detail, env)
    units = metric_units(args.trace)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
