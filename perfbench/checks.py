"""Output checks, one per CLI subcommand.

Each check reads the files an operation wrote and returns ``None`` when the
output is right, or a short reason when it is wrong. A wrong output counts
as a failed operation and makes the run incorrect; a declared failure (a
non-zero exit with a structured error) is a failed operation only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXIT_NOT_CONVERGED = 2
ENTROPY_SLACK = 1e-9  # the library's own bound check in ``entropy_orbit``


def output_files(out: Path) -> list[Path]:
    """Every file an operation with ``--out out`` may write, in a fixed order."""
    return [out, Path(f"{out}.summary.json"), Path(f"{out}.trace.csv")]


def _search(op, rc: int, out: Path):
    result = json.loads(out.read_text())["result"]
    below = result["residual"] <= op.config["search"]["success_residual"]
    if (rc == 0) != below:
        return f"exit {rc} with residual {result['residual']:.3e}"
    if result["converged"] != below:
        return "converged flag disagrees with the residual"
    trace = [r for _, r in result["trace"]]
    if any(b > a for a, b in zip(trace, trace[1:])):
        return "residual trace increases"
    if abs(trace[-1] - result["residual"]) > 1e-12:
        return "trace tail disagrees with the residual"
    return None


def _dualscan(op, rc: int, out: Path):
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    cases = [r for r in rows if r[0] != "summary"]
    if len(cases) != op.config["trials"] * (1 + len(op.config["t_values"])):
        return f"{len(cases)} case rows"
    for row in cases:
        if row[4] == "Inconsistent":
            return f"Inconsistent verdict on case {row[1]}"
        if row[1] == "local" and row[4] != "SameTps":
            return f"local move judged {row[4]}"
    return None


def _fingerprint(op, rc: int, out: Path):
    payload = json.loads(out.read_text())
    expected = "SameTps" if payload["tps_equal"] else "DifferentTps"
    if payload["verdict"] != expected:
        return f"verdict {payload['verdict']} with tps_equal={payload['tps_equal']}"
    return None


def _profile(op, rc: int, out: Path):
    min_k = json.loads(out.read_text())["report"]["min_k"]
    model = op.config["model"]
    expected = model["K"] if model["name"] == "random_klocal" else 2
    if min_k != expected:
        return f"min_k {min_k}, expected {expected}"
    return None


def _orbit(op, rc: int, out: Path):
    summary = json.loads(Path(f"{out}.summary.json").read_text())
    d = op.config["model"]["dims"][op.config["site"]]
    if summary["points"] != op.config["grid"]["points"]:
        return f"{summary['points']} grid points"
    if not summary["max_entropy"] <= math.log(d) + ENTROPY_SLACK:
        return f"max entropy {summary['max_entropy']} above log {d}"
    return None


def _kinds(op, rc: int, out: Path):
    payload = json.loads(out.read_text())
    if payload["witness"] is None:
        return f"no witness for a related pair: {payload['reason']}"
    keys = ("residual_operator", "residual_state") if op.config["mode"] == "hsf" else ("residual",)
    for key in keys:
        if not payload[key] <= op.config["tol"]:
            return f"{key} {payload[key]:.3e} above tol {op.config['tol']:.0e}"
    return None


_CHECKS = {
    "search": _search,
    "dualscan": _dualscan,
    "fingerprint": _fingerprint,
    "profile": _profile,
    "orbit": _orbit,
    "kinds": _kinds,
}


def check(op, rc: int, out: Path):
    """Reason the output of ``op`` is wrong, or None when it is right.

    Only exit 0, and exit 2 of ``search`` (which still writes its result),
    leave an output to check.
    """
    if rc != 0 and not (op.command == "search" and rc == EXIT_NOT_CONVERGED):
        return None
    try:
        return _CHECKS[op.command](op, rc, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable output: {e!r}"
