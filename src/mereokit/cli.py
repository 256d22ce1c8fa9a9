"""Batch experiment runner.

One executable, one subcommand per experiment, JSON/CSV outputs (the `kinds`
witness matrix goes to a `.npy` sidecar). Every output embeds the resolved
config that produced it, and the seed fully determines all randomness, so
identical configs give byte-identical numeric payloads.

Exit codes: 0 success, 1 usage or parse error, 2 declared non-convergence,
3 spectral-hypothesis violation.

Subcommands and their config fields are documented in the README.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import dynamics, kinds, locality, models
from . import tps as tps_mod
from .search import SearchConfig
from .search import search as run_search
from .errors import DimensionMismatch, HypothesisViolation, MereokitError, NoWitnessError
from .hilbert import Dims, HermitianOp, StateVec, expm_i, haar_state, haar_unitaries, haar_unitary, kron_all
from .hilbert import _formed_unitary, _from_pairs, _phases_finite, _scaled, _to_pairs, _unit
from .rng import stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_HYPOTHESIS = 3

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing


def _load_json(path: str, name: str) -> dict:
    text = Path(path).read_text()
    try:
        return _typed(name, json.loads(text), dict)
    except json.JSONDecodeError as e:
        raise UsageError(f"parse error in {path}: line {e.lineno} column {e.colno}: {e.msg}")


# default tolerance of each subcommand that takes one; orbit and search take none
_TOL_DEFAULTS = {"profile": locality.LOCALITY_RTOL, "fingerprint": kinds.FINGERPRINT_TOL,
                 "kinds": kinds.WITNESS_TOL, "dualscan": kinds.FINGERPRINT_TOL}


def _resolve_config(args) -> dict:
    """The loaded config, refused if it has a field the subcommand does not read, with its
    seed resolved (flag, config, MEREOKIT_SEED, 0) and, where the subcommand takes one,
    its tol (flag, config, the subcommand's default)."""
    cfg = _load_json(args.config, "config")
    unknown = sorted(set(cfg) - _FIELDS[args.command])
    if unknown:
        raise UsageError(f"unknown {args.command} config field {unknown[0]!r}")
    if args.seed is not None or "seed" in cfg:
        seed = args.seed if args.seed is not None else cfg["seed"]
        seed = _checked("seed", seed, int, "a non-negative integer", lambda v: v >= 0)
    else:  # MEREOKIT_SEED is a string by nature; _checked takes JSON numbers only
        text = os.environ.get("MEREOKIT_SEED", "0")
        if not text.isdecimal():
            raise UsageError(f"seed must be a non-negative integer, got {text!r} from MEREOKIT_SEED")
        seed = int(text)
    resolved = {**cfg, "seed": seed}
    if args.command in _TOL_DEFAULTS:
        tol = args.tol if args.tol is not None else cfg.get("tol", _TOL_DEFAULTS[args.command])
        resolved["tol"] = _checked("tol", tol, **_POSITIVE)
    return resolved


def _checked(name: str, value, kind: type, want: str | None = None, ok=lambda v: True):
    """``kind(value)``, or a UsageError naming the field when ``value`` is not ``want``
    (by default an integer or a number) or ``ok`` rejects it. Only a JSON number is a number."""
    want = want or ("an integer" if kind is int else "a number")
    error = UsageError(f"{name} must be {want}, got {value!r}")
    # int() and float() would read true as 1 and "8" as 8, and int() truncate 2.7
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise error
    try:
        value = kind(value)
    except OverflowError:  # float() of an integer beyond float64
        raise error from None
    if not ok(value):
        raise error
    return value


# ``_checked`` rules shared by several fields
_FINITE = dict(kind=float, want="a finite number", ok=math.isfinite)
_POSITIVE = dict(kind=float, want="finite and positive", ok=lambda v: 0 < v < math.inf)
_COUNT = dict(kind=int, want="a positive integer", ok=lambda v: v > 0)


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _typed(name: str, value, kind: type):
    """``value``, or a UsageError naming the field when it is not a JSON ``kind``."""
    if not isinstance(value, kind):
        raise UsageError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _each(name: str, value, **rule) -> list:
    return [_checked(f"{name}[{i}]", v, **rule) for i, v in enumerate(_typed(name, value, list))]


@contextmanager
def _field(name: str):
    """Report a ValueError raised in the block, e.g. a ragged [re, im] row, as bad ``name``."""
    try:
        yield
    except ValueError as e:
        raise UsageError(f"{name}: {e}") from None


def _write(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict, out: str | None):
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _dump_csv(header: str, rows, config: dict, out: str | None):
    lines = ["# config=" + json.dumps(config, sort_keys=True), header]
    lines += [",".join(map(str, row)) for row in rows]
    _write("\n".join(lines) + "\n", out)


def load_matrix_file(path: str) -> tuple[HermitianOp, Dims]:
    obj = _load_json(path, f"matrix file {path}")
    for key in ("dims", "matrix"):
        if key not in obj:
            raise UsageError(f"matrix file {path} is missing the {key!r} field")
    dims = Dims(tuple(_each("dims", obj["dims"], kind=int)))
    with _field(f"matrix in {path}"):
        mat = _from_pairs(obj["matrix"])
        if mat.shape != (dims.total, dims.total):
            raise UsageError(f"matrix shape {mat.shape} inconsistent with dims {dims.factors}")
        return HermitianOp(mat), dims


def save_matrix_file(path: str, mat: np.ndarray, dims: Dims):
    _dump_json({"dims": list(dims.factors), "matrix": _to_pairs(mat)}, path)


def _model_cfg(cfg: dict, field: str = "file") -> dict:
    if "model" in cfg:
        return _typed("model", cfg["model"], dict)
    if "file" in cfg:  # a path, refused naming ``field`` unless a string
        return {"file": _typed(field, cfg["file"], str)}
    raise UsageError("config needs a 'model' or 'file' entry")


def build_model(cfg: dict, seed: int, *path: int) -> tuple[HermitianOp, Dims]:
    """Hamiltonian named in a config and its factor dims; a random model draws from ``stream(seed, 1, *path)``."""
    if "file" in cfg:
        return load_matrix_file(cfg["file"])
    name = cfg.get("name")
    if name == "ising":
        dims = Dims((2,) * _checked("n", cfg["n"], int))
        J, h = (_checked(k, cfg[k], **_FINITE) for k in "Jh")
        return models.ising_chain(dims.n, J, h), dims
    if name == "pauli":
        dims = Dims((2,) * len(_typed("string", cfg["string"], str)))
        return models.pauli_string(cfg["string"]), dims
    if name not in ("random_klocal", "scrambled_klocal", "gue"):
        raise UsageError(f"unknown model {cfg!r}")
    dims = Dims(tuple(_each("dims", cfg["dims"], kind=int)))
    if name == "gue":
        return _gue(dims.total, stream(seed, 1, *path)), dims
    K = _checked("K", cfg["K"], int)
    if name == "random_klocal":
        return models.random_klocal(dims, K, stream(seed, 1, *path)), dims
    return models.scrambled_klocal(dims, K, stream(seed, 1, *path))[0], dims


def _gue(D: int, rng) -> HermitianOp:
    A = np.empty((D, D), complex)
    A.real, A.imag = rng.standard_normal((D, D)), rng.standard_normal((D, D))
    A += A.conj().T
    A /= 2
    return HermitianOp(A)


def build_tps(spec, dims: Dims, seed: int, base: tps_mod.Tps | None, H: HermitianOp | None, *path: int):
    """TPS named in a config; 'local' and 'evolved' are relative to ``base``, the canonical
    structure when None (built only then, since it costs a D x D identity and its unitarity check).

    'random' draws from ``stream(seed, 2, *path)`` and 'local' from ``stream(seed, 3, *path)``.
    """
    if spec == "canonical" or spec is None:
        return tps_mod.canonical(dims)
    if spec == "jw_dual":
        if set(dims.factors) != {2}:
            raise UsageError("jw_dual requires qubit factors")
        return models.jw_dual_tps(dims.n)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind in ("local", "evolved") and base is None:
            base = tps_mod.canonical(dims)
        if kind == "random":
            return tps_mod.random_tps(dims, stream(seed, 2, *path))
        if kind == "file":
            path = _typed("tps path", spec["path"], str)
            with _field(f"tps file {path}"):
                return tps_mod.tps_from_json(_load_json(path, f"tps file {path}"))
        if kind == "local":
            return _local_move(base, stream(seed, 3, *path))
        if kind == "evolved":
            if H is None:
                raise UsageError("an evolved tps needs a model in the config")
            t = _checked("tps t", spec["t"], **_FINITE)
            with _field("tps t"):  # its phases t * eigenvalue may overflow
                U = expm_i(H, t)
            return tps_mod.act(U, base)
    raise UsageError(f"unknown tps spec {spec!r}")


def build_state(spec, dims: Dims, seed: int, *path: int) -> StateVec:
    """State named in a config; a Haar state draws from ``stream(seed, 4, *path)``."""
    if spec == "haar" or spec is None:
        return haar_state(dims.total, stream(seed, 4, *path))
    if isinstance(spec, list):
        with _field("state"):
            vec = _from_pairs(spec)
            if vec.size != dims.total:
                raise UsageError(f"state has {vec.size} entries, dims {list(dims.factors)} need D = {dims.total}")
            return StateVec(_unit(vec))
    raise UsageError(f"unknown state spec {spec!r}")


def _site_kets(spec, dims: Dims) -> list[np.ndarray]:
    if spec == "zeros" or spec is None:
        return [np.eye(d, dtype=complex)[0] for d in dims.factors]
    if spec == "plus":
        return [np.ones(d, dtype=complex) / np.sqrt(d) for d in dims.factors]
    if isinstance(spec, list):
        return [_from_pairs(row) for row in spec]
    raise UsageError(f"unknown probe spec {spec!r}")


def _time_grid(cfg, H: HermitianOp) -> np.ndarray:
    grid = _typed("grid", cfg.get("grid", {}), dict)
    points = _checked("grid.points", grid.get("points", 64), **_COUNT)
    if "t_max" not in grid:
        return dynamics.default_time_grid(H, points)
    # the products k * t_max, k < points, and the phases t * eigenvalue at the last time must be finite
    want = "a finite number, with finite grid times and phases t * eigenvalue"
    t_max = _checked("grid.t_max", grid["t_max"], float, want, lambda t: math.isfinite((points - 1) * t))
    t = np.arange(points) * t_max / points
    try:
        _phases_finite(H, float(t[-1]), "grid")
    except DimensionMismatch:
        raise UsageError(f"grid.t_max must be {want}, got {grid['t_max']!r}") from None
    return t


# ---------------------------------------------------------------------------
# subcommands


def cmd_profile(cfg: dict, out: str | None) -> int:
    seed = cfg["seed"]
    H, dims = build_model(_model_cfg(cfg), seed)
    T = build_tps(cfg.get("tps"), dims, seed, None, H)
    report = locality.locality_report(H, T, cfg["tol"])
    _dump_json({"config": cfg, "report": report.to_json()}, out)
    return EXIT_OK


def cmd_orbit(cfg: dict, out: str | None) -> int:
    seed = cfg["seed"]
    H, dims = build_model(_model_cfg(cfg), seed)
    T = build_tps(cfg.get("tps"), dims, seed, None, H)
    with _field("probe"):
        probe = tps_mod.product_state_in(T, _site_kets(cfg.get("probe"), dims))
    site = _checked("site", cfg.get("site", 0), int)
    grid = _time_grid(cfg, H)
    ents = dynamics.entropy_orbit(H, T, probe, site, grid)
    bin_ = _checked("bin", cfg.get("bin", 1e-4), **_POSITIVE)
    summary = {  # before any output, since a bin too small to count with is refused
        "config": cfg,
        "site": site,
        "points": len(grid),
        "bin": bin_,
        "distinct_values": dynamics.distinct_value_count(ents, bin_),
        "max_entropy": float(ents.max()),
    }
    _dump_csv("t,entropy", zip(grid.tolist(), ents.tolist()), cfg, out)
    _dump_json(summary, (out + ".summary.json") if out else None)
    return EXIT_OK


def cmd_fingerprint(cfg: dict, out: str | None) -> int:
    seed = cfg["seed"]
    H, dims = build_model(_model_cfg(cfg), seed)
    psi = build_state(cfg.get("state"), dims, seed)
    T1 = build_tps(cfg.get("tps1"), dims, seed, None, H)
    T2 = build_tps(cfg.get("tps2"), dims, seed, T1, H, 1)
    count = _checked("probe_count", cfg["probe_count"], **_COUNT) if "probe_count" in cfg else None
    probes = kinds.build_probe_set(H, psi, count, stream(seed, 5))
    f1, f2 = kinds.fingerprint(H, psi, [T1, T2], probes)
    tps_eq = tps_mod.equivalent(T1, T2)
    payload = {
        "config": cfg,
        "verdict": kinds.TpsVerdict.of(kinds.fingerprints_equal(f1, f2, cfg["tol"]), tps_eq).value,
        "fingerprint_distance": kinds.fingerprint_distance(f1, f2),
        "tps_equal": bool(tps_eq),
        "probes": len(probes),
    }
    _dump_json(payload, out)
    return EXIT_OK


def cmd_search(cfg: dict, out: str | None) -> int:
    H, dims = build_model(_model_cfg(cfg), cfg["seed"])
    result = run_search(H, dims, _search_config(cfg.get("search", {}), cfg["seed"]))
    _dump_json({"config": cfg, "result": result.to_json()}, out)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _search_config(sc: dict, seed: int) -> SearchConfig:
    """SearchConfig from a ``search`` entry: SearchConfig's defaults and types, with K = 2."""
    sc = _typed("search", sc, dict)
    defaults = {f.name: f.default for f in dataclasses.fields(SearchConfig) if f.name != "seed"}
    defaults["K"] = 2
    unknown = sorted(set(sc) - set(defaults))
    if unknown:
        raise UsageError(f"unknown search field {unknown[0]!r}")
    given = {k: _checked(f"search field {k!r}", v, type(defaults[k])) for k, v in sc.items()}
    return SearchConfig(**{**defaults, **given}, seed=seed)


def _kinds_pair(cfg_pair, seed: int, path: int):
    H, dims = build_model(_model_cfg(cfg_pair, f"pair{path + 1}.file"), seed, path)
    return H, build_state(cfg_pair.get("state"), dims, seed, path)


def cmd_kinds(cfg: dict, out: str | None) -> int:
    if out:  # an earlier run's witness must not outlive a run that finds none or fails
        Path(out + ".witness.npy").unlink(missing_ok=True)
    seed, tol = cfg["seed"], cfg["tol"]
    mode = cfg.get("mode", "hsf")
    if mode == "hsf":
        H1, psi1 = _kinds_pair(_typed("pair1", cfg["pair1"], dict), seed, 0)
        if cfg.get("pair2") == "conjugated":
            V = haar_unitary(H1.dim, stream(seed, 6))
            H2 = HermitianOp(V.mat @ H1.mat @ V.mat.conj().T)
            psi2 = StateVec(V.mat @ psi1.vec)
        else:
            H2, psi2 = _kinds_pair(_typed("pair2", cfg["pair2"], dict), seed, 1)
        find = lambda: kinds.pair_orbit_witness(H1, psi1, H2, psi2, tol)
        residuals = lambda U: {
            "residual_operator": float(np.abs(U.mat @ H1.mat @ U.mat.conj().T - H2.mat).max()),
            "residual_state": float(np.linalg.norm(U.mat @ psi1.vec - psi2.vec)),
        }
    elif mode == "gram":
        fam1 = _build_family("family1", cfg["family1"], seed, 7)
        spec2 = cfg["family2"]
        if spec2 == "rotated":
            V = haar_unitary(fam1.shape[1], stream(seed, 8))
            with np.errstate(over="ignore", invalid="ignore"):  # the witness refuses a NaN or inf member
                fam2 = fam1 @ V.mat.T
        else:
            fam2 = _build_family("family2", spec2, seed, 9)
        find = lambda: kinds.gram_orbit_witness(list(fam1), list(fam2), tol)

        def residuals(U):  # on both families over one exact power of two: no square over- or underflows
            (f1, f2), e = _scaled(np.stack((fam1, fam2)))
            return {"residual": float(np.ldexp(max(np.linalg.norm(U.mat @ a - b) for a, b in zip(f1, f2)), e))}
    else:
        raise UsageError(f"unknown kinds mode {mode!r}")
    try:
        U = find()
    except NoWitnessError as e:
        _dump_json({"config": cfg, "witness": None, "reason": str(e)}, out)
        return EXIT_OK
    witness = {"shape": list(U.mat.shape), "sha256": hashlib.sha256(U.mat).hexdigest()}
    _dump_json({"config": cfg, "witness": witness, **residuals(U)}, out)
    if out:
        np.save(out + ".witness.npy", U.mat)
    return EXIT_OK


def _build_family(name: str, spec, seed: int, path: int) -> np.ndarray:
    if isinstance(spec, dict) and "random" in spec:
        r = _typed(f"{name}.random", spec["random"], dict)
        rng, shape = stream(seed, path), tuple(_checked(k, r[k], **_COUNT) for k in ("count", "dim"))
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if isinstance(spec, list):
        with _field(name):
            fam = _from_pairs(spec)
        if fam.ndim != 2:
            raise UsageError(f"{name} must be a list of members, each a list of [re, im] pairs, got shape {fam.shape}")
        return fam
    raise UsageError(f"unknown family spec {spec!r}")


def cmd_dualscan(cfg: dict, out: str | None) -> int:
    seed, tol = cfg["seed"], cfg["tol"]
    dims = Dims(tuple(_each("dims", cfg.get("dims", [2, 2]), kind=int)))
    trials = _checked("trials", cfg.get("trials", 10), **_COUNT)
    t_values = _each("t_values", cfg.get("t_values", [0.3, 0.7, 1.1]), **_FINITE)
    count = _checked("probe_count", cfg["probe_count"], **_COUNT) if "probe_count" in cfg else None
    rows = []
    tally = {v.value: 0 for v in kinds.TpsVerdict}
    for trial in range(trials):
        # one draw per trial from path 0; build_probe_set refuses a draw that misses the spectral
        # hypotheses (exit 3). The probes and the local move draw from the fixed paths 64 and 65,
        # kept so that payloads stay byte-identical with earlier releases.
        rng = stream(seed, trial, 0)
        H = _gue(dims.total, rng)
        psi = haar_state(dims.total, rng)
        T1 = tps_mod.random_tps(dims, rng)
        probes = kinds.build_probe_set(H, psi, count, stream(seed, trial, 64))
        cases = [("local", _local_move(T1, stream(seed, trial, 65)))]
        for i, t in enumerate(t_values):
            with _field(f"t_values[{i}]"):  # its phases t * eigenvalue may overflow
                U = expm_i(H, t)
            cases.append((f"evolved:{t!r}", tps_mod.act(U, T1)))
        f1, *fs = kinds.fingerprint(H, psi, [T1] + [T2 for _, T2 in cases], probes)
        for (label, T2), f2 in zip(cases, fs):
            fp_eq = kinds.fingerprints_equal(f1, f2, tol)
            tps_eq = tps_mod.equivalent(T1, T2)
            verdict = kinds.TpsVerdict.of(fp_eq, tps_eq)
            tally[verdict.value] += 1
            rows.append(
                (trial, label, fp_eq, tps_eq, verdict.value, kinds.fingerprint_distance(f1, f2))
            )
    rows.append(("summary", "", "", "", json.dumps(tally, sort_keys=True).replace(",", ";"), 0.0))
    _dump_csv("trial,case,fingerprints_equal,tps_equal,verdict,fingerprint_distance", rows, cfg, out)
    return EXIT_OK


def _local_move(T: tps_mod.Tps, rng) -> tps_mod.Tps:
    # one Haar unitary per factor of T, applied in T's own frame
    locals_ = kron_all(haar_unitaries(T.dims.factors, rng))
    return tps_mod.act(_formed_unitary(T.iso.mat.conj().T @ locals_ @ T.iso.mat), T)


# ---------------------------------------------------------------------------
# entry


_HANDLERS = dict(profile=cmd_profile, orbit=cmd_orbit, fingerprint=cmd_fingerprint,
                 search=cmd_search, kinds=cmd_kinds, dualscan=cmd_dualscan)
# the top-level config fields each subcommand reads; any other field is refused
_FIELDS = dict(
    profile={"model", "file", "tps", "seed", "tol"},
    orbit={"model", "file", "tps", "probe", "site", "grid", "bin", "seed"},
    fingerprint={"model", "file", "state", "tps1", "tps2", "probe_count", "seed", "tol"},
    search={"model", "file", "search", "seed"},
    kinds={"mode", "pair1", "pair2", "family1", "family2", "seed", "tol"},
    dualscan={"dims", "trials", "t_values", "probe_count", "seed", "tol"},
)


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on first use and shared by every later ``main`` call."""
    parser = _Parser(prog="mereokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="seed override (also MEREOKIT_SEED)")
        p.add_argument("--out", default=None, help="output path; stdout when omitted")
        if name in _TOL_DEFAULTS:
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _HANDLERS[args.command](_resolve_config(args), args.out)
    except HypothesisViolation as e:
        report = {"error": "hypothesis_violation", "reason": e.reason, "detail": str(e)}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return EXIT_HYPOTHESIS
    except KeyError as e:
        print(f"error: missing config field {e.args[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, MereokitError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
