"""The operations each workload runs, as a pure function of the workload seed.

A workload is a sequence of rounds. Round ``r`` of workload ``w`` under
seed ``s`` is a fixed list of CLI operations whose configs draw their own
seeds and parameters from ``random.Random("w/s/r")``, so the same
``(w, s, r)`` always gives the same configs, and the mix of operations per
round never depends on the seed. A run is rounds ``0 .. rounds_for(...)-1``;
round ``WARMUP_ROUND`` only warms a process up. Only stdlib is used here:
the configs are written before mereokit or numpy is imported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

# ROADMAP dimension ladder: qubits n = 3..7 plus two non-qubit tuples.
LADDER = [(2,) * n for n in range(3, 8)] + [(3, 3, 3), (2, 2, 3)]
# ``profile`` stops at n = 6: when this benchmark was written one n = 7
# profile took 11 to 17 s (naive einsum expansion), a third of a run for a
# single sample.
PROFILE_LADDER = [d for d in LADDER if len(d) < 7]
# ``orbit`` and ``kinds`` are cheap next to the n = 6 profiles, so a round
# runs them this many times per dims, each with its own seed: more samples
# for the median. A 30 s run then holds six rounds, which puts the tail
# percentile inside the n = 6 ``ising`` profiles (two per round, below the
# one ``random_klocal`` profile per round) instead of on a group edge.
LADDER_REPEATS = 3
# One (2,2,2) search varies by about a third in time between instances, so
# a run needs many of them for a steady median. The mix puts the median
# inside the (2,2,2) searches and the tail percentile inside the (2,2,3)
# ones, away from the boundaries between groups, so a run's figures do not
# jump with the few (2,2,2,2) searches that converge.
SEARCH_ROUND = [(2, 2, 2)] * 24 + [(2, 2, 3)] * 8 + [(2, 2, 2, 2)]
# (3,3,3) and (2,2,2,2,2) stay in although probe sets failed their rank
# check there when this benchmark was written: a probe-set fix must show.
DISCRIMINATE_DIMS = [(2, 2, 2), (2, 2, 3), (2, 2, 2, 2), (3, 3, 3), (2, 2, 2, 2, 2)]
SEARCH = {"K": 2, "restarts": 1, "max_iters": 500, "success_residual": 1e-6}
T_VALUES = [0.3, 0.7, 1.1]
ORBIT_POINTS = 256
KINDS_TOL = 1e-8

WORKLOADS = ("search-recovery", "discriminate", "analyze-ladder")
WARMUP_ROUND = -1
# Seconds one round typically takes on a 2-vCPU Xeon VM with the library as
# it stood when the benchmark was added. A run's number of rounds follows
# from these and --seconds alone, never from a clock, so a run's operations
# (and which of them fail) depend on its arguments only.
ROUND_SECONDS = {"search-recovery": 11.0, "discriminate": 0.5, "analyze-ladder": 5.0}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``mereokit <command> --config <config as a file>``."""

    command: str
    cell: str  # command and dims, e.g. "search:2x2x3"; groups per-cell statistics
    config: dict


def _tag(dims) -> str:
    return "x".join(str(d) for d in dims)


def _search_round(rng: random.Random) -> list[Op]:
    return [
        Op(
            "search",
            f"search:{_tag(dims)}",
            {
                "model": {"name": "scrambled_klocal", "dims": list(dims), "K": SEARCH["K"]},
                "search": dict(SEARCH),
                "seed": rng.randrange(2**31),
            },
        )
        for dims in SEARCH_ROUND
    ]


def _discriminate_round(rng: random.Random) -> list[Op]:
    ops = []
    for dims in DISCRIMINATE_DIMS:
        # dualscan: one trial, so its four cases share one H and one probe set
        ops.append(
            Op(
                "dualscan",
                f"dualscan:{_tag(dims)}",
                {"dims": list(dims), "trials": 1, "t_values": T_VALUES, "seed": rng.randrange(2**31)},
            )
        )
        # fingerprint: one pair per H, once equivalent and once not
        for label, tps2 in (("local", {"kind": "local"}), ("evolved", {"kind": "evolved", "t": 0.7})):
            ops.append(
                Op(
                    "fingerprint",
                    f"fingerprint-{label}:{_tag(dims)}",
                    {
                        "model": {"name": "gue", "dims": list(dims)},
                        "state": "haar",
                        "tps1": {"kind": "random"},
                        "tps2": tps2,
                        "seed": rng.randrange(2**31),
                    },
                )
            )
    return ops


def _ladder_round(rng: random.Random) -> list[Op]:
    ops = []
    for dims in PROFILE_LADDER:
        ops.append(
            Op(
                "profile",
                f"profile-klocal:{_tag(dims)}",
                {
                    "model": {"name": "random_klocal", "dims": list(dims), "K": 2},
                    "tps": "canonical",
                    "seed": rng.randrange(2**31),
                },
            )
        )
        if set(dims) == {2}:
            J, h = round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(0.5, 1.5), 6)
            for tps in ("canonical", "jw_dual"):
                ops.append(
                    Op(
                        "profile",
                        f"profile-ising-{tps}:{_tag(dims)}",
                        {
                            "model": {"name": "ising", "n": len(dims), "J": J, "h": h},
                            "tps": tps,
                            "seed": rng.randrange(2**31),
                        },
                    )
                )
    for dims in LADDER * LADDER_REPEATS:
        ops.append(
            Op(
                "orbit",
                f"orbit:{_tag(dims)}",
                {
                    "model": {"name": "gue", "dims": list(dims)},
                    "tps": {"kind": "random"},
                    "probe": "zeros",
                    "site": rng.randrange(len(dims)),
                    "grid": {"points": ORBIT_POINTS},
                    "seed": rng.randrange(2**31),
                },
            )
        )
    for dims in LADDER * LADDER_REPEATS:
        ops.append(
            Op(
                "kinds",
                f"kinds-hsf:{_tag(dims)}",
                {
                    "mode": "hsf",
                    "pair1": {"model": {"name": "gue", "dims": list(dims)}, "state": "haar"},
                    "pair2": "conjugated",
                    "tol": KINDS_TOL,
                    "seed": rng.randrange(2**31),
                },
            )
        )
        ops.append(
            Op(
                "kinds",
                f"kinds-gram:{_tag(dims)}",
                {
                    "mode": "gram",
                    "family1": {"random": {"dim": prod(dims), "count": 3}},
                    "family2": "rotated",
                    "tol": KINDS_TOL,
                    "seed": rng.randrange(2**31),
                },
            )
        )
    return ops


_ROUNDS = {
    "search-recovery": _search_round,
    "discriminate": _discriminate_round,
    "analyze-ladder": _ladder_round,
}


def rounds_for(workload: str, seconds: float, passes: int) -> int:
    """Rounds in a run of about ``seconds`` that goes over its operations ``passes`` times."""
    return max(1, round(seconds / passes / ROUND_SECONDS[workload]))


def round_ops(workload: str, seed: int, index: int) -> list[Op]:
    """Operations of round ``index`` of ``workload`` under ``seed``."""
    return _ROUNDS[workload](random.Random(f"{workload}/{seed}/{index}"))
