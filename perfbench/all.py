"""Run every workload once and print all end-to-end metrics in one table.

    python3 perfbench/all.py --seed 1 --seconds 30

Each workload runs in its own process through ``run.py``, one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    print(f"{'workload':16s} {'metric':12s} {'value':>12s} {'unit':6s} samples")
    for workload in WORKLOADS:
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        record = json.loads((HERE / "out" / f"{workload}-seed{args.seed}-trace0.json").read_text())
        result, detail = record["result"], record["detail"]
        for name, unit in END_TO_END.items():
            value = result["metrics"][name]
            print(f"{workload:16s} {name:12s} {value:12.6g} {unit:6s} {detail['samples'][name]}")
        print(f"{workload:16s} {'fail_frac':12s} {detail['fail_frac']:12.6g} {'ratio':6s} "
              f"{result['failed']}/{result['attempted']} {json.dumps(detail['failures'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
