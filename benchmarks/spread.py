"""Run-to-run spread of the end-to-end metrics against BENCHMARK.json bounds.

    python3 benchmarks/spread.py --runs 10 [--workload full-model ...] [--first-seed 1]

Runs the benchmark once per seed and workload, then prints for each
metric the median and the interquartile distance as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound.  A benchmark is steady when every spread except ``setup_s`` stays
below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = SPEC["command"][1:]
    out = subprocess.run(
        [sys.executable, *cmd, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect results:\n{out}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    steady = True
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, SPEC["run_seconds"]))
            print(f"{workload} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        for metric in SPEC["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            print(
                f"  {workload:16s} {metric['name']:16s} median {median:12.6g} "
                f"spread {spread:7.4f} bound {metric['bound']:5.3f} {'ok' if ok else 'WIDE'}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
