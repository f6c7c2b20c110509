"""Self-checks of the benchmark.

    python3 benchmarks/selfcheck.py [--baseline]

Runs every workload at ``--size tiny`` for one second, untraced once and
traced three times (twice with one seed, once with another), and fails
unless:

* the untraced run emits exactly the ``end_to_end`` metrics of
  BENCHMARK.json and the traced run exactly the ``per_layer`` ones, each
  with its unit;
* no operation fails (error_rate 0);
* every ``.calls``, ``.substeps`` and ``.refinements`` metric repeats
  exactly between the two traced runs with the same seed;
* the benchmark refuses to run, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.

It also lists the count metrics that differ between seeds.  With
``--baseline`` it adds full-size runs and compares them with the ROADMAP
Baseline (effective-check 2.24 s, phase-cycle 0.36 s, one RHS evaluation
100-145 us).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".substeps", ".refinements")

# (workload, traced, metric, low, high): ROADMAP Baseline ranges
BASELINE = (
    ("effective-check", 0, "wall_s.p50", 0.75 * 2.24, 1.25 * 2.24),
    ("scenario-suite", 1, "scenarios.run_scenario.phase-cycle.s", 0.75 * 0.36, 1.25 * 0.36),
    ("full-model", 1, "lindblad.apply_generator.us_per_call", 100.0, 145.0),
)


def bench(workload, seed, trace, size="tiny", seconds=1, cwd=ROOT):
    cmd = [
        sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond: bool, message: str, failures: list) -> None:
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        failures.append(message)


def check_workload(name: str, failures: list) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    traced = []
    for trace, seed in ((0, 1), (1, 1), (1, 1), (1, 2)):
        res = result_of(bench(name, seed, trace))
        emitted = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(emitted == declared[trace], f"{name} trace {trace}: metrics and units match BENCHMARK.json", failures)
        expect(
            res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
            f"{name} trace {trace} seed {seed}: error_rate 0 ({res['failed']}/{res['attempted']})",
            failures,
        )
        if trace:
            traced.append({k: v["value"] for k, v in res["metrics"].items()})
    counts = [k for k in traced[0] if k.endswith(COUNT_SUFFIXES)]
    unsteady = [k for k in counts if traced[0][k] != traced[1][k]]
    expect(not unsteady, f"{name}: {len(counts)} count metrics repeat exactly {unsteady or ''}", failures)
    moved = [k for k in counts if traced[0][k] != traced[2][k]]
    print(f"info  {name}: count metrics that differ between seeds 1 and 2: {moved or 'none'}")


def check_refuses_without_sources(failures: list) -> None:
    bare = HERE / ".work" / f"bare-{os.getpid()}"
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("full-model", 1, 0, cwd=bare)
        printed_result = '"correct"' in proc.stdout
        expect(
            proc.returncode != 0 and not printed_result,
            f"without the sources the benchmark exits {proc.returncode} and prints no result",
            failures,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def compare_baseline() -> None:
    for workload, trace, metric, low, high in BASELINE:
        res = result_of(bench(workload, 1, trace, size="full", seconds=10))
        value = res["metrics"][metric]["value"]
        verdict = "matches" if low <= value <= high else "MISMATCH"
        print(f"base  {workload} {metric} = {value:.4g} vs Baseline [{low:.4g}, {high:.4g}]: {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", action="store_true", help="also compare full-size runs with the Baseline")
    args = parser.parse_args()
    failures: list = []
    for workload in SPEC["workloads"]:
        check_workload(workload["name"], failures)
    check_refuses_without_sources(failures)
    if args.baseline:
        compare_baseline()
    print(f"{len(failures)} self-check failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
