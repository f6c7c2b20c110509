"""reslab benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 benchmarks/run.py --workload full-model --seed 1 --seconds 30 --trace 0

Workloads: ``full-model``, ``effective-check``, ``scenario-suite``, or
``all`` to run the three in turn in this one process.  Load model: a
closed loop with one client; each operation starts after the previous
one returned, in one process with BLAS/OpenMP pinned to one thread.

The host this runs on is a few vCPUs of a shared machine whose speed
drifts by up to a third within minutes, alike for all CPU-bound code; the
process cannot see it (no steal time; CPU time tracks wall time).  So
every timed operation is bracketed by a fixed calibration block, and
``wall_s.p50``, ``ops_per_s`` and ``sim_rate_per_s`` are reported in
reference seconds: measured seconds times ``CALIBRATION_REF_S`` over the
mean of the two blocks around the operation.  A change to reslab moves
them as it moves wall time; a change in the host's speed moves the
blocks as well and cancels.  The raw wall figures are printed beside
them.  ``setup_s`` stays in raw seconds: it is mostly imports, which the
calibration block does not track, and its raw median is the steadier.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of one
set-up plus one operation, plus ``trace.overhead``.  Human-readable lines
go first; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Spans of a traced
run are written to ``benchmarks/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
OUT = HERE / "out"

SETUP_REPEATS = 7
# a run always attempts at least this many timed operations, however short --seconds is
MIN_OPS = 3

# seconds one calibration block takes at reference speed (close to its
# median on a 2-vCPU Xeon host on a quiet day), and the block's size
CALIBRATION_REF_S = 0.022
CALIBRATION_REPS = 2500

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s.p50": "s",
    "ops_per_s": "1/s",
    "sim_rate_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_cmd(args, workload: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(args.seed), "--size", args.size,
    ]


def setup_probe(args) -> int:
    """Import reslab, build the workload's inputs, report, exit."""
    work = WORK / f"probe-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        reslab = workloads.import_reslab()
        workloads.build(reslab, args.workload, args.seed, args.size, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def setup_once(args, workload: str) -> float:
    """Seconds from the start of a fresh process to its built inputs."""
    start = time.perf_counter()
    with subprocess.Popen(_probe_cmd(args, workload), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit code {code})")
    return elapsed


def calibration_block() -> float:
    """Seconds of a fixed block of work shaped like reslab's hot loops.

    Interpreter-bound small complex matrix products plus a pure Python
    inner loop, using nothing from reslab, so a change to reslab cannot
    move it and a change in host speed moves it as it moves reslab.
    """
    a = np.eye(6, dtype=complex) * 0.5
    b = np.full((6, 6), 0.01, dtype=complex)
    start = time.perf_counter()
    x = a.copy()
    for _ in range(CALIBRATION_REPS):
        x = 0.5 * (x @ b + a - 1j * (b @ x))
        acc = 0.0
        for k in range(10):
            acc += k * 1.5
    elapsed = time.perf_counter() - start
    if not np.all(np.isfinite(x)) or acc != 67.5:
        raise RuntimeError("calibration block computed a wrong result")
    return elapsed


class Loop:
    """Attempted and failed operations, with the timings of the good ones."""

    def __init__(self, wl, capture):
        self.wl, self.capture = wl, capture
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run_one(self):
        """One checked operation; ``(seconds, rate . time)`` or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            output = self.wl.operate()
            elapsed = time.perf_counter() - start
            errors, rate_time = self.wl.check(output)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            errors, elapsed, rate_time = [traceback.format_exc(limit=3)], 0.0, 0.0
        errors += self.capture.take_errors()
        if errors:
            self.failed += 1
            self.errors += errors
            return None
        return elapsed, rate_time


def run_workload(args, name: str, reslab, capture, work: Path) -> dict:
    """Set-up, warm-up and the timed closed loop of one workload."""
    rec = tracing.Recorder()
    patches = tracing.install(rec) if args.trace else None
    try:
        wl = workloads.build(reslab, name, args.seed, args.size, work)
    finally:
        if patches:
            patches.undo()
    loop = Loop(wl, capture)
    loop.run_one()  # warm-up: lazy imports and first-call costs stay out of the timings
    calibration_block()

    # set-up probes are spread evenly over the timed window, so that their
    # median sees the same machine as the operations do; operations are
    # kept raw and in reference seconds (see the module docstring)
    probes, untraced, raw_untraced, traced, rate_time = [], [], [], [], 0.0
    blocks = [calibration_block()]

    def reference_seconds(elapsed: float) -> float:
        blocks.append(calibration_block())
        return elapsed * CALIBRATION_REF_S / (0.5 * (blocks[-2] + blocks[-1]))

    n_probes = 0 if args.trace else SETUP_REPEATS
    start = time.perf_counter()
    deadline = start + args.seconds
    while loop.attempted <= MIN_OPS or time.perf_counter() < deadline:  # attempted counts the warm-up
        if len(probes) < n_probes and time.perf_counter() >= start + len(probes) * args.seconds / n_probes:
            probes.append(setup_once(args, name))
            blocks.append(calibration_block())
            continue
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        if trace_this:
            rec.op_id = len(traced)
            patches = tracing.install(rec)
        try:
            result = loop.run_one()
        finally:
            if trace_this:
                patches.undo()
        if result is None:
            blocks.append(calibration_block())
            continue
        scaled = reference_seconds(result[0])
        if trace_this:
            traced.append(scaled)
        else:
            untraced.append(scaled)
            raw_untraced.append(result[0])
            rate_time += result[1]
    while len(probes) < n_probes:  # a run shorter than its operations
        probes.append(setup_once(args, name))

    header = f"{name}: seed {args.seed}, phases phi1={wl.phases[0]} phi2={wl.phases[1]}, size {args.size}"
    print(header + (f", order {' '.join(wl.order)}" if hasattr(wl, "order") else ""))
    print(f"  error_rate {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:g}")
    print(
        f"  calibration block: median {statistics.median(blocks) * 1e3:.2f} ms over {len(blocks)}, "
        f"reference {CALIBRATION_REF_S * 1e3:.2f} ms"
    )
    for err in loop.errors[:10]:
        print("  FAILED: " + err.replace("\n", "\n    "))

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(probes),
            "wall_s.p50": statistics.median(untraced) if untraced else 0.0,
            "ops_per_s": len(untraced) / sum(untraced) if untraced else 0.0,
            "sim_rate_per_s": rate_time / sum(untraced) if untraced else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        raw_sum = sum(raw_untraced)
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} fresh processes",
            "wall_s.p50": f"n={len(untraced)}; raw {statistics.median(raw_untraced):.4f} s" if untraced else "n=0",
            "ops_per_s": f"raw {len(raw_untraced) / raw_sum:.4f} 1/s" if untraced else "",
            "sim_rate_per_s": f"raw {rate_time / raw_sum:.4f} 1/s" if untraced else "",
        }
    else:
        n_traced = max(len(traced), 1)
        metrics = rec.metrics(n_traced)
        flops, nbytes = workloads.apply_generator_cost(dim=6, n_terms=2)
        metrics["lindblad.apply_generator.flops_computed"] = float(flops)
        metrics["lindblad.apply_generator.bytes_computed"] = float(nbytes)
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0 if traced and untraced else 0.0
        metrics["trace.overhead"] = overhead
        units = tracing.per_layer_units()
        notes = {
            "lindblad.apply_generator.flops_computed": "computed, dim 6 with two jump terms",
            "lindblad.apply_generator.bytes_computed": "computed, dim 6 with two jump terms",
            "trace.overhead": f"median of {len(traced)} traced / {len(untraced)} untraced ops",
        }
        rec.save(OUT / f"spans-{name}.npz")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if notes.get(key) else ""
        print(f"  {key:48s} {value:14.6g} {units[key]}{note}")
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "reslab").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    reslab = workloads.import_reslab()
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    capture = workloads.StateCapture(reslab)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name in names:
            results[name] = run_workload(args, name, reslab, capture, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
