"""In-memory spans around the calls into reslab's public functions.

Each traced function is replaced, in every reslab namespace that binds
it, by a wrapper that records one span: name, start, end, parent span
and operation id.  Spans live in flat arrays while the run lasts and are
written out once at the end.  Self time is a span's duration minus the
time covered by its direct children; spans are strictly nested because
everything runs in one thread.

Per-layer metrics describe one set-up plus one operation: spans recorded
while the inputs were built count once, spans recorded during traced
operations are averaged over those operations.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

SETUP_OP = -1

MODULES = ("cli", "scenarios", "lindblad", "frames", "model", "phases", "qmath", "interferometer")

SCENARIO_NAMES = (
    "nonadiabatic",
    "memory",
    "interferometer",
    "effective-check",
    "elimination-check",
    "phase-cycle",
    "sweep",
)

# traced function -> the aggregates reported for it
SPANS = {
    "cli.main": ("s",),
    "scenarios.parse_config": ("s",),
    "scenarios.run_scenario": ("s", "self_s"),
    "scenarios.write_outputs": ("s",),
    "interferometer.run_interferometer": ("s",),
    "lindblad.evolve": ("calls", "s", "self_s"),
    "lindblad.steady_state": ("calls", "s"),
    "lindblad.liouvillian_matrix": ("calls", "s"),
    "lindblad.apply_generator": ("calls", "s", "us_per_call"),
    "lindblad.LindbladTerm.operator_at": ("calls", "s"),
    "lindblad.MasterEquation.hamiltonian_at": ("calls", "s"),
    "frames.compare_effective": ("s", "self_s"),
    "frames.schroedinger_evolve": ("s",),
    "model.build_h1": ("calls", "s"),
    "model.full_system_master_equation": ("s",),
    "model.reduced_master_equation": ("calls",),
    "model.protected_state_nonadiabatic": ("calls",),
    "model.drive_interaction_hamiltonian": ("calls", "s"),
    "phases.phase_record": ("s",),
    "phases.export_bloch_path": ("s",),
    "qmath.bloch_vector": ("calls", "s"),
    "qmath.fidelity": ("calls",),
    "qmath.partial_trace": ("calls", "s"),
}

# counters recorded from return values at the same boundaries
COUNTERS = {
    "lindblad.evolve.substeps": "count",
    "lindblad.evolve.refinements": "count",
    "scenarios.write_outputs.bytes": "B",
    "cli.main.failed": "count",
}

UNITS = {"calls": "count", "s": "s", "self_s": "s", "us_per_call": "us"}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for span, aggregates in SPANS.items():
        for agg in aggregates:
            units[f"{span}.{agg}"] = UNITS[agg]
    for name in SCENARIO_NAMES:
        units[f"scenarios.run_scenario.{name}.s"] = "s"
    units.update(COUNTERS)
    units["lindblad.apply_generator.flops_computed"] = "flop"
    units["lindblad.apply_generator.bytes_computed"] = "B"
    units["trace.overhead"] = "ratio"
    return units


class Recorder:
    """Flat span store; ``op_id`` tags every span opened while it is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: list[tuple[str, int, float]] = []
        self._stack = [-1]
        self.op_id = SETUP_OP

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters.append((name, self.op_id, float(value)))

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id),
            parent=np.array(self.parent),
            op=np.array(self.op),
            start=np.array(self.start),
            end=np.array(self.end),
        )

    def metrics(self, n_ops: int) -> dict:
        """Aggregates of one set-up plus the mean traced operation."""
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        op = np.array(self.op, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_time = dur - covered
        in_setup = op == SETUP_OP

        def family(base: str) -> np.ndarray:
            ids = [i for i, n in enumerate(self.names) if n == base or n.startswith(base + ".")]
            return np.isin(name_id, ids)

        def per_op(mask: np.ndarray, values: np.ndarray | None) -> float:
            if values is None:  # exact counts: integer sums, one division
                return float(np.count_nonzero(mask & in_setup)) + (
                    int(np.count_nonzero(mask & ~in_setup)) / n_ops
                )
            return float(values[mask & in_setup].sum() + values[mask & ~in_setup].sum() / n_ops)

        out = {}
        for span, aggregates in SPANS.items():
            mask = family(span)
            calls = per_op(mask, None)
            seconds = per_op(mask, dur)
            values = {"calls": calls, "s": seconds, "self_s": per_op(mask, self_time)}
            values["us_per_call"] = 1e6 * seconds / calls if calls else 0.0
            for agg in aggregates:
                out[f"{span}.{agg}"] = values[agg]
        for name in SCENARIO_NAMES:
            out[f"scenarios.run_scenario.{name}.s"] = per_op(
                family(f"scenarios.run_scenario.{name}"), dur
            )
        for counter in COUNTERS:
            setup_total = sum(v for n, o, v in self.counters if n == counter and o == SETUP_OP)
            op_total = sum(v for n, o, v in self.counters if n == counter and o != SETUP_OP)
            out[counter] = setup_total + op_total / n_ops
        return out


def _evolve_counts(rec: Recorder, traj) -> None:
    rec.count("lindblad.evolve.substeps", 0 if traj.substeps is None else int(np.sum(traj.substeps)))
    rec.count("lindblad.evolve.refinements", traj.refinements)


def _written_bytes(rec: Recorder, run_dir) -> None:
    rec.count("scenarios.write_outputs.bytes", sum(f.stat().st_size for f in Path(run_dir).iterdir()))


def _cli_failed(rec: Recorder, code) -> None:
    rec.count("cli.main.failed", int(code != 0))


_AFTER = {
    "lindblad.evolve": _evolve_counts,
    "scenarios.write_outputs": _written_bytes,
    "cli.main": _cli_failed,
}


def _span_wrapper(rec: Recorder, fn, name: str):
    after = _AFTER.get(name)
    if name == "scenarios.run_scenario":
        # one span family per scenario, so each scenario's time is its own metric
        def span_id(args, kwargs):
            sc = args[0] if args else kwargs["sc"]
            return rec.intern(f"{name}.{sc.name}")
    else:
        nid = rec.intern(name)

        def span_id(args, kwargs):
            return nid

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(span_id(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, result)
        return result

    return traced


class Patches:
    """Rebinds a function in every namespace that holds it; ``undo`` restores."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, original, replacement, namespaces) -> None:
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, replacement)
                    self._undo.append((ns, key, original))

    def undo(self) -> None:
        while self._undo:
            ns, key, original = self._undo.pop()
            setattr(ns, key, original)


def reslab_namespaces() -> list:
    return [importlib.import_module("reslab")] + [
        importlib.import_module(f"reslab.{m}") for m in MODULES
    ]


def resolve(name: str):
    """``(function, namespaces to rebind it in)`` for a traced name."""
    module, _, attr = name.partition(".")
    mod = importlib.import_module(f"reslab.{module}")
    if "." in attr:  # a method: rebind it on its class only
        cls_name, method = attr.split(".")
        cls = getattr(mod, cls_name)
        return vars(cls)[method], [cls]
    return getattr(mod, attr), reslab_namespaces()


def install(rec: Recorder) -> Patches:
    """Wrap every traced function; the returned patches remove the wrappers."""
    patches = Patches()
    for name in SPANS:
        fn, namespaces = resolve(name)
        patches.rebind(fn, _span_wrapper(rec, fn, name), namespaces)
    return patches
