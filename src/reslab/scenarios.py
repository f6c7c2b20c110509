"""Scenario configuration, batch execution, parameter sweeps, and
persistent CSV/JSON outputs.

Configs are JSON objects with keys ``name`` (required), ``params``,
``grid``, ``options``, ``sweep_axis`` and ``unit_scale``.  Unknown keys
anywhere are rejected at parse time with the path to the offending key.
Rates and angular frequencies are accepted in 1/s and rad/s; the
``unit_scale`` multiplier rescales every rate-like parameter, which makes
dimensionless runs (g = 1 regime studies) one-line configs.

Outputs per run: ``summary.json`` (scalar results, schema-tagged),
``series.csv`` (time series, header row first) and
``resolved_config.json`` (the fully resolved parameter record).  Given
identical configs the summary and CSV bytes are identical across runs;
wall-clock time is reported in the summary under the volatile key
``wall_time_s``.  JSON outputs write a non-finite number as ``null``.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import model, qmath
from .errors import ConfigError
from .frames import compare_effective
from .interferometer import run_interferometer
from .lindblad import Trajectory, evolve, steady_state
from .phases import export_bloch_path, phase_record

__all__ = [
    "SCHEMA_VERSION",
    "SCENARIOS",
    "TimeGrid",
    "Scenario",
    "ScenarioResult",
    "parse_config",
    "resolve_params",
    "run_scenario",
    "write_outputs",
]

SCHEMA_VERSION = "reslab/v1"

SCENARIOS = {
    "nonadiabatic": "reduced engineered reservoir in the dressed basis: relaxation and fidelity predictions",
    "memory": "single-drive quantum-memory branch: derived couplings and reduced relaxation",
    "interferometer": "three-level phase readout against an auxiliary reference level",
    "effective-check": "full versus effective Hamiltonian fidelity in the resonant regime",
    "elimination-check": "full two-part model versus reduced master equation (lossy-mode elimination)",
    "phase-cycle": "geometric and dynamic phase over one protected-state cycle",
    "sweep": "run a base scenario over a list of parameter values",
}

_PARAM_KEYS = tuple(f.name for f in fields(model.ModelParams))
_RATE_KEYS = ("g", "omega1", "omega2", "delta_a", "delta1", "delta2", "Gamma", "gamma")
_MINIMUM = {"g": 0, "omega1": 0, "omega2": 0, "Gamma": 0, "gamma": 0, "n_max": 1}

_OPTION_KEYS = {
    "nonadiabatic": {"include_gamma": bool},
    "memory": {},
    "interferometer": {"include_tl_decay": bool},
    "effective-check": {"branch": str, "chi": float},
    "elimination-check": {},
    "phase-cycle": {},
    "sweep": {"base": str},
}

# parameters a scenario's runner divides by or derives its time scale from
_POSITIVE_KEYS = {
    "nonadiabatic": ("Gamma",),
    "memory": ("Gamma",),
    "interferometer": ("Gamma", "omega1"),
    "effective-check": ("g",),
    "elimination-check": ("Gamma", "g"),
    "phase-cycle": ("omega1",),
}


@dataclass(frozen=True)
class TimeGrid:
    t_end: float | None = None
    n_samples: int | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    params: dict = field(default_factory=dict)
    grid: TimeGrid = TimeGrid()
    options: dict = field(default_factory=dict)
    sweep_axis: tuple | None = None
    unit_scale: float = 1.0


@dataclass
class ScenarioResult:
    """A run's outputs; ``series_rows`` becomes a float array, one row per sample."""

    summary: dict
    series_header: list
    series_rows: np.ndarray
    resolved_config: dict
    out_dir: Path | None = None

    def __post_init__(self):
        self.series_rows = np.asarray(self.series_rows, dtype=float)


# --- parsing -----------------------------------------------------------------


def _require(cond: bool, message: str, path):
    if not cond:
        raise ConfigError(message, tuple(path))


def _check_number(value, path, *, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", tuple(path))
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {value!r}", tuple(path))
    if integer and int(value) != value:
        raise ConfigError(f"expected an integer, got {value!r}", tuple(path))
    return int(value) if integer else float(value)


def _check_param(key, value, path):
    """A value of parameter ``key``, from ``params`` or a sweep axis, checked."""
    val = _check_number(value, path, integer=(key == "n_max"))
    if key in _MINIMUM:
        _require(val >= _MINIMUM[key], f"{key} must be >= {_MINIMUM[key]}, got {val}", path)
    # at n_max = 20 the elimination check's Liouvillian takes 1.5 GB (14 s on 2 vCPUs)
    _require(key != "n_max" or val <= 20, f"n_max must be <= 20, got {val}", path)
    return val


def parse_config(text: str) -> Scenario:
    """Parse and validate a JSON scenario document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    _require(isinstance(raw, dict), "top-level config must be a JSON object", ())

    allowed = {"name", "params", "grid", "options", "sweep_axis", "unit_scale"}
    for key in raw:
        _require(key in allowed, f"unknown key {key!r}", (key,))

    name = raw.get("name")
    _require(isinstance(name, str), "scenario name must be a string", ("name",))
    _require(name in SCENARIOS, f"unknown scenario {name!r}", ("name",))

    sections = {key: {} if raw.get(key) is None else raw[key] for key in ("params", "grid", "options")}
    for key, value in sections.items():
        _require(isinstance(value, dict), f"{key} must be an object", (key,))
    raw_params, grid_raw, raw_options = sections.values()
    params = {}
    for key, value in raw_params.items():
        _require(key in _PARAM_KEYS, f"unknown parameter {key!r}", ("params", key))
        params[key] = _check_param(key, value, ("params", key))

    for key in grid_raw:
        _require(key in ("t_end", "n_samples"), f"unknown grid key {key!r}", ("grid", key))
    t_end = None
    if "t_end" in grid_raw:
        t_end = _check_number(grid_raw["t_end"], ("grid", "t_end"))
        _require(t_end > 0, f"t_end must be positive, got {t_end}", ("grid", "t_end"))
    n_samples = None
    if "n_samples" in grid_raw:
        n_samples = _check_number(grid_raw["n_samples"], ("grid", "n_samples"), integer=True)
        _require(n_samples >= 2, f"n_samples must be >= 2, got {n_samples}", ("grid", "n_samples"))

    options = {}
    # a sweep takes its base scenario's options too, and forwards them to every point
    kind = name
    if name == "sweep":
        kind = raw_options.get("base", "nonadiabatic")
        _require(
            isinstance(kind, str) and kind in SCENARIOS and kind != "sweep",
            f"invalid sweep base {kind!r}",
            ("options", "base"),
        )
    option_spec = {**_OPTION_KEYS[name], **_OPTION_KEYS[kind]}
    for key, value in raw_options.items():
        _require(key in option_spec, f"unknown option {key!r} for {name}", ("options", key))
        expected = option_spec[key]
        if expected is bool:
            _require(isinstance(value, bool), f"option {key} must be a boolean", ("options", key))
            options[key] = value
        elif expected is float:
            options[key] = _check_number(value, ("options", key))
        else:
            _require(isinstance(value, str), f"option {key} must be a string", ("options", key))
            options[key] = value

    if kind == "effective-check":
        branch = options.get("branch", "nonadiabatic")
        _require(branch in model.BRANCHES, f"unknown branch {branch!r}", ("options", "branch"))
        chi = options.get("chi", 0.0)
        _require(-2.0 < chi < 2.0, f"chi must lie in (-2, 2), got {chi}", ("options", "chi"))
        memory_only = branch == "memory" or "chi" not in options
        _require(memory_only, "option chi applies to the memory branch only", ("options", "chi"))

    sweep_axis = None
    if name == "sweep":
        axis = raw.get("sweep_axis")
        _require(axis is not None, "sweep scenario requires sweep_axis", ("sweep_axis",))
        _require(
            isinstance(axis, (list, tuple)) and len(axis) == 2,
            "sweep_axis must be [parameter, [values...]]",
            ("sweep_axis",),
        )
        axis_name, values = axis
        _require(axis_name in _PARAM_KEYS, f"unknown parameter {axis_name!r}", ("sweep_axis", 0))
        _require(
            isinstance(values, (list, tuple)) and len(values) > 0,
            "sweep values must be a non-empty list",
            ("sweep_axis", 1),
        )
        checked = (_check_param(axis_name, v, ("sweep_axis", 1, i)) for i, v in enumerate(values))
        sweep_axis = (axis_name, tuple(checked))
    else:
        _require("sweep_axis" not in raw, "sweep_axis is only valid for sweeps", ("sweep_axis",))

    unit_scale = 1.0
    if "unit_scale" in raw:
        unit_scale = _check_number(raw["unit_scale"], ("unit_scale",))
        _require(unit_scale > 0, "unit_scale must be positive", ("unit_scale",))

    return Scenario(
        name=name,
        params=params,
        grid=TimeGrid(t_end=t_end, n_samples=n_samples),
        options=options,
        sweep_axis=sweep_axis,
        unit_scale=unit_scale,
    )


# --- resolution ---------------------------------------------------------------


def resolve_params(sc: Scenario) -> model.ModelParams:
    """Fill defaults and branch resonance conditions around the overrides of
    one run: a scenario other than a sweep, or a sweep point.

    Detunings not explicitly set follow the branch constraints of the
    scenario (delta1 = 0, delta2 = -2 omega1, delta_a = -omega2 for the
    nonadiabatic family; omega2 = 0, delta_a = -2 lambda for the memory
    branch), so that overriding a drive amplitude keeps the run on
    resonance unless the detunings are pinned too.  The effective-check
    memory branch takes delta1 = chi lambda from ``options.chi`` (setting
    ``params.delta1`` there is a :class:`ConfigError`) and delta2 = 0.

    Parameters the scenario divides by must be positive once scaled by
    ``unit_scale``; a zero raises :class:`ConfigError`, and so does an
    engineered rate that is not finite, or that underflows to zero from a
    nonzero coupling in a scenario that uses the rate (all but phase-cycle).
    """
    defaults = model.ModelParams()
    vals = {k: sc.params.get(k, getattr(defaults, k)) for k in _PARAM_KEYS}
    branch = _branch_for(sc)
    memory_check = sc.name == "effective-check" and branch == "memory"
    positive = _POSITIVE_KEYS[sc.name] + (("Gamma", "omega1") if memory_check else ())
    for key in positive:  # as scaled below, which may underflow a positive value
        _require(vals[key] * sc.unit_scale > 0, f"{key} must be positive for {sc.name}", ("params", key))
    if memory_check:
        # chi sets delta1 = chi lambda with lambda = 2 omega1 / sqrt(4 - chi^2);
        # the second drive is off, and its detuning defaults to 0
        _require("delta1" not in sc.params, "options.chi sets delta1", ("params", "delta1"))
        chi = sc.options.get("chi", 0.0)
        vals["delta1"] = chi * (2.0 * vals["omega1"] / math.sqrt(4.0 - chi * chi))
        vals["delta2"] = sc.params.get("delta2", 0.0)
    if branch == "memory":
        both_zero = vals["omega1"] * sc.unit_scale == 0 and vals["delta1"] * sc.unit_scale == 0
        _require(not both_zero, "omega1 and delta1 cannot both vanish", ("params", "omega1"))
    pins = model.branch_of(model.ModelParams(**vals), branch).pins.values()
    vals.update({key: value for key, value in pins if key not in sc.params})
    for key in _RATE_KEYS:
        vals[key] *= sc.unit_scale
    p = model.ModelParams(**vals)
    if p.Gamma > 0:  # g^2 / Gamma overflows through a large g or a small Gamma
        rate = model.engineered_rate(p, branch)
        # 0 is the exact rate of a zero coupling; phase-cycle never reads the rate
        exact = model.branch_of(p, branch).coupling == 0 and "g" not in positive
        ok = math.isfinite(rate) and (rate > 0 or exact or sc.name == "phase-cycle")
        key = "Gamma" if math.isinf(rate) and p.Gamma < 1.0 else "g"
        _require(ok, f"engineered rate {rate} is out of range for {sc.name}", ("params", key))
    return p


def _points(sc: Scenario) -> list:
    """The single runs a scenario consists of: a sweep's points, or itself."""
    if sc.name != "sweep":
        return [sc]
    return [_child_scenario(sc, v) for v in sc.sweep_axis[1]]


def _branch_for(sc: Scenario) -> str:
    # parse_config gives a branch option to effective-check alone
    return "memory" if sc.name == "memory" else sc.options.get("branch", "nonadiabatic")


def _grid(sc: Scenario, default_t_end: float, default_n: int) -> np.ndarray:
    if sc.grid.t_end is None and not 0.0 < default_t_end < math.inf:
        message = f"the default t_end {default_t_end} is not a finite positive time: set grid.t_end"
        raise ConfigError(message, ("grid", "t_end"))
    t_end = sc.grid.t_end if sc.grid.t_end is not None else default_t_end
    n = sc.grid.n_samples if sc.grid.n_samples is not None else default_n
    return np.linspace(0.0, t_end, n)


def _integrator_stats(traj: Trajectory) -> dict:
    """The ``integrator`` block of every summary whose run integrates."""
    return {
        "method": traj.method,
        "refinements": traj.refinements,
        "max_substeps_per_interval": int(np.max(traj.substeps)),
        "steps": int(np.sum(traj.substeps)),
        "achieved_residual": traj.achieved,
        "tol": traj.tol,
        "period": traj.period,
        "whole_periods": traj.whole_periods,
    }


# --- runners ------------------------------------------------------------------


def _run_nonadiabatic(sc: Scenario, p: model.ModelParams) -> ScenarioResult:
    include_gamma = sc.options.get("include_gamma", p.gamma > 0)
    rate = model.engineered_rate(p, "nonadiabatic")
    ratio = rate / p.gamma if p.gamma > 0 else float("inf")
    me = model.reduced_master_equation(p, "nonadiabatic", include_gamma=include_gamma)

    scale = max(rate, p.gamma if include_gamma else 0.0, 1e-300)
    times = _grid(sc, 10.0 / scale, 401)
    rho0 = np.diag([0.0, 1.0 + 0j])
    traj = evolve(me, rho0, times)
    up = qmath.basis_ket(2, 0)

    eps_formula = model.epsilon_closed_form(ratio, "nonadiabatic") if math.isfinite(ratio) else 0.0
    eps_rate_eqs = (
        (9.0 * p.gamma / 8.0) / (rate + 1.5 * p.gamma) if p.gamma > 0 else 0.0
    )
    rho_ss, _ = steady_state(me)
    evolved = "rate-equations" if include_gamma else "reduced, no gamma channel"
    derived = {
        "rate_eng": rate,
        "rate_ratio": ratio,
        "epsilon_formula": eps_formula,
        "fidelity_formula": 1.0 - eps_formula,
        "epsilon_rate_equations": eps_rate_eqs,
        "fidelity_rate_equations": 1.0 - eps_rate_eqs,
        "fidelity_steady": qmath.fidelity(rho_ss, up),
        "fidelity_final": qmath.fidelity(traj.final, up),
        "fidelity_generators": {
            "fidelity_formula": "closed-form",
            "fidelity_rate_equations": "rate-equations",
            "fidelity_steady": evolved,
            "fidelity_final": evolved,
        },
        "include_gamma": include_gamma,
    }
    header = ["t", "rho_uu", "rho_dd", "re_rho_ud", "im_rho_ud", "fidelity_up"]
    s = traj.states
    columns = [s[:, 0, 0].real, s[:, 1, 1].real, s[:, 0, 1].real, s[:, 0, 1].imag]
    rows = np.column_stack([times, *columns, qmath.fidelity(s, up)])
    return _result(sc, p, derived, header, rows, integrator=_integrator_stats(traj))


def _run_memory(sc: Scenario, p: model.ModelParams) -> ScenarioResult:
    derived_mem = model.DerivedMemoryParams.from_params(p)
    rate = model.engineered_rate(p, "memory")
    ratio = rate / p.gamma if p.gamma > 0 else float("inf")
    eps = model.epsilon_closed_form(ratio, "memory") if math.isfinite(ratio) else 0.0

    me = model.reduced_master_equation(p, "memory")
    times = _grid(sc, 10.0 / max(rate, 1e-300), 401)
    rho0 = np.diag([0.0, 1.0 + 0j])
    traj = evolve(me, rho0, times)
    plus = qmath.basis_ket(2, 0)
    bloch = export_bloch_path(
        model.protected_state_memory(p, times), times, (model.ket_e(), model.ket_g())
    )
    derived = {
        "lambda": derived_mem.lam,
        "chi": derived_mem.chi,
        "g_tilde": derived_mem.g_tilde,
        "rate_eng": rate,
        "rate_ratio": ratio,
        "epsilon_formula": eps,
        "fidelity_formula": 1.0 - eps,
        "fidelity_final": qmath.fidelity(traj.final, plus),
        "fidelity_generators": {
            "fidelity_formula": "closed-form",
            "fidelity_final": "reduced, no gamma channel",
        },
    }
    header = ["t", "rho_pp", "rho_mm", "fidelity_plus", "bloch_x", "bloch_y", "bloch_z"]
    s = traj.states
    columns = [s[:, 0, 0].real, s[:, 1, 1].real, qmath.fidelity(s, plus), bloch[:, 1:]]
    rows = np.column_stack([times, *columns])
    return _result(sc, p, derived, header, rows, integrator=_integrator_stats(traj))


def _run_interferometer(sc: Scenario, p: model.ModelParams) -> ScenarioResult:
    include_tl_decay = sc.options.get("include_tl_decay", False)
    res = run_interferometer(
        p, _grid(sc, 3.0 * np.pi / p.omega1, 601), include_tl_decay=include_tl_decay
    )
    derived = {
        "phase_slope": res.phase_slope,
        "expected_slope": res.expected_slope,
        "slope_relative_error": abs(res.phase_slope / res.expected_slope - 1.0),
        "reference_frequency": res.reference_frequency,
        "frequency_over_slope": res.reference_frequency / res.phase_slope,
        "conservation_defect": res.conservation_defect,
        "coherence_decay_fraction": res.coherence_decay_fraction,
        "include_tl_decay": include_tl_decay,
    }
    header = ["t", "rho_aa", "pop_up", "pop_down", "abs_coherence", "phase", "reference_pea"]
    columns = [res.rho_aa, res.population_up, res.population_down, np.abs(res.coherence)]
    traj = res.trajectory
    rows = np.column_stack([traj.times, *columns, res.phase, res.reference_series])
    return _result(sc, p, derived, header, rows, integrator=_integrator_stats(traj))


def _run_effective_check(sc: Scenario, p: model.ModelParams) -> ScenarioResult:
    branch = _branch_for(sc)
    b = model.branch_of(p, branch)
    full, frame, h2 = model.effective_model(p, branch)
    psi0 = np.kron(b.kets()[b.start], qmath.basis_ket(p.n_max + 1, 0))
    times = _grid(sc, 2.0 / max(p.g, 1e-300), 201)
    traj, fidelities = compare_effective(full, h2, psi0, times, frame=frame)

    report = model.check_regime(p, branch)
    derived = {
        "branch": branch,
        "worst_fidelity": float(np.min(fidelities)),
        "regime_ok": report.ok,
        **{f"ratio_{k}": v for k, v in report.ratios.items()},
        **{key: sc.options.get(key, default) for key, default in b.check_options.items()},
    }
    header = ["t", "fidelity"]
    rows = np.column_stack([traj.times, fidelities])
    return _result(sc, p, derived, header, rows, integrator=_integrator_stats(traj))


def _run_elimination_check(sc: Scenario, p: model.ModelParams) -> ScenarioResult:
    # the elimination comparison isolates the engineered channel: gamma = 0
    p = p.replace(gamma=0.0)
    rate = model.engineered_rate(p, "nonadiabatic")
    times = _grid(sc, 5.0 / rate, 201)
    n_f = p.n_max + 1
    full = evolve(
        model.full_system_master_equation(p, "nonadiabatic"),
        qmath.projector(np.kron(qmath.basis_ket(2, 1), qmath.basis_ket(n_f, 0))),
        times,
    )
    reduced = evolve(
        model.reduced_master_equation(p, "nonadiabatic"),
        np.diag([0.0, 1.0 + 0j]),
        times,
    )
    full_tl = qmath.partial_trace(full.states, (2, n_f), 0)
    dists = qmath.trace_distance(full_tl, reduced.states)
    transient = 5.0 / p.Gamma
    after = times >= transient
    derived = {
        "Gamma_over_g": p.Gamma / p.g if p.g > 0 else float("inf"),
        "rate_eng": rate,
        "transient_time": transient,
        "max_trace_distance_after_transient": float(np.max(dists[after]))
        if np.any(after)
        else float("nan"),
        "max_trace_distance": float(np.max(dists)),
    }
    header = ["t", "trace_distance", "rho_uu_full", "rho_uu_reduced"]
    uu = [full_tl[:, 0, 0].real, reduced.states[:, 0, 0].real]
    rows = np.column_stack([times, dists, *uu])
    return _result(sc, p, derived, header, rows, integrator=_integrator_stats(full))


def _run_phase_cycle(sc: Scenario, p: model.ModelParams) -> ScenarioResult:
    cycle = np.pi / p.omega1
    times = _grid(sc, cycle, 4097)
    states = model.protected_state_nonadiabatic(p, times)
    record = phase_record(states, times, model.drive_interaction_hamiltonian(p))
    bloch = export_bloch_path(states, times, (model.ket_e(), model.ket_g()))
    derived = {
        "geometric_phase": record.geometric,
        "dynamic_phase": record.dynamic,
        "total_phase": record.total,
        "cycle_time": record.cycle_time,
        "expected_dynamic_phase": -np.pi * p.omega2 / (2.0 * p.omega1),
    }
    header = ["t", "bloch_x", "bloch_y", "bloch_z"]
    return _result(sc, p, derived, header, bloch)


_RUNNERS = {
    "nonadiabatic": _run_nonadiabatic,
    "memory": _run_memory,
    "interferometer": _run_interferometer,
    "effective-check": _run_effective_check,
    "elimination-check": _run_elimination_check,
    "phase-cycle": _run_phase_cycle,
}

_SWEEP_COLUMNS = ("rate_eng", "rate_ratio", "epsilon_formula", "fidelity_formula")


def _child_scenario(sc: Scenario, value) -> Scenario:
    params = dict(sc.params)
    params[sc.sweep_axis[0]] = value
    return Scenario(
        name=sc.options.get("base", "nonadiabatic"),
        params=params,
        grid=sc.grid,
        options={k: v for k, v in sc.options.items() if k != "base"},
        unit_scale=sc.unit_scale,
    )


def _run_point(sc: Scenario) -> ScenarioResult:
    """Run one single scenario, a sweep point included, on its resolved
    parameters; they must satisfy the regime of its branch."""
    p = resolve_params(sc)
    model.require_regime(p, _branch_for(sc))
    return _RUNNERS[sc.name](sc, p)


def _run_sweep(sc: Scenario) -> ScenarioResult:
    axis_name, values = sc.sweep_axis
    summaries = [_run_point(point).summary for point in _points(sc)]

    columns = [c for c in _SWEEP_COLUMNS if all(c in s["derived"] for s in summaries)]
    header = [axis_name] + list(columns)
    rows = [[v] + [s["derived"][c] for c in columns] for v, s in zip(values, summaries)]
    p = model.ModelParams(**summaries[0]["resolved_params"])  # as its run resolved it
    derived = {
        "axis": axis_name,
        "values": list(values),
        "base": sc.options.get("base", "nonadiabatic"),
        "points": [s["derived"] for s in summaries],
    }
    return _result(sc, p, derived, header, rows)


def _result(sc, p, derived, header, rows, integrator=None) -> ScenarioResult:
    resolved = {
        "name": sc.name,
        "params": dict(vars(p)),
        "grid": {"t_end": sc.grid.t_end, "n_samples": sc.grid.n_samples},
        "options": dict(sc.options),
        "unit_scale": sc.unit_scale,
    }
    if sc.sweep_axis is not None:
        resolved["sweep_axis"] = [sc.sweep_axis[0], list(sc.sweep_axis[1])]
    summary = {
        "schema": SCHEMA_VERSION,
        "scenario": sc.name,
        "series_schema": f"{sc.name}/v1",
        "resolved_params": dict(vars(p)),
        "derived": derived,
    }
    if integrator is not None:
        summary["integrator"] = integrator
    return ScenarioResult(summary, header, rows, resolved)


def run_scenario(
    sc: Scenario,
    out_dir: str | os.PathLike | None = None,
    *,
    verbose: bool = False,
) -> ScenarioResult:
    """Execute a validated scenario; optionally persist the outputs.

    Outputs land in ``<out_dir>/<scenario>/<timestamp>/`` as
    ``summary.json``, ``series.csv`` and ``resolved_config.json``.  An ``OSError``
    while writing them is a :class:`ConfigError`, and so, before the run, is an
    ``out_dir`` whose nearest existing ancestor is not a writable directory.
    """
    if out_dir is not None:
        root = Path(out_dir)
        existing = next((p for p in (root, *root.parents) if p.exists()), root)
        if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
            raise ConfigError(f"cannot write outputs: {existing} is not a writable directory")
    start = time.perf_counter()
    if sc.name == "sweep":
        result = _run_sweep(sc)
    else:
        result = _run_point(sc)
    result.summary["wall_time_s"] = time.perf_counter() - start
    if verbose:
        print(_strict_json(result.summary["derived"]), file=sys.stderr)
    if out_dir is not None:
        try:
            result.out_dir = write_outputs(Path(out_dir), sc.name, result)
        except OSError as exc:
            raise ConfigError(f"cannot write outputs: {exc}") from exc
    return result


def _strict_json(obj, **kwargs) -> str:
    """RFC 8259 JSON of ``obj``, keys sorted, from one ``json.dumps`` pass, with
    every non-finite number in it written as ``null`` (outside strings), which
    parsers that reject NaN and Infinity read."""
    text = json.dumps(obj, default=str, sort_keys=True, **kwargs)
    if "NaN" in text or "Infinity" in text:  # a string token is matched whole and kept
        text = re.sub(r'("(?:[^"\\]|\\.)*")|-?Infinity|NaN', lambda m: m[1] or "null", text)
    return text


def write_outputs(out_root: Path, scenario_name: str, result: ScenarioResult) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{time.time_ns() % 1_000_000_000:09d}"
    run_dir = out_root / scenario_name / stamp
    counter = 0
    while run_dir.exists():
        counter += 1
        run_dir = out_root / scenario_name / f"{stamp}-{counter}"
    run_dir.mkdir(parents=True)

    for name, doc in (("summary.json", result.summary), ("resolved_config.json", result.resolved_config)):
        (run_dir / name).write_text(_strict_json(doc, indent=2) + "\n")
    # column by column, in blocks of 512 rows: no more than a block's text is held at once
    with open(run_dir / "series.csv", "w") as f:
        f.write(",".join(result.series_header) + "\n")
        for block in np.split(result.series_rows, range(512, len(result.series_rows), 512)):
            columns = [map(repr, column) for column in block.T.tolist()]
            f.write("\n".join([*map(",".join, zip(*columns)), ""]))
    return run_dir
