"""The three benchmark workloads: seeded inputs, one operation, and the
checks that its outputs are correct.

* ``full-model``: one ``lindblad.evolve`` of the full ion-cavity master
  equation with spontaneous emission in the dressed frame, the run the
  paper's fidelity claim has never been checked against.  It stresses the
  time-dependent RK4 path (``apply_generator`` and the frame-rotated jump).
* ``effective-check``: the ``effective-check`` scenario at its defaults
  through ``scenarios.run_scenario``; its time goes to ``model.build_h1``
  under ``solve_ivp`` and it bypasses ``lindblad`` entirely.
* ``scenario-suite``: every other scenario through ``cli.main`` with all
  outputs written; it uses the static ``lindblad`` path, the per-sample
  post-processing loops and the disk.

The seed picks the drive phases (phi1, phi2) from a recorded table and,
for the suite, the order of the scenarios.  The phases move no substep
count and no cost, only the states, so every seed measures the same work.
"""

from __future__ import annotations

import io
import json
import math
import random
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from tracing import Patches, reslab_namespaces

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("full-model", "effective-check", "scenario-suite")
SIZES = ("full", "tiny")

# full-model: ROADMAP Baseline parameters at rate ratio 10, dressed frame
FULL_MODEL_PARAMS = dict(
    g=1.0, omega1=400.0, omega2=20.0, delta_a=-20.0, delta1=0.0, delta2=-800.0,
    Gamma=20.0, gamma=0.005, n_max=2,
)
# engineered rate . time covered by one evolve call, and its output samples
FULL_MODEL_GRID = {"full": (0.002, 11), "tiny": (0.0002, 3)}

# evolve accepts a trajectory once halving the step moves the final state
# by at most tol = 1e-8 (Frobenius).  Two integrators that both honour that
# tolerance can differ by about 2 tol; 1e-7 leaves a margin of five while
# still rejecting a phase error, which moves the state by about 1e-2.
REFERENCE_TOL = 1e-7

# physicality of every state evolve or steady_state returns
TRACE_TOL = 1e-9
HERMITIAN_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

SUITE = ("nonadiabatic", "memory", "interferometer", "elimination-check", "phase-cycle", "sweep")
SWEEP_GAMMAS = [50.0, 100.0, 200.0]


def import_reslab():
    """Import reslab from the checkout's ``src`` and from nowhere else."""
    if not (SRC / "reslab" / "__init__.py").is_file():
        raise SystemExit(f"reslab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import reslab
    import reslab.cli
    import reslab.scenarios

    if Path(reslab.__file__).resolve().parent != SRC / "reslab":
        raise SystemExit(f"imported reslab from {reslab.__file__}, not from {SRC}")
    return reslab


def phase_table() -> list:
    return json.loads(REFERENCE.read_text())["phases"]


def draw(seed: int) -> tuple[int, random.Random]:
    """Index of the seed's phase pair, and the generator for further draws."""
    rng = random.Random(seed)
    return rng.randrange(len(phase_table())), rng


def state_defects(states) -> list[str]:
    """Failed physicality checks over a stack of density matrices."""
    arr = np.asarray(states, dtype=complex)
    if arr.ndim == 2:
        arr = arr[None]
    herm = arr - np.conj(np.swapaxes(arr, 1, 2))
    errors = []
    trace_dev = float(np.max(np.abs(np.trace(arr, axis1=1, axis2=2) - 1.0)))
    if not trace_dev <= TRACE_TOL:
        errors.append(f"trace deviation {trace_dev:.3e}")
    herm_defect = float(np.max(np.abs(herm)))
    if not herm_defect <= HERMITIAN_TOL:
        errors.append(f"hermiticity defect {herm_defect:.3e}")
    min_eig = float(np.min(np.linalg.eigvalsh(arr - 0.5 * herm)))
    if not min_eig >= EIGENVALUE_FLOOR:
        errors.append(f"minimum eigenvalue {min_eig:.3e}")
    return errors


def apply_generator_cost(dim: int, n_terms: int) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of one ``apply_generator``
    call with a Hamiltonian and ``n_terms`` jump terms.

    Counts the dense arithmetic the function body does on ``dim x dim``
    complex arrays: a matrix product is 8 dim^3 flops, an elementwise
    complex operation 2 dim^2 (a complex scaling 6 dim^2); each array
    operand read or written moves 16 dim^2 bytes.  Operator sampling in
    ``hamiltonian_at`` and ``operator_at`` is not included.
    """
    mm, ew, arr = 8 * dim**3, 2 * dim**2, 16 * dim**2
    # -1j * (h @ rho - rho @ h) added to out: 2 products, subtract, scale, add
    h_flops = 2 * mm + ew + 3 * ew + ew
    h_arrays = 2 * 3 + 3 + 2 + 3
    # o^dag, o^dag o, o rho o^dag (2 products), odo rho, rho odo, then
    # 2 * x, two subtractions, rate scaling and the add into out
    term_flops = 5 * mm + 5 * ew
    term_arrays = 2 + 5 * 3 + 2 + 3 + 3 + 2 + 3
    zeros = 1
    return h_flops + n_terms * term_flops, arr * (zeros + h_arrays + n_terms * term_arrays)


class StateCapture:
    """Keeps every state ``evolve`` and ``steady_state`` return, wherever
    they are called from, so they can be checked after the timed call."""

    def __init__(self, reslab):
        self.states: list = []
        patches = Patches()
        namespaces = reslab_namespaces()
        lindblad = reslab.lindblad

        def evolve(*args, **kwargs):
            traj = captured_evolve(*args, **kwargs)
            self.states.append(traj.states)
            return traj

        def steady_state(*args, **kwargs):
            out = captured_steady(*args, **kwargs)
            self.states.append(out[0] if isinstance(out, tuple) else out)
            return out

        captured_evolve, captured_steady = lindblad.evolve, lindblad.steady_state
        patches.rebind(captured_evolve, evolve, namespaces)
        patches.rebind(captured_steady, steady_state, namespaces)

    def take_errors(self) -> list[str]:
        errors = []
        for states in self.states:
            errors += [f"returned state: {e}" for e in state_defects(states)]
        self.states.clear()
        return errors


def _engineered_rate(params: dict) -> float:
    return params["g"] ** 2 / params["Gamma"]


def full_model_inputs(reslab, phases, size: str):
    """``(master equation, rho0 = |down>|0>, output times)`` of one evolve call."""
    model, qmath = reslab.model, reslab.qmath
    p = model.ModelParams(phi1=phases[0], phi2=phases[1], **FULL_MODEL_PARAMS)
    me = model.full_system_master_equation(p, include_gamma=True)
    rate_time, n = FULL_MODEL_GRID[size]
    times = np.linspace(0.0, rate_time / _engineered_rate(FULL_MODEL_PARAMS), n)
    rho0 = qmath.projector(np.kron(qmath.basis_ket(2, 1), qmath.basis_ket(p.n_max + 1, 0)))
    return me, rho0, times


class FullModel:
    name = "full-model"

    def __init__(self, reslab, seed: int, size: str, work: Path):
        index, _ = draw(seed)
        self.phases = phase_table()[index]
        self.reference = np.array(json.loads(REFERENCE.read_text())["full-model"][size][index])
        self.reslab = reslab
        self.rate_time = FULL_MODEL_GRID[size][0]
        self.me, self.rho0, self.times = full_model_inputs(reslab, self.phases, size)

    def operate(self):
        return self.reslab.lindblad.evolve(self.me, self.rho0, self.times)

    def check(self, traj) -> tuple[list[str], float]:
        ref = self.reference[0] + 1j * self.reference[1]
        diff = float(np.linalg.norm(traj.final - ref))
        errors = [] if diff <= REFERENCE_TOL else [f"final state off the reference by {diff:.3e}"]
        return errors, self.rate_time


class EffectiveCheck:
    name = "effective-check"

    def __init__(self, reslab, seed: int, size: str, work: Path):
        index, _ = draw(seed)
        self.phases = phase_table()[index]
        self.reslab = reslab
        doc = {"name": "effective-check", "params": {"phi1": self.phases[0], "phi2": self.phases[1]}}
        if size == "tiny":
            doc["grid"] = {"t_end": 2e-6, "n_samples": 21}
        self.scenario = reslab.scenarios.parse_config(json.dumps(doc))

    def operate(self):
        return self.reslab.scenarios.run_scenario(self.scenario)

    def check(self, result) -> tuple[list[str], float]:
        errors = []
        worst = result.summary["derived"]["worst_fidelity"]
        if not worst >= 0.99:
            errors.append(f"worst_fidelity {worst} < 0.99")
        fids = np.array([row[1] for row in result.series_rows])
        if not (np.all(np.isfinite(fids)) and np.max(fids) <= 1.0 + 1e-9):
            errors.append("fidelity series is not finite or exceeds 1")
        horizon = result.series_rows[-1][0]
        return errors, _engineered_rate(result.summary["resolved_params"]) * horizon


def _epsilon(ratio: float, branch: str) -> float:
    # closed forms of the paper, written out here independently of reslab.model
    return 1.0 / (2.0 + (8.0 / 3.0) * ratio) if branch == "nonadiabatic" else 1.0 / (2.0 + ratio)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _check_derived(name: str, derived: dict, params: dict) -> list[str]:
    """The scenario's own acceptance figures; ``fidelity_steady`` is left free."""
    errors = []

    def need(cond: bool, what: str):
        if not cond:
            errors.append(f"{name}: {what}")

    if name == "nonadiabatic":
        ratio = _engineered_rate(params) / params["gamma"]
        need(_close(derived["rate_ratio"], ratio), f"rate_ratio {derived['rate_ratio']} != {ratio}")
        need(
            _close(derived["fidelity_formula"], 1.0 - _epsilon(ratio, "nonadiabatic")),
            "fidelity_formula != 1 - epsilon_closed_form(ratio)",
        )
    elif name == "memory":
        expected = 1.0 - _epsilon(derived["rate_ratio"], "memory")
        need(_close(derived["fidelity_formula"], expected), "fidelity_formula != 1 - epsilon_closed_form(ratio)")
    elif name == "interferometer":
        need(derived["slope_relative_error"] <= 1e-3, f"slope error {derived['slope_relative_error']}")
        need(derived["conservation_defect"] <= 1e-9, f"conservation defect {derived['conservation_defect']}")
    elif name == "elimination-check":
        dist = derived["max_trace_distance_after_transient"]
        need(dist <= 0.05, f"post-transient trace distance {dist}")
    elif name == "phase-cycle":
        need(abs(derived["geometric_phase"] + math.pi) <= 1e-3, f"geometric phase {derived['geometric_phase']}")
        need(
            abs(derived["dynamic_phase"] - derived["expected_dynamic_phase"]) <= 1e-3,
            f"dynamic phase {derived['dynamic_phase']} vs {derived['expected_dynamic_phase']}",
        )
    elif name == "sweep":
        need(len(derived["points"]) == len(SWEEP_GAMMAS), "sweep point count")
        for gamma, point in zip(SWEEP_GAMMAS, derived["points"]):
            ratio = _engineered_rate(params) / gamma
            need(
                _close(point["fidelity_formula"], 1.0 - _epsilon(ratio, "nonadiabatic")),
                f"sweep point gamma={gamma}: fidelity_formula != 1 - epsilon_closed_form(ratio)",
            )
    return errors


class ScenarioSuite:
    name = "scenario-suite"

    def __init__(self, reslab, seed: int, size: str, work: Path):
        index, rng = draw(seed)
        self.phases = phase_table()[index]
        self.order = list(SUITE)
        rng.shuffle(self.order)
        self.reslab = reslab
        self.work = work
        self.configs = {}
        phases = {"phi1": self.phases[0], "phi2": self.phases[1]}
        for name in self.order:
            doc = {"name": name, "params": dict(phases)}
            if name == "sweep":
                doc["options"] = {"base": "nonadiabatic"}
                doc["sweep_axis"] = ["gamma", SWEEP_GAMMAS]
            if name == "phase-cycle" and size == "tiny":
                doc["grid"] = {"n_samples": 257}
            path = work / f"{name}.json"
            path.write_text(json.dumps(doc))
            reslab.scenarios.parse_config(path.read_text())
            self.configs[name] = path
        self.passes = 0

    def operate(self):
        self.passes += 1
        out = self.work / f"pass-{self.passes}"
        runs = []
        for name in self.order:
            with redirect_stdout(io.StringIO()) as printed:
                code = self.reslab.cli.main(["run", str(self.configs[name]), "--out", str(out)])
            runs.append((name, code, printed.getvalue()))
        return out, runs

    def check(self, output) -> tuple[list[str], float]:
        out, runs = output
        errors, rate_time = [], 0.0
        for name, code, printed in runs:
            if code != 0:
                errors.append(f"{name}: exit code {code}: {printed.strip()}")
                continue
            run_dir = Path(json.loads(printed.strip().splitlines()[-1])["out_dir"])
            summary = json.loads((run_dir / "summary.json").read_text())
            json.loads((run_dir / "resolved_config.json").read_text())
            lines = (run_dir / "series.csv").read_text().splitlines()
            header = lines[0].split(",")
            if len(lines) < 2 or any(len(line.split(",")) != len(header) for line in lines[1:]):
                errors.append(f"{name}: malformed series.csv")
                continue
            params = summary["resolved_params"]
            errors += _check_derived(name, summary["derived"], params)
            if header[0] == "t":
                rate_time += _engineered_rate(params) * float(lines[-1].split(",")[0])
        shutil.rmtree(out, ignore_errors=True)
        return errors, rate_time


CLASSES = {cls.name: cls for cls in (FullModel, EffectiveCheck, ScenarioSuite)}


def build(reslab, name: str, seed: int, size: str, work: Path):
    return CLASSES[name](reslab, seed, size, work)
