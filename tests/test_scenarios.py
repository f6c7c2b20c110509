import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reslab import cli, model, qmath, scenarios
from reslab.errors import ConfigError
from reslab.scenarios import (
    SCENARIOS,
    Scenario,
    TimeGrid,
    parse_config,
    resolve_params,
    run_scenario,
)

_SINGLE = [name for name in SCENARIOS if name != "sweep"]
_MEMORY_CHECK = ("effective-check", {"branch": "memory"})
# the time-dependent (Magnus) path of the interferometer
_DECAYING_INTERFEROMETER = ("interferometer", {"include_tl_decay": True})
_EDGE_VALUES = [0, 1e-300, 1e-3, 1, 1e6, 1e200]
# the exit-code properties: a single scenario (or the memory check, or the
# decaying interferometer) with one or two parameters at edge values
_CONTRACT_BASES = st.sampled_from(
    [(name, {}) for name in _SINGLE] + [_MEMORY_CHECK, _DECAYING_INTERFEROMETER]
)
_EDGE_PARAMS = st.lists(
    st.tuples(st.sampled_from(scenarios._PARAM_KEYS), st.sampled_from(_EDGE_VALUES)),
    min_size=1,
    max_size=2,
)


class TestParseConfig:
    def test_memory_default_is_resonant(self):
        sc = parse_config('{"name": "memory", "params": {"delta1": 0}}')
        p = resolve_params(sc)
        assert p.omega2 == 0.0
        assert model.DerivedMemoryParams.from_params(p).chi == 0.0

    def test_sweep_three_points(self):
        sc = parse_config('{"name": "sweep", "sweep_axis": ["gamma", [1, 10, 100]]}')
        assert sc.sweep_axis == ("gamma", (1.0, 10.0, 100.0))

    def test_rejects_negative_drive(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"name": "nonadiabatic", "params": {"omega2": -1}}')
        assert err.value.path == ("params", "omega2")

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"name": "nonadiabatic", "params": {"bogus": 1}}')
        assert err.value.path == ("params", "bogus")

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"name": "nonadiabatic", "bogus": {}}')
        assert err.value.path == ("bogus",)

    def test_rejects_malformed_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"name": "nonadiabatic", "params": {"g": NaN}}')
        assert err.value.path == ("params", "g")

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigError):
            parse_config('{"name": "wat"}')

    def test_rejects_empty_sweep(self):
        with pytest.raises(ConfigError):
            parse_config('{"name": "sweep", "sweep_axis": ["gamma", []]}')

    def test_rejects_sweep_axis_elsewhere(self):
        with pytest.raises(ConfigError):
            parse_config('{"name": "memory", "sweep_axis": ["gamma", [1]]}')

    def test_option_validation(self):
        sc = parse_config('{"name": "interferometer", "options": {"include_tl_decay": true}}')
        assert sc.options == {"include_tl_decay": True}
        with pytest.raises(ConfigError):
            parse_config('{"name": "interferometer", "options": {"include_gamma": true}}')


class TestResolution:
    def test_detunings_follow_overridden_drives(self):
        sc = parse_config('{"name": "nonadiabatic", "params": {"omega1": 1000.0, "omega2": 50.0}}')
        p = resolve_params(sc)
        assert p.delta2 == -2000.0
        assert p.delta_a == -50.0
        assert model.check_regime(p, "nonadiabatic").ok

    def test_explicit_detunings_respected(self):
        sc = parse_config('{"name": "nonadiabatic", "params": {"delta2": -7.0}}')
        assert resolve_params(sc).delta2 == -7.0

    def test_unit_scale(self):
        sc = parse_config(
            '{"name": "nonadiabatic", "params": {"g": 1.0, "Gamma": 20.0, "gamma": 0.0,'
            ' "omega1": 400.0, "omega2": 20.0}, "unit_scale": 2.0}'
        )
        p = resolve_params(sc)
        assert (p.g, p.Gamma, p.omega1) == (2.0, 40.0, 800.0)
        assert p.delta2 == -1600.0


class TestRunScenario:
    def test_nonadiabatic_reference_summary(self):
        result = run_scenario(Scenario(name="nonadiabatic"))
        derived = result.summary["derived"]
        assert derived["rate_eng"] == 1e4
        assert derived["rate_ratio"] == 100.0
        assert abs(derived["fidelity_formula"] - 803.0 / 806.0) < 1e-12
        assert set(result.summary["resolved_params"]) == {
            "g", "omega1", "omega2", "phi1", "phi2",
            "delta_a", "delta1", "delta2", "Gamma", "gamma", "n_max",
        }
        integrator = result.summary["integrator"]
        assert integrator["method"] == "expm" and integrator["refinements"] == 0
        assert integrator["tol"] == 1e-8
        assert 0.0 <= integrator["achieved_residual"] <= integrator["tol"]

    def test_fidelity_predictions_reported_side_by_side(self):
        derived = run_scenario(Scenario(name="nonadiabatic")).summary["derived"]
        assert derived["fidelity_formula"] != derived["fidelity_rate_equations"]
        assert abs(derived["fidelity_steady"] - derived["fidelity_rate_equations"]) < 1e-9
        assert derived["fidelity_generators"] == {
            "fidelity_formula": "closed-form",
            "fidelity_rate_equations": "rate-equations",
            "fidelity_steady": "rate-equations",
            "fidelity_final": "rate-equations",
        }
        closed = Scenario(name="nonadiabatic", options={"include_gamma": False})
        labels = run_scenario(closed).summary["derived"]["fidelity_generators"]
        assert labels["fidelity_final"] == labels["fidelity_steady"] == "reduced, no gamma channel"

    def test_memory_summary(self):
        result = run_scenario(Scenario(name="memory", params={"delta1": 0.0}))
        derived = result.summary["derived"]
        assert derived["chi"] == 0.0
        assert derived["g_tilde"] == pytest.approx(1e5)
        assert derived["rate_ratio"] == pytest.approx(100.0)
        assert abs(derived["fidelity_formula"] - 101.0 / 102.0) < 1e-12
        assert derived["fidelity_generators"] == {
            "fidelity_formula": "closed-form",
            "fidelity_final": "reduced, no gamma channel",
        }

    def test_phase_cycle_summary(self):
        derived = run_scenario(Scenario(name="phase-cycle")).summary["derived"]
        assert derived["geometric_phase"] == pytest.approx(-np.pi, abs=1e-3)
        assert derived["dynamic_phase"] == pytest.approx(-np.pi * 0.05 / 2.0, abs=1e-3)

    def test_sweep_fidelity_column(self):
        sc = parse_config(
            '{"name": "sweep", "sweep_axis": ["gamma", [10000.0, 1000.0, 100.0]]}'
        )
        result = run_scenario(sc)
        col = result.series_header.index("fidelity_formula")
        values = [row[col] for row in result.series_rows]
        expected = [1.0 - 3.0 / 14.0, 83.0 / 86.0, 803.0 / 806.0]
        assert np.allclose(values, expected, atol=1e-12, rtol=0.0)

    def test_sweep_resolves_each_point_once(self, monkeypatch):
        # the points' runs resolve them; the sweep keeps the first one's record
        resolve, calls = scenarios.resolve_params, []

        def counting(sc):
            calls.append(sc.name)
            return resolve(sc)

        monkeypatch.setattr(scenarios, "resolve_params", counting)
        sc = parse_config('{"name": "sweep", "sweep_axis": ["gamma", [1.0, 10.0, 100.0]]}')
        summary = run_scenario(sc).summary
        assert calls == ["nonadiabatic"] * 3
        assert summary["resolved_params"] == asdict(resolve(scenarios._points(sc)[0]))

    def test_elimination_check_summary(self):
        sc = Scenario(
            name="elimination-check",
            params={"g": 1.0, "omega1": 400.0, "omega2": 20.0, "Gamma": 20.0},
            unit_scale=1.0,
        )
        derived = run_scenario(sc).summary["derived"]
        assert derived["Gamma_over_g"] == 20.0
        assert derived["max_trace_distance_after_transient"] < 0.05

    def test_effective_check_memory_branch(self):
        sc = Scenario(
            name="effective-check",
            params={"g": 1.0, "omega1": 200.0, "Gamma": 20.0, "gamma": 0.0},
            options={"branch": "memory", "chi": 1.0},
        )
        summary = run_scenario(sc).summary
        assert summary["derived"]["worst_fidelity"] > 0.99
        # H1 repeats with 2 pi / |delta_a|, delta_a = -2 lambda, lambda = 2 omega1 / sqrt(3)
        period = 2.0 * np.pi / (4.0 * 200.0 / np.sqrt(3.0))
        integrator = summary["integrator"]
        assert integrator["period"] == pytest.approx(period, rel=1e-14)
        assert integrator["whole_periods"] == int(2.0 // period)

    @pytest.mark.parametrize(
        "grid, period, whole_periods",
        [({}, 2.0 * np.pi / 20.0, 6), ({"t_end": 0.2, "n_samples": 11}, None, 0)],
    )
    def test_effective_check_integrator_block(self, tmp_path, grid, period, whole_periods):
        doc = {
            "name": "effective-check",
            "params": {"g": 1.0, "omega1": 400.0, "omega2": 20.0, "Gamma": 20.0, "gamma": 0.0},
            "grid": grid,
        }
        sc = parse_config(json.dumps(doc))
        r1 = run_scenario(sc, out_dir=tmp_path / "a")
        integrator = dict(r1.summary["integrator"])
        assert 0.0 < integrator.pop("achieved_residual") <= 1e-10
        assert integrator == {
            "method": "gauss-legendre-4",
            "tol": 1e-10,
            "steps": 754 if period else 380,  # the accepted pass's steps per span
            "max_substeps_per_interval": 6 if period else 38,
            "refinements": 1,
            "period": pytest.approx(period, rel=1e-14) if period else None,
            "whole_periods": whole_periods,
        }
        # every field is deterministic: the summary is byte-identical across runs
        r2 = run_scenario(sc, out_dir=tmp_path / "b")
        s1, s2 = ((r.out_dir / "summary.json").read_text().splitlines() for r in (r1, r2))
        assert [x for x in s1 if "wall_time_s" not in x] == [x for x in s2 if "wall_time_s" not in x]

    def test_every_integrating_scenario_writes_one_integrator_block(self, monkeypatch):
        # small explicit grids; the effective checks' comparisons are kept, to
        # read the trajectory each of their blocks reports
        comparisons, compare = [], scenarios.compare_effective

        def keeping(*args, **kwargs):
            comparisons.append(compare(*args, **kwargs))
            return comparisons[-1]

        monkeypatch.setattr(scenarios, "compare_effective", keeping)
        check = {"g": 1.0, "omega1": 400.0, "omega2": 20.0, "Gamma": 20.0, "gamma": 0.0}
        cases = {
            "nonadiabatic": ("nonadiabatic", {}, {}),
            "memory": ("memory", {}, {}),
            "interferometer": ("interferometer", {}, {}),
            "decaying interferometer": ("interferometer", {}, {"include_tl_decay": True}),
            "nonadiabatic check": ("effective-check", check, {}),
            "memory check": ("effective-check", {**check, "omega2": 0.0}, {"branch": "memory"}),
            "elimination-check": ("elimination-check", {}, {}),
        }
        blocks = {}
        for key, (name, params, options) in cases.items():
            sc = Scenario(name=name, params=params, grid=TimeGrid(n_samples=11), options=options)
            blocks[key] = run_scenario(sc).summary["integrator"]
        keys = {
            "method",
            "refinements",
            "max_substeps_per_interval",
            "steps",
            "achieved_residual",
            "tol",
            "period",
            "whole_periods",
        }
        assert {key: set(block) for key, block in blocks.items()} == dict.fromkeys(cases, keys)
        assert len(comparisons) == 2
        for key, (traj, _) in zip(("nonadiabatic check", "memory check"), comparisons):
            block = blocks[key]
            assert traj.period is not None
            assert (block["steps"], block["refinements"], block["period"]) == (
                int(np.sum(traj.substeps)),
                traj.refinements,
                traj.period,
            )

    def test_determinism(self, tmp_path):
        sc = parse_config('{"name": "nonadiabatic", "grid": {"n_samples": 50}}')
        r1 = run_scenario(sc, out_dir=tmp_path / "a")
        r2 = run_scenario(sc, out_dir=tmp_path / "b")
        s1, s2 = dict(r1.summary), dict(r2.summary)
        s1.pop("wall_time_s"), s2.pop("wall_time_s")
        assert json.dumps(s1, sort_keys=True, default=str) == json.dumps(
            s2, sort_keys=True, default=str
        )
        csv1 = (r1.out_dir / "series.csv").read_bytes()
        csv2 = (r2.out_dir / "series.csv").read_bytes()
        assert csv1 == csv2

    def test_output_files(self, tmp_path):
        sc = parse_config('{"name": "phase-cycle", "grid": {"n_samples": 257}}')
        result = run_scenario(sc, out_dir=tmp_path)
        assert result.out_dir.parent.name == "phase-cycle"
        for name in ("summary.json", "series.csv", "resolved_config.json"):
            assert (result.out_dir / name).exists()
        summary = json.loads((result.out_dir / "summary.json").read_text())
        assert summary["schema"] == "reslab/v1"
        header = (result.out_dir / "series.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "t"
        resolved = json.loads((result.out_dir / "resolved_config.json").read_text())
        assert resolved["name"] == "phase-cycle"

    def test_series_values_are_written_as_floats(self, tmp_path):
        # each value is written as repr(float(x)): under numpy 2 the repr of a
        # numpy float itself reads "np.float64(0.1)"
        row = [3, np.float64(0.1), True]
        result = scenarios.ScenarioResult({}, ["n", "x", "flag"], [row], {})
        run_dir = scenarios.write_outputs(tmp_path, "phase-cycle", result)
        expected = ",".join(repr(float(x)) for x in row)
        assert expected == "3.0,0.1,1.0"
        assert (run_dir / "series.csv").read_text() == "n,x,flag\n" + expected + "\n"

    @pytest.mark.parametrize(
        "base, options, axis, params, grid, shown",
        [
            (
                "nonadiabatic",
                {"include_gamma": False},
                ["gamma", [100.0, 1000.0]],
                {},
                {"n_samples": 50},
                {"include_gamma": False},
            ),
            (
                "effective-check",
                {"branch": "memory", "chi": 1.0},
                ["Gamma", [20.0, 40.0]],
                {"g": 1.0, "omega1": 200.0, "gamma": 0.0},
                {"t_end": 0.2, "n_samples": 21},
                {"branch": "memory", "chi": 1.0},
            ),
        ],
    )
    def test_sweep_forwards_base_options(self, base, options, axis, params, grid, shown):
        # every point equals the single run with the same options, and shows them
        doc = {"name": "sweep", "params": params, "grid": grid, "sweep_axis": axis}
        sweep = parse_config(json.dumps({**doc, "options": {"base": base, **options}}))
        points = run_scenario(sweep).summary["derived"]["points"]
        for value, point in zip(axis[1], points):
            single = {"name": base, "params": {**params, axis[0]: value}, "grid": grid}
            forwarded = parse_config(json.dumps({**single, "options": options}))
            assert point == run_scenario(forwarded).summary["derived"]
            assert {key: point[key] for key in shown} == shown


class TestSeriesRows:
    """At their defaults, the scenarios' rows equal the per-sample formulas
    they were built by before the states became one stack."""

    @staticmethod
    def run_recording(monkeypatch, name):
        trajectories = []
        evolve = scenarios.evolve

        def recording(*args, **kwargs):
            trajectories.append(evolve(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(scenarios, "evolve", recording)
        return run_scenario(Scenario(name=name)), trajectories

    def test_nonadiabatic(self, monkeypatch):
        result, (traj,) = self.run_recording(monkeypatch, "nonadiabatic")
        up = qmath.basis_ket(2, 0)
        expected = [
            [
                t,
                float(np.real(s[0, 0])),
                float(np.real(s[1, 1])),
                float(np.real(s[0, 1])),
                float(np.imag(s[0, 1])),
                qmath.fidelity(s, up),
            ]
            for t, s in zip(traj.times, traj.states)
        ]
        assert len(expected) == 401 and result.series_rows == expected

    def test_memory(self, monkeypatch):
        result, (traj,) = self.run_recording(monkeypatch, "memory")
        p = resolve_params(Scenario(name="memory"))
        times = traj.times
        bloch = scenarios.export_bloch_path(
            model.protected_state_memory(p, times), times, (model.ket_e(), model.ket_g())
        )
        plus = qmath.basis_ket(2, 0)
        expected = [
            [t, float(np.real(s[0, 0])), float(np.real(s[1, 1])), qmath.fidelity(s, plus), b[1], b[2], b[3]]
            for t, s, b in zip(times, traj.states, bloch)
        ]
        assert len(expected) == 401 and result.series_rows == expected

    def test_elimination_check(self, monkeypatch):
        result, (full, reduced) = self.run_recording(monkeypatch, "elimination-check")
        n_f = resolve_params(Scenario(name="elimination-check")).n_max + 1
        expected = [
            [
                t,
                qmath.trace_distance(qmath.partial_trace(sf, (2, n_f), 0), sr),
                float(np.real(qmath.partial_trace(sf, (2, n_f), 0)[0, 0])),
                float(np.real(sr[0, 0])),
            ]
            for t, sf, sr in zip(full.times, full.states, reduced.states)
        ]
        assert len(expected) == 201 and result.series_rows == expected


class TestCli:
    def write(self, tmp_path, doc):
        f = tmp_path / "config.json"
        f.write_text(json.dumps(doc))
        return str(f)

    def test_run_success(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"name": "nonadiabatic", "grid": {"n_samples": 50}})
        code = cli.main(["run", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scenario"] == "nonadiabatic"
        assert (tmp_path / "runs" / "nonadiabatic").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"name": "nonadiabatic", "params": {"omega2": -1}})
        code = cli.main(["run", cfg])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert payload["error"]["path"] == ["params", "omega2"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"name": "effective-check", "options": {"branch": "foo"}}, ["options", "branch"]),
            (
                {"name": "effective-check", "options": {"branch": "memory", "chi": 2.0}},
                ["options", "chi"],
            ),
            ({"name": "nonadiabatic", "params": {"Gamma": 0}}, ["params", "Gamma"]),
            ({"name": "memory", "params": {"Gamma": 0}}, ["params", "Gamma"]),
            ({"name": "sweep", "sweep_axis": ["Gamma", [1e6, 0]]}, ["params", "Gamma"]),
            ({"name": "phase-cycle", "params": {"omega1": 0}}, ["params", "omega1"]),
            ({"name": "interferometer", "params": {"omega1": 0}}, ["params", "omega1"]),
            ({"name": "interferometer", "params": {"Gamma": 0}}, ["params", "Gamma"]),
            ({"name": "memory", "params": {"omega1": 0}}, ["params", "omega1"]),
            ({"name": "elimination-check", "params": {"g": 0}}, ["params", "g"]),
            ({"name": "elimination-check", "params": {"Gamma": 0}}, ["params", "Gamma"]),
            ({"name": "effective-check", "params": {"g": 0}}, ["params", "g"]),
            (
                {"name": "effective-check", "params": {"Gamma": 0},
                 "options": {"branch": "memory"}},
                ["params", "Gamma"],
            ),
            (
                {"name": "effective-check", "params": {"omega1": 0, "delta1": 5.0},
                 "options": {"branch": "memory"}},
                ["params", "omega1"],
            ),
            (
                {"name": "effective-check", "params": {"delta1": 5.0},
                 "options": {"branch": "memory", "chi": 1.0}},
                ["params", "delta1"],
            ),
            # a sweep takes exactly its base scenario's options
            (
                {"name": "sweep", "options": {"base": "memory", "include_gamma": True},
                 "sweep_axis": ["gamma", [1.0]]},
                ["options", "include_gamma"],
            ),
            (
                {"name": "sweep", "options": {"base": "effective-check", "branch": "foo"},
                 "sweep_axis": ["g", [1.0]]},
                ["options", "branch"],
            ),
            (
                {"name": "sweep", "options": {"base": "sweep"}, "sweep_axis": ["g", [1.0]]},
                ["options", "base"],
            ),
            ({"name": "sweep", "sweep_axis": ["n_max", [0]]}, ["sweep_axis", 1, 0]),
            # chi sets the memory branch's drive; the nonadiabatic branch has none
            ({"name": "effective-check", "options": {"chi": 0.5}}, ["options", "chi"]),
            (
                {"name": "effective-check", "options": {"branch": "nonadiabatic", "chi": 0.5}},
                ["options", "chi"],
            ),
            (
                {"name": "sweep", "options": {"base": "effective-check", "chi": 0.5},
                 "sweep_axis": ["g", [1e5]]},
                ["options", "chi"],
            ),
            # the engineered rate g^2 / Gamma overflows, or underflows where g > 0 is needed
            *[({"name": name, "params": {"g": 1e200}}, ["params", "g"]) for name in _SINGLE],
            *[
                ({"name": name, "params": {"Gamma": 1e-300}}, ["params", "Gamma"])
                for name in ("nonadiabatic", "memory", "elimination-check")
            ],
            ({"name": "elimination-check", "params": {"g": 1e-300}}, ["params", "g"]),
            # the Fock cutoff's ceiling: the full model's dimension is 2 (n_max + 1)
            ({"name": "elimination-check", "params": {"n_max": 21}}, ["params", "n_max"]),
            (
                {"name": "sweep", "options": {"base": "effective-check"},
                 "sweep_axis": ["n_max", [2, 1e6]]},
                ["sweep_axis", 1, 1],
            ),
            # a value that is no number; a bool is an int to Python, and no parameter takes one
            ({"name": "nonadiabatic", "params": {"g": "1e5"}}, ["params", "g"]),
            ({"name": "memory", "params": {"gamma": True}}, ["params", "gamma"]),
            ({"name": "sweep", "sweep_axis": ["g", [1e5, "1e5"]]}, ["sweep_axis", 1, 1]),
        ],
    )
    def test_invalid_values_are_config_errors(self, tmp_path, capsys, command, doc, path):
        cfg = self.write(tmp_path, doc)
        extra = ["--out", str(tmp_path)] if command == "run" else []
        assert cli.main([command, cfg, *extra]) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["exit_code"] == 2
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["path"] == path

    @pytest.mark.parametrize(
        "doc, error",
        [
            # the rate (1e-190) is in range, but the run's time scale overflows its exponent
            pytest.param(
                {"name": "elimination-check", "params": {"Gamma": 1e200}},
                "IntegrationDivergenceError",
                id="elimination-check-Gamma-1e200",
            ),
            # a sweep runs its points in order; the failing one ends the run
            pytest.param(
                {
                    "name": "sweep",
                    "options": {"base": "elimination-check"},
                    "sweep_axis": ["Gamma", [1e6, 1e200]],
                },
                "IntegrationDivergenceError",
                id="sweep-elimination-check-Gamma-1e200",
            ),
            # the full Hamiltonian's period is about 1e-200 of the 2/g grid: its
            # count of whole periods is no 64-bit integer
            pytest.param(
                {"name": "effective-check", "params": {"omega1": 1e200}},
                "IntegrationDivergenceError",
                id="effective-check-omega1-1e200",
            ),
            pytest.param(
                {"name": "effective-check", "params": {"omega2": 1e200}},
                "IntegrationDivergenceError",
                id="effective-check-omega2-1e200",
            ),
            # decay at 1e200 over 5e-8 s intervals: the exact map's j >= 54 squarings
            # would leave no correct digit (they overflowed to NaN states, exit 0)
            pytest.param(
                {"name": "nonadiabatic", "params": {"gamma": 1e200},
                 "grid": {"t_end": 1e-7, "n_samples": 3}},
                "IntegrationDivergenceError",
                id="nonadiabatic-gamma-1e200",
            ),
            # the 3 pi / omega1 grid: its 1.6e298 s intervals give exponents past 2^55
            pytest.param(
                {"name": "interferometer", "params": {"omega1": 1e-300}},
                "IntegrationDivergenceError",
                id="interferometer-omega1-1e-300",
            ),
            # its t_end^2 overflows the phase fit (at a rate that keeps the maps in
            # range), or underflows it
            pytest.param(
                {"name": "interferometer", "params": {"omega1": 1e-160, "g": 1e-100}},
                "SimulationError",
                id="interferometer-omega1-1e-160",
            ),
            pytest.param(
                {"name": "interferometer", "params": {"omega1": 1e200}},
                "SimulationError",
                id="interferometer-omega1-1e200",
            ),
            # decay at 1e200 on the Magnus path: a bound on the exponents' 1-norm
            # is checked before they are formed
            pytest.param(
                {"name": "interferometer", "options": {"include_tl_decay": True},
                 "params": {"gamma": 1e200}, "grid": {"t_end": 1e-7, "n_samples": 3}},
                "IntegrationDivergenceError",
                id="interferometer-tl-decay-gamma-1e200",
            ),
        ],
    )
    def test_non_finite_step_is_numerical_failure(self, tmp_path, capfd, doc, error):
        cfg = self.write(tmp_path, doc)
        assert cli.main(["validate", cfg]) == 0
        capfd.readouterr()
        assert cli.main(["run", cfg, "--out", str(tmp_path / "runs")]) == 3
        # the failure is found before the arithmetic: no numpy warning, no LAPACK
        # message, only the error JSON
        out, err = capfd.readouterr()
        assert err == "" and len(out.splitlines()) == 1
        payload = json.loads(out)
        assert payload["exit_code"] == 3
        assert payload["error"]["type"] == error

    @staticmethod
    def contract_doc(base, params, sweep):
        """A single config of ``base`` with the edge ``params``, or a one-point
        sweep over the first of them."""
        name, options = base
        doc = {"name": name, "options": options, "params": dict(params)}
        if sweep:
            axis, value = params[0]
            doc = {**doc, "name": "sweep", "options": {**options, "base": name}}
            doc["params"] = {k: v for k, v in params[1:] if k != axis}
            doc["sweep_axis"] = [axis, [value]]
        return doc

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(base=_CONTRACT_BASES, params=_EDGE_PARAMS, sweep=st.booleans())
    def test_validate_keeps_the_exit_code_contract(self, tmp_path, capsys, base, params, sweep):
        # any config that parses ends in 0, 2, 3 or 4, with error JSON on failure
        code = cli.main(["validate", self.write(tmp_path, self.contract_doc(base, params, sweep))])
        assert code in (0, 2, 3, 4)
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        if code == 0:
            assert last["valid"]
        else:
            assert last["exit_code"] == code and set(last["error"]) >= {"type", "message"}

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        base=_CONTRACT_BASES,
        params=_EDGE_PARAMS,
        sweep=st.booleans(),
        t_end=st.sampled_from([1e-7, 2e-6]),
        n_samples=st.sampled_from([2, 5, 21]),
    )
    def test_run_keeps_the_exit_code_contract(
        self, tmp_path, capfd, base, params, sweep, t_end, n_samples
    ):
        # a run of any config that parses ends in 0, 2, 3 or 4 with a JSON last
        # line (its outputs, or the error), never with a traceback
        doc = self.contract_doc(base, params, sweep)
        doc["grid"] = {"t_end": t_end, "n_samples": n_samples}
        cfg = self.write(tmp_path, doc)
        code = cli.main(["run", cfg, "--out", str(tmp_path / "runs")])
        assert code in (0, 2, 3, 4)
        out, err = capfd.readouterr()
        assert err == ""
        last = json.loads(out.strip().splitlines()[-1])
        if code == 0:
            assert Path(last["out_dir"]).is_dir()
        else:
            assert last["exit_code"] == code and set(last["error"]) >= {"type", "message"}

    def test_missing_file_is_config_error(self, capsys):
        assert cli.main(["run", "/nonexistent/config.json"]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            # pi / omega1, 3 pi / omega1 and 5 / rate at a rate of 1e-320 are inf
            {"name": "phase-cycle", "params": {"omega1": 1e-320}},
            {"name": "interferometer", "params": {"omega1": 1e-320}},
            {
                "name": "elimination-check",
                "params": {"g": 1e-160, "Gamma": 1.0, "omega2": 1e-150, "omega1": 2e-149},
            },
        ],
        ids=["phase-cycle", "interferometer", "elimination-check"],
    )
    def test_non_finite_default_horizon_is_config_error(self, tmp_path, capsys, doc):
        code = cli.main(["run", self.write(tmp_path, doc), "--out", str(tmp_path / "runs")])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2 and payload["error"]["path"] == ["grid", "t_end"]
        assert "grid.t_end" in payload["error"]["message"]
        assert not (tmp_path / "runs").exists()

    def test_set_horizon_runs_where_the_default_is_not_finite(self, tmp_path, capsys):
        doc = {"name": "phase-cycle", "params": {"omega1": 1e-320}, "grid": {"t_end": 1.0}}
        assert cli.main(["run", self.write(tmp_path, doc), "--out", str(tmp_path / "runs")]) == 0

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        cfg = self.write(tmp_path, {"name": "phase-cycle", "grid": {"n_samples": 33}})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "file" / "sub")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2 and payload["error"]["type"] == "ConfigError"
        assert payload["error"]["message"].startswith("cannot write outputs: ")

    @pytest.mark.parametrize("out", ["file/sub", "file", "locked/sub"])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch, out):
        def unreachable(sc):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr(scenarios, "_run_point", unreachable)
        # a directory this process may not write (root may write any, so it is simulated)
        (tmp_path / "locked").mkdir()
        writable = scenarios.os.access
        monkeypatch.setattr(
            scenarios.os, "access", lambda p, mode: Path(p).name != "locked" and writable(p, mode)
        )
        (tmp_path / "file").write_text("")
        cfg = self.write(tmp_path, {"name": "phase-cycle", "grid": {"n_samples": 33}})
        assert cli.main(["run", cfg, "--out", str(tmp_path / out)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2 and payload["error"]["type"] == "ConfigError"
        assert payload["error"]["message"].startswith("cannot write outputs: ")
        assert not (tmp_path / "locked" / "sub").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("params", [[1], "omega1", 3.5, 0, False, ""])
    def test_non_object_params_is_config_error(self, tmp_path, capsys, command, params):
        cfg = self.write(tmp_path, {"name": "nonadiabatic", "params": params})
        assert cli.main([command, cfg]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2 and payload["error"]["path"] == ["params"]

    @pytest.mark.parametrize("section", ["grid", "options"])
    @pytest.mark.parametrize("value", [[], 0, False, ""])
    def test_non_object_section_is_config_error(self, tmp_path, capsys, section, value):
        cfg = self.write(tmp_path, {"name": "nonadiabatic", section: value})
        assert cli.main(["validate", cfg]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2 and payload["error"]["path"] == [section]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_utf8_file_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'\xff\xfe{"name": "nonadiabatic"}')
        assert cli.main([command, str(cfg)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2 and payload["error"]["type"] == "ConfigError"

    def test_regime_violation_exit_code(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            {"name": "effective-check", "params": {"delta_a": -123.0}},
        )
        code = cli.main(["run", cfg, "--out", str(tmp_path / "runs")])
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "RegimeError"

    @pytest.mark.parametrize("params, expected", [({}, 0), ({"delta_a": -5.0}, 4)])
    def test_validate_and_run_agree_on_memory_check(self, tmp_path, capsys, params, expected):
        doc = {
            "name": "effective-check",
            "options": {"branch": "memory", "chi": 1.0},
            "params": params,
            "grid": {"t_end": 2e-7, "n_samples": 5},
        }
        cfg = self.write(tmp_path, doc)
        assert cli.main(["validate", cfg]) == expected
        validated = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert cli.main(["run", cfg, "--out", str(tmp_path / "runs")]) == expected
        if expected == 0:
            run_dir = json.loads(capsys.readouterr().out)["out_dir"]
            derived = json.loads((Path(run_dir) / "summary.json").read_text())["derived"]
            ratios = {k[len("ratio_"):]: v for k, v in derived.items() if k.startswith("ratio_")}
            assert validated["ratios"] == ratios
            assert ratios["rate_eng_over_gamma"] == pytest.approx(25.0)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_memory_tolerance_ignores_second_drive_detuning(self, tmp_path, capsys, command):
        # a 0.01 rad/s delta_a residual; the memory branch keeps the default
        # delta2 = -4e7, which must not widen its tolerance
        doc = {"name": "memory", "params": {"omega1": 200.0, "delta_a": -400.01}}
        cfg = self.write(tmp_path, doc)
        extra = ["--out", str(tmp_path / "runs")] if command == "run" else []
        assert cli.main([command, cfg, *extra]) == 4
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"]["type"] == "RegimeError"

    def test_validate_ok(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"name": "nonadiabatic"})
        assert cli.main(["validate", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] and report["regime_ok"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"name": name, "params": {"delta2": -1.0}}
            for name in ("nonadiabatic", "phase-cycle", "interferometer", "elimination-check")
        ]
        + [{"name": "sweep", "sweep_axis": ["delta2", [-4e7, -1.0]]}],
        ids=lambda doc: doc["name"],
    )
    def test_validate_flags_regime(self, tmp_path, capsys, command, doc):
        # validate and run check the same regime, at every sweep point
        cfg = self.write(tmp_path, doc)
        options = ["--out", str(tmp_path / "runs")] if command == "run" else []
        assert cli.main([command, cfg, *options]) == 4
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"]["type"] == "RegimeError"
        assert payload["error"]["message"].count("constraints") == 1
        assert not (tmp_path / "runs").exists()

    def test_calls_share_no_state(self, tmp_path, capsys, monkeypatch):
        # main parses with one parser per process; every call starts from its defaults
        assert cli.build_parser() is cli.build_parser()
        cfg = self.write(tmp_path, {"name": "nonadiabatic", "grid": {"n_samples": 50}})
        monkeypatch.chdir(tmp_path)
        assert cli.main(["validate", cfg]) == 0
        validated = capsys.readouterr().out
        assert json.loads(validated)["valid"]
        assert cli.main(["run", cfg, "--out", "verbose-runs", "--verbose"]) == 0
        captured = capsys.readouterr()  # stdout carries one JSON line, derived goes to stderr
        (ran,), derived = captured.out.strip().splitlines(), captured.err
        verbose_dir = Path(json.loads(ran)["out_dir"])
        assert verbose_dir.parts[:2] == ("verbose-runs", "nonadiabatic")
        summary = json.loads((verbose_dir / "summary.json").read_text())
        assert json.loads(derived) == summary["derived"]
        assert cli.main(["run", cfg]) == 0
        captured = capsys.readouterr()  # no --verbose carried over
        (ran,) = captured.out.strip().splitlines()
        assert captured.err == ""
        assert json.loads(ran)["scenario"] == "nonadiabatic"
        assert Path(json.loads(ran)["out_dir"]).parts[:2] == ("runs", "nonadiabatic")
        assert cli.main(["validate", cfg]) == 0
        assert capsys.readouterr().out == validated

    def test_outputs_are_strict_json(self, tmp_path, capsys):
        # a non-finite number is written as null, so parsers that reject NaN
        # and Infinity read the validate report, the outputs and the verbose line
        def strict(text):
            return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in {text}"))

        assert cli.main(["validate", self.write(tmp_path, {"name": "memory"})]) == 0
        assert strict(capsys.readouterr().out)["ratios"]["omega1_over_omega2"] is None
        doc = {"name": "nonadiabatic", "params": {"gamma": 0}, "grid": {"n_samples": 50}}
        cfg = self.write(tmp_path, doc)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "runs"), "--verbose"]) == 0
        captured = capsys.readouterr()
        run_dir = Path(json.loads(captured.out)["out_dir"])
        summary = strict((run_dir / "summary.json").read_text())
        assert summary["derived"]["rate_ratio"] is None
        assert strict(captured.err) == summary["derived"]
        assert strict((run_dir / "resolved_config.json").read_text())["params"]["gamma"] == 0.0

    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_exit_code_classification(self):
        from reslab.errors import (
            DimensionMismatchError,
            IntegrationDivergenceError,
            NotHermitianError,
            RegimeError,
            SteadyStateError,
        )

        assert cli._classify(ConfigError("bad")) == 2
        assert cli._classify(IntegrationDivergenceError(1.0, 1e-8)) == 3
        assert cli._classify(SteadyStateError("no null vector")) == 3
        assert cli._classify(NotHermitianError(1e-3)) == 3
        assert cli._classify(DimensionMismatchError("shape")) == 3
        assert cli._classify(RegimeError(report="r")) == 4
        with pytest.raises(KeyError):
            cli._classify(KeyError("unrelated errors propagate"))


class TestSummaryBounds:
    @pytest.mark.parametrize(
        "sc",
        [
            Scenario(name="nonadiabatic"),
            Scenario(name="memory"),
            Scenario(name="effective-check", params={
                "g": 1.0, "omega1": 400.0, "omega2": 20.0, "Gamma": 20.0, "gamma": 0.0,
            }),
        ],
    )
    def test_reported_fidelities_bounded(self, sc):
        derived = run_scenario(sc).summary["derived"]
        labels = derived.get("fidelity_generators")
        for key, value in derived.items():
            if key == "fidelity_generators":
                continue
            if key.startswith("fidelity") or key == "worst_fidelity":
                assert 0.0 <= value <= 1.0 + 1e-8
                # every reported fidelity names the generator behind it
                assert labels is None or key in labels
