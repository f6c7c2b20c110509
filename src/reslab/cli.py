"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 regime-constraint violation.  Failures print a machine-readable error
JSON to stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import ConfigError, RegimeError, SimulationError
from . import model
from .scenarios import SCENARIOS, _branch_for, _points, _strict_json, parse_config
from .scenarios import resolve_params, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGIME = 4


def _load_scenario(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config(text)


def _error_json(exc: Exception, code: int) -> str:
    payload = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
        },
        "exit_code": code,
    }
    if isinstance(exc, ConfigError) and exc.path:
        payload["error"]["path"] = list(exc.path)
    return _strict_json(payload)


def _classify(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, RegimeError):
        return EXIT_REGIME
    if isinstance(exc, SimulationError):
        return EXIT_NUMERICAL
    raise exc


def cmd_run(args) -> int:
    sc = _load_scenario(args.config)
    result = run_scenario(sc, out_dir=args.out, verbose=args.verbose)
    print(_strict_json({"scenario": sc.name, "out_dir": str(result.out_dir)}))
    return EXIT_OK


def cmd_validate(args) -> int:
    sc = _load_scenario(args.config)
    # the regime every run checks: each sweep point's, or the scenario's own
    regimes = [model.check_regime(resolve_params(pt), _branch_for(pt)) for pt in _points(sc)]
    entries = [
        {
            "regime_ok": regime.ok,
            "ratios": regime.ratios,
            "residuals": {k: res for k, (ok, res) in regime.checks.items()},
        }
        for regime in regimes
    ]
    report = {"valid": True, "scenario": sc.name}
    report.update({"points": entries} if sc.name == "sweep" else entries[0])
    print(_strict_json(report))
    for regime in regimes:
        if not regime.ok:
            raise RegimeError(regime, "resolved parameters violate the branch constraints")
    return EXIT_OK


def cmd_list_scenarios(_args) -> int:
    for name, description in SCENARIOS.items():
        print(f"{name:20s} {description}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no state."""
    parser = argparse.ArgumentParser(
        prog="reslab",
        description="Engineered-reservoir simulations for a driven ion-cavity system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config and write outputs")
    run_p.add_argument("config", help="path to a JSON scenario config")
    run_p.add_argument("--out", default="runs", help="output directory (default: runs)")
    run_p.add_argument("--verbose", action="store_true", help="print derived quantities to stderr")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="parse a config and check regime constraints")
    val_p.add_argument("config", help="path to a JSON scenario config")
    val_p.set_defaults(func=cmd_validate)

    list_p = sub.add_parser("list-scenarios", help="list available scenarios")
    list_p.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        code = _classify(exc)
        print(_error_json(exc, code))
        return code


if __name__ == "__main__":
    sys.exit(main())
