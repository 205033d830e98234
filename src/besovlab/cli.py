"""Command-line entry point.

Subcommands:
  validate    run the cross-module invariant suite
  lemma31     scaling reports for a range of wave-packet family members
  nonuniform  solution-map gap experiment for one model
  taylor      time-power fit of the second-order Taylor remainder

Settings may also come from a JSON file given with --config whose keys are
the flags' destinations (grid_points, half_length, output_dir, t_values, ...;
nonuniform also reads n_values); explicit flags override file values, and an
unknown key is rejected.

Exit status: 0 if every verdict in the produced report passes, 1 if a
verdict failed, 2 on bad usage or settings, 3 if the run itself raised a
package error (a BesovLabError such as ResolutionExceeded when the grid is
too coarse for the box), reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .dynamics import Model
from .errors import BesovLabError
from .harness import (
    ExperimentConfig,
    emit_outputs,
    run_nonuniform,
    run_scaling_batch,
    run_taylor_check,
    run_validation_suite,
)


def _float_list(text: str) -> tuple:
    return tuple(float(s) for s in text.split(","))


def _with_help(flags, name, text):
    """flags with the one called name given help text."""
    return [(flag, dict(spec, help=text) if flag == name else spec) for flag, spec in flags]


# Flags per subcommand.  Each flag's dest is its config-file key; a setting
# neither flag nor file gives is left to the runner's default.
_GRID = [
    ("--grid-n", dict(dest="grid_points", type=int)),
    ("--grid-l", dict(dest="half_length", type=float)),
]
# validate's grid flags reach only part of the suite
_FIXED_GRIDS = (
    "; the packet checks always run on 2^14 points and the solver smoke checks"
    " on 2^12, both with L = 32 pi"
)
_N_RANGE = [("--n-min", dict(type=int)), ("--n-max", dict(type=int))]
_MODEL = ("--model", dict(choices=[m.value for m in Model]))
_OUT = ("--out", dict(dest="output_dir"))

SUBCOMMANDS = {
    "validate": ("run the invariant suite", [
        ("--seed", dict(type=int)),
        ("--grid-n", dict(dest="grid_points", type=int,
                          help="points of the transform, cutoff and Besov checks" + _FIXED_GRIDS)),
        ("--grid-l", dict(dest="half_length", type=float,
                          help="half length of that grid" + _FIXED_GRIDS)),
        ("--cutoff-scale", dict(type=float, help="fault injection: scale the ring cutoff")),
    ]),
    "lemma31": ("wave-packet scaling reports", [*_N_RANGE, *_GRID, _OUT]),
    "nonuniform": ("solution-map gap experiment", [
        _MODEL,
        *_N_RANGE,
        ("--t", dict(dest="t_values", type=_float_list, help="comma-separated sample times")),
        *_GRID,
        _OUT,
    ]),
    "taylor": ("Taylor remainder slope fit", [
        _MODEL,
        ("--t-min", dict(type=float)),
        ("--t-max", dict(type=float)),
        ("--points", dict(type=int)),
        *_with_help(_GRID, "--grid-n", "points of the grid the norms are taken on; each datum"
                    " evolves on the coarsest grid that holds its third harmonic, never a finer"
                    " one (see README)"),
        _OUT,
    ]),
}
EXTRA_KEYS = {"nonuniform": {"n_values"}}  # config-file keys without a flag
REQUIRED = {"validate": ("seed",), "lemma31": ("n_min", "n_max", "output_dir")}


def _load_config(parser, path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as err:
        parser.error(f"--config {path}: {err}")
    if not isinstance(cfg, dict):
        parser.error(f"--config {path}: expected a JSON object")
    return {key: value for key, value in cfg.items() if value is not None}


def _settings(parser, command: str, flags: dict, given: dict, path: str | None) -> dict:
    """The config file's settings overlaid by the flags given, checked once
    (by exact type: a JSON true is a bool, not the integer 1); n_min/n_max
    become n_values.  Settings nobody gave are absent."""
    file_cfg = _load_config(parser, path)
    unknown = sorted(set(file_cfg) - set(flags) - EXTRA_KEYS.get(command, set()))
    if unknown:
        parser.error(f"unknown config key(s): {', '.join(unknown)}")
    settings = {**file_cfg, **given}
    if ("n_min" in settings) != ("n_max" in settings):
        parser.error("--n-min and --n-max must be given together")
    missing = [key for key in REQUIRED.get(command, ()) if key not in settings]
    if missing:
        needs = ", ".join(f"{flags[key]} (config key {key})" for key in missing)
        parser.error(f"missing {needs}")
    if "n_min" in settings:
        n_min, n_max = settings.pop("n_min"), settings.pop("n_max")
        if not (type(n_min) is int and type(n_max) is int):
            parser.error(f"n_min and n_max must be integers, got {n_min!r} and {n_max!r}")
        if n_min > n_max:
            parser.error(f"n_min={n_min} exceeds n_max={n_max}")
        settings["n_values"] = tuple(range(n_min, n_max + 1))
    seed = settings.get("seed", 0)
    if not (type(seed) is int and seed >= 0):
        parser.error(f"seed must be a nonnegative integer, got {seed!r}")
    cutoff_scale = settings.get("cutoff_scale", 1.0)
    if not (type(cutoff_scale) in (int, float) and math.isfinite(cutoff_scale)):
        parser.error(f"cutoff_scale must be a finite number, got {cutoff_scale!r}")
    return settings


def _print_checks(report) -> None:
    for name, entry in report.checks.items():
        state = "PASS" if entry["passed"] else "FAIL"
        print(f"[{state}] {name}: value={entry['value']} threshold={entry['threshold']}")
    failed_rows = [r for r in report.rows if r.get("verdict") == "fail"]
    for row in failed_rows:
        print(f"[FAIL] row {row}")
    print(f"=> {'ALL PASS' if report.passed else 'FAILURES PRESENT'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="besovlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, (help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        actions = [p.add_argument(flag, **kwargs) for flag, kwargs in flags]
        p.add_argument("--config", default=None, help="JSON settings file; flags override it")
        subparsers[name] = p, {a.dest: a.option_strings[0] for a in actions}

    given = vars(parser.parse_args(argv))
    command, path = given.pop("command"), given.pop("config")
    parser, flags = subparsers[command]
    settings = _settings(parser, command, flags, given, path)
    output_dir = settings.pop("output_dir", None)

    try:
        if command == "validate":
            report = run_validation_suite(**settings)
        elif command == "lemma31":
            report = run_scaling_batch(**settings)
        else:
            ladder = {key: settings.pop(key) for key in ("t_min", "t_max", "points") if key in settings}
            run = run_nonuniform if command == "nonuniform" else run_taylor_check
            report = run(ExperimentConfig(**settings), **ladder)
    except (TypeError, ValueError) as err:
        # raised by the package's own argument checks (Grid, SolverConfig, the
        # Taylor ladder) and by config values of the wrong type
        parser.error(str(err))
    except BesovLabError as err:
        print(f"besovlab: error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3

    if output_dir:
        emit_outputs(report, output_dir)
    _print_checks(report)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
