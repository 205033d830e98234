"""Command-line entry point.

Subcommands:
  validate    run the cross-module invariant suite
  lemma31     scaling reports for a range of wave-packet family members
  nonuniform  solution-map gap experiment for one model
  taylor      time-power fit of the second-order Taylor remainder

Exit status is 0 iff every verdict in the produced report passes.  A JSON
config file mirroring the experiment settings may be supplied with --config;
explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .dynamics import Model
from .harness import (
    DEFAULT_HALF_LENGTH,
    ExperimentConfig,
    emit_outputs,
    run_nonuniform,
    run_scaling_batch,
    run_taylor_check,
    run_validation_suite,
)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _merged(file_cfg: dict, key: str, flag_value, default):
    if flag_value is not None:
        return flag_value
    if key in file_cfg and file_cfg[key] is not None:
        return file_cfg[key]
    return default


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

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--seed", type=int, required=True)
    p_val.add_argument("--grid-n", type=int, default=None)
    p_val.add_argument("--grid-l", type=float, default=None)
    p_val.add_argument("--cutoff-scale", type=float, default=1.0,
                       help="fault injection: scale the ring cutoff")
    p_val.add_argument("--config", default=None)

    p_lem = sub.add_parser("lemma31", help="wave-packet scaling reports")
    p_lem.add_argument("--n-min", type=int, default=None)
    p_lem.add_argument("--n-max", type=int, default=None)
    p_lem.add_argument("--grid-n", type=int, default=None)
    p_lem.add_argument("--grid-l", type=float, default=None)
    p_lem.add_argument("--out", required=True)
    p_lem.add_argument("--config", default=None)

    p_non = sub.add_parser("nonuniform", help="solution-map gap experiment")
    p_non.add_argument("--model", choices=["ch", "novikov"], default=None)
    p_non.add_argument("--n-min", type=int, default=None)
    p_non.add_argument("--n-max", type=int, default=None)
    p_non.add_argument("--t", default=None, help="comma-separated sample times")
    p_non.add_argument("--cfl", type=float, default=None)
    p_non.add_argument("--grid-n", type=int, default=None)
    p_non.add_argument("--grid-l", type=float, default=None)
    p_non.add_argument("--out", default=None)
    p_non.add_argument("--config", default=None)

    p_tay = sub.add_parser("taylor", help="Taylor remainder slope fit")
    p_tay.add_argument("--model", choices=["ch", "novikov"], default=None)
    p_tay.add_argument("--t-min", type=float, default=None)
    p_tay.add_argument("--t-max", type=float, default=None)
    p_tay.add_argument("--points", type=int, default=None)
    p_tay.add_argument("--out", default=None)
    p_tay.add_argument("--config", default=None)

    args = parser.parse_args(argv)

    if args.command == "validate":
        cfg = _load_config(args.config)
        report = run_validation_suite(
            seed=args.seed,
            grid_points=_merged(cfg, "grid_points", args.grid_n, 2**10),
            half_length=_merged(cfg, "half_length", args.grid_l, 16.0 * math.pi),
            cutoff_scale=args.cutoff_scale,
        )
        _print_checks(report)
        return 0 if report.passed else 1

    if args.command == "lemma31":
        cfg = _load_config(args.config)
        n_lo = _merged(cfg, "n_min", args.n_min, None)
        n_hi = _merged(cfg, "n_max", args.n_max, None)
        if n_lo is None or n_hi is None:
            parser.error("lemma31 needs both n_min and n_max (--n-min/--n-max or --config)")
        report = run_scaling_batch(
            range(n_lo, n_hi + 1),
            grid_points=_merged(cfg, "grid_points", args.grid_n, None),
            half_length=_merged(cfg, "half_length", args.grid_l, DEFAULT_HALF_LENGTH),
        )
        emit_outputs(report, args.out)
        _print_checks(report)
        return 0 if report.passed else 1

    if args.command == "nonuniform":
        cfg = _load_config(args.config)
        model = Model(_merged(cfg, "model", args.model, "ch"))
        if (args.n_min is None) != (args.n_max is None):
            parser.error("nonuniform needs --n-min and --n-max together")
        if args.n_min is not None:
            n_values = tuple(range(args.n_min, args.n_max + 1))
        else:
            n_values = tuple(cfg.get("n_values", range(5, 9)))
        if args.t is not None:
            t_values = tuple(float(s) for s in args.t.split(","))
        else:
            t_values = tuple(cfg.get("t_values", (0.02, 0.05, 0.1)))
        config = ExperimentConfig(
            model=model,
            n_values=n_values,
            t_values=t_values,
            grid_points=_merged(cfg, "grid_points", args.grid_n, None),
            half_length=_merged(cfg, "half_length", args.grid_l, DEFAULT_HALF_LENGTH),
            cfl=_merged(cfg, "cfl", args.cfl, 0.3),
            output_dir=_merged(cfg, "output_dir", args.out, None),
        )
        report = run_nonuniform(config)
        if config.output_dir:
            emit_outputs(report, config.output_dir)
        _print_checks(report)
        return 0 if report.passed else 1

    if args.command == "taylor":
        cfg = _load_config(args.config)
        model = Model(_merged(cfg, "model", args.model, "ch"))
        config = ExperimentConfig(
            model=model,
            n_values=(6,),
            t_values=(_merged(cfg, "t_max", args.t_max, 0.1),),
            grid_points=cfg.get("grid_points"),
            output_dir=_merged(cfg, "output_dir", args.out, None),
        )
        report = run_taylor_check(
            config,
            t_min=_merged(cfg, "t_min", args.t_min, 1e-3),
            t_max=_merged(cfg, "t_max", args.t_max, 1e-1),
            points=_merged(cfg, "points", args.points, 8),
        )
        if config.output_dir:
            emit_outputs(report, config.output_dir)
        _print_checks(report)
        return 0 if report.passed else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
