"""Command-line experiment runner: reads a JSON config, writes CSV results.

    batchselect run --config C --out O [--seed N] [--threads N] [--audit]

Exit codes: 0 on success; 2 for a bad command line (checked before any study
runs or any output directory is made) or a config error; 3 for a numerical
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .experiments import (
    ConfigError,
    aggregate_to_csv,
    load_config,
    lower_bound_aggregate_to_csv,
    results_to_csv,
    run_ac,
    run_cc,
    run_lower_bound,
)
from .hard_instance import ratio_results_to_csv
from .linalg import SingularMatrixError

EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

# Each study's runner and its results.csv and aggregate.csv writers.
STUDIES = {
    "cc": (run_cc, results_to_csv, aggregate_to_csv),
    "ac": (run_ac, results_to_csv, aggregate_to_csv),
    "lower_bound": (run_lower_bound, ratio_results_to_csv, lower_bound_aggregate_to_csv),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _config_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"{path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"{path!r} is not readable")
    return path


def _out_dir(path: str) -> str:
    """`path` if a run can make it or write into it: its nearest existing
    ancestor must be a directory that this process may write and enter."""
    ancestor = os.path.abspath(path)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise argparse.ArgumentTypeError(f"{ancestor!r} is not a directory")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"{ancestor!r} is not writable")
    return path


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchselect",
        description="Batch policy-optimization model-selection experiments.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    about = "Run one experiment and write results.csv / aggregate.csv to OUT."
    run = commands.add_parser("run", help=about, description=about, allow_abbrev=False)
    run.add_argument("--config", required=True, type=_config_file, help="JSON experiment config.")
    run.add_argument("--out", required=True, type=_out_dir, help="Output directory.")
    run.add_argument("--seed", type=int, default=None, help="Override the config seed.")
    run.add_argument(
        "--threads", type=_positive_int, default=1, help="Threads for ac's cells (default: 1)."
    )
    run.add_argument("--audit", action="store_true", help="Also write per-trial selection reports.")
    return parser


def main(argv: list[str] | None = None) -> None:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG_ERROR)

    run_study, write_results, write_aggregate = STUDIES[config.experiment]
    try:
        results, reports = run_study(config, threads=args.threads, audit=args.audit)
    except (SingularMatrixError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERICAL_ERROR)

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    for name, write in (("results.csv", write_results), ("aggregate.csv", write_aggregate)):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(write(results))
    if args.audit:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump({"experiment": config.experiment, "reports": reports}, fh, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(results)} result rows to {out_dir}")


if __name__ == "__main__":
    main()
