"""Command-line experiment runner: reads a JSON config, writes CSV results."""
from __future__ import annotations

import dataclasses
import json
import os
import sys

import click

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

RUNNERS = {"cc": run_cc, "ac": run_ac, "lower_bound": run_lower_bound}


@click.group()
def main():
    """Batch policy-optimization model-selection experiments."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--audit", is_flag=True, help="Also write per-trial selection reports.")
def run(config_path, out_dir, seed, threads, audit):
    """Run one experiment and write results.csv / aggregate.csv to OUT."""
    if threads < 1:
        click.echo("--threads must be positive", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    try:
        config = load_config(config_path)
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)

    try:
        results, reports = RUNNERS[config.experiment](config, threads=threads, audit=audit)
    except (SingularMatrixError, ArithmeticError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL_ERROR)

    os.makedirs(out_dir, exist_ok=True)
    if config.experiment == "lower_bound":
        results_text = ratio_results_to_csv(results)
        aggregate_text = lower_bound_aggregate_to_csv(results)
    else:
        results_text = results_to_csv(results)
        aggregate_text = aggregate_to_csv(results)
    with open(os.path.join(out_dir, "results.csv"), "w") as fh:
        fh.write(results_text)
    with open(os.path.join(out_dir, "aggregate.csv"), "w") as fh:
        fh.write(aggregate_text)
    if audit:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump({"experiment": config.experiment, "reports": reports}, fh, sort_keys=True)
            fh.write("\n")
    click.echo(f"wrote {len(results)} result rows to {out_dir}")


if __name__ == "__main__":
    main()
