"""Compare two studies' draws with the draws they replaced, in distribution,
or one study on two source trees.

    python3 scripts/compare_cell_draws.py
    python3 scripts/compare_cell_draws.py --ref REV --study cc [--mode same|behaviour]

With no arguments it runs the three comparisons below.

lower_bound: runs the benchmark's lower_bound config (`WORKLOADS` in
perfbench/run.py) at TRIALS trials per cell on each of SEEDS, once on the
library's path, which draws each trial's per-arm counts and mean rewards
directly, and once on the row-level reference kept in
tests/test_hard_instance.py, which draws all n1 + n2 reward rows and splits
hold-out's rows by a permutation.  Each (algorithm, n1) cell is seeded as
`run_lower_bound` seeds it.  For every (algorithm, n1, instance) it pools the
seeds and prints both mean regrets, their difference and the combined
standard error sqrt(se_ref^2 + se_new^2).

ac: runs the benchmark's ac config at TRIALS trials on each of SEEDS, once on
the library's path, whose cells draw each (side, action) group's statistics
and whose instances draw their calibration probe's inner products, and once
on the row reference kept in tests/feature_rows.py (`row_reference`), which
draws every logged row, splits hold-out's rows by a permutation and probes
with 10^4 feature rows.  For every (n, method) it pools the regrets of all
seeds and trials and prints the same columns.

cc: runs the benchmark's cc config at TRIALS trials on each of SEEDS, once on
the library's path, whose cells draw each (x, a) cell's count, mean reward
and the within-cell sum of squares, and once on the row reference kept in
tests/row_design.py (`row_reference`), which draws every logged row and
bins it by (x, a).  It prints the same columns as for ac.

It exits 1 when any difference in any study exceeds MAX_SE combined
standard errors.

--ref REV: extracts the git revision REV with `git archive` into a
temporary directory, and runs the study's default config
(`{"experiment": STUDY}`) through each tree's own `batchselect run` CLI on
each of SEEDS: REV's tree and this working tree.  For every (n, method) of
aggregate.csv it pools the seeds, the mean of the per-seed mean regrets with
standard error sqrt(sum of se^2) / seeds, and prints both pooled means, their
difference, the combined standard error and |diff| / se, then the largest.
`--mode same`, for a change meant to keep results in distribution, exits 1
when the largest exceeds MAX_SE; `--mode behaviour`, for a change of
behaviour, prints the same before/after table with no gate.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or tests/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from batchselect.env import derive_seed  # noqa: E402
from batchselect.experiments import aggregate_rows, parse_config, run_ac, run_cc  # noqa: E402
from batchselect.hard_instance import ratio_experiment  # noqa: E402

TRIALS = 100
SEEDS = range(101, 121)
MAX_SE = 3.0


def pooled(results) -> list[tuple[float, float]]:
    """(mean, standard error) of each instance's regret over equal-sized seeds."""
    out = []
    for i in (1, 2):
        means = [getattr(r, f"mean_regret_nu{i}") for r in results]
        ses = [getattr(r, f"se_regret_nu{i}") for r in results]
        out.append((sum(means) / len(means), math.sqrt(sum(se * se for se in ses)) / len(ses)))
    return out


def zscore(ref: tuple[float, float], new: tuple[float, float]) -> tuple[float, float, float]:
    """(difference, combined standard error, |difference| / combined se)."""
    diff, se = new[0] - ref[0], math.hypot(ref[1], new[1])
    return diff, se, abs(diff) / se if se > 0 else (0.0 if diff == 0 else math.inf)


def compare_lower_bound() -> float:
    """Largest |diff| / combined se over the lower_bound cells."""
    from run import WORKLOADS
    from test_hard_instance import row_ratio_experiment

    config = parse_config({**WORKLOADS["lower_bound"], "trials": TRIALS})
    s = config.lower_bound
    print(f"lower_bound, {TRIALS} trials on seeds {SEEDS.start}-{SEEDS.stop - 1}")
    print("algorithm  n1     instance  row_mean  cell_mean  diff      combined_se  diff/se")
    worst = 0.0
    for algo in s.algorithms:
        for n1 in s.n1:
            runs = {}
            for name, run in (("row", row_ratio_experiment), ("cell", ratio_experiment)):
                runs[name] = pooled(
                    [
                        run(algo, n1, s.n2, config.trials, derive_seed(seed, f"lb-{algo}-{n1}"),
                            delta=config.delta, lam=config.lam, penalty_scale=config.penalty_scale)
                        for seed in SEEDS
                    ]
                )
            for i, (row, cell) in enumerate(zip(runs["row"], runs["cell"])):
                diff, se, z = zscore(row, cell)
                worst = max(worst, z)
                print(f"{algo:<10} {n1:<6} nu{i + 1:<7} {row[0]:<9.5f} {cell[0]:<10.5f} "
                      f"{diff:<+9.5f} {se:<12.5f} {z:.2f}")
    return worst


def compare_rows(study: str, run, row_reference, threads: int = 2) -> float:
    """Largest |diff| / combined se over a study's (n, method) cells, its
    library path against its row reference."""
    from run import WORKLOADS

    rows = {"row": [], "cell": []}
    for seed in SEEDS:
        config = parse_config({**WORKLOADS[study], "trials": TRIALS, "seed": seed})
        rows["cell"] += run(config, threads=threads)[0]
        with row_reference():
            rows["row"] += run(config, threads=threads)[0]
    print(f"{study}, {TRIALS} trials on seeds {SEEDS.start}-{SEEDS.stop - 1}")
    print("n     method    row_mean  cell_mean  diff      combined_se  diff/se")
    worst = 0.0
    ref, new = aggregate_rows(rows["row"]), aggregate_rows(rows["cell"])
    for (n, method, *a), (n2, method2, *b) in zip(ref, new, strict=True):
        assert (n, method) == (n2, method2)
        diff, se, z = zscore(a, b)
        worst = max(worst, z)
        print(f"{n:<5} {method:<9} {a[0]:<9.5f} {b[0]:<10.5f} {diff:<+9.5f} {se:<12.5f} {z:.2f}")
    return worst


def read_aggregate(path: Path) -> dict[tuple[int, str], tuple[float, float]]:
    """aggregate.csv as {(n, method): (mean regret, standard error)}."""
    with open(path, newline="") as fh:
        return {
            (int(r["n"]), r["method"]): (float(r["mean_regret"]), float(r["stderr"]))
            for r in csv.DictReader(fh)
        }


def pool_seeds(tables: list[dict]) -> dict[tuple[int, str], tuple[float, float]]:
    """Each (n, method)'s mean over equal-sized seeds and its standard error."""
    keys = tables[0].keys()
    if any(t.keys() != keys for t in tables):
        raise ValueError("seeds report different (n, method) cells")
    out = {}
    for key in sorted(keys):
        means, ses = zip(*(t[key] for t in tables))
        out[key] = (sum(means) / len(means), math.sqrt(sum(se * se for se in ses)) / len(ses))
    return out


def run_tree(tree: Path, study: str, out: Path) -> dict[tuple[int, str], tuple[float, float]]:
    """The study's default config on each of SEEDS through `tree`'s CLI, pooled."""
    config = out / "config.json"
    out.mkdir(parents=True)
    config.write_text(f'{{"experiment": "{study}"}}\n')
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    tables = []
    for seed in SEEDS:
        seed_out = out / str(seed)
        cmd = [sys.executable, "-m", "batchselect.cli", "run", "--config", str(config),
               "--out", str(seed_out), "--seed", str(seed), "--threads", "2"]
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        tables.append(read_aggregate(seed_out / "aggregate.csv"))
    return pool_seeds(tables)


def compare_pooled(ref: dict, new: dict, mode: str) -> int:
    """Print the per-(n, method) table of two pooled runs and return the exit
    code: 1 in `same` mode when a difference exceeds MAX_SE combined se."""
    if ref.keys() != new.keys():
        raise ValueError("the two trees report different (n, method) cells")
    print("n     method     ref_mean  new_mean  diff      combined_se  diff/se")
    worst = 0.0
    for (n, method), a in ref.items():
        b = new[n, method]
        diff, se, z = zscore(a, b)
        worst = max(worst, z)
        print(f"{n:<5} {method:<10} {a[0]:<9.5f} {b[0]:<9.5f} {diff:<+9.5f} {se:<12.5f} {z:.2f}")
    bound = f" (bound {MAX_SE})" if mode == "same" else ""
    print(f"largest |diff| / combined se: {worst:.2f}{bound}")
    return 1 if mode == "same" and worst > MAX_SE else 0


def compare_trees(rev: str, study: str, mode: str) -> int:
    """Run the study on git revision `rev` (ref) and on this working tree (new)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "ref"
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        ref = run_tree(tree, study, Path(tmp) / "ref-out")
        new = run_tree(ROOT, study, Path(tmp) / "new-out")
    print(f"{study}, default config on seeds {SEEDS.start}-{SEEDS.stop - 1}: "
          f"ref = {rev}, new = working tree ({mode})")
    return compare_pooled(ref, new, mode)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", help="git revision to compare this working tree against")
    parser.add_argument("--study", choices=("cc", "ac", "lower_bound"), help="default cc")
    parser.add_argument("--mode", choices=("same", "behaviour"), help="default same")
    args = parser.parse_args(argv)
    if args.ref is not None:
        return compare_trees(args.ref, args.study or "cc", args.mode or "same")
    if args.study or args.mode:
        parser.error("--study and --mode compare against --ref")
    import feature_rows
    import row_design

    worst = max(
        compare_lower_bound(),
        compare_rows("ac", run_ac, feature_rows.row_reference),
        compare_rows("cc", run_cc, row_design.row_reference),
    )
    print(f"largest |diff| / combined se: {worst:.2f} (bound {MAX_SE})")
    return 0 if worst <= MAX_SE else 1


if __name__ == "__main__":
    sys.exit(main())
