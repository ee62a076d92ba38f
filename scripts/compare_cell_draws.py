"""Compare two studies' draws with the draws they replaced, in distribution.

    python3 scripts/compare_cell_draws.py

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
the library's path, whose datasets draw only each row's logged action's
features, and once with `sample_dataset` replaced by the all-action sampler
kept in tests/test_env.py.  For every (n, method) it pools the regrets of all
seeds and trials and prints the same columns.

It exits 1 when any difference in either study exceeds MAX_SE combined
standard errors.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or tests/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import batchselect.experiments as experiments  # noqa: E402
from batchselect.env import derive_seed  # noqa: E402
from batchselect.experiments import aggregate_rows, parse_config, run_ac  # noqa: E402
from batchselect.hard_instance import ratio_experiment  # noqa: E402
from run import WORKLOADS  # noqa: E402
from test_env import all_action_dataset  # noqa: E402
from test_hard_instance import row_ratio_experiment  # noqa: E402

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


def compare_ac(threads: int = 2) -> float:
    """Largest |diff| / combined se over the ac (n, method) cells."""
    rows = {"all_action": [], "logged": []}
    for seed in SEEDS:
        config = parse_config({**WORKLOADS["ac"], "trials": TRIALS, "seed": seed})
        rows["logged"] += run_ac(config, threads=threads)[0]
        sample = experiments.sample_dataset
        experiments.sample_dataset = all_action_dataset
        try:
            rows["all_action"] += run_ac(config, threads=threads)[0]
        finally:
            experiments.sample_dataset = sample
    print(f"ac, {TRIALS} trials on seeds {SEEDS.start}-{SEEDS.stop - 1}")
    print("n     method    all_action_mean  logged_mean  diff      combined_se  diff/se")
    worst = 0.0
    ref, new = aggregate_rows(rows["all_action"]), aggregate_rows(rows["logged"])
    for (n, method, *a), (n2, method2, *b) in zip(ref, new, strict=True):
        assert (n, method) == (n2, method2)
        diff, se, z = zscore(a, b)
        worst = max(worst, z)
        print(f"{n:<5} {method:<9} {a[0]:<16.5f} {b[0]:<12.5f} {diff:<+9.5f} {se:<12.5f} {z:.2f}")
    return worst


def main() -> int:
    worst = max(compare_lower_bound(), compare_ac())
    print(f"largest |diff| / combined se: {worst:.2f} (bound {MAX_SE})")
    return 0 if worst <= MAX_SE else 1


if __name__ == "__main__":
    sys.exit(main())
