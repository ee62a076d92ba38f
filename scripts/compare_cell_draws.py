"""Compare the lower_bound study's per-cell draws with the row draws they replaced.

    python3 scripts/compare_cell_draws.py

Runs the benchmark's lower_bound config (`WORKLOADS` in perfbench/run.py) at
TRIALS trials per cell on each of SEEDS, once on the library's
path, which draws each trial's per-arm counts and mean rewards directly, and
once on the row-level reference kept in tests/test_hard_instance.py, which
draws all n1 + n2 reward rows and splits hold-out's rows by a permutation.
Each (algorithm, n1) cell is seeded as `run_lower_bound` seeds it.  For every
(algorithm, n1, instance) it pools the seeds and prints both mean regrets,
their difference and the combined standard error sqrt(se_row^2 + se_cell^2).
It exits 1 when any difference exceeds 3 combined standard errors.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or tests/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from batchselect.env import derive_seed  # noqa: E402
from batchselect.experiments import parse_config  # noqa: E402
from batchselect.hard_instance import ratio_experiment  # noqa: E402
from run import WORKLOADS  # noqa: E402
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


def main() -> int:
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
            pairs = zip(runs["row"], runs["cell"])
            for i, ((row_mean, row_se), (cell_mean, cell_se)) in enumerate(pairs):
                diff, se = cell_mean - row_mean, math.hypot(row_se, cell_se)
                z = abs(diff) / se if se > 0 else (0.0 if diff == 0 else math.inf)
                worst = max(worst, z)
                print(f"{algo:<10} {n1:<6} nu{i + 1:<7} {row_mean:<9.5f} {cell_mean:<10.5f} "
                      f"{diff:<+9.5f} {se:<12.5f} {z:.2f}")
    print(f"largest |diff| / combined se: {worst:.2f} (bound {MAX_SE})")
    return 0 if worst <= MAX_SE else 1


if __name__ == "__main__":
    sys.exit(main())
