"""Single-state two-arm hard instance pair and the minimax ratio experiment.

Two nested classes over one state: phi_1 indicates arm 0, phi_2 is one-hot
over both arms.  The logged data hold n1 rows of arm 0 and n2 of arm 1 with
Gaussian reward noise, and the two instances differ only in the mean of
arm 1.  Every fit reads the data only through each arm cell's row count and
mean reward, so each class enters as its 2 x d_k cell table with counts
(n1, n2), and a trial draws the cell statistics directly.  The draws are
exact in distribution, and a trial's work does not depend on n1 or n2.

Trial t on instance i draws from rng_stream(seed, "lb-cells-nu<i>", t), in
this order:
- cc and SLOPE: two standard normals z, one per arm; arm a's mean reward is
  mu_a + sigma z_a / sqrt(c_a).
- hold-out: the fit side's arm-0 count, Hypergeometric(n1, n2, n_in) with
  n_in from `holdout_split_sizes`, the arm-1 count being the rest; two
  standard normals for the fit side's cell means and two for the held-out
  side's, each mean drawn as above (an empty cell's mean is 0.0); then, if
  df = sum_a max(c_a - 1, 0) over the held-out cells is positive, one
  chi-square draw with df degrees of freedom, times sigma^2, for the held-out
  rows' squared deviations from their cell means.  A uniformly random
  permutation splits the rows with these counts, and given the counts the
  cell means and the deviations are independent.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .env import BanditInstance, Cells, StateBatch, TabularModel, rng_stream
from .features import ModelClass, TabularMap, check_nested
from .diagnostics import fixed_design_theta_star
from .learner import Policy
from .linalg import ridge_covariance, ridge_fit
from .selection import (
    complexity_coverage_policy,
    holdout_select,
    holdout_split_sizes,
    slope_policy_select,
)

THETA_TOL = 1e-10
# Fraction of the hard pair's rows that hold-out fits on.
HOLDOUT_SPLIT = 0.8
# numpy's hypergeometric draw takes fewer than 10**9 rows of each arm.
MAX_HOLDOUT_ROWS = 10**9
_STATE = StateBatch(indices=[0])  # the pair's one state


@dataclass(frozen=True)
class HardInstancePair:
    delta_gap: float
    n1: int
    n2: int
    instances: tuple[BanditInstance, BanditInstance]
    classes: tuple[ModelClass, ModelClass]
    tables: tuple[np.ndarray, np.ndarray]  # each class's (2, d_k) cell table, one row per arm

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def counts(self) -> np.ndarray:
        """Logged rows per arm cell."""
        return np.array([self.n1, self.n2])


def build_hard_pair(n1: int, n2: int) -> HardInstancePair:
    """Construct the pair with gap Delta = 1/(2 sqrt(n2)) and verify the
    fixed-design parameters of both classes on both instances.

    Least squares over the logged rows is least squares over the cell table
    with row a weighted by sqrt(c_a), so theta* is checked on that 2 x d_k
    system."""
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be positive")
    delta_gap = 1.0 / (2.0 * math.sqrt(n2))
    means_1 = np.array([[-delta_gap, -2.0 * delta_gap]])
    means_2 = np.array([[-delta_gap, 0.0]])
    nu1 = BanditInstance(2, TabularModel(np.array([1.0]), means_1), noise_scale=1.0)
    nu2 = BanditInstance(2, TabularModel(np.array([1.0]), means_2), noise_scale=1.0)
    table_2 = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # one-hot in 2 dims
    classes = (
        ModelClass(1, TabularMap(table_2[:, :, :1])),
        ModelClass(2, TabularMap(table_2)),
    )
    if not check_nested(list(classes)):
        raise AssertionError("hard-pair classes must be nested")
    tables = tuple(mc.map.table.reshape(-1, mc.dim) for mc in classes)
    weights = np.sqrt([n1, n2])
    phi_1, phi_2 = (weights[:, None] * table for table in tables)
    for inst, theta2_expect in ((nu1, (-delta_gap, -2.0 * delta_gap)), (nu2, (-delta_gap, 0.0))):
        f = weights * inst.model.means[0]
        theta1 = fixed_design_theta_star(phi_1, f)
        theta2 = fixed_design_theta_star(phi_2, f)
        if abs(theta1[0] + delta_gap) > THETA_TOL:
            raise AssertionError(f"theta_1* = {theta1[0]!r}, expected {-delta_gap!r}")
        if np.max(np.abs(theta2 - np.array(theta2_expect))) > THETA_TOL:
            raise AssertionError(f"theta_2* = {theta2!r}, expected {theta2_expect!r}")
    return HardInstancePair(delta_gap, n1, n2, (nu1, nu2), classes, tables)


def oracle_denominator(pair: HardInstancePair, which_instance: int) -> float:
    """min_k of the closed-form approximation + complexity-coverage terms.

    Instance 0 (arm-1 mean -2 Delta, pi* = arm 0):
        class 1: 2 Delta + 1/sqrt(n1),  class 2: sqrt(2/n1)
    Instance 1 (arm-1 mean 0, pi* = arm 1):
        class 1: 1/sqrt(n1),            class 2: sqrt(2/n2)
    """
    if which_instance not in (0, 1):
        raise ValueError("which_instance must be 0 or 1")
    n1, n2 = pair.n1, pair.n2
    if which_instance == 0:
        terms = (2.0 * pair.delta_gap + 1.0 / math.sqrt(n1), math.sqrt(2.0 / n1))
    else:
        terms = (1.0 / math.sqrt(n1), math.sqrt(2.0 / n2))
    return min(terms)


def _draw_means(rng: np.random.Generator, counts: np.ndarray, instance: BanditInstance):
    """Each arm cell's mean reward over its counts[a] rows; 0.0 for an empty cell."""
    noise = instance.noise_scale * rng.standard_normal(2) / np.sqrt(np.maximum(counts, 1))
    return np.where(counts > 0, instance.model.means[0] + noise, 0.0)


def _draw_arms(rng: np.random.Generator, pair: HardInstancePair, instance: BanditInstance):
    """Each arm cell's mean reward over all of the pair's rows."""
    return _draw_means(rng, pair.counts, instance)


def _draw_split(rng: np.random.Generator, pair: HardInstancePair, instance: BanditInstance):
    """Hold-out's (fit, held-out) cells of a shuffled prefix split of the rows."""
    n_in, _ = holdout_split_sizes(pair.n, HOLDOUT_SPLIT)
    arm_0 = int(rng.hypergeometric(pair.n1, pair.n2, n_in))
    counts_in = np.array([arm_0, n_in - arm_0])
    counts_out = pair.counts - counts_in
    means_in = _draw_means(rng, counts_in, instance)
    means_out = _draw_means(rng, counts_out, instance)
    df = int(np.maximum(counts_out - 1, 0).sum())
    within = instance.noise_scale**2 * float(rng.chisquare(df)) if df > 0 else 0.0
    return Cells(means_in, counts_in), Cells(means_out, counts_out, within)


# Each selector maps one trial's draw to a policy.  `covs` holds each class's
# ridge covariance at the pair's counts, built once per `ratio_experiment`
# call; hold-out, whose split changes every trial, does not read it.
def _fits(means, pair: HardInstancePair, covs, lam: float):
    return [ridge_fit(table, means, lam, cov, pair.counts) for table, cov in zip(pair.tables, covs)]


def _cc_select(means, pair, covs, delta, lam, penalty_scale) -> Policy:
    fits = _fits(means, pair, covs, lam)
    return complexity_coverage_policy(fits, list(pair.classes), delta, penalty_scale)[0]


def _slope_select(means, pair, covs, delta, lam, penalty_scale) -> Policy:
    fits = _fits(means, pair, covs, lam)
    return slope_policy_select(fits, list(pair.classes), _STATE, delta, penalty_scale)[0]


def _holdout_select(split, pair, covs, delta, lam, penalty_scale) -> Policy:
    fit_on, score_on = split
    return holdout_select(list(pair.tables), fit_on, score_on, list(pair.classes), lam)[0]


# Each algorithm's (draw, select): the draw takes one trial's statistics from
# the trial's generator, in the order of the module docstring.
ALGORITHMS = {
    "cc": (_draw_arms, _cc_select),
    "slope": (_draw_arms, _slope_select),
    "holdout": (_draw_split, _holdout_select),
}


@dataclass(frozen=True)
class RatioResult:
    algorithm: str
    n1: int
    n2: int
    trials: int
    mean_regret_nu1: float
    mean_regret_nu2: float
    denominator: float
    ratio: float
    se_regret_nu1: float = 0.0
    se_regret_nu2: float = 0.0

    @property
    def max_mean_regret(self) -> float:
        return max(self.mean_regret_nu1, self.mean_regret_nu2)

    @property
    def max_se(self) -> float:
        if self.mean_regret_nu1 >= self.mean_regret_nu2:
            return self.se_regret_nu1
        return self.se_regret_nu2


def ratio_experiment(
    algorithm: str,
    n1: int,
    n2: int,
    trials: int,
    rng_seed: int,
    delta: float = 0.05,
    lam: float = 1.0,
    penalty_scale: float = 1.0,
) -> RatioResult:
    """Mean regret of one algorithm on both instances over seeded trials.

    Each trial draws the per-arm cell statistics of n1 rows of arm 0 and n2
    of arm 1 (see the module docstring), so its cost does not depend on n1 or
    n2; cc and SLOPE fit them on ridge covariances built once per call.  The
    ratio divides the worse of the two mean regrets by the larger closed-form
    denominator.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    draw, select = ALGORITHMS[algorithm]
    pair = build_hard_pair(n1, n2)
    covs = [ridge_covariance(table, lam, pair.counts) for table in pair.tables]
    mean_regrets, se_regrets = [], []
    for i, inst in enumerate(pair.instances):
        arm_means = inst.model.means[0]
        regrets = np.empty(trials)
        for t in range(trials):
            rng = rng_stream(rng_seed, f"lb-cells-nu{i + 1}", t)
            policy = select(draw(rng, pair, inst), pair, covs, delta, lam, penalty_scale)
            regrets[t] = arm_means.max() - arm_means[int(policy.actions(_STATE)[0])]
        mean_regrets.append(float(regrets.mean()))
        se_regrets.append(float(regrets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0)
    denominator = max(oracle_denominator(pair, 0), oracle_denominator(pair, 1))
    return RatioResult(
        algorithm=algorithm,
        n1=n1,
        n2=n2,
        trials=trials,
        mean_regret_nu1=mean_regrets[0],
        mean_regret_nu2=mean_regrets[1],
        denominator=denominator,
        ratio=max(mean_regrets) / denominator,
        se_regret_nu1=se_regrets[0],
        se_regret_nu2=se_regrets[1],
    )


def csv_text(header, rows) -> str:
    """A header line and one line per row, as the studies' CSV files hold them;
    a float is written by its repr, so it reads back to the same value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


RATIO_COLUMNS = ("algorithm", "n1", "n2", "trials", "mean_regret_nu1", "mean_regret_nu2",
                 "denominator", "ratio")


def ratio_results_to_csv(results: list[RatioResult]) -> str:
    return csv_text(RATIO_COLUMNS, [[getattr(r, c) for c in RATIO_COLUMNS] for r in results])
