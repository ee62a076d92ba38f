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
  mu_a + sigma z_a / sqrt(c_a) (`env.cell_means`).
- hold-out: the fit side's arm-0 count, Hypergeometric(n1, n2, n_in) with
  n_in from `holdout_split_sizes`, the arm-1 count being the rest; two
  standard normals for the fit side's cell means and two for the held-out
  side's, each mean drawn as above (an empty cell's mean is 0.0); then, if
  df = sum_a max(c_a - 1, 0) over the held-out cells is positive, one
  chi-square draw with df degrees of freedom, times sigma^2, for the held-out
  rows' squared deviations from their cell means.  A uniformly random
  permutation splits the rows with these counts, and given the counts the
  cell means and the deviations are independent.

A `ratio_experiment` call draws all of its trials, instance 1's then
instance 2's, into arrays with one column per trial, and selects for all of
them at once.  The selection rules take the stacked trials as they take one
dataset (one column), so every trial gets the choice a per-dataset call
would give it:
- cc and SLOPE fit class 2 once, on a (2, T) reward matrix at the pair's
  fixed counts, read class 1's fit off it as its leading block, and form
  their widths once, since the widths read only the covariance and n;
- hold-out's fit side has one covariance per arm-0 count, so its trials
  are fit in groups of equal counts, at most n2 + 1 of them, class 2 once
  per group and class 1 as its leading block.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .env import BanditInstance, Cells, StateBatch, TabularModel, cell_means, rng_stream
from .features import ModelClass, TabularMap, check_nested
from .diagnostics import fixed_design_theta_star
from .learner import check_penalty_scale, check_width_arguments
from .linalg import ridge_fit
from .selection import (
    complexity_coverage_policy,
    holdout_choice,
    holdout_split_sizes,
    slope_choice,
    slope_terms,
)

THETA_TOL = 1e-10
# Fraction of the hard pair's rows that hold-out fits on.
HOLDOUT_SPLIT = 0.8


@dataclass(frozen=True)
class HardInstancePair:
    delta_gap: float
    n1: int
    n2: int
    instances: tuple[BanditInstance, BanditInstance]
    classes: tuple[ModelClass, ModelClass]
    tables: tuple[np.ndarray, np.ndarray]  # each class's (2, d_k) cell table, one row per arm
    state: StateBatch  # the pair's one state, whose actions are the arms

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
    return HardInstancePair(delta_gap, n1, n2, (nu1, nu2), classes, tables, StateBatch(indices=[0]))


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


# A call's trials are instance 1's `trials` then instance 2's, as columns;
# each generator is made when its trial is drawn and dropped after it.
def _trial_rngs(rng_seed: int, trials: int):
    return (rng_stream(rng_seed, f"lb-cells-nu{i + 1}", t) for i in (0, 1) for t in range(trials))


def _trial_params(pair: HardInstancePair, trials: int):
    """Each trial's arm means, shape (2, 2 trials), and noise scale."""
    means = np.repeat(np.stack([inst.model.means[0] for inst in pair.instances], axis=1), trials, 1)
    return means, np.repeat([inst.noise_scale for inst in pair.instances], trials)


def _draw_arms(pair: HardInstancePair, rng_seed: int, trials: int) -> np.ndarray:
    """Each trial's arm cell means over all of the pair's rows, shape (2, 2 trials)."""
    z = np.empty((2, 2 * trials))
    for j, rng in enumerate(_trial_rngs(rng_seed, trials)):
        z[:, j] = rng.standard_normal(2)
    return cell_means(z, pair.counts[:, None], *_trial_params(pair, trials))


def _draw_split(pair: HardInstancePair, rng_seed: int, trials: int) -> tuple[Cells, Cells]:
    """Hold-out's (fit, held-out) cells of each trial's shuffled prefix split
    of the rows, stacked as columns."""
    n_in, _ = holdout_split_sizes(pair.n, HOLDOUT_SPLIT)
    arm_0 = np.empty(2 * trials, dtype=int)
    z = np.empty((4, 2 * trials))
    chi = np.zeros(2 * trials)
    for j, rng in enumerate(_trial_rngs(rng_seed, trials)):
        arm_0[j] = rng.hypergeometric(pair.n1, pair.n2, n_in)
        z[:, j] = rng.standard_normal(4)  # the fit side's two, then the held-out side's
        df = max(pair.n1 - arm_0[j] - 1, 0) + max(pair.n2 - n_in + arm_0[j] - 1, 0)
        if df > 0:
            chi[j] = rng.chisquare(df)
    counts_in = np.stack([arm_0, n_in - arm_0])
    counts_out = pair.counts[:, None] - counts_in
    means, sigma = _trial_params(pair, trials)
    fit_on = Cells(cell_means(z[:2], counts_in, means, sigma), counts_in)
    score_on = Cells(cell_means(z[2:], counts_out, means, sigma), counts_out, sigma**2 * chi)
    return fit_on, score_on


# Each selector maps a call's stacked draws to every trial's action, shape (2 trials,).
def _fits(means: np.ndarray, pair: HardInstancePair, lam: float):
    """Each class fit on every trial at once, at the pair's counts: class 2
    fit, class 1 its leading block."""
    family = ridge_fit(pair.tables[-1], means, lam, pair.counts)
    return [family.leading(mc.dim) for mc in pair.classes]


def _cc_select(means, pair, delta, lam, penalty_scale):
    fits = _fits(means, pair, lam)
    policy = complexity_coverage_policy(fits, list(pair.classes), delta, penalty_scale)[0]
    return policy.actions(pair.state)[0]


def _slope_select(means, pair, delta, lam, penalty_scale):
    fits, classes = _fits(means, pair, lam), list(pair.classes)
    terms = slope_terms(fits, classes, pair.state)
    chosen, _ = slope_choice(fits, classes, terms, delta, penalty_scale)
    return terms.actions[chosen, 0, np.arange(chosen.size)]


def _holdout_select(split, pair, delta, lam, penalty_scale):
    """Hold-out on each trial's split; the trials of one fit-side arm-0 count
    share a covariance, so class 2 is fit once per count and class 1 is its
    leading block."""
    fit_on, score_on = split
    n_in, _ = holdout_split_sizes(pair.n, HOLDOUT_SPLIT)
    arm_0, group = np.unique(fit_on.counts[0], return_inverse=True)
    # each class's predicted arm means, which are its greedy values at the one state
    values = np.empty((len(pair.classes), 2, group.size))
    for g, a in enumerate(arm_0):
        cols = group == g
        family = ridge_fit(pair.tables[-1], fit_on.means[:, cols], lam, [a, n_in - a])
        for k, (mc, table) in enumerate(zip(pair.classes, pair.tables)):
            values[k][:, cols] = family.leading(mc.dim).predictions(table)
    chosen = holdout_choice(np.stack([score_on.mean_squared_error(v) for v in values]))
    trials = np.arange(group.size)
    return np.argmax(values[chosen, :, trials], axis=1)


# Each algorithm's (draw, select): the draw takes every trial's statistics
# from the trial's generator, in the order of the module docstring.
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
    n2.  All 2 x `trials` trials are selected as one batch, each with the
    action a per-dataset selection on its own draw would take.  delta, lam
    and penalty_scale are checked for every algorithm before the first draw.
    The ratio divides the worse of the two mean regrets by the larger
    closed-form denominator.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    draw, select = ALGORITHMS[algorithm]
    pair = build_hard_pair(n1, n2)
    check_width_arguments(pair.n, pair.classes[-1].dim, lam, delta)
    check_penalty_scale(penalty_scale)
    actions = select(draw(pair, rng_seed, trials), pair, delta, lam, penalty_scale)
    arm_means, _ = _trial_params(pair, trials)
    columns = np.arange(2 * trials)
    regrets = (arm_means.max(axis=0) - arm_means[actions, columns]).reshape(2, trials)
    mean_regrets = [float(r.mean()) for r in regrets]
    se_regrets = [float(r.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0 for r in regrets]
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
