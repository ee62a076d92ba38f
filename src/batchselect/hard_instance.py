"""Single-state two-arm hard instance pair and the minimax ratio experiment.

Two nested classes over one state: phi_1 indicates arm 0, phi_2 is one-hot
over both arms.  The dataset has fixed covariates (n1 rows of arm 0, n2 of
arm 1) and unit Gaussian reward noise, and the two instances differ only in
the mean of arm 1.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .env import BanditInstance, Dataset, StateBatch, TabularModel, derive_seed, rng_stream
from .features import ModelClass, TabularMap, check_nested, design_matrix
from .diagnostics import fixed_design_theta_star
from .learner import Policy, fit_pessimistic
from .linalg import ridge_fit
from .selection import complexity_coverage_policy, holdout_select, slope_policy_select

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

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def fixed_actions(self) -> np.ndarray:
        return np.concatenate([np.zeros(self.n1, dtype=int), np.ones(self.n2, dtype=int)])


def build_hard_pair(n1: int, n2: int) -> HardInstancePair:
    """Construct the pair with gap Delta = 1/(2 sqrt(n2)) and verify the
    fixed-design parameters of both classes on both instances."""
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
    pair = HardInstancePair(delta_gap, n1, n2, (nu1, nu2), classes)

    actions = pair.fixed_actions()
    phi_full = table_2[0][actions]  # (n, 2)
    for inst, theta2_expect in ((nu1, (-delta_gap, -2.0 * delta_gap)), (nu2, (-delta_gap, 0.0))):
        f = inst.model.means[0][actions]
        theta1 = fixed_design_theta_star(phi_full[:, :1], f)
        theta2 = fixed_design_theta_star(phi_full, f)
        if abs(theta1[0] + delta_gap) > THETA_TOL:
            raise AssertionError(f"theta_1* = {theta1[0]!r}, expected {-delta_gap!r}")
        if np.max(np.abs(theta2 - np.array(theta2_expect))) > THETA_TOL:
            raise AssertionError(f"theta_2* = {theta2!r}, expected {theta2_expect!r}")
    return pair


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


def _cc_policy(dataset, classes, delta, lam, penalty_scale, seed) -> Policy:
    learners = [
        fit_pessimistic(dataset, mc, lam, delta / len(classes), penalty_scale)
        for mc in classes
    ]
    return complexity_coverage_policy(learners, classes, delta)[0]


def _slope_policy(dataset, classes, delta, lam, penalty_scale, seed) -> Policy:
    fits = [
        (ridge_fit(design_matrix(mc, dataset.states, dataset.actions), dataset.rewards, lam), mc)
        for mc in classes
    ]
    states = StateBatch(indices=[0])
    return slope_policy_select(fits, states, delta, penalty_scale)[0]


def _holdout_policy(dataset, classes, delta, lam, penalty_scale, seed) -> Policy:
    return holdout_select(dataset, classes, HOLDOUT_SPLIT, lam, seed)[0]


ALGORITHMS = {
    "cc": _cc_policy,
    "slope": _slope_policy,
    "holdout": _holdout_policy,
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
    """Mean regret of one algorithm on both instances over seeded reward draws.

    Covariates stay fixed; only rewards are resampled per trial.  The ratio
    divides the worse of the two mean regrets by the larger closed-form
    denominator.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    run = ALGORITHMS[algorithm]
    pair = build_hard_pair(n1, n2)
    actions = pair.fixed_actions()
    states = StateBatch(indices=np.zeros(pair.n, dtype=int))
    single = StateBatch(indices=[0])
    mean_regrets, se_regrets = [], []
    for i, inst in enumerate(pair.instances):
        means = inst.model.means[0][actions]
        best = inst.model.means[0].max()
        regrets = np.empty(trials)
        for t in range(trials):
            noise = rng_stream(rng_seed, f"lb-rewards-nu{i + 1}", t).standard_normal(pair.n)
            dataset = Dataset(states, actions, means + noise, true_means=means)
            trial_seed = derive_seed(rng_seed, f"lb-algo-nu{i + 1}", t)
            policy = run(dataset, list(pair.classes), delta, lam, penalty_scale, trial_seed)
            act = int(policy.actions(single)[0])
            regrets[t] = best - inst.model.means[0][act]
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


def ratio_results_to_csv(results: list[RatioResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "algorithm",
            "n1",
            "n2",
            "trials",
            "mean_regret_nu1",
            "mean_regret_nu2",
            "denominator",
            "ratio",
        ]
    )
    for r in results:
        writer.writerow(
            [
                r.algorithm,
                r.n1,
                r.n2,
                r.trials,
                repr(r.mean_regret_nu1),
                repr(r.mean_regret_nu2),
                repr(r.denominator),
                repr(r.ratio),
            ]
        )
    return buf.getvalue()
