import dataclasses
import math

import numpy as np
import pytest

from batchselect import features, hard_instance, learner, linalg
from batchselect.env import Dataset, StateBatch
from batchselect.features import check_nested, design_matrix
from batchselect.hard_instance import (
    ALGORITHMS,
    HOLDOUT_SPLIT,
    build_hard_pair,
    oracle_denominator,
    ratio_experiment,
    ratio_results_to_csv,
)
from batchselect.learner import fit_pessimistic
from batchselect.linalg import inv_quad_norms, ridge_fit
from batchselect.selection import complexity_coverage_policy, holdout_select, slope_policy_select
from policies import FixedPolicy


class TestBuildHardPair:
    def test_gap_and_means(self):
        pair = build_hard_pair(10, 4)
        assert pair.delta_gap == pytest.approx(0.25)
        assert pair.instances[0].model.means[0] == pytest.approx([-0.25, -0.5])
        assert pair.instances[1].model.means[0] == pytest.approx([-0.25, 0.0])

    def test_classes_nested(self):
        pair = build_hard_pair(3, 3)
        assert check_nested(list(pair.classes))

    def test_theta_star_recomputed(self):
        # construction verifies theta_1* = -Delta and theta_2* per instance;
        # cross-check here via explicit pseudo-inverse at several sizes
        rng = np.random.default_rng(0)
        for _ in range(10):
            n1, n2 = int(rng.integers(1, 50)), int(rng.integers(1, 50))
            pair = build_hard_pair(n1, n2)
            actions = pair.fixed_actions()
            phi = np.eye(2)[actions]
            for inst, expect in (
                (pair.instances[0], [-pair.delta_gap, -2 * pair.delta_gap]),
                (pair.instances[1], [-pair.delta_gap, 0.0]),
            ):
                f = inst.model.means[0][actions]
                theta2 = np.linalg.pinv(phi) @ f
                assert np.max(np.abs(theta2 - expect)) <= 1e-10
                theta1 = np.linalg.pinv(phi[:, :1]) @ f
                assert abs(theta1[0] + pair.delta_gap) <= 1e-10

    def test_delta_scaling(self):
        a = build_hard_pair(4, 8).delta_gap
        b = build_hard_pair(4, 16).delta_gap
        assert b == pytest.approx(a / math.sqrt(2), rel=1e-15)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            build_hard_pair(0, 4)

    def test_hard_pair_arm_one_norm_bound(self):
        # n1 samples of arm 0: |phi_1(a_0)|_{V^{-1}} <= sqrt(n/n1)
        pair = build_hard_pair(n1=8, n2=24)
        actions = pair.fixed_actions()
        states = StateBatch(indices=np.zeros(pair.n, dtype=int))
        mc1 = pair.classes[0]
        phi = design_matrix(mc1, states, actions)
        means = pair.instances[0].model.means[0][actions]
        fit = ridge_fit(phi, means, lam=1e-12)
        arm_zero = design_matrix(mc1, StateBatch(indices=[0]), np.array([0]))
        assert inv_quad_norms(fit.cov, arm_zero)[0] <= math.sqrt(pair.n / pair.n1) + 1e-9


class TestOracleDenominator:
    def test_nu2_class_one_term(self):
        pair = build_hard_pair(n1=100, n2=4)
        # class-1 term 1/sqrt(n1) is the minimum here
        assert oracle_denominator(pair, 1) == pytest.approx(1 / math.sqrt(100))

    def test_nu1_class_two_term(self):
        pair = build_hard_pair(n1=10_000, n2=4)
        # class-2 term sqrt(2/n1) beats 2*Delta + 1/sqrt(n1)
        assert oracle_denominator(pair, 0) == pytest.approx(math.sqrt(2 / 10_000))

    def test_balanced_bound(self):
        for n in (4, 16, 64):
            pair = build_hard_pair(n, n)
            for which in (0, 1):
                assert oracle_denominator(pair, which) <= 2 / math.sqrt(n) + 1e-12

    def test_bad_instance_index(self):
        with pytest.raises(ValueError):
            oracle_denominator(build_hard_pair(2, 2), 2)

    def test_hard_pair_nu2_bound(self):
        pair = build_hard_pair(n1=100, n2=25)
        # closed-form terms from the construction: min(1/sqrt(n1), sqrt(2/n2))
        assert oracle_denominator(pair, 1) <= 2 / math.sqrt(pair.n1) + math.sqrt(2 / pair.n2)


class TestRatioExperiment:
    def test_fixed_arm_zero_algorithm(self):
        # always playing arm 0 in nu_2 (means (-Delta, 0)) loses the exact
        # deterministic gap Delta per round, with zero variance
        ALGORITHMS["const0"] = lambda *args: FixedPolicy(action=0)
        try:
            result = ratio_experiment("const0", 8, 4, trials=5, rng_seed=0)
        finally:
            del ALGORITHMS["const0"]
        assert result.mean_regret_nu2 == pytest.approx(0.25)
        assert result.se_regret_nu2 == 0.0
        assert result.mean_regret_nu1 == 0.0

    def test_ratio_positive_for_real_algorithms(self):
        for algo in ("cc", "slope", "holdout"):
            result = ratio_experiment(algo, 16, 16, trials=10, rng_seed=1)
            assert result.ratio >= 0.0
            assert result.denominator > 0.0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ratio_experiment("nope", 4, 4, 1, 0)

    def test_deterministic(self):
        a = ratio_experiment("holdout", 16, 16, trials=10, rng_seed=3)
        b = ratio_experiment("holdout", 16, 16, trials=10, rng_seed=3)
        assert a == b


def test_ratio_csv_schema():
    result = ratio_experiment("cc", 8, 8, trials=3, rng_seed=0)
    text = ratio_results_to_csv([result])
    lines = text.strip().split("\n")
    assert lines[0] == "algorithm,n1,n2,trials,mean_regret_nu1,mean_regret_nu2,denominator,ratio"
    assert len(lines) == 2
    assert lines[1].startswith("cc,8,8,3,")


# The per-trial adapters that rebuild every design and covariance from the
# trial's dataset: the reference for the fixed-design cells.
def _per_trial_cc(dataset, classes, delta, lam, penalty_scale, seed):
    learners = [
        fit_pessimistic(dataset, mc, lam, delta / len(classes), penalty_scale) for mc in classes
    ]
    return complexity_coverage_policy(learners, classes, delta)[0]


def _per_trial_slope(dataset, classes, delta, lam, penalty_scale, seed):
    fits = [
        (ridge_fit(design_matrix(mc, dataset.states, dataset.actions), dataset.rewards, lam), mc)
        for mc in classes
    ]
    return slope_policy_select(fits, StateBatch(indices=[0]), delta, penalty_scale)[0]


def _per_trial_holdout(dataset, classes, delta, lam, penalty_scale, seed):
    designs = [design_matrix(mc, dataset.states, dataset.actions) for mc in classes]
    return holdout_select(designs, dataset.rewards, classes, HOLDOUT_SPLIT, lam, seed)[0]


PER_TRIAL = {"cc": _per_trial_cc, "slope": _per_trial_slope, "holdout": _per_trial_holdout}


@pytest.mark.parametrize("algorithm", sorted(PER_TRIAL))
@pytest.mark.parametrize("n1, n2", [(16, 16), (1024, 16)])
@pytest.mark.parametrize("seed", [0, 1])
def test_fixed_design_cells_equal_per_trial_fits(monkeypatch, algorithm, n1, n2, seed):
    reference = PER_TRIAL[algorithm]
    pair = build_hard_pair(n1, n2)
    states, actions = StateBatch(indices=np.zeros(pair.n, dtype=int)), pair.fixed_actions()

    def per_trial(rewards, designs, classes, *args):
        # drop the cell's designs and rebuild the trial's dataset instead
        return reference(Dataset(states, actions, rewards), classes, *args)

    monkeypatch.setitem(ALGORITHMS, "per_trial", per_trial)
    kwargs = dict(trials=5, rng_seed=seed, penalty_scale=0.5)
    want = ratio_experiment("per_trial", n1, n2, **kwargs)
    got = ratio_experiment(algorithm, n1, n2, **kwargs)
    assert got == dataclasses.replace(want, algorithm=algorithm)


def _count_builds(monkeypatch):
    """Count CovarianceMatrix constructions, and design_matrix calls at each alias that
    a ratio_experiment call reaches."""
    counts = {"cov": 0, "design": 0, "design_in_hard_instance": 0}
    init = linalg.CovarianceMatrix.__init__

    def counting_init(self, *args, **kwargs):
        counts["cov"] += 1
        init(self, *args, **kwargs)

    def counting(key):
        def design(*args, **kwargs):
            counts[key] += 1
            return features.design_matrix(*args, **kwargs)

        return design

    monkeypatch.setattr(linalg.CovarianceMatrix, "__init__", counting_init)
    monkeypatch.setattr(learner, "design_matrix", counting("design"))
    monkeypatch.setattr(hard_instance, "design_matrix", counting("design_in_hard_instance"))
    return counts


# CovarianceMatrix builds per cell of 5 trials on each of 2 instances with 2
# classes: one per class up front; hold-out also fits each trial's split, 20 in all
COVARIANCE_BUILDS = {"cc": 2, "slope": 2, "holdout": 2 + 20}


@pytest.mark.parametrize("algorithm", ["cc", "slope", "holdout"])
def test_fixed_design_cell_builds_each_class_once(monkeypatch, algorithm):
    # 20 design builds if rebuilt per trial; hold-out's split changes every
    # trial, but it gathers both sides of the split from the pair's designs
    counts = _count_builds(monkeypatch)
    ratio_experiment(algorithm, 64, 16, trials=5, rng_seed=0)
    assert counts == {
        "cov": COVARIANCE_BUILDS[algorithm], "design": 0, "design_in_hard_instance": 2
    }
