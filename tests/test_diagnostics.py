import numpy as np
import pytest

from batchselect.env import BanditInstance, StateBatch, TabularModel, make_tabular_instance
from batchselect.learner import OptimalPolicy
from batchselect.diagnostics import (
    GroundTruthUnavailableError,
    fixed_design_theta_star,
    regret_estimate,
)
from policies import FixedPolicy


class TestFixedDesignThetaStar:
    def test_realizable_interpolation(self):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((40, 5))
        theta_true = rng.standard_normal(5)
        theta = fixed_design_theta_star(phi, phi @ theta_true)
        assert np.max(np.abs(phi @ theta - phi @ theta_true)) <= 1e-8

    def test_rank_deficient_minimum_norm(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((30, 2))
        phi = np.hstack([base, base @ rng.standard_normal((2, 2))])  # rank 2 in d=4
        f = rng.standard_normal(30)
        theta = fixed_design_theta_star(phi, f)
        expected = np.linalg.pinv(phi, rcond=1e-10) @ f
        assert theta == pytest.approx(expected, abs=1e-10)

    def test_sample_mean_case(self):
        theta = fixed_design_theta_star(np.ones((2, 1)), np.array([1.0, 3.0]))
        assert theta == pytest.approx([2.0])

    def test_missing_ground_truth(self):
        with pytest.raises(GroundTruthUnavailableError):
            fixed_design_theta_star(np.ones((2, 1)), None)


class TestRegretEstimate:
    def test_identical_policies(self):
        inst = make_tabular_instance(4, 3, 0)
        states = StateBatch(indices=np.arange(4))
        pi = FixedPolicy(action=1)
        assert regret_estimate(inst, pi, pi, states) == 0.0

    def test_optimal_comparator_nonnegative(self):
        inst = make_tabular_instance(6, 4, 1)
        states = StateBatch(indices=np.arange(6))
        optimal = OptimalPolicy(inst)
        assert regret_estimate(inst, optimal, FixedPolicy(action=2), states) >= 0.0

    def test_hand_instance(self):
        means = np.array([[1.0, 0.0], [0.0, 2.0]])
        inst = BanditInstance(2, TabularModel(np.array([0.5, 0.5]), means), 1.0)
        states = StateBatch(indices=np.array([0, 1]))
        got = regret_estimate(inst, FixedPolicy(action=0), FixedPolicy(action=1), states)
        assert got == pytest.approx((1.0 - 0.0 + 0.0 - 2.0) / 2)

    def test_antisymmetry(self):
        inst = make_tabular_instance(5, 3, 2)
        states = StateBatch(indices=np.arange(5))
        a, b = FixedPolicy(action=0), FixedPolicy(action=2)
        assert regret_estimate(inst, a, b, states) == -regret_estimate(inst, b, a, states)
