import numpy as np
import pytest

from batchselect.env import BanditInstance, StateBatch, TabularModel, make_tabular_instance
from batchselect.diagnostics import fixed_design_theta_star, regret_estimate
from policies import FixedPolicy, OptimalPolicy


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


class TestRegretEstimate:
    def test_identical_policies(self):
        # a policy that takes pi*'s actions has no regret
        inst = make_tabular_instance(4, 3, 0)
        states = StateBatch(indices=np.arange(4))
        means = inst.mean_rewards(states)
        pi = FixedPolicy(table=np.argmax(inst.model.means, axis=1))
        assert regret_estimate(means, pi.actions(states)) == 0.0
        assert regret_estimate(means, OptimalPolicy(inst).actions(states)) == 0.0

    def test_optimal_comparator_nonnegative(self):
        inst = make_tabular_instance(6, 4, 1)
        states = StateBatch(indices=np.arange(6))
        means = inst.mean_rewards(states)
        for action in range(4):
            assert regret_estimate(means, FixedPolicy(action=action).actions(states)) >= 0.0

    def test_hand_instance(self):
        means = np.array([[1.0, 0.0], [0.0, 2.0]])
        inst = BanditInstance(2, TabularModel(np.array([0.5, 0.5]), means), 1.0)
        states = StateBatch(indices=np.array([0, 1, 1]))
        got = regret_estimate(inst.mean_rewards(states), FixedPolicy(action=1).actions(states))
        assert got == pytest.approx((1.0 - 0.0 + 0.0 + 0.0) / 3)

    def test_antisymmetry(self):
        # the gap between two policies' regrets is their mean value gap, either way round
        inst = make_tabular_instance(5, 3, 2)
        states = StateBatch(indices=np.arange(5))
        means = inst.mean_rewards(states)
        a, b = FixedPolicy(action=0), FixedPolicy(action=2)
        gap = float(np.mean(means[:, 0] - means[:, 2]))
        regret_a = regret_estimate(means, a.actions(states))
        regret_b = regret_estimate(means, b.actions(states))
        assert regret_b - regret_a == pytest.approx(gap)
        assert regret_a - regret_b == pytest.approx(-gap)

    @pytest.mark.parametrize("shape", [(4, 3), (6,), (5, 3, 1)], ids=["short", "flat", "3d"])
    def test_mean_table_must_match_states(self, shape):
        states = StateBatch(indices=np.arange(5))
        with pytest.raises(ValueError, match="mean table"):
            regret_estimate(np.zeros(shape), FixedPolicy(action=0).actions(states))
