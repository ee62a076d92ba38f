import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchselect.env import (
    Cells,
    StateBatch,
    dirichlet_behavior,
    make_tabular_instance,
    sample_dataset,
    sample_states,
)
from batchselect.features import (
    ModelClass,
    TabularMap,
    features_all_actions,
    realizable_family,
)
from batchselect.learner import (
    PessimisticPolicy,
    beta_coefficient,
    fit_pessimistic,
    pessimistic_values,
)
from batchselect.diagnostics import regret_estimate
from batchselect.linalg import CovarianceMatrix, RidgeFit, inv_quad_norms
from policies import FixedPolicy, OptimalPolicy
from row_design import TabularRows, binned_cells, row_design_fit


class TestBetaCoefficient:
    def test_hand_value_unit(self):
        # lam=0, d=1, n=25, delta=1/e: sqrt((5+10+10)/25) = 1
        assert beta_coefficient(25, 1, 0.0, 1 / math.e) == pytest.approx(1.0)

    def test_hand_value_general(self):
        expected = math.sqrt(0.05) + math.sqrt((25 + 10 * math.sqrt(5) + 10) / 100)
        assert beta_coefficient(100, 5, 1.0, 1 / math.e) == pytest.approx(expected, abs=1e-4)
        assert expected == pytest.approx(0.98098, abs=1e-4)

    def test_quadruple_n_halves(self):
        b1 = beta_coefficient(50, 3, 0.0, 0.05)
        b4 = beta_coefficient(200, 3, 0.0, 0.05)
        assert b4 == pytest.approx(b1 / 2, rel=1e-12)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            beta_coefficient(10, 1, 1.0, 0.5)  # > 1/e
        with pytest.raises(ValueError):
            beta_coefficient(10, 1, 1.0, 0.0)

    def test_floor_invariant(self):
        for n, d, lam in [(10, 2, 1.0), (500, 7, 3.0)]:
            assert beta_coefficient(n, d, lam, 0.05) >= math.sqrt(lam * d / n)


def _one_dim_fit(v, theta):
    cov = CovarianceMatrix(np.array([[v]]))
    return RidgeFit(np.array([theta]), cov, n=1, lam=0.0)


def _one_value(fit, model_class, x, a, penalty):
    """pessimistic_values of the one-state batch [x] at action a."""
    return float(pessimistic_values(fit, model_class, StateBatch(indices=[x]), penalty)[0, a])


class TestPessimisticValue:
    def test_zero_feature(self):
        mc = ModelClass(1, TabularMap(np.zeros((1, 1, 1))))
        assert _one_value(_one_dim_fit(2.0, 1.0), mc, 0, 0, 0.5) == 0.0

    def test_zero_beta_is_plain_prediction(self):
        mc = ModelClass(1, TabularMap(np.array([[[3.0]]])))
        assert _one_value(_one_dim_fit(2.0, 1.5), mc, 0, 0, 0.0) == pytest.approx(4.5)

    def test_hand_value(self):
        # V=[2], theta=1, phi=1, penalty=0.5: 1 - 0.5/sqrt(2)
        mc = ModelClass(1, TabularMap(np.array([[[1.0]]])))
        got = _one_value(_one_dim_fit(2.0, 1.0), mc, 0, 0, 0.5)
        assert got == pytest.approx(1 - 0.5 / math.sqrt(2), abs=1e-12)
        assert got == pytest.approx(0.64645, abs=1e-5)

    def test_never_exceeds_plain_prediction(self):
        rng = np.random.default_rng(0)
        table = rng.standard_normal((3, 4, 2))
        mc = ModelClass(2, TabularMap(table))
        cov = CovarianceMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
        fit = RidgeFit(rng.standard_normal(2), cov, 10, 1.0)
        states = StateBatch(indices=np.arange(3))
        pess = pessimistic_values(fit, mc, states, 0.7)
        plain = table @ fit.theta_hat
        assert np.all(pess <= plain + 1e-12)


def _row_wise_values(fit, model_class, states, penalty):
    """Reference: evaluate every (state, action) row of the batch."""
    phi = features_all_actions(model_class, states)
    m, n_act, d = phi.shape
    flat = phi.reshape(-1, d)
    widths = inv_quad_norms(fit.cov, flat)
    plain = flat @ fit.theta_hat
    return (plain - penalty * widths).reshape(m, n_act)


class TestTableGather:
    @settings(max_examples=60, deadline=None)
    @given(
        n_states=st.integers(1, 6),
        n_actions=st.integers(2, 5),
        n=st.integers(3, 60),
        scale=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_matches_row_wise(self, n_states, n_actions, n, scale, seed, data):
        inst = make_tabular_instance(n_states, n_actions, seed)
        ambient = n_states * n_actions
        classes = realizable_family(inst, sorted({1, min(3, ambient), ambient}), seed)
        dataset = sample_dataset(inst, dirichlet_behavior(n_actions, seed), n, seed + 1)
        picked = data.draw(st.lists(st.integers(0, n_states - 1), min_size=1, max_size=40))
        batches = [
            StateBatch(indices=picked),  # repeats and missing cells
            StateBatch(indices=np.arange(n_states)),  # every cell
            StateBatch(indices=np.arange(n_states)[::-1].repeat(3)),
        ]
        for mc in classes:
            policy = fit_pessimistic(dataset, mc, 1.0, 0.05, scale)
            fit, penalty = policy.fits[0], policy.penalty_scale * policy.betas[0]
            for states in batches:
                got = pessimistic_values(fit, mc, states, penalty)
                ref = _row_wise_values(fit, mc, states, penalty)
                assert got.shape == ref.shape
                tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=tol)
                assert np.array_equal(np.argmax(got, axis=1), np.argmax(ref, axis=1))

    def test_out_of_range_state_rejected(self):
        mc = ModelClass(1, TabularMap(np.ones((2, 3, 1))))
        with pytest.raises(ValueError, match="state index"):
            pessimistic_values(_one_dim_fit(1.0, 1.0), mc, StateBatch(indices=[0, 2]), 0.1)


class TestCellFit:
    @settings(max_examples=150, deadline=None)
    @given(
        n_states=st.integers(1, 6),
        n_actions=st.integers(1, 5),
        d=st.integers(1, 8),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        prefix=st.booleans(),
    )
    def test_matches_row_design(self, n_states, n_actions, d, n, seed, prefix):
        # the fit on a tabular dataset's cells, many of them empty at these
        # sizes, against ridge_fit on its n-row design
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((n_states, n_actions, d + 1))
        # a nested class's table is a non-contiguous prefix view
        mc = ModelClass(d, TabularMap(table[:, :, :d] if prefix else table[:, :, 1:].copy()))
        states = StateBatch(indices=rng.integers(n_states, size=n))
        rows = TabularRows(states, rng.integers(n_actions, size=n), rng.standard_normal(n))
        policy = fit_pessimistic(binned_cells(rows, n_states, n_actions), mc, 1.0, 0.05, 0.5)
        ref = row_design_fit(rows, mc, 1.0)
        got = policy.fits[0]
        assert got.n == ref.n == n
        for a, b in ((got.theta_hat, ref.theta_hat), (got.cov.entries, ref.cov.entries)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(b))))
        every_state = StateBatch(indices=np.arange(n_states))
        same = PessimisticPolicy([ref], [mc], 0.05, 0.5)
        assert same.betas == policy.betas
        assert np.array_equal(policy.actions(every_state), same.actions(every_state))


def _hand_value(policy, phi):
    """phi theta - s * beta * |phi|_{V^{-1}} of a one-class policy, with an explicit inverse."""
    fit = policy.fits[0]
    width = math.sqrt(phi @ np.linalg.inv(fit.cov.entries) @ phi)
    return float(phi @ fit.theta_hat) - policy.penalty_scale * policy.betas[0] * width


def _one_action(policy, x):
    return int(policy.actions(StateBatch(indices=[x]))[0])


class TestExtractPessimisticPolicy:
    def test_single_action(self):
        mc = ModelClass(1, TabularMap(np.ones((2, 1, 1))))
        policy = PessimisticPolicy([_one_dim_fit(1.0, 1.0)], [mc], 0.05, 1.0)
        assert _one_action(policy, 1) == 0

    def test_all_equal_ties_to_lowest(self):
        mc = ModelClass(1, TabularMap(np.ones((1, 3, 1))))
        policy = PessimisticPolicy([_one_dim_fit(1.0, 1.0)], [mc], 0.05, 1.0)
        assert _one_action(policy, 0) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        table = rng.standard_normal((5, 3, 2))
        mc = ModelClass(2, TabularMap(table))
        cov = CovarianceMatrix(np.array([[1.5, -0.2], [-0.2, 0.8]]))
        fit = RidgeFit(np.array([0.3, -1.1]), cov, 20, 1.0)
        policy = PessimisticPolicy([fit], [mc], 0.05, 0.4)
        for x in range(5):
            vals = [_hand_value(policy, table[x, a]) for a in range(3)]
            assert _one_action(policy, x) == int(np.argmax(vals))

    def test_argmax_invariant_to_constant_shift(self):
        rng = np.random.default_rng(6)
        table = rng.standard_normal((4, 3, 2))
        mc = ModelClass(2, TabularMap(table))
        cov = CovarianceMatrix(np.eye(2))
        fit = RidgeFit(np.array([1.0, -0.5]), cov, 10, 1.0)
        states = StateBatch(indices=np.arange(4))
        base = pessimistic_values(fit, mc, states, 0.0)
        actions = np.argmax(base, axis=1)
        assert np.array_equal(np.argmax(base + rng.standard_normal((4, 1)), axis=1), actions)


class TestCompositePolicy:
    @staticmethod
    def _fits(classes):
        return [RidgeFit(np.ones(mc.dim), CovarianceMatrix(np.eye(mc.dim)), 5, 1.0) for mc in classes]

    def test_value_stack_shape(self):
        rng = np.random.default_rng(1)
        tables = [rng.standard_normal((2, 3, 1)), rng.standard_normal((2, 3, 2))]
        classes = [ModelClass(t.shape[2], TabularMap(t)) for t in tables]
        policy = PessimisticPolicy(self._fits(classes), classes, 0.05, 1.0)
        stack = policy.value_stack(StateBatch(indices=[0, 1]))
        assert stack.shape == (2, 2, 3)

    @pytest.mark.parametrize("n_learners, n_classes", [(2, 1), (1, 2), (0, 0)])
    def test_one_learner_per_class_required(self, n_learners, n_classes):
        # a zip over lists of different lengths would drop a class silently
        rng = np.random.default_rng(2)
        classes = [ModelClass(1, TabularMap(rng.standard_normal((2, 3, 1)))) for _ in range(2)]
        fits = self._fits(classes)
        with pytest.raises(ValueError, match="fit"):
            PessimisticPolicy(fits[:n_learners], classes[:n_classes], 0.05, 1.0)

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
    def test_penalty_scale_must_be_finite_and_nonnegative(self, scale):
        # a negative scale would reward uncertainty, and NaN would make every action 0
        inst = make_tabular_instance(3, 2, 0)
        data = sample_dataset(inst, dirichlet_behavior(2, 0), 50, 1)
        mc = realizable_family(inst, [2], 0)[0]
        fit = fit_pessimistic(data, mc, 1.0, 0.05).fits[0]
        with pytest.raises(ValueError, match="penalty_scale"):
            PessimisticPolicy([fit], [mc], 0.05, scale)
        with pytest.raises(ValueError, match="penalty_scale"):
            fit_pessimistic(data, mc, 1.0, 0.05, scale)


class TestCellGrid:
    def test_cells_of_another_grid_are_refused(self):
        # both grids hold 12 cells, so only the grid the cells carry tells them apart
        drawn = make_tabular_instance(2, 6, 0)
        cells = sample_dataset(drawn, dirichlet_behavior(6, 0), 200, 1)
        assert cells.grid == (2, 6)
        mc = realizable_family(make_tabular_instance(3, 4, 0), [3], 0)[0]
        with pytest.raises(ValueError, match=r"\(2, 6\) grid given a class over a \(3, 4\) table"):
            fit_pessimistic(cells, mc, 1.0, 0.05)

    def test_grid_must_cover_the_cells(self):
        with pytest.raises(ValueError, match="grid"):
            Cells(np.zeros(12), np.ones(12), grid=(3, 5))


class TestFixedAndOptimalPolicies:
    def test_fixed_constant(self):
        policy = FixedPolicy(action=2)
        assert np.array_equal(policy.actions(StateBatch(indices=[0, 1, 2])), [2, 2, 2])

    def test_fixed_table(self):
        policy = FixedPolicy(table=np.array([1, 0]))
        assert np.array_equal(policy.actions(StateBatch(indices=[0, 1, 0])), [1, 0, 1])

    def test_optimal_argmax(self):
        inst = make_tabular_instance(4, 3, 0)
        policy = OptimalPolicy(inst)
        acts = policy.actions(StateBatch(indices=np.arange(4)))
        assert np.array_equal(acts, np.argmax(inst.model.means, axis=1))


def test_realizable_consistency_more_data_helps():
    # average test regret at n=4000 should not exceed the n=250 average
    regrets = {250: [], 4000: []}
    for seed in range(20):
        inst = make_tabular_instance(20, 10, seed)
        mc = realizable_family(inst, [10], seed)[0]
        mu = dirichlet_behavior(10, seed)
        test = sample_states(inst, 500, seed + 1000)
        means = inst.mean_rewards(test)
        for n in (250, 4000):
            data = sample_dataset(inst, mu, n, seed + 31 * n)
            policy = fit_pessimistic(data, mc, 1.0, 0.05)
            regrets[n].append(regret_estimate(means, policy.actions(test)))
    assert np.mean(regrets[4000]) <= np.mean(regrets[250])
