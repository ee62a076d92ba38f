import dataclasses
import math
import sys

import numpy as np
import pytest

from batchselect.env import (
    BanditInstance,
    BehaviorPolicy,
    GaussianModel,
    StateBatch,
    TabularModel,
    dirichlet_behavior,
    make_gaussian_instance,
    make_tabular_instance,
    sample_dataset,
    sample_states,
)
from batchselect.features import (
    ModelClass,
    TabularMap,
    design_matrix,
    realizable_family,
    truncation_family,
)
from batchselect.learner import OptimalPolicy
from batchselect.linalg import CovarianceMatrix, RidgeFit, ridge_fit
from batchselect.diagnostics import (
    ErrorDecomposition,
    GroundTruthUnavailableError,
    IllPosedPopulationError,
    UnsupportedInstanceError,
    alt_approx_errors,
    approx_error_eps,
    coverage_terms,
    decompositions_to_csv,
    fixed_design_theta_star,
    make_error_decomposition,
    oracle_bound,
    population_model,
    regret_estimate,
)
from batchselect.hard_instance import build_hard_pair
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


class TestApproxErrorEps:
    def test_realizable_is_zero(self):
        inst = make_tabular_instance(4, 3, 0)
        mc = realizable_family(inst, [4], 0)[0]
        states = StateBatch(indices=np.arange(4))
        # exact theta for the realizable class
        phi = mc.map.table.reshape(-1, mc.dim)
        theta = fixed_design_theta_star(phi, inst.model.means.reshape(-1))
        pi = FixedPolicy(action=0)
        pi_hat = FixedPolicy(action=1)
        assert approx_error_eps(theta, mc, pi, pi_hat, inst, states) == pytest.approx(0.0, abs=1e-8)

    def test_same_policy_doubles_single_term(self):
        inst = make_tabular_instance(3, 2, 1)
        mc = realizable_family(inst, [1], 1)[0]
        theta = np.zeros(mc.dim)  # deliberately wrong predictor
        states = StateBatch(indices=np.arange(3))
        pi = FixedPolicy(action=0)
        both = approx_error_eps(theta, mc, pi, pi, inst, states)
        single = np.mean(np.abs(inst.model.means[:, 0]))
        assert both == pytest.approx(2 * single, rel=1e-12)

    def test_hard_pair_class_one_worst_case(self):
        pair = build_hard_pair(16, 16)
        nu1 = pair.instances[0]
        mc1 = pair.classes[0]
        theta = np.array([-pair.delta_gap])
        states = StateBatch(indices=np.zeros(10, dtype=int))
        worst = max(
            approx_error_eps(
                theta, mc1, FixedPolicy(action=0), FixedPolicy(action=a), nu1, states
            )
            for a in (0, 1)
        )
        assert worst == pytest.approx(2 * pair.delta_gap, abs=1e-12)


class TestAltApproxErrors:
    def test_realizable_both_zero(self):
        inst = make_tabular_instance(3, 2, 2)
        mc = realizable_family(inst, [2], 2)[0]
        mu = dirichlet_behavior(2, 0)
        worst, sq = alt_approx_errors(mc, inst, mu)
        assert worst == pytest.approx(0.0, abs=1e-7)
        assert sq == pytest.approx(0.0, abs=1e-14)

    def test_truncation_diagonal_closed_form(self):
        # diagonal covariances: residual of class k is sum_{j>d_k} Sigma_jj theta_j^2
        d, d_k = 6, 3
        rng = np.random.default_rng(5)
        diag = rng.uniform(0.5, 2.0, d)
        chols = np.stack([np.diag(np.sqrt(diag))] * 2)
        theta = rng.standard_normal(d)
        inst = BanditInstance(2, GaussianModel(chols, theta, d), noise_scale=1.0)
        mc = truncation_family(d, [d_k])[0]
        mu = BehaviorPolicy(np.array([0.5, 0.5]))
        budget = 200_000
        _, sq = alt_approx_errors(mc, inst, mu, sample_budget=budget, include_worst=False)
        closed = float(np.sum(diag[d_k:] * theta[d_k:] ** 2))
        se = closed * math.sqrt(2.0 / budget) * 3  # ~3 relative standard errors
        assert abs(sq - closed) <= 3 * closed / math.sqrt(budget) * 10 + se

    def test_worst_unsupported_on_gaussian(self):
        inst = make_gaussian_instance(4, 2, 2, 0)
        with pytest.raises(UnsupportedInstanceError):
            alt_approx_errors(truncation_family(4, [2])[0], inst, dirichlet_behavior(2, 0))

    def test_sup_dominates_pointwise_residual(self):
        inst = make_tabular_instance(5, 3, 3)
        mc = realizable_family(inst, [2], 3)[0]
        # damage the class so it is no longer realizable
        mc = ModelClass(1, TabularMap(mc.map.table[:, :, :1]))
        mu = dirichlet_behavior(3, 1)
        worst, sq = alt_approx_errors(mc, inst, mu)
        assert worst >= math.sqrt(sq) - 1e-9  # weighted L2 <= sup

    def test_missing_scipy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)  # import fails
        inst = make_tabular_instance(3, 2, 2)
        mc = realizable_family(inst, [2], 2)[0]
        with pytest.raises(ImportError, match=r"batchselect\[diagnostics\]"):
            alt_approx_errors(mc, inst, dirichlet_behavior(2, 0))


class TestPopulationModel:
    def test_realizable_tilde_eps_zero(self):
        # full-rank realizable class: one-hot feature per (state, action) pair
        inst = make_tabular_instance(4, 3, 4)
        mc = ModelClass(12, TabularMap(np.eye(12).reshape(4, 3, 12)))
        pm = population_model(mc, inst, dirichlet_behavior(3, 0))
        assert pm.tilde_eps == pytest.approx(0.0, abs=1e-6)

    def test_nested_tilde_eps_nonincreasing(self):
        inst = make_gaussian_instance(10, 6, 3, 5)
        mu = dirichlet_behavior(3, 5)
        classes = truncation_family(10, [2, 4, 6, 8, 10])
        eps = [
            population_model(mc, inst, mu, sample_budget=40_000, rng_seed=1).tilde_eps
            for mc in classes
        ]
        assert all(b <= a + 1e-2 for a, b in zip(eps, eps[1:]))

    def test_two_by_two_hand_solve(self):
        means = np.array([[1.0, -1.0], [0.5, 0.25]])
        inst = BanditInstance(2, TabularModel(np.array([0.5, 0.5]), means), 1.0)
        table = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])  # phi = indicator features
        mc = ModelClass(1, TabularMap(table))
        mu = BehaviorPolicy(np.array([0.5, 0.5]))
        pm = population_model(mc, inst, mu)
        # sigma = E[phi^2] = 0.5; target = E[phi f] = 0.25*(1 + 0.25)
        assert pm.sigma[0, 0] == pytest.approx(0.5)
        assert pm.theta_bar[0] == pytest.approx(0.25 * 1.25 / 0.5)

    def test_singular_sigma_rejected(self):
        means = np.array([[1.0, -1.0]])
        inst = BanditInstance(2, TabularModel(np.array([1.0]), means), 1.0)
        table = np.zeros((1, 2, 1))  # zero features: singular population matrix
        mc = ModelClass(1, TabularMap(table))
        with pytest.raises(IllPosedPopulationError):
            population_model(mc, inst, BehaviorPolicy(np.array([0.5, 0.5])))


class TestCoverageTerms:
    def test_identity_cov_unit_features(self):
        table = np.zeros((3, 2, 2))
        table[:, 0] = [1.0, 0.0]
        table[:, 1] = [0.0, 1.0]
        mc = ModelClass(2, TabularMap(table))
        fit = RidgeFit(np.zeros(2), CovarianceMatrix(np.eye(2)), 10, 1.0)
        states = StateBatch(indices=np.arange(3))
        comp, worst = coverage_terms(fit, mc, FixedPolicy(action=0), states)
        assert comp == pytest.approx(1.0)
        assert worst >= comp

    def test_worst_dominates_comparator(self):
        inst = make_gaussian_instance(6, 3, 4, 6)
        data = sample_dataset(inst, dirichlet_behavior(4, 6), 300, 6)
        mc = truncation_family(6, [6])[0]
        fit = ridge_fit(design_matrix(mc, data.states, data.actions), data.rewards, 1.0)
        states = sample_states(inst, 100, 7)
        comp, worst = coverage_terms(fit, mc, OptimalPolicy(inst), states)
        assert worst >= comp - 1e-12

    def test_hard_pair_arm_one_norm_bound(self):
        # n1 samples of arm 0: |phi_1(a_0)|_{V^{-1}} <= sqrt(n/n1)
        pair = build_hard_pair(n1=8, n2=24)
        actions = pair.fixed_actions()
        states = StateBatch(indices=np.zeros(pair.n, dtype=int))
        mc1 = pair.classes[0]
        phi = design_matrix(mc1, states, actions)
        means = pair.instances[0].model.means[0][actions]
        fit = ridge_fit(phi, means, lam=1e-12)
        comp, _ = coverage_terms(fit, mc1, FixedPolicy(action=0), StateBatch(indices=[0]))
        assert comp <= math.sqrt(pair.n / pair.n1) + 1e-9

    def test_empty_sample_rejected(self):
        fit = RidgeFit(np.zeros(1), CovarianceMatrix(np.eye(1)), 1, 1.0)
        mc = ModelClass(1, TabularMap(np.zeros((1, 1, 1))))
        with pytest.raises(ValueError):
            coverage_terms(fit, mc, FixedPolicy(action=0), StateBatch(indices=[]))


def _decomp(k, dim, n, eps, cov_comp):
    mc = ModelClass(dim, TabularMap(np.zeros((1, 1, dim))))
    fit = RidgeFit(np.zeros(dim), CovarianceMatrix(np.eye(dim)), n, 1.0)
    return make_error_decomposition(k, mc, fit, np.zeros(dim), eps, cov_comp, cov_comp, 0.1, 0.2)


class TestOracleBound:
    def test_single_class(self):
        d = _decomp(0, 2, 100, 0.5, 1.0)
        best, value = oracle_bound([d])
        assert best == 0
        assert value == pytest.approx(0.5 + math.sqrt(2 / 100) * 1.0)

    def test_hand_arithmetic_two_classes(self):
        # terms (0.5 + 0.1) and (0.0 + 0.3): class 2 wins with 0.3
        d1 = _decomp(0, 1, 100, 0.5, 1.0)  # sqrt(1/100)*1 = 0.1
        d2 = _decomp(1, 9, 100, 0.0, 1.0)  # sqrt(9/100)*1 = 0.3
        best, value = oracle_bound([d1, d2])
        assert best == 1 and value == pytest.approx(0.3)

    def test_tie_breaks_low(self):
        d1 = _decomp(0, 4, 100, 0.1, 1.0)
        d2 = _decomp(1, 4, 100, 0.1, 1.0)
        best, _ = oracle_bound([d1, d2])
        assert best == 0

    def test_hard_pair_nu2_bound(self):
        pair = build_hard_pair(n1=100, n2=25)
        # closed-form terms from the construction: min(1/sqrt(n1), sqrt(2/n2))
        from batchselect.hard_instance import oracle_denominator

        assert oracle_denominator(pair, 1) <= 2 / math.sqrt(pair.n1) + math.sqrt(2 / pair.n2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            oracle_bound([])


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


class TestErrorDecomposition:
    def test_bound_value_identity(self):
        d = _decomp(0, 3, 50, 0.4, 0.9)
        assert d.bound_value == pytest.approx(d.approx_eps + 2 * d.beta * d.coverage_comparator, abs=1e-12)

    def test_csv_schema(self):
        d = _decomp(0, 3, 50, 0.4, 0.9)
        text = decompositions_to_csv([(0, d), (1, d)])
        lines = text.strip().split("\n")
        assert lines[0].startswith("trial,class_index,dim,n,")
        assert len(lines) == 3
