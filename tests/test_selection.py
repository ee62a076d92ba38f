import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from batchselect.env import (
    Cells,
    StateBatch,
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
    features_all_actions,
    realizable_family,
    truncation_family,
)
from batchselect.env import rng_stream
from batchselect.features import RepresentationMismatchError
from batchselect.learner import GreedyPolicy, beta_coefficient, fit_pessimistic, pessimistic_values
from batchselect.linalg import CovarianceMatrix, RidgeFit, ridge_fit
from batchselect.selection import (
    complexity_coverage_policy,
    holdout_select,
    holdout_split_sizes,
    slope_policy_select,
    slope_select,
    slope_terms,
    zeta_coefficient,
)
from feature_rows import row_split, sample_feature_dataset
from row_design import row_design_fit, sample_rows


def _one_column(values, widths):
    """slope_select on a single column: (index, value)."""
    k, v = slope_select(np.asarray(values, dtype=float)[:, None], widths)
    return int(k[0]), float(v[0])


class TestSlopeInputs:
    """slope_select's input checks."""

    def test_shape_mismatch(self):
        # unequal lengths, 2-D widths, a vector of values, and no estimates at all
        for values, widths in (
            (np.zeros((3, 2)), np.zeros(2)),
            (np.zeros((2, 2)), np.zeros((2, 1))),
            (np.zeros(3), np.zeros(3)),
            (np.zeros((0, 2)), np.zeros(0)),
        ):
            with pytest.raises(ValueError, match="value matrix"):
                slope_select(values, widths)

    def test_negative_width(self):
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="widths"):
                slope_select(np.zeros((2, 3)), np.array([0.1, bad]))


class TestZetaCoefficient:
    @staticmethod
    def _formula(n, d, lam, delta, inv_sqrt):
        log_term = math.log(4 * d / delta)
        return (
            math.sqrt(lam / n)
            + 192.0 * math.sqrt(d / n) * inv_sqrt * log_term
            + math.sqrt((5 * d + 10 * math.sqrt(d * log_term) + 10 * log_term) / n)
        )

    def test_identity_covariance_formula(self):
        cov = CovarianceMatrix(np.eye(1))
        delta = 4 * math.exp(-3)  # log(4d/delta) = 3, inside (0, 1/e]
        log_term = 3.0
        expected = 192.0 * 0.1 * log_term + math.sqrt(
            (5 + 10 * math.sqrt(log_term) + 10 * log_term) / 100
        )
        assert zeta_coefficient(100, 1, 0.0, delta, cov) == pytest.approx(expected, abs=1e-3)

    def test_zero_lambda_drops_first_term(self):
        cov = CovarianceMatrix(np.eye(2))
        z0 = zeta_coefficient(50, 2, 0.0, 0.05, cov)
        z1 = zeta_coefficient(50, 2, 4.0, 0.05, cov)
        assert z1 - z0 == pytest.approx(math.sqrt(4.0 / 50), rel=1e-12)

    def test_scaling_cov_halves_middle_term(self):
        cov1 = CovarianceMatrix(np.eye(3))
        cov4 = CovarianceMatrix(4.0 * np.eye(3))
        z1 = zeta_coefficient(100, 3, 0.0, 0.05, cov1)
        z4 = zeta_coefficient(100, 3, 0.0, 0.05, cov4)
        log_term = math.log(4 * 3 / 0.05)
        middle = 192.0 * math.sqrt(3 / 100) * log_term
        assert z1 - z4 == pytest.approx(middle / 2, rel=1e-10)

    def test_delta_domain(self):
        cov = CovarianceMatrix(np.eye(1))
        with pytest.raises(ValueError):
            zeta_coefficient(10, 1, 1.0, 0.9, cov)


class TestSlopeSelect:
    def test_identical_intervals_pick_first(self):
        k, v = _one_column([0.3, 0.3, 0.3], np.array([0.1, 0.1, 0.1]))
        assert k == 0 and v == 0.3

    def test_hand_enumeration(self):
        k, v = _one_column([-0.2, 0.5, 0.6], np.array([0.05, 0.2, 0.3]))
        assert k == 1 and v == 0.5

    def test_degenerate_disjoint_forces_last(self):
        k, v = _one_column([0.0, 10.0], np.array([0.0, 0.0]))
        assert k == 1 and v == 10.0

    def test_touching_endpoints_intersect(self):
        # [0,0] and [0, 2] touch at 0: closed intervals intersect
        k, _ = _one_column([0.0, 1.0], np.array([0.0, 0.5]))
        assert k == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_always_returns_valid_index(self, m, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1, 1, m)
        k, v = _one_column(values, rng.uniform(0, 0.5, m))
        assert 0 <= k < m and v == values[k]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_columns_match_pairwise_definition(self, data):
        # on a grid of dyadic values and widths, v - 2w and v + 2w are exact, so
        # touching intervals and zero-width points come up often
        m = data.draw(st.integers(min_value=1, max_value=6))
        n_cols = data.draw(st.integers(min_value=1, max_value=4))
        grid_value = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
        grid_width = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.5])
        value = st.one_of(grid_value, st.floats(min_value=-10, max_value=10))
        width = st.one_of(grid_width, st.floats(min_value=0, max_value=5))
        values = np.array(
            data.draw(st.lists(st.lists(value, min_size=n_cols, max_size=n_cols),
                               min_size=m, max_size=m))
        )
        widths = np.array(data.draw(st.lists(width, min_size=m, max_size=m)))
        khat, vhat = slope_select(values, widths)
        assert khat.shape == vhat.shape == (n_cols,)
        for col in range(n_cols):
            lo = [v - 2 * w for v, w in zip(values[:, col], widths)]
            hi = [v + 2 * w for v, w in zip(values[:, col], widths)]
            # intervals on a line share a point iff every two of them meet
            expected = next(
                k for k in range(m)
                if all(lo[i] <= hi[j] for i in range(k, m) for j in range(k, m))
            )
            assert khat[col] == expected and vhat[col] == values[expected, col]


def _slope_guarantee_case(rng):
    """One random instance satisfying the generic estimator's preconditions."""
    m = int(rng.integers(1, 9))
    v = float(rng.uniform(-1, 1))
    psi = np.sort(rng.uniform(0, 1, m))[::-1]  # nonincreasing bias
    xi = np.sort(rng.uniform(0, 1, m))  # nondecreasing width
    vhat = v + rng.uniform(-1, 1, m) * (psi + xi)
    return v, psi, xi, vhat


def test_generic_slope_guarantee_sample():
    rng = np.random.default_rng(99)
    for _ in range(200):
        v, psi, xi, vhat = _slope_guarantee_case(rng)
        _, selected = _one_column(vhat, xi)
        assert abs(selected - v) <= 5 * np.min(psi + xi) + 1e-12


class TestComplexityCoverage:
    def _toy(self, seed=0, n_classes=2, n_actions=3, n_states=4):
        rng = np.random.default_rng(seed)
        classes, fits = [], []
        for k in range(n_classes):
            d = k + 1
            table = rng.standard_normal((n_states, n_actions, d))
            classes.append(ModelClass(d, TabularMap(table)))
            g = rng.standard_normal((d, d))
            cov = CovarianceMatrix(g @ g.T + 0.5 * np.eye(d))
            fits.append(RidgeFit(rng.standard_normal(d), cov, 50, 1.0))
        return fits, classes

    def test_learners_run_at_delta_over_m(self):
        fits, classes = self._toy(n_classes=3)
        policy, _ = complexity_coverage_policy(fits, classes, 0.05, penalty_scale=0.3)
        for shared, beta, fit, mc in zip(policy.fits, policy.betas, fits, classes, strict=True):
            assert shared is fit
            assert beta == beta_coefficient(50, mc.dim, 1.0, 0.05 / 3)
        assert policy.penalty_scale == 0.3

    def test_single_class_matches_pessimistic_policy(self):
        fits, classes = self._toy(n_classes=1)
        policy, _ = complexity_coverage_policy(fits, classes, 0.05)
        penalty = beta_coefficient(50, 1, 1.0, 0.05)
        states = StateBatch(indices=np.arange(4))
        single = np.argmax(pessimistic_values(fits[0], classes[0], states, penalty), axis=1)
        assert np.array_equal(policy.actions(states), single)

    def test_duplicate_class_idempotent(self):
        # each class runs at delta/M, so hold delta/M at 0.025 while M grows
        fits, classes = self._toy()
        states = StateBatch(indices=np.arange(4))
        once, _ = complexity_coverage_policy(fits, classes, 0.05)
        twice, _ = complexity_coverage_policy(fits + [fits[-1]], classes + [classes[-1]], 0.075)
        assert np.array_equal(once.actions(states), twice.actions(states))

    def test_matches_exhaustive_enumeration(self):
        fits, classes = self._toy(seed=3)
        policy, _ = complexity_coverage_policy(fits, classes, 0.05)
        states = StateBatch(indices=np.arange(4))
        acts, ks = policy.actions_and_classes(states)

        def value(fit, mc, x, a):
            # phi theta - beta(delta/M) * |phi|_{V^{-1}}, V^{-1} applied by a dense inverse
            phi = mc.map.table[x, a]
            width = math.sqrt(phi @ np.linalg.inv(fit.cov.entries) @ phi)
            beta = beta_coefficient(fit.n, mc.dim, fit.lam, 0.05 / len(classes))
            return float(phi @ fit.theta_hat) - beta * width

        for x in range(4):
            grid = np.array(
                [[value(fit, mc, x, a) for a in range(3)] for fit, mc in zip(fits, classes)]
            )
            best = grid.max()
            # lowest action achieving the max, then lowest class at that action
            a_star = int(np.argmax(grid.max(axis=0)))
            k_star = int(np.argmax(grid[:, a_star]))
            assert grid.max(axis=0)[a_star] == best
            assert acts[x] == a_star and ks[x] == k_star

    def test_adding_classes_never_lowers_objective(self):
        # each class runs at delta/M, so hold delta/M at 0.025 while M grows
        fits, classes = self._toy(seed=5, n_classes=3)
        states = StateBatch(indices=np.arange(4))
        small = complexity_coverage_policy(fits[:2], classes[:2], 0.05)[0]
        large = complexity_coverage_policy(fits, classes, 0.075)[0]
        obj_small = small.value_stack(states).max(axis=0).max(axis=1)
        obj_large = large.value_stack(states).max(axis=0).max(axis=1)
        assert np.all(obj_small <= obj_large + 1e-15)

    def test_empty_learners_rejected(self):
        with pytest.raises(ValueError):
            complexity_coverage_policy([], [], 0.05)

    def test_negative_penalty_scale_rejected(self):
        fits, classes = self._toy()
        with pytest.raises(ValueError, match="penalty_scale"):
            complexity_coverage_policy(fits, classes, 0.05, penalty_scale=-0.1)

    def test_betas_grow_with_class_dimension(self):
        # cc's classes keep their own dimensions, so at one n beta_k follows d_k,
        # and the report shows the betas the policy penalizes with
        inst = make_tabular_instance(20, 10, 7)
        data = sample_dataset(inst, dirichlet_behavior(10, 7), 500, 8)
        classes = realizable_family(inst, [2, 5, 10, 25, 50], 7)
        fits = [fit_pessimistic(data, mc, 1.0, 0.05).fits[0] for mc in classes]
        policy, report = complexity_coverage_policy(fits, classes, 0.05, 0.1)
        assert [mc.dim for mc in classes] == [2, 5, 10, 25, 50]
        assert np.all(np.diff(policy.betas) > 0)
        assert json.loads(report.to_json())["audit"]["betas"] == policy.betas

    def test_one_class_is_fit_pessimistic_bit_for_bit(self):
        # Algorithm 1 is the M = 1 case of the selector: the same beta, the
        # same values and the same action on every state
        inst = make_tabular_instance(20, 10, 7)
        data = sample_dataset(inst, dirichlet_behavior(10, 7), 500, 8)
        every_state = StateBatch(indices=np.arange(20))
        for mc in realizable_family(inst, [2, 10, 50], 7):
            single = fit_pessimistic(data, mc, 1.0, 0.05, 0.7)
            cc = complexity_coverage_policy(single.fits, [mc], 0.05, 0.7)[0]
            assert cc.betas == single.betas
            assert np.array_equal(cc.value_stack(every_state), single.value_stack(every_state))
            assert np.array_equal(cc.actions(every_state), single.actions(every_state))


def _fit_truncation(instance, data, dims, lam=1.0):
    """(fits, classes) of a truncation family on a feature dataset."""
    classes = truncation_family(instance.model.chol_factors.shape[1], dims)
    fits = [
        ridge_fit(design_matrix(mc, data.logged), data.rewards, lam)
        for mc in classes
    ]
    return fits, classes


class TestSlopePolicySelect:
    def test_single_class_returns_greedy(self):
        inst = make_gaussian_instance(4, 2, 3, 0)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 0), 200, 0)
        fits, classes = _fit_truncation(inst, data, [4])
        states = sample_states(inst, 100, 1)
        terms = slope_terms(fits, classes, states)
        policy, report = slope_policy_select(fits, classes, terms, 0.05)
        assert report.chosen == 0
        greedy = GreedyPolicy(fits[0], classes[0])
        assert np.array_equal(policy.actions(states), greedy.actions(states))

    def test_non_nested_rejected(self):
        inst = make_tabular_instance(4, 3, 0)
        classes = realizable_family(inst, [2, 3], 0)
        mu = dirichlet_behavior(3, 0)
        data = sample_rows(inst, mu, 100, 0)
        fits = [row_design_fit(data, mc, 1.0) for mc in classes]
        states = StateBatch(indices=np.zeros(10, dtype=int))
        with pytest.raises(ValueError):
            slope_terms(fits, classes, states)

    @pytest.mark.parametrize("cut", [slice(1), slice(1, None)], ids=["fewer_fits", "fewer_classes"])
    def test_fit_and_class_counts_must_match(self, cut):
        inst = make_gaussian_instance(4, 2, 3, 0)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 0), 50, 0)
        fits, classes = _fit_truncation(inst, data, [2, 3, 4])
        states = sample_states(inst, 10, 1)
        with pytest.raises(ValueError, match="one fit per class"):
            slope_terms(fits[cut], classes, states)
        with pytest.raises(ValueError, match="one fit per class"):
            slope_terms(fits, classes[cut], states)
        terms = slope_terms(fits, classes, states)
        with pytest.raises(ValueError, match="one fit and one row of terms per class"):
            slope_policy_select(fits[cut], classes[cut], terms, 0.05)

    def test_empty_validation_rejected(self):
        inst = make_gaussian_instance(4, 2, 3, 0)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 0), 50, 0)
        fits, classes = _fit_truncation(inst, data, [2, 4])
        with pytest.raises(ValueError):
            slope_terms(fits, classes, None)

    @pytest.mark.parametrize(
        "make_states, error, match",
        [
            (lambda: StateBatch(indices=np.zeros(5, dtype=int)), RepresentationMismatchError,
             "feature"),
            (lambda: StateBatch(features=np.zeros((5, 3, 6))), RepresentationMismatchError,
             "6-wide"),
            (lambda: StateBatch(features=np.full((5, 3, 4), np.nan)), ValueError, "finite"),
        ],
        ids=["tabular", "wrong_width", "nan"],
    )
    def test_bad_validation_states_rejected(self, make_states, error, match):
        # feature_source refuses states a truncation map cannot read, and
        # StateBatch refuses NaN features before any width is computed
        inst = make_gaussian_instance(4, 2, 3, 0)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 0), 50, 0)
        fits, classes = _fit_truncation(inst, data, [2, 4])
        with pytest.raises(error, match=match):
            slope_terms(fits, classes, make_states())

    def test_width_monotone_in_class(self):
        inst = make_gaussian_instance(12, 4, 3, 1)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 1), 500, 1)
        fits, classes = _fit_truncation(inst, data, [3, 6, 9, 12])
        states = sample_states(inst, 200, 2)
        _, report = slope_policy_select(fits, classes, slope_terms(fits, classes, states), 0.05)
        widths = report.audit["widths"]
        assert np.all(np.diff(widths) >= -1e-9)

    def test_values_match_each_greedy_policy(self, monkeypatch):
        # reference: each candidate's actions from its own GreedyPolicy, and
        # each value a separate mean over the validation states
        inst = make_gaussian_instance(8, 3, 4, 4)
        data = sample_feature_dataset(inst, dirichlet_behavior(4, 4), 300, 4)
        fits, classes = _fit_truncation(inst, data, [2, 5, 8])
        states = sample_states(inst, 120, 5)
        tables = {}  # each fit's prediction table on the validation states, as SLOPE read it
        predict = RidgeFit.predictions

        def recording(fit, stack):
            tables[id(fit)] = predict(fit, stack)
            return tables[id(fit)]

        monkeypatch.setattr(RidgeFit, "predictions", recording)
        _, report = slope_policy_select(fits, classes, slope_terms(fits, classes, states), 0.05)
        monkeypatch.undo()
        assert len(tables) == len(fits)
        rows = np.arange(len(states))
        for l, (fit_l, mc_l) in enumerate(zip(fits, classes)):
            greedy = GreedyPolicy(fit_l, mc_l)
            actions = greedy.actions(states)
            # exact: SLOPE's candidate l is the argmax of the very table GreedyPolicy l reads
            assert np.array_equal(tables[id(fit_l)], greedy.values(states))
            assert np.array_equal(np.argmax(tables[id(fit_l)], axis=1), actions)
            for k, (fit_k, mc_k) in enumerate(zip(fits, classes)):
                preds = features_all_actions(mc_k, states)[rows, actions] @ fit_k.theta_hat
                assert report.audit["values"][k, l] == pytest.approx(preds.mean(), rel=1e-12)

    def test_audit_reproduces_selection(self):
        inst = make_gaussian_instance(8, 3, 4, 2)
        data = sample_feature_dataset(inst, dirichlet_behavior(4, 2), 400, 2)
        fits, classes = _fit_truncation(inst, data, [2, 5, 8])
        states = sample_states(inst, 150, 3)
        _, report = slope_policy_select(fits, classes, slope_terms(fits, classes, states), 0.05)
        values = report.audit["values"]
        widths = report.audit["widths"]
        khat, vhat = slope_select(values, widths)
        assert np.array_equal(khat, report.audit["khat_per_policy"])
        assert np.array_equal(vhat, report.audit["vhat_per_policy"])
        assert report.chosen == int(np.argmax(report.audit["vhat_per_policy"]))

    def test_estimate_close_to_true_value(self):
        # nested truncation toy: selected value near the true value of the
        # chosen policy, within the generic 5*(psi+xi) radius
        inst = make_gaussian_instance(4, 2, 3, 7)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 7), 2000, 7)
        fits, classes = _fit_truncation(inst, data, [2, 4])
        states = sample_states(inst, 500, 8)
        terms = slope_terms(fits, classes, states)
        policy, report = slope_policy_select(fits, classes, terms, 0.05)
        big = sample_states(inst, 50_000, 9)
        means = inst.mean_rewards(big)
        true_value = means[np.arange(len(big)), policy.actions(big)].mean()
        widths = report.audit["widths"]
        chosen_l = report.chosen
        vhat = report.audit["vhat_per_policy"][chosen_l]
        # psi_k: population bias of each class's plug-in value for this policy
        psi = []
        rows, acts = np.arange(len(big)), policy.actions(big)
        for fit, mc in zip(fits, classes):
            phi = features_all_actions(mc, big)[rows, acts]
            psi.append(abs((phi @ fit.theta_hat).mean() - true_value))
        assert abs(vhat - true_value) <= 5 * np.min(np.array(psi) + widths) + 0.02


def _holdout(data, classes, split_fraction, lam, seed):
    """holdout_select on the widest class's design over the dataset's rows,
    split as ac splits them."""
    design = design_matrix(classes[-1], data.logged)
    fit_on, score_on = row_split(data.rewards, split_fraction, seed)
    return holdout_select(design, fit_on, score_on, classes, lam)


class TestHoldoutSelect:
    def test_zero_rewards_tie_to_first(self):
        inst = make_gaussian_instance(6, 3, 3, 0)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 0), 100, 0)
        data.rewards[:] = 0.0
        classes = truncation_family(6, [2, 4, 6])
        _, report = _holdout(data, classes, 0.8, 1.0, 0)
        assert report.chosen == 0
        assert np.allclose(report.audit["losses"], report.audit["losses"][0])

    def test_noise_free_realizable_class_wins(self):
        import dataclasses

        inst = dataclasses.replace(make_gaussian_instance(6, 6, 3, 1), noise_scale=0.0)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 1), 300, 1)
        classes = truncation_family(6, [2, 6])
        _, report = _holdout(data, classes, 0.8, 1e-8, 0)
        losses = report.audit["losses"]
        assert losses[1] < losses[0]
        assert report.chosen == 1

    def test_matches_independent_recomputation(self):
        inst = make_gaussian_instance(9, 4, 3, 2)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 2), 1000, 2)
        classes = truncation_family(9, [3, 6, 9])
        _, report = _holdout(data, classes, 0.8, 1.0, 5)
        from batchselect.env import rng_stream

        perm = rng_stream(5, "holdout-split").permutation(1000)
        n_in = math.ceil(0.8 * 1000)
        halves = []
        for rows in (perm[:n_in], perm[n_in:]):
            halves.append((data.logged[rows], data.rewards[rows]))
        (s_in, r_in), (s_out, r_out) = halves
        for k, mc in enumerate(classes):
            fit = ridge_fit(design_matrix(mc, s_in), r_in, 1.0)
            pred = design_matrix(mc, s_out) @ fit.theta_hat
            loss = np.mean((pred - r_out) ** 2)
            assert report.audit["losses"][k] == pytest.approx(loss, rel=1e-12)
        assert report.chosen == int(np.argmin(report.audit["losses"]))

    def test_rounding_does_not_break_ties(self):
        # Class 1 adds a coordinate of noise at 1e-8 scale, which moves its
        # predictions in their last bits only: its loss rounds below class
        # 0's, within HOLDOUT_TIE_RTOL, and class 0 must be chosen.
        from batchselect.selection import HOLDOUT_TIE_RTOL

        rng = np.random.default_rng(1)
        fit_on, score_on = row_split(rng.standard_normal(40) + 0.3, 0.8, 0)
        design = np.column_stack([rng.standard_normal((40, 2)), 1e-8 * rng.standard_normal(40)])
        _, report = holdout_select(design, fit_on, score_on, truncation_family(3, [2, 3]), 1.0)
        losses = report.audit["losses"]
        assert 0 < losses[0] - losses[1] <= HOLDOUT_TIE_RTOL * losses.min()
        assert report.chosen == 0

    def test_split_validation(self):
        inst = make_gaussian_instance(4, 2, 2, 0)
        data = sample_feature_dataset(inst, dirichlet_behavior(2, 0), 10, 0)
        classes = truncation_family(4, [4])
        with pytest.raises(ValueError):
            _holdout(data, classes, 1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda phi: [phi],
            lambda phi: np.vstack([phi, phi[:1]]),
            lambda phi: phi[:-1],
            lambda phi: phi[:, :-1],
            lambda phi: np.hstack([phi, phi[:, :1]]),
            lambda phi: phi[:, 0],
        ],
        ids=["design_list", "extra_row", "missing_row", "narrow_design", "wide_design",
             "vector"],
    )
    def test_mismatched_designs_rejected(self, mangle):
        # an extra row would otherwise be cut off silently, an extra column
        # fit as part of the widest class, and a missing one leave it short
        inst = make_gaussian_instance(4, 2, 3, 0)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 0), 20, 0)
        classes = truncation_family(4, [2, 4])
        design = design_matrix(classes[-1], data.logged)
        with pytest.raises(ValueError, match="design"):
            holdout_select(mangle(design), *row_split(data.rewards, 0.8, 0), classes, 1.0)

    def test_non_nested_rejected(self):
        # class k is fit as the leading block of the widest class's fit
        design = np.random.default_rng(0).standard_normal((20, 4))
        fit_on, score_on = row_split(np.zeros(20), 0.8, 0)
        wide_first = truncation_family(4, [2, 4])[::-1]
        two_ambients = truncation_family(5, [2]) + truncation_family(4, [4])
        for classes in (wide_first, two_ambients):
            with pytest.raises(ValueError, match="nested"):
                holdout_select(design, fit_on, score_on, classes, 1.0)

    def test_out_sample_loss_permutation_invariant(self):
        # the loss is a mean over D_out; row order inside D_out cannot matter
        inst = make_gaussian_instance(5, 2, 3, 4)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, 4), 500, 4)
        classes = truncation_family(5, [2, 5])
        _, r1 = _holdout(data, classes, 0.8, 1.0, 11)
        _, r2 = _holdout(data, classes, 0.8, 1.0, 11)
        assert np.array_equal(r1.audit["losses"], r2.audit["losses"])


class TestCells:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 600))
    def test_count_one_cells_score_as_rows(self, seed, m):
        # rows entering as cells of count one keep the bits of the row formula
        rng = np.random.default_rng(seed)
        predictions, rewards = rng.standard_normal(m), rng.standard_normal(m)
        row_loss = float(np.mean((predictions - rewards) ** 2))
        assert Cells(rewards, counts=np.ones(m)).mean_squared_error(predictions) == row_loss

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(0, 40), min_size=1, max_size=6).filter(lambda c: sum(c) > 0),
    )
    def test_counted_cells_score_as_their_rows(self, seed, counts):
        rng = np.random.default_rng(seed)
        predictions = rng.standard_normal(len(counts))
        rows = [rng.standard_normal(c) + rng.standard_normal() for c in counts]
        # an empty cell's mean is never read, whatever finite value it holds
        means = np.array([r.mean() if r.size else rng.standard_normal() for r in rows])
        within = float(sum(((r - m) ** 2).sum() for r, m in zip(rows, means) if r.size))
        cells = Cells(means, counts=counts, within=within)
        row_predictions = np.repeat(predictions, counts)
        row_loss = float(np.mean((row_predictions - np.concatenate(rows)) ** 2))
        assert cells.n == sum(counts)
        assert cells.mean_squared_error(predictions) == pytest.approx(row_loss, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"means": [np.nan], "counts": [1]},
            {"means": [], "counts": []},
            {"means": [1.0], "counts": [-1]},
            {"means": [1.0], "counts": [0.5]},
            {"means": [1.0], "counts": [np.inf]},
            {"means": [1.0], "counts": [0]},
            {"means": [1.0, 2.0], "counts": [1]},
            {"means": [[1.0, 2.0]], "counts": [1, 1]},
            {"means": [1.0], "counts": [1], "within": -1.0},
            {"means": [1.0], "counts": [1], "within": np.inf},
        ],
    )
    def test_bad_cells_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Cells(**kwargs)

    def test_cells_without_rows_need_one_per_design_row(self):
        classes = truncation_family(3, [3])
        for fit_cells, score_cells in ((2, 3), (3, 2), (4, 4)):
            fit_on = Cells(np.arange(fit_cells, dtype=float), counts=np.ones(fit_cells))
            score_on = Cells(np.arange(score_cells, dtype=float), counts=np.ones(score_cells))
            with pytest.raises(ValueError, match="cells on each side"):
                holdout_select(np.eye(3), fit_on, score_on, classes, 1.0)


def row_subset_holdout_losses(design, dims, rewards, split_fraction, rng_seed, lam):
    """Hold-out's losses as it computed them on logged rows before it took
    counted cells: the family fit on the split's fit rows, gathered by
    np.take, each class read as its leading block and scored by its mean
    squared residual on the held-out rows.

    Also returns each loss's rounding scale: the relative change of the loss
    when theta moves by kappa(V) * eps of its norm, V the fit side's
    covariance.  By Cauchy-Schwarz that change is at most
    2 mean(|r| ||phi||) ||theta|| kappa(V) eps / mean(r^2), residuals r on
    the held-out rows; it is large where a class nearly interpolates its fit
    rows and leaves a residual that cancels."""
    n_in, _ = holdout_split_sizes(len(rewards), split_fraction)
    perm = rng_stream(rng_seed, "holdout-split").permutation(len(rewards))
    rows_in, rows_out = perm[:n_in], perm[n_in:]
    family = ridge_fit(np.take(design, rows_in, axis=0), np.take(rewards, rows_in), lam)
    kappa_eps = np.linalg.cond(family.cov.entries) * np.finfo(float).eps
    losses, scales = [], []
    for d in dims:
        fit = family.leading(d)
        phi_out = np.take(design[:, :d], rows_out, axis=0)
        residual = phi_out @ fit.theta_hat - np.take(rewards, rows_out)
        losses.append(np.mean(residual**2))
        sensitivity = 2 * np.mean(np.abs(residual) * np.linalg.norm(phi_out, axis=1))
        scales.append(sensitivity * np.linalg.norm(fit.theta_hat) * kappa_eps / losses[-1])
    return np.array(losses), np.array(scales)


def losses_agree(got, want, scales) -> bool:
    """Each loss within its rounding scale, relative, held between 1e-12 and
    the 1e-9 tie band the choice check uses."""
    return bool(np.all(np.abs(got - want) <= np.clip(scales, 1e-12, 1e-9) * want))


def _counted_and_row_subset_holdout(seed, n, dims, split_fraction, lam):
    rng = np.random.default_rng(seed)
    ambient = rng.standard_normal((n, dims[-1]))
    rewards = ambient @ rng.standard_normal(dims[-1]) + rng.standard_normal(n)
    classes = truncation_family(dims[-1], dims)
    want, scales = row_subset_holdout_losses(ambient, dims, rewards, split_fraction, seed, lam)
    _, report = holdout_select(ambient, *row_split(rewards, split_fraction, seed), classes, lam)
    return report, want, scales


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 400),
    dims=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted),
    split_fraction=st.sampled_from([0.3, 0.5, 0.8, 0.95]),
    lam=st.sampled_from([0.1, 1.0]),
)
# the widest class nearly interpolates its 7 fit rows: 2.6e-12 relative
@example(seed=5330, n=8, dims=[1, 9], split_fraction=0.8, lam=0.1)
def test_counted_holdout_reorders_the_row_subset_arithmetic(seed, n, dims, split_fraction, lam):
    # counted cells over every design row sum the same terms as the row
    # subset in another order: losses agree within their rounding scales, and
    # so does the choice wherever the two lowest losses are not within 1e-9
    n_in = math.ceil(split_fraction * n)
    assume(1 <= n_in < n)
    report, want, scales = _counted_and_row_subset_holdout(seed, n, dims, split_fraction, lam)
    assert losses_agree(report.audit["losses"], want, scales)
    lowest = np.sort(want)[:2]
    if len(lowest) == 1 or lowest[1] - lowest[0] > 1e-9 * lowest[0]:
        assert report.chosen == int(np.argmin(want))


def test_holdout_rounding_bound_refuses_a_1e9_perturbation():
    report, want, scales = _counted_and_row_subset_holdout(0, 200, [3, 8], 0.8, 1.0)
    got = report.audit["losses"]
    assert np.all(scales < 1e-12)
    assert losses_agree(got, want, scales)
    assert not losses_agree(got * (1 + 1e-9), want, scales)


def test_selection_report_json_round_trip():
    inst = make_gaussian_instance(4, 2, 3, 0)
    data = sample_feature_dataset(inst, dirichlet_behavior(3, 0), 200, 0)
    fits, classes = _fit_truncation(inst, data, [2, 4])
    states = sample_states(inst, 100, 1)
    _, report = slope_policy_select(fits, classes, slope_terms(fits, classes, states), 0.05)
    doc = json.loads(report.to_json())
    assert doc["method"] == "Slope"
    assert len(doc["audit"]["widths"]) == 2
