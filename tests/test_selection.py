import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from batchselect.env import (
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
from batchselect.learner import (
    PessimisticLearner,
    PessimisticPolicy,
    beta_coefficient,
)
from batchselect.linalg import CovarianceMatrix, RidgeFit, ridge_fit
from batchselect.selection import (
    Cells,
    SlopeInputs,
    complexity_coverage_policy,
    holdout_select,
    holdout_split_sizes,
    row_split,
    slope_policy_select,
    slope_select,
    zeta_coefficient,
)


class TestSlopeInputs:
    def test_shape_mismatch(self):
        for values, widths in ((np.zeros(3), np.zeros(2)), ([], [])):
            with pytest.raises(ValueError):
                SlopeInputs(values, widths)

    def test_negative_width(self):
        with pytest.raises(ValueError):
            SlopeInputs(np.zeros(2), np.array([0.1, -0.1]))


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
        k, v = slope_select(SlopeInputs(np.array([0.3, 0.3, 0.3]), np.array([0.1, 0.1, 0.1])))
        assert k == 0 and v == 0.3

    def test_hand_enumeration(self):
        k, v = slope_select(
            SlopeInputs(np.array([-0.2, 0.5, 0.6]), np.array([0.05, 0.2, 0.3]))
        )
        assert k == 1 and v == 0.5

    def test_degenerate_disjoint_forces_last(self):
        k, v = slope_select(SlopeInputs(np.array([0.0, 10.0]), np.array([0.0, 0.0])))
        assert k == 1 and v == 10.0

    def test_touching_endpoints_intersect(self):
        # [0,0] and [0, 2] touch at 0: closed intervals intersect
        k, _ = slope_select(SlopeInputs(np.array([0.0, 1.0]), np.array([0.0, 0.5])))
        assert k == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_always_returns_valid_index(self, m, seed):
        rng = np.random.default_rng(seed)
        inputs = SlopeInputs(rng.uniform(-1, 1, m), rng.uniform(0, 0.5, m))
        k, v = slope_select(inputs)
        assert 0 <= k < m and v == inputs.values[k]


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
        _, selected = slope_select(SlopeInputs(vhat, xi))
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
        for learner, fit, mc in zip(policy.learners, fits, classes, strict=True):
            assert learner.fit is fit
            assert learner.beta == beta_coefficient(50, mc.dim, 1.0, 0.05 / 3)
            assert learner.penalty_scale == 0.3

    def test_single_class_matches_pessimistic_policy(self):
        fits, classes = self._toy(n_classes=1)
        policy, _ = complexity_coverage_policy(fits, classes, 0.05)
        learner = PessimisticLearner(fits[0], beta_coefficient(50, 1, 1.0, 0.05))
        single = PessimisticPolicy(learner, classes[0])
        states = StateBatch(indices=np.arange(4))
        assert np.array_equal(policy.actions(states), single.actions(states))

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


def _fit_truncation(instance, data, dims, lam=1.0):
    out = []
    for mc in truncation_family(instance.model.chol_factors.shape[1], dims):
        phi = design_matrix(mc, data.logged, data.actions)
        out.append((ridge_fit(phi, data.rewards, lam), mc))
    return out


class TestSlopePolicySelect:
    def test_single_class_returns_greedy(self):
        inst = make_gaussian_instance(4, 2, 3, 0)
        data = sample_dataset(inst, dirichlet_behavior(3, 0), 200, 0)
        fits = _fit_truncation(inst, data, [4])
        states = sample_states(inst, 100, 1)
        policy, report = slope_policy_select(fits, states, 0.05)
        assert report.chosen == 0
        from batchselect.learner import GreedyPolicy

        greedy = GreedyPolicy(fits[0][0], fits[0][1])
        assert np.array_equal(policy.actions(states), greedy.actions(states))

    def test_non_nested_rejected(self):
        inst = make_tabular_instance(4, 3, 0)
        classes = realizable_family(inst, [2, 3], 0)
        mu = dirichlet_behavior(3, 0)
        data = sample_dataset(inst, mu, 100, 0)
        fits = [
            (ridge_fit(design_matrix(mc, data.states, data.actions), data.rewards, 1.0), mc)
            for mc in classes
        ]
        states = StateBatch(indices=np.zeros(10, dtype=int))
        with pytest.raises(ValueError):
            slope_policy_select(fits, states, 0.05)

    def test_empty_validation_rejected(self):
        inst = make_gaussian_instance(4, 2, 3, 0)
        data = sample_dataset(inst, dirichlet_behavior(3, 0), 50, 0)
        fits = _fit_truncation(inst, data, [2, 4])
        with pytest.raises(ValueError):
            slope_policy_select(fits, None, 0.05)

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
        data = sample_dataset(inst, dirichlet_behavior(3, 0), 50, 0)
        fits = _fit_truncation(inst, data, [2, 4])
        with pytest.raises(error, match=match):
            slope_policy_select(fits, make_states(), 0.05)

    def test_width_monotone_in_class(self):
        inst = make_gaussian_instance(12, 4, 3, 1)
        data = sample_dataset(inst, dirichlet_behavior(3, 1), 500, 1)
        fits = _fit_truncation(inst, data, [3, 6, 9, 12])
        states = sample_states(inst, 200, 2)
        _, report = slope_policy_select(fits, states, 0.05)
        widths = report.audit["widths"]
        assert np.all(np.diff(widths) >= -1e-9)

    def test_audit_reproduces_selection(self):
        inst = make_gaussian_instance(8, 3, 4, 2)
        data = sample_dataset(inst, dirichlet_behavior(4, 2), 400, 2)
        fits = _fit_truncation(inst, data, [2, 5, 8])
        states = sample_states(inst, 150, 3)
        _, report = slope_policy_select(fits, states, 0.05)
        values = report.audit["values"]
        widths = report.audit["widths"]
        for l in range(3):
            k, _ = slope_select(SlopeInputs(values[:, l], widths))
            assert k == report.audit["khat_per_policy"][l]
        assert report.chosen == int(np.argmax(report.audit["vhat_per_policy"]))

    def test_estimate_close_to_true_value(self):
        # nested truncation toy: selected value near the true value of the
        # chosen policy, within the generic 5*(psi+xi) radius
        inst = make_gaussian_instance(4, 2, 3, 7)
        data = sample_dataset(inst, dirichlet_behavior(3, 7), 2000, 7)
        fits = _fit_truncation(inst, data, [2, 4])
        states = sample_states(inst, 500, 8)
        policy, report = slope_policy_select(fits, states, 0.05)
        big = sample_states(inst, 50_000, 9)
        means = inst.mean_rewards(big)
        true_value = means[np.arange(len(big)), policy.actions(big)].mean()
        widths = report.audit["widths"]
        chosen_l = report.chosen
        vhat = report.audit["vhat_per_policy"][chosen_l]
        # psi_k: population bias of each class's plug-in value for this policy
        psi = []
        rows, acts = np.arange(len(big)), policy.actions(big)
        for fit, mc in fits:
            phi = features_all_actions(mc, big)[rows, acts]
            psi.append(abs((phi @ fit.theta_hat).mean() - true_value))
        assert abs(vhat - true_value) <= 5 * np.min(np.array(psi) + widths) + 0.02


def _holdout(data, classes, split_fraction, lam, seed):
    """holdout_select on each class's design over the dataset's rows, split as ac splits them."""
    designs = [design_matrix(mc, data.logged, data.actions) for mc in classes]
    fit_on, score_on = row_split(data.rewards, split_fraction, seed)
    return holdout_select(designs, fit_on, score_on, classes, lam)


class TestHoldoutSelect:
    def test_zero_rewards_tie_to_first(self):
        inst = make_gaussian_instance(6, 3, 3, 0)
        data = sample_dataset(inst, dirichlet_behavior(3, 0), 100, 0)
        data.rewards[:] = 0.0
        classes = truncation_family(6, [2, 4, 6])
        _, report = _holdout(data, classes, 0.8, 1.0, 0)
        assert report.chosen == 0
        assert np.allclose(report.audit["losses"], report.audit["losses"][0])

    def test_noise_free_realizable_class_wins(self):
        import dataclasses

        inst = dataclasses.replace(make_gaussian_instance(6, 6, 3, 1), noise_scale=0.0)
        data = sample_dataset(inst, dirichlet_behavior(3, 1), 300, 1)
        classes = truncation_family(6, [2, 6])
        _, report = _holdout(data, classes, 0.8, 1e-8, 0)
        losses = report.audit["losses"]
        assert losses[1] < losses[0]
        assert report.chosen == 1

    def test_matches_independent_recomputation(self):
        inst = make_gaussian_instance(9, 4, 3, 2)
        data = sample_dataset(inst, dirichlet_behavior(3, 2), 1000, 2)
        classes = truncation_family(9, [3, 6, 9])
        _, report = _holdout(data, classes, 0.8, 1.0, 5)
        from batchselect.env import rng_stream

        perm = rng_stream(5, "holdout-split").permutation(1000)
        n_in = math.ceil(0.8 * 1000)
        halves = []
        for rows in (perm[:n_in], perm[n_in:]):
            halves.append((data.logged[rows], data.actions[rows], data.rewards[rows]))
        (s_in, a_in, r_in), (s_out, a_out, r_out) = halves
        for k, mc in enumerate(classes):
            fit = ridge_fit(design_matrix(mc, s_in, a_in), r_in, 1.0)
            pred = design_matrix(mc, s_out, a_out) @ fit.theta_hat
            loss = np.mean((pred - r_out) ** 2)
            assert report.audit["losses"][k] == pytest.approx(loss, rel=1e-12)
        assert report.chosen == int(np.argmin(report.audit["losses"]))

    def test_rounding_does_not_break_ties(self):
        # Hard pair, n1 = 16, n2 = 3: when no arm-1 row is held out, both
        # classes predict every held-out row by the same arm-0 ridge mean,
        # so their losses agree up to rounding and class 0 must be chosen.
        from batchselect.env import rng_stream
        from batchselect.hard_instance import build_hard_pair
        from batchselect.selection import HOLDOUT_TIE_RTOL

        pair = build_hard_pair(16, 3)
        actions = np.repeat([0, 1], [16, 3])
        means = pair.instances[0].model.means[0][actions]
        noise = np.random.default_rng(1).standard_normal(pair.n)
        perm = rng_stream(0, "holdout-split").permutation(pair.n)
        assert not actions[perm[math.ceil(0.8 * pair.n):]].any()
        designs = [table[actions] for table in pair.tables]
        fit_on, score_on = row_split(means + noise, 0.8, 0)
        _, report = holdout_select(designs, fit_on, score_on, list(pair.classes), 1.0)
        losses = report.audit["losses"]
        assert losses[1] != losses[0]
        assert abs(losses[1] - losses[0]) <= HOLDOUT_TIE_RTOL * losses.min()
        assert report.chosen == 0

    def test_split_validation(self):
        inst = make_gaussian_instance(4, 2, 2, 0)
        data = sample_dataset(inst, dirichlet_behavior(2, 0), 10, 0)
        classes = truncation_family(4, [4])
        with pytest.raises(ValueError):
            _holdout(data, classes, 1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda designs: designs[:1],
            lambda designs: designs + designs[:1],
            lambda designs: [designs[0], np.vstack([designs[1], designs[1][:1]])],
            lambda designs: [designs[0], designs[1][:-1]],
            lambda designs: [designs[0], designs[1][:, :-1]],
            lambda designs: [np.vstack([phi, phi[:1]]) for phi in designs],
            lambda designs: [phi[:-1] for phi in designs],
        ],
        ids=[
            "fewer_designs",
            "more_designs",
            "extra_row",
            "missing_row",
            "narrow_design",
            "extra_row_all",
            "missing_row_all",
        ],
    )
    def test_mismatched_designs_rejected(self, mangle):
        # an extra row would otherwise be cut off silently, an extra design
        # dropped, and a missing one leave a class unscored
        inst = make_gaussian_instance(4, 2, 3, 0)
        data = sample_dataset(inst, dirichlet_behavior(3, 0), 20, 0)
        classes = truncation_family(4, [2, 4])
        designs = [design_matrix(mc, data.logged, data.actions) for mc in classes]
        with pytest.raises(ValueError, match="design"):
            holdout_select(mangle(designs), *row_split(data.rewards, 0.8, 0), classes, 1.0)

    def test_out_sample_loss_permutation_invariant(self):
        # the loss is a mean over D_out; row order inside D_out cannot matter
        inst = make_gaussian_instance(5, 2, 3, 4)
        data = sample_dataset(inst, dirichlet_behavior(3, 4), 500, 4)
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
                holdout_select([np.eye(3)], fit_on, score_on, classes, 1.0)


def row_subset_holdout_losses(designs, rewards, split_fraction, rng_seed, lam):
    """Hold-out's losses as it computed them on logged rows before it took
    counted cells: each class fit on the split's fit rows, gathered by
    np.take, and scored by its mean squared residual on the held-out rows."""
    n_in, _ = holdout_split_sizes(len(rewards), split_fraction)
    perm = rng_stream(rng_seed, "holdout-split").permutation(len(rewards))
    rows_in, rows_out = perm[:n_in], perm[n_in:]
    losses = []
    for phi in designs:
        fit = ridge_fit(np.take(phi, rows_in, axis=0), np.take(rewards, rows_in), lam)
        residual = np.take(phi, rows_out, axis=0) @ fit.theta_hat - np.take(rewards, rows_out)
        losses.append(np.mean(residual**2))
    return np.array(losses)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 400),
    dims=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted),
    split_fraction=st.sampled_from([0.3, 0.5, 0.8, 0.95]),
    lam=st.sampled_from([0.1, 1.0]),
)
def test_counted_holdout_reorders_the_row_subset_arithmetic(seed, n, dims, split_fraction, lam):
    # counted cells over every design row sum the same terms as the row
    # subset in another order: losses agree to 1e-12 relative, and so does
    # the choice wherever the two lowest losses are not within 1e-9
    n_in = math.ceil(split_fraction * n)
    assume(1 <= n_in < n)
    rng = np.random.default_rng(seed)
    ambient = rng.standard_normal((n, dims[-1]))
    rewards = ambient @ rng.standard_normal(dims[-1]) + rng.standard_normal(n)
    designs = [ambient[:, :d] for d in dims]
    classes = truncation_family(dims[-1], dims)
    want = row_subset_holdout_losses(designs, rewards, split_fraction, seed, lam)
    _, report = holdout_select(designs, *row_split(rewards, split_fraction, seed), classes, lam)
    got = report.audit["losses"]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    lowest = np.sort(want)[:2]
    if len(lowest) == 1 or lowest[1] - lowest[0] > 1e-9 * lowest[0]:
        assert report.chosen == int(np.argmin(want))


def test_selection_report_json_round_trip():
    inst = make_gaussian_instance(4, 2, 3, 0)
    data = sample_dataset(inst, dirichlet_behavior(3, 0), 200, 0)
    fits = _fit_truncation(inst, data, [2, 4])
    states = sample_states(inst, 100, 1)
    _, report = slope_policy_select(fits, states, 0.05)
    doc = json.loads(report.to_json())
    assert doc["method"] == "Slope"
    assert len(doc["audit"]["widths"]) == 2
