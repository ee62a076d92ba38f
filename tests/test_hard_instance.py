import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from batchselect import experiments, features, hard_instance, linalg
from batchselect.env import Cells, StateBatch, derive_seed, rng_stream
from batchselect.features import check_nested
from batchselect.hard_instance import (
    ALGORITHMS,
    HOLDOUT_SPLIT,
    RatioResult,
    build_hard_pair,
    oracle_denominator,
    ratio_experiment,
    ratio_results_to_csv,
)
from batchselect.linalg import inv_quad_norms, ridge_fit
from batchselect.selection import (
    complexity_coverage_policy,
    holdout_select,
    holdout_split_sizes,
    slope_policy_select,
    slope_terms,
)
from feature_rows import row_split
from row_design import tabular_design


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
            actions = np.repeat([0, 1], [n1, n2])
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

    def test_cell_tables_and_counts(self):
        pair = build_hard_pair(7, 3)
        assert [t.tolist() for t in pair.tables] == [[[1.0], [0.0]], [[1.0, 0.0], [0.0, 1.0]]]
        assert pair.counts.tolist() == [7, 3]
        for table, mc in zip(pair.tables, pair.classes):  # row a is arm a's feature vector
            assert np.array_equal(table, tabular_design(mc, StateBatch(indices=[0, 0]), [0, 1]))

    def test_hard_pair_arm_one_norm_bound(self):
        # n1 samples of arm 0: |phi_1(a_0)|_{V^{-1}} <= sqrt(n/n1)
        pair = build_hard_pair(n1=8, n2=24)
        actions = np.repeat([0, 1], [pair.n1, pair.n2])
        states = StateBatch(indices=np.zeros(pair.n, dtype=int))
        mc1 = pair.classes[0]
        phi = tabular_design(mc1, states, actions)
        means = pair.instances[0].model.means[0][actions]
        fit = ridge_fit(phi, means, lam=1e-12)
        arm_zero = tabular_design(mc1, StateBatch(indices=[0]), np.array([0]))
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
        ALGORITHMS["const0"] = (
            lambda pair, rng_seed, trials: 2 * trials,  # the call's trial count
            lambda columns, *args: np.zeros(columns, dtype=int),
        )
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

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize(
        "bad", [{"delta": 0.9}, {"delta": -3}, {"lam": -1.0}, {"penalty_scale": -1}]
    )
    def test_arguments_checked_for_every_algorithm_before_drawing(
        self, monkeypatch, algorithm, bad
    ):
        # hold-out reads neither delta nor penalty_scale, but it is refused the
        # same arguments as cc and SLOPE, and no trial is drawn first
        def no_draws(*args):
            raise AssertionError("drew a trial before checking the arguments")

        monkeypatch.setattr(hard_instance, "rng_stream", no_draws)
        with pytest.raises(ValueError, match="delta|lambda|penalty_scale"):
            ratio_experiment(algorithm, 16, 16, trials=2, rng_seed=0, **bad)

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


def test_trial_draws_count_every_row():
    pair = build_hard_pair(40, 9)
    n_in, n_out = holdout_split_sizes(pair.n, HOLDOUT_SPLIT)
    fit_on, score_on = hard_instance._draw_split(pair, 2, 50)
    assert fit_on.n.tolist() == [n_in] * 100 and score_on.n.tolist() == [n_out] * 100
    assert np.array_equal(fit_on.counts + score_on.counts, np.repeat(pair.counts[:, None], 100, 1))
    assert np.all(fit_on.within == 0.0)
    empty = np.concatenate([fit_on.counts, score_on.counts]) == 0
    assert np.all(np.concatenate([fit_on.means, score_on.means])[empty] == 0.0)
    # a held-out side of one row per arm has no within-cell spread
    small = build_hard_pair(4, 4)
    _, score_on = hard_instance._draw_split(small, 0, 1)
    assert score_on.n.tolist() == [1, 1] and np.all(score_on.within == 0.0)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_trial_memory_does_not_grow_with_n1(algorithm):
    # 2**29 rows of arm 0 would take gigabytes as a design or as reward draws
    ratio_experiment(algorithm, 16, 16, trials=1, rng_seed=0)  # first-call imports and caches
    tracemalloc.start()
    try:
        result = ratio_experiment(algorithm, 2**29, 16, trials=3, rng_seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert result.denominator > 0


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_batch_memory_is_a_few_arrays_per_trial(algorithm):
    # 4000 trials stack as a few (2, 4000) arrays of 64 KB; holding every
    # trial's generator at once would take over 4 MB
    ratio_experiment(algorithm, 16, 16, trials=1, rng_seed=0)
    tracemalloc.start()
    try:
        ratio_experiment(algorithm, 1024, 16, trials=2000, rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# The row-level hard pair, as the study ran before trials drew per-cell
# statistics: a trial draws all n1 + n2 reward rows, fits each class on its
# (n, d_k) design, and hold-out splits the rows by a seeded permutation.  It
# is the reference for the cell path: test_row_reference_reproduces_its_goldens
# pins it to that path's results.csv bytes, the tests below check that the
# cell selectors only reorder its arithmetic, and scripts/compare_cell_draws.py
# compares the two draws in distribution.
def row_designs(pair):
    """The logged rows' actions, n1 of arm 0 then n2 of arm 1, and each class's design on them."""
    actions = np.repeat([0, 1], [pair.n1, pair.n2])
    return actions, [table[actions] for table in pair.tables]


def row_trial(pair, actions, i, t, rng_seed):
    """Trial t's reward rows on instance i, and hold-out's split seed."""
    rewards = rng_stream(rng_seed, f"lb-rewards-nu{i + 1}", t).standard_normal(pair.n)
    rewards += pair.instances[i].model.means[0][actions]
    return rewards, derive_seed(rng_seed, f"lb-algo-nu{i + 1}", t)


def _row_fits(designs, rewards, lam):
    return [ridge_fit(phi, rewards, lam) for phi in designs]


def _row_cc(designs, rewards, split_seed, classes, delta, lam, penalty_scale):
    fits = _row_fits(designs, rewards, lam)
    return complexity_coverage_policy(fits, classes, delta, penalty_scale)[0]


def _row_slope(designs, rewards, split_seed, classes, delta, lam, penalty_scale):
    fits = _row_fits(designs, rewards, lam)
    terms = slope_terms(fits, classes, StateBatch(indices=[0]))
    return slope_policy_select(fits, classes, terms, delta, penalty_scale)[0]


def _row_holdout(designs, rewards, split_seed, classes, delta, lam, penalty_scale):
    fit_on, score_on = row_split(rewards, HOLDOUT_SPLIT, split_seed)
    return holdout_select(designs[-1], fit_on, score_on, classes, lam)[0]


ROW_SELECT = {"cc": _row_cc, "slope": _row_slope, "holdout": _row_holdout}


def row_ratio_experiment(
    algorithm, n1, n2, trials, rng_seed, delta=0.05, lam=1.0, penalty_scale=1.0
) -> RatioResult:
    """`ratio_experiment` on the row-level path."""
    pair = build_hard_pair(n1, n2)
    actions, designs = row_designs(pair)
    classes = list(pair.classes)
    mean_regrets, se_regrets = [], []
    for i, inst in enumerate(pair.instances):
        arm_means = inst.model.means[0]
        regrets = np.empty(trials)
        for t in range(trials):
            rewards, split_seed = row_trial(pair, actions, i, t, rng_seed)
            policy = ROW_SELECT[algorithm](
                designs, rewards, split_seed, classes, delta, lam, penalty_scale
            )
            act = int(policy.actions(StateBatch(indices=[0]))[0])
            regrets[t] = arm_means.max() - arm_means[act]
        mean_regrets.append(float(regrets.mean()))
        se_regrets.append(float(regrets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0)
    denominator = max(oracle_denominator(pair, 0), oracle_denominator(pair, 1))
    return RatioResult(
        algorithm, n1, n2, trials, *mean_regrets, denominator, max(mean_regrets) / denominator,
        *se_regrets,
    )


def reduce_rows(pair, actions, rewards, split_seed):
    """The row trial as cell statistics: each arm's mean reward, and hold-out's
    (fit, held-out) cells of the same permutation split, deviations included."""
    means = np.array([rewards[actions == a].mean() for a in (0, 1)])
    if math.ceil(HOLDOUT_SPLIT * pair.n) == pair.n:  # no split to reduce
        return means, None
    sides = []
    for side in row_split(rewards, HOLDOUT_SPLIT, split_seed):
        rows = [side.means[(side.counts > 0) & (actions == a)] for a in (0, 1)]
        cell_means = np.array([r.mean() if r.size else 0.0 for r in rows])
        within = float(sum(((r - m) ** 2).sum() for r, m in zip(rows, cell_means)))
        sides.append(Cells(cell_means, counts=[r.size for r in rows], within=within))
    return means, tuple(sides)


# The per-dataset reference for the batch: one trial's cell statistics,
# drawn as the module docstring orders them, selected by the per-dataset
# entry points.  `ratio_experiment` ran every trial this way before its
# trials were selected as one batch.
def _draw_means(rng, counts, instance):
    noise = instance.noise_scale * rng.standard_normal(2) / np.sqrt(np.maximum(counts, 1))
    return np.where(counts > 0, instance.model.means[0] + noise, 0.0)


def trial_draw(algorithm, pair, i, t, rng_seed):
    """Trial t's draw on instance i: the arm cell means, or hold-out's split."""
    rng = rng_stream(rng_seed, f"lb-cells-nu{i + 1}", t)
    inst = pair.instances[i]
    if algorithm != "holdout":
        return _draw_means(rng, pair.counts, inst)
    n_in, _ = holdout_split_sizes(pair.n, HOLDOUT_SPLIT)
    arm_0 = int(rng.hypergeometric(pair.n1, pair.n2, n_in))
    counts_in = np.array([arm_0, n_in - arm_0])
    counts_out = pair.counts - counts_in
    means_in = _draw_means(rng, counts_in, inst)
    means_out = _draw_means(rng, counts_out, inst)
    df = int(np.maximum(counts_out - 1, 0).sum())
    within = inst.noise_scale**2 * float(rng.chisquare(df)) if df > 0 else 0.0
    return Cells(means_in, counts_in), Cells(means_out, counts_out, within)


def _cell_fits(means, pair, lam):
    return [ridge_fit(table, means, lam, pair.counts) for table in pair.tables]


def _cell_cc(means, pair, delta, lam, penalty_scale):
    fits = _cell_fits(means, pair, lam)
    return complexity_coverage_policy(fits, list(pair.classes), delta, penalty_scale)[0]


def _cell_slope(means, pair, delta, lam, penalty_scale):
    fits = _cell_fits(means, pair, lam)
    classes = list(pair.classes)
    terms = slope_terms(fits, classes, pair.state)
    return slope_policy_select(fits, classes, terms, delta, penalty_scale)[0]


def _cell_holdout(split, pair, delta, lam, penalty_scale):
    fit_on, score_on = split
    return holdout_select(pair.tables[-1], fit_on, score_on, list(pair.classes), lam)[0]


CELL_SELECT = {"cc": _cell_cc, "slope": _cell_slope, "holdout": _cell_holdout}


def _thetas(policy):
    fits = getattr(policy, "fits", None)
    return [fit.theta_hat for fit in fits] if fits else [policy.fit.theta_hat]


def assert_cells_reorder_rows(algorithm, pair, i, t, rng_seed, penalty_scale):
    """The cell selector on the reduced row trial picks the row selector's
    action, with theta within 1e-12 relative to the largest reward.

    Entry a of theta is a sum of arm a's rewards over n_a + lambda on both
    paths, so each rounds it by at most about n_a eps sum|r_i| / (n_a + lambda)
    <= n eps max|r|, and n eps < 2.4e-13 at the n <= 1040 tested here.  The
    tolerance scales with the rewards, not with theta, which a mean that
    nearly cancels makes arbitrarily small."""
    actions, designs = row_designs(pair)
    rewards, split_seed = row_trial(pair, actions, i, t, rng_seed)
    args = (0.05, 1.0, penalty_scale)
    want = ROW_SELECT[algorithm](designs, rewards, split_seed, list(pair.classes), *args)
    means, split = reduce_rows(pair, actions, rewards, split_seed)
    stats = split if algorithm == "holdout" else means
    got = CELL_SELECT[algorithm](stats, pair, *args)
    state = StateBatch(indices=[0])
    assert got.actions(state).tolist() == want.actions(state).tolist()
    scale = np.abs(rewards).max()
    for theta, ref in zip(_thetas(got), _thetas(want), strict=True):
        np.testing.assert_allclose(theta, ref, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("algorithm", sorted(CELL_SELECT))
@pytest.mark.parametrize("n1, n2", [(16, 16), (1024, 16)])
@pytest.mark.parametrize("seed", [0, 1])
def test_fixed_design_cells_equal_per_trial_fits(algorithm, n1, n2, seed):
    pair = build_hard_pair(n1, n2)
    for i in (0, 1):
        for t in range(5):
            assert_cells_reorder_rows(algorithm, pair, i, t, seed, penalty_scale=0.5)


@settings(max_examples=150, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(CELL_SELECT)),
    n1=st.integers(1, 200),
    n2=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    instance=st.sampled_from([0, 1]),
    penalty_scale=st.sampled_from([0.1, 1.0]),
)
# theta is 8.9e-6 here, and the paths differ by 3.3e-17 in its rounding
@example(algorithm="cc", n1=132, n2=132, seed=11115813, instance=1, penalty_scale=0.1)
def test_cell_selectors_reorder_the_row_arithmetic(
    algorithm, n1, n2, seed, instance, penalty_scale
):
    pair = build_hard_pair(n1, n2)
    assume(algorithm != "holdout" or math.ceil(HOLDOUT_SPLIT * pair.n) < pair.n)
    assert_cells_reorder_rows(algorithm, pair, instance, 0, seed, penalty_scale)


# The lower_bound goldens of tests/test_experiments_cli.py as the row-level path pinned them.
ROW_GOLDEN = [
    (["cc", "holdout"], "8472da8b43f5d03465ac01c22a3589e5bdad75b466038b96b8941c2c312dd472"),
    (
        ["cc", "slope", "holdout"],
        "39ac615e0e34a0ddad5bd1411be0f22a44e1658fc6cab87ef4aad9acc4b7d86b",
    ),
]


@pytest.mark.parametrize("algorithms, digest", ROW_GOLDEN)
def test_row_reference_reproduces_its_goldens(monkeypatch, algorithms, digest):
    monkeypatch.setattr(experiments, "ratio_experiment", row_ratio_experiment)
    lower_bound = {"n1": [16, 64], "n2": 16, "algorithms": algorithms}
    config = experiments.parse_config(
        {"experiment": "lower_bound", "trials": 20, "seed": 3, "lower_bound": lower_bound}
    )
    text = ratio_results_to_csv(experiments.run_lower_bound(config, threads=1)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _count_builds(monkeypatch):
    """Count CovarianceMatrix constructions and design_matrix calls."""
    counts = {"cov": 0, "design": 0}
    init = linalg.CovarianceMatrix.__init__
    design = features.design_matrix

    def counting_init(self, *args, **kwargs):
        counts["cov"] += 1
        init(self, *args, **kwargs)

    def counting_design(*args, **kwargs):
        counts["design"] += 1
        return design(*args, **kwargs)

    monkeypatch.setattr(linalg.CovarianceMatrix, "__init__", counting_init)
    for module in (features, experiments):
        monkeypatch.setattr(module, "design_matrix", counting_design)
    return counts


# CovarianceMatrix builds per call of 5 trials on each of 2 instances with 2
# nested classes: cc and SLOPE build class 2's once and fit every trial on it,
# class 1's being its leading block; hold-out builds class 2's once per
# distinct fit-side count of its trials
@pytest.mark.parametrize("algorithm", ["cc", "slope", "holdout"])
def test_fixed_design_cell_builds_each_family_once(monkeypatch, algorithm):
    fit_on, _ = hard_instance._draw_split(build_hard_pair(64, 16), 0, 5)
    splits = np.unique(fit_on.counts[0]).size
    builds = {"cc": 1, "slope": 1, "holdout": splits}
    counts = _count_builds(monkeypatch)
    ratio_experiment(algorithm, 64, 16, trials=5, rng_seed=0)
    assert counts == {"cov": builds[algorithm], "design": 0}
    assert 1 < splits < 10


@pytest.mark.parametrize("algorithm", ["cc", "slope", "holdout"])
def test_ridge_fits_do_not_grow_with_trials(monkeypatch, algorithm):
    # cc and SLOPE fit the family once per call; hold-out once per fit-side
    # count, and the arm-1 count takes at most n2 + 1 values
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return ridge_fit(*args, **kwargs)

    monkeypatch.setattr(hard_instance, "ridge_fit", counting_fit)
    for trials in (1, 50):
        calls.clear()
        ratio_experiment(algorithm, 64, 4, trials=trials, rng_seed=0)
        assert len(calls) == 1 if algorithm != "holdout" else 1 <= len(calls) <= 4 + 1


def batch_thetas(algorithm, draws, pair, lam):
    """Each class's theta, shape (d_k, 2 trials), as the batch fits a call's
    draws: cc and SLOPE all at once, hold-out once per fit-side arm-0 count."""
    if algorithm != "holdout":
        return [fit.theta_hat for fit in hard_instance._fits(draws, pair, lam)]
    fit_on = draws[0]
    thetas = [np.empty((mc.dim, fit_on.means.shape[1])) for mc in pair.classes]
    for arm_0 in np.unique(fit_on.counts[0]):
        cols = fit_on.counts[0] == arm_0
        counts = fit_on.counts[:, np.argmax(cols)]
        for theta, table in zip(thetas, pair.tables):
            theta[:, cols] = ridge_fit(table, fit_on.means[:, cols], lam, counts).theta_hat
    return thetas


@settings(max_examples=120, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(CELL_SELECT)),
    n1=st.integers(1, 2**20),
    n2=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    instance=st.sampled_from([0, 1]),
    penalty_scale=st.sampled_from([0.0, 0.1, 1.0, 3.0]),
    trials=st.integers(1, 6),
)
def test_batch_selects_as_the_per_dataset_entry_points(
    algorithm, n1, n2, seed, instance, penalty_scale, trials
):
    # every trial of the batch gets the draw, the action and the bits of each
    # class's theta that its own per-dataset selection gives it
    pair = build_hard_pair(n1, n2)
    assume(algorithm != "holdout" or math.ceil(HOLDOUT_SPLIT * pair.n) < pair.n)
    draw, select = ALGORITHMS[algorithm]
    draws = draw(pair, seed, trials)
    actions = select(draws, pair, 0.05, 1.0, penalty_scale)
    thetas = batch_thetas(algorithm, draws, pair, 1.0)
    for t in range(trials):
        col = instance * trials + t
        one = trial_draw(algorithm, pair, instance, t, seed)
        if algorithm == "holdout":
            for side, ref in zip(draws, one):
                assert side.means[:, col].tobytes() == ref.means.tobytes()
                assert side.counts[:, col].tobytes() == ref.counts.tobytes()
                assert np.broadcast_to(side.within, side.n.shape)[col] == ref.within
        else:
            assert draws[:, col].tobytes() == one.tobytes()
        policy = CELL_SELECT[algorithm](one, pair, 0.05, 1.0, penalty_scale)
        assert policy.actions(pair.state).tolist() == [actions[col]]
        # every class's per-dataset fit, of which the policy keeps the chosen ones
        if algorithm == "holdout":
            fit_on = one[0]
            refs = [ridge_fit(t, fit_on.means, 1.0, counts=fit_on.counts) for t in pair.tables]
        else:
            refs = _cell_fits(one, pair, 1.0)
        refs = [ref.theta_hat.tobytes() for ref in refs]
        assert {theta.tobytes() for theta in _thetas(policy)} <= set(refs)
        assert [theta[:, col].tobytes() for theta in thetas] == refs
