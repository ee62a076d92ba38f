import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from batchselect import env, experiments
from batchselect.env import (
    BanditInstance,
    BehaviorPolicy,
    GaussianModel,
    InfiniteCoverageError,
    StateBatch,
    TabularModel,
    dirichlet_behavior,
    make_gaussian_instance,
    make_tabular_instance,
    rng_stream,
    sample_dataset,
    sample_split_cells,
    sample_states,
    state_chunks,
)
from batchselect.features import truncation_family
from batchselect.linalg import ridge_fit
from batchselect.selection import holdout_select
from feature_rows import (
    FeatureDataset,
    qr_compressed,
    row_probe_quantile,
    row_split,
    sample_feature_dataset,
)
from row_design import TabularRows, row_sample_dataset, sample_rows


class TestDirichletBehavior:
    def test_simplex(self):
        mu = dirichlet_behavior(2, 0)
        assert np.all(mu.action_probs > 0)
        assert mu.action_probs.sum() == pytest.approx(1.0)

    def test_deterministic(self):
        a = dirichlet_behavior(4, 42).action_probs
        b = dirichlet_behavior(4, 42).action_probs
        assert np.array_equal(a, b)

    def test_symmetry_monte_carlo(self):
        draws = np.array([dirichlet_behavior(10, s).action_probs for s in range(2000)])
        assert np.max(np.abs(draws.mean(axis=0) - 0.1)) < 0.01

    def test_too_few_actions(self):
        with pytest.raises(ValueError):
            dirichlet_behavior(1, 0)


class TestMakeTabularInstance:
    def test_rescaled_to_unit_max(self):
        inst = make_tabular_instance(5, 3, 1)
        assert np.max(np.abs(inst.model.means)) == pytest.approx(1.0)

    def test_paper_scale_table(self):
        inst = make_tabular_instance(20, 10, 2)
        assert inst.model.means.size == 200

    def test_deterministic(self):
        a = make_tabular_instance(4, 4, 9).model.means
        b = make_tabular_instance(4, 4, 9).model.means
        assert np.array_equal(a, b)


class TestMakeGaussianInstance:
    def test_full_support_boundary(self):
        inst = make_gaussian_instance(6, 6, 3, 0)
        assert np.all(inst.model.theta_true != 0)

    def test_sparse_support(self):
        inst = make_gaussian_instance(100, 30, 5, 0)
        assert np.all(inst.model.theta_true[30:] == 0)
        assert np.any(inst.model.theta_true[:30] != 0)

    def test_rescaling_keeps_most_means_bounded(self):
        inst = make_gaussian_instance(20, 10, 4, 3)
        states = sample_states(inst, 10_000, 77)
        means = inst.mean_rewards(states)
        frac = np.mean(np.abs(means) <= 1.0)
        assert frac >= 0.98

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            make_gaussian_instance(5, 6, 2, 0)

    def test_no_actions_refused_before_any_draw(self, monkeypatch):
        # numpy's probe draw used to fail with "high <= 0" after every factor was drawn
        def no_draws(*args):
            raise AssertionError("drew before checking action_count")

        monkeypatch.setattr(env, "rng_stream", no_draws)
        with pytest.raises(ValueError, match="action_count"):
            make_gaussian_instance(4, 2, 0, 0)


class TestSampleDataset:
    """The tabular draw: each (x, a) cell's count and mean reward, and the
    within-cell sum of squares, drawn from their law."""

    def test_zero_noise_cell_means_equal_f(self):
        # 100 rows over 200 cells leave most cells empty
        inst = dataclasses.replace(make_tabular_instance(20, 10, 0), noise_scale=0.0)
        cells = sample_dataset(inst, dirichlet_behavior(10, 0), 100, 1)
        full = cells.counts > 0
        assert 0 < np.count_nonzero(full) < full.size
        assert cells.means[full].tobytes() == inst.model.means.reshape(-1)[full].tobytes()
        assert np.all(cells.means[~full] == 0.0)
        assert cells.within == 0.0

    def test_count_marginals_match_state_law_and_mu(self):
        # each marginal's total-variation distance from its law has standard
        # deviation below 0.002 at n = 10^5, so 0.01 is over five of them
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        inst = BanditInstance(3, TabularModel(probs, np.zeros((4, 3))))
        mu = dirichlet_behavior(3, 5)
        n = 100_000
        counts = sample_dataset(inst, mu, n, 2).counts.reshape(4, 3)
        assert counts.sum() == n
        assert 0.5 * np.abs(counts.sum(axis=1) / n - probs).sum() < 0.01
        assert 0.5 * np.abs(counts.sum(axis=0) / n - mu.action_probs).sum() < 0.01

    def test_row_count(self):
        inst = make_tabular_instance(3, 3, 0)
        data = sample_dataset(inst, dirichlet_behavior(3, 0), 17, 0)
        assert data.n == 17

    def test_within_and_means_moments(self):
        # given the counts, within - sigma^2 (n - k) has mean 0 and variance
        # 2 sigma^4 (n - k), k the non-empty cells, and each non-empty cell's
        # (mean - f) sqrt(c) / sigma is a standard normal
        sigma, mu, n, draws = 0.7, dirichlet_behavior(3, 1), 40, 2000
        inst = dataclasses.replace(make_tabular_instance(4, 3, 0), noise_scale=sigma)
        f = inst.model.means.reshape(-1)
        gaps, variances, z = [], [], []
        for seed in range(draws):
            cells = sample_dataset(inst, mu, n, seed)
            full = cells.counts > 0
            df = n - np.count_nonzero(full)
            gaps.append(cells.within - sigma**2 * df)
            variances.append(2 * sigma**4 * df)
            z.append((cells.means[full] - f[full]) * np.sqrt(cells.counts[full]) / sigma)
        assert abs(np.mean(gaps)) <= 4 * np.sqrt(np.sum(variances)) / draws
        z = np.concatenate(z)
        assert abs(z.mean()) <= 4 / np.sqrt(z.size)
        assert stats.kstest(z, "norm").pvalue > 1e-3

    def test_matches_binned_rows_in_law(self):
        # the draw against n rows drawn and binned (tests/row_design.py), on
        # 2000 seeds each, disjoint so that the two samples are independent:
        # a cell's count, its mean reward (0.0 when empty) and the within-cell
        # sum of squares
        inst = dataclasses.replace(make_tabular_instance(2, 2, 0), noise_scale=0.5)
        mu, n = dirichlet_behavior(2, 3), 12
        draws = {"cell": [], "row": []}
        for seed in range(2000):
            draws["cell"].append(sample_dataset(inst, mu, n, seed))
            draws["row"].append(row_sample_dataset(inst, mu, n, seed + 10**6))
        for statistic in (
            lambda c: c.counts[1],
            lambda c: c.means[1],
            lambda c: c.within,
        ):
            cell, row = ([statistic(c) for c in draws[k]] for k in ("cell", "row"))
            assert stats.ks_2samp(cell, row).pvalue > 1e-3

    def test_deterministic(self):
        inst = make_tabular_instance(4, 3, 0)
        a, b = (sample_dataset(inst, dirichlet_behavior(3, 0), 60, 4) for _ in range(2))
        assert a.counts.tobytes() == b.counts.tobytes()
        assert a.means.tobytes() == b.means.tobytes() and a.within == b.within

    def test_row_count_must_be_positive(self):
        with pytest.raises(ValueError, match="n must be positive"):
            sample_dataset(make_tabular_instance(2, 2, 0), dirichlet_behavior(2, 0), 0, 0)

    def test_noise_independent_of_behavior_policy(self):
        # counts and reward noise consume disjoint substreams, so two behavior
        # policies on one seed give each cell the same standard normal
        inst = make_tabular_instance(5, 4, 0)
        d1 = sample_dataset(inst, dirichlet_behavior(4, 1), 200, 9)
        d2 = sample_dataset(inst, dirichlet_behavior(4, 2), 200, 9)
        assert not np.array_equal(d1.counts, d2.counts)
        f = inst.model.means.reshape(-1)
        both = (d1.counts > 0) & (d2.counts > 0)
        z1 = (d1.means - f)[both] * np.sqrt(d1.counts[both])
        z2 = (d2.means - f)[both] * np.sqrt(d2.counts[both])
        # equality only up to float round-off
        assert np.allclose(z1, z2, atol=1e-12)

    def test_feature_instance_refused(self):
        inst = make_gaussian_instance(6, 3, 2, 0)
        with pytest.raises(ValueError, match="sample_split_cells"):
            sample_dataset(inst, dirichlet_behavior(2, 0), 20, 0)

    def test_row_reference_matches_the_all_action_reference(self):
        # the tests' tabular rows keep the form and the bytes of the sampler
        # that drew every action's means
        inst = make_tabular_instance(5, 4, 0)
        mu = dirichlet_behavior(4, 1)
        got, ref = sample_rows(inst, mu, 300, 3), all_action_dataset(inst, mu, 300, 3)
        assert np.array_equal(got.states.indices, ref.states.indices)
        assert np.array_equal(got.actions, ref.actions)
        assert got.rewards.tobytes() == ref.rewards.tobytes()

    def test_behavior_over_another_action_count(self):
        inst = make_gaussian_instance(6, 3, 4, 0)
        with pytest.raises(ValueError, match="3 actions.* 4"):
            sample_split_cells(inst, dirichlet_behavior(3, 0), 20, 16, 0)
        with pytest.raises(ValueError, match="3 actions.* 4"):
            sample_dataset(make_tabular_instance(2, 4, 0), dirichlet_behavior(3, 0), 20, 0)


def all_action_dataset(instance, mu, n, rng_seed):
    """`sample_dataset` as it was when a dataset held every action's features.

    Draws the (n, |A|, D) state batch and the true means of every action and
    gathers the logged ones; a feature dataset then keeps the logged rows.
    The reference that scripts/compare_cell_draws.py runs the ac study on.
    """
    states = instance.sample_state_batch(n, rng_stream(rng_seed, "dataset-states"))
    action_rng = rng_stream(rng_seed, "dataset-actions")
    actions = action_rng.choice(instance.action_count, size=n, p=mu.action_probs)
    noise_rng = rng_stream(rng_seed, "dataset-noise")
    rows = np.arange(n)
    means = instance.mean_rewards(states)[rows, actions]
    rewards = means + instance.noise_scale * noise_rng.standard_normal(n)
    if instance.is_tabular:
        return TabularRows(states, actions, rewards)
    return FeatureDataset(actions, rewards, states.features[rows, actions])


class TestLoggedFeatureSampler:
    """The row reference's feature rows against the one (n, D) normal block
    they come from."""

    @settings(max_examples=60, deadline=None)
    @given(
        actions=st.integers(1, 12),
        d=st.integers(1, 100),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(actions=10, d=100, n=1, seed=0)
    @example(actions=1, d=1, n=1, seed=1)
    def test_rows_are_the_logged_actions_transform(self, actions, d, n, seed):
        chols = np.tril(np.random.default_rng(seed).standard_normal((actions, d, d)))
        instance = BanditInstance(actions, GaussianModel(chols, np.zeros(d)))
        mu = BehaviorPolicy(np.full(actions, 1.0 / actions))
        streams = {}

        def recording_stream(rng_seed, purpose, index=0):
            streams[purpose] = rng_stream(rng_seed, purpose, index)
            return streams[purpose]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(env, "rng_stream", recording_stream)
            data = sample_feature_dataset(instance, mu, n, seed)

        reference_rng = rng_stream(seed, "dataset-states")
        z = reference_rng.standard_normal((n, d))
        picked = chols[data.actions]
        reference = np.einsum("ndk,nk->nd", picked, z)
        scale = np.einsum("ndk,nk->nd", np.abs(picked), np.abs(z))

        action_rng = rng_stream(seed, "dataset-actions")
        assert np.array_equal(data.actions, action_rng.choice(actions, size=n, p=mu.action_probs))
        assert data.logged.shape == (n, d)
        assert np.all(np.abs(data.logged - reference) <= 1e-12 * scale)
        # the draw consumes exactly one (n, D) normal block
        states_rng = streams["dataset-states"]
        assert np.array_equal(states_rng.standard_normal(4), reference_rng.standard_normal(4))

    def test_rows_of_each_action_have_its_covariance(self):
        inst = make_gaussian_instance(4, 2, 3, 0)
        data = sample_feature_dataset(inst, BehaviorPolicy(np.array([0.2, 0.3, 0.5])), 60_000, 1)
        for a, chol in enumerate(inst.model.chol_factors):
            rows = data.logged[data.actions == a]
            sigma = chol @ chol.T
            scale = np.max(np.abs(sigma))
            assert np.max(np.abs(rows.mean(axis=0))) <= 0.05 * np.sqrt(scale)
            assert np.max(np.abs(rows.T @ rows / len(rows) - sigma)) <= 0.05 * scale


class TestSplitCells:
    """ac's logged data drawn as per-(side, action) statistics."""

    def test_sides_and_sizes(self):
        # at most |A| (D + 1) cell rows a side whatever n is; each side counts
        # its own rows and holds the other side's at count 0
        inst = make_gaussian_instance(12, 4, 3, 0)
        mu = dirichlet_behavior(3, 0)
        for n, n_in in ((20, 16), (200, 160), (10**6, 800_000)):
            features, fit_on, score_on = sample_split_cells(inst, mu, n, n_in, 1)
            assert features.shape[1] == 12 and len(features) <= 2 * 3 * (12 + 1)
            assert (fit_on.n, score_on.n) == (n_in, n - n_in)
            assert fit_on.means is score_on.means
            assert np.all((fit_on.counts == 0) | (score_on.counts == 0))
            zero = ~features.any(axis=1)  # the rows that carry counts beyond D
            assert np.all(fit_on.means[zero] == 0)
            again = sample_split_cells(inst, mu, n, n_in, 1)
            assert np.array_equal(again[0], features)
            assert np.array_equal(again[1].means, fit_on.means)
            assert (again[1].within, again[2].within) == (fit_on.within, score_on.within)

    def test_zero_noise_means_are_the_rows_values(self):
        inst = dataclasses.replace(make_gaussian_instance(6, 3, 2, 0), noise_scale=0.0)
        features, fit_on, score_on = sample_split_cells(inst, dirichlet_behavior(2, 0), 500, 400, 1)
        want = features @ inst.model.theta_true
        assert np.all(np.abs(fit_on.means - want) <= 1e-12 * np.max(np.abs(want)))
        assert fit_on.within == score_on.within == 0.0

    @pytest.mark.parametrize("n, n_in", [(10, 0), (10, 10), (10, 11)])
    def test_both_sides_need_rows(self, n, n_in):
        inst = make_gaussian_instance(4, 2, 2, 0)
        with pytest.raises(ValueError, match="both sides"):
            sample_split_cells(inst, dirichlet_behavior(2, 0), n, n_in, 0)

    def test_tabular_instance_refused(self):
        inst = make_tabular_instance(3, 2, 0)
        with pytest.raises(ValueError, match="sample_dataset"):
            sample_split_cells(inst, dirichlet_behavior(2, 0), 10, 8, 0)

    def test_group_moments(self):
        # one action: the fit side is one group of c = 5 >= D = 3 rows, drawn
        # by Bartlett's decomposition, and the held-out side one of c = 2 < D,
        # drawn as rows; each side's Gram G, Phi^T y and y^T y have the means
        # c Sigma, c Sigma theta and c (theta^T Sigma theta + sigma^2)
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3))
        sigma_matrix = g @ g.T / 3 + 0.1 * np.eye(3)
        theta, sigma = rng.standard_normal(3), 0.7
        model = GaussianModel(np.linalg.cholesky(sigma_matrix)[None], theta)
        inst = BanditInstance(1, model, noise_scale=sigma)
        mu = BehaviorPolicy(np.array([1.0]))
        draws = 4000
        sums = {0: [], 1: []}
        for seed in range(draws):
            features, *sides = sample_split_cells(inst, mu, 7, 5, seed)
            for k, side in enumerate(sides):
                weighted = features.T * side.counts
                yy = side.counts @ side.means**2 + side.within
                sums[k].append(np.concatenate([(weighted @ features).ravel(),
                                               weighted @ side.means, [yy]]))
        for k, c in ((0, 5), (1, 2)):
            got = np.array(sums[k])
            want = c * np.concatenate([sigma_matrix.ravel(), sigma_matrix @ theta,
                                       [theta @ sigma_matrix @ theta + sigma**2]])
            se = got.std(axis=0, ddof=1) / np.sqrt(draws)
            assert np.all(np.abs(got.mean(axis=0) - want) <= 4 * se)

    @pytest.mark.parametrize("seed", range(4))
    def test_compressed_rows_fit_and_score_as_the_rows(self, seed):
        # rows drawn the old way and compressed by QR into the form the
        # sampler draws give the rows' family fit, and their hold-out losses
        # and choice; the groups straddle D = 8, so both forms enter
        inst = make_gaussian_instance(8, 4, 3, seed)
        data = sample_feature_dataset(inst, dirichlet_behavior(3, seed), 120, seed)
        classes = truncation_family(8, [3, 5, 8])
        fit_on, score_on = row_split(data.rewards, 0.8, seed)
        features, *sides = qr_compressed(
            data.logged, data.rewards, data.actions, fit_on.counts > 0, 3
        )
        assert len(features) < data.n

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        rows = ridge_fit(data.logged, data.rewards, 1.0)
        cells = ridge_fit(features, sides[0].means, 1.0, counts=sides[0].counts + sides[1].counts)
        assert cells.n == rows.n
        assert close(cells.theta_hat, rows.theta_hat)
        assert close(cells.cov.entries, rows.cov.entries)
        _, want = holdout_select(data.logged, fit_on, score_on, classes, 1.0)
        _, got = holdout_select(features, *sides, classes, 1.0)
        assert close(got.audit["losses"], want.audit["losses"])
        assert got.chosen == want.chosen
        assert (got.audit["n_in"], got.audit["n_out"]) == (want.audit["n_in"], want.audit["n_out"])


def test_scalar_probe_matches_the_row_probe_in_law():
    # the probe's q99 of |<phi, theta>| from one normal per pair against the
    # q99 from 10^4 transformed normal rows, at one instance's factors
    inst = make_gaussian_instance(10, 4, 4, 0)
    chols, theta = inst.model.chol_factors, inst.model.theta_true
    draws = 500
    scalar = [env._probe_quantile(chols, theta, np.random.default_rng([0, i]))
              for i in range(draws)]
    rows = [row_probe_quantile(chols, theta, np.random.default_rng([1, i])) for i in range(draws)]
    assert stats.ks_2samp(scalar, rows).pvalue > 0.01
    se = np.hypot(np.std(scalar, ddof=1), np.std(rows, ddof=1)) / np.sqrt(draws)
    assert abs(np.mean(scalar) - np.mean(rows)) <= 3 * se


class TestSampleStates:
    def test_count(self):
        inst = make_gaussian_instance(5, 2, 3, 0)
        assert len(sample_states(inst, 500, 0)) == 500

    def test_tabular_distribution_chi2(self):
        inst = make_tabular_instance(6, 2, 0)
        states = sample_states(inst, 100_000, 1)
        counts = np.bincount(states.indices, minlength=6)
        _, p = stats.chisquare(counts)
        assert p > 1e-4

    def test_deterministic(self):
        inst = make_tabular_instance(6, 2, 0)
        assert np.array_equal(sample_states(inst, 50, 3).indices, sample_states(inst, 50, 3).indices)


class TestStateChunks:
    @pytest.mark.parametrize(
        "count, sizes",
        [(1, [1]), (128, [128]), (129, [129]), (191, [191]), (192, [128, 64]),
         (259, [128, 131]), (301, [128, 173]), (500, [128, 128, 128, 116])],
    )
    def test_every_chunk_but_the_last_is_full(self, count, sizes):
        # a rest under STATE_CHUNK / 2 joins the chunk before it
        assert env.STATE_CHUNK == 128
        assert [len(c) for c in state_chunks(make_tabular_instance(3, 2, 0), count, 0)] == sizes

    @pytest.mark.parametrize("count", [1, 128, 129, 192, 259, 301, 500])
    def test_chunks_are_the_whole_batch(self, count):
        # one stream drawn chunk after chunk gives the whole batch's draws, and
        # at the studies' dimensions and one BLAS thread, as the studies run,
        # BLAS transforms them, and predicts from them, to the same bits
        inst = make_gaussian_instance(100, 30, 10, 0)
        theta = np.random.default_rng(0).standard_normal(100)
        with experiments._ONE_BLAS_THREAD:
            whole = sample_states(inst, count, 4)
            chunks = list(state_chunks(inst, count, 4))
            features = np.concatenate([c.features for c in chunks])
            predictions = np.concatenate([c.features.reshape(-1, 100) @ theta for c in chunks])
            assert predictions.tobytes() == (whole.features.reshape(-1, 100) @ theta).tobytes()
        assert features.tobytes() == whole.features.tobytes()
        tabular = make_tabular_instance(20, 10, 0)
        indices = np.concatenate([c.indices for c in state_chunks(tabular, count, 4)])
        assert np.array_equal(indices, sample_states(tabular, count, 4).indices)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            next(state_chunks(make_tabular_instance(3, 2, 0), 0, 0))


class TestGaussianStateSampler:
    """The per-action GEMM sampler against the einsum reference it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        actions=st.integers(1, 12),
        d=st.integers(1, 100),
        count=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(actions=10, d=100, count=1, seed=0)
    @example(actions=1, d=1, count=1, seed=1)
    def test_matches_einsum_reference(self, actions, d, count, seed):
        factor_rng = np.random.default_rng(seed)
        chols = np.tril(factor_rng.standard_normal((actions, d, d)))
        instance = BanditInstance(actions, GaussianModel(chols, np.zeros(d)))

        rng, reference_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        feats = instance.sample_state_batch(count, rng).features
        z = reference_rng.standard_normal((count, actions, d))
        reference = np.einsum("adk,mak->mad", chols, z)
        scale = np.einsum("adk,mak->mad", np.abs(chols), np.abs(z))

        assert feats.shape == (count, actions, d)
        assert feats.flags.c_contiguous
        assert np.all(np.abs(feats - reference) <= 1e-12 * scale)
        # the draw consumes exactly one (count, |A|, d) normal block
        assert np.array_equal(rng.standard_normal(4), reference_rng.standard_normal(4))


class TestBehaviorPolicy:
    def test_zero_mass_action(self):
        with pytest.raises(InfiniteCoverageError):
            BehaviorPolicy(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("probs", [[np.nan, 0.5], [np.inf, 0.5], [[0.5, 0.5]]],
                             ids=["nan", "inf", "matrix"])
    def test_probabilities_must_be_a_finite_vector(self, probs):
        with pytest.raises(ValueError, match="finite vector"):
            BehaviorPolicy(np.array(probs))


class TestRngStreams:
    def test_purpose_tags_are_independent(self):
        a = rng_stream(0, "alpha").standard_normal(8)
        b = rng_stream(0, "beta").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_trial_index_streams_differ(self):
        a = rng_stream(0, "alpha", 0).standard_normal(8)
        b = rng_stream(0, "alpha", 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_bit_reproducible(self):
        a = rng_stream(123, "gamma", 7).standard_normal(8)
        b = rng_stream(123, "gamma", 7).standard_normal(8)
        assert np.array_equal(a, b)


class TestIndexValidation:
    def test_negative_state_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StateBatch(indices=[0, -1])

    def test_fractional_state_indices_rejected(self):
        with pytest.raises(ValueError, match="whole numbers"):
            StateBatch(indices=[0.7, 1.9])

    def test_state_indices_must_be_a_vector(self):
        # a 2-D batch would give mean_rewards of shape (2, 2, |A|), not (m, |A|)
        with pytest.raises(ValueError, match="1-D"):
            StateBatch(indices=[[0, 1], [1, 0]])

    def test_mean_rewards_state_out_of_range(self):
        # the rule feature_source applies, not numpy's IndexError
        with pytest.raises(ValueError, match="state index out of range for a table of 3 states"):
            make_tabular_instance(3, 2, 0).mean_rewards(StateBatch(indices=[5]))

    def test_whole_floats_are_indices(self):
        batch = StateBatch(indices=np.array([0.0, 2.0]))
        assert batch.indices.dtype.kind == "i"
        assert batch.indices.tolist() == [0, 2]


class TestBadInputs:
    @pytest.mark.parametrize("shape", [(4,), (4, 3), (1, 4, 3, 2)])
    def test_state_features_must_be_three_dimensional(self, shape):
        # a 2-D batch would give mean_rewards of shape (m,), not (m, |A|)
        with pytest.raises(ValueError, match=r"\(m, \|A\|, d\)"):
            StateBatch(features=np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_state_features_must_be_finite(self, bad):
        feats = np.ones((3, 2, 4))
        feats[1, 0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            StateBatch(features=feats)
