import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from batchselect import env
from batchselect.env import (
    BanditInstance,
    BehaviorPolicy,
    Dataset,
    GaussianModel,
    InfiniteCoverageError,
    StateBatch,
    dirichlet_behavior,
    make_gaussian_instance,
    make_tabular_instance,
    rng_stream,
    sample_dataset,
    sample_states,
)


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


class TestSampleDataset:
    def test_zero_noise_rewards_equal_means(self):
        inst = dataclasses.replace(make_tabular_instance(4, 3, 0), noise_scale=0.0)
        mu = dirichlet_behavior(3, 0)
        data = sample_dataset(inst, mu, 50, 1)
        means = inst.mean_rewards(data.states)[np.arange(data.n), data.actions]
        assert np.array_equal(data.rewards, means)

    def test_action_frequencies_match_mu(self):
        inst = make_tabular_instance(3, 4, 0)
        mu = dirichlet_behavior(4, 5)
        data = sample_dataset(inst, mu, 100_000, 2)
        freq = np.bincount(data.actions, minlength=4) / data.n
        assert 0.5 * np.abs(freq - mu.action_probs).sum() < 0.01

    def test_row_count(self):
        inst = make_tabular_instance(3, 3, 0)
        data = sample_dataset(inst, dirichlet_behavior(3, 0), 17, 0)
        assert data.n == 17

    def test_noise_independent_of_behavior_policy(self):
        # action draws and reward noise consume disjoint substreams
        inst = make_tabular_instance(5, 4, 0)
        d1 = sample_dataset(inst, dirichlet_behavior(4, 1), 200, 9)
        d2 = sample_dataset(inst, dirichlet_behavior(4, 2), 200, 9)
        assert np.array_equal(d1.states.indices, d2.states.indices)
        rows = np.arange(200)
        m1 = inst.mean_rewards(d1.states)[rows, d1.actions]
        m2 = inst.mean_rewards(d2.states)[rows, d2.actions]
        # recover noise by subtraction; equality only up to float round-off
        assert np.allclose(d1.rewards - m1, d2.rewards - m2, atol=1e-12)

    def test_deterministic(self):
        inst = make_gaussian_instance(6, 3, 2, 0)
        mu = dirichlet_behavior(2, 0)
        a = sample_dataset(inst, mu, 20, 4)
        b = sample_dataset(inst, mu, 20, 4)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.logged, b.logged)
        assert a.states is None and a.logged.shape == (20, 6)

    def test_zero_noise_feature_rewards_equal_logged_means(self):
        inst = dataclasses.replace(make_gaussian_instance(6, 3, 2, 0), noise_scale=0.0)
        data = sample_dataset(inst, dirichlet_behavior(2, 0), 50, 1)
        assert np.array_equal(data.rewards, data.logged @ inst.model.theta_true)

    def test_tabular_matches_the_all_action_reference(self):
        # a tabular dataset keeps its form and its bytes
        inst = make_tabular_instance(5, 4, 0)
        mu = dirichlet_behavior(4, 1)
        got, ref = sample_dataset(inst, mu, 300, 3), all_action_dataset(inst, mu, 300, 3)
        assert np.array_equal(got.states.indices, ref.states.indices)
        assert np.array_equal(got.actions, ref.actions)
        assert got.rewards.tobytes() == ref.rewards.tobytes()

    def test_behavior_over_another_action_count(self):
        inst = make_gaussian_instance(6, 3, 4, 0)
        with pytest.raises(ValueError, match="3 actions.* 4"):
            sample_dataset(inst, dirichlet_behavior(3, 0), 20, 0)


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
        return Dataset(states, actions, rewards)
    return Dataset(None, actions, rewards, logged=states.features[rows, actions])


class TestLoggedFeatureSampler:
    """A feature dataset's rows against the one (n, D) normal block they come from."""

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
        instance = BanditInstance(actions, GaussianModel(chols, np.zeros(d), 1))
        mu = BehaviorPolicy(np.full(actions, 1.0 / actions))
        streams = {}

        def recording_stream(rng_seed, purpose, index=0):
            streams[purpose] = rng_stream(rng_seed, purpose, index)
            return streams[purpose]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(env, "rng_stream", recording_stream)
            data = sample_dataset(instance, mu, n, seed)

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
        data = sample_dataset(inst, BehaviorPolicy(np.array([0.2, 0.3, 0.5])), 60_000, 1)
        for a, chol in enumerate(inst.model.chol_factors):
            rows = data.logged[data.actions == a]
            sigma = chol @ chol.T
            scale = np.max(np.abs(sigma))
            assert np.max(np.abs(rows.mean(axis=0))) <= 0.05 * np.sqrt(scale)
            assert np.max(np.abs(rows.T @ rows / len(rows) - sigma)) <= 0.05 * scale


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
        instance = BanditInstance(actions, GaussianModel(chols, np.zeros(d), 1))

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

    def test_negative_action_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dataset(StateBatch(indices=[0, 1]), [0, -1], [0.5, 0.5])


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

    def test_dataset_holds_states_or_logged_rows(self):
        with pytest.raises(ValueError, match="exactly one"):
            Dataset(None, [0, 1], [0.0, 0.0])
        with pytest.raises(ValueError, match="exactly one"):
            Dataset(StateBatch(indices=[0, 1]), [0, 1], [0.0, 0.0], logged=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="logged rows"):
            Dataset(StateBatch(features=np.zeros((2, 2, 3))), [0, 1], [0.0, 0.0])

    @pytest.mark.parametrize(
        "logged, match",
        [(np.zeros((2, 2, 3)), "shape"), (np.array([[0.0, np.nan], [1.0, 2.0]]), "finite")],
        ids=["all_action_block", "nan"],
    )
    def test_bad_logged_rows_rejected(self, logged, match):
        with pytest.raises(ValueError, match=match):
            Dataset(None, [0, 1], [0.0, 0.0], logged=logged)
