import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from batchselect.env import (
    BanditInstance,
    BehaviorPolicy,
    Dataset,
    GaussianModel,
    InfiniteCoverageError,
    StateBatch,
    concentrability,
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
        assert np.array_equal(data.rewards, data.true_means)

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
        # recover noise by subtraction; equality only up to float round-off
        assert np.allclose(d1.rewards - d1.true_means, d2.rewards - d2.true_means, atol=1e-12)

    def test_deterministic(self):
        inst = make_gaussian_instance(6, 3, 2, 0)
        mu = dirichlet_behavior(2, 0)
        a = sample_dataset(inst, mu, 20, 4)
        b = sample_dataset(inst, mu, 20, 4)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.states.features, b.states.features)


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


class TestConcentrability:
    def test_uniform_ten(self):
        assert concentrability(BehaviorPolicy(np.full(10, 0.1))) == pytest.approx(10.0)

    def test_even_pair(self):
        assert concentrability(BehaviorPolicy(np.array([0.5, 0.5]))) == pytest.approx(2.0)

    def test_skewed_pair(self):
        assert concentrability(BehaviorPolicy(np.array([0.9, 0.1]))) == pytest.approx(10.0)

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
