"""Synthetic contextual-bandit instances, behavior policies, and batch data.

States are represented uniformly as a columnar StateBatch (state indices or
per-action feature vectors) so the same pipeline runs on finite tabular
problems and on infinite state spaces with per-action Gaussian feature
vectors.  All sampling takes explicit seeds and derives independent
sub-streams, so trials can run concurrently.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

_SEED_MASK = (1 << 64) - 1


def _seed_sequence(seed: int, purpose: str, index: int) -> np.random.SeedSequence:
    code = zlib.crc32(purpose.encode("utf-8"))
    return np.random.SeedSequence([int(seed) & _SEED_MASK, code, int(index)])


def rng_stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Independent generator for a (seed, purpose tag, trial index) tuple."""
    return np.random.default_rng(_seed_sequence(seed, purpose, index))


def derive_seed(seed: int, purpose: str, index: int = 0) -> int:
    """Stable 64-bit sub-seed for a (seed, purpose, index) tuple."""
    return int(_seed_sequence(seed, purpose, index).generate_state(1, np.uint64)[0])


class InfiniteCoverageError(ValueError):
    """Behavior policy puts zero mass on some action."""


class StateBatch:
    """A batch of i.i.d. states, stored columnar for vectorized evaluation."""

    def __init__(self, indices=None, features=None):
        if (indices is None) == (features is None):
            raise ValueError("exactly one of indices/features must be given")
        self.indices = None if indices is None else np.asarray(indices, dtype=int)
        self.features = None if features is None else np.asarray(features, dtype=float)
        if self.indices is not None and self.indices.size and self.indices.min() < 0:
            raise ValueError("state indices must be nonnegative")

    def __len__(self) -> int:
        arr = self.indices if self.indices is not None else self.features
        return arr.shape[0]


@dataclass(frozen=True)
class TabularModel:
    state_probs: np.ndarray  # (|X|,)
    means: np.ndarray  # (|X|, |A|)


@dataclass(frozen=True)
class GaussianModel:
    chol_factors: np.ndarray  # (|A|, d, d), lower Cholesky of each Sigma_a
    theta_true: np.ndarray  # (d,)
    true_dim: int


@dataclass(frozen=True)
class BanditInstance:
    action_count: int
    model: object  # TabularModel or GaussianModel
    noise_scale: float = 1.0

    @property
    def is_tabular(self) -> bool:
        return isinstance(self.model, TabularModel)

    def mean_rewards(self, states: StateBatch) -> np.ndarray:
        """True mean reward f(x, a) for every state in the batch, shape (m, |A|)."""
        if self.is_tabular:
            if states.indices is None:
                raise ValueError("tabular instance needs tabular states")
            return self.model.means[states.indices]
        if states.features is None:
            raise ValueError("feature instance needs feature states")
        return states.features @ self.model.theta_true

    def sample_state_batch(self, count: int, rng: np.random.Generator) -> StateBatch:
        if count < 1:
            raise ValueError("count must be positive")
        if self.is_tabular:
            idx = rng.choice(len(self.model.state_probs), size=count, p=self.model.state_probs)
            return StateBatch(indices=idx)
        chols = self.model.chol_factors
        z = rng.standard_normal((count, chols.shape[0], chols.shape[1]))
        # one GEMM per action, written in place: feature_source's truncation views
        # and the reshape(-1, d) of the fits need a C-contiguous (count, |A|, d) array
        feats = np.empty_like(z)
        for a, chol in enumerate(chols):
            np.matmul(z[:, a], chol.T, out=feats[:, a])
        return StateBatch(features=feats)


@dataclass(frozen=True)
class BehaviorPolicy:
    """State-independent stochastic logging policy mu."""

    action_probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.action_probs, dtype=float)
        object.__setattr__(self, "action_probs", probs)
        if np.any(probs <= 0):
            raise InfiniteCoverageError("behavior policy must be strictly positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("behavior probabilities must sum to one")


class Dataset:
    """Batch of logged (state, action, reward) rows, stored as arrays."""

    def __init__(self, states: StateBatch, actions, rewards):
        self.states = states
        self.actions = np.asarray(actions, dtype=int)
        self.rewards = np.asarray(rewards, dtype=float)
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be finite")
        n = len(states)
        if self.actions.shape != (n,) or self.rewards.shape != (n,):
            raise ValueError("actions/rewards must have one entry per state")
        if n and self.actions.min() < 0:
            raise ValueError("actions must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.states)


def dirichlet_behavior(action_count: int, rng_seed: int) -> BehaviorPolicy:
    """Behavior probabilities drawn from Dirichlet(1, ..., 1)."""
    if action_count < 2:
        raise ValueError("need at least two actions")
    rng = rng_stream(rng_seed, "dirichlet-behavior")
    return BehaviorPolicy(rng.dirichlet(np.ones(action_count)))


def make_tabular_instance(state_count: int, action_count: int, rng_seed: int) -> BanditInstance:
    """Random tabular instance: Gaussian mean table rescaled to max |f| = 1."""
    if state_count < 1 or action_count < 1:
        raise ValueError("state_count and action_count must be positive")
    rng = rng_stream(rng_seed, "tabular-instance")
    means = rng.standard_normal((state_count, action_count))
    means = means / np.max(np.abs(means))
    probs = np.full(state_count, 1.0 / state_count)
    return BanditInstance(action_count, TabularModel(probs, means), noise_scale=1.0)


def make_gaussian_instance(
    ambient_dim: int, true_dim: int, action_count: int, rng_seed: int
) -> BanditInstance:
    """Gaussian-feature instance with sparse true parameter.

    Per-action covariances are G G^T / d + 0.1 I.  theta_true is supported on
    the first `true_dim` coordinates and rescaled so the empirical 99th
    percentile of |<phi, theta>| over 10^4 sampled (state, action) pairs is 1.
    """
    if not (1 <= true_dim <= ambient_dim):
        raise ValueError("need 1 <= true_dim <= ambient_dim")
    rng = rng_stream(rng_seed, "gaussian-instance")
    chols = np.empty((action_count, ambient_dim, ambient_dim))
    for a in range(action_count):
        g = rng.standard_normal((ambient_dim, ambient_dim))
        sigma = g @ g.T / ambient_dim + 0.1 * np.eye(ambient_dim)
        chols[a] = np.linalg.cholesky(sigma)
    theta = np.zeros(ambient_dim)
    theta[:true_dim] = rng.standard_normal(true_dim)

    probe = 10_000
    z = rng.standard_normal((probe, ambient_dim))
    arms = rng.integers(action_count, size=probe)
    feats = np.empty((probe, ambient_dim))
    for a in range(action_count):
        mask = arms == a
        feats[mask] = z[mask] @ chols[a].T
    q99 = np.quantile(np.abs(feats @ theta), 0.99)
    theta = theta / q99
    return BanditInstance(action_count, GaussianModel(chols, theta, true_dim), noise_scale=1.0)


def sample_states(instance: BanditInstance, count: int, rng_seed: int) -> StateBatch:
    """I.i.d. unlabeled states for test, validation, or Monte-Carlo means."""
    rng = rng_stream(rng_seed, "states")
    return instance.sample_state_batch(count, rng)


def sample_dataset(
    instance: BanditInstance, mu: BehaviorPolicy, n: int, rng_seed: int
) -> Dataset:
    """Draw n logged rows: x ~ D, a ~ mu independent of rewards, y = f + noise.

    States, actions, and reward noise consume three disjoint sub-streams, so
    the conditional-independence contract holds by construction.
    """
    if n < 1:
        raise ValueError("n must be positive")
    states = instance.sample_state_batch(n, rng_stream(rng_seed, "dataset-states"))
    action_rng = rng_stream(rng_seed, "dataset-actions")
    actions = action_rng.choice(instance.action_count, size=n, p=mu.action_probs)
    noise_rng = rng_stream(rng_seed, "dataset-noise")
    means = instance.mean_rewards(states)[np.arange(n), actions]
    rewards = means + instance.noise_scale * noise_rng.standard_normal(n)
    return Dataset(states, actions, rewards)

