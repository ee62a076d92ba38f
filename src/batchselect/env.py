"""Synthetic contextual-bandit instances, behavior policies, and batch data.

States are represented uniformly as a columnar StateBatch (state indices or
per-action feature vectors) so the same pipeline runs on finite tabular
problems and on infinite state spaces with per-action Gaussian feature
vectors.  A logged dataset over feature states keeps only each row's logged
action's feature vector, the one a fit can read.  All sampling takes
explicit seeds and derives independent sub-streams, so trials can run
concurrently.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .linalg import checked_counts

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


def _index_vector(values, what: str) -> np.ndarray:
    """`values` as a 1-D int array, refused unless each entry is a
    nonnegative whole number (an integer, or a float with no fraction)."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D array, got shape {arr.shape}")
    if arr.dtype.kind not in "iu" and not (
        arr.dtype.kind == "f" and np.all(np.isfinite(arr)) and np.all(arr % 1 == 0)
    ):
        raise ValueError(f"{what} must be whole numbers")
    if arr.size and arr.min() < 0:
        raise ValueError(f"{what} must be nonnegative")
    return arr.astype(int, copy=False)


def _checked_state_indices(indices: np.ndarray, state_count: int) -> np.ndarray:
    """A batch's state indices as rows of a table of `state_count` states,
    refused with ValueError when one lies outside it."""
    if indices.size and indices.max() >= state_count:
        raise ValueError(f"state index out of range for a table of {state_count} states")
    return indices


class StateBatch:
    """A batch of i.i.d. states, stored columnar for vectorized evaluation."""

    def __init__(self, indices=None, features=None):
        if (indices is None) == (features is None):
            raise ValueError("exactly one of indices/features must be given")
        self.indices = None if indices is None else _index_vector(indices, "state indices")
        self.features = None if features is None else np.asarray(features, dtype=float)
        if self.features is not None:
            if self.features.ndim != 3:
                raise ValueError(
                    f"state features must be an (m, |A|, d) array, got shape {self.features.shape}"
                )
            if not np.all(np.isfinite(self.features)):
                raise ValueError("state features must be finite")

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
            return self.model.means[_checked_state_indices(states.indices, len(self.model.means))]
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
        # and the reshape(-1, d) of the evaluations need a C-contiguous (count, |A|, d) array
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
        if probs.ndim != 1 or not np.all(np.isfinite(probs)):
            raise ValueError("behavior probabilities must be a finite vector")
        if np.any(probs <= 0):
            raise InfiniteCoverageError("behavior policy must be strictly positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("behavior probabilities must sum to one")


@dataclass(frozen=True)
class Cells:
    """Logged rows as per-cell reward statistics.

    Cell j stands for `counts[j]` logged rows whose mean reward is
    `means[j]`; a cell of count 0 adds nothing to a fit or a loss, whatever
    finite mean it holds.  `within` is the sum over all those rows of the
    squared deviation of each reward from its cell's mean.  T trials stack as
    columns: `means` and `counts` of shape (cells, T) and `within` of shape
    (T,), checked once for all of them.
    """

    means: np.ndarray
    counts: np.ndarray
    within: float | np.ndarray = 0.0

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        object.__setattr__(self, "means", means)
        if means.ndim not in (1, 2) or not np.all(np.isfinite(means)):
            raise ValueError("cell means must be a finite vector, or one column per trial")
        object.__setattr__(self, "counts", checked_counts(self.counts, means.shape))
        within = np.asarray(self.within)
        if within.shape not in ((), means.shape[1:]) or not (
            np.all(np.isfinite(within)) and np.all(within >= 0)
        ):
            raise ValueError("within-cell sum of squares must be finite and nonnegative")

    @property
    def n(self):
        """The row count, or each trial's for stacked trials."""
        totals = self.counts.sum(axis=0)
        return int(totals) if totals.ndim == 0 else totals.astype(int)

    def mean_squared_error(self, predictions: np.ndarray):
        """(sum_j c_j (p_j - ybar_j)^2 + within) / n: the mean squared error of
        predicting p_j on every row of cell j; one per trial for stacked
        trials, whose predictions stack as the means do."""
        squares = np.sum(self.counts * (predictions - self.means) ** 2, axis=0)
        loss = (squares + self.within) / self.counts.sum(axis=0)
        return float(loss) if loss.ndim == 0 else loss


class Dataset:
    """Batch of logged (state, action, reward) rows, stored as arrays.

    A tabular dataset keeps each row's state: `states` is a StateBatch of
    state indices, and a fit reads the rows only through their per-(x, a)
    cell statistics (`cells`).  A feature dataset keeps only what a reader of
    a logged row can use, the logged action's feature vector: `logged` is an
    (n, D) array whose row i is phi(x_i, a_i) at the ambient dimension D, and
    `states` is None.  Exactly one of the two is given.
    """

    def __init__(self, states: StateBatch | None, actions, rewards, logged=None):
        if (states is None) == (logged is None):
            raise ValueError("exactly one of states/logged must be given")
        if states is not None and states.indices is None:
            raise ValueError("a feature dataset holds its logged rows, not all-action states")
        self.states = states
        self.logged = None if logged is None else np.asarray(logged, dtype=float)
        if self.logged is not None:
            if self.logged.ndim != 2:
                raise ValueError(
                    f"logged rows must be an (n, D) array, got shape {self.logged.shape}"
                )
            if not np.all(np.isfinite(self.logged)):
                raise ValueError("logged rows must be finite")
        self.actions = _index_vector(actions, "actions")
        self.rewards = np.asarray(rewards, dtype=float)
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be finite")
        n = len(self.logged if states is None else states)
        if self.actions.shape != (n,) or self.rewards.shape != (n,):
            raise ValueError("actions/rewards must have one entry per state")
        self._cells = {}

    @property
    def n(self) -> int:
        return len(self.actions)

    def cells(self, state_count: int, action_count: int) -> Cells:
        """A tabular dataset's rows binned by (x, a) into cell x * |A| + a of
        an |X| x |A| grid, counted once per grid and kept for every class fit
        on the dataset.  A state or action outside the grid raises ValueError."""
        if self.states is None:
            raise ValueError("a feature dataset has no (state, action) cells")
        grid = (state_count, action_count)
        if grid not in self._cells:
            states = _checked_state_indices(self.states.indices, state_count)
            if self.n and self.actions.max() >= action_count:
                raise ValueError(f"action out of range for {action_count} actions")
            cell = states * action_count + self.actions
            counts = np.bincount(cell, minlength=state_count * action_count).astype(float)
            sums = np.bincount(cell, weights=self.rewards, minlength=counts.size)
            means = sums / np.maximum(counts, 1)
            within = float(np.sum((self.rewards - means[cell]) ** 2))
            self._cells[grid] = Cells(means, counts, within)
        return self._cells[grid]


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


def _logged_features(z: np.ndarray, actions: np.ndarray, chols: np.ndarray) -> np.ndarray:
    """Row i = z_i @ L_{a_i}^T of an (n, D) normal block z: the features of
    action a_i, one matrix product per action on that action's rows."""
    feats = np.empty_like(z)
    for a, chol in enumerate(chols):
        rows = np.flatnonzero(actions == a)
        feats[rows] = z[rows] @ chol.T
    return feats


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
    if action_count < 1:
        raise ValueError("action_count must be positive")
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
    feats = _logged_features(z, rng.integers(action_count, size=probe), chols)
    q99 = np.quantile(np.abs(feats @ theta), 0.99)
    theta = theta / q99
    return BanditInstance(action_count, GaussianModel(chols, theta), noise_scale=1.0)


def sample_states(instance: BanditInstance, count: int, rng_seed: int) -> StateBatch:
    """I.i.d. unlabeled states for test, validation, or Monte-Carlo means."""
    rng = rng_stream(rng_seed, "states")
    return instance.sample_state_batch(count, rng)


def sample_dataset(
    instance: BanditInstance, mu: BehaviorPolicy, n: int, rng_seed: int
) -> Dataset:
    """Draw n logged rows: x ~ D, a ~ mu independent of rewards, y = f + noise.

    States, actions, and reward noise consume three disjoint sub-streams, so
    the conditional-independence contract holds by construction.  A tabular
    dataset draws n state indices.  A feature dataset draws one (n, D) normal
    block z from the states stream and keeps row i = z_i @ L_{a_i}^T, one
    matrix product per action on that action's rows: the features of the
    actions not logged are independent of these and never read, so leaving
    them out keeps the law of every row.
    """
    if n < 1:
        raise ValueError("n must be positive")
    probs = mu.action_probs
    if probs.shape != (instance.action_count,):
        raise ValueError(
            f"behavior policy over {probs.size} actions given an instance with "
            f"{instance.action_count}"
        )
    state_rng = rng_stream(rng_seed, "dataset-states")
    actions = rng_stream(rng_seed, "dataset-actions").choice(
        instance.action_count, size=n, p=probs
    )
    noise = instance.noise_scale * rng_stream(rng_seed, "dataset-noise").standard_normal(n)
    if instance.is_tabular:
        states = instance.sample_state_batch(n, state_rng)
        return Dataset(states, actions, instance.model.means[states.indices, actions] + noise)
    chols = instance.model.chol_factors
    logged = _logged_features(state_rng.standard_normal((n, chols.shape[1])), actions, chols)
    return Dataset(None, actions, logged @ instance.model.theta_true + noise, logged=logged)
