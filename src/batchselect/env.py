"""Synthetic contextual-bandit instances, behavior policies, and batch data.

States are represented uniformly as a columnar StateBatch (state indices or
per-action feature vectors) so the same pipeline runs on finite tabular
problems and on infinite state spaces with per-action Gaussian feature
vectors.  Logged data are drawn as the statistics their readers use, never
as rows: a tabular instance's as each (x, a) cell's count and mean reward
(`sample_dataset`), a Gaussian-feature instance's as each (side of
hold-out's split, action) group's Gram matrix, feature-reward products and
residual sum of squares (`sample_split_cells`).  Either draw has the law of
the rows it stands for and costs the same whatever the row count n is.  All
sampling takes explicit seeds and derives independent sub-streams, so
trials can run concurrently.
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


def _index_vector(values) -> np.ndarray:
    """State indices as a 1-D int array, refused unless each entry is a
    nonnegative whole number (an integer, or a float with no fraction)."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"state indices must be a 1-D array, got shape {arr.shape}")
    if arr.dtype.kind not in "iu" and not (
        arr.dtype.kind == "f" and np.all(np.isfinite(arr)) and np.all(arr % 1 == 0)
    ):
        raise ValueError("state indices must be whole numbers")
    if arr.size and arr.min() < 0:
        raise ValueError("state indices must be nonnegative")
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
        self.indices = None if indices is None else _index_vector(indices)
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
        # one GEMM per action, each action's slice overwritten by its transform,
        # so the batch is one C-contiguous (count, |A|, d) array, as
        # feature_source's truncation views and the reshape(-1, d) of the
        # evaluations need
        z = rng.standard_normal((count, chols.shape[0], chols.shape[1]))
        for a, chol in enumerate(chols):
            z[:, a] = z[:, a] @ chol.T
        return StateBatch(features=z)


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
    squared deviation of each reward from its cell's mean.  A cell of zero
    features is predicted 0 by every fit, so it may hold mean 0 and its rows'
    whole sum of squares in `within` (`sample_split_cells`).  T trials stack as
    columns: `means` and `counts` of shape (cells, T) and `within` of shape
    (T,), checked once for all of them.  Cells of a tabular dataset carry
    their `grid`, (|X|, |A|), cell x * |A| + a holding the rows logged at
    (x, a) (`sample_dataset`), so that a fit can refuse a class over another
    table.
    """

    means: np.ndarray
    counts: np.ndarray
    within: float | np.ndarray = 0.0
    grid: tuple[int, int] | None = None

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
        if self.grid is not None and (
            len(self.grid) != 2 or min(self.grid) < 1 or self.grid[0] * self.grid[1] != len(means)
        ):
            raise ValueError(f"grid {self.grid} is not an |X| x |A| grid of {len(means)} cells")

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


def check_behavior_actions(action_count: int) -> None:
    """Raise ValueError unless a behavior policy can be drawn over
    `action_count` actions: at least two."""
    if action_count < 2:
        raise ValueError("action_count must be at least 2")


def check_tabular_shape(state_count: int, action_count: int) -> None:
    """Raise ValueError unless a tabular instance can have these sizes."""
    if state_count < 1:
        raise ValueError("state_count must be positive")
    if action_count < 1:
        raise ValueError("action_count must be positive")


def check_gaussian_shape(ambient_dim: int, true_dim: int, action_count: int) -> None:
    """Raise ValueError unless a Gaussian-feature instance can have these sizes."""
    if not 1 <= true_dim <= ambient_dim:
        raise ValueError("true_dim must lie in 1 ... ambient_dim")
    if action_count < 1:
        raise ValueError("action_count must be positive")


def dirichlet_behavior(action_count: int, rng_seed: int) -> BehaviorPolicy:
    """Behavior probabilities drawn from Dirichlet(1, ..., 1)."""
    check_behavior_actions(action_count)
    rng = rng_stream(rng_seed, "dirichlet-behavior")
    return BehaviorPolicy(rng.dirichlet(np.ones(action_count)))


def make_tabular_instance(state_count: int, action_count: int, rng_seed: int) -> BanditInstance:
    """Random tabular instance: Gaussian mean table rescaled to max |f| = 1."""
    check_tabular_shape(state_count, action_count)
    rng = rng_stream(rng_seed, "tabular-instance")
    means = rng.standard_normal((state_count, action_count))
    means = means / np.max(np.abs(means))
    probs = np.full(state_count, 1.0 / state_count)
    return BanditInstance(action_count, TabularModel(probs, means), noise_scale=1.0)


PROBE_PAIRS = 10_000


def _probe_quantile(chols: np.ndarray, theta: np.ndarray, rng: np.random.Generator) -> float:
    """The 99th percentile of |<phi, theta>| over PROBE_PAIRS (state, action)
    pairs, each action uniform.  For phi = L_a z, <phi, theta> is
    N(0, |L_a^T theta|^2), so each pair draws its action and then one
    standard normal g, and reads |L_a^T theta| |g|."""
    actions = rng.integers(len(chols), size=PROBE_PAIRS)
    scales = np.linalg.norm(theta @ chols, axis=1)  # row a is (L_a^T theta)^T
    return float(np.quantile(np.abs(scales[actions] * rng.standard_normal(PROBE_PAIRS)), 0.99))


def make_gaussian_instance(
    ambient_dim: int, true_dim: int, action_count: int, rng_seed: int
) -> BanditInstance:
    """Gaussian-feature instance with sparse true parameter.

    Per-action covariances are G G^T / d + 0.1 I.  theta_true is supported on
    the first `true_dim` coordinates and rescaled so that the empirical 99th
    percentile of |<phi, theta>| over 10^4 sampled (state, action) pairs is
    1.  The probe draws each pair's action uniformly and <phi, theta> from
    its law N(0, |L_a^T theta|^2), L_a the action's Cholesky factor, which
    is the law of the inner product for phi = L_a z, so it draws no feature
    rows (`_probe_quantile`).
    """
    check_gaussian_shape(ambient_dim, true_dim, action_count)
    rng = rng_stream(rng_seed, "gaussian-instance")
    chols = np.empty((action_count, ambient_dim, ambient_dim))
    for a in range(action_count):
        g = rng.standard_normal((ambient_dim, ambient_dim))
        sigma = g @ g.T / ambient_dim + 0.1 * np.eye(ambient_dim)
        chols[a] = np.linalg.cholesky(sigma)
    theta = np.zeros(ambient_dim)
    theta[:true_dim] = rng.standard_normal(true_dim)
    theta = theta / _probe_quantile(chols, theta, rng)
    return BanditInstance(action_count, GaussianModel(chols, theta), noise_scale=1.0)


def sample_states(
    instance: BanditInstance, count: int, rng_seed: int | np.random.Generator
) -> StateBatch:
    """I.i.d. unlabeled states for test, validation, or Monte-Carlo means,
    drawn from the seed's "states" sub-stream, or from a generator that
    `state_chunks` draws each of its chunks from."""
    if not isinstance(rng_seed, np.random.Generator):
        rng_seed = rng_stream(rng_seed, "states")
    return instance.sample_state_batch(count, rng_seed)


# The states in each chunk of `state_chunks` but the last: 1 MB of Gaussian
# features at |A| = 10, D = 100.
STATE_CHUNK = 128


def state_chunks(instance: BanditInstance, count: int, rng_seed: int):
    """The states `sample_states(instance, count, rng_seed)` draws, in
    consecutive chunks of STATE_CHUNK states.  The last holds the rest, and a
    rest under STATE_CHUNK / 2 joins the chunk before it, so a chunk holds
    fewer than 1.5 STATE_CHUNK states and is small only as a whole batch.

    The chunks draw one after another from the one stream, which gives the
    whole batch's numbers.  Row-wise products of the states (the feature
    transform, predictions, widths) round each row as the whole batch does
    where BLAS treats a row by its place in its kernels' row blocks, on one
    BLAS thread as the studies run: every chunk but the last holds a
    multiple of 128 |A| rows, so the whole batch's blocks, and its final
    partial block, fall on the same rows.  Near-equal chunks of 125 states
    put each chunk's last rows in a partial block, which moved them in their
    last bits.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = rng_stream(rng_seed, "states")
    full, rest = divmod(count, STATE_CHUNK)
    sizes = [STATE_CHUNK] * full + [rest] * (rest > 0)
    if len(sizes) > 1 and rest < STATE_CHUNK // 2:
        sizes[-2:] = [STATE_CHUNK + rest]
    for size in sizes:
        yield sample_states(instance, size, rng)


def _behavior_probs(instance: BanditInstance, mu: BehaviorPolicy) -> np.ndarray:
    """mu's probabilities, refused unless they cover the instance's actions."""
    probs = mu.action_probs
    if probs.shape != (instance.action_count,):
        raise ValueError(
            f"behavior policy over {probs.size} actions given an instance with "
            f"{instance.action_count}"
        )
    return probs


def cell_means(z: np.ndarray, counts: np.ndarray, means: np.ndarray, sigma):
    """Each cell's mean reward over its `counts` rows of mean reward `means`
    and noise scale `sigma`, means + sigma z / sqrt(counts) from standard
    normals z; 0.0 for an empty cell.  The arguments broadcast, so stacked
    trials draw as columns."""
    noise = sigma * z / np.sqrt(np.maximum(counts, 1))
    return np.where(counts > 0, means + noise, 0.0)


def sample_dataset(
    instance: BanditInstance, mu: BehaviorPolicy, n: int, rng_seed: int
) -> Cells:
    """n logged rows of a tabular instance, x ~ D, a ~ mu independent of x and
    y = f(x, a) + sigma e, drawn as the per-cell statistics a fit reads: cell
    x * |A| + a of the |X| x |A| grid holds the count and the mean reward of
    the rows logged at (x, a).

    The counts are Multinomial(n, D (x) mu) over the grid.  Given its count
    c > 0, a cell's mean reward is f(x, a) + sigma z / sqrt(c) with z standard
    normal (`cell_means`), and an empty cell's is 0.0.  The rows' squared
    deviations from their cells' means sum to sigma^2 chi2(n - k), k the
    number of non-empty cells, independent of the means.  That is the law of
    n drawn rows binned by cell, and it costs |X| |A| draws whatever n is.
    The counts come from one sub-stream and the noise from another.  A
    Gaussian-feature instance's data are drawn by `sample_split_cells`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not instance.is_tabular:
        raise ValueError("a feature instance's logged data are drawn by sample_split_cells")
    probs = _behavior_probs(instance, mu)
    model = instance.model
    grid = np.outer(model.state_probs, probs).reshape(-1)
    counts = rng_stream(rng_seed, "dataset-cells").multinomial(n, grid)
    noise_rng = rng_stream(rng_seed, "dataset-noise")
    sigma = instance.noise_scale
    z = noise_rng.standard_normal(counts.size)
    means = cell_means(z, counts, model.means.reshape(-1), sigma)
    df = n - np.count_nonzero(counts)
    within = sigma**2 * noise_rng.chisquare(df) if df > 0 else 0.0
    return Cells(means, counts, within, model.means.shape)


def _group_rows(chol, theta, sigma, count, state_rng, noise_rng):
    """(rows, rewards, counts, residual) standing for `count` logged rows
    phi = L z of one action, L = `chol`: the rows themselves, each of count
    one, when count < D; else the D rows F^T, F = L A with A from Bartlett's
    decomposition, their rewards F^T theta + sigma g, and for count > D one
    zero row of count count - D and mean 0, with residual
    sigma^2 chi2(count - D).  See `sample_split_cells`."""
    dim = len(chol)
    if count < dim:
        rows = state_rng.standard_normal((count, dim)) @ chol.T
        return rows, rows @ theta + sigma * noise_rng.standard_normal(count), np.ones(count), 0.0
    factor = np.zeros((dim, dim))
    factor[np.tril_indices(dim, -1)] = state_rng.standard_normal(dim * (dim - 1) // 2)
    factor[np.diag_indices(dim)] = np.sqrt(state_rng.chisquare(count - np.arange(dim)))
    rows = (chol @ factor).T
    rewards = rows @ theta + sigma * noise_rng.standard_normal(dim)
    if count == dim:
        return rows, rewards, np.ones(dim), 0.0
    residual = sigma**2 * noise_rng.chisquare(count - dim)
    counts = np.append(np.ones(dim), count - dim)
    return np.vstack([rows, np.zeros(dim)]), np.append(rewards, 0.0), counts, residual


def sample_split_cells(
    instance: BanditInstance, mu: BehaviorPolicy, n: int, n_in: int, rng_seed: int
) -> tuple[np.ndarray, Cells, Cells]:
    """n logged rows of a Gaussian-feature instance, split uniformly at random
    into `n_in` rows that hold-out fits on and n - n_in it holds out, drawn as
    the statistics their readers use.

    A logged row is x ~ D, a ~ mu, phi = L_a z and y = <phi, theta> + sigma e.
    The per-action counts are Multinomial(n, mu) and the fit side's are
    multivariate hypergeometric (counts, n_in), which is how a uniformly
    random split of the rows falls.  Given its count c, each (side, action)
    group of rows is drawn on its own, side by side and action by action:
    - when c < D, its c rows and rewards themselves;
    - else its QR-compressed form.  With Phi = Q R, Phi^T Phi = R^T R,
      Phi^T y = R^T Q^T y and |y - Phi t|^2 = |Q^T y - R t|^2 plus the
      residual of y off Phi's columns, for every t.  In law, Phi^T Phi is
      F F^T with F = L_a A, A lower triangular with A_ii^2 ~ chi2(c - i),
      i = 0 ... D - 1, and standard normals below the diagonal (Bartlett's
      decomposition of Wishart(c, I); Odell & Feiveson 1966, JASA 61), so
      R = F^T; given Phi, Q^T e is D standard normals g and the residual is
      sigma^2 chi2(c - D), independent of g.  The group enters as the D rows
      F^T, each of count one, with rewards F^T theta + sigma g, and one zero
      row of count c - D and mean 0; the residual joins its side's
      within-cell sum of squares.
    Every class's Gram, Phi^T y and row count, and every squared loss, on
    either side or on both, is then the rows' own in law.

    Returns (features, fit_on, score_on): the groups' ambient feature rows
    stacked, (m, D) with m <= 2 |A| (D + 1) whatever n is, and each side's
    Cells over them, its own groups' rows at their counts and the other
    side's at count 0; the two sides hold one means array.  Counts, feature
    draws and reward noise come from three disjoint sub-streams.
    """
    if instance.is_tabular:
        raise ValueError("a tabular instance's logged data are drawn by sample_dataset")
    if not 0 < n_in < n:
        raise ValueError("hold-out's split needs rows on both sides")
    probs = _behavior_probs(instance, mu)
    model = instance.model
    count_rng = rng_stream(rng_seed, "dataset-actions")
    counts = count_rng.multinomial(n, probs)
    fit_counts = count_rng.multivariate_hypergeometric(counts, n_in)
    state_rng = rng_stream(rng_seed, "dataset-states")
    noise_rng = rng_stream(rng_seed, "dataset-noise")
    groups, sides, within = [], [], [0.0, 0.0]
    for side, side_counts in enumerate((fit_counts, counts - fit_counts)):
        for chol, count in zip(model.chol_factors, side_counts):
            if count == 0:
                continue
            *group, residual = _group_rows(
                chol, model.theta_true, instance.noise_scale, int(count), state_rng, noise_rng
            )
            groups.append(group)
            sides.append(np.full(len(group[0]), side))
            within[side] += residual
    features, means, row_counts = (np.concatenate(parts) for parts in zip(*groups))
    side = np.concatenate(sides)
    fit_on = Cells(means, np.where(side == 0, row_counts, 0.0), within[0])
    score_on = Cells(means, np.where(side == 1, row_counts, 0.0), within[1])
    return features, fit_on, score_on
