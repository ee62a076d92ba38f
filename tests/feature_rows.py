"""The row-level reference for the ac study's logged data.

The library draws an ac cell's logged data as the statistics their readers
use (`env.sample_split_cells`), and `make_gaussian_instance` draws its
calibration probe's inner products from their law (`env._probe_quantile`).
These helpers draw the rows themselves, as the library did before: a
feature dataset of n logged rows keeps row i = phi(x_i, a_i) = L_{a_i} z_i,
one (n, D) normal block transformed one action at a time; hold-out splits
those rows by a seeded permutation; and the probe transforms 10^4 normal
rows.  Under `row_reference()` the ac study runs that path and writes the
bytes it wrote then (tests/test_experiments_cli.py), and
scripts/compare_cell_draws.py compares the two paths in distribution.
Tests that fit feature rows draw them here.
"""
import contextlib

import numpy as np
import pytest

from batchselect import env, experiments
from batchselect.env import Cells, derive_seed
from batchselect.features import design_matrix
from batchselect.learner import GreedyPolicy
from batchselect.linalg import ridge_fit
from batchselect.selection import holdout_select, holdout_split_sizes


class FeatureDataset:
    """n logged rows of a feature instance: each row's action, reward, and
    the logged action's feature vector at the ambient dimension D, (n, D)."""

    def __init__(self, actions, rewards, logged):
        self.actions = np.asarray(actions, dtype=int)
        self.rewards = np.asarray(rewards, dtype=float)
        self.logged = np.asarray(logged, dtype=float)

    @property
    def n(self) -> int:
        return len(self.actions)


def logged_features(z, actions, chols):
    """Row i = z_i @ L_{a_i}^T of an (n, D) normal block z: the features of
    action a_i, one matrix product per action on that action's rows."""
    feats = np.empty_like(z)
    for a, chol in enumerate(chols):
        rows = np.flatnonzero(actions == a)
        feats[rows] = z[rows] @ chol.T
    return feats


def sample_feature_dataset(instance, mu, n, rng_seed):
    """n logged rows drawn from the streams `env.sample_dataset` draws a
    tabular dataset from: one (n, D) normal block from the states stream,
    actions ~ mu, and reward noise.  The features of the actions not logged
    are independent of these and never read, so leaving them out keeps the
    law of every row."""
    state_rng = env.rng_stream(rng_seed, "dataset-states")
    actions = env.rng_stream(rng_seed, "dataset-actions").choice(
        instance.action_count, size=n, p=mu.action_probs
    )
    noise = instance.noise_scale * env.rng_stream(rng_seed, "dataset-noise").standard_normal(n)
    chols = instance.model.chol_factors
    logged = logged_features(state_rng.standard_normal((n, chols.shape[1])), actions, chols)
    return FeatureDataset(actions, logged @ instance.model.theta_true + noise, logged)


def row_split(rewards, split_fraction, rng_seed):
    """Hold-out's (fit, held-out) split of logged rows by a seeded shuffle:
    a prefix of `holdout_split_sizes` rows and the rest.  Each side has one
    cell per row, of count 1 on its own rows and 0 on the other side's."""
    n_in, _ = holdout_split_sizes(len(rewards), split_fraction)
    perm = env.rng_stream(rng_seed, "holdout-split").permutation(len(rewards))
    counts_in = np.zeros(len(rewards))
    counts_in[perm[:n_in]] = 1.0
    return Cells(rewards, counts_in), Cells(rewards, 1.0 - counts_in)


def row_probe_quantile(chols, theta, rng):
    """The probe's 99th percentile of |<phi, theta>| from 10^4 feature rows:
    one (10^4, D) normal block, then each row's action, and each row
    transformed by its action's factor."""
    z = rng.standard_normal((env.PROBE_PAIRS, len(theta)))
    feats = logged_features(z, rng.integers(len(chols), size=env.PROBE_PAIRS), chols)
    return float(np.quantile(np.abs(feats @ theta), 0.99))


def row_ac_fit(config, ctx, n, trial):
    """`experiments._ac_fit` on n drawn rows: the family fit on the rows'
    design, and hold-out on their permutation split."""
    s, seed = config.ac, config.seed
    classes = ctx.classes
    data_seed = derive_seed(seed, f"ac-data-{n}", trial)
    dataset = sample_feature_dataset(ctx.instance, ctx.mu, n, data_seed)
    design = design_matrix(classes[-1], dataset.logged)
    family = ridge_fit(design, dataset.rewards, config.lam)
    fits = [family.leading(mc.dim) for mc in classes]
    policies = {f"class_{mc.dim}": GreedyPolicy(fit, mc) for mc, fit in zip(classes, fits)}
    fit_on, score_on = row_split(
        dataset.rewards, s.holdout_split, derive_seed(seed, f"ac-holdout-{n}", trial)
    )
    policies["holdout"], report = holdout_select(design, fit_on, score_on, classes, config.lam)
    report.audit["split_fraction"] = s.holdout_split
    return experiments._Cell(n, policies, {"holdout": report}, fits)


@contextlib.contextmanager
def row_reference():
    """The ac study on the row path while the context is open: the row probe
    in `make_gaussian_instance` and `row_ac_fit` for every cell."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(env, "_probe_quantile", row_probe_quantile)
        mp.setattr(experiments, "_ac_fit", row_ac_fit)
        yield mp


def qr_compressed(logged, rewards, actions, fit_rows, action_count):
    """Logged rows in the form `env.sample_split_cells` draws, computed from
    the rows: `fit_rows` marks hold-out's fit side, and each (side, action)
    group of c rows, side by side and action by action, enters as itself
    when c < D, else as R of its reduced QR factorization Phi = Q R with
    rewards Q^T y, one zero row of count c - D, and |y - Q Q^T y|^2 added to
    its side's within-cell sum of squares.  Returns (features, fit_on,
    score_on)."""
    dim = logged.shape[1]
    groups, sides, within = [], [], [0.0, 0.0]
    for side, mask in enumerate((fit_rows, ~fit_rows)):
        for a in range(action_count):
            phi, y = logged[mask & (actions == a)], rewards[mask & (actions == a)]
            if len(y) == 0:
                continue
            if len(y) < dim:
                group = (phi, y, np.ones(len(y)))
            else:
                q, r = np.linalg.qr(phi)
                qty = q.T @ y
                within[side] += float(np.sum((y - q @ qty) ** 2))
                counts = np.append(np.ones(dim), len(y) - dim)
                group = (np.vstack([r, np.zeros(dim)]), np.append(qty, 0.0), counts)
            groups.append(group)
            sides.append(np.full(len(group[0]), side))
    features, means, counts = (np.concatenate(parts) for parts in zip(*groups))
    side = np.concatenate(sides)
    return (
        features,
        Cells(means, np.where(side == 0, counts, 0.0), within[0]),
        Cells(means, np.where(side == 1, counts, 0.0), within[1]),
    )
