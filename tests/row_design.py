"""The row-level reference for tabular data and fits.

The library draws a tabular dataset as its per-(x, a) cell statistics
(`env.sample_dataset`) and fits a tabular class from them
(`learner.fit_pessimistic`).  These helpers keep the row path it replaced:
`sample_rows` draws n logged (state, action, reward) rows from three
disjoint sub-streams, `binned_cells` bins them by (x, a) into the grid's
`Cells`, and `row_design_fit` fits a class on the n-row design those cells
stand for.  Under `row_reference()` the cc study draws rows and bins them,
and writes the bytes it wrote then (tests/test_experiments_cli.py), and
scripts/compare_cell_draws.py compares the two paths in distribution.
Tests that need logged rows draw or build them here.
"""
import contextlib
from dataclasses import dataclass

import numpy as np
import pytest

from batchselect import env, experiments
from batchselect.env import Cells, StateBatch
from batchselect.features import features_all_actions
from batchselect.linalg import ridge_fit


@dataclass(frozen=True)
class TabularRows:
    """n logged rows of a tabular instance: a StateBatch of state indices and
    each row's action and reward."""

    states: StateBatch
    actions: np.ndarray
    rewards: np.ndarray

    @property
    def n(self) -> int:
        return len(self.actions)


def sample_rows(instance, mu, n, rng_seed) -> TabularRows:
    """n logged rows x ~ D, a ~ mu, y = f(x, a) + noise, as the library drew
    them: states, actions and reward noise from three disjoint sub-streams."""
    states = instance.sample_state_batch(n, env.rng_stream(rng_seed, "dataset-states"))
    actions = env.rng_stream(rng_seed, "dataset-actions").choice(
        instance.action_count, size=n, p=mu.action_probs
    )
    noise = instance.noise_scale * env.rng_stream(rng_seed, "dataset-noise").standard_normal(n)
    return TabularRows(states, actions, instance.model.means[states.indices, actions] + noise)


def binned_cells(rows: TabularRows, state_count: int, action_count: int) -> Cells:
    """The rows binned by (x, a) into cell x * |A| + a of an |X| x |A| grid:
    each cell's count and mean reward, and the rows' squared deviations from
    their cells' means."""
    cell = rows.states.indices * action_count + rows.actions
    counts = np.bincount(cell, minlength=state_count * action_count).astype(float)
    sums = np.bincount(cell, weights=rows.rewards, minlength=counts.size)
    means = sums / np.maximum(counts, 1)
    within = float(np.sum((rows.rewards - means[cell]) ** 2))
    return Cells(means, counts, within, (state_count, action_count))


def row_sample_dataset(instance, mu, n, rng_seed) -> Cells:
    """`env.sample_dataset` on the row path: n rows drawn, then binned."""
    return binned_cells(sample_rows(instance, mu, n, rng_seed), *instance.model.means.shape)


@contextlib.contextmanager
def row_reference():
    """The cc study on the row path while the context is open: each cell's
    dataset drawn as rows and binned."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "sample_dataset", row_sample_dataset)
        yield mp


def tabular_design(model_class, states, actions) -> np.ndarray:
    """phi_k(x_i, a_i) for each (state, action) pair, shape (m, d_k)."""
    return features_all_actions(model_class, states)[np.arange(len(states)), actions]


def row_design_fit(rows: TabularRows, model_class, lam: float):
    """`ridge_fit` on logged rows' n-row design."""
    phi = tabular_design(model_class, rows.states, rows.actions)
    return ridge_fit(phi, rows.rewards, lam)
