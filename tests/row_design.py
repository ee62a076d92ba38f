"""The row-design reference for tabular fits.

The library fits a tabular class from its dataset's per-cell statistics
(`Dataset.cells`).  These helpers build the design that fit stands for, one
feature row per logged row, and fit it row by row.
"""
import numpy as np

from batchselect.features import features_all_actions
from batchselect.linalg import ridge_fit


def tabular_design(model_class, states, actions) -> np.ndarray:
    """phi_k(x_i, a_i) for each (state, action) pair, shape (m, d_k)."""
    return features_all_actions(model_class, states)[np.arange(len(states)), actions]


def row_design_fit(dataset, model_class, lam: float):
    """`ridge_fit` on a tabular dataset's n-row design."""
    phi = tabular_design(model_class, dataset.states, dataset.actions)
    return ridge_fit(phi, dataset.rewards, lam)
