"""Ground-truth-aware evaluation: regret and fixed-design best-fit parameters.

Everything here requires simulator knowledge of the true mean rewards and is
used by the experiment harness and the acceptance checks, never by the
selection algorithms themselves.
"""
from __future__ import annotations

import numpy as np

PINV_RCOND = 1e-10


def fixed_design_theta_star(features: np.ndarray, true_means: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of phi theta = f over dataset rows."""
    features = np.asarray(features, dtype=float)
    true_means = np.asarray(true_means, dtype=float)
    theta, _, _, _ = np.linalg.lstsq(features, true_means, rcond=PINV_RCOND)
    return theta


def regret_estimate(true_means: np.ndarray, actions: np.ndarray) -> float:
    """Mean of max_a f(x, a) - f(x, pi_hat(x)) over the test states.

    `true_means` is the (m, |A|) table of f over the test states
    (`BanditInstance.mean_rewards`), computed once by the caller and shared
    by every policy scored on those states, and `actions` the (m,) actions
    pi_hat takes on them (`Policy.actions`).
    """
    actions = np.asarray(actions)
    if true_means.ndim != 2 or actions.shape != true_means.shape[:1]:
        raise ValueError(
            f"need an (m, |A|) mean table and the m actions taken on its states, "
            f"got shapes {true_means.shape} and {actions.shape}"
        )
    hat = true_means[np.arange(len(actions)), actions]
    return float(np.mean(true_means.max(axis=1) - hat))
