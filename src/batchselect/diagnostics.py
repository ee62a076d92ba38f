"""Ground-truth-aware evaluation: regret and fixed-design best-fit parameters.

Everything here requires simulator knowledge of the true mean rewards and is
used by the experiment harness and the acceptance checks, never by the
selection algorithms themselves.
"""
from __future__ import annotations

import numpy as np

from .env import BanditInstance, StateBatch
from .learner import Policy

PINV_RCOND = 1e-10


class GroundTruthUnavailableError(ValueError):
    """Operation needs true mean rewards that were not provided."""


def fixed_design_theta_star(features: np.ndarray, true_means: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of phi theta = f over dataset rows."""
    if true_means is None:
        raise GroundTruthUnavailableError("true means are required")
    features = np.asarray(features, dtype=float)
    true_means = np.asarray(true_means, dtype=float)
    theta, _, _, _ = np.linalg.lstsq(features, true_means, rcond=PINV_RCOND)
    return theta


def regret_estimate(
    instance: BanditInstance,
    pi_comparator: Policy,
    pi_hat: Policy,
    test_states: StateBatch,
) -> float:
    """Mean of f(x, pi(x)) - f(x, pi_hat(x)) over the test states."""
    means = instance.mean_rewards(test_states)
    rows = np.arange(len(test_states))
    comp = means[rows, pi_comparator.actions(test_states)]
    hat = means[rows, pi_hat.actions(test_states)]
    return float(np.mean(comp - hat))
