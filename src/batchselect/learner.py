"""Pessimistic linear learner and the deterministic policies built on it."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Dataset, StateBatch
from .features import ModelClass, design_matrix, feature_source, features_all_actions
from .linalg import RidgeFit, ridge_fit

MAX_DELTA = 1.0 / math.e


def beta_coefficient(n: int, d: int, lam: float, delta: float) -> float:
    """Confidence-width coefficient of the pessimism penalty.

    beta = sqrt(lam d / n) + sqrt((5d + 10 sqrt(d log(1/delta)) + 10 log(1/delta)) / n)
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not (0 < delta <= MAX_DELTA + 1e-15):
        raise ValueError("delta must lie in (0, 1/e]")
    log_term = math.log(1.0 / delta)
    return math.sqrt(lam * d / n) + math.sqrt(
        (5 * d + 10 * math.sqrt(d * log_term) + 10 * log_term) / n
    )


@dataclass(frozen=True)
class PessimisticLearner:
    fit: RidgeFit
    beta: float
    penalty_scale: float = 1.0


def fit_pessimistic(
    dataset: Dataset,
    model_class: ModelClass,
    lam: float,
    delta: float,
    penalty_scale: float = 1.0,
) -> PessimisticLearner:
    """Ridge-fit one class and attach its beta coefficient.

    A feature dataset fits the class's design of its logged rows.  A tabular
    dataset fits the class's |X| x |A| table with the dataset's per-cell
    counts and mean rewards (`Dataset.cells`): the n-row fit up to rounding,
    at a cost of |X| |A| d^2 whatever n is.
    """
    if dataset.states is None:
        phi = design_matrix(model_class, dataset.logged, dataset.actions)
        fit = ridge_fit(phi, dataset.rewards, lam)
    else:
        table, _ = feature_source(model_class, dataset.states)
        cells = dataset.cells(*table.shape[:2])
        fit = ridge_fit(table.reshape(-1, model_class.dim), cells.means, lam, counts=cells.counts)
    beta = beta_coefficient(dataset.n, model_class.dim, lam, delta)
    return PessimisticLearner(fit, beta, penalty_scale)


def pessimistic_values(
    learner: PessimisticLearner, model_class: ModelClass, states: StateBatch
) -> np.ndarray:
    """Penalized value <phi, theta_hat> - scale * beta * |phi|_{V^{-1}}, shape (m, |A|).

    The values are computed once on the batch's feature source (see
    `feature_source`) and gathered by row.  For a tabular map that costs
    |X| * |A| rows instead of m * |A|; it is exact because each value is a
    function of its own feature row alone.
    """
    source, rows = feature_source(model_class, states)
    plain, widths = learner.fit.predictions_and_widths(source)
    return (plain - learner.penalty_scale * learner.beta * widths)[rows]


class Policy:
    """Deterministic decision rule; ties always break to the lowest action index."""

    def actions(self, states: StateBatch) -> np.ndarray:
        raise NotImplementedError


class PessimisticPolicy(Policy):
    """Per-state argmax of pessimistic values over (action, class) pairs.

    One learner per class; with one class this is Algorithm 1's policy.  Ties
    break to the lowest action index, then the lowest class index.
    """

    def __init__(self, learners, classes):
        if len(learners) == 0:
            raise ValueError("need at least one learner")
        if len(learners) != len(classes):
            raise ValueError(f"need one learner per class, got {len(learners)} and {len(classes)}")
        self.learners = list(learners)
        self.classes = list(classes)

    def value_stack(self, states: StateBatch) -> np.ndarray:
        """Pessimistic values per class, shape (M, m, |A|)."""
        return np.stack(
            [pessimistic_values(lr, mc, states) for lr, mc in zip(self.learners, self.classes)]
        )

    def actions_and_classes(self, states: StateBatch):
        stack = self.value_stack(states)
        best = stack.max(axis=0)  # (m, |A|)
        acts = np.argmax(best, axis=1)
        rows = np.arange(len(states))
        chosen_k = np.argmax(stack[:, rows, acts], axis=0)
        return acts, chosen_k

    def actions(self, states: StateBatch) -> np.ndarray:
        return self.actions_and_classes(states)[0]


class GreedyPolicy(Policy):
    """Greedy over the unpenalized ridge prediction of a single class."""

    def __init__(self, fit: RidgeFit, model_class: ModelClass):
        self.fit = fit
        self.model_class = model_class

    def values(self, states: StateBatch) -> np.ndarray:
        return self.fit.predictions(features_all_actions(self.model_class, states))

    def actions(self, states: StateBatch) -> np.ndarray:
        return np.argmax(self.values(states), axis=1)
