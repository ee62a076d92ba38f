"""The pessimism width beta, Algorithm 1's fit, and the deterministic policies."""
from __future__ import annotations

import math

import numpy as np

from .env import Cells, StateBatch
from .features import (
    ModelClass,
    RepresentationMismatchError,
    TabularMap,
    feature_source,
    features_all_actions,
)
from .linalg import RidgeFit, ridge_fit

MAX_DELTA = 1.0 / math.e


def check_width_arguments(n: int, d: int, lam: float, delta: float) -> None:
    """The domain shared by the beta and zeta width coefficients: n, d >= 1,
    lambda >= 0 and delta in (0, 1/e].  Raises ValueError outside it."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not (0 < delta <= MAX_DELTA + 1e-15):
        raise ValueError("delta must lie in (0, 1/e]")


def beta_coefficient(n: int, d: int, lam: float, delta: float) -> float:
    """Confidence-width coefficient of the pessimism penalty.

    beta = sqrt(lam d / n) + sqrt((5d + 10 sqrt(d log(1/delta)) + 10 log(1/delta)) / n)
    """
    check_width_arguments(n, d, lam, delta)
    log_term = math.log(1.0 / delta)
    return math.sqrt(lam * d / n) + math.sqrt(
        (5 * d + 10 * math.sqrt(d * log_term) + 10 * log_term) / n
    )


def fit_pessimistic(
    cells: Cells,
    model_class: ModelClass,
    lam: float,
    delta: float,
    penalty_scale: float = 1.0,
) -> PessimisticPolicy:
    """Algorithm 1: ridge-fit one tabular class on a tabular dataset and return
    its pessimistic policy at confidence delta.

    `cells` holds the count and mean reward of the rows logged at each (x, a)
    of the class's |X| x |A| table, in cell x * |A| + a, as
    `env.sample_dataset` draws them.  The fit reads the table's rows at those
    counts: the n-row fit up to rounding, at a cost of |X| |A| d^2 whatever n
    is.  Cells drawn on another |X| x |A| grid than the table's (`Cells.grid`)
    raise ValueError.  A truncation class raises RepresentationMismatchError:
    it fits from feature rows (`design_matrix`).
    """
    if not isinstance(model_class.map, TabularMap):
        raise RepresentationMismatchError(
            "truncation map fits from feature rows, not from a tabular dataset's cells"
        )
    grid = model_class.map.table.shape[:2]
    if cells.grid is not None and tuple(cells.grid) != grid:
        raise ValueError(f"cells drawn on a {cells.grid} grid given a class over a {grid} table")
    table = model_class.map.table.reshape(-1, model_class.dim)
    fit = ridge_fit(table, cells.means, lam, counts=cells.counts)
    return PessimisticPolicy([fit], [model_class], delta, penalty_scale)


def pessimistic_values(
    fit: RidgeFit, model_class: ModelClass, states: StateBatch, penalty: float
) -> np.ndarray:
    """Penalized value <phi, theta_hat> - penalty * |phi|_{V^{-1}}, shape (m, |A|),
    or (m, |A|, T) for a fit of T stacked trials, which share the width.

    The values are computed once on the batch's feature source (see
    `feature_source`) and gathered by row.  For a tabular map that costs
    |X| * |A| rows instead of m * |A|; it is exact because each value is a
    function of its own feature row alone.
    """
    source, rows = feature_source(model_class, states)
    plain, widths = fit.predictions_and_widths(source)
    penalties = penalty * widths
    if plain.ndim > penalties.ndim:
        penalties = penalties[..., None]
    return (plain - penalties)[rows]


def check_penalty_scale(penalty_scale: float) -> None:
    """Raise ValueError unless the width multiplier is finite and nonnegative."""
    if not (math.isfinite(penalty_scale) and penalty_scale >= 0):
        raise ValueError(f"penalty_scale must be finite and nonnegative, got {penalty_scale}")


class Policy:
    """Deterministic decision rule; ties always break to the lowest action index."""

    def actions(self, states: StateBatch) -> np.ndarray:
        raise NotImplementedError


class PessimisticPolicy(Policy):
    """Per-state argmax of pessimistic values over (action, class) pairs.

    One ridge fit per class, all on the same dataset.  Class k runs at
    confidence delta/M, so its penalty is penalty_scale * beta_k with
    beta_k = beta(n, d_k, lambda, delta/M); with one class this is
    Algorithm 1's policy.  Ties break to the lowest action index, then the
    lowest class index.  Fits of T stacked trials (theta_hat of shape (d, T))
    give every value and choice a last axis of T trials, so one policy
    selects for all of them with the widths computed once.
    """

    def __init__(self, fits, classes, delta: float, penalty_scale: float):
        if len(fits) == 0:
            raise ValueError("need at least one fitted class")
        if len(fits) != len(classes):
            raise ValueError(f"need one fit per class, got {len(fits)} and {len(classes)}")
        check_penalty_scale(penalty_scale)
        self.fits = list(fits)
        self.classes = list(classes)
        self.betas = [
            beta_coefficient(fit.n, mc.dim, fit.lam, delta / len(self.classes))
            for fit, mc in zip(self.fits, self.classes)
        ]
        self.penalty_scale = penalty_scale

    def value_stack(self, states: StateBatch) -> np.ndarray:
        """Pessimistic values per class, shape (M, m, |A|) or (M, m, |A|, T)."""
        return np.stack(
            [
                pessimistic_values(fit, mc, states, self.penalty_scale * beta)
                for fit, mc, beta in zip(self.fits, self.classes, self.betas)
            ]
        )

    def actions_and_classes(self, states: StateBatch):
        """Each state's action and the class that values it most, shape (m,)
        or (m, T)."""
        stack = self.value_stack(states)
        acts = np.argmax(stack.max(axis=0), axis=1)
        at_acts = np.take_along_axis(stack, acts[None, :, None], axis=2)[:, :, 0]
        return acts, np.argmax(at_acts, axis=0)

    def actions(self, states: StateBatch) -> np.ndarray:
        return self.actions_and_classes(states)[0]


class GreedyPolicy(Policy):
    """Greedy over the unpenalized ridge prediction of a single class; a fit
    of T stacked trials gives actions of shape (m, T)."""

    def __init__(self, fit: RidgeFit, model_class: ModelClass):
        self.fit = fit
        self.model_class = model_class

    def values(self, states: StateBatch) -> np.ndarray:
        return self.fit.predictions(features_all_actions(self.model_class, states))

    def actions(self, states: StateBatch) -> np.ndarray:
        return np.argmax(self.values(states), axis=1)
