"""The three model-selection algorithms: complexity-coverage, SLOPE, hold-out."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .env import Cells, StateBatch
from .features import ModelClass, check_nested, features_all_actions
from .learner import GreedyPolicy, PessimisticPolicy, Policy, check_width_arguments
from .linalg import CovarianceMatrix, RidgeFit, inv_quad_norms, inv_sqrt_spectral_norm, ridge_fit

# Hold-out's split is drawn by numpy's hypergeometric, which takes fewer than
# this many rows in all.
MAX_HOLDOUT_ROWS = 10**9
# Hold-out losses this close to the minimum, relative to it, count as tied.
# Classes that fit the same values (nested classes on data that cannot tell
# them apart) get losses that differ in their last bits only.
HOLDOUT_TIE_RTOL = 1e-12


@dataclass
class SelectionReport:
    method: str
    chosen: object  # class index, or per-state map description
    audit: dict = field(default_factory=dict)

    def to_json(self) -> str:
        def default(obj):
            if isinstance(obj, np.ndarray):
                return obj.tolist()
            if isinstance(obj, (np.integer,)):
                return int(obj)
            if isinstance(obj, (np.floating,)):
                return float(obj)
            raise TypeError(f"not serializable: {type(obj)}")

        return json.dumps(
            {"method": self.method, "chosen": self.chosen, "audit": self.audit},
            default=default,
            sort_keys=True,
        )


def zeta_coefficient(
    n: int, d: int, lam: float, delta: float, cov: CovarianceMatrix
) -> float:
    """Estimation-width coefficient for greedy fits under random design.

    zeta = sqrt(lam/n) + 192 sqrt(d/n) |V^{-1/2}| log(4d/delta)
         + sqrt((5d + 10 sqrt(d log(4d/delta)) + 10 log(4d/delta)) / n)
    """
    check_width_arguments(n, d, lam, delta)
    log_term = math.log(4 * d / delta)
    middle = 192.0 * math.sqrt(d / n) * inv_sqrt_spectral_norm(cov) * log_term
    tail = math.sqrt((5 * d + 10 * math.sqrt(d * log_term) + 10 * log_term) / n)
    return math.sqrt(lam / n) + middle + tail


def slope_select(values: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SLOPE's choice for each column of an (M, L) value matrix.

    Column l holds M estimates of one quantity and `widths[k]` is estimate
    k's width.  For each column, the smallest k whose interval family
    [v_j - 2w_j, v_j + 2w_j], j >= k, has a common point (closed intervals;
    touching counts); the last index is always valid.  Returns the 0-based
    indices and the chosen values, each of shape (L,).  Values of shape
    (M, L, T) hold T stacked trials as further columns, and the returns are
    then (L, T).
    """
    values = np.asarray(values, dtype=float)
    widths = np.asarray(widths, dtype=float)
    if values.ndim not in (2, 3) or values.shape[0] == 0 or widths.shape != values.shape[:1]:
        raise ValueError(
            f"need an (M, L) value matrix with M >= 1 and M widths, "
            f"got values {values.shape} and widths {widths.shape}"
        )
    if not (np.all(np.isfinite(widths)) and np.all(widths >= 0)):
        raise ValueError("widths must be finite and nonnegative")
    spans = 2 * widths.reshape(widths.shape + (1,) * (values.ndim - 1))
    lowers = values - spans
    uppers = values + spans
    # suffix extrema: intersection from k is nonempty iff max lower <= min upper
    max_lower = np.maximum.accumulate(lowers[::-1], axis=0)[::-1]
    min_upper = np.minimum.accumulate(uppers[::-1], axis=0)[::-1]
    feasible = max_lower <= min_upper
    feasible[-1] = True
    khat = np.argmax(feasible, axis=0)
    return khat, np.take_along_axis(values, khat[None], axis=0)[0]


def complexity_coverage_policy(
    fits: list[RidgeFit],
    classes: list[ModelClass],
    delta: float,
    penalty_scale: float = 1.0,
) -> tuple[PessimisticPolicy, SelectionReport]:
    """Algorithm: pessimistic per (action, class), optimistic across classes.

    `fits` holds one ridge fit per class, all on the same dataset; the policy
    is `PessimisticPolicy(fits, classes, delta, penalty_scale)`, which runs
    each class at confidence delta/M.
    """
    policy = PessimisticPolicy(fits, classes, delta, penalty_scale)
    audit: dict = {"delta": delta, "dims": [mc.dim for mc in classes], "betas": policy.betas}
    return policy, SelectionReport("ComplexityCoverage", "per-state", audit)


@dataclass(frozen=True)
class SlopeTerms:
    """What SLOPE reads of a batch of m validation states, for one nested
    family's fits: each class's widest norm max_a |phi_k(x, a)|_{V_k^{-1}}
    at each state, shape (M, m); each class's greedy actions, (M, m); and
    class k's prediction at class l's action, (M, M, m).  Fits of T stacked
    trials add a last axis of T to the actions and the predictions.  Every
    entry reads its own state alone, so the terms of consecutive batches,
    concatenated (`concatenate`), are the terms of their union."""

    max_norms: np.ndarray
    actions: np.ndarray
    at_actions: np.ndarray

    def __len__(self) -> int:
        return self.max_norms.shape[1]

    @staticmethod
    def concatenate(parts) -> SlopeTerms:
        """The terms of consecutive batches of states as the terms of their union."""
        return SlopeTerms(
            np.concatenate([p.max_norms for p in parts], axis=1),
            np.concatenate([p.actions for p in parts], axis=1),
            np.concatenate([p.at_actions for p in parts], axis=2),
        )


def slope_terms(fits: list[RidgeFit], classes: list[ModelClass], states: StateBatch) -> SlopeTerms:
    """SLOPE's per-state terms of one ridge fit per nested class on `states`.

    The widest class's features on the states are built once, and class k
    reads their first d_k coordinates.  Every class's norms
    |phi_k|_{V_k^{-1}} come from the widest fit's covariance in one
    block-wise pass (`inv_quad_norms` with the family's dims), since the fits
    share one dataset and V_k is the widest V's leading block.
    """
    if len(fits) == 0:
        raise ValueError("need at least one fitted class")
    if len(fits) != len(classes):
        raise ValueError("one fit per class required")
    if states is None or len(states) == 0:
        raise ValueError("validation states must be nonempty")
    if not check_nested(classes):
        raise ValueError("SLOPE requires a nested collection of model classes")
    dims = [mc.dim for mc in classes]
    stack = features_all_actions(classes[-1], states)  # (m, |A|, d_M)
    norms = inv_quad_norms(fits[-1].cov, stack.reshape(-1, dims[-1]), dims)
    # the values GreedyPolicy(fit, classes[k]) reads, so these are its actions
    preds = np.stack([fit.predictions(stack[..., :d]) for fit, d in zip(fits, dims)])
    actions = np.argmax(preds, axis=2)  # (M, m[, T])
    at_actions = np.take_along_axis(preds[:, None], actions[None, :, :, None], axis=3)[:, :, :, 0]
    max_norms = norms.reshape((len(dims),) + stack.shape[:-1]).max(axis=2)  # (M, m)
    return SlopeTerms(max_norms, actions, at_actions)


def slope_choice(
    fits: list[RidgeFit],
    classes: list[ModelClass],
    terms: SlopeTerms,
    delta: float,
    penalty_scale: float = 1.0,
) -> tuple[np.ndarray, dict]:
    """SLOPE over the greedy policies of one ridge fit per nested class,
    from their terms on the validation states (`slope_terms`), whose
    expectations are empirical means.  Returns the index of the chosen policy
    and the audit.  Fits of T stacked trials share their widths, which read
    only V and n, and enter SLOPE's value matrix as T further columns, so the
    choice has shape (T,).
    """
    if len(fits) != len(classes) or len(terms.max_norms) != len(fits):
        raise ValueError(
            f"need one fit and one row of terms per class, got {len(fits)} fits, "
            f"{len(classes)} classes and {len(terms.max_norms)} rows"
        )
    m_classes, dims = len(classes), [mc.dim for mc in classes]
    weights = np.full(len(terms), 1.0 / len(terms))
    widths = np.empty(m_classes)
    for k, (fit, d) in enumerate(zip(fits, dims)):
        zeta = zeta_coefficient(fit.n, d, fit.lam, delta / m_classes, fit.cov)
        widths[k] = penalty_scale * zeta * float(weights @ terms.max_norms[k])
    # values[k, l] = vhat_k(pi_l), class k's mean prediction at class l's actions
    values = np.moveaxis(terms.at_actions, 2, -1) @ weights
    khat, vhat = slope_select(values, widths)
    audit = {
        "delta": delta,
        "penalty_scale": penalty_scale,
        "dims": dims,
        "values": values,
        "widths": widths,
        "khat_per_policy": khat,
        "vhat_per_policy": vhat,
    }
    return np.argmax(vhat, axis=0), audit


def slope_policy_select(
    fits: list[RidgeFit],
    classes: list[ModelClass],
    terms: SlopeTerms,
    delta: float,
    penalty_scale: float = 1.0,
) -> tuple[Policy, SelectionReport]:
    """SLOPE selection over greedy per-class policies.

    `fits` holds one ridge fit per class, all on the same dataset, as in
    `complexity_coverage_policy`; classes must be nested.  Expectations over
    states are empirical means over the validation states, read through the
    fits' terms on them (`slope_terms`), which a run that draws the states in
    chunks concatenates (`SlopeTerms.concatenate`).
    """
    chosen, audit = slope_choice(fits, classes, terms, delta, penalty_scale)
    chosen = int(chosen)
    return GreedyPolicy(fits[chosen], classes[chosen]), SelectionReport("Slope", chosen, audit)


def holdout_split_sizes(n: int, split_fraction: float) -> tuple[int, int]:
    """(fit, held-out) row counts of hold-out's split of n rows.  Raises
    ValueError when either side would be empty."""
    if not (0 < split_fraction < 1):
        raise ValueError("split_fraction must lie in (0, 1)")
    n_in = math.ceil(split_fraction * n)
    n_out = n - n_in
    if n_in < 1 or n_out < 1:
        raise ValueError("degenerate hold-out split")
    return n_in, n_out


def holdout_choice(losses: np.ndarray) -> np.ndarray:
    """Hold-out's class for each column of an (M,) or (M, T) loss array: the
    lowest index whose loss lies within a relative HOLDOUT_TIE_RTOL of the
    column's minimum."""
    return np.argmax(losses <= losses.min(axis=0) * (1 + HOLDOUT_TIE_RTOL), axis=0)


def holdout_select(
    design: np.ndarray,
    fit_on: Cells,
    score_on: Cells,
    classes: list[ModelClass],
    lam: float,
) -> tuple[Policy, SelectionReport]:
    """Fit a nested family on `fit_on`'s cells, select by out-of-sample squared loss.

    `design` is the widest class's design, shape (m, d_M), and class k's is
    its first d_k columns; each side holds one cell per design row.  The
    widest class is ridge-fit once on the whole design weighted by `fit_on`'s
    counts, class k's fit is its leading block (`RidgeFit.leading`), and each
    class is scored by its mean squared error over `score_on`'s cells.
    Returns the greedy policy of the class minimizing that loss; losses
    within a relative HOLDOUT_TIE_RTOL of the minimum tie, and ties break to
    the lowest class index.
    """
    m = len(fit_on.means)
    dims = [mc.dim for mc in classes]
    if not check_nested(classes):
        raise ValueError("hold-out fits a nested collection of model classes")
    if np.shape(design) != (m, dims[-1]) or len(score_on.means) != m:
        raise ValueError(
            f"need the widest class's (m, {dims[-1]}) design and m cells on each side, "
            f"got design {np.shape(design)} and {m} + {len(score_on.means)} cells"
        )
    design = np.asarray(design, dtype=float)
    family = ridge_fit(design, fit_on.means, lam, counts=fit_on.counts)
    fits = [family.leading(d) for d in dims]
    losses = np.array(
        [score_on.mean_squared_error(fit.predictions(design[:, : fit.dim])) for fit in fits]
    )
    chosen = int(holdout_choice(losses))
    report = SelectionReport(
        "HoldOut",
        chosen,
        {
            "losses": losses,
            "n_in": fit_on.n,
            "n_out": score_on.n,
            "dims": dims,
        },
    )
    return GreedyPolicy(fits[chosen], classes[chosen]), report
