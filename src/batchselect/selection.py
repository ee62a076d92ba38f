"""The three model-selection algorithms: complexity-coverage, SLOPE, hold-out."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .env import StateBatch, rng_stream
from .features import ModelClass, check_nested, features_all_actions
from .learner import (
    MAX_DELTA,
    CompositePessimisticPolicy,
    GreedyPolicy,
    PessimisticLearner,
    Policy,
)
from .linalg import (
    CovarianceMatrix,
    checked_counts,
    inv_quad_norms,
    inv_sqrt_spectral_norm,
    ridge_fit,
)

# Hold-out losses this close to the minimum, relative to it, count as tied.
# Classes that fit the same values (nested classes on data that cannot tell
# them apart) get losses that differ in their last bits only.
HOLDOUT_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SlopeInputs:
    values: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "widths", widths)
        if values.shape != widths.shape or values.ndim != 1 or values.size == 0:
            raise ValueError("values and widths must be nonempty vectors of equal length")
        if not (np.all(np.isfinite(widths)) and np.all(widths >= 0)):
            raise ValueError("widths must be finite and nonnegative")


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
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not (0 < delta <= MAX_DELTA + 1e-15):
        raise ValueError("delta must lie in (0, 1/e]")
    log_term = math.log(4 * d / delta)
    middle = 192.0 * math.sqrt(d / n) * inv_sqrt_spectral_norm(cov) * log_term
    tail = math.sqrt((5 * d + 10 * math.sqrt(d * log_term) + 10 * log_term) / n)
    return math.sqrt(lam / n) + middle + tail


def slope_select(inputs: SlopeInputs) -> tuple[int, float]:
    """Smallest index whose interval family [v_j - 2w_j, v_j + 2w_j], j >= k,
    has a common point (closed intervals; touching counts).  Returns the
    0-based index and its value; the last index is always valid.
    """
    values, widths = inputs.values, inputs.widths
    m = len(values)
    lowers = values - 2 * widths
    uppers = values + 2 * widths
    # suffix extrema: intersection from k is nonempty iff max lower <= min upper
    max_lower = np.maximum.accumulate(lowers[::-1])[::-1]
    min_upper = np.minimum.accumulate(uppers[::-1])[::-1]
    feasible = np.flatnonzero(max_lower <= min_upper)
    k = int(feasible[0]) if feasible.size else m - 1
    return k, float(values[k])


def complexity_coverage_policy(
    learners: list[PessimisticLearner],
    classes: list[ModelClass],
    delta: float,
) -> tuple[Policy, SelectionReport]:
    """Algorithm: pessimistic per (action, class), optimistic across classes.

    Learners must be fit on the same dataset with beta computed at
    confidence delta/M.
    """
    if len(learners) == 0:
        raise ValueError("need at least one learner")
    if len(learners) != len(classes):
        raise ValueError("one learner per class required")
    policy = CompositePessimisticPolicy(learners, classes)
    audit: dict = {"delta": delta, "dims": [mc.dim for mc in classes]}
    report = SelectionReport("ComplexityCoverage", "per-state", audit)
    return policy, report


def slope_policy_select(
    learners_greedy: list[tuple],
    validation_states: StateBatch,
    delta: float,
    penalty_scale: float = 1.0,
) -> tuple[Policy, SelectionReport]:
    """SLOPE selection over greedy per-class policies.

    `learners_greedy` holds (RidgeFit, ModelClass) pairs fit on the same
    dataset; classes must be nested.  Expectations over states are empirical
    means over `validation_states`.
    """
    if len(learners_greedy) == 0:
        raise ValueError("need at least one fitted class")
    if validation_states is None or len(validation_states) == 0:
        raise ValueError("validation states must be nonempty")
    fits = [fit for fit, _ in learners_greedy]
    classes = [mc for _, mc in learners_greedy]
    if not check_nested(classes, probe_states=validation_states):
        raise ValueError("SLOPE requires a nested collection of model classes")
    m_classes = len(classes)
    n_states = len(validation_states)
    weights = np.full(n_states, 1.0 / n_states)

    policies = [GreedyPolicy(fit, mc) for fit, mc in learners_greedy]
    policy_actions = [p.actions(validation_states) for p in policies]

    widths = np.empty(m_classes)
    values = np.empty((m_classes, m_classes))  # values[k, l] = vhat_k(pi_l)
    rows = np.arange(n_states)
    for k, (fit, mc) in enumerate(learners_greedy):
        phi = features_all_actions(mc, validation_states)
        flat = phi.reshape(-1, mc.dim)
        norms = inv_quad_norms(fit.cov, flat).reshape(n_states, -1)
        zeta = zeta_coefficient(fit.n, mc.dim, fit.lam, delta / m_classes, fit.cov)
        widths[k] = penalty_scale * zeta * float(weights @ norms.max(axis=1))
        preds = (flat @ fit.theta_hat).reshape(n_states, -1)
        for l in range(m_classes):
            values[k, l] = float(weights @ preds[rows, policy_actions[l]])

    khat = np.empty(m_classes, dtype=int)
    vhat = np.empty(m_classes)
    for l in range(m_classes):
        khat[l], vhat[l] = slope_select(SlopeInputs(values[:, l], widths))
    chosen_l = int(np.argmax(vhat))
    report = SelectionReport(
        "Slope",
        chosen_l,
        {
            "delta": delta,
            "penalty_scale": penalty_scale,
            "dims": [mc.dim for mc in classes],
            "values": values,
            "widths": widths,
            "khat_per_policy": khat,
            "vhat_per_policy": vhat,
        },
    )
    return policies[chosen_l], report


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


@dataclass(frozen=True)
class Cells:
    """One side of a hold-out split, as per-cell reward statistics.

    Cell j is row `rows[j]` of every class's design (row j when `rows` is
    None) and holds `counts[j]` logged rows (one when `counts` is None) whose
    mean reward is `means[j]`; `within` is the sum over all those rows of the
    squared deviation of each reward from its cell's mean.
    """

    means: np.ndarray
    rows: np.ndarray | None = None
    counts: np.ndarray | None = None
    within: float = 0.0

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        object.__setattr__(self, "means", means)
        if means.ndim != 1 or not np.all(np.isfinite(means)):
            raise ValueError("cell means must be a finite vector")
        if self.rows is not None and np.shape(self.rows) != means.shape:
            raise ValueError("need one design row per cell")
        if self.counts is not None:
            object.__setattr__(self, "counts", checked_counts(self.counts, len(means)))
        elif len(means) < 1:
            raise ValueError("need at least one row")
        if not (math.isfinite(self.within) and self.within >= 0):
            raise ValueError("within-cell sum of squares must be finite and nonnegative")

    @property
    def n(self) -> int:
        return len(self.means) if self.counts is None else int(self.counts.sum())

    def features(self, design: np.ndarray) -> np.ndarray:
        """The cells' rows of one class's design."""
        # np.take gathers rows faster than fancy indexing on tall, narrow designs
        return design if self.rows is None else np.take(design, self.rows, axis=0)

    def mean_squared_error(self, predictions: np.ndarray) -> float:
        """(sum_j c_j (p_j - ybar_j)^2 + within) / n: the mean squared error of
        predicting p_j on every row of cell j."""
        squares = (predictions - self.means) ** 2
        if self.counts is not None:
            squares = self.counts * squares
        return float(np.sum(squares) + self.within) / self.n


def row_split(rewards: np.ndarray, split_fraction: float, rng_seed: int) -> tuple[Cells, Cells]:
    """Hold-out's (fit, held-out) split of logged rows by a seeded shuffle:
    a prefix of `holdout_split_sizes` rows and the rest, each row a cell."""
    n_in, _ = holdout_split_sizes(len(rewards), split_fraction)
    perm = rng_stream(rng_seed, "holdout-split").permutation(len(rewards))
    rows_in, rows_out = perm[:n_in], perm[n_in:]
    return Cells(rewards[rows_in], rows_in), Cells(rewards[rows_out], rows_out)


def holdout_select(
    designs: list[np.ndarray],
    fit_on: Cells,
    score_on: Cells,
    classes: list[ModelClass],
    lam: float,
) -> tuple[Policy, SelectionReport]:
    """Fit each class on `fit_on`'s cells, select by out-of-sample squared loss.

    `designs[k]` is class k's design, shape (m, d_k), the same m for every
    class, whose rows the cells of both sides name.  When both sides are
    uncounted rows they must hold m rows between them, so no design row is
    left out.  Each class is ridge-fit on `fit_on` (weighted by its counts)
    and scored by its mean squared error over `score_on`'s rows.  Returns the
    greedy policy of the class minimizing that loss; losses within a relative
    HOLDOUT_TIE_RTOL of the minimum tie, and ties break to the lowest class
    index.
    """
    shapes = [np.shape(phi) for phi in designs]
    m = shapes[0][0] if shapes and shapes[0] else 0
    if shapes != [(m, mc.dim) for mc in classes]:
        dims = [mc.dim for mc in classes]
        raise ValueError(f"need one (m, d_k) design per class of dims {dims}, got {shapes}")
    sides = (fit_on, score_on)
    if any(side.rows is None and len(side.means) != m for side in sides):
        raise ValueError(f"cells without rows need one cell per row of the {m}-row designs")
    if any(
        side.rows is not None and not np.all((0 <= side.rows) & (side.rows < m)) for side in sides
    ):
        raise ValueError(f"cell rows must lie in the {m}-row designs")
    rows_only = all(side.rows is not None and side.counts is None for side in sides)
    if rows_only and fit_on.n + score_on.n != m:
        raise ValueError(f"the split's {fit_on.n + score_on.n} rows must cover the {m}-row designs")

    losses = np.empty(len(classes))
    fits = []
    for k, phi in enumerate(designs):
        fit = ridge_fit(fit_on.features(phi), fit_on.means, lam, counts=fit_on.counts)
        fits.append(fit)
        losses[k] = score_on.mean_squared_error(score_on.features(phi) @ fit.theta_hat)
    chosen = int(np.flatnonzero(losses <= losses.min() * (1 + HOLDOUT_TIE_RTOL))[0])
    report = SelectionReport(
        "HoldOut",
        chosen,
        {
            "losses": losses,
            "n_in": fit_on.n,
            "n_out": score_on.n,
            "dims": [mc.dim for mc in classes],
        },
    )
    return GreedyPolicy(fits[chosen], classes[chosen]), report
