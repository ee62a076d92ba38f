"""The per-class reference for nested-family fits.

The library fits a nested family once and reads each class's fit and widths
off the widest class's (`RidgeFit.leading`, `inv_quad_norms` with prefix
dims).  These helpers fit and score every class on its own, as the ac study,
SLOPE and hold-out did before, so tests can check that the family path only
reorders their arithmetic.
"""
import numpy as np

from batchselect.env import derive_seed, sample_split_cells
from batchselect.experiments import ResultRow
from batchselect.features import design_matrix, features_all_actions
from batchselect.learner import GreedyPolicy
from batchselect.linalg import inv_quad_norms, ridge_fit
from batchselect.diagnostics import regret_estimate
from batchselect.selection import (
    holdout_choice,
    holdout_split_sizes,
    slope_select,
    zeta_coefficient,
)


def per_class_slope(fits, classes, validation_states, delta, penalty_scale):
    """SLOPE's (chosen, audit) with each class's own features and widths."""
    m_classes, n_states = len(classes), len(validation_states)
    weights = np.full(n_states, 1.0 / n_states)
    widths = np.empty(m_classes)
    preds = []
    for k, (fit, mc) in enumerate(zip(fits, classes)):
        stack = features_all_actions(mc, validation_states)
        norms = inv_quad_norms(fit.cov, stack.reshape(-1, mc.dim)).reshape(stack.shape[:-1])
        zeta = zeta_coefficient(fit.n, mc.dim, fit.lam, delta / m_classes, fit.cov)
        widths[k] = penalty_scale * zeta * float(weights @ norms.max(axis=1))
        preds.append(fit.predictions(stack))
    preds = np.stack(preds)
    actions = np.argmax(preds, axis=2)
    at_actions = np.take_along_axis(preds[:, None], actions[None, :, :, None], axis=3)[:, :, :, 0]
    values = np.moveaxis(at_actions, 2, -1) @ weights
    khat, vhat = slope_select(values, widths)
    audit = {"values": values, "widths": widths, "khat_per_policy": khat}
    return int(np.argmax(vhat)), audit


def per_class_holdout(designs, fit_on, score_on, lam):
    """Hold-out's (chosen, losses, fits) with each class fit on its own design."""
    fits = [ridge_fit(phi, fit_on.means, lam, counts=fit_on.counts) for phi in designs]
    losses = np.array([score_on.mean_squared_error(f.predictions(phi))
                       for f, phi in zip(fits, designs)])
    return int(holdout_choice(losses)), losses, fits


def per_class_ac_cell(config, ctx, n, trial, audit):
    """`experiments._ac_cell` with one ridge fit per class and design."""
    classes = ctx.classes
    n_in, _ = holdout_split_sizes(n, config.ac.holdout_split)
    data_seed = derive_seed(config.seed, f"ac-data-{n}", trial)
    features, fit_on, score_on = sample_split_cells(ctx.instance, ctx.mu, n, n_in, data_seed)
    designs = [design_matrix(mc, features) for mc in classes]
    counts = fit_on.counts + score_on.counts
    fits = [ridge_fit(phi, fit_on.means, config.lam, counts=counts) for phi in designs]
    rows, reports = [], []
    for mc, fit in zip(classes, fits):
        regret = regret_estimate(ctx.test_means, GreedyPolicy(fit, mc), ctx.test_states)
        rows.append(ResultRow(n, f"class_{mc.dim}", trial, regret))
    chosen, slope_audit = per_class_slope(
        fits, classes, ctx.validation, config.delta, config.penalty_scale
    )
    ho_chosen, losses, ho_fits = per_class_holdout(designs, fit_on, score_on, config.lam)
    for method, policy in (
        ("slope", GreedyPolicy(fits[chosen], classes[chosen])),
        ("holdout", GreedyPolicy(ho_fits[ho_chosen], classes[ho_chosen])),
    ):
        regret = regret_estimate(ctx.test_means, policy, ctx.test_states)
        rows.append(ResultRow(n, method, trial, regret))
    if audit:
        for method, chosen_k, extra in (("slope", chosen, slope_audit),
                                        ("holdout", ho_chosen, {"losses": losses})):
            audit_lists = {key: np.asarray(value).tolist() for key, value in extra.items()}
            report = {"chosen": chosen_k, "audit": audit_lists}
            reports.append({"n": n, "trial": trial, "method": method, "report": report})
    return rows, reports
