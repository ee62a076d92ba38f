"""The per-class reference for nested-family fits.

The library fits a nested family once and reads each class's fit and widths
off the widest class's (`RidgeFit.leading`, `inv_quad_norms` with prefix
dims).  These helpers fit and score every class on its own, as the ac study,
SLOPE and hold-out did before, so tests can check that the family path only
reorders their arithmetic.
"""
import numpy as np

from batchselect.env import derive_seed, sample_split_cells
from batchselect.experiments import _Cell
from batchselect.features import design_matrix, features_all_actions
from batchselect.learner import GreedyPolicy
from batchselect.linalg import inv_quad_norms, ridge_fit
from batchselect.selection import SelectionReport, SlopeTerms, holdout_choice, holdout_split_sizes


def per_class_slope_terms(fits, classes, validation_states):
    """SLOPE's per-state terms (`selection.slope_terms`) with each class's
    own features and widths."""
    max_norms, preds = [], []
    for fit, mc in zip(fits, classes, strict=True):
        stack = features_all_actions(mc, validation_states)
        norms = inv_quad_norms(fit.cov, stack.reshape(-1, mc.dim)).reshape(stack.shape[:-1])
        max_norms.append(norms.max(axis=1))
        preds.append(fit.predictions(stack))
    preds = np.stack(preds)
    actions = np.argmax(preds, axis=2)
    at_actions = np.take_along_axis(preds[:, None], actions[None, :, :, None], axis=3)[:, :, :, 0]
    return SlopeTerms(np.stack(max_norms), actions, at_actions)


def per_class_holdout(designs, fit_on, score_on, lam):
    """Hold-out's (chosen, losses, fits) with each class fit on its own design."""
    fits = [ridge_fit(phi, fit_on.means, lam, counts=fit_on.counts) for phi in designs]
    losses = np.array([score_on.mean_squared_error(f.predictions(phi))
                       for f, phi in zip(fits, designs)])
    return int(holdout_choice(losses)), losses, fits


def per_class_ac_fit(config, ctx, n, trial):
    """`experiments._ac_fit` with one ridge fit per class and design."""
    classes = ctx.classes
    n_in, _ = holdout_split_sizes(n, config.ac.holdout_split)
    data_seed = derive_seed(config.seed, f"ac-data-{n}", trial)
    features, fit_on, score_on = sample_split_cells(ctx.instance, ctx.mu, n, n_in, data_seed)
    designs = [design_matrix(mc, features) for mc in classes]
    counts = fit_on.counts + score_on.counts
    fits = [ridge_fit(phi, fit_on.means, config.lam, counts=counts) for phi in designs]
    policies = {f"class_{mc.dim}": GreedyPolicy(fit, mc) for mc, fit in zip(classes, fits)}
    chosen, losses, ho_fits = per_class_holdout(designs, fit_on, score_on, config.lam)
    policies["holdout"] = GreedyPolicy(ho_fits[chosen], classes[chosen])
    report = SelectionReport("HoldOut", chosen, {"losses": losses})
    return _Cell(n, policies, {"holdout": report}, fits)
