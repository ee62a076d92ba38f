"""Ground-truth-aware evaluation: regret, best-fit parameters, approximation
errors, coverage terms, and oracle-bound right-hand sides.

Everything here requires simulator knowledge of the true mean rewards and is
used by the experiment harness and the acceptance checks, never by the
selection algorithms themselves.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .env import BanditInstance, BehaviorPolicy, StateBatch, concentrability, rng_stream
from .features import ModelClass, design_matrix, features_all_actions
from .learner import Policy
from .linalg import RidgeFit, inv_quad_norms

PINV_RCOND = 1e-10


class GroundTruthUnavailableError(ValueError):
    """Operation needs true mean rewards that were not provided."""


class UnsupportedInstanceError(ValueError):
    """Operation is only defined for tabular instances."""


class IllPosedPopulationError(ValueError):
    """Population second-moment matrix is numerically singular."""


@dataclass(frozen=True)
class ErrorDecomposition:
    """Per-class pieces of the single-class regret bound."""

    class_index: int
    dim: int
    n: int
    theta_star: np.ndarray
    theta_star_norm: float
    approx_eps: float
    coverage_comparator: float
    coverage_worst: float
    beta: float
    zeta: float
    bound_value: float


@dataclass(frozen=True)
class PopulationModel:
    class_index: int
    sigma: np.ndarray
    theta_bar: np.ndarray
    tilde_eps: float
    concentrability: float


def fixed_design_theta_star(features: np.ndarray, true_means: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of phi theta = f over dataset rows."""
    if true_means is None:
        raise GroundTruthUnavailableError("true means are required")
    features = np.asarray(features, dtype=float)
    true_means = np.asarray(true_means, dtype=float)
    theta, _, _, _ = np.linalg.lstsq(features, true_means, rcond=PINV_RCOND)
    return theta


def approx_error_eps(
    theta_star: np.ndarray,
    model_class: ModelClass,
    pi: Policy,
    pi_hat: Policy,
    instance: BanditInstance,
    state_sample: StateBatch,
) -> float:
    """Two-policy absolute-deviation approximation error under theta_star."""
    means = instance.mean_rewards(state_sample)
    rows = np.arange(len(state_sample))
    total = 0.0
    for policy in (pi, pi_hat):
        acts = policy.actions(state_sample)
        phi = design_matrix(model_class, state_sample, acts)
        total += float(np.mean(np.abs(means[rows, acts] - phi @ theta_star)))
    return total


def _tabular_weights(instance: BanditInstance, mu: BehaviorPolicy):
    probs = instance.model.state_probs[:, None] * mu.action_probs[None, :]
    return probs.reshape(-1)


def _tabular_design(model_class: ModelClass, instance: BanditInstance):
    n_states, n_actions = instance.model.means.shape
    idx = np.repeat(np.arange(n_states), n_actions)
    acts = np.tile(np.arange(n_actions), n_states)
    phi = design_matrix(model_class, StateBatch(indices=idx), acts)
    return phi, instance.model.means.reshape(-1)


def alt_approx_errors(
    model_class: ModelClass,
    instance: BanditInstance,
    mu: BehaviorPolicy,
    sample_budget: int = 10_000,
    rng_seed: int = 0,
    include_worst: bool = True,
) -> tuple[float, float]:
    """Worst-case and mean-squared approximation errors of one class.

    The sup-norm error is solved as a Chebyshev linear program over the
    enumerated table (tabular instances only; elsewhere the supremum would
    need an approximation and is refused); the squared error is the
    population least-squares residual, exact for tabular instances and
    Monte-Carlo otherwise.
    """
    if include_worst and not instance.is_tabular:
        raise UnsupportedInstanceError(
            "sup-norm approximation error requires an enumerable tabular instance"
        )
    if instance.is_tabular:
        # scipy is an optional extra: no run of the CLI imports it
        try:
            from scipy.optimize import linprog
        except ImportError as exc:
            raise ImportError(
                "alt_approx_errors needs scipy: pip install 'batchselect[diagnostics]'"
            ) from exc

        phi, f = _tabular_design(model_class, instance)
        n_rows, d = phi.shape
        # min t  s.t.  -t <= phi theta - f <= t
        cost = np.concatenate([np.zeros(d), [1.0]])
        a_ub = np.block([[phi, -np.ones((n_rows, 1))], [-phi, -np.ones((n_rows, 1))]])
        b_ub = np.concatenate([f, -f])
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (d + 1))
        if not res.success:
            raise RuntimeError(f"Chebyshev LP failed: {res.message}")
        eps_worst = float(max(res.fun, 0.0))
        weights = _tabular_weights(instance, mu)
        sqw = np.sqrt(weights)
        theta, _, _, _ = np.linalg.lstsq(phi * sqw[:, None], f * sqw, rcond=PINV_RCOND)
        eps_sq = float(weights @ (phi @ theta - f) ** 2)
        return eps_worst, eps_sq
    # Monte-Carlo squared error; sup over infinite X is not approximated
    rng = rng_stream(rng_seed, "alt-approx")
    states = instance.sample_state_batch(sample_budget, rng)
    acts = rng.choice(instance.action_count, size=sample_budget, p=mu.action_probs)
    phi = design_matrix(model_class, states, acts)
    f = instance.mean_rewards(states)[np.arange(sample_budget), acts]
    theta, _, _, _ = np.linalg.lstsq(phi, f, rcond=PINV_RCOND)
    return float("nan"), float(np.mean((phi @ theta - f) ** 2))


def population_model(
    model_class: ModelClass,
    instance: BanditInstance,
    mu: BehaviorPolicy,
    sample_budget: int = 10_000,
    rng_seed: int = 0,
    class_index: int = 0,
) -> PopulationModel:
    """Population second moments, best predictor theta_bar, and tilde-epsilon."""
    cmu = concentrability(mu)
    if instance.is_tabular:
        phi, f = _tabular_design(model_class, instance)
        weights = _tabular_weights(instance, mu)
        sigma = (phi * weights[:, None]).T @ phi
        target = (phi * weights[:, None]).T @ f
        residual_fn = lambda theta: float(weights @ (phi @ theta - f) ** 2)
    else:
        rng = rng_stream(rng_seed, "population-model")
        states = instance.sample_state_batch(sample_budget, rng)
        acts = rng.choice(instance.action_count, size=sample_budget, p=mu.action_probs)
        phi = design_matrix(model_class, states, acts)
        f = instance.mean_rewards(states)[np.arange(sample_budget), acts]
        sigma = phi.T @ phi / sample_budget
        target = phi.T @ f / sample_budget
        residual_fn = lambda theta: float(np.mean((phi @ theta - f) ** 2))
    eigs = np.linalg.eigvalsh(sigma)
    if eigs[0] <= 1e-10 * max(abs(eigs[-1]), 1e-300):
        raise IllPosedPopulationError(
            f"population covariance singular (lambda_min {eigs[0]:.3e})"
        )
    theta_bar = np.linalg.solve(sigma, target)
    resid = np.linalg.norm(sigma @ theta_bar - target)
    if resid > 1e-8 * (1 + np.linalg.norm(theta_bar)):
        raise ArithmeticError("population normal equations not satisfied")
    tilde_eps = 2.0 * math.sqrt(cmu * max(residual_fn(theta_bar), 0.0))
    return PopulationModel(class_index, sigma, theta_bar, tilde_eps, cmu)


def coverage_terms(
    fit: RidgeFit,
    model_class: ModelClass,
    policy: Policy,
    state_sample: StateBatch,
) -> tuple[float, float]:
    """Comparator and worst-case coverage means over the state sample."""
    if len(state_sample) == 0:
        raise ValueError("state sample must be nonempty")
    phi = features_all_actions(model_class, state_sample)
    m, n_act, d = phi.shape
    norms = inv_quad_norms(fit.cov, phi.reshape(-1, d)).reshape(m, n_act)
    acts = policy.actions(state_sample)
    comparator = float(norms[np.arange(m), acts].mean())
    worst = float(norms.max(axis=1).mean())
    return comparator, worst


def oracle_bound(decomps: list[ErrorDecomposition]) -> tuple[int, float]:
    """Best class and value of min_k {eps_k + sqrt(d_k/n) * coverage_k}."""
    if not decomps:
        raise ValueError("need at least one decomposition")
    values = np.array(
        [d.approx_eps + math.sqrt(d.dim / d.n) * d.coverage_comparator for d in decomps]
    )
    best = int(np.argmin(values))
    return decomps[best].class_index, float(values[best])


def make_error_decomposition(
    class_index: int,
    model_class: ModelClass,
    fit: RidgeFit,
    theta_star: np.ndarray,
    approx_eps: float,
    coverage_comparator: float,
    coverage_worst: float,
    beta: float,
    zeta: float,
) -> ErrorDecomposition:
    return ErrorDecomposition(
        class_index=class_index,
        dim=model_class.dim,
        n=fit.n,
        theta_star=np.asarray(theta_star, dtype=float),
        theta_star_norm=float(np.linalg.norm(theta_star)),
        approx_eps=float(approx_eps),
        coverage_comparator=float(coverage_comparator),
        coverage_worst=float(coverage_worst),
        beta=float(beta),
        zeta=float(zeta),
        bound_value=float(approx_eps + 2.0 * beta * coverage_comparator),
    )


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


def decompositions_to_csv(rows: list[tuple[int, ErrorDecomposition]]) -> str:
    """One CSV row per (trial, class) decomposition."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "trial",
            "class_index",
            "dim",
            "n",
            "theta_star_norm",
            "approx_eps",
            "coverage_comparator",
            "coverage_worst",
            "beta",
            "zeta",
            "bound_value",
        ]
    )
    for trial, d in rows:
        writer.writerow(
            [
                trial,
                d.class_index,
                d.dim,
                d.n,
                repr(d.theta_star_norm),
                repr(d.approx_eps),
                repr(d.coverage_comparator),
                repr(d.coverage_worst),
                repr(d.beta),
                repr(d.zeta),
                repr(d.bound_value),
            ]
        )
    return buf.getvalue()
