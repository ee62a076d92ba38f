"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run with `pytest -s` to see
them on success) and then asserts.  These are statistical/system-level
gates on top of the per-module unit tests.
"""
import math
import time

import numpy as np

from batchselect.env import (
    dirichlet_behavior,
    make_gaussian_instance,
    make_tabular_instance,
    sample_dataset,
    sample_states,
)
from batchselect.features import design_matrix, realizable_family, truncation_family
from batchselect.learner import (
    OptimalPolicy,
    PessimisticPolicy,
    beta_coefficient,
    fit_pessimistic,
)
from batchselect.linalg import CovarianceMatrix, inv_quad_norms, ridge_fit
from batchselect.selection import SlopeInputs, slope_policy_select, slope_select, zeta_coefficient
from batchselect.diagnostics import regret_estimate
from batchselect.hard_instance import build_hard_pair
from batchselect.experiments import (
    aggregate_rows,
    parse_config,
    results_to_csv,
    run_ac,
    run_cc,
    run_lower_bound,
)
from batchselect.hard_instance import ratio_results_to_csv


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_acceptance_1_generic_slope_constant():
    # |vhat - v| <= 5 min_k (psi_k + xi_k), zero violations over 1000 instances
    start = time.time()
    rng = np.random.default_rng(20240817)
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 10))
        v = float(rng.uniform(-1, 1))
        psi = np.sort(rng.uniform(0, 1, m))[::-1]
        xi = np.sort(rng.uniform(0, 1, m))
        vhat = v + rng.uniform(-1, 1, m) * (psi + xi)
        _, selected = slope_select(SlopeInputs(vhat, xi))
        if abs(selected - v) > 5 * np.min(psi + xi) + 1e-12:
            violations += 1
    elapsed = time.time() - start
    _report(
        1,
        violations == 0 and elapsed < 5,
        f"SLOPE constant-5 guarantee, {violations} violations in 1000 instances, {elapsed:.1f}s",
    )


def test_acceptance_2_schur_and_nestedness_monotonicity():
    start = time.time()
    rng = np.random.default_rng(7)
    quad_ok = True
    for _ in range(1000):
        dim = int(rng.integers(2, 11))
        g = rng.standard_normal((dim, dim))
        m = g @ g.T + 0.01 * np.eye(dim)
        split = int(rng.integers(1, dim))
        x = rng.standard_normal(dim)
        full = x @ np.linalg.solve(m, x)
        head = x[:split] @ np.linalg.solve(m[:split, :split], x[:split])
        if full < head - 1e-9:
            quad_ok = False
    width_ok = True
    for seed in range(50):
        inst = make_gaussian_instance(10, 4, 3, seed)
        data = sample_dataset(inst, dirichlet_behavior(3, seed), 300, seed)
        fits = []
        for mc in truncation_family(10, [2, 5, 10]):
            phi = design_matrix(mc, data.logged, data.actions)
            fits.append((ridge_fit(phi, data.rewards, 1.0), mc))
        probe = sample_states(inst, 50, seed + 1)
        _, rep = slope_policy_select(fits, probe, 0.05)
        if np.any(np.diff(rep.audit["widths"]) < -1e-9):
            width_ok = False
        norms = []
        for fit, mc in fits:
            from batchselect.features import features_all_actions

            flat = features_all_actions(mc, probe).reshape(-1, mc.dim)
            norms.append(inv_quad_norms(fit.cov, flat))
        for small, large in zip(norms, norms[1:]):
            if np.any(small > large + 1e-9):
                width_ok = False
    elapsed = time.time() - start
    _report(
        2,
        quad_ok and width_ok and elapsed < 10,
        f"Schur quadratic-form and coverage-width monotonicity, {elapsed:.1f}s",
    )


def test_acceptance_3_single_class_bound_validity():
    start = time.time()
    holds = 0
    trials = 200
    for seed in range(trials):
        inst = make_tabular_instance(20, 10, seed)
        mc = realizable_family(inst, [10], seed)[0]
        data = sample_dataset(inst, dirichlet_behavior(10, seed), 1000, seed)
        learner = fit_pessimistic(data, mc, 1.0, 0.05, penalty_scale=1.0)
        test = sample_states(inst, 500, seed + 10**6)
        optimal = OptimalPolicy(inst)
        policy = PessimisticPolicy(learner, mc)
        regret = regret_estimate(inst, optimal, policy, test)
        phi = design_matrix(mc, test, optimal.actions(test))
        coverage = inv_quad_norms(learner.fit.cov, phi).mean()
        if regret <= 2 * learner.beta * coverage + 0.05:
            holds += 1
    elapsed = time.time() - start
    _report(
        3,
        holds >= 190 and elapsed < 120,
        f"regret bound held in {holds}/{trials} trials, {elapsed:.1f}s",
    )


def test_acceptance_4_complexity_coverage_experiment():
    start = time.time()
    config = parse_config({"experiment": "cc", "seed": 0})
    rows, _ = run_cc(config, threads=2)
    agg = {(n, m): (mean, se) for n, m, mean, se in aggregate_rows(rows)}
    n_max = max(config.n_grid)
    best_single = min(
        agg[(n_max, f"class_{d}")][0] for d in config.cc.hidden_dims
    )
    cc_final = agg[(n_max, "cc")][0]
    final_ok = cc_final <= 1.5 * best_single + 0.05
    trend_ok = True
    grid = sorted(config.n_grid)
    for a, b in zip(grid, grid[1:]):
        mean_a, se_a = agg[(a, "cc")]
        mean_b, se_b = agg[(b, "cc")]
        if mean_b > mean_a + se_a + se_b:
            trend_ok = False
    elapsed = time.time() - start
    _report(
        4,
        final_ok and trend_ok and elapsed < 300,
        f"final cc regret {cc_final:.4f} vs best single {best_single:.4f}, "
        f"monotone trend {trend_ok}, {elapsed:.0f}s",
    )


def test_acceptance_5_slope_holdout_experiment():
    start = time.time()
    config = parse_config({"experiment": "ac", "seed": 0})
    rows, _ = run_ac(config, threads=2)
    agg = {(n, m): (mean, se) for n, m, mean, se in aggregate_rows(rows)}
    n_max, n_min = max(config.n_grid), min(config.n_grid)
    best_single = min(agg[(n_max, f"class_{d}")][0] for d in config.ac.dims)
    threshold = 1.5 * best_single + 0.05
    slope_final = agg[(n_max, "slope")][0]
    holdout_final = agg[(n_max, "holdout")][0]
    slope_ok = slope_final <= threshold
    holdout_ok = holdout_final <= threshold
    # approximation error dominates the d=15 class at large n
    m30, s30 = agg[(n_max, "class_30")]
    m15, s15 = agg[(n_max, "class_15")]
    approx_ok = m30 <= m15 + s30 + s15
    # complexity dominates the d=100 class at small n
    m30s, s30s = agg[(n_min, "class_30")]
    m100s, s100s = agg[(n_min, "class_100")]
    complexity_ok = m30s <= m100s + s30s + s100s
    elapsed = time.time() - start
    _report(
        5,
        slope_ok and holdout_ok and approx_ok and complexity_ok and elapsed < 600,
        f"slope {slope_final:.4f} (ok={slope_ok}), holdout {holdout_final:.4f} "
        f"(ok={holdout_ok}) vs threshold {threshold:.4f}; d30<=d15 {approx_ok}; "
        f"d30<=d100@small-n {complexity_ok}; {elapsed:.0f}s",
    )


def test_acceptance_6_lower_bound_reproduction():
    start = time.time()
    config = parse_config({"experiment": "lower_bound", "trials": 2000, "seed": 0})
    results, _ = run_lower_bound(config)
    floor = 1 / (8 * math.sqrt(config.lower_bound.n2))
    by_algo = {}
    for r in results:
        by_algo.setdefault(r.algorithm, {})[r.n1] = r
    regret_ok, growth_ok = True, True
    details = []
    for algo, cells in by_algo.items():
        for r in cells.values():
            if r.max_mean_regret < floor - 3 * r.max_se:
                regret_ok = False
        ratio_small, ratio_large = cells[16].ratio, cells[65536].ratio
        if ratio_large < 10 * ratio_small:
            growth_ok = False
        details.append(f"{algo}: ratio {ratio_small:.2f}->{ratio_large:.2f}")
    elapsed = time.time() - start
    _report(
        6,
        regret_ok and growth_ok and elapsed < 300,
        f"regret floor {floor} held {regret_ok}; x10 ratio growth {growth_ok} "
        f"({'; '.join(sorted(details))}); {elapsed:.0f}s",
    )


def test_acceptance_7_closed_form_coefficients():
    start = time.time()
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(20):
        n = int(rng.integers(10, 10_000))
        d = int(rng.integers(1, 50))
        lam = float(rng.uniform(0, 5))
        delta = float(rng.uniform(1e-4, 1 / math.e))
        log_d = math.log(1 / delta)
        beta_oracle = math.sqrt(lam * d / n) + math.sqrt(
            (5 * d + 10 * math.sqrt(d * log_d) + 10 * log_d) / n
        )
        if abs(beta_coefficient(n, d, lam, delta) - beta_oracle) > 1e-10 * beta_oracle:
            ok = False
        scale = float(rng.uniform(0.5, 3.0))
        cov = CovarianceMatrix(scale * np.eye(d))
        log_z = math.log(4 * d / delta)
        zeta_oracle = (
            math.sqrt(lam / n)
            + 192.0 * math.sqrt(d / n) * (1 / math.sqrt(scale)) * log_z
            + math.sqrt((5 * d + 10 * math.sqrt(d * log_z) + 10 * log_z) / n)
        )
        if abs(zeta_coefficient(n, d, lam, delta, cov) - zeta_oracle) > 1e-10 * zeta_oracle:
            ok = False
    theta_ok = True
    for n1, n2 in [(1, 1), (3, 7), (16, 16), (100, 4)]:
        pair = build_hard_pair(n1, n2)  # construction re-verifies theta to 1e-10
        if abs(pair.delta_gap - 1 / (2 * math.sqrt(n2))) > 1e-15:
            theta_ok = False
    elapsed = time.time() - start
    _report(
        7,
        ok and theta_ok and elapsed < 1,
        f"beta/zeta oracles on 20 tuples and hard-pair parameters, {elapsed:.2f}s",
    )


def test_acceptance_8_determinism():
    start = time.time()
    cc = parse_config({"experiment": "cc", "trials": 2, "n_grid": [100, 250], "seed": 3})
    ac = parse_config({"experiment": "ac", "trials": 2, "n_grid": [150], "seed": 3})
    lb = parse_config(
        {
            "experiment": "lower_bound",
            "trials": 20,
            "seed": 3,
            "lower_bound": {"n1": [16, 64], "n2": 16, "algorithms": ["cc", "holdout"]},
        }
    )
    ok = True
    for runner, config, serialize in (
        (run_cc, cc, results_to_csv),
        (run_ac, ac, results_to_csv),
        (run_lower_bound, lb, ratio_results_to_csv),
    ):
        outputs = {
            serialize(runner(config, threads=t)[0]) for t in (1, 8, 1)
        }
        if len(outputs) != 1:
            ok = False
    elapsed = time.time() - start
    _report(8, ok, f"byte-identical results across reruns and thread counts, {elapsed:.0f}s")
