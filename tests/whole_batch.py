"""The whole-batch reference for the studies' evaluation.

The library's runner draws a trial's test states, and ac's validation
states, in chunks of at most `env.STATE_CHUNK` states (`env.state_chunks`),
gives each chunk to every cell and keeps only per-state terms.  These
helpers evaluate every cell on the whole batches, as the runner did before:
each trial draws its test and validation states at once (`sample_states`),
SLOPE reads its terms on the whole validation batch, and each regret reads
every policy's actions on the whole test batch.  Cells are drawn and fit by the
runner's own per-n hooks, so the two paths differ only in their evaluation.
Under `reference()` the CLI runs cc and ac this way.
"""
import contextlib
import json

import pytest

from batchselect import cli, experiments
from batchselect.diagnostics import regret_estimate
from batchselect.env import sample_states
from batchselect.experiments import ResultRow
from batchselect.selection import slope_policy_select, slope_terms


def whole_batch_run(build_trial, fit_cell, config, audit):
    """`experiments._run_cells` with every cell scored on whole batches,
    BLAS held at one thread as the runner holds it."""
    rows, reports = [], []
    with experiments._ONE_BLAS_THREAD:
        for t in range(config.trials):
            ctx = build_trial(config, t)
            test_states = sample_states(ctx.instance, config.n_test, ctx.test_seed)
            means = ctx.instance.mean_rewards(test_states)
            validation = None
            if ctx.validation_seed is not None:
                validation = sample_states(ctx.instance, config.n_validation, ctx.validation_seed)
            for n in sorted(config.n_grid, reverse=True):
                cell = fit_cell(config, ctx, n, trial=t)
                if validation is not None:
                    terms = slope_terms(cell.fits, ctx.classes, validation)
                    cell.policies["slope"], cell.reports["slope"] = slope_policy_select(
                        cell.fits, ctx.classes, terms, config.delta, config.penalty_scale
                    )
                for method, policy in cell.policies.items():
                    regret = regret_estimate(means, policy.actions(test_states))
                    rows.append(ResultRow(n, method, t, regret))
                if audit:
                    reports.extend(
                        {"n": n, "trial": t, "method": method,
                         "report": json.loads(report.to_json())}
                        for method, report in cell.reports.items()
                    )
    rows.sort(key=lambda r: (r.n, r.method, r.trial))
    reports.sort(key=lambda r: (r["n"], r["method"], r["trial"]))
    return rows, reports


def whole_batch_cc(config, threads=1, audit=False):
    return whole_batch_run(experiments._cc_trial, experiments._cc_fit, config, audit)


def whole_batch_ac(config, threads=1, audit=False):
    return whole_batch_run(experiments._ac_trial, experiments._ac_fit, config, audit)


@contextlib.contextmanager
def reference():
    """The CLI's cc and ac studies on whole batches while the context is open."""
    with pytest.MonkeyPatch.context() as mp:
        for study, runner in (("cc", whole_batch_cc), ("ac", whole_batch_ac)):
            mp.setitem(cli.STUDIES, study, (runner,) + cli.STUDIES[study][1:])
        yield mp
