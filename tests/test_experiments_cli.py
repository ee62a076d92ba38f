import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import batchselect.cli as cli_module
import batchselect.experiments as experiments
import batchselect.features as features_module
import batchselect.learner as learner_module
import batchselect.linalg as linalg_module
import batchselect.selection as selection_module
from batchselect.env import (
    BanditInstance,
    dirichlet_behavior,
    make_gaussian_instance,
    sample_split_cells,
    sample_states,
)
from batchselect.features import design_matrix, truncation_family
from batchselect.cli import main
from batchselect.hard_instance import ratio_results_to_csv
from batchselect.learner import fit_pessimistic
from batchselect.experiments import (
    ConfigError,
    aggregate_rows,
    aggregate_to_csv,
    parse_config,
    results_to_csv,
    run_ac,
    run_cc,
    run_lower_bound,
)
import feature_rows
import row_design
import whole_batch
from per_class import per_class_ac_fit, per_class_slope_terms
from test_env import all_action_dataset


class TestParseConfig:
    def test_defaults(self):
        c = parse_config({"experiment": "cc"})
        assert c.trials == 20
        assert c.n_test == 500
        assert c.delta == 0.05
        assert c.penalty_scale == 0.1
        assert c.n_grid == (100, 250, 500, 1000, 2000, 4000)
        assert c.cc.hidden_dims == (2, 5, 10, 25, 50)
        assert c.ac.dims == (15, 20, 30, 50, 75, 100)
        assert c.ac.holdout_split == 0.8

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({"experiment": "cc", "bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="oops"):
            parse_config({"experiment": "ac", "ac": {"oops": 3}})

    @pytest.mark.parametrize(
        "doc",
        [
            {"experiment": "lower_bound", "n_grid": [100]},
            {"experiment": "lower_bound", "n_test": 100},
            {"experiment": "lower_bound", "ac": {}},
            {"experiment": "ac", "cc": {"hidden_dims": [2]}},
            {"experiment": "ac", "lower_bound": {"n2": 4}},
            {"experiment": "cc", "n_validation": 100},
            {"experiment": "cc", "ac": {"dims": [15]}},
        ],
        ids=["lb_n_grid", "lb_n_test", "lb_ac", "ac_cc", "ac_lower_bound", "cc_n_validation", "cc_ac"],
    )
    def test_key_the_experiment_never_reads(self, doc):
        (unread,) = set(doc) - {"experiment"}
        with pytest.raises(ConfigError, match=rf"never reads key\(s\) \['{unread}'\]"):
            parse_config(doc)

    def test_lambda_is_the_only_renamed_key(self):
        assert parse_config({"experiment": "cc", "lambda": 2.5}).lam == 2.5
        with pytest.raises(ConfigError, match="lam"):
            parse_config({"experiment": "cc", "lam": 2.5})

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            parse_config({"trials": 5})

    def test_bad_delta(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": "cc", "delta": 0.5})

    def test_bad_split(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": "ac", "ac": {"holdout_split": 1.0}})

    def test_split_check_only_when_holdout_runs(self):
        # two rows leave hold-out nothing to hold out, but cc and SLOPE run
        lb = {"n1": [1], "n2": 1, "algorithms": ["cc", "slope"]}
        assert parse_config({"experiment": "lower_bound", "lower_bound": lb}).lower_bound.n1 == (1,)

    def test_row_limit_only_when_holdout_runs(self):
        # cc and SLOPE draw no hypergeometric split, so any n1 is theirs
        lb = {"n1": [2**40], "n2": 16, "algorithms": ["cc", "slope"]}
        config = parse_config({"experiment": "lower_bound", "lower_bound": lb})
        assert config.lower_bound.n1 == (2**40,)
        holdout = {**lb, "algorithms": ["holdout"]}
        with pytest.raises(ConfigError, match="hypergeometric"):
            parse_config({"experiment": "lower_bound", "lower_bound": holdout})

    def test_non_ascending_dims(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": "ac", "ac": {"dims": [20, 15]}})

    def test_dims_beyond_ambient_dim(self):
        with pytest.raises(ConfigError, match="ac.dims may not exceed"):
            parse_config({"experiment": "ac", "ac": {"ambient_dim": 40, "dims": [15, 50]}})

    def test_unknown_lower_bound_algorithm(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": "lower_bound", "lower_bound": {"algorithms": ["x"]}})


class TestRunCc:
    def test_row_cardinality(self):
        c = parse_config({"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 5})
        rows, _ = run_cc(c)
        assert len(rows) == len(c.cc.hidden_dims) + 1
        assert {r.method for r in rows} == {"cc"} | {f"class_{d}" for d in c.cc.hidden_dims}

    def test_byte_identical_reruns(self):
        c = parse_config({"experiment": "cc", "trials": 2, "n_grid": [100], "seed": 5})
        a = results_to_csv(run_cc(c)[0])
        b = results_to_csv(run_cc(c)[0])
        assert a == b

    def test_thread_count_invariant(self):
        c = parse_config({"experiment": "cc", "trials": 3, "n_grid": [100, 250], "seed": 6})
        a = results_to_csv(run_cc(c, threads=1)[0])
        b = results_to_csv(run_cc(c, threads=4)[0])
        assert a == b

    def test_audit_reports(self):
        c = parse_config({"experiment": "cc", "trials": 2, "n_grid": [100], "seed": 1})
        _, reports = run_cc(c, audit=True)
        assert len(reports) == 2
        assert all(r["method"] == "cc" for r in reports)


class TestRunAc:
    def test_method_set(self):
        c = parse_config({"experiment": "ac", "trials": 1, "n_grid": [200], "seed": 2})
        rows, _ = run_ac(c)
        expected = {f"class_{d}" for d in (15, 20, 30, 50, 75, 100)} | {"slope", "holdout"}
        assert {r.method for r in rows} == expected

    def test_holdout_audit_keys(self):
        c = parse_config(
            {"experiment": "ac", "trials": 1, "n_grid": [200], "seed": 2, "ac": {"holdout_split": 0.7}}
        )
        _, reports = run_ac(c, audit=True)
        (audit,) = [r["report"]["audit"] for r in reports if r["method"] == "holdout"]
        assert sorted(audit) == ["dims", "losses", "n_in", "n_out", "split_fraction"]
        assert (audit["split_fraction"], audit["n_in"], audit["n_out"]) == (0.7, 140, 60)

    def test_deterministic(self):
        c = parse_config({"experiment": "ac", "trials": 1, "n_grid": [150], "seed": 3})
        assert results_to_csv(run_ac(c)[0]) == results_to_csv(run_ac(c, threads=2)[0])


class TestRunLowerBound:
    def test_schema_and_positive_ratio(self):
        c = parse_config(
            {
                "experiment": "lower_bound",
                "trials": 10,
                "seed": 4,
                "lower_bound": {"n1": [16, 64], "n2": 16, "algorithms": ["holdout"]},
            }
        )
        results, _ = run_lower_bound(c)
        assert len(results) == 2
        for r in results:
            assert r.ratio >= 0.0
            assert r.denominator > 0.0

    def test_growing_n1_ratio_trend(self):
        c = parse_config(
            {
                "experiment": "lower_bound",
                "trials": 100,
                "seed": 4,
                "lower_bound": {"n1": [16, 4096], "n2": 16, "algorithms": ["cc"]},
            }
        )
        results, _ = run_lower_bound(c)
        small, large = results[0], results[1]
        slack = (small.max_se + large.max_se) / small.denominator
        assert large.ratio >= small.ratio - slack


# sha256 of results.csv for the acceptance-8 configs at threads=1, computed
# before the per-trial context and the table-gather path existed.  A change
# here is a change of output bits and needs equivalence evidence.  The ac
# hash was re-pinned from 157f4ebd... when Gaussian states moved from one
# einsum to one GEMM per action, and again from ff610c47... to 2e0d262a...
# when feature datasets began to draw only the logged action's features;
# tests/test_env.py keeps the all-action draw, which still gives ff610c47...
# (test_ac_all_action_reference_gives_the_previous_hash), and
# scripts/compare_cell_draws.py compares the two in distribution.  The
# lower_bound and lower_bound_slope hashes were re-pinned (from
# 8472da8b... and 39ac615e...) when hard-pair trials moved from reward rows
# to drawn per-cell statistics; tests/test_hard_instance.py keeps the row
# path, which still gives those hashes, and scripts/compare_cell_draws.py
# compares the two in distribution.  The cc hash was re-pinned from
# 7e662f7c... when realizable classes stopped being lifted to |X||A| = 200
# dimensions and kept their own d_hid, a change of behaviour: each class's
# beta now follows its dimension.  scripts/compare_cell_draws.py --ref
# prints the per-(n, method) regrets of both paths.  The ac hash was
# re-pinned again, from 2e0d262a... to c51beb4e..., when ac cells began to
# draw each (side, action) group's statistics instead of its rows and the
# instance's calibration probe its inner products instead of feature rows;
# tests/feature_rows.py keeps the row path, which still gives 2e0d262a...
# (test_row_reference_gives_the_previous_pins).  The cc hash was re-pinned
# again, from 90d646ae... to f82ec1a6..., when cc cells began to draw each
# (x, a) cell's count and mean reward instead of rows; tests/row_design.py
# keeps the row path, which still gives 90d646ae....
GOLDEN = {
    "cc": (
        {"experiment": "cc", "trials": 2, "n_grid": [100, 250], "seed": 3},
        run_cc,
        results_to_csv,
        "f82ec1a6318eccf0bfaeaab0fcb11d2f0c3c63fb4ae17b9f341a578382a3174a",
    ),
    "ac": (
        {"experiment": "ac", "trials": 2, "n_grid": [150], "seed": 3},
        run_ac,
        results_to_csv,
        "c51beb4ed9e58df304fb7cefe336f34718ebc215c13f3dc310fb3ba180d94392",
    ),
    "lower_bound": (
        {
            "experiment": "lower_bound",
            "trials": 20,
            "seed": 3,
            "lower_bound": {"n1": [16, 64], "n2": 16, "algorithms": ["cc", "holdout"]},
        },
        run_lower_bound,
        ratio_results_to_csv,
        "471ae907c978b7854bea308e88301299924f9afe4530266802ea4a407dfcb5c0",
    ),
    # The same study with SLOPE, whose policy reads a one-state tabular batch;
    # computed at the commit before the scalar state path was deleted.
    "lower_bound_slope": (
        {
            "experiment": "lower_bound",
            "trials": 20,
            "seed": 3,
            "lower_bound": {"n1": [16, 64], "n2": 16, "algorithms": ["cc", "slope", "holdout"]},
        },
        run_lower_bound,
        ratio_results_to_csv,
        "ae29288fbd00c8f174bcc50c0a44b81fc084946b9660c02ed74eb409f43ae004",
    ),
}


@pytest.mark.parametrize("study", sorted(GOLDEN))
def test_golden_results_hash(study):
    doc, runner, serialize, expected = GOLDEN[study]
    text = serialize(runner(parse_config(doc), threads=1)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == expected


# sha256 of the other files `batchselect run --audit` writes for the golden
# configs, computed when the CLI still chose each study's writers by a branch
# on the experiment; the lower-bound studies write no reports.  The ac pins
# moved with its results.csv pin (above): from b02e69e3... (aggregate.csv)
# and 09429a67... (report.json), which the row path still gives.  cc's
# aggregate.csv pin moved with its results.csv pin, from 7229a3b7..., which
# the row path still gives; its report.json holds, since cc's audit records
# only each class's beta, a function of n and d_k, and its dimensions.
GOLDEN_CLI = {
    "cc": {
        "aggregate.csv": "8073e9fa0fc8bae1f0dd967feb677368344efac41d649f841820d23568c07ca7",
        "report.json": "7903831a70a7e32e8642d654240b47974d9a59657f4b9dca712c2b20bc34f8c7",
    },
    "ac": {
        "aggregate.csv": "475daf40fd9f7a62526db64d0fbb12e14091f4b0d03e6efb03ed57a24aeba66d",
        "report.json": "1c36d5b28c31d671b9258eeb1cc6ac9ee0e93429b2d0633e84f88e02c661c0da",
    },
    "lower_bound": {
        "aggregate.csv": "6749557c33070fbfba43695f609d4d761c8d0dbf4b3a30277dfae7f250da0d99",
    },
    "lower_bound_slope": {
        "aggregate.csv": "47ff8a7bbd4bd3511f13fe942e74ccd465602cb865bfb08d13cfc01639355856",
    },
}


@pytest.mark.parametrize("study", sorted(GOLDEN))
def test_golden_cli_output_hashes(study, tmp_path, capsys):
    doc, _, _, results_hash = GOLDEN[study]
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out), "--audit")
    assert code == 0, err
    expected = {"results.csv": results_hash, **GOLDEN_CLI[study]}
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected


# Each study whose cells draw statistics instead of rows: its row reference
# and the three files that reference still writes, pinned before the draw moved.
ROW_PINS = {
    "ac": (
        feature_rows.row_reference,
        {
            "results.csv": "2e0d262a434697b1a87f81b78cea6e45c2caae382eeadd5b90194abeb2beefe0",
            "aggregate.csv": "b02e69e3305a9c31a44ff55fd5aec6fd3b0509fe19431cdc106e9e69f1b8f3e0",
            "report.json": "09429a67dcf7bd57d86539ab2582e03bc0f836dd0442d16d11c90a2e95ab962f",
        },
    ),
    "cc": (
        row_design.row_reference,
        {
            "results.csv": "90d646ae6d0d246d8751eaab8febf421a6ca643983ee160d354ed1e059a19482",
            "aggregate.csv": "7229a3b7eb09ec10e556a381fc523a6cfbcdc81a49ba553228f1acf70d59891e",
            "report.json": "7903831a70a7e32e8642d654240b47974d9a59657f4b9dca712c2b20bc34f8c7",
        },
    ),
}


@pytest.mark.parametrize("study", sorted(ROW_PINS))
def test_row_reference_gives_the_previous_pins(study, tmp_path, capsys):
    # Only the draws moved: on the row path (for ac, with the row probe) the
    # study still writes the three files pinned before its cells drew their
    # statistics.
    row_reference, expected = ROW_PINS[study]
    doc, _, _, _ = GOLDEN[study]
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    with row_reference():
        code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out), "--audit")
    assert code == 0, err
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected


def _cli_outputs(capsys, doc, out):
    """The bytes of the three files `batchselect run --audit` writes for `doc`."""
    cfg = out.with_suffix(".json")
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(out), "--audit")
    assert code == 0, err
    names = ("results.csv", "aggregate.csv", "report.json")
    return {name: (out / name).read_bytes() for name in names}


@pytest.mark.parametrize("study", ["ac", "cc"])
def test_whole_batch_reference_gives_the_pins(study, tmp_path, capsys):
    # scoring each trial's states in chunks only reorders the evaluation: on
    # the whole batches the pinned configs write the same three files
    doc, _, _, results_hash = GOLDEN[study]
    with whole_batch.reference():
        got = _cli_outputs(capsys, doc, tmp_path / "whole")
    expected = {"results.csv": results_hash, **GOLDEN_CLI[study]}
    assert {name: hashlib.sha256(got[name]).hexdigest() for name in expected} == expected


# Configs whose states split into chunks of other sizes than the pins':
# uneven ones (n_test 301 into 128 + 173 states, n_validation 259 into
# 128 + 131), and the benchmark's ac config at 500 states into 128 x 3 + 116,
# whose reports moved in their last bits under near-equal chunks of 125.
CHUNKED = {
    "ac_uneven": {"experiment": "ac", "trials": 2, "n_grid": [150, 4000], "n_test": 301,
                  "n_validation": 259, "seed": 8},
    "cc_uneven": {"experiment": "cc", "trials": 2, "n_grid": [150, 400], "n_test": 301, "seed": 8},
    "ac_benchmark": {"experiment": "ac", "trials": 3, "seed": 21},
}


@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_chunks_write_the_whole_batch_bytes(name, tmp_path, capsys):
    doc = CHUNKED[name]
    chunked = _cli_outputs(capsys, doc, tmp_path / "chunked")
    with whole_batch.reference():
        assert _cli_outputs(capsys, doc, tmp_path / "whole") == chunked


def test_ac_all_action_reference_gives_the_previous_hash():
    # On the row path with the all-action sampler it replaced, ac still
    # writes the bytes pinned before datasets drew only the logged features.
    doc, runner, serialize, _ = GOLDEN["ac"]
    with feature_rows.row_reference() as mp:
        mp.setattr(feature_rows, "sample_feature_dataset", all_action_dataset)
        text = serialize(runner(parse_config(doc), threads=1)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ff610c4701b17e3d51555599396b5c237faf1fe6939367591bc3a8ab5d2af2bf"
    )


@pytest.mark.parametrize(
    "study, build_trial, fit_cell",
    [("ac", experiments._ac_trial, experiments._ac_fit),
     ("cc", experiments._cc_trial, experiments._cc_fit)],
)
def test_cell_memory_is_flat_in_n(study, build_trial, fit_cell):
    # an ac cell holds at most 2 |A| (D + 1) cell rows and a cc cell its
    # |X| |A| cells, whatever n is; drawn rows took about 2 KB of peak
    # memory each on ac at D = 100
    config = parse_config({"experiment": study, "trials": 1, "seed": 5})
    ctx = build_trial(config, 0)
    fit_cell(config, ctx, 4000, 0)  # first-call imports and caches
    peaks = {}
    for n in (4000, 128_000):
        tracemalloc.start()
        try:
            fit_cell(config, ctx, n, 0)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[128_000] <= 1.5 * peaks[4000]


# Above its chunks, an ac trial keeps per validation state each cell's SLOPE
# terms, (M + M^2) floats and M actions, 2.3 KB at the default config's six
# cells and six classes, and per test state less: the true means and each
# policy's action.  Scored on whole batches, the trial's peak grew by 20.6 KB
# per state (tracemalloc, seed 5, n_test = n_validation from 500 to 4000).
AC_BYTES_PER_STATE = 4096


def test_trial_memory_grows_only_by_the_per_state_terms():
    # the states are drawn and scored in chunks of STATE_CHUNK, so no
    # (m, |A|, D) tensor grows with n_test or n_validation
    peaks = {}
    for count in (500, 500, 4000):  # the first run pays first-call imports and caches
        config = parse_config(
            {"experiment": "ac", "trials": 1, "seed": 5, "n_test": count, "n_validation": count}
        )
        tracemalloc.start()
        try:
            run_ac(config)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4000] - peaks[500] <= AC_BYTES_PER_STATE * (4000 - 500)


def test_lower_bound_results_are_sorted(monkeypatch):
    seen = []
    ratio = experiments.ratio_experiment

    def recording_ratio(algorithm, n1, *args, **kwargs):
        seen.append((algorithm, n1))
        return ratio(algorithm, n1, *args, **kwargs)

    monkeypatch.setattr(experiments, "ratio_experiment", recording_ratio)
    lower_bound = {"n1": [16, 64, 32], "n2": 16, "algorithms": ["holdout", "cc"]}
    config = parse_config({"experiment": "lower_bound", "trials": 2, "lower_bound": lower_bound})
    results, _ = run_lower_bound(config, threads=2)
    assert [(r.algorithm, r.n1) for r in results] == sorted(seen)
    assert len(seen) == 6


def _record_calls(monkeypatch, module, name):
    """Patch `module.name` to record each call's positional arguments and result."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, recorded)
    return calls


def _record_at_every_alias(monkeypatch, module, name):
    """`_record_calls` at every batchselect module that holds `module.name`,
    all recording into one list."""
    original = getattr(module, name)
    holders = [
        mod for key, mod in sorted(sys.modules.items())
        if (key == "batchselect" or key.startswith("batchselect.")) and vars(mod).get(name) is original
    ]
    calls = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for mod in holders:
        monkeypatch.setattr(mod, name, recorded)
    return calls


SMALL_CC = {
    "experiment": "cc",
    "trials": 2,
    "n_grid": [40, 60, 80],
    "n_test": 30,
    "cc": {"state_count": 4, "action_count": 3, "hidden_dims": [2, 5, 12]},
}

SMALL_AC = {
    "experiment": "ac",
    "trials": 2,
    "n_grid": [60, 80],
    "n_test": 20,
    "n_validation": 20,
    "ac": {"ambient_dim": 8, "true_dim": 3, "action_count": 3, "dims": [2, 4, 8]},
}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ambient=st.integers(2, 12),
    data=st.data(),
    n=st.integers(20, 200),
    lam=st.sampled_from([0.1, 1.0, 3.0]),
    penalty_scale=st.sampled_from([1e-4, 1e-2, 0.1]),
)
def test_ac_family_fit_reorders_the_per_class_loop(seed, ambient, data, n, lam, penalty_scale):
    # one fit per nested family, its classes read as leading blocks, writes
    # the per-class loop's rows and makes its SLOPE and hold-out choices; the
    # audit's values, widths and losses agree to rounding
    dims = data.draw(st.lists(st.integers(1, ambient), min_size=1, max_size=4, unique=True))
    config = parse_config(
        {
            "experiment": "ac",
            "trials": 1,
            "seed": seed,
            "n_grid": [n],
            "n_test": 30,
            "n_validation": 25,
            "lambda": lam,
            "penalty_scale": penalty_scale,
            "ac": {"ambient_dim": ambient, "true_dim": data.draw(st.integers(1, ambient)),
                   "action_count": 3, "dims": sorted(dims)},
        }
    )
    rows, reports = run_ac(config, audit=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "slope_terms", per_class_slope_terms)
        want_rows, want_reports = experiments._run_cells(
            experiments._ac_trial, per_class_ac_fit, config, True
        )
    assert rows == want_rows
    for got, want in zip(reports, want_reports, strict=True):
        assert [got[key] for key in ("n", "trial", "method")] == [
            want[key] for key in ("n", "trial", "method")
        ]
        assert got["report"]["chosen"] == want["report"]["chosen"]
        for key, value in want["report"]["audit"].items():
            value = np.asarray(value)
            atol = 1e-12 * max(np.abs(value).max(), 1.0)
            np.testing.assert_allclose(got["report"]["audit"][key], value, rtol=1e-9, atol=atol)


SMALL_LOWER_BOUND = {
    "experiment": "lower_bound",
    "trials": 2,
    "lower_bound": {"n1": [16, 32], "n2": 16, "algorithms": ["holdout", "cc"]},
}


@pytest.mark.parametrize(
    "study, hook, doc, cells",
    [
        ("cc", "_cc_fit", SMALL_CC, 2 * 3),
        ("ac", "_ac_fit", SMALL_AC, 2 * 2),
        ("lower_bound", "ratio_experiment", SMALL_LOWER_BOUND, 2 * 2),
    ],
    ids=["cc", "ac", "lower_bound"],
)
def test_cells_run_on_the_calling_thread(monkeypatch, study, hook, doc, cells):
    # every study runs its cells serially whatever `threads` is
    threads = []
    fit = getattr(experiments, hook)

    def recording_fit(*args, **kwargs):
        threads.append(threading.get_ident())
        return fit(*args, **kwargs)

    monkeypatch.setattr(experiments, hook, recording_fit)
    cli_module.STUDIES[study][0](parse_config(doc), threads=2)
    assert threads == [threading.get_ident()] * cells


def _loaded_openblas():
    """(get, set) thread-count functions of each OpenBLAS this process has loaded."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    paths = {line.split(maxsplit=5)[-1] for line in maps.read_text().splitlines()
             if "openblas" in line and ".so" in line}
    controls = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    controls.append((get, set_))
    return controls


class TestBlasThreads:
    @pytest.fixture
    def blas_at_two(self):
        controls = _loaded_openblas()
        if not controls:
            pytest.skip("no OpenBLAS thread-count symbol in this process")
        before = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        yield [get for get, _ in controls]
        for (_, set_), count in zip(controls, before):
            set_(count)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cells_run_with_one_blas_thread(self, monkeypatch, blas_at_two, threads):
        seen = []
        fit = experiments._cc_fit

        def recording_fit(*args, **kwargs):
            seen.append([get() for get in blas_at_two])
            return fit(*args, **kwargs)

        monkeypatch.setattr(experiments, "_cc_fit", recording_fit)
        run_cc(parse_config(SMALL_CC), threads=threads)
        assert len(seen) == 2 * len(SMALL_CC["n_grid"])
        assert all(counts == [1] * len(blas_at_two) for counts in seen)
        assert [get() for get in blas_at_two] == [2] * len(blas_at_two)

    def test_overlapping_runs_restore_after_the_last(self, blas_at_two):
        ones, twos = [1] * len(blas_at_two), [2] * len(blas_at_two)
        guard = experiments._ONE_BLAS_THREAD
        guard.__enter__()
        guard.__enter__()
        guard.__exit__(None, None, None)
        assert [get() for get in blas_at_two] == ones
        guard.__exit__(None, None, None)
        assert [get() for get in blas_at_two] == twos


def test_cli_import_loads_only_stdlib_numpy_and_batchselect():
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys; before = set(sys.modules); import batchselect.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "['batchselect', 'numpy']"


def test_runs_never_import_the_thread_pool():
    # concurrent.futures, and logging with it, cost about 4 ms of start-up;
    # no study uses a pool, even at threads > 1
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, json; import batchselect.cli as cli; "
        "from batchselect.experiments import parse_config; "
        "[cli.STUDIES[doc['experiment']][0](parse_config(doc), threads=threads) "
        "for doc, threads in json.loads(sys.argv[1])]; "
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    lower_bound = {"experiment": "lower_bound", "trials": 2}
    runs = [(SMALL_CC, 1), (SMALL_AC, 1), (SMALL_AC, 2), (lower_bound, 1)]
    out = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestDuplicateWork:
    def test_cc_runs_no_eigendecomposition(self, monkeypatch):
        # the ridge-floor and singularity checks of every fit are settled by
        # Cholesky certificates at lambda = 1; cc reads no eigen-bound
        calls = _record_calls(monkeypatch, np.linalg, "eigvalsh")
        run_cc(parse_config(SMALL_CC))
        assert calls == []

    def test_cc_builds_each_trial_once_and_fits_each_class_once(self, monkeypatch):
        config = parse_config(SMALL_CC)
        instances = _record_calls(monkeypatch, experiments, "make_tabular_instance")
        families = _record_calls(monkeypatch, experiments, "realizable_family")
        fits = _record_calls(monkeypatch, learner_module, "ridge_fit")
        run_cc(config)
        m = len(config.cc.hidden_dims)
        assert (len(instances), len(families)) == (2, 2)
        assert len(fits) == 2 * 3 * m

    def test_cc_fits_each_class_on_its_cells(self, monkeypatch):
        # at every n, each class is fit on its |X| * |A| table with the
        # dataset's cell counts; no n-row design is built
        config = parse_config(SMALL_CC)
        fits = _record_at_every_alias(monkeypatch, linalg_module, "ridge_fit")
        designs = _record_at_every_alias(monkeypatch, features_module, "design_matrix")
        run_cc(config)
        cells = config.cc.state_count * config.cc.action_count
        assert len(fits) == config.trials * len(config.n_grid) * len(config.cc.hidden_dims)
        assert all(np.shape(args[0])[0] == cells for args, _ in fits)
        assert sorted({fit.n for _, fit in fits}) == sorted(config.n_grid)
        assert designs == []

    def test_cc_scores_each_class_once_per_cell(self, monkeypatch):
        # a class's own policy (beta at delta) and the cc policy (beta at
        # delta / M) differ only in beta, so they share the class's
        # predictions and widths over its table
        config = parse_config(SMALL_CC)
        widths = _record_at_every_alias(monkeypatch, linalg_module, "inv_quad_norms")
        run_cc(config)
        assert len(widths) == config.trials * len(config.n_grid) * len(config.cc.hidden_dims)

    def test_ac_builds_each_instance_once(self, monkeypatch):
        config = parse_config(
            {
                "experiment": "ac",
                "trials": 2,
                "n_grid": [60, 80, 100],
                "n_test": 20,
                "n_validation": 20,
                "ac": {"ambient_dim": 8, "true_dim": 3, "action_count": 3, "dims": [2, 4, 8]},
            }
        )
        instances = _record_calls(monkeypatch, experiments, "make_gaussian_instance")
        run_ac(config, threads=2)
        assert len(instances) == 2

    def test_ac_fits_each_family_once_per_cell(self, monkeypatch):
        # the widest class's design is a view of the cell's drawn rows, which
        # the greedy fits and hold-out read; each fits the family once, and
        # every narrower class is a leading block of that fit
        config = parse_config(
            {
                "experiment": "ac",
                "trials": 2,
                "n_grid": [60, 80],
                "n_test": 20,
                "n_validation": 20,
                "ac": {"ambient_dim": 8, "true_dim": 3, "action_count": 3, "dims": [2, 4, 8]},
            }
        )
        draws = _record_calls(monkeypatch, experiments, "sample_split_cells")
        designs = _record_calls(monkeypatch, experiments, "design_matrix")
        fits = _record_at_every_alias(monkeypatch, linalg_module, "ridge_fit")
        holdouts = _record_calls(monkeypatch, experiments, "holdout_select")
        run_ac(config)
        cells = 2 * 2
        assert len(draws) == len(designs) == len(holdouts) == cells
        assert len(fits) == 2 * cells
        for i, (_, (features, fit_on, score_on)) in enumerate(draws):
            design = designs[i][1]
            assert design.shape == (len(features), 8) and np.shares_memory(design, features)
            assert all(a is b for a, b in zip(holdouts[i][0], (design, fit_on, score_on)))
            assert all(args[0] is design for args, _ in fits[2 * i : 2 * i + 2])

    @pytest.mark.parametrize("study", ["cc", "ac"])
    def test_true_means_computed_once_per_trial(self, monkeypatch, study):
        # every policy of a trial is scored against one table of the test
        # states' true means
        config = parse_config(SMALL_AC if study == "ac" else SMALL_CC)
        calls = _record_calls(monkeypatch, BanditInstance, "mean_rewards")
        (run_ac if study == "ac" else run_cc)(config, threads=2)
        assert len(calls) == config.trials

    def test_slope_builds_the_family_features_once(self, monkeypatch):
        # the widest class's features serve every class as prefix views, for
        # the candidates' greedy actions, every value estimate and the widths
        inst = make_gaussian_instance(8, 3, 3, 0)
        features, fit_on, score_on = sample_split_cells(inst, dirichlet_behavior(3, 0), 100, 80, 0)
        classes = truncation_family(8, [2, 4, 8])
        counts = fit_on.counts + score_on.counts
        fits = [experiments.ridge_fit(design_matrix(mc, features), fit_on.means, 1.0, counts=counts)
                for mc in classes]
        in_selection = _record_calls(monkeypatch, selection_module, "features_all_actions")
        in_policies = _record_calls(monkeypatch, learner_module, "features_all_actions")
        selection_module.slope_terms(fits, classes, sample_states(inst, 20, 1))
        assert len(in_selection) + len(in_policies) == 1
        assert in_selection[0][0][0] is classes[-1]

    def test_selector_learner_equals_fresh_fit_at_delta_over_m(self, monkeypatch):
        config = parse_config({**SMALL_CC, "trials": 1, "n_grid": [50]})
        captured, datasets = [], []
        select, sample = experiments.complexity_coverage_policy, experiments.sample_dataset

        def capture_select(*args, **kwargs):
            captured.append(select(*args, **kwargs))
            return captured[-1]

        def capture_sample(*args, **kwargs):
            datasets.append(sample(*args, **kwargs))
            return datasets[-1]

        monkeypatch.setattr(experiments, "complexity_coverage_policy", capture_select)
        monkeypatch.setattr(experiments, "sample_dataset", capture_sample)
        run_cc(config)
        ((policy, _),) = captured
        (dataset,) = datasets
        m = len(policy.classes)
        for shared, beta, mc in zip(policy.fits, policy.betas, policy.classes, strict=True):
            fresh = fit_pessimistic(
                dataset, mc, config.lam, config.delta / m, config.penalty_scale
            )
            assert np.array_equal(shared.theta_hat, fresh.fits[0].theta_hat)
            assert np.array_equal(shared.cov.entries, fresh.fits[0].cov.entries)
            assert beta == fresh.betas[0]
            assert policy.penalty_scale == fresh.penalty_scale


class TestAggregate:
    def test_mean_and_stderr(self):
        c = parse_config({"experiment": "cc", "trials": 4, "n_grid": [100], "seed": 9})
        rows, _ = run_cc(c)
        for n, method, mean, se in aggregate_rows(rows):
            vals = np.array([r.regret for r in rows if r.method == method and r.n == n])
            assert mean == pytest.approx(vals.mean())
            assert se == pytest.approx(vals.std(ddof=1) / math.sqrt(len(vals)))

    def test_csv_header(self):
        c = parse_config({"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 9})
        rows, _ = run_cc(c)
        assert aggregate_to_csv(rows).startswith("n,method,mean_regret,stderr\n")


def run_cli(capsys, *args) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `batchselect ARGS`."""
    try:
        main(list(args))
        code = 0
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestCli:
    def _write_config(self, path, doc):
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def _run(self, capsys, cfg, out, *extra) -> tuple[int, str, str]:
        return run_cli(capsys, "run", "--config", str(cfg), "--out", str(out), *extra)

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, {"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 1})
        code, out, err = self._run(capsys, cfg, tmp_path / "out", "--audit")
        assert code == 0, err
        assert out == f"wrote 6 result rows to {tmp_path / 'out'}\n"
        for name in ("results.csv", "aggregate.csv", "report.json"):
            assert (tmp_path / "out" / name).exists()

    def test_audit_keeps_the_results_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, {"experiment": "cc", "trials": 2, "n_grid": [100], "seed": 1})
        for out, extra in (("plain", []), ("audited", ["--audit"])):
            assert self._run(capsys, cfg, tmp_path / out, *extra)[0] == 0
        assert (tmp_path / "audited" / "report.json").exists()
        assert not (tmp_path / "plain" / "report.json").exists()
        for name in ("results.csv", "aggregate.csv"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "audited" / name).read_bytes() == plain

    def test_seed_override_changes_results(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, {"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 1})
        self._run(capsys, cfg, tmp_path / "a")
        self._run(capsys, cfg, tmp_path / "b", "--seed", "2")
        a = (tmp_path / "a" / "results.csv").read_text()
        b = (tmp_path / "b" / "results.csv").read_text()
        assert a != b

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        self._write_config(cfg, {"experiment": "cc", "bogus": True})
        assert self._run(capsys, cfg, tmp_path / "o")[0] == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--config", "{missing}", "--out", "{out}"],
            ["run", "--config", "{dir}", "--out", "{out}"],
            ["run", "--config", "{cfg}", "--out", "{cfg}"],
            ["run", "--config", "{cfg}", "--out", "{cfg}/sub"],
            ["run", "--config", "{cfg}", "--out", "{out}", "--threads", "x"],
            ["run", "--config", "{cfg}", "--out", "{out}", "--threads", "0"],
            ["run", "--config", "{cfg}", "--out", "{out}", "--bogus"],
            ["run", "--config", "{cfg}", "--out", "{out}", "--thread", "2"],
            [],
        ],
        ids=["missing_config", "directory_config", "file_out", "under_file_out", "threads_x",
             "threads_0", "unknown_option", "abbreviated_option", "no_subcommand"],
    )
    def test_bad_command_line_exits_2_before_any_output(self, tmp_path, capsys, monkeypatch, args):
        cfg, directory = tmp_path / "cfg.json", tmp_path / "configs"
        self._write_config(cfg, {"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 1})
        directory.mkdir()
        studies = []
        _, *writers = cli_module.STUDIES["cc"]
        monkeypatch.setitem(cli_module.STUDIES, "cc", (lambda *a, **k: studies.append(a), *writers))
        paths = {"missing": tmp_path / "nope.json", "dir": directory, "cfg": cfg, "out": tmp_path / "o"}
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in args))
        assert code == 2
        assert "error" in err
        assert studies == []
        assert not (tmp_path / "o").exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, {"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 1})
        monkeypatch.setattr(cli_module.os, "access", lambda path, mode: False)
        code, _, err = self._run(capsys, cfg, tmp_path / "o")
        assert code == 2
        assert "not readable" in err
        assert not (tmp_path / "o").exists()

    def test_unwritable_out_ancestor_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, {"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 1})
        monkeypatch.setattr(cli_module.os, "access", lambda path, mode: not mode & os.W_OK)
        code, _, err = self._run(capsys, cfg, tmp_path / "o" / "sub")
        assert code == 2
        assert f"{str(tmp_path)!r} is not writable" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"trials": 1.5},
            {"n_grid": [100.7]},
            {"lambda": float("nan")},
            {"delta": "0.1"},
            {"penalty_scale": float("inf")},
            {"trials": True},
        ],
        ids=["float_trials", "float_n", "nan_lambda", "string_delta", "infinite_scale", "bool_trials"],
    )
    def test_badly_typed_value_is_a_config_error(self, tmp_path, capsys, override):
        self._refused(tmp_path, capsys, {"experiment": "cc", "trials": 1, "n_grid": [100], **override})

    def _refused(self, tmp_path, capsys, doc) -> str:
        """Run `doc` through the CLI, expect a config error, return its stderr."""
        cfg = tmp_path / "bad.json"
        self._write_config(cfg, doc)
        code, _, err = self._run(capsys, cfg, tmp_path / "o")
        assert code == 2, err
        assert "config error" in err
        assert not (tmp_path / "o").exists()
        return err

    @pytest.mark.parametrize(
        "doc",
        [
            {"experiment": "cc", "n_grid": [50, 50]},
            {"experiment": "cc", "cc": {"hidden_dims": [2, 2]}},
            {"experiment": "lower_bound", "lower_bound": {"n1": [16, 16]}},
            {"experiment": "lower_bound", "lower_bound": {"algorithms": ["cc", "cc"]}},
        ],
        ids=["n_grid", "hidden_dims", "n1", "algorithms"],
    )
    def test_duplicate_entry_is_a_config_error(self, tmp_path, capsys, doc):
        assert "duplicate" in self._refused(tmp_path, capsys, {"trials": 1, **doc})

    @pytest.mark.parametrize(
        "doc, reason",
        [
            ({"experiment": "ac", "n_grid": [1]}, "degenerate hold-out split"),
            ({"experiment": "ac", "n_grid": [3], "ac": {"holdout_split": 0.9}},
             "degenerate hold-out split"),
            ({"experiment": "lower_bound", "lower_bound": {"n1": [1], "n2": 1}},
             "degenerate hold-out split"),
            # numpy's hypergeometric refuses 10**9 rows, which would otherwise
            # fail the run at its first cell
            ({"experiment": "ac", "n_grid": [100, 10**9]}, "n < 1000000000"),
        ],
        ids=["ac_one_row", "ac_wide_split", "lower_bound_two_rows", "ac_beyond_hypergeometric"],
    )
    def test_degenerate_holdout_split_is_a_config_error(self, tmp_path, capsys, doc, reason):
        assert reason in self._refused(tmp_path, capsys, {"trials": 1, **doc})

    def test_holdout_beyond_the_hypergeometric_range_is_a_config_error(self, tmp_path, capsys):
        # numpy's hypergeometric refuses 10**9 rows of an arm, which would
        # otherwise fail the run at its first hold-out trial
        lower_bound = {"n1": [16, 10**9 - 16], "n2": 16, "algorithms": ["cc", "holdout"]}
        doc = {"experiment": "lower_bound", "trials": 1, "lower_bound": lower_bound}
        assert "n1 + n2 < 1000000000" in self._refused(tmp_path, capsys, doc)

    def test_invalid_json_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert self._run(capsys, cfg, tmp_path / "o")[0] == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # lambda = 0 with a 50-dim realizable class: 20 rows see at most 20
        # cells, so the class's covariance is singular
        cfg = tmp_path / "cfg.json"
        self._write_config(
            cfg,
            {
                "experiment": "cc",
                "trials": 1,
                "n_grid": [20],
                "seed": 1,
                "lambda": 0.0,
                "cc": {"hidden_dims": [50]},
            },
        )
        code, _, err = self._run(capsys, cfg, tmp_path / "o")
        assert code == 3
        assert "numerical failure" in err

    def test_lower_bound_results_schema(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self._write_config(
            cfg,
            {
                "experiment": "lower_bound",
                "trials": 5,
                "seed": 1,
                "lower_bound": {"n1": [8], "n2": 8, "algorithms": ["cc", "holdout"]},
            },
        )
        out = tmp_path / "out"
        code, _, err = self._run(capsys, cfg, out)
        assert code == 0, err
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "algorithm,n1,n2,trials,mean_regret_nu1,mean_regret_nu2,denominator,ratio"
        assert (out / "aggregate.csv").read_text().splitlines()[0] == "n,method,mean_regret,stderr"
