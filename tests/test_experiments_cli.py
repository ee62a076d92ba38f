import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import batchselect.experiments as experiments
import batchselect.learner as learner_module
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
# compares the two in distribution.
GOLDEN = {
    "cc": (
        {"experiment": "cc", "trials": 2, "n_grid": [100, 250], "seed": 3},
        run_cc,
        results_to_csv,
        "7e662f7c427a4efeb04aa4a5c5cd2cea40cf1f4c6b5780c32cf5a719d7026c1f",
    ),
    "ac": (
        {"experiment": "ac", "trials": 2, "n_grid": [150], "seed": 3},
        run_ac,
        results_to_csv,
        "2e0d262a434697b1a87f81b78cea6e45c2caae382eeadd5b90194abeb2beefe0",
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


def test_ac_all_action_reference_gives_the_previous_hash(monkeypatch):
    # Only the dataset draw moved: with the all-action sampler it replaced,
    # ac still writes the bytes pinned before the change.
    doc, runner, serialize, _ = GOLDEN["ac"]
    monkeypatch.setattr(experiments, "sample_dataset", all_action_dataset)
    text = serialize(runner(parse_config(doc), threads=1)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ff610c4701b17e3d51555599396b5c237faf1fe6939367591bc3a8ab5d2af2bf"
    )


def test_cells_run_largest_n_first(monkeypatch):
    seen = []
    cell = experiments._cc_cell

    def recording_cell(config, ctx, n, **kwargs):
        seen.append(n)
        return cell(config, ctx, n, **kwargs)

    monkeypatch.setattr(experiments, "_cc_cell", recording_cell)
    run_cc(parse_config(SMALL_CC), threads=1)
    assert seen == [80, 60, 40] * 2


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


def test_lower_bound_cells_run_on_the_calling_thread(monkeypatch):
    # a cell's trials hold the interpreter lock, so a pool would only contend
    threads = []
    ratio = experiments.ratio_experiment

    def recording_ratio(*args, **kwargs):
        threads.append(threading.get_ident())
        return ratio(*args, **kwargs)

    monkeypatch.setattr(experiments, "ratio_experiment", recording_ratio)
    lower_bound = {"n1": [16, 32], "n2": 16, "algorithms": ["holdout", "cc"]}
    config = parse_config({"experiment": "lower_bound", "trials": 2, "lower_bound": lower_bound})
    run_lower_bound(config, threads=2)
    assert threads == [threading.get_ident()] * 4


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


SMALL_CC = {
    "experiment": "cc",
    "trials": 2,
    "n_grid": [40, 60, 80],
    "n_test": 30,
    "cc": {"state_count": 4, "action_count": 3, "hidden_dims": [2, 5, 12]},
}


def test_shared_trial_context_under_thread_stress():
    # n-cells of one trial share its instance, family and test states across
    # pool threads; a short switch interval interleaves them as often as it can.
    config = parse_config({**SMALL_CC, "n_grid": [40, 50, 60, 70, 80, 90]})
    expected = results_to_csv(run_cc(config, threads=1)[0])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = results_to_csv(run_cc(config, threads=6)[0])
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


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
        cell = experiments._cc_cell

        def recording_cell(*args, **kwargs):
            seen.append([get() for get in blas_at_two])
            return cell(*args, **kwargs)

        monkeypatch.setattr(experiments, "_cc_cell", recording_cell)
        run_cc(parse_config(SMALL_CC), threads=threads)
        assert len(seen) == 2 * len(SMALL_CC["n_grid"])
        assert all(counts == [1] * len(blas_at_two) for counts in seen)
        assert [get() for get in blas_at_two] == [2] * len(blas_at_two)

    def test_overlapping_runs_restore_after_the_last(self, blas_at_two):
        ones, twos = [1] * len(blas_at_two), [2] * len(blas_at_two)
        first, second = experiments._mapper(1), experiments._mapper(2)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert [get() for get in blas_at_two] == ones
        second.__exit__(None, None, None)
        assert [get() for get in blas_at_two] == twos


def test_cli_import_leaves_out_scipy():
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, batchselect.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run(
        [sys.executable, "-c", probe],
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

    def test_ac_builds_each_design_once_per_cell(self, monkeypatch):
        # every class's design is a view of the cell's logged rows, and the
        # greedy fits and hold-out read the same arrays
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
        datasets = _record_calls(monkeypatch, experiments, "sample_dataset")
        fits = _record_calls(monkeypatch, experiments, "ridge_fit")
        holdouts = _record_calls(monkeypatch, experiments, "holdout_select")
        run_ac(config)
        assert len(datasets) == 2 * 2 and len(holdouts) == 2 * 2
        greedy = [args[0] for args, _ in fits]
        for i, (_, data) in enumerate(datasets):
            designs = holdouts[i][0][0]
            assert len(designs) == 3
            assert all(np.shares_memory(phi, data.logged) for phi in designs)
            assert all(a is b for a, b in zip(designs, greedy[3 * i : 3 * i + 3], strict=True))

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
        for shared, mc in zip(policy.learners, policy.classes, strict=True):
            fresh = fit_pessimistic(
                dataset, mc, config.lam, config.delta / m, config.penalty_scale
            )
            assert np.array_equal(shared.fit.theta_hat, fresh.fit.theta_hat)
            assert np.array_equal(shared.fit.cov.entries, fresh.fit.cov.entries)
            assert shared.beta == fresh.beta
            assert shared.penalty_scale == fresh.penalty_scale


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


class TestCli:
    def _write_config(self, path, doc):
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def test_run_writes_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, {"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 1})
        runner = CliRunner()
        result = runner.invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--audit"]
        )
        assert result.exit_code == 0, result.output
        for name in ("results.csv", "aggregate.csv", "report.json"):
            assert (tmp_path / "out" / name).exists()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, {"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 1})
        runner = CliRunner()
        runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        runner.invoke(
            main, ["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"]
        )
        a = (tmp_path / "a" / "results.csv").read_text()
        b = (tmp_path / "b" / "results.csv").read_text()
        assert a != b

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        self._write_config(cfg, {"experiment": "cc", "bogus": True})
        result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

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
    def test_badly_typed_value_is_a_config_error(self, tmp_path, override):
        self._refused(tmp_path, {"experiment": "cc", "trials": 1, "n_grid": [100], **override})

    def _refused(self, tmp_path, doc) -> str:
        """Run `doc` through the CLI, expect a config error, return its output."""
        cfg = tmp_path / "bad.json"
        self._write_config(cfg, doc)
        result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert not (tmp_path / "o").exists()
        return result.output

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
    def test_duplicate_entry_is_a_config_error(self, tmp_path, doc):
        assert "duplicate" in self._refused(tmp_path, {"trials": 1, **doc})

    @pytest.mark.parametrize(
        "doc",
        [
            {"experiment": "ac", "n_grid": [1]},
            {"experiment": "ac", "n_grid": [3], "ac": {"holdout_split": 0.9}},
            {"experiment": "lower_bound", "lower_bound": {"n1": [1], "n2": 1}},
        ],
        ids=["ac_one_row", "ac_wide_split", "lower_bound_two_rows"],
    )
    def test_degenerate_holdout_split_is_a_config_error(self, tmp_path, doc):
        assert "degenerate hold-out split" in self._refused(tmp_path, {"trials": 1, **doc})

    def test_holdout_beyond_the_hypergeometric_range_is_a_config_error(self, tmp_path):
        # numpy's hypergeometric refuses 10**9 rows of an arm, which would
        # otherwise fail the run at its first hold-out trial
        lower_bound = {"n1": [16, 10**9 - 16], "n2": 16, "algorithms": ["cc", "holdout"]}
        doc = {"experiment": "lower_bound", "trials": 1, "lower_bound": lower_bound}
        assert "n1 + n2 < 1000000000" in self._refused(tmp_path, doc)

    def test_invalid_json_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # lambda = 0 with rank-deficient 200-dim realizable features at n=100
        cfg = tmp_path / "cfg.json"
        self._write_config(
            cfg,
            {"experiment": "cc", "trials": 1, "n_grid": [100], "seed": 1, "lambda": 0.0},
        )
        result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3

    def test_lower_bound_results_schema(self, tmp_path):
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
        result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "algorithm,n1,n2,trials,mean_regret_nu1,mean_regret_nu2,denominator,ratio"
        assert (out / "aggregate.csv").read_text().splitlines()[0] == "n,method,mean_regret,stderr"
