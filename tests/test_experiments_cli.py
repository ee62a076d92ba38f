import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import batchselect.experiments as experiments
import batchselect.learner as learner_module
from batchselect.cli import main
from batchselect.env import BanditInstance, StateBatch
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
# hash was re-pinned (from 157f4ebd...) when Gaussian states moved from one
# einsum to one GEMM per action; test_ac_matches_the_einsum_sampler holds the
# evidence.
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
        "ff610c4701b17e3d51555599396b5c237faf1fe6939367591bc3a8ab5d2af2bf",
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
        "8472da8b43f5d03465ac01c22a3589e5bdad75b466038b96b8941c2c312dd472",
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
        "39ac615e0e34a0ddad5bd1411be0f22a44e1658fc6cab87ef4aad9acc4b7d86b",
    ),
}


@pytest.mark.parametrize("study", sorted(GOLDEN))
def test_golden_results_hash(study):
    doc, runner, serialize, expected = GOLDEN[study]
    text = serialize(runner(parse_config(doc), threads=1)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def _einsum_state_batch(self, count, rng):
    """The Gaussian state sampler as it was before the per-action GEMM."""
    chols = self.model.chol_factors
    z = rng.standard_normal((count, chols.shape[0], chols.shape[1]))
    return StateBatch(features=np.einsum("adk,mak->mad", chols, z))


def test_ac_matches_the_einsum_sampler(monkeypatch):
    # The GEMM sampler moves only the last bits of each feature: every
    # regret stays within 1e-12 relative and every selection is the same.
    config = parse_config(GOLDEN["ac"][0])
    rows, reports = run_ac(config, audit=True)
    monkeypatch.setattr(BanditInstance, "sample_state_batch", _einsum_state_batch)
    ref_rows, ref_reports = run_ac(config, audit=True)
    assert [(r.n, r.method, r.trial) for r in rows] == [
        (r.n, r.method, r.trial) for r in ref_rows
    ]
    for row, ref in zip(rows, ref_rows):
        assert row.regret == pytest.approx(ref.regret, rel=1e-12, abs=0)
    assert [r["report"]["chosen"] for r in reports] == [r["report"]["chosen"] for r in ref_reports]


def test_cells_run_largest_n_first(monkeypatch):
    seen = []
    cell = experiments._cc_cell

    def recording_cell(config, ctx, n, **kwargs):
        seen.append(n)
        return cell(config, ctx, n, **kwargs)

    monkeypatch.setattr(experiments, "_cc_cell", recording_cell)
    run_cc(parse_config(SMALL_CC), threads=1)
    assert seen == [80, 60, 40] * 2


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
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
        calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        run_cc(parse_config(SMALL_CC))
        assert calls == []

    def test_cc_builds_each_trial_once_and_fits_each_class_once(self, monkeypatch):
        config = parse_config(SMALL_CC)
        instances = _count_calls(monkeypatch, experiments, "make_tabular_instance")
        families = _count_calls(monkeypatch, experiments, "realizable_family")
        fits = _count_calls(monkeypatch, learner_module, "ridge_fit")
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
        instances = _count_calls(monkeypatch, experiments, "make_gaussian_instance")
        run_ac(config, threads=2)
        assert len(instances) == 2

    def test_selector_learner_equals_fresh_fit_at_delta_over_m(self, monkeypatch):
        config = parse_config({**SMALL_CC, "trials": 1, "n_grid": [50]})
        captured, datasets = [], []
        select, sample = experiments.complexity_coverage_policy, experiments.sample_dataset

        def capture_select(learners, classes, delta, *args, **kwargs):
            captured.append((learners, classes))
            return select(learners, classes, delta, *args, **kwargs)

        def capture_sample(*args, **kwargs):
            datasets.append(sample(*args, **kwargs))
            return datasets[-1]

        monkeypatch.setattr(experiments, "complexity_coverage_policy", capture_select)
        monkeypatch.setattr(experiments, "sample_dataset", capture_sample)
        run_cc(config)
        (learners, classes), = captured
        (dataset,) = datasets
        m = len(classes)
        for shared, mc in zip(learners, classes):
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
