"""Self-tests of the benchmark's tracer.

    python3 perfbench/selftest.py

Run from the repository root; exits nonzero if a check fails.  Each check
returns an empty string on success, else what went wrong.  `run.py --trace 1`
runs the two cheap checks before every traced measurement.
"""
from __future__ import annotations

import importlib
import sys
import tempfile
from pathlib import Path

import tracer as tr

# Small versions of the three studies, so the bytes check takes seconds.
SMALL_WORKLOADS = {
    "cc": {
        "experiment": "cc", "trials": 1, "n_grid": [100, 400], "n_test": 50,
        "cc": {"state_count": 5, "action_count": 3, "hidden_dims": [2, 4]},
    },
    "ac": {
        "experiment": "ac", "trials": 1, "n_grid": [100, 300], "n_test": 50, "n_validation": 50,
        "ac": {"ambient_dim": 12, "true_dim": 5, "action_count": 3, "dims": [3, 5, 12],
               "holdout_split": 0.8},
    },
    "lower_bound": {
        "experiment": "lower_bound", "trials": 3,
        "lower_bound": {"n1": [16, 256], "n2": 16, "algorithms": ["cc", "slope", "holdout"]},
    },
}


def check_self_times_toy() -> str:
    """On a known call tree, self times are exact and sum to the root's total.

    root [0, 10] has children a [1, 4] (with grandchild b [2, 3]) and
    c [5, 9]; c pauses the clock from 6 to 8, so on the tracer's clock c is
    [5, 7] and root is [0, 8].
    """
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    with t.span("root"):
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            with t.paused():
                pass
    got = dict(zip((s.name for s in t.spans), tr.self_times(t.spans)))
    want = {"root": 3.0, "a": 2.0, "b": 1.0, "c": 2.0}
    if got != want:
        return f"self times {got} != {want}"
    total = tr.summarize(t)["total_s"]
    if sum(got.values()) != total or total != 8.0:
        return f"self times sum to {sum(got.values())}, root total is {total}"
    return ""


def originals() -> dict[str, object]:
    """Span name -> the unwrapped function object it stands for."""
    out = {}
    for layer, attr, _, _ in tr.TARGETS:
        obj = importlib.import_module(f"batchselect.{layer}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        out[tr.span_name(layer, attr)] = obj
    return out


def check_wrapping_complete() -> str:
    """While patched, no module-level alias or class still holds an original."""
    modules = tr.package_modules()
    wrapped = originals()
    before = {name: len(tr.aliases(fn, modules)) for name, fn in wrapped.items()}
    # ridge_fit is imported by name into __init__, experiments, learner,
    # selection and hard_instance, besides linalg itself.
    if before["linalg.ridge_fit"] < 6:
        return f"expected at least 6 aliases of ridge_fit, found {before['linalg.ridge_fit']}"
    with tr.patched(tr.Tracer()):
        left = {name: len(tr.aliases(fn, modules)) for name, fn in wrapped.items()}
        left = {name: n for name, n in left.items() if n}
        from batchselect.env import BanditInstance
        from batchselect.linalg import CovarianceMatrix

        if CovarianceMatrix.__init__ is wrapped["linalg.CovarianceMatrix"]:
            left["linalg.CovarianceMatrix"] = 1
        if BanditInstance.sample_state_batch is wrapped["env.sample_state_batch"]:
            left["env.sample_state_batch"] = 1
    if left:
        return f"unwrapped aliases remain: {left}"
    after = {name: len(tr.aliases(fn, modules)) for name, fn in wrapped.items()}
    if after != before:
        return "aliases were not restored after tracing"
    return ""


def check_traced_bytes_equal() -> str:
    """A traced in-process run writes the same results.csv bytes as the CLI."""
    import run

    run.WORK.mkdir(exist_ok=True)
    for name, workload in SMALL_WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            study = run.Study(workload, 7, Path(tmp))
            res, reference = study.cli(1)
            if not res.ok:
                return f"{name}: untraced CLI run failed: {res.detail}"
            data, tracer = run.traced_run(study)
            if data != reference:
                return f"{name}: traced results.csv differs from the untraced run's"
            if not tracer.spans:
                return f"{name}: the traced run recorded no spans"
    return ""


def main() -> int:
    import run

    if not (run.SRC / "batchselect").is_dir():
        print(f"batchselect sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    failed = 0
    for check in (check_self_times_toy, check_wrapping_complete, check_traced_bytes_equal):
        problem = check()
        print(f"[{'FAIL' if problem else 'PASS'}] {check.__name__}" + (f": {problem}" if problem else ""))
        failed += bool(problem)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
