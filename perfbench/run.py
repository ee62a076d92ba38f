"""batchselect benchmark: one study, run through the CLI the way users run it.

    python3 perfbench/run.py --workload {cc,ac,lower_bound} --seed N --seconds S --trace {0,1}

Run from the repository root.  The load is a closed loop with one client:
one CLI run at a time.

--trace 0 measures the end-to-end metrics.  It times fresh-interpreter set-up
(import batchselect.cli and load the config), then alternates CLI runs at
--threads 1 and --threads 2 until the measurement window is used.  The CLI
runs as a subprocess in the caller's environment; BLAS threading is left at
its default, because oversubscription is one of the costs being measured.

--trace 1 measures the per-layer metrics.  It alternates an untraced CLI run
at --threads 1 with an in-process run of the same study, also at threads=1,
whose layer functions are wrapped with span recorders (see tracer.py).

Every CLI run's results.csv is checked; see `check_results`.  Human-readable
lines go to stdout first; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every check passed.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# Each study's default config block and n_grid, pinned here so the workload
# cannot drift with the program's defaults.  Only the trial count is cut, to
# fit the measurement window: cc and ac run one trial (one cell per n, about
# 6.5 s and 3 s per CLI run); lower_bound keeps its default 20 trials (about
# 1.7 s).
WORKLOADS = {
    "cc": {
        "experiment": "cc",
        "trials": 1,
        "n_grid": [100, 250, 500, 1000, 2000, 4000],
        "cc": {"state_count": 20, "action_count": 10, "hidden_dims": [2, 5, 10, 25, 50]},
    },
    "ac": {
        "experiment": "ac",
        "trials": 1,
        "n_grid": [100, 250, 500, 1000, 2000, 4000],
        "ac": {"ambient_dim": 100, "true_dim": 30, "action_count": 10,
               "dims": [15, 20, 30, 50, 75, 100], "holdout_split": 0.8},
    },
    "lower_bound": {
        "experiment": "lower_bound",
        "trials": 20,
        "lower_bound": {"n1": [16, 1024, 65536], "n2": 16, "algorithms": ["cc", "slope", "holdout"]},
    },
}

THREADS = (1, 2)  # nproc is 2 on the reference box
SETUP_PROBES = 5
TRACE_SETUP_PROBES = 3
MIN_PAIRS = 2
# A run must end within 180 s even if the program slows down badly: no child
# outlives this budget, and no pair starts after it.
RUN_BUDGET_S = 150.0

REGRET_HEADER = ["n", "method", "trial", "regret"]
RATIO_HEADER = ["algorithm", "n1", "n2", "trials", "mean_regret_nu1", "mean_regret_nu2",
                "denominator", "ratio"]

SETUP_SCRIPT = (
    "import sys\n"
    "import batchselect.cli\n"
    "from batchselect.experiments import load_config\n"
    "load_config(sys.argv[1])\n"
)


def log(msg: str):
    print(msg, flush=True)


def child_env() -> dict:
    """The caller's environment, plus the source tree on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclasses.dataclass
class ChildResult:
    ok: bool
    wall_s: float
    peak_rss_mb: float
    detail: str = ""


def run_child(argv: list[str], stderr_path: Path, deadline: float) -> ChildResult:
    """Run one child to completion; wall time from spawn to reap, RSS from wait4.

    The parent blocks in wait4 rather than polling, so it takes no CPU from
    the child; a timer thread kills a child still running at `deadline`.
    """
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return ChildResult(False, math.nan, math.nan, "run budget used up")
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    detail = ""
    if wall >= timeout:
        detail = f"killed after {timeout:.0f} s"
    elif code != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        detail = f"exit code {code}: " + " | ".join(tail)
    return ChildResult(code == 0, wall, usage.ru_maxrss / 1024.0, detail)


def expected_keys(workload: dict) -> set:
    """The (row key) set a correct results.csv holds, from the workload config."""
    exp = workload["experiment"]
    if exp == "lower_bound":
        lb = workload["lower_bound"]
        return {(a, str(n1)) for a in lb["algorithms"] for n1 in lb["n1"]}
    if exp == "cc":
        methods = [f"class_{d}" for d in workload["cc"]["hidden_dims"]] + ["cc"]
    else:
        methods = [f"class_{d}" for d in workload["ac"]["dims"]] + ["slope", "holdout"]
    return {(str(n), m, str(t)) for n in workload["n_grid"] for m in methods
            for t in range(workload["trials"])}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def check_results(workload: dict, data: bytes) -> str:
    """Empty string if results.csv is correct, else the first problem found.

    Schema and row set must match the workload.  cc/ac: every regret is
    finite and >= 0 (the comparator is the argmax of the true means).
    lower_bound: every ratio and denominator is finite and > 0.
    """
    try:
        rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
    except UnicodeDecodeError:
        return "results.csv is not ASCII"
    if not rows:
        return "results.csv is empty"
    header, body = rows[0], rows[1:]
    lower_bound = workload["experiment"] == "lower_bound"
    want_header = RATIO_HEADER if lower_bound else REGRET_HEADER
    if header != want_header:
        return f"header {header} != {want_header}"
    if any(len(r) != len(want_header) for r in body):
        return "row with the wrong number of fields"
    keys = [tuple(r[:2]) if lower_bound else tuple(r[:3]) for r in body]
    want = expected_keys(workload)
    if len(keys) != len(want) or set(keys) != want:
        return f"{len(keys)} rows, expected {len(want)} distinct rows"
    try:
        for r in body:
            if lower_bound:
                if _finite(r[6]) <= 0 or _finite(r[7]) <= 0:
                    return f"non-positive denominator or ratio in {r}"
                if int(r[2]) != workload["lower_bound"]["n2"] or int(r[3]) != workload["trials"]:
                    return f"wrong n2 or trials in {r}"
            elif _finite(r[3]) < 0:
                return f"negative regret in {r}"
    except ValueError as exc:
        return f"bad value: {exc}"
    return ""


class Study:
    """One workload's config on disk plus the CLI and set-up commands for it."""

    def __init__(self, workload: dict, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.dir = workdir
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps(self.workload, indent=1) + "\n")
        self.count = 0

    def cli(self, threads: int) -> tuple[ChildResult, bytes]:
        """One CLI run; a failed check turns into a failed result."""
        self.count += 1
        out = self.dir / f"out{self.count}"
        res = run_child(
            [sys.executable, "-m", "batchselect.cli", "run", "--config", str(self.config),
             "--out", str(out), "--seed", str(self.seed), "--threads", str(threads)],
            self.dir / f"err{self.count}.txt", self.deadline,
        )
        data = b""
        if res.ok:
            data = (out / "results.csv").read_bytes()
            problem = check_results(self.workload, data)
            if problem:
                res = dataclasses.replace(res, ok=False, detail=f"results.csv: {problem}")
        shutil.rmtree(out, ignore_errors=True)
        return res, data

    def setup_probe(self) -> ChildResult:
        self.count += 1
        return run_child([sys.executable, "-c", SETUP_SCRIPT, str(self.config)],
                         self.dir / f"err{self.count}.txt", self.deadline)


def environment(tracing: bool) -> dict:
    """What a result must be read against: machine, versions, BLAS threading."""
    probe = subprocess.run([sys.executable, str(Path(__file__).with_name("envinfo.py"))],
                           cwd=ROOT, env=child_env(), capture_output=True, text=True,
                           timeout=RUN_BUDGET_S, check=True)
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "batchselect").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        **json.loads(probe.stdout),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_1min": os.getloadavg()[0],
        "git_commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
        "trace": tracing,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def median(values):
    return statistics.median(values) if values else math.nan


def metric(value: float, unit: str) -> dict:
    """A named result; a value with no samples behind it is reported as null."""
    return {"value": value if math.isfinite(value) else None, "unit": unit}


class Tally:
    """attempted / failed accounting over CLI and traced runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {label}: {detail}", file=sys.stderr, flush=True)


def measure_end_to_end(study: Study, seconds: float, tally: Tally) -> tuple[dict, bool]:
    start = time.perf_counter()
    setups = []
    for _ in range(SETUP_PROBES):
        res = study.setup_probe()
        if not res.ok:
            print(f"FAILED set-up probe: {res.detail}", file=sys.stderr)
            return {}, False
        setups.append(res.wall_s)
    log(f"setup_s samples: {[round(s, 4) for s in setups]}")

    walls = {t: [] for t in THREADS}
    rss, hashes, pair_times = [], set(), []
    pairs = 0
    while time.perf_counter() < study.deadline and (
            pairs < MIN_PAIRS or time.perf_counter() - start + median(pair_times) <= seconds):
        t0 = time.perf_counter()
        order = THREADS if pairs % 2 == 0 else THREADS[::-1]
        outputs = {}
        for threads in order:
            res, data = study.cli(threads)
            tally.record(f"cli --threads {threads}", res.ok, res.detail)
            if res.ok:
                walls[threads].append(res.wall_s)
                outputs[threads] = data
                if threads == 1:
                    rss.append(res.peak_rss_mb)
        if len(outputs) == len(THREADS):
            if outputs[1] != outputs[2]:  # the README promises identical bytes for any --threads
                tally.failed += 1
                print("FAILED: --threads 1 and --threads 2 results.csv differ", file=sys.stderr)
            hashes.update(hashlib.sha256(d).hexdigest() for d in outputs.values())
        pairs += 1
        pair_times.append(time.perf_counter() - t0)
    log(f"wall_s samples: {[round(w, 4) for w in walls[1]]}")
    log(f"wall_s_threads2 samples: {[round(w, 4) for w in walls[2]]}")
    log(f"peak_rss_mb samples: {[round(r, 1) for r in rss]}")
    log(f"results.csv sha256: {sorted(hashes)}")
    metrics = {
        "wall_s": metric(median(walls[1]), "s"),
        "wall_s_threads2": metric(median(walls[2]), "s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(median(rss), "MB"),
        "completed_fraction": metric(1.0 - tally.failed / tally.attempted, "1"),
    }
    return metrics, True


def traced_run(study: Study):
    """The study in-process at threads=1 with every layer wrapped.

    Mirrors the CLI: load the config, apply --seed, run, render results.csv.
    """
    import tracer as tr
    from batchselect import experiments
    from batchselect.hard_instance import ratio_results_to_csv

    tracer = tr.Tracer()
    with tr.patched(tracer), tracer.span("bench.root"):
        config = dataclasses.replace(experiments.load_config(str(study.config)), seed=study.seed)
        runner = getattr(experiments, f"run_{config.experiment}")
        results, _ = runner(config, threads=1)
        if config.experiment == "lower_bound":
            text = ratio_results_to_csv(results)
        else:
            text = experiments.results_to_csv(results)
    return text.encode(), tracer


def layer_metrics(tracer) -> dict:
    """Per-function calls/errors/self share, per-layer self share, waste and flops."""
    import tracer as tr

    summary = tr.summarize(tracer)
    funcs, total = summary["functions"], summary["total_s"]
    pct = lambda s: 100.0 * s / total  # noqa: E731
    out = {}
    for name in tr.SPAN_NAMES:
        st = funcs.get(name, {"calls": 0, "errors": 0, "self_s": 0.0, "incl_s": 0.0})
        out[f"{name}.calls"] = metric(st["calls"], "count")
        out[f"{name}.errors"] = metric(st["errors"], "count")
        out[f"{name}.self_pct"] = metric(pct(st["self_s"]), "%")
    for layer in tr.LAYERS + ["bench"]:
        self_s = sum(st["self_s"] for n, st in funcs.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_pct"] = metric(pct(self_s), "%")
    regret = funcs.get("diagnostics.regret_estimate", {"incl_s": 0.0})
    out["diagnostics.regret_estimate.incl_pct"] = metric(pct(regret["incl_s"]), "%")
    for name in ("linalg.ridge_fit", "env.make_gaussian_instance", "env.make_tabular_instance",
                 "features.realizable_family", "env.sample_states"):
        out[f"{name}.unique_fraction"] = metric(tr.unique_fraction(tracer, name), "1")
    for name in ("linalg.ridge_fit", "linalg.inv_quad_norms", "env.sample_state_batch"):
        flops = tracer.flops.get(name, 0)
        incl = funcs.get(name, {"incl_s": 0.0})["incl_s"]
        out[f"{name}.flops"] = metric(flops, "flop")
        out[f"{name}.gflop_s"] = metric(flops / incl / 1e9 if incl > 0 else 0.0, "Gflop/s")
    out["trace.total_s"] = metric(total, "s")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    accounted = sum(st["self_s"] for st in funcs.values())
    return out, accounted


def measure_layers(study: Study, seconds: float, tally: Tally) -> tuple[dict, bool]:
    import selftest
    import tracer as tr

    ok = True
    for check in (selftest.check_self_times_toy, selftest.check_wrapping_complete):
        problem = check()
        if problem:
            print(f"FAILED self-test {check.__name__}: {problem}", file=sys.stderr)
            ok = False

    start = time.perf_counter()
    setups = []
    for _ in range(TRACE_SETUP_PROBES):
        res = study.setup_probe()
        if not res.ok:
            print(f"FAILED set-up probe: {res.detail}", file=sys.stderr)
            return {}, False
        setups.append(res.wall_s)

    walls, runs, pair_times = [], [], []
    while time.perf_counter() < study.deadline and (
            not runs or time.perf_counter() - start + median(pair_times) <= seconds):
        t0 = time.perf_counter()
        res, reference = study.cli(1)
        tally.record("cli --threads 1", res.ok, res.detail)
        if res.ok:
            walls.append(res.wall_s)
        data, tracer = traced_run(study)
        problem = check_results(study.workload, data)
        if res.ok and not problem and data != reference:
            problem = "traced results.csv differs from the untraced CLI run's"
        tally.record("traced run", not problem, problem)
        metrics, accounted = layer_metrics(tracer)
        total = metrics["trace.total_s"]["value"]
        if abs(accounted - total) > 1e-9 * max(total, 1.0):
            ok = False
            print(f"FAILED: self times sum to {accounted} s, traced total is {total} s",
                  file=sys.stderr)
        runs.append(metrics)
        last = tracer
        pair_times.append(time.perf_counter() - t0)

    # Counts repeat exactly from run to run; times are summarized by their median.
    out = {}
    for name, m in runs[0].items():
        values = [r[name]["value"] for r in runs]
        pick = statistics.median_low if m["unit"] in ("count", "flop") else median
        out[name] = metric(pick(values), m["unit"])
    overhead = out["trace.total_s"]["value"] - (median(walls) - median(setups))
    out["trace.overhead_s"] = metric(overhead, "s")
    log(f"traced runs: {len(runs)}; untraced wall_s {[round(w, 4) for w in walls]}; "
        f"setup_s {[round(s, 4) for s in setups]}")
    log(f"tracing overhead: {overhead:.4f} s on a traced total of "
        f"{out['trace.total_s']['value']:.4f} s")
    top = sorted(((m["value"], k) for k, m in out.items()
                  if k.endswith(".self_pct") and k.count(".") == 2), reverse=True)[:5]
    log("top self time: " + ", ".join(f"{k.rsplit('.', 1)[0]} {v:.1f}%" for v, k in top))
    breakdown = study.dir.parent / f"trace-{study.workload['experiment']}-seed{study.seed}.json"
    breakdown.write_text(json.dumps(tr.summarize(last), indent=1, sort_keys=True) + "\n")
    log(f"per-function seconds of the last traced run: {breakdown.relative_to(ROOT)}")
    return out, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "batchselect" / "cli.py").is_file():
        print(f"batchselect sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    log("environment: " + json.dumps(environment(bool(args.trace)), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        study = Study(WORKLOADS[args.workload], args.seed, Path(tmp))
        # Warm-up: byte-compiles the sources once, as an installed package would be.
        study.setup_probe()
        if args.trace:
            metrics, ok = measure_layers(study, args.seconds, tally)
        else:
            metrics, ok = measure_end_to_end(study, args.seconds, tally)
    if not metrics:
        return 1
    correct = ok and tally.failed == 0
    for name, m in metrics.items():
        log(f"{args.workload} {name} = {m['value']} {m['unit']}")
    log(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                    "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
