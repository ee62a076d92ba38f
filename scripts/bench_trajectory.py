"""Record a parent/change performance pair as two BENCH_<label>.json files.

    python3 scripts/bench_trajectory.py run --parent DIR --change DIR --log runs.jsonl
    python3 scripts/bench_trajectory.py summarize --log runs.jsonl \
        --parent-label SHA --change-label SHA [--out-dir .]

DIR is a checkout of one commit (for example `git archive SHA | tar -x -C DIR`).
`run` alternates the two checkouts, which side goes first flipping every pair:
`perfbench/run.py --trace 0` on every workload, pair i with seed SEED + i on
both sides, each run as long as BENCHMARK.json's `run_seconds`; then one
`--trace 1` run per workload and side, the in-process times of `run_cc`
and `run_lower_bound` (which run their cells serially whatever `threads` is,
so they are timed once) and of `run_ac` at threads 1 and 2, one CLI run per
side of the ac study past the grid (`PAST_GRID`), and the tier-1 suite.
Each result is appended to the log as one JSON line, so an interrupted run
loses nothing.  `summarize` reshapes the log into one file per side:
per-workload medians and quartiles with the pair count, the change's wins
over the parent, the results.csv sha256s by seed, the traced run's verdict,
exit code and layer shares, the tier-1 wall time with its four slowest
tests, the in-process timings with `run_ac`'s two-thread speedup, and the
past-the-grid run's wall time and peak RSS.  It exits 1, after writing both
files, when any perfbench run was not correct or the past-the-grid run
failed, naming its workload, side and seed.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("cc", "ac", "lower_bound")
LOWER_IS_BETTER = {"wall_s", "wall_s_threads2", "setup_s", "peak_rss_mb"}
PAIRS = 10
SEED = 21
INPROCESS_REPEATS = 6
RUN_SECONDS = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())[
    "run_seconds"]

# argv: run_ac's thread counts in order ("12" or "21"), then the checkout's
# perfbench/ directory, whose lower_bound workload is the benchmark's config.
INPROCESS = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from run import WORKLOADS
from batchselect.experiments import parse_config, run_ac, run_cc, run_lower_bound
studies = {"run_cc": (run_cc, {"experiment": "cc", "trials": 4}, "1"),
           "run_ac": (run_ac, {"experiment": "ac", "trials": 1}, sys.argv[1]),
           "run_lower_bound": (run_lower_bound, WORKLOADS["lower_bound"], "1")}
run_cc(parse_config({"experiment": "cc", "trials": 1, "n_grid": [100]}))  # warm-up
out = {}
for name, (runner, doc, thread_counts) in studies.items():
    for threads in thread_counts:
        t0 = time.perf_counter()
        runner(parse_config(doc), threads=int(threads))
        out[f"{name}.threads{threads}"] = time.perf_counter() - t0
print(json.dumps(out))
"""


# The benchmark's ac workload (the default ac config at one trial) with ten
# times the default 500 test and validation states: the memory past the grid,
# where every state the trial holds shows.
PAST_GRID = {"experiment": "ac", "trials": 1, "seed": SEED, "n_test": 5000, "n_validation": 5000}


def _child_env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines() or [""]
    try:
        record = {"exit_code": out.returncode, **json.loads(lines[-1])}
    except json.JSONDecodeError:  # a failed set-up probe prints no metrics line
        record = {"exit_code": out.returncode, "correct": False, "metrics": {},
                  "stderr": out.stderr[-2000:]}
    for line in lines:
        if line.startswith("environment: "):
            record["environment"] = json.loads(line[len("environment: "):])
        elif line.startswith("results.csv sha256: "):
            record["results_sha256"] = sorted(re.findall(r"[0-9a-f]{64}", line))
    record["metrics"] = {k: m["value"] for k, m in record["metrics"].items()
                         if m["value"] is not None}
    return record


def inprocess(checkout: Path, order: str) -> dict:
    argv = [sys.executable, "-B", "-c", INPROCESS, order, str(checkout / "perfbench")]
    out = subprocess.run(argv, env=_child_env(checkout),
                         capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout)


def past_grid(checkout: Path) -> dict:
    """One `--threads 1` CLI run of PAST_GRID: its exit code, wall time from
    spawn to reap and peak RSS, taken through os.wait4 as perfbench takes
    them."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(PAST_GRID))
        argv = [sys.executable, "-m", "batchselect.cli", "run", "--config", str(config),
                "--out", str(Path(tmp) / "out"), "--threads", "1"]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(checkout), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    return {"config": PAST_GRID, "exit_code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def tier1(checkout: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=4", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, env=_child_env(checkout), capture_output=True,
                         text=True, timeout=1800)
    wall = time.perf_counter() - t0
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", out.stdout)}
    slowest = [{"seconds": float(s), "test": t}
               for s, t in re.findall(r"^([\d.]+)s call\s+(\S+)$", out.stdout, re.M)]
    return {"wall_s": wall, **counts, "slowest": slowest}


def run(args):
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.log, "a") as log:
        def emit(**record):
            log.write(json.dumps(record, sort_keys=True) + "\n")
            log.flush()

        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in WORKLOADS:
                for side in order:
                    rec = perfbench(sides[side], workload, SEED + i, 0)
                    emit(kind="trace0", side=side, pair=i, workload=workload, seed=SEED + i,
                         run_seconds=RUN_SECONDS, **rec)
        for workload in WORKLOADS:
            for side in sides:
                rec = perfbench(sides[side], workload, SEED, 1)
                emit(kind="trace1", side=side, workload=workload, seed=SEED,
                     run_seconds=RUN_SECONDS, **rec)
        for i in range(INPROCESS_REPEATS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                emit(kind="inprocess", side=side, repeat=i,
                     times=inprocess(sides[side], "12" if i % 2 == 0 else "21"))
        for side in sides:
            emit(kind="past_grid", side=side, **past_grid(sides[side]))
        for side in sides:
            emit(kind="tier1", side=side, **tier1(sides[side]))


def _spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(args):
    records = [json.loads(line) for line in open(args.log)]
    labels = {"parent": args.parent_label, "change": args.change_label}
    pairs = {}
    for r in records:
        if r["kind"] == "trace0":
            pairs.setdefault((r["workload"], r["pair"]), {})[r["side"]] = r
    for side, label in labels.items():
        mine = [r for r in records if r["side"] == side]
        other = "change" if side == "parent" else "parent"
        doc = {"label": label, "role": side, "vs": labels[other],
               "method": "alternating parent/change pairs of perfbench/run.py --trace 0; each pair "
                         "runs one seed on both sides; each value is one run's median",
               "run_seconds": sorted({r["run_seconds"] for r in records if "run_seconds" in r}),
               "environment": next(r["environment"] for r in mine if "environment" in r),
               "workloads": {}}
        for workload in WORKLOADS:
            runs = [p[side] for (w, _), p in sorted(pairs.items()) if w == workload and side in p]
            names = sorted({k for r in runs for k in r["metrics"]})
            entry = {"pairs": len(runs), "correct_runs": sum(r["correct"] for r in runs),
                     "metrics": {k: _spread([r["metrics"][k] for r in runs if k in r["metrics"]])
                                 for k in names},
                     "results_sha256_by_seed": {str(r["seed"]): r.get("results_sha256")
                                                for r in runs}}
            if side == "change":
                both = [p for (w, _), p in pairs.items() if w == workload and len(p) == 2]
                entry["change_wins"] = {
                    k: sum(p["change"]["metrics"].get(k, float("inf"))
                           < p["parent"]["metrics"].get(k, float("-inf")) for p in both)
                    for k in sorted(LOWER_IS_BETTER)}
                entry["hashes_equal_parent"] = all(
                    p["change"].get("results_sha256") == p["parent"].get("results_sha256")
                    for p in both)
            trace = [r for r in mine if r["kind"] == "trace1" and r["workload"] == workload]
            if trace:
                m = trace[-1]["metrics"]
                entry["trace_correct"] = trace[-1]["correct"]
                entry["trace_exit_code"] = trace[-1]["exit_code"]
                entry["trace"] = {k: v for k, v in sorted(m.items())
                                  if k.startswith("trace.") or (k.endswith(".self_pct") and v)
                                  or (k.endswith(".calls") and v)}
            doc["workloads"][workload] = entry
        times = {}
        for r in mine:
            if r["kind"] == "inprocess":
                for k, v in r["times"].items():
                    times.setdefault(k, []).append(v)
        doc["inprocess_threads"] = {k: _spread(v) for k, v in sorted(times.items())}
        t1, t2 = times.get("run_ac.threads1"), times.get("run_ac.threads2")
        if t1 and t2:
            doc["inprocess_threads"]["run_ac.speedup_threads2"] = (
                statistics.median(t1) / statistics.median(t2))
        for kind in ("past_grid", "tier1"):
            doc[kind] = next(({k: v for k, v in r.items() if k not in ("kind", "side")}
                              for r in mine if r["kind"] == kind), None)
        path = Path(args.out_dir) / f"BENCH_{label}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    failed = [r for r in records if r["kind"] in ("trace0", "trace1") and not r.get("correct")]
    for r in failed:
        print(f"{r['kind']} run not correct: workload {r['workload']}, side {r['side']}, "
              f"seed {r['seed']}, exit code {r['exit_code']}", file=sys.stderr)
    past = [r for r in records if r["kind"] == "past_grid" and r["exit_code"] != 0]
    for r in past:
        print(f"past_grid run failed: workload ac, side {r['side']}, seed {SEED}, "
              f"exit code {r['exit_code']}", file=sys.stderr)
    return 1 if failed or past else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--log", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("--log", required=True)
    s.add_argument("--parent-label", required=True)
    s.add_argument("--change-label", required=True)
    s.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args)
        return 0
    return summarize(args)


if __name__ == "__main__":
    sys.exit(main())
