"""Configuration-driven experiment harness: the two regret studies and the
lower-bound ratio study, with deterministic seeded trials and CSV output."""
from __future__ import annotations

import ctypes
import json
import math
import numbers
import threading
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .env import (
    BanditInstance,
    BehaviorPolicy,
    check_behavior_actions,
    check_gaussian_shape,
    check_tabular_shape,
    derive_seed,
    dirichlet_behavior,
    make_gaussian_instance,
    make_tabular_instance,
    sample_dataset,
    sample_split_cells,
    state_chunks,
)
from .features import ModelClass, design_matrix, realizable_family, truncation_family
from .hard_instance import (
    ALGORITHMS,
    HOLDOUT_SPLIT,
    RatioResult,
    csv_text,
    ratio_experiment,
)
from .learner import GreedyPolicy, Policy, check_width_arguments, fit_pessimistic
from .linalg import RidgeFit, ridge_fit
from .selection import (
    MAX_HOLDOUT_ROWS,
    SelectionReport,
    SlopeTerms,
    complexity_coverage_policy,
    holdout_select,
    holdout_split_sizes,
    slope_policy_select,
    slope_terms,
)
from .diagnostics import regret_estimate


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration field."""


@dataclass(frozen=True)
class CcSettings:
    state_count: int = 20
    action_count: int = 10
    hidden_dims: tuple = (2, 5, 10, 25, 50)


@dataclass(frozen=True)
class AcSettings:
    ambient_dim: int = 100
    true_dim: int = 30
    action_count: int = 10
    dims: tuple = (15, 20, 30, 50, 75, 100)
    holdout_split: float = 0.8


@dataclass(frozen=True)
class LowerBoundSettings:
    n1: tuple = (16, 1024, 65536)
    n2: int = 16
    algorithms: tuple = ("cc", "slope", "holdout")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    trials: int = 20
    n_grid: tuple = (100, 250, 500, 1000, 2000, 4000)
    n_test: int = 500
    n_validation: int = 500
    delta: float = 0.05
    lam: float = 1.0
    penalty_scale: float = 0.1
    seed: int = 0
    cc: CcSettings = field(default_factory=CcSettings)
    ac: AcSettings = field(default_factory=AcSettings)
    lower_bound: LowerBoundSettings = field(default_factory=LowerBoundSettings)


# JSON config keys are the settings' field names, except these.
_CONFIG_KEYS = {"lam": "lambda"}
_BLOCKS = {"cc": CcSettings, "ac": AcSettings, "lower_bound": LowerBoundSettings}
# The top-level JSON keys each experiment reads; any other key is an error.
_COMMON_KEYS = {"experiment", "trials", "seed", "delta", "lambda", "penalty_scale"}
_READS = {
    "cc": _COMMON_KEYS | {"n_grid", "n_test", "cc"},
    "ac": _COMMON_KEYS | {"n_grid", "n_test", "n_validation", "ac"},
    "lower_bound": _COMMON_KEYS | {"lower_bound"},
}


def _check_type(value, default, key: str):
    """Refuse a value of another JSON type than the field's default: integer
    fields take integers (not bools or floats), number fields finite numbers,
    and list fields non-empty lists of their default's entry type."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key} must be a non-empty list, got {value!r}")
        for entry in value:
            _check_type(entry, default[0], f"{key} entry")
        return
    if isinstance(default, int):
        kind, ok = "an integer", isinstance(value, numbers.Integral)
    elif isinstance(default, float):
        kind, ok = "a finite number", isinstance(value, numbers.Real) and math.isfinite(value)
    else:
        kind, ok = "a string", isinstance(value, str)
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{key} must be {kind}, got {value!r}")


def _take(raw: dict, cls, where: str) -> dict:
    """Keyword arguments for `cls` from a JSON block keyed by its field names."""
    allowed = {_CONFIG_KEYS.get(f.name, f.name): f for f in fields(cls)}
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, value in raw.items():
        default = allowed[key].default
        if default is not MISSING:
            _check_type(value, default, key if where == "config" else f"{where}.{key}")
        out[allowed[key].name] = tuple(value) if isinstance(value, list) else value
    return out


def parse_config(raw: dict) -> ExperimentConfig:
    """Strict JSON-document parsing: unknown keys, and keys the chosen
    experiment never reads, are errors, not warnings."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kwargs = _take(raw, ExperimentConfig, "config")
    if "experiment" not in kwargs:
        raise ConfigError("config must set 'experiment'")
    experiment = kwargs["experiment"]
    if not isinstance(experiment, str) or experiment not in _READS:
        raise ConfigError(f"experiment must be cc, ac, or lower_bound, got {experiment!r}")
    unread = set(raw) - _READS[experiment]
    if unread:
        raise ConfigError(f"the {experiment} experiment never reads key(s) {sorted(unread)}")
    for name, cls in _BLOCKS.items():
        if name in kwargs:
            if not isinstance(kwargs[name], dict):
                raise ConfigError(f"{name} must be a JSON object")
            kwargs[name] = cls(**_take(dict(kwargs[name]), cls, name))
    config = ExperimentConfig(**kwargs)
    _validate(config)
    return config


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _validate(c: ExperimentConfig):
    """Refuse a bad config; its delta, lambda, instance-size, dims and split
    rules are the library's own."""
    for name in ("trials", "n_test", "n_validation"):
        if getattr(c, name) < 1:
            raise ConfigError(f"{name} must be positive")
    if any(n < 1 for n in c.n_grid):
        raise ConfigError("n_grid entries must be positive")
    try:
        check_width_arguments(1, 1, c.lam, c.delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if c.penalty_scale <= 0:
        raise ConfigError("penalty_scale must be positive")
    if any(d < 1 for d in c.cc.hidden_dims):
        raise ConfigError("cc.hidden_dims must be positive")
    try:
        check_tabular_shape(c.cc.state_count, c.cc.action_count)
        check_behavior_actions(c.cc.action_count)
    except ValueError as exc:
        raise ConfigError(f"cc.{exc}") from exc
    s = c.ac
    try:
        check_gaussian_shape(s.ambient_dim, s.true_dim, s.action_count)
        check_behavior_actions(s.action_count)
        truncation_family(s.ambient_dim, s.dims)
    except ValueError as exc:
        raise ConfigError(f"ac.{exc}") from exc
    if any(v < 1 for v in c.lower_bound.n1) or c.lower_bound.n2 < 1:
        raise ConfigError("lower_bound sample counts must be positive")
    for algo in c.lower_bound.algorithms:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown lower_bound algorithm {algo!r}")
    # a repeated entry would write rows with the same key twice
    for key, values in (
        ("n_grid", c.n_grid),
        ("cc.hidden_dims", c.cc.hidden_dims),
        ("lower_bound.n1", c.lower_bound.n1),
        ("lower_bound.algorithms", c.lower_bound.algorithms),
    ):
        if len(set(values)) != len(values):
            raise ConfigError(f"{key} has duplicate entries")
    # hold-out must leave rows on both sides of its split at every sample size,
    # and draws the split from numpy's hypergeometric, which takes fewer than
    # MAX_HOLDOUT_ROWS rows
    total, splits = "", []
    if c.experiment == "ac":
        total, splits = "n", [(n, c.ac.holdout_split) for n in c.n_grid]
    elif c.experiment == "lower_bound" and "holdout" in c.lower_bound.algorithms:
        total = "n1 + n2"
        splits = [(n1 + c.lower_bound.n2, HOLDOUT_SPLIT) for n1 in c.lower_bound.n1]
    if splits and max(n for n, _ in splits) >= MAX_HOLDOUT_ROWS:
        raise ConfigError(
            f"hold-out draws its split of the {c.experiment} rows from numpy's hypergeometric, "
            f"which needs {total} < {MAX_HOLDOUT_ROWS}"
        )
    for n, split in splits:
        try:
            holdout_split_sizes(n, split)
        except ValueError as exc:
            raise ConfigError(f"hold-out at n = {n}, split {split}: {exc}") from exc


@dataclass(frozen=True)
class ResultRow:
    n: int
    method: str
    trial: int
    regret: float


@dataclass(frozen=True)
class _Trial:
    """What a trial's n-cells share: everything whose seed does not depend on
    n.  The test states, and for ac the validation states, are drawn from
    their seeds by the runner, one chunk at a time (`env.state_chunks`), so
    no (m, |A|, D) state tensor outlives its chunk: two whole batches cost
    16 KB per state at |A| = 10, D = 100."""

    instance: BanditInstance
    classes: list[ModelClass]
    mu: BehaviorPolicy
    test_seed: int
    validation_seed: int | None = None


@dataclass
class _Cell:
    """One n-cell of a trial once its data are drawn and fit: the policy of
    each method the cell writes a row for, and the selection reports.  An ac
    cell also keeps its family's fits, whose SLOPE policy the runner adds
    once it has the validation states."""

    n: int
    policies: dict[str, Policy]
    reports: dict[str, SelectionReport]
    fits: list[RidgeFit] | None = None


def _cc_trial(config: ExperimentConfig, trial: int) -> _Trial:
    s = config.cc
    seed = config.seed
    instance = make_tabular_instance(
        s.state_count, s.action_count, derive_seed(seed, "cc-instance", trial)
    )
    return _Trial(
        instance,
        realizable_family(instance, s.hidden_dims, derive_seed(seed, "cc-family", trial)),
        dirichlet_behavior(s.action_count, derive_seed(seed, "cc-behavior", trial)),
        derive_seed(seed, "cc-test", trial),
    )


def _cc_fit(config: ExperimentConfig, ctx: _Trial, n: int, trial: int) -> _Cell:
    seed = derive_seed(config.seed, f"cc-data-{n}", trial)
    dataset = sample_dataset(ctx.instance, ctx.mu, n, seed)
    policies, fits = {}, []
    for d_hid, mc in zip(config.cc.hidden_dims, ctx.classes):
        policy = fit_pessimistic(dataset, mc, config.lam, config.delta, config.penalty_scale)
        policies[f"class_{d_hid}"] = policy
        fits.append(policy.fits[0])
    policies["cc"], report = complexity_coverage_policy(
        fits, ctx.classes, config.delta, config.penalty_scale
    )
    return _Cell(n, policies, {"cc": report})


def _ac_trial(config: ExperimentConfig, trial: int) -> _Trial:
    s = config.ac
    seed = config.seed
    instance = make_gaussian_instance(
        s.ambient_dim, s.true_dim, s.action_count, derive_seed(seed, "ac-instance", trial)
    )
    return _Trial(
        instance,
        truncation_family(s.ambient_dim, s.dims),
        dirichlet_behavior(s.action_count, derive_seed(seed, "ac-behavior", trial)),
        derive_seed(seed, "ac-test", trial),
        derive_seed(seed, "ac-validation", trial),
    )


def _ac_fit(config: ExperimentConfig, ctx: _Trial, n: int, trial: int) -> _Cell:
    s = config.ac
    classes = ctx.classes
    n_in, _ = holdout_split_sizes(n, s.holdout_split)
    features, fit_on, score_on = sample_split_cells(
        ctx.instance, ctx.mu, n, n_in, derive_seed(config.seed, f"ac-data-{n}", trial)
    )
    # the widest class's design over both sides' cells, read by the greedy
    # fits (all n rows: both sides' counts) and by hold-out; the family is fit
    # once and each class is its leading block
    design = design_matrix(classes[-1], features)
    family = ridge_fit(design, fit_on.means, config.lam, counts=fit_on.counts + score_on.counts)
    fits = [family.leading(mc.dim) for mc in classes]
    policies = {f"class_{mc.dim}": GreedyPolicy(fit, mc) for mc, fit in zip(classes, fits)}
    policies["holdout"], report = holdout_select(design, fit_on, score_on, classes, config.lam)
    report.audit["split_fraction"] = s.holdout_split  # the draw, not holdout_select, reads it
    return _Cell(n, policies, {"holdout": report}, fits)


def _over_chunks(fn, cells: list[_Cell], chunks) -> list[list]:
    """fn(cell, chunk) for every cell and state chunk, one list per cell in
    chunk order.  Each chunk is dropped before the next is drawn, so one
    chunk is held at a time."""
    parts = [[] for _ in cells]
    for chunk in chunks:
        for part, cell in zip(parts, cells):
            part.append(fn(cell, chunk))
        del chunk  # not held while the next chunk is drawn
    return parts


def _select_slope(config: ExperimentConfig, ctx: _Trial, cells: list[_Cell]):
    """Add SLOPE's policy and report to each cell.  Each chunk of validation
    states is drawn once and given to every cell, which keeps its per-state
    terms (`slope_terms`); SLOPE then reads each cell's terms over all the
    states, in one array each, as it would read the whole batch's."""
    chunks = state_chunks(ctx.instance, config.n_validation, ctx.validation_seed)
    parts = _over_chunks(lambda cell, chunk: slope_terms(cell.fits, ctx.classes, chunk),
                         cells, chunks)
    for cell, part in zip(cells, parts):
        terms = SlopeTerms.concatenate(part)
        part.clear()
        cell.policies["slope"], cell.reports["slope"] = slope_policy_select(
            cell.fits, ctx.classes, terms, config.delta, config.penalty_scale
        )


def _score(config: ExperimentConfig, ctx: _Trial, cells: list[_Cell], trial: int):
    """Each cell's rows: every policy's regret over the test states, drawn
    chunk by chunk.  Each chunk's true-mean table and every policy's actions
    on it are kept, and each regret reads them over all the states, in one
    array each, as it would read the whole batch's."""
    means = []

    def chunks():
        for chunk in state_chunks(ctx.instance, config.n_test, ctx.test_seed):
            means.append(ctx.instance.mean_rewards(chunk))
            yield chunk
            del chunk  # not held while the next chunk is drawn

    def take(cell, chunk):
        return [policy.actions(chunk) for policy in cell.policies.values()]

    taken = _over_chunks(take, cells, chunks())
    means = np.concatenate(means)
    return [
        ResultRow(cell.n, method, trial, regret_estimate(means, np.concatenate(actions)))
        for cell, cell_taken in zip(cells, taken)
        for method, actions in zip(cell.policies, zip(*cell_taken))
    ]


# The (get, set) thread-count symbols an OpenBLAS build may export.  numpy's
# wheels bundle the scipy-openblas build, whose symbols carry that prefix.
_OPENBLAS_SYMBOLS = [
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("openblas_", "scipy_openblas_")
    for suffix in ("", "64_")
]


def _openblas_controls() -> list:
    """The (get, set) thread-count functions of every OpenBLAS loaded in this
    process, found through /proc/self/maps.  Empty where there is no /proc or
    the loaded BLAS is not OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted(
        {
            line.split(maxsplit=5)[-1]
            for line in maps.splitlines()
            if "openblas" in line and ".so" in line
        }
    )
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return controls


class _OneBlasThread:
    """Holds every loaded OpenBLAS at one thread while any study of this
    process runs, and restores the previous counts when the last one ends."""

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._users == 0:
                self._saved = [(set_, get()) for get, set_ in _openblas_controls()]
                for set_, _ in self._saved:
                    set_(1)
            self._users += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._users -= 1
            if self._users == 0:
                for set_, count in self._saved:
                    set_(count)
                self._saved = []


_ONE_BLAS_THREAD = _OneBlasThread()


def _run_cells(build_trial, fit_cell, config: ExperimentConfig, audit: bool):
    """Build each trial's context, fit its n-cells, select SLOPE (ac) and
    score every policy on state chunks given to all the cells, all on the
    calling thread.  BLAS runs single-threaded meanwhile: at d <= 100
    OpenBLAS's own threads cost more than they give.  Every seed is derived
    from (seed, purpose, trial), and rows and reports are sorted afterwards,
    so the output does not depend on the order the cells run in."""
    rows, reports = [], []
    with _ONE_BLAS_THREAD:
        for t in range(config.trials):
            ctx = build_trial(config, t)
            cells = [fit_cell(config, ctx, n, t) for n in config.n_grid]
            if ctx.validation_seed is not None:
                _select_slope(config, ctx, cells)
            rows.extend(_score(config, ctx, cells, t))
            if audit:
                reports.extend(
                    {"n": cell.n, "trial": t, "method": method,
                     "report": json.loads(report.to_json())}
                    for cell in cells
                    for method, report in cell.reports.items()
                )
    rows.sort(key=lambda r: (r.n, r.method, r.trial))
    reports.sort(key=lambda r: (r["n"], r["method"], r["trial"]))
    return rows, reports


# Every study runs its cells on the calling thread.  The runners still take a
# `threads` keyword, which they ignore, because perfbench/run.py passes
# `threads=1` to each of them.
def run_cc(config: ExperimentConfig, threads: int = 1, audit: bool = False):
    return _run_cells(_cc_trial, _cc_fit, config, audit)


def run_ac(config: ExperimentConfig, threads: int = 1, audit: bool = False):
    return _run_cells(_ac_trial, _ac_fit, config, audit)


def run_lower_bound(config: ExperimentConfig, threads: int = 1, audit: bool = False):
    """The ratio study's (algorithm, n1) cells, one after another."""
    s = config.lower_bound
    with _ONE_BLAS_THREAD:
        results = [
            ratio_experiment(
                algo,
                int(n1),
                int(s.n2),
                config.trials,
                derive_seed(config.seed, f"lb-{algo}-{n1}"),
                delta=config.delta,
                lam=config.lam,
                penalty_scale=config.penalty_scale,
            )
            for algo in s.algorithms
            for n1 in s.n1
        ]
    results.sort(key=lambda r: (r.algorithm, r.n1, r.n2))
    return results, []


def results_to_csv(rows: list[ResultRow]) -> str:
    return csv_text(
        ["n", "method", "trial", "regret"], [(r.n, r.method, r.trial, r.regret) for r in rows]
    )


def aggregate_rows(rows: list[ResultRow]) -> list[tuple]:
    """Per-(n, method) mean regret and standard error of the mean."""
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r.n, r.method), []).append(r.regret)
    out = []
    for (n, method), vals in sorted(groups.items()):
        arr = np.asarray(vals)
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        out.append((n, method, float(arr.mean()), se))
    return out


AGGREGATE_HEADER = ["n", "method", "mean_regret", "stderr"]


def aggregate_to_csv(rows: list[ResultRow]) -> str:
    return csv_text(AGGREGATE_HEADER, aggregate_rows(rows))


def lower_bound_aggregate_to_csv(results: list[RatioResult]) -> str:
    """Lower-bound runs reuse the aggregate schema with n = n1 and the
    max-over-instances mean regret; the full detail lives in results.csv."""
    entries = sorted(results, key=lambda r: (r.n1, r.algorithm))
    return csv_text(
        AGGREGATE_HEADER, [(r.n1, r.algorithm, r.max_mean_regret, r.max_se) for r in entries]
    )
