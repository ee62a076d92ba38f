"""Configuration-driven experiment harness: the two regret studies and the
lower-bound ratio study, with deterministic seeded trials and CSV output."""
from __future__ import annotations

import ctypes
import functools
import json
import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .env import (
    BanditInstance,
    BehaviorPolicy,
    StateBatch,
    derive_seed,
    dirichlet_behavior,
    make_gaussian_instance,
    make_tabular_instance,
    sample_dataset,
    sample_states,
)
from .features import ModelClass, design_matrix, realizable_family, truncation_family
from .hard_instance import (
    ALGORITHMS,
    HOLDOUT_SPLIT,
    MAX_HOLDOUT_ROWS,
    RatioResult,
    csv_text,
    ratio_experiment,
)
from .learner import (
    MAX_DELTA,
    GreedyPolicy,
    OptimalPolicy,
    PessimisticPolicy,
    fit_pessimistic,
)
from .linalg import ridge_fit
from .selection import (
    complexity_coverage_policy,
    holdout_select,
    holdout_split_sizes,
    row_split,
    slope_policy_select,
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
    """Strict JSON-document parsing: unknown keys are errors, not warnings."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kwargs = _take(raw, ExperimentConfig, "config")
    if "experiment" not in kwargs:
        raise ConfigError("config must set 'experiment'")
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
    if c.experiment not in ("cc", "ac", "lower_bound"):
        raise ConfigError(f"experiment must be cc, ac, or lower_bound, got {c.experiment!r}")
    for name in ("trials", "n_test", "n_validation"):
        if getattr(c, name) < 1:
            raise ConfigError(f"{name} must be positive")
    if any(n < 1 for n in c.n_grid) or not c.n_grid:
        raise ConfigError("n_grid entries must be positive")
    if not (0 < c.delta <= MAX_DELTA + 1e-15):
        raise ConfigError("delta must lie in (0, 1/e]")
    if c.lam < 0:
        raise ConfigError("lambda must be nonnegative")
    if c.penalty_scale <= 0:
        raise ConfigError("penalty_scale must be positive")
    if c.cc.state_count < 1 or c.cc.action_count < 2:
        raise ConfigError("cc needs state_count >= 1 and action_count >= 2")
    if any(d < 1 for d in c.cc.hidden_dims) or not c.cc.hidden_dims:
        raise ConfigError("cc.hidden_dims must be positive")
    if not (1 <= c.ac.true_dim <= c.ac.ambient_dim):
        raise ConfigError("ac needs 1 <= true_dim <= ambient_dim")
    if c.ac.action_count < 2:
        raise ConfigError("ac.action_count must be >= 2")
    if not (0 < c.ac.holdout_split < 1):
        raise ConfigError("ac.holdout_split must lie in (0, 1)")
    if any(b <= a for a, b in zip(c.ac.dims, c.ac.dims[1:])) or not c.ac.dims:
        raise ConfigError("ac.dims must be strictly ascending")
    if c.ac.dims[-1] > c.ac.ambient_dim:
        raise ConfigError("ac.dims may not exceed ambient_dim")
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
    # hold-out must leave rows on both sides of its split at every sample size
    splits = []
    if c.experiment == "ac":
        splits = [(n, c.ac.holdout_split) for n in c.n_grid]
    elif c.experiment == "lower_bound" and "holdout" in c.lower_bound.algorithms:
        splits = [(n1 + c.lower_bound.n2, HOLDOUT_SPLIT) for n1 in c.lower_bound.n1]
        if max(n for n, _ in splits) >= MAX_HOLDOUT_ROWS:
            raise ConfigError(
                f"hold-out draws its split of the lower_bound rows from numpy's hypergeometric, "
                f"which needs n1 + n2 < {MAX_HOLDOUT_ROWS}"
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
    """What a trial's n-cells share: everything whose seed does not depend on n."""

    instance: BanditInstance
    classes: list[ModelClass]
    mu: BehaviorPolicy
    test_states: StateBatch
    validation: StateBatch | None = None


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
        sample_states(instance, config.n_test, derive_seed(seed, "cc-test", trial)),
    )


def _cc_cell(config: ExperimentConfig, ctx: _Trial, n: int, trial: int, audit: bool):
    instance, classes, test_states = ctx.instance, ctx.classes, ctx.test_states
    dataset = sample_dataset(instance, ctx.mu, n, derive_seed(config.seed, f"cc-data-{n}", trial))
    optimal = OptimalPolicy(instance)

    rows, reports = [], []
    fits = []
    for d_hid, mc in zip(config.cc.hidden_dims, classes):
        learner = fit_pessimistic(dataset, mc, config.lam, config.delta, config.penalty_scale)
        regret = regret_estimate(instance, optimal, PessimisticPolicy(learner, mc), test_states)
        rows.append(ResultRow(n, f"class_{d_hid}", trial, regret))
        fits.append(learner.fit)
    policy, report = complexity_coverage_policy(fits, classes, config.delta, config.penalty_scale)
    rows.append(ResultRow(n, "cc", trial, regret_estimate(instance, optimal, policy, test_states)))
    if audit:
        reports.append({"n": n, "trial": trial, "method": "cc", "report": json.loads(report.to_json())})
    return rows, reports


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
        sample_states(instance, config.n_test, derive_seed(seed, "ac-test", trial)),
        sample_states(instance, config.n_validation, derive_seed(seed, "ac-validation", trial)),
    )


def _ac_cell(config: ExperimentConfig, ctx: _Trial, n: int, trial: int, audit: bool):
    s = config.ac
    seed = config.seed
    instance, classes, test_states = ctx.instance, ctx.classes, ctx.test_states
    dataset = sample_dataset(instance, ctx.mu, n, derive_seed(seed, f"ac-data-{n}", trial))
    optimal = OptimalPolicy(instance)

    rows, reports = [], []
    # each class's design, a view of the logged rows read by its greedy fit and by hold-out
    designs = [design_matrix(mc, dataset.logged, dataset.actions) for mc in classes]
    fits = []
    for mc, phi in zip(classes, designs):
        fit = ridge_fit(phi, dataset.rewards, config.lam)
        fits.append((fit, mc))
        regret = regret_estimate(instance, optimal, GreedyPolicy(fit, mc), test_states)
        rows.append(ResultRow(n, f"class_{mc.dim}", trial, regret))
    slope_policy, slope_report = slope_policy_select(
        fits, ctx.validation, config.delta, config.penalty_scale
    )
    rows.append(
        ResultRow(n, "slope", trial, regret_estimate(instance, optimal, slope_policy, test_states))
    )
    fit_on, score_on = row_split(
        dataset.rewards, s.holdout_split, derive_seed(seed, f"ac-holdout-{n}", trial)
    )
    ho_policy, ho_report = holdout_select(designs, fit_on, score_on, classes, config.lam)
    ho_report.audit["split_fraction"] = s.holdout_split  # row_split, not holdout_select, reads it
    rows.append(
        ResultRow(n, "holdout", trial, regret_estimate(instance, optimal, ho_policy, test_states))
    )
    if audit:
        for method, report in (("slope", slope_report), ("holdout", ho_report)):
            reports.append(
                {"n": n, "trial": trial, "method": method, "report": json.loads(report.to_json())}
            )
    return rows, reports


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


@contextmanager
def _mapper(threads: int):
    """An ordered `map`, through a thread pool when threads > 1.

    BLAS runs single-threaded meanwhile, so `threads` is the run's only
    parallelism: at d <= 200 OpenBLAS's own threads cost more than they give,
    and under a pool they oversubscribe the cores.  The output bytes do not
    depend on the BLAS thread count."""
    with _ONE_BLAS_THREAD:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                yield pool.map
        else:
            yield map


def _run_cells(build_trial, cell_fn, config: ExperimentConfig, threads: int, audit: bool):
    """Build each trial's context once, then run its n-cells, largest n first
    so that a pool's threads finish together, through a thread pool when
    threads > 1.  Every seed is derived from (seed, purpose, trial), and rows
    and reports are sorted afterwards, so the output does not depend on the
    schedule."""
    outputs = []
    n_order = sorted(config.n_grid, reverse=True)
    with _mapper(threads) as mapper:
        for t in range(config.trials):
            cell = functools.partial(cell_fn, config, build_trial(config, t), trial=t, audit=audit)
            outputs.extend(mapper(cell, n_order))
    rows = [row for out, _ in outputs for row in out]
    reports = [rep for _, out in outputs for rep in out]
    rows.sort(key=lambda r: (r.n, r.method, r.trial))
    reports.sort(key=lambda r: (r["n"], r["method"], r["trial"]))
    return rows, reports


def run_cc(config: ExperimentConfig, threads: int = 1, audit: bool = False):
    return _run_cells(_cc_trial, _cc_cell, config, threads, audit)


def run_ac(config: ExperimentConfig, threads: int = 1, audit: bool = False):
    return _run_cells(_ac_trial, _ac_cell, config, threads, audit)


def run_lower_bound(config: ExperimentConfig, threads: int = 1, audit: bool = False):
    """The ratio study's (algorithm, n1) cells, run one after another whatever
    `threads` is: a cell's trials are short stretches of Python that hold the
    interpreter lock, so a thread pool only adds contention."""
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
