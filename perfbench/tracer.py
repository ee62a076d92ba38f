"""In-process span tracer for the benchmark's per-layer breakdown.

The benchmark wraps the public functions of each batchselect layer with span
recorders; the program itself is not changed.  A span records its name,
start, end, parent and whether it raised.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the part of it that its
child spans cover.

Waste counters (distinct inputs per call) and computed flop counts are taken
at the same boundaries.  Hashing inputs for the waste counters runs with the
tracer's clock paused, so that bookkeeping is charged to no span.

The tracer keeps a single call stack, so it traces single-threaded runs only;
the traced run uses threads=1.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    error: bool = False


class Tracer:
    """Span recorder with a pausable clock and per-function counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._paused = 0.0
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.keys: dict[str, list] = {}
        self.flops: dict[str, int] = {}

    def now(self) -> float:
        return self._clock() - self._paused

    @contextmanager
    def paused(self):
        t0 = self._clock()
        try:
            yield
        finally:
            self._paused += self._clock() - t0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, self.now(), float("nan"), parent)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException:
            rec.error = True
            raise
        finally:
            rec.end = self.now()
            self._stack.pop()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the time its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    return [
        (s.end - s.start)
        - _covered([(spans[c].start, spans[c].end) for c in children[i]], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, errors, self and inclusive seconds, plus the traced total."""
    stats: dict[str, dict] = {}
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        st = stats.setdefault(s.name, {"calls": 0, "errors": 0, "self_s": 0.0, "incl_s": 0.0})
        st["calls"] += 1
        st["errors"] += int(s.error)
        st["self_s"] += self_s
        st["incl_s"] += s.end - s.start
    total = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    return {"functions": stats, "total_s": total}


def unique_fraction(tracer: Tracer, name: str) -> float:
    """Distinct inputs over calls; 0 when the function was not called."""
    keys = tracer.keys.get(name, [])
    return len(set(keys)) / len(keys) if keys else 0.0


# --- what is wrapped -------------------------------------------------------


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _ridge_key(a):
    return (_digest(np.asarray(a["features"], dtype=float), np.asarray(a["rewards"], dtype=float)),
            float(a["lam"]))


def _seed_key(*names):
    def key(a):
        return tuple(tuple(v) if isinstance(v, (list, tuple)) else v for v in (a[n] for n in names))

    return key


# Computed (model) flop counts, not measured ones: Gram n*d^2 plus d^3 for
# the eigen-decomposition and Cholesky factor; a Mahalanobis norm costs d^2
# per row; a Gaussian state draw costs d^2 per (state, action).
def _ridge_flops(a):
    n, d = np.shape(a["features"])
    return n * d * d + d**3


def _inv_quad_flops(a):
    m, d = np.shape(a["rows"])
    return m * d * d


def _state_batch_flops(a):
    model = a["self"].model
    if not hasattr(model, "chol_factors"):
        return 0  # tabular states are index draws
    n_act, d, _ = model.chol_factors.shape
    return int(a["count"]) * n_act * d * d


# (layer, attribute, waste key, flops).  A layer is a batchselect module;
# "Class.method" patches the class.
TARGETS = [
    ("linalg", "ridge_fit", _ridge_key, _ridge_flops),
    ("linalg", "inv_quad_norms", None, _inv_quad_flops),
    ("linalg", "CovarianceMatrix.__init__", None, None),
    ("env", "make_tabular_instance", _seed_key("state_count", "action_count", "rng_seed"), None),
    ("env", "make_gaussian_instance",
     _seed_key("ambient_dim", "true_dim", "action_count", "rng_seed"), None),
    ("env", "dirichlet_behavior", None, None),
    ("env", "sample_states", _seed_key("count", "rng_seed"), None),
    ("env", "sample_dataset", None, None),
    ("env", "BanditInstance.sample_state_batch", None, _state_batch_flops),
    ("features", "realizable_family", _seed_key("hidden_dims", "rng_seed"), None),
    ("features", "design_matrix", None, None),
    ("features", "features_all_actions", None, None),
    ("features", "check_nested", None, None),
    ("learner", "fit_pessimistic", None, None),
    ("learner", "pessimistic_values", None, None),
    ("selection", "complexity_coverage_policy", None, None),
    ("selection", "slope_policy_select", None, None),
    ("selection", "holdout_select", None, None),
    ("diagnostics", "regret_estimate", None, None),
    ("hard_instance", "build_hard_pair", None, None),
    ("hard_instance", "ratio_experiment", None, None),
    ("experiments", "parse_config", None, None),
    ("experiments", "run_cc", None, None),
    ("experiments", "run_ac", None, None),
    ("experiments", "run_lower_bound", None, None),
]

LAYERS = list(dict.fromkeys(layer for layer, *_ in TARGETS))


def span_name(layer: str, attr: str) -> str:
    """`layer.fn`; a wrapped method is named after its method, a constructor after its class."""
    cls, _, meth = attr.rpartition(".")
    return f"{layer}.{cls if meth == '__init__' else meth}"


SPAN_NAMES = [span_name(layer, attr) for layer, attr, _, _ in TARGETS]


def package_modules() -> list:
    """batchselect and every submodule, imported."""
    pkg = importlib.import_module("batchselect")
    return [pkg] + [
        importlib.import_module(f"batchselect.{m.name}") for m in pkgutil.iter_modules(pkg.__path__)
    ]


def _wrap(tracer: Tracer, name: str, fn, key, flops):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if key is not None or flops is not None:
            with tracer.paused():
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if key is not None:
                    tracer.keys.setdefault(name, []).append(key(a))
                if flops is not None:
                    tracer.flops[name] = tracer.flops.get(name, 0) + flops(a)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def aliases(fn, modules) -> list[tuple]:
    """Every (module, name) and (module-level dict, key) that holds `fn`."""
    found = []
    for mod in modules:
        for attr, value in vars(mod).items():
            if value is fn:
                found.append((mod, attr))
            elif isinstance(value, dict):
                found.extend((value, k) for k, v in value.items() if v is fn)
    return found


def _set(holder, name, value):
    if isinstance(holder, dict):
        holder[name] = value
    else:
        setattr(holder, name, value)


@contextmanager
def patched(tracer: Tracer):
    """Wrap every target at every module-level alias; methods on their class."""
    modules = package_modules()
    undo = []
    try:
        for layer, attr, key, flops in TARGETS:
            name = span_name(layer, attr)
            owner = importlib.import_module(f"batchselect.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, _wrap(tracer, name, orig, key, flops))
                continue
            orig = getattr(owner, attr)
            wrapped = _wrap(tracer, name, orig, key, flops)
            for holder, alias in aliases(orig, modules):
                undo.append((holder, alias, orig))
                _set(holder, alias, wrapped)
        yield
    finally:
        for holder, alias, orig in reversed(undo):
            _set(holder, alias, orig)
