"""Linear model classes: feature maps, nested families, and nestedness checks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import BanditInstance, StateBatch, rng_stream

REALIZABILITY_TOL = 1e-8


class RepresentationMismatchError(TypeError):
    """A feature map was given an incompatible state representation."""


class ConstructionError(RuntimeError):
    """A randomly constructed family failed its realizability check."""


@dataclass(frozen=True)
class TabularMap:
    """Explicit table of feature vectors, shape (|X|, |A|, d)."""

    table: np.ndarray


@dataclass(frozen=True)
class TruncationMap:
    """Keep the first `dim` coordinates of ambient per-action feature vectors."""

    ambient_dim: int


@dataclass(frozen=True)
class ModelClass:
    dim: int
    map: object  # TabularMap or TruncationMap

    def __post_init__(self):
        m = self.map
        if isinstance(m, TabularMap) and self.dim != m.table.shape[-1]:
            raise ValueError(
                f"tabular class of dim {self.dim} given a {m.table.shape[-1]}-wide table"
            )
        if isinstance(m, TruncationMap) and not 1 <= self.dim <= m.ambient_dim:
            raise ValueError(
                f"truncation class needs 1 <= dim <= ambient_dim {m.ambient_dim}, got {self.dim}"
            )


def _prefix(model_class: ModelClass, features: np.ndarray) -> np.ndarray:
    """The first d_k coordinates of ambient feature vectors (last axis), as a view."""
    width = features.shape[-1]
    if width != model_class.map.ambient_dim:
        raise RepresentationMismatchError(
            f"truncation map over {model_class.map.ambient_dim} ambient coordinates given "
            f"{width}-wide features"
        )
    return features[..., : model_class.dim]


def feature_source(model_class: ModelClass, states: StateBatch):
    """The (rows, |A|, d_k) array a batch reads its features from, and each
    state's row in it.

    A tabular map reads its |X| x |A| x d_k table; the rows are the batch's
    state indices, range-checked against |X|.  A truncation map reads the
    first d_k coordinates of the batch's own per-action features, as a view;
    the rows are the identity selector `slice(None)`.  So
    `source[rows]` is phi_k for every (state, action) pair of the batch, and
    any row-wise function of the features, computed on `source` and then
    indexed by `rows`, equals the same function computed on that stack:
    indexing only copies values, so the gather is exact.
    """
    m = model_class.map
    if isinstance(m, TabularMap):
        if states.indices is None:
            raise RepresentationMismatchError("tabular map needs tabular states")
        idx = states.indices
        if idx.size and idx.max() >= m.table.shape[0]:
            raise ValueError(f"state index out of range for a table of {m.table.shape[0]} states")
        return m.table, idx
    if states.features is None:
        raise RepresentationMismatchError("truncation map needs feature states")
    return _prefix(model_class, states.features), slice(None)


def features_all_actions(model_class: ModelClass, states: StateBatch) -> np.ndarray:
    """phi_k for every (state, action) pair in the batch, shape (m, |A|, d_k)."""
    source, rows = feature_source(model_class, states)
    return source[rows]


def design_matrix(model_class: ModelClass, states, actions: np.ndarray) -> np.ndarray:
    """Feature rows phi_k(x_i, a_i), shape (n, d_k).

    A tabular map reads `states` as a StateBatch of state indices and gathers
    each (state, action) row from its table.  A truncation map reads `states`
    as logged rows, an (n, D) array whose row i is phi(x_i, a_i) at the
    ambient dimension D (a feature dataset's `logged`), and returns the view
    of their first d_k columns, so every class of a nested family shares the
    dataset's memory; it reads `actions` only to check their count.
    """
    actions = np.asarray(actions, dtype=int)
    if actions.shape != (len(states),):
        raise ValueError("design_matrix needs one action per state")
    if isinstance(model_class.map, TruncationMap):
        if isinstance(states, StateBatch) or np.ndim(states) != 2:
            raise RepresentationMismatchError(
                "truncation map reads its design from logged rows, an (n, D) array"
            )
        return _prefix(model_class, np.asarray(states, dtype=float))
    if not isinstance(states, StateBatch):
        raise RepresentationMismatchError("tabular map needs tabular states")
    table, rows = feature_source(model_class, states)
    n_act = table.shape[1]
    if actions.size and (actions.min() < 0 or actions.max() >= n_act):
        raise ValueError(f"action out of range for {n_act} actions")
    # one gather from the flattened (|X| * |A|, d_k) table copies the same
    # rows as table[rows, actions], faster than two-index fancy indexing
    return np.take(table.reshape(-1, model_class.dim), rows * n_act + actions, axis=0)


def realizable_family(
    instance: BanditInstance, hidden_dims, rng_seed: int
) -> list[ModelClass]:
    """Random realizable feature maps for a tabular instance.

    For each hidden dimension, d_hid - 1 random vectors over the (x, a) grid
    are drawn and the last is solved so the all-ones combination equals the
    flattened mean-reward table; the hidden map is then lifted to ambient
    dimension |X||A| by a random Gaussian matrix.  Realizability is verified
    by a least-squares fit at construction.
    """
    if not instance.is_tabular:
        raise ValueError("realizable families require a tabular instance")
    means = instance.model.means
    n_states, n_actions = means.shape
    flat = means.reshape(-1)
    ambient = n_states * n_actions
    classes = []
    for j, d_hid in enumerate(hidden_dims):
        if d_hid < 1:
            raise ValueError("hidden dimensions must be positive")
        rng = rng_stream(rng_seed, "realizable-family", j)
        hidden = rng.standard_normal((ambient, d_hid))
        hidden[:, d_hid - 1] = flat - hidden[:, : d_hid - 1].sum(axis=1)
        lift = rng.standard_normal((ambient, d_hid))
        table = (hidden @ lift.T).reshape(n_states, n_actions, ambient)
        theta, _, _, _ = np.linalg.lstsq(table.reshape(ambient, ambient), flat, rcond=None)
        residual = np.linalg.norm(table.reshape(ambient, ambient) @ theta - flat)
        if residual > REALIZABILITY_TOL:
            raise ConstructionError(
                f"hidden dim {d_hid}: realizability residual {residual:.3e}"
            )
        classes.append(ModelClass(ambient, TabularMap(table)))
    return classes


def truncation_family(ambient_dim: int, dims) -> list[ModelClass]:
    """Nested family of prefix-truncation maps."""
    dims = list(dims)
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly ascending")
    if dims[-1] > ambient_dim:
        raise ValueError("dims may not exceed the ambient dimension")
    return [ModelClass(d, TruncationMap(ambient_dim)) for d in dims]


def check_nested(classes) -> bool:
    """True iff each phi_{k+1} extends phi_k coordinate-wise.

    Tabular maps are compared over all (state, action) pairs.  Truncation
    maps are nested by construction when they share an ambient dimension.
    """
    if len(classes) < 1:
        raise ValueError("need at least one class")
    for small, large in zip(classes, classes[1:]):
        if small.dim > large.dim:
            return False
        sm, lm = small.map, large.map
        if isinstance(sm, TabularMap) and isinstance(lm, TabularMap):
            if not np.array_equal(sm.table, lm.table[:, :, : small.dim]):
                return False
        elif isinstance(sm, TruncationMap) and isinstance(lm, TruncationMap):
            if sm.ambient_dim != lm.ambient_dim:
                return False
        else:
            return False
    return True
