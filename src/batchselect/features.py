"""Linear model classes: feature maps, nested families, and nestedness checks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import BanditInstance, StateBatch, _checked_state_indices, rng_stream

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
        return m.table, _checked_state_indices(states.indices, m.table.shape[0])
    if states.features is None:
        raise RepresentationMismatchError("truncation map needs feature states")
    return _prefix(model_class, states.features), slice(None)


def features_all_actions(model_class: ModelClass, states: StateBatch) -> np.ndarray:
    """phi_k for every (state, action) pair in the batch, shape (m, |A|, d_k)."""
    source, rows = feature_source(model_class, states)
    return source[rows]


def design_matrix(model_class: ModelClass, logged) -> np.ndarray:
    """Feature rows phi_k of logged rows or cells, shape (n, d_k).

    `logged` is an (n, D) array of feature rows at the ambient dimension D,
    such as the cell rows `env.sample_split_cells` draws; the design is the
    view of its first d_k columns, so every class of a nested family shares
    its memory.  A tabular class has no row design: it fits from a tabular
    dataset's per-cell statistics (`env.sample_dataset`), in
    `learner.fit_pessimistic`.
    """
    if not isinstance(model_class.map, TruncationMap):
        raise RepresentationMismatchError(
            "tabular map needs tabular states: it fits from a tabular dataset's cells"
        )
    if isinstance(logged, StateBatch) or np.ndim(logged) != 2:
        raise RepresentationMismatchError(
            "truncation map reads its design from logged rows, an (n, D) array"
        )
    return _prefix(model_class, np.asarray(logged, dtype=float))


def realizable_family(
    instance: BanditInstance, hidden_dims, rng_seed: int
) -> list[ModelClass]:
    """Random realizable feature maps for a tabular instance, one class per
    hidden dimension, each at its own dimension d_hid.

    Class j's |X| x |A| x d_hid table draws d_hid - 1 random columns over the
    (x, a) grid from `rng_stream(rng_seed, "realizable-family", j)` and solves
    the last so the all-ones combination equals the flattened mean-reward
    table.  Realizability is verified by a least-squares fit at construction.
    """
    if not instance.is_tabular:
        raise ValueError("realizable families require a tabular instance")
    means = instance.model.means
    n_states, n_actions = means.shape
    flat = means.reshape(-1)
    classes = []
    for j, d_hid in enumerate(hidden_dims):
        if d_hid < 1:
            raise ValueError("hidden dimensions must be positive")
        rng = rng_stream(rng_seed, "realizable-family", j)
        hidden = rng.standard_normal((flat.size, d_hid))
        hidden[:, d_hid - 1] = flat - hidden[:, : d_hid - 1].sum(axis=1)
        theta, _, _, _ = np.linalg.lstsq(hidden, flat, rcond=None)
        residual = np.linalg.norm(hidden @ theta - flat)
        if residual > REALIZABILITY_TOL:
            raise ConstructionError(
                f"hidden dim {d_hid}: realizability residual {residual:.3e}"
            )
        classes.append(ModelClass(d_hid, TabularMap(hidden.reshape(n_states, n_actions, d_hid))))
    return classes


def truncation_family(ambient_dim: int, dims) -> list[ModelClass]:
    """Nested family of prefix-truncation maps."""
    dims = list(dims)
    if not dims:
        raise ValueError("need at least one dim")
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
