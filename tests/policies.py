"""Test-only policies."""
import numpy as np

from batchselect.env import BanditInstance, StateBatch
from batchselect.learner import Policy


class FixedPolicy(Policy):
    """Constant action, or a per-state action table for tabular instances."""

    def __init__(self, action: int | None = None, table: np.ndarray | None = None):
        if (action is None) == (table is None):
            raise ValueError("give exactly one of action/table")
        self.fixed = action
        self.table = None if table is None else np.asarray(table, dtype=int)

    def actions(self, states: StateBatch) -> np.ndarray:
        if self.fixed is not None:
            return np.full(len(states), self.fixed, dtype=int)
        if states.indices is None:
            raise ValueError("action table requires tabular states")
        return self.table[states.indices]


class OptimalPolicy(Policy):
    """argmax_a f(x, a) under the instance's true mean rewards."""

    def __init__(self, instance: BanditInstance):
        self.instance = instance

    def actions(self, states: StateBatch) -> np.ndarray:
        return np.argmax(self.instance.mean_rewards(states), axis=1)
