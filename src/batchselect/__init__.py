"""Model selection for batch policy optimization in linear contextual bandits.

Core surface: pessimistic learning and policies (`learner`), the three
selection methods (`selection`), synthetic environments (`env`, `features`),
regret against the true means (`diagnostics`), the minimax hard pair
(`hard_instance`), and the experiment harness (`experiments`, `cli`).
"""

from .env import (
    BanditInstance,
    BehaviorPolicy,
    Cells,
    StateBatch,
    dirichlet_behavior,
    make_gaussian_instance,
    make_tabular_instance,
    sample_dataset,
    sample_split_cells,
    sample_states,
)
from .features import (
    ModelClass,
    check_nested,
    realizable_family,
    truncation_family,
)
from .learner import (
    GreedyPolicy,
    PessimisticPolicy,
    Policy,
    beta_coefficient,
    fit_pessimistic,
)
from .linalg import CovarianceMatrix, RidgeFit, SingularMatrixError, ridge_fit
from .selection import (
    SelectionReport,
    SlopeTerms,
    complexity_coverage_policy,
    holdout_select,
    slope_policy_select,
    slope_select,
    slope_terms,
    zeta_coefficient,
)
from .hard_instance import build_hard_pair, oracle_denominator, ratio_experiment

__version__ = "0.1.0"

__all__ = [
    "BanditInstance",
    "BehaviorPolicy",
    "Cells",
    "CovarianceMatrix",
    "GreedyPolicy",
    "ModelClass",
    "PessimisticPolicy",
    "Policy",
    "RidgeFit",
    "SelectionReport",
    "SingularMatrixError",
    "SlopeTerms",
    "StateBatch",
    "beta_coefficient",
    "build_hard_pair",
    "check_nested",
    "complexity_coverage_policy",
    "dirichlet_behavior",
    "fit_pessimistic",
    "holdout_select",
    "make_gaussian_instance",
    "make_tabular_instance",
    "oracle_denominator",
    "ratio_experiment",
    "realizable_family",
    "ridge_fit",
    "sample_dataset",
    "sample_split_cells",
    "sample_states",
    "slope_policy_select",
    "slope_select",
    "slope_terms",
    "truncation_family",
    "zeta_coefficient",
]
