"""Cost-model-driven planning: pick engine, ordering, parallelism, budget.

See :mod:`repro.plan.features` (graph signatures),
:mod:`repro.plan.model` (the calibrated cost model and the canonical
admission estimator) and :mod:`repro.plan.planner` (candidate ranking
and the explainable :class:`Plan`).  ``docs/planning.md`` walks through
the model and the recalibration workflow.
"""

from repro.plan.features import (
    FEATURES_VERSION,
    PlanFeatures,
    cached_features,
    extract_features,
)
from repro.plan.model import (
    DEFAULT_COEFFICIENTS,
    MODEL_VERSION,
    CostModel,
    cost_from_stats,
    estimate_cost,
    feature_basis,
    fit_coefficients,
)
from repro.plan.planner import (
    PLANNER_ENGINES,
    Plan,
    PlanCandidate,
    PlanError,
    build_plan,
    fine_slicing_min_wedges,
    recommend_slices,
    recommend_straggler_factor,
    root_cost_estimates,
)

__all__ = [
    "DEFAULT_COEFFICIENTS",
    "FEATURES_VERSION",
    "MODEL_VERSION",
    "PLANNER_ENGINES",
    "CostModel",
    "Plan",
    "PlanCandidate",
    "PlanError",
    "PlanFeatures",
    "build_plan",
    "cached_features",
    "cost_from_stats",
    "estimate_cost",
    "extract_features",
    "feature_basis",
    "fine_slicing_min_wedges",
    "fit_coefficients",
    "recommend_slices",
    "recommend_straggler_factor",
    "root_cost_estimates",
]
