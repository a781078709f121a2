"""BLEND: black-box logarithmic-expansion numerical differentiation.

Derivatives of functions available only through point evaluations, via the
truncated logarithmic series of the shift operator: collapsed finite-difference
stencils of any order, certified truncation bounds with step-size planning, a
stabilization-driven adaptive driver, directional derivatives at
dimension-independent cost, and a finite tandem-queue model as the flagship
black-box application.
"""

from .blend_driver import (
    BlendConfig,
    BlendReport,
    DirectionSpec,
    agreed_significant_digits,
    directional_oracle,
    round_to_digits,
    run_blend,
)
from .bounds_planner import (
    BOUND_FORMULAS,
    GrowthEnvelope,
    StepPlan,
    h_domain,
    remainder_bound,
    solve_k_exact_h,
)
from .models import (
    CATALOG,
    AnalyticTestFunction,
    SingularGeneratorError,
    StationaryDistribution,
    TandemQueueModel,
    blocking_probability,
    exp_density,
    quadratic_form,
    queue_sensitivity_oracle,
    solve_stationary,
)
from .oracle import FunctionOracle, OracleEvaluationError
from .series_core import (
    ORDER_CAP,
    OrderCapError,
    PartialSumTrace,
    StencilWeights,
    blend_partial_sums,
    delta_from_cache,
    operator_power,
    stencil_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticTestFunction",
    "BlendConfig",
    "BlendReport",
    "BOUND_FORMULAS",
    "CATALOG",
    "DirectionSpec",
    "FunctionOracle",
    "GrowthEnvelope",
    "OracleEvaluationError",
    "OrderCapError",
    "ORDER_CAP",
    "PartialSumTrace",
    "SingularGeneratorError",
    "StationaryDistribution",
    "StencilWeights",
    "StepPlan",
    "TandemQueueModel",
    "agreed_significant_digits",
    "blend_partial_sums",
    "blocking_probability",
    "delta_from_cache",
    "directional_oracle",
    "exp_density",
    "h_domain",
    "operator_power",
    "quadratic_form",
    "queue_sensitivity_oracle",
    "remainder_bound",
    "round_to_digits",
    "run_blend",
    "solve_k_exact_h",
    "solve_stationary",
    "stencil_weights",
]
