"""Maximal solutions of the one-dimensional supercooled Stefan problem.

The package computes the saturated two-block target measure of a step
density on a bounded open set, certifies it with exact Newtonian potential
order checks, reproduces the monotonicity and Lipschitz failure examples
and the weak-convergence stability of the target map, and cross-validates
everything with a front-freezing Brownian particle system.
"""

from .errors import (
    AdmissibilityError,
    InfeasibilityError,
    ParameterError,
    SupportError,
    ValidationError,
    VerificationError,
)
from .measure import (
    DEFAULT_TOL,
    OpenSet1D,
    StepMeasure,
    indicator,
    l1_distance,
    make_step_measure,
    measures_allclose,
    pointwise_leq,
    positive_part_l1,
    restrict,
    zero_measure,
)
from .particles import (
    ComparisonReport,
    ComponentRunReport,
    RunReport,
    SimConfig,
    compare_to_formula,
    run,
)
from .potential import (
    OrderCertificate,
    PiecewiseQuadratic,
    dominates,
    order_leq_sh_O,
    potential,
)
from .repro import ReproManifest, run_manifest
from .solver import (
    BlockPair,
    ConcaveGrid,
    CostIndependenceReport,
    MaximalSolution,
    check_admissible,
    critical_point,
    independence_check,
    primal_objective,
    solve,
    solve_by_sweep,
    solve_component,
    sweep_states,
)
from .stability import (
    LipschitzFamilyParams,
    StabilityReport,
    WeakConvergenceTable,
    lipschitz_closed_form_gap,
    lipschitz_closed_form_ratio,
    lipschitz_pair,
    lipschitz_ratio,
    monotonicity_report,
    weak_convergence_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "BlockPair",
    "ComparisonReport",
    "ComponentRunReport",
    "ConcaveGrid",
    "CostIndependenceReport",
    "DEFAULT_TOL",
    "InfeasibilityError",
    "LipschitzFamilyParams",
    "MaximalSolution",
    "OpenSet1D",
    "OrderCertificate",
    "ParameterError",
    "PiecewiseQuadratic",
    "ReproManifest",
    "RunReport",
    "SimConfig",
    "StabilityReport",
    "StepMeasure",
    "SupportError",
    "ValidationError",
    "VerificationError",
    "WeakConvergenceTable",
    "check_admissible",
    "compare_to_formula",
    "critical_point",
    "dominates",
    "independence_check",
    "indicator",
    "l1_distance",
    "lipschitz_closed_form_gap",
    "lipschitz_closed_form_ratio",
    "lipschitz_pair",
    "lipschitz_ratio",
    "make_step_measure",
    "measures_allclose",
    "monotonicity_report",
    "order_leq_sh_O",
    "pointwise_leq",
    "positive_part_l1",
    "potential",
    "primal_objective",
    "restrict",
    "run",
    "run_manifest",
    "solve",
    "solve_by_sweep",
    "solve_component",
    "sweep_states",
    "weak_convergence_experiment",
    "zero_measure",
]
