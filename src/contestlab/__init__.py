"""Equilibrium, effort, and prize-design toolkit for rank-order all-pay contests."""

from types import ModuleType as _ModuleType

from .competition import (
    Classification,
    CompetitionQuery,
    CompetitionReport,
    LambdaProfile,
    TransferSign,
    attach_numeric_estimate,
    binary_transfer_sign,
    classify,
    competition_effect_linear,
    competition_effect_numeric,
    lambda_profile,
    utility_gradient,
)
from .continuum import (
    ContinuumEnvironment,
    ConvergenceReport,
    continuum_effort_cdf,
    continuum_strategy,
    convergence_report,
    discretize,
)
from .costs import (
    ContestEnvironment,
    CostFunction,
    ValidationReport,
    cost_eval,
    cost_inverse,
    validate_environment,
)
from .design import BudgetSolution, FeasibleSet, enumerate_vertices, optimize_budget
from .effort import (
    AlphaVector,
    alpha_coefficients,
    expected_cost,
    expected_effort,
    expected_effort_per_type,
)
from .equilibrium import (
    Equilibrium,
    boundaries_closed_form,
    exante_cdf,
    sample,
    solve,
    type_cdf,
    type_index,
    utilities_closed_form,
)
from .errors import (
    ArgumentError,
    CapabilityError,
    ContestError,
    DomainError,
    NumericError,
)
from .kernels import (
    Contest,
    binom_pmf,
    binom_tail,
    is_more_competitive,
    prize_expectation,
    prize_expectation_derivative,
    prize_expectation_inverse,
    type_prize_integral,
)
from .verify import (
    BestResponseReport,
    MonteCarloReport,
    VerificationReport,
    best_response_gap,
    monte_carlo_effort,
    verification_report,
)

__version__ = "0.1.0"

# the public API is the names imported above; the submodules they bind are not part of it
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
