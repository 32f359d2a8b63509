"""Numerical laboratory for theta functions, Kummer secant planes, and the
order-by-order secant elimination hierarchy."""

from .errors import (
    ConvergenceFailure,
    DegeneratePointError,
    DegenerateSecantError,
    HierarchyAbort,
    IllPosedError,
    ToleranceFailure,
    ValidationError,
)
from .hierarchy import (
    HierarchyState,
    apply_delta,
    assemble_P,
    assemble_Q,
    default_samples,
    find_section_intersection,
    make_state,
    premise_check,
    restriction_identity_check,
    run_hierarchy,
    solve_order,
    weighted_partitions,
)
from .kummer import (
    ProjectivePoint,
    addition_residual,
    all_half_periods,
    half_period,
    kummer,
    projective_distance,
    second_order_derivative,
    second_order_values,
)
from .scenarios import (
    FayResult,
    TangencyDatum,
    ThetaDivisorPoint,
    degenerate_fay_configuration,
    even_theta_constants,
    fay_configuration,
    find_theta_divisor_point,
    project_to_divisor,
    sample_genus2_period_matrix,
    theta_tangent_direction,
)
from .secant import (
    PropagationCheck,
    SearchOptions,
    SecantConfiguration,
    bilinear_residual,
    involution_identity,
    propagate,
    propagation_secant_check,
    secant_coefficients,
    secant_matrix,
    secant_residual,
    secant_search,
)
from .theta import (
    DEFAULT_EPS,
    MAX_DERIV_ORDER,
    PeriodMatrix,
    lattice_points,
    lattice_reduce,
    make_period_matrix,
    theta,
    torus_distance,
    truncation_radius,
)

__all__ = [name for name in dir() if not name.startswith("_")]
