"""The public API's settable values, written out so that a new knob shows up as a diff."""

import dataclasses
import inspect

import kummerlab as kl

# every public name of the package (65); the benchmark tracer wraps each
# public function as a span, so a new one shows up here as a diff
PUBLIC = [
    "ConvergenceFailure", "DEFAULT_EPS", "DegeneratePointError", "DegenerateSecantError",
    "FayResult", "HierarchyAbort", "HierarchyState", "IllPosedError", "MAX_DERIV_ORDER",
    "OperatorWord", "PeriodMatrix", "ProjectivePoint", "PropagationCheck", "PropagationResult",
    "SearchOptions", "SecantConfiguration", "TangencyDatum", "ThetaDivisorPoint",
    "ToleranceFailure", "ValidationError", "addition_residual", "all_half_periods",
    "apply_delta", "assemble_P", "assemble_Q", "bilinear_residual", "default_samples",
    "degenerate_fay_configuration", "errors", "even_theta_constants", "fay_configuration",
    "find_section_intersection", "find_theta_divisor_point", "half_period", "hierarchy",
    "involution_identity", "kummer", "lattice_points", "lattice_reduce", "make_period_matrix",
    "make_state", "premise_check", "project_to_divisor", "projective_distance", "propagate",
    "propagation_secant_check", "restriction_identity_check", "run_hierarchy",
    "sample_genus2_period_matrix", "scenarios", "secant", "secant_coefficients",
    "secant_matrix", "secant_residual", "secant_search", "second_order_derivative",
    "second_order_values", "simplex", "solve_order", "theta", "theta_tangent_direction",
    "torus_distance", "truncation_radius", "util", "weighted_partitions",
]

# the defaulted parameters of every public function (32 values); a
# tolerance or budget that no caller sets is a module constant instead
DEFAULTED = {
    "addition_residual": "eps",
    "apply_delta": "eps",
    "assemble_P": "eps",
    "assemble_Q": "eps",
    "bilinear_residual": "sample_count seed eps",
    "degenerate_fay_configuration": "eps",
    "even_theta_constants": "eps",
    "fay_configuration": "eps",
    "kummer": "eps",
    "make_state": "w1",
    "premise_check": "eps direction",
    "propagation_secant_check": "eps tol",
    "restriction_identity_check": "eps full",
    "run_hierarchy": "eps",
    "secant_coefficients": "eps tol",
    "secant_matrix": "eps",
    "secant_residual": "eps",
    "secant_search": "options",
    "second_order_derivative": "eps",
    "second_order_values": "eps",
    "solve_order": "eps",
    "theta": "deriv eps",
    "theta_tangent_direction": "eps",
    "truncation_radius": "order eps",
}

SEARCH_OPTIONS = "max_iter tol step seed eps"


def test_public_functions_default_exactly_the_listed_parameters():
    found = {}
    for name in kl.__all__:
        obj = getattr(kl, name)
        if inspect.isclass(obj) or not callable(obj):
            continue
        params = inspect.signature(obj).parameters.values()
        defaulted = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if defaulted:
            found[name] = " ".join(defaulted)
    assert found == DEFAULTED


def test_search_options_has_exactly_the_listed_fields():
    assert [f.name for f in dataclasses.fields(kl.SearchOptions)] == SEARCH_OPTIONS.split()


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(kl.__all__) == PUBLIC
