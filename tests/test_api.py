"""The public API's settable values, written out so that a new knob shows up as a diff."""

import dataclasses
import inspect

import kummerlab as kl

# the defaulted parameters of every public function (35 values); a
# tolerance or budget that no caller sets is a module constant instead
DEFAULTED = {
    "addition_residual": "eps",
    "apply_delta": "eps",
    "assemble_P": "eps",
    "assemble_Q": "eps",
    "bilinear_residual": "sample_count seed eps",
    "degenerate_fay_configuration": "eps",
    "even_theta_constants": "eps",
    "factor_series": "eps",
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
    "theta_translate": "deriv eps",
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
