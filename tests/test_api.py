"""The public API's settable values, written out so that a new knob shows up as a diff."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import kummerlab as kl

# every public name of the package (64); the benchmark tracer wraps each
# public function as a span, so a new one shows up here as a diff
PUBLIC = [
    "ConvergenceFailure", "DEFAULT_EPS", "DegeneratePointError", "DegenerateSecantError",
    "FayResult", "HierarchyAbort", "HierarchyState", "IllPosedError", "MAX_DERIV_ORDER",
    "OperatorWord", "PeriodMatrix", "ProjectivePoint", "PropagationCheck", "SearchOptions",
    "SecantConfiguration", "TangencyDatum", "ThetaDivisorPoint", "ToleranceFailure",
    "ValidationError", "addition_residual", "all_half_periods",
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

SEARCH_OPTIONS = "seed eps"

# the fields of every public record (46), and the parameters of the
# exceptions that carry data; a record holds only what some caller sets or
# reads and nothing that its other fields already hold, and a result is
# returned, never written into an input
RECORD_FIELDS = {
    kl.SecantConfiguration: "pm m points zeta",
    kl.SearchOptions: SEARCH_OPTIONS,
    kl.secant.SearchResult: "zeta residual search_info",
    kl.PropagationCheck: "best_lift best_residual table",
    kl.ThetaDivisorPoint: "z residual",
    kl.FayResult: "config residual table",
    kl.TangencyDatum: "u b direction residual table",
    kl.OperatorWord: "exponents weight",
    kl.HierarchyState: "pm m u b order W alpha1 alphaj residuals",
    kl.hierarchy.PremiseReport: "tangency_residual shifted_residuals passed",
    kl.hierarchy.RestrictionReport: "discrepancy r_values t_direct t_formula",
    kl.ProjectivePoint: "coords",
    kl.simplex.SimplexResult: "x fx iterations converged trace",
}
EXCEPTION_PARAMETERS = {
    kl.ConvergenceFailure: "message trace",
    kl.HierarchyAbort: "message order residual",
}


def _records():
    """Every dataclass that a public module of the package defines under a public name."""
    found = set()
    for info in pkgutil.iter_modules(kl.__path__):
        if info.name.startswith("_"):  # __main__ would run the CLI
            continue
        module = importlib.import_module(f"kummerlab.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__ and not name.startswith("_")):
                found.add(obj)
    return found


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


def test_records_have_exactly_the_listed_fields():
    assert _records() == set(RECORD_FIELDS)
    found = {cls: " ".join(f.name for f in dataclasses.fields(cls)) for cls in RECORD_FIELDS}
    assert found == RECORD_FIELDS
    assert not hasattr(kl.hierarchy, "OrderSolution")
    found = {cls: " ".join(inspect.signature(cls).parameters) for cls in EXCEPTION_PARAMETERS}
    assert found == EXCEPTION_PARAMETERS


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(kl.__all__) == PUBLIC


def _state(pm):
    return kl.make_state(pm, 1, [0.2 + 0.1j, 0.1], [[0.1, 0.3]], order=2, w1=[1.0, 0.5])


# every entry point that takes a count, an order, a dimension or a seed refuses
# a value that is not an int as an input error, never truncating it or failing
# inside Python or numpy
NOT_AN_INT = {
    "make_state order 2.0": lambda pm: kl.make_state(pm, 1, [0.2, 0.1], [[0.1, 0.3]], order=2.0),
    "make_state m 1.0": lambda pm: kl.make_state(pm, 1.0, [0.2, 0.1], [[0.1, 0.3]], order=2),
    "default_samples count 2.5": lambda pm: kl.default_samples(pm, 2.5, 0),
    "default_samples seed 1.5": lambda pm: kl.default_samples(pm, 4, 1.5),
    "default_samples seed nan": lambda pm: kl.default_samples(pm, 4, float("nan")),
    "default_samples seed 'a'": lambda pm: kl.default_samples(pm, 4, "a"),
    "run_hierarchy upto 2.0": lambda pm: kl.run_hierarchy(_state(pm), 2.0, kl.default_samples(pm, 8, 0)),
    "solve_order s 1.0": lambda pm: kl.solve_order(_state(pm), 1.0, kl.default_samples(pm, 8, 0)),
    "truncation_radius order 1.5": lambda pm: kl.truncation_radius(pm, [0.1, 0.2], order=1.5),
    "SecantConfiguration m '1'": lambda pm: kl.SecantConfiguration(pm, "1", [[0, 0]] * 3, [0, 0]),
    "SecantConfiguration m 1.0": lambda pm: kl.SecantConfiguration(pm, 1.0, [[0, 0]] * 3, [0, 0]),
    "make_period_matrix g True": lambda pm: kl.make_period_matrix(True, [[1j]]),
    "premise_check m 1.0": lambda pm: kl.premise_check(pm, 1.0, [0.2, 0.1], [[0.1, 0.3]]),
    "find_section_intersection no offsets": lambda pm: kl.find_section_intersection(pm, [], 0),
}


@pytest.mark.parametrize("call", NOT_AN_INT.values(), ids=NOT_AN_INT.keys())
def test_non_integer_counts_orders_and_seeds_are_validation_errors(pm_g2, call):
    with pytest.raises(kl.ValidationError):
        call(pm_g2)
