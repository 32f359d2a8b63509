"""The public API's settable values, written out so that a new knob shows up as a diff."""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import kummerlab as kl
from kummerlab.util import as_point

# every public name of the package (63); the benchmark tracer wraps each
# public function as a span, so a new one shows up here as a diff
PUBLIC = [
    "ConvergenceFailure", "DEFAULT_EPS", "DegeneratePointError", "DegenerateSecantError",
    "FayResult", "HierarchyAbort", "HierarchyState", "IllPosedError", "MAX_DERIV_ORDER",
    "PeriodMatrix", "ProjectivePoint", "PropagationCheck", "SearchOptions",
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

# the fields of every public record (42), and the parameters of the
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
    kl.HierarchyState: "pm u b W alpha1 alphaj residuals",
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


def _g_point(pm):
    state = _state(pm)
    return kl.find_section_intersection(pm, [state.u, -state.u], 1)


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
    "assemble_P s 1.0": lambda pm: kl.assemble_P(_state(pm), 1.0, [0.1, 0.2]),
    "assemble_P s True": lambda pm: kl.assemble_P(_state(pm), True, [0.1, 0.2]),
    "assemble_Q s 1.5": lambda pm: kl.assemble_Q(_state(pm), 1.5, [0.1, 0.2]),
    "weighted_partitions s 2.0": lambda pm: kl.weighted_partitions(2.0),
    "weighted_partitions s True": lambda pm: kl.weighted_partitions(True),
    "weighted_partitions s '3'": lambda pm: kl.weighted_partitions("3"),
    "apply_delta s 2.0": lambda pm: kl.apply_delta(_state(pm), 2.0, 1.0, [0.1, 0.3], [0.1, 0.2]),
    "restriction_identity_check s 1.0": lambda pm: kl.restriction_identity_check(
        _state(pm), 1.0, [_g_point(pm)]
    ),
}


@pytest.mark.parametrize("call", NOT_AN_INT.values(), ids=NOT_AN_INT.keys())
def test_non_integer_counts_orders_and_seeds_are_validation_errors(pm_g2, call):
    with pytest.raises(kl.ValidationError):
        call(pm_g2)


def _points(*xs):
    """A generator of points on the real line of g = 2."""
    return ([x, 0.0] for x in xs)


Z = [0.1 + 0.2j, 0.3 - 0.1j]
FLAT = [[0.1, 0.0], [0.3, 0.0], [0.5, 0.0]]

# a number is an int, a float or a complex value, Python or numpy; a bool, a
# string (even "0.5") or a ragged nesting is none, and a point list is any
# iterable of points, of the length its entry point counts.  Every other value
# is an input error, never read as a number, and never a TypeError or a
# numpy ValueError
NOT_A_NUMBER = {
    # a value where there was none, or an error outside the taxonomy
    "theta point of strings": lambda pm: kl.theta(pm, ["1", "2j"]),
    "theta deriv ['ab']": lambda pm: kl.theta(pm, Z, deriv=["ab"]),
    "theta deriv None": lambda pm: kl.theta(pm, Z, deriv=None),
    "theta deriv 5": lambda pm: kl.theta(pm, Z, deriv=5),
    "make_period_matrix strings": lambda pm: kl.make_period_matrix(2, [["a", "b"], ["c", "d"]]),
    "PeriodMatrix 'x'": lambda pm: kl.PeriodMatrix("x"),
    "ProjectivePoint ['a']": lambda pm: kl.ProjectivePoint(["a"]),
    "fay_configuration strings": lambda pm: kl.fay_configuration(pm, ["a", "b", "c", "d"]),
    "degenerate_fay_configuration strings": lambda pm: kl.degenerate_fay_configuration(
        pm, ["a", "b", "c"]
    ),
    "project_to_divisor 'ab'": lambda pm: kl.project_to_divisor(pm, "ab"),
    "fay_configuration 5": lambda pm: kl.fay_configuration(pm, 5),
    "involution_identity 5": lambda pm: kl.involution_identity(pm, 5, Z, [0] * 4),
    "SecantConfiguration generator of 2 for m 1": lambda pm: kl.SecantConfiguration(
        pm, 1, _points(0.1, 0.3), Z
    ),
    "projective_distance lists": lambda pm: kl.projective_distance([1, 2], [1, 2]),
    "projective_distance dimensions 2 and 3": lambda pm: kl.projective_distance(
        kl.ProjectivePoint([1, 2]), kl.ProjectivePoint([1, 2, 3])
    ),
    "secant_search options dict": lambda pm: kl.secant_search(pm, 1, FLAT, Z, options={"seed": 1}),
    "secant_search options {}": lambda pm: kl.secant_search(pm, 1, FLAT, Z, options={}),
    # bools, which numpy reads as 0 and 1
    "theta point [True, 0.5]": lambda pm: kl.theta(pm, [True, 0.5]),
    "theta point numpy bools": lambda pm: kl.theta(pm, np.array([True, False])),
    "theta deriv [False, True]": lambda pm: kl.theta(pm, Z, deriv=([False, True],)),
    "make_period_matrix bool": lambda pm: kl.make_period_matrix(2, [[True, 0.3j], [0.3j, 1j]]),
    "ProjectivePoint [True, 1.0]": lambda pm: kl.ProjectivePoint([True, 1.0]),
    "lattice_reduce [0.5, np.True_]": lambda pm: kl.lattice_reduce(pm, [0.5, np.True_]),
    "bilinear_residual alpha bools": lambda pm: kl.bilinear_residual(
        kl.SecantConfiguration(pm, 1, FLAT, Z), [True, 1, 1]
    ),
    "half_period lift of bools": lambda pm: kl.half_period(pm, [True, False, True, False]),
    "solve_order sample bools": lambda pm: kl.solve_order(_state(pm), 1, [[True, True]] * 8),
    # ragged nesting
    "theta point ragged": lambda pm: kl.theta(pm, [[0.1], 0.2]),
    "make_period_matrix ragged": lambda pm: kl.make_period_matrix(2, [[1j, 0.0], [0.0]]),
    "PeriodMatrix ragged": lambda pm: kl.PeriodMatrix([[1j, 0.0], [0.0]]),
    "ProjectivePoint ragged": lambda pm: kl.ProjectivePoint([[1.0], [1.0, 2.0]]),
    "find_section_intersection ragged offset": lambda pm: kl.find_section_intersection(
        pm, [[0.1, [0.2]]], 0
    ),
    # non-iterables where a point list belongs
    "SecantConfiguration points 5": lambda pm: kl.SecantConfiguration(pm, 1, 5, Z),
    "make_state b 5": lambda pm: kl.make_state(pm, 1, Z, 5, order=2),
    "premise_check b None": lambda pm: kl.premise_check(pm, 1, Z, None),
    "solve_order samples 5": lambda pm: kl.solve_order(_state(pm), 1, 5),
    "run_hierarchy samples None": lambda pm: kl.run_hierarchy(_state(pm), 1, None),
    "restriction_identity_check points 5": lambda pm: kl.restriction_identity_check(
        _state(pm), 1, 5
    ),
    "find_section_intersection offsets 5": lambda pm: kl.find_section_intersection(pm, 5, 0),
    "degenerate_fay_configuration 5.0": lambda pm: kl.degenerate_fay_configuration(pm, 5.0),
    # a wrong count for every counted point list
    "SecantConfiguration 2 points for m 1": lambda pm: kl.SecantConfiguration(pm, 1, FLAT[:2], Z),
    "SecantConfiguration 4 points for m 1": lambda pm: kl.SecantConfiguration(
        pm, 1, FLAT + [Z], Z
    ),
    "make_state 2 b for m 1": lambda pm: kl.make_state(pm, 1, Z, FLAT[:2], order=2),
    "premise_check 0 b for m 2": lambda pm: kl.premise_check(pm, 2, Z, []),
    "involution_identity 3 points": lambda pm: kl.involution_identity(pm, FLAT, Z, [0] * 4),
    "involution_identity 5 points": lambda pm: kl.involution_identity(
        pm, FLAT + FLAT[:2], Z, [0] * 4
    ),
    "fay_configuration 3 points": lambda pm: kl.fay_configuration(pm, FLAT),
    "degenerate_fay_configuration 4 points": lambda pm: kl.degenerate_fay_configuration(
        pm, FLAT + [Z]
    ),
}


@pytest.mark.parametrize("call", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER.keys())
def test_non_numbers_and_misshaped_point_lists_are_validation_errors(pm_g2, call):
    with pytest.raises(kl.ValidationError):
        call(pm_g2)


# every input that is a number keeps the bits np.asarray(z, dtype=complex) gives it
AS_COMPLEX = {
    "list": [0.1, 2],
    "tuple": (0.1, 0.2j),
    "float32 array": np.array([0.1, -2.5], dtype=np.float32),
    "int64 array": np.array([3, -7], dtype=np.int64),
    "complex64 array": np.array([0.1 + 0.3j, -2.5j], dtype=np.complex64),
    "complex128 array": np.array([0.1 + 0.3j, -2.5j]),
    "numpy scalars": [np.float32(0.1), np.complex64(0.2 - 0.7j)],
    "mixed numpy scalars": [np.int8(-3), np.float64(0.1)],
    "Fraction": [Fraction(1, 3), 0.5],
    "10**30": [10**30, -(10**30) + 1],
}


@pytest.mark.parametrize("z", AS_COMPLEX.values(), ids=AS_COMPLEX.keys())
def test_as_point_keeps_the_bits_of_a_complex_cast(z):
    got = as_point(z, 2)
    want = np.asarray(z, dtype=complex)
    assert got.dtype == complex and got.tobytes() == want.tobytes()


def test_as_point_returns_a_complex_vector_itself():
    z = np.array([0.1 + 0.3j, -2.5j])
    assert as_point(z, 2) is z


def test_as_points_takes_any_iterable_of_points(pm_g2):
    listed = kl.SecantConfiguration(pm_g2, 1, FLAT, Z)
    for points in (_points(0.1, 0.3, 0.5), np.array(FLAT), tuple(map(tuple, FLAT))):
        cfg = kl.SecantConfiguration(pm_g2, 1, points, Z)
        assert np.array(cfg.points).tobytes() == np.array(listed.points).tobytes()


def test_a_float_direction_and_its_complex_twin_share_one_memo_entry():
    pm = kl.make_period_matrix(2, [[0.1 + 1j, 0.05 + 0.3j], [0.05 + 0.3j, -0.2 + 1.2j]])
    w = np.array([1.0, 0.5])
    real = kl.theta(pm, Z, deriv=(w,))
    assert len(pm._directions) == 1
    twin = kl.theta(pm, Z, deriv=(w.astype(complex),))
    assert len(pm._directions) == 1
    assert np.array([real]).tobytes() == np.array([twin]).tobytes()


# apply_delta's multiplier scales every direction: anything but one finite real
# number is an input error, never a broadcast into another direction, a
# TypeError or an overflow warning
NOT_A_MULTIPLIER = {
    "list [1, 2]": [1, 2],
    "array [0.5]": np.array([0.5]),
    "string": "0.5",
    "None": None,
    "True": True,
    "numpy bool": np.True_,
    "complex": 0.5j,
    "inf": float("inf"),
    "nan": float("nan"),
}


@pytest.mark.parametrize("mult", NOT_A_MULTIPLIER.values(), ids=NOT_A_MULTIPLIER.keys())
def test_apply_delta_multiplier_must_be_a_finite_real(pm_g2, mult):
    with pytest.raises(kl.ValidationError, match="mult"):
        kl.apply_delta(_state(pm_g2), 1, mult, [0.1, 0.3], [0.1, 0.2])


def test_apply_delta_multiplier_of_any_real_type_gives_the_float_bits(pm_g2):
    state = _state(pm_g2)
    for mult, same in ((-1, -1.0), (np.int64(2), 2.0), (np.float64(0.5), 0.5)):
        got = kl.apply_delta(state, 2, mult, [0.1, 0.3], [0.1, 0.2])
        want = kl.apply_delta(state, 2, same, [0.1, 0.3], [0.1, 0.2])
        assert np.array([got]).tobytes() == np.array([want]).tobytes(), mult


# every public function whose first argument is a configuration or a hierarchy
# state, called with the rest of its arguments valid
RECORD_ENTRY_POINTS = {
    "secant_matrix": lambda cfg: kl.secant_matrix(cfg),
    "secant_residual": lambda cfg: kl.secant_residual(cfg),
    "secant_coefficients": lambda cfg: kl.secant_coefficients(cfg),
    "bilinear_residual": lambda cfg: kl.bilinear_residual(cfg, [1.0, -1.0, 0.5]),
    "propagate": lambda cfg: kl.propagate(cfg, Z, (0, 0, 0, 0)),
    "propagation_secant_check": lambda cfg: kl.propagation_secant_check(cfg, Z),
    "apply_delta": lambda state: kl.apply_delta(state, 1, 1.0, [0.1, 0.3], [0.1, 0.2]),
    "assemble_P": lambda state: kl.assemble_P(state, 1, [0.1, 0.2]),
    "assemble_Q": lambda state: kl.assemble_Q(state, 1, [0.1, 0.2]),
    "solve_order": lambda state: kl.solve_order(state, 1, [[0.1, 0.2]] * 8),
    "run_hierarchy": lambda state: kl.run_hierarchy(state, 1, [[0.1, 0.2]] * 8),
    "restriction_identity_check": lambda state: kl.restriction_identity_check(
        state, 1, [[0.1, 0.2]]
    ),
}
RECORD_TYPES = {"cfg": "SecantConfiguration", "state": "HierarchyState"}


@pytest.mark.parametrize("record", [None, {"m": 1}, "cfg", object(), 3.5],
                         ids=["None", "dict", "str", "object", "float"])
@pytest.mark.parametrize("name", sorted(RECORD_ENTRY_POINTS))
def test_a_record_argument_of_the_wrong_type_is_a_validation_error(name, record):
    call = RECORD_ENTRY_POINTS[name]
    param = next(iter(inspect.signature(getattr(kl, name)).parameters))
    message = f"{param} must be a {RECORD_TYPES[param]}, got {type(record).__name__}"
    with pytest.raises(kl.ValidationError, match=f"^{message}$"):
        call(record)
