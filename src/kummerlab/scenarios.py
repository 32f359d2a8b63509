"""Verified test geometry on genus-2 Jacobians.

Genus 2 is the one place where the classical trisecant family is available
at desk scale without any curve integration: every indecomposable
principally polarized abelian surface is a Jacobian, and its theta divisor
IS the embedded curve, so root finding on theta = 0 stands in for
Abel-Jacobi integration.

Construction used throughout: four divisor points z_a, z_b, z_c, z_d give
three collinear Kummer points at the half-points of

    z_a + z_b - z_c - z_d,   z_a - z_b + z_c - z_d,   z_a - z_b - z_c + z_d

(each combination has two plus and two minus signs, so the Riemann-constant
translation cancels).  The halvings carry a half-period ambiguity; only the
relative lifts matter, and the consistent choice is found by exhaustive
search.  The confluent limit z_d -> z_c of the same construction supplies
the tangency datum that seeds the elimination hierarchy.

Decomposable period matrices (products of elliptic curves) would break all
of this; the sampler screens candidates by requiring every even theta
constant to stay away from zero.  Indecomposability is otherwise assumed,
never verified.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, IllPosedError, ValidationError
from .kummer import (
    _half_period_values,
    all_half_periods,
    second_order_derivative,
    second_order_values,
)
from .secant import SecantConfiguration, _lift_table, secant_residual
from .theta import DEFAULT_EPS, lattice_reduce, make_period_matrix, theta, torus_distance
from .util import NEWTON_EPS, NEWTON_TOL, as_point, as_points, newton, rng

_SEPARATION = 1e-3
_DIVISOR_MAX_ITER = 100
_DIVISOR_RESTARTS = 20
_PROJECT_TOL = 1e-12
_PROJECT_MAX_ITER = 40
_FAY_TOL = 1e-7
_TANGENCY_TOL = 1e-6
_SAMPLE_TRIES = 64


@dataclass
class ThetaDivisorPoint:
    """A numerically located point of the theta divisor."""

    z: np.ndarray
    residual: float


@dataclass
class FayResult:
    """The trisecant, its points already carrying the table's best lift pair."""

    config: SecantConfiguration
    residual: float
    table: list  # ((bits2, bits3), residual) for every searched pair


@dataclass
class TangencyDatum:
    """Seed for the hierarchy: line through K(b) tangent to the Kummer variety at K(u)."""

    u: np.ndarray
    b: np.ndarray
    direction: np.ndarray
    residual: float
    table: list  # (bits, residual) per lift of b; b holds the best one


def _require_genus2(pm):
    if pm.g != 2:
        raise ValidationError("scenario construction is implemented for g = 2 only")


def _in_cell_box(w):
    return abs(w.real) < 2.5 and abs(w.imag) < 1.5


def find_theta_divisor_point(pm, seed):
    """Damped Newton on Re theta = Im theta = 0 along a seeded affine slice.

    The seed fixes which coordinate is pinned (two real coordinates) and
    the starting value of the free one; distinct seeds therefore land on
    well-separated divisor points with high probability.  Theta is
    evaluated to NEWTON_EPS = 1e-14 and a root has |theta| < NEWTON_TOL =
    1e-11; each of _DIVISOR_RESTARTS = 20 seeded starts gets
    _DIVISOR_MAX_ITER = 100 Newton steps of util.newton, the iteration
    every root finder shares.  Raises ConvergenceFailure with one
    (restart, iterations, |theta|) row per start when none converges.
    """
    _require_genus2(pm)
    gen = rng(seed, 0xD1)
    trace = []
    eye = np.eye(2)

    def solve(z0, free, budget):
        # damped Newton in the free coordinate, boxed near the fundamental cell
        def at(w):
            z = z0.copy()
            z[free] = w
            return z

        def residual(w):
            return theta(pm, at(w), eps=NEWTON_EPS)

        def step(w, f):
            fp = theta(pm, at(w), deriv=(eye[free],), eps=NEWTON_EPS)
            return None if abs(fp) < 1e-12 else -f / fp

        w, res, it = newton(residual, step, z0[free], budget, inside=_in_cell_box)
        return at(w), res, it

    for restart in range(_DIVISOR_RESTARTS):
        free = int(gen.integers(0, 2))
        z0 = np.empty(2, dtype=complex)
        z0[free] = gen.uniform(-0.4, 0.4) + 1j * gen.uniform(-0.3, 0.3)
        z0[1 - free] = gen.uniform(-0.4, 0.4) + 1j * gen.uniform(-0.3, 0.3)
        z, res, it = solve(z0, free, _DIVISOR_MAX_ITER)
        if res < NEWTON_TOL:
            reduced = lattice_reduce(pm, z)
            res_red = abs(theta(pm, reduced, eps=NEWTON_EPS))
            if res_red >= NEWTON_TOL:
                # the quasi-periodicity factor inflated the defect; polish
                reduced, res_red, _ = solve(reduced, free, 20)
            if res_red < NEWTON_TOL:
                z, res = reduced, res_red
            return ThetaDivisorPoint(z, res)
        trace.append((restart, it, res))
    raise ConvergenceFailure(
        f"theta divisor root finding failed after {_DIVISOR_RESTARTS} restarts", trace=trace
    )


def project_to_divisor(pm, z0):
    """Newton-project z0 onto theta = 0 along the gradient direction (g = 2).

    Moves z only in the direction of grad(theta), so the projection of a
    point already near the divisor barely disturbs its curve parameter;
    used to step along the divisor curve.  Theta is evaluated to
    NEWTON_EPS = 1e-14; the projection, through util.newton like every
    root finder, stops at |theta| < _PROJECT_TOL = 1e-12 and raises
    ConvergenceFailure if _PROJECT_MAX_ITER = 40 steps do not get there.
    """
    _require_genus2(pm)
    eye = np.eye(2)

    def residual(x):
        return theta(pm, x, eps=NEWTON_EPS)

    def step(z, f):
        grad = np.array([theta(pm, z, deriv=(eye[i],), eps=NEWTON_EPS) for i in range(2)])
        slope = grad @ grad
        return None if abs(slope) == 0.0 else -(f / slope) * grad

    z0 = as_point(z0, 2, name="z0").copy()
    z, res, _ = newton(residual, step, z0, _PROJECT_MAX_ITER, tol=_PROJECT_TOL)
    if res >= _PROJECT_TOL:
        raise ConvergenceFailure(f"divisor projection stalled at |theta| = {res:.3e}")
    return z


def theta_tangent_direction(pm, point, eps=DEFAULT_EPS):
    """Unit tangent to the divisor curve at a point of theta = 0 (g = 2)."""
    _require_genus2(pm)
    eye = np.eye(2)
    grad = np.array([theta(pm, point, deriv=(eye[i],), eps=eps) for i in range(2)])
    if np.abs(grad).max() == 0.0:
        raise IllPosedError("gradient vanishes; singular divisor point")
    v = np.array([-grad[1], grad[0]])
    return v / np.linalg.norm(v)


def _divisor_points(pm, divisor_points, count):
    """The vectors of ``count`` separated divisor points, ThetaDivisorPoints or points (g = 2)."""
    _require_genus2(pm)
    pts = as_points(_unwrapped(divisor_points), 2, "divisor points")
    if len(pts) != count:
        raise ValidationError(f"need exactly {('three', 'four')[count - 3]} divisor points")
    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            d = torus_distance(pm, pts[i], pts[k])
            if d < _SEPARATION:
                raise ValidationError(
                    f"divisor points {i} and {k} are only {d:.2e} apart "
                    f"(need >= {_SEPARATION:.0e})"
                )
    return pts


def _unwrapped(divisor_points):
    # a generator: a non-iterable fails inside as_points, as an input error
    for p in divisor_points:
        yield p.z if isinstance(p, ThetaDivisorPoint) else p


def fay_configuration(pm, divisor_points, eps=DEFAULT_EPS):
    """Trisecant candidate from four divisor points, best relative lifts.

    Returns the m = 1 configuration (zeta = 0, the lifts baked into the
    stored points).  Raises IllPosedError with the full lift-residual table
    when no lift reaches a secant residual of _FAY_TOL = 1e-7.
    """
    za, zb, zc, zd = _divisor_points(pm, divisor_points, 4)
    # reducing by full lattice vectors changes nothing projectively but
    # keeps the second-order columns comparably scaled
    p1 = lattice_reduce(pm, 0.5 * (za + zb - zc - zd))
    p2 = lattice_reduce(pm, 0.5 * (za - zb + zc - zd))
    p3 = lattice_reduce(pm, 0.5 * (za - zb - zc + zd))

    hp = all_half_periods(pm)
    v1 = second_order_values(pm, p1, eps=eps)
    v2 = np.array([second_order_values(pm, p2 + h, eps=eps) for _, h in hp])
    v3 = np.array([second_order_values(pm, p3 + h, eps=eps) for _, h in hp])

    # the 256 matrices [v1, v2[i], v3[k]], i outer, in one SVD call
    n, dim = v2.shape
    mats = np.empty((n, n, dim, 3), dtype=complex)
    mats[..., 0] = v1
    mats[..., 1] = v2[:, None, :]
    mats[..., 2] = v3[None, :, :]
    pairs = [(b2, b3) for b2, _ in hp for b3, _ in hp]
    what = "no consistent lift found: best residual {best:.3e} exceeds {tol:.1e}"
    table, ((b2, b3), _) = _lift_table(pairs, mats.reshape(n * n, dim, 3), eps, _FAY_TOL, what)
    lift_map = dict(hp)
    points = [p1, p2 + lift_map[b2], p3 + lift_map[b3]]
    cfg = SecantConfiguration(pm, 1, points, np.zeros(2, dtype=complex))
    # re-scoring repeats the table's best row bit for bit; its 12 theta calls are in the pinned 144
    return FayResult(cfg, secant_residual(cfg, eps=eps), table)


def degenerate_fay_configuration(pm, divisor_points, eps=DEFAULT_EPS):
    """Confluent limit z_d -> z_c: tangency datum (u, b_1, direction).

    The two colliding Kummer arguments merge at u = (z_a - z_b)/2 and
    approach it along the divisor tangent at z_c, so the secant line
    degenerates to the tangent line at K(u) through K(b_1) with
    b_1 = (z_a + z_b)/2 - z_c.  Only the lift of b_1 relative to u
    matters; it is found by exhaustive search over the 16 half-periods,
    every K(b_1 + h) coming from the one K(b_1) under the half-period action
    (kummer._half_period_values), to rounding of second_order_values at
    b_1 + h.  The returned b is b_1 + h for the best lift h, as
    all_half_periods gives it.  Raises IllPosedError with the lift table
    when no lift brings the tangency residual to _TANGENCY_TOL = 1e-6.
    """
    za, zb, zc = _divisor_points(pm, divisor_points, 3)
    u = lattice_reduce(pm, 0.5 * (za - zb))
    b1 = lattice_reduce(pm, 0.5 * (za + zb) - zc)
    direction = theta_tangent_direction(pm, zc, eps=eps)

    ku = second_order_values(pm, u, eps=eps)
    dku = second_order_derivative(pm, u, direction, eps=eps)
    cu = ku / np.linalg.norm(ku)
    cd = dku / np.linalg.norm(dku)
    hp = all_half_periods(pm)
    kb = _half_period_values(pm, b1, eps)
    mats = np.empty(kb.shape + (3,), dtype=complex)
    mats[..., 0] = cu
    mats[..., 1] = kb / np.linalg.norm(kb, axis=1)[:, None]
    mats[..., 2] = cd
    what = "tangency residual {best:.3e} exceeds {tol:.1e} for every lift"
    table, (bits, r) = _lift_table([b for b, _ in hp], mats, eps, _TANGENCY_TOL, what)
    return TangencyDatum(u, b1 + dict(hp)[bits], direction, r, table)


def even_theta_constants(pm, eps=DEFAULT_EPS):
    """Values of the ten even-characteristic theta constants (g = 2)."""
    _require_genus2(pm)
    vals = []
    for a in itertools.product((0.0, 0.5), repeat=2):
        for b in itertools.product((0.0, 0.5), repeat=2):
            av, bv = np.array(a), np.array(b)
            if int(round(4.0 * av @ bv)) % 2 == 1:
                continue
            pref = np.exp(1j * np.pi * (av @ pm.tau @ av) + 2j * np.pi * (av @ bv))
            vals.append(pref * theta(pm, pm.tau @ av + bv, eps=eps))
    return np.array(vals)


def sample_genus2_period_matrix(seed):
    """Random indecomposable-looking genus-2 period matrix, deterministically.

    Screens candidates: moderate eigenvalue range for Im(tau) and every
    even theta constant of modulus > 1e-6 (a vanishing even constant marks
    a decomposable surface).  Raises ConvergenceFailure when none of
    _SAMPLE_TRIES = 64 draws passes.
    """
    gen = rng(seed, 0x7A)
    for _ in range(_SAMPLE_TRIES):
        a = gen.normal(size=(2, 2)) * 0.6
        y = a @ a.T + 0.5 * np.eye(2)
        eigs = np.linalg.eigvalsh(y)
        if eigs[0] < 0.35 or eigs[-1] > 2.5:
            continue
        x = gen.uniform(-0.45, 0.45, size=(2, 2))
        x = 0.5 * (x + x.T)
        pm = make_period_matrix(2, x + 1j * y)
        if np.abs(even_theta_constants(pm)).min() > 1e-6:
            return pm
    raise ConvergenceFailure(f"no acceptable period matrix in {_SAMPLE_TRIES} draws")
