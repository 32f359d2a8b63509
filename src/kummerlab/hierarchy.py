"""Order-by-order secant hierarchy: truncated series, elimination, identities.

Setup.  A degenerate secant is marked by the point pair (u, -u) together
with b_1..b_m; a formal curve C(eps) = sum_j W^(j) eps^j deforms it.  The
deformation is encoded by the generating section

    P(z, eps) = a_1(eps) theta(z+u+C/2) theta(z-u-C/2)
              - theta(z-u+C/2) theta(z+u-C/2)
              + sum_j a_{j+2}(eps) theta(z+b_j+C/2) theta(z-b_j-C/2)

with the normalizations a_1(0) = 1, a_2 = -1, a_j(0) = 0 for j >= 3 and
a_{m+2}(eps) = eps, which pin the parametrization (they make P_0 vanish
identically and fix the scale of eps).  The curve exists through the
marked point iff every coefficient P_s can be made to vanish; P_s is
affine in the order-s unknowns (a_{1,s}, a_{j+2,s} for j <= m-1, and the
g components of W^(s)), so each order is one complex least-squares solve
over sampled z.

Expansion bookkeeping.  For directions W^(1..s), the weighted operator

    Delta_s = sum over i_1 + 2 i_2 + ... + s i_s = s of
              (1/(i_1! ... i_s!)) D_1^{i_1} ... D_s^{i_s}

gives f(c + C(eps)) = sum_s Delta_s(f)(c) eps^s.  Delta is treated as a
pure constant-coefficient operator; evaluation points are always explicit.
apply_delta scales every direction by one real multiplier t, so it gives
the eps^s coefficient of theta(z - x + t C(eps)) at any t.  A whole
series, the coefficients k = 0..s of one translate, is one walk: z - x is
formed and the directions t W^(1..s) are scaled once, then each coefficient
sums its words, one theta call per word, skipping words that touch an
all-zero direction.  apply_delta is that walk for a single coefficient, with
the same words in the same order, so the two agree bit for bit.

Every section series here is the eps-series of P(z + shift*C(eps), eps),
written once: the term a(eps) theta(z - x + C/2) theta(z + x - C/2) of P
becomes a(eps) times the series of theta(z - x + (1/2 + shift) C) and of
theta(z + x + (shift - 1/2) C).  Shift 0 gives P itself, and the shifts
+1/2 and -1/2 give R and T below.  There one factor has multiplier 0 and
is a constant: theta(z + x) in R, theta(z - x) in T.

Restriction identities (checked, not assumed): on the common zero set
G = {theta_u = theta_{-u} = theta_{b_1} = ... = theta_{b_{m-1}} = 0},

    R_s|_G = Delta_{s-1} theta_{-b_m} . theta_{b_m},
    T_s|_G = Delta^-_{s-1} theta_{b_m} . theta_{-b_m}
             + sum_{j<=m-1} sum_{l=1..s} a_{j+2,l} theta_{-b_j} . Delta^-_{s-l} theta_{b_j},

where R, T are P with argument shifted by +C/2, -C/2.  The inner
derivative order is s - l (the eps-degree count).
"""

import functools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceFailure, HierarchyAbort, IllPosedError, ValidationError
from .kummer import _ratios, second_order_derivative, second_order_values
from .theta import DEFAULT_EPS, theta, torus_distance
from .util import (
    NEWTON_EPS, NEWTON_TOL, as_int, as_point, as_points, complex_box, expect, newton, rng,
)

MAX_ORDER = 12
_ABORT_TOL = 1e-4
_PREMISE_TOL = 1e-6
_G_TOL = 1e-8
_INTERSECTION_MAX_ITER = 80
_INTERSECTION_RESTARTS = 16


# typed, so that True and 2.0 reach the check below rather than the words of 1 and 2
@functools.lru_cache(maxsize=None, typed=True)
def weighted_partitions(s):
    """The words of Delta_s as (weight, runs); the count is the partition number p(s).

    The word D_1^{i_1} ... D_s^{i_s} has weight 1/(i_1! ... i_s!) and runs (j, i_j)
    per nonzero i_j, j ascending; i_s, ..., i_1 are chosen in turn, each from 0 up,
    and their factorials divided out in that order.  Cached per order (MAX_ORDER
    entries per integer type); the tuple keeps the shared words immutable.
    """
    s = as_int(s, "order", 1, MAX_ORDER)
    words = []

    def descend(j, remaining, runs, weight):
        if j == 0:
            if remaining == 0:
                words.append((weight, runs))
            return
        for i in range(remaining // j + 1):
            run = ((j, i),) if i else ()
            descend(j - 1, remaining - j * i, run + runs, weight / math.factorial(i))

    descend(s, s, (), 1.0)
    return tuple(words)


@dataclass
class HierarchyState:
    """Truncated series data for one marked degenerate secant.

    The fixed normalizations a_2 = -1 and a_{m+2}(eps) = eps are implied,
    never stored.  ``residuals`` holds one entry per solved order, so orders
    1..len(residuals) are solved; W rows, alpha1 and alphaj entries beyond
    them are zeros awaiting their solve (W^(1) may hold the seed direction).
    m is the number of base points and order the number of W rows.
    """

    pm: object
    u: np.ndarray
    b: list  # b_1..b_m
    W: np.ndarray  # (order, g)
    alpha1: np.ndarray  # alpha_{1,s}, s = 1..order
    alphaj: np.ndarray  # (m-1, order): alpha_{j+2,s}
    residuals: list = field(default_factory=list)

    @property
    def m(self):
        return len(self.b)

    @property
    def order(self):
        return len(self.W)


def _marked_points(pm, m, u, b_list):
    """(m, u, b_list) validated: m >= 1 and u, b_1..b_m finite g-vectors."""
    m = as_int(m, "m")
    if m < 1:
        raise ValidationError(f"m must be a positive integer, got {m}")
    return m, as_point(u, pm.g, name="u"), as_points(b_list, pm.g, "b", m)


def make_state(pm, m, u, b_list, order, w1=None):
    """Validated hierarchy state; w1 seeds the first direction (any scale)."""
    m, u, b_list = _marked_points(pm, m, u, b_list)
    order = as_int(order, "order", 1, MAX_ORDER)
    g = pm.g
    if torus_distance(pm, 2.0 * u, np.zeros(g)) < 1e-8:
        raise ValidationError("2u vanishes on the torus; the marked pair is degenerate")
    W = np.zeros((order, g), dtype=complex)
    if w1 is not None:
        w1 = as_point(w1, g, name="w1")
        if np.linalg.norm(w1) == 0.0:
            raise ValidationError("the first direction W^(1) must be nonzero")
        W[0] = w1
    return HierarchyState(
        pm=pm,
        u=u,
        b=b_list,
        W=W,
        alpha1=np.zeros(order, dtype=complex),
        alphaj=np.zeros((max(m - 1, 0), order), dtype=complex),
    )


def _clone_with_order_zeroed(state, s):
    W = state.W.copy()
    alpha1 = state.alpha1.copy()
    alphaj = state.alphaj.copy()
    W[s - 1] = 0.0
    alpha1[s - 1] = 0.0
    if alphaj.size:
        alphaj[:, s - 1] = 0.0
    return replace(state, W=W, alpha1=alpha1, alphaj=alphaj)


def _section_terms(state, upto):
    """(a(eps) through eps^upto, x) per term a(eps) theta(z - x + C/2) theta(z + x - C/2) of P.

    The normalizations a_1(0) = 1, a_2 = -1 and a_{m+2}(eps) = eps live here
    and nowhere else.
    """

    def poly(head, tail):
        arr = np.zeros(upto + 1, dtype=complex)
        arr[0] = head
        arr[1 : len(tail) + 1] = tail
        return arr

    terms = [(poly(1.0, state.alpha1[:upto]), -state.u), (poly(-1.0, []), state.u)]
    for j, b in enumerate(state.b):
        # a_{j+2}(0) = 0; the last one, a_{m+2}, is eps itself (no eps term at upto 0)
        tail = state.alphaj[j, :upto] if j < state.m - 1 else [1.0][:upto]
        terms.append((poly(0.0, tail), -b))
    return terms


def apply_delta(state, s, mult, x, z, eps=DEFAULT_EPS):
    """Delta_s applied to the translate theta_x, with directions mult*W^(j), at z.

    s, mult, z and x are validated once; mult must be a finite real number.
    s = 0 is the plain value theta(z - x).  For s >= 1 each operator word is
    one theta call at z - x, so the words share theta's per-matrix memos of
    that point and of each direction.  Words touching an all-zero scaled
    direction are skipped; they contribute nothing, so at mult 0 every word
    is skipped.  The words are walked by _delta, the walk that
    _translate_series runs once per coefficient.
    """
    expect(state, HierarchyState, "state")
    s = as_int(s, "order", 0, state.order)
    # a bool would run as 0 or 1, and a list would broadcast into another direction
    if isinstance(mult, bool) or not isinstance(mult, numbers.Real) or not math.isfinite(mult):
        raise ValidationError(f"mult must be a finite real number, got {mult!r}")
    pm = state.pm
    zx = as_point(z, pm.g, name="z") - as_point(x, pm.g, name="x")
    return _delta(pm, zx, _steps(mult, state.W[:s]), s, eps)


def _translate_series(state, x, mult, z, upto, eps):
    """[eps^k] of theta(z - x + mult*C(eps)) for k = 0..upto.

    Coefficient k is apply_delta(state, k, mult, x, z, eps=eps), bit for
    bit: z and x are validated and the directions scaled once per series, and
    row j of mult*W[:upto] has the bits of row j of mult*W[:k].
    """
    pm = state.pm
    zx = as_point(z, pm.g, name="z") - as_point(x, pm.g, name="x")
    steps = _steps(mult, state.W[:upto])
    return np.array([_delta(pm, zx, steps, k, eps) for k in range(upto + 1)])


def _steps(factor, rows):
    """factor*rows as a list of rows, None where a row is all zero (every one at factor 0)."""
    # any() on the row's list matches ndarray.any, -0.0 and NaN included, at a fraction of its cost
    return [step if any(step.tolist()) else None for step in factor * rows]


def _delta(pm, zx, steps, s, eps):
    """Delta_s at zx = z - x over scaled directions ``steps`` (None where zero); s = 0 is theta(zx)."""
    if s == 0:
        return theta(pm, zx, eps=eps)
    total = 0.0 + 0.0j
    for weight, runs in weighted_partitions(s):
        dirs = []
        for j, count in runs:
            step = steps[j - 1]
            if step is None:
                break
            dirs.extend([step] * count)
        else:
            total += weight * theta(pm, zx, deriv=dirs, eps=eps)
    return total


def _mul(a, b, upto):
    return np.convolve(a, b)[: upto + 1]


def _section_series(state, z, shift, upto, eps):
    """[eps^k] of P(z + shift*C(eps), eps) for k = 0..upto."""

    def term(a, x):
        # theta(z - x + (1/2 + shift) C) and theta(z + x + (shift - 1/2) C)
        f1 = _translate_series(state, x, 0.5 + shift, z, upto, eps)
        f2 = _translate_series(state, -x, shift - 0.5, z, upto, eps)
        return _mul(_mul(a, f1, upto), f2, upto)

    return functools.reduce(np.add, (term(a, x) for a, x in _section_terms(state, upto)))


def assemble_P(state, s, z, eps=DEFAULT_EPS):
    """Coefficient P_s(z) of the generating section, using the stored data.

    Order-s unknowns not yet solved sit at zero in the state; callers who
    want them included install them first.
    """
    expect(state, HierarchyState, "state")
    z = as_point(z, state.pm.g, name="z")
    s = as_int(s, "order", 0, state.order)
    return complex(_section_series(state, z, 0.0, s, eps)[s])


def assemble_Q(state, s, z, eps=DEFAULT_EPS):
    """P_s with the order-s unknowns zeroed; independent of them by construction."""
    expect(state, HierarchyState, "state")
    s = as_int(s, "order", 1, state.order)
    return assemble_P(_clone_with_order_zeroed(state, s), s, z, eps=eps)


def order_columns(state, z, eps=DEFAULT_EPS):
    """Affine coefficients of P_s in the order-s unknowns, evaluated at z.

    Columns: theta_u theta_{-u}; theta_{b_j} theta_{-b_j} for j <= m-1;
    and per coordinate direction e_i the commutator-like combination
    d_i theta(z+u) theta(z-u) - d_i theta(z-u) theta(z+u).
    """
    pm = state.pm
    u = state.u
    tp = theta(pm, z + u, eps=eps)
    tm = theta(pm, z - u, eps=eps)
    cols = [tp * tm]
    for j in range(state.m - 1):
        b = state.b[j]
        cols.append(theta(pm, z + b, eps=eps) * theta(pm, z - b, eps=eps))
    eye = np.eye(pm.g)
    for i in range(pm.g):
        dp = theta(pm, z + u, deriv=(eye[i],), eps=eps)
        dm = theta(pm, z - u, deriv=(eye[i],), eps=eps)
        cols.append(dp * tm - dm * tp)
    return np.array(cols)


def solve_order(state, s, samples, eps=DEFAULT_EPS):
    """Least-squares elimination of the order-s unknowns over the sample set.

    Minimizes sum_k |P_s(z_k)|^2 in the m+g unknowns and installs the
    solution into the state; s must be the next order, len(state.residuals)
    + 1.  Raises IllPosedError unless the m+g columns have full rank over
    the samples.  Returns the post-solve RMS residual normalized by the RMS
    of the column (basis-section) values, which is also appended to
    ``state.residuals``.
    """
    expect(state, HierarchyState, "state")
    following = len(state.residuals) + 1
    if as_int(s, "order") != following:
        raise ValidationError(f"orders must be solved consecutively; next is {following}")
    if s > state.order:
        raise ValidationError("order exceeds the state's truncation order")
    n_unknowns = state.m + state.pm.g
    samples = as_points(samples, state.pm.g, "samples")
    if len(samples) < 2 * n_unknowns:
        raise ValidationError(f"need at least {2 * n_unknowns} samples, got {len(samples)}")
    a_rows = np.stack([order_columns(state, z, eps=eps) for z in samples])
    rhs = -np.array([assemble_Q(state, s, z, eps=eps) for z in samples])
    # normalize by the section-product columns (the first m), not by the
    # derivative combinations whose 2 pi factors would deflate the residual
    scale = float(np.sqrt(np.mean(np.abs(a_rows[:, : state.m]) ** 2)))
    if scale == 0.0:
        raise IllPosedError("all basis sections vanish on the sample set")
    x, _, rank, _ = np.linalg.lstsq(a_rows, rhs, rcond=None)
    if rank < n_unknowns:
        raise IllPosedError(
            f"normal system rank {rank} < {n_unknowns}: sections are linearly dependent "
            "at the sample set; resample with more points"
        )
    state.alpha1[s - 1] = x[0]
    if state.m > 1:
        state.alphaj[:, s - 1] = x[1 : state.m]
    state.W[s - 1] = x[state.m :]
    residual = float(np.sqrt(np.mean(np.abs(a_rows @ x - rhs) ** 2)) / scale)
    state.residuals.append(residual)
    return residual


def run_hierarchy(state, upto, samples, eps=DEFAULT_EPS):
    """Solve orders 1..upto in sequence; abort on the first large residual.

    Raises HierarchyAbort at the first order whose residual exceeds
    _ABORT_TOL = 1e-4; the state then holds every order solved so far,
    the failing one included.  The seed direction W^(1) only
    gates validation (it must be nonzero); the order-1 solve replaces it
    with the scale-pinned direction, which for a true tangency datum is
    parallel to the seeded one.
    """
    expect(state, HierarchyState, "state")
    upto = as_int(upto, "target order", 1, state.order)
    samples = as_points(samples, state.pm.g, "samples")  # a generator is spent once, here
    solved = len(state.residuals)
    if solved == 0 and np.linalg.norm(state.W[0]) == 0.0:
        raise ValidationError("seed state must carry a nonzero first direction")
    for s in range(solved + 1, upto + 1):
        residual = solve_order(state, s, samples, eps=eps)
        if residual > _ABORT_TOL:
            raise HierarchyAbort(
                f"elimination stalled at order {s}: residual {residual:.3e} "
                f"exceeds {_ABORT_TOL:.1e}",
                order=s,
                residual=residual,
            )
    return state


def default_samples(pm, count, seed):
    """Deterministic sample points for the least-squares orders."""
    count = as_int(count, "sample count", 0)
    gen = rng(seed, 0xA5)
    return [complex_box(gen, pm.g, re_half=0.5, im_half=0.3) for _ in range(count)]


@dataclass
class PremiseReport:
    tangency_residual: float
    shifted_residuals: list
    passed: bool


def premise_check(pm, m, u, b_list, eps=DEFAULT_EPS, direction=None):
    """Rank tests for the two geometric premises of the finite-secants setup.

    (i) K(u), K(b_1), ..., K(b_m) lie on an m-plane tangent at K(u): the
    matrix of those columns plus the directional-derivative column of the
    Kummer coordinates at u must have rank <= m+1.  With no direction
    supplied, all g coordinate derivatives are adjoined and rank <= m+g is
    required (the existential form).

    (ii) for mu in {-b_1, ..., -b_{m-1}}: the tuple {u, -u, b_1..b_m}
    shifted by -(b_m + mu)/2 spans an m-plane.  The halving lift is a
    common shift of all arguments, so it cannot change the rank; the
    principal halving is used.

    Report-only: residuals are sigma ratios of column-normalized matrices,
    and the report passes when the worst is at most _PREMISE_TOL = 1e-6.
    """
    m, u, b_list = _marked_points(pm, m, u, b_list)
    g = pm.g
    if direction is not None:
        direction = as_point(direction, g, name="direction")
        if np.linalg.norm(direction) == 0.0:
            raise ValidationError("the tangency direction must be nonzero")
    # the tangency matrix, m + 1 values and one or g derivatives, is the widest;
    # its ratio sigma_min / sigma_max is the rank test only if columns <= rows
    columns = m + 1 + (1 if direction is not None else g)
    if columns > 2**g:
        raise ValidationError(f"{columns} premise columns exceed 2^g = {2**g} coordinates")

    def unit(v):
        n = np.linalg.norm(v)
        if n == 0.0:
            raise IllPosedError("zero column in premise matrix")
        return v / n

    cols = [unit(second_order_values(pm, u, eps=eps))]
    cols += [unit(second_order_values(pm, b, eps=eps)) for b in b_list]
    if direction is not None:
        cols.append(unit(second_order_derivative(pm, u, direction, eps=eps)))
    else:
        eye = np.eye(g)
        cols += [unit(second_order_derivative(pm, u, eye[i], eps=eps)) for i in range(g)]
    tangency = float(_ratios(np.stack(cols, axis=1), eps))

    shifted = []
    bm = b_list[-1]
    for j in range(m - 1):
        mu = -b_list[j]
        shift = -0.5 * (bm + mu)
        args = [u + shift, -u + shift] + [b + shift for b in b_list]
        cols = [unit(second_order_values(pm, a, eps=eps)) for a in args]
        shifted.append(float(_ratios(np.stack(cols, axis=1), eps)))

    worst = max([tangency] + shifted)
    return PremiseReport(tangency, shifted, worst <= _PREMISE_TOL)


@dataclass
class RestrictionReport:
    discrepancy: float
    r_values: list
    t_direct: list
    t_formula: list


def _validate_g_point(state, z, eps):
    pm = state.pm
    checks = [abs(theta(pm, z - state.u, eps=eps)), abs(theta(pm, z + state.u, eps=eps))]
    checks += [abs(theta(pm, z - state.b[j], eps=eps)) for j in range(state.m - 1)]
    worst = max(checks)
    if worst > _G_TOL:
        raise ValidationError(
            f"point is not on the common zero set: max |section| = {worst:.3e} > {_G_TOL:.1e}"
        )


def restriction_identity_check(state, s, g_points, eps=DEFAULT_EPS, full=False):
    """Check R_s|_G = Delta_{s-1} theta_{-b_m} . theta_{b_m} at supplied points of G.

    A point whose defining sections are not all below _G_TOL = 1e-8 in
    modulus is not on G and raises ValidationError.

    R_s is assembled honestly as the order-s coefficient of the section
    shifted by +C/2; the right side uses the full-scale Delta stack.
    Returns the max normalized R-discrepancy, or the full report when
    ``full`` is set.  Only then is T_s (the section shifted by -C/2)
    computed, two ways: directly, and by the eps-degree formula (inner
    order s - l).
    """
    expect(state, HierarchyState, "state")
    s = as_int(s, "order", 1, state.order)
    g_points = as_points(g_points, state.pm.g, "G points")
    if not g_points:
        raise ValidationError("need at least one point of G")
    pm = state.pm
    bm = state.b[-1]
    disc = 0.0
    r_vals, t_dir, t_frm = [], [], []
    for z in g_points:
        _validate_g_point(state, z, eps)

        r_s = complex(_section_series(state, z, +0.5, s, eps)[s])
        rhs = apply_delta(state, s - 1, 1.0, -bm, z, eps=eps) * theta(pm, z - bm, eps=eps)
        r_vals.append(r_s)
        disc = max(disc, abs(r_s - rhs) / max(1.0, abs(rhs)))
        if not full:
            continue

        t_dir.append(complex(_section_series(state, z, -0.5, s, eps)[s]))
        t_main = apply_delta(state, s - 1, -1.0, bm, z, eps=eps) * theta(pm, z + bm, eps=eps)
        for j in range(state.m - 1):
            b = state.b[j]
            tb = theta(pm, z + b, eps=eps)
            for ell in range(1, s + 1):
                coeff = state.alphaj[j, ell - 1]
                if coeff == 0.0:
                    continue
                t_main += coeff * tb * apply_delta(state, s - ell, -1.0, b, z, eps=eps)
        t_frm.append(t_main)

    if full:
        return RestrictionReport(disc, r_vals, t_dir, t_frm)
    return disc


def find_section_intersection(pm, offsets, seed):
    """Damped Newton for a common zero of theta(z - x_i) over the given offsets.

    Square when g equals the number of sections; extra coordinates (g
    larger) are pinned to seeded constants.  Feasible only for g >= the
    number of sections.  Theta is evaluated to NEWTON_EPS = 1e-14 and a
    common zero has every |theta(z - x_i)| < NEWTON_TOL = 1e-11; each of
    _INTERSECTION_RESTARTS = 16 seeded starts gets _INTERSECTION_MAX_ITER
    = 80 Newton steps of util.newton, the iteration every root finder
    shares.  Raises ConvergenceFailure with one (restart, iterations,
    residual) row per start when none converges.
    """
    g = pm.g
    offsets = as_points(offsets, g, "offsets")
    k = len(offsets)
    if k == 0:
        raise ValidationError("need at least one section offset")
    if k > g:
        raise ValidationError(f"{k} sections in dimension g={g}: overdetermined")
    gen = rng(seed, 0x61)
    eye = np.eye(g)
    trace = []
    for attempt in range(_INTERSECTION_RESTARTS):
        pin = complex_box(gen, g, re_half=0.4, im_half=0.3)
        free_idx = list(range(k))

        def embed(w):
            z = pin.copy()
            z[free_idx] = w
            return z

        def residual(w):
            return np.array([theta(pm, embed(w) - x, eps=NEWTON_EPS) for x in offsets])

        def step(w, fvec):
            jac = np.array(
                [
                    [theta(pm, embed(w) - x, deriv=(eye[i],), eps=NEWTON_EPS) for i in free_idx]
                    for x in offsets
                ]
            )
            try:
                return np.linalg.solve(jac, -fvec)
            except np.linalg.LinAlgError:
                return None

        w = complex_box(gen, k, re_half=0.4, im_half=0.3)
        w, res, it = newton(residual, step, w, _INTERSECTION_MAX_ITER)
        if res < NEWTON_TOL:
            return embed(w)
        trace.append((attempt, it, res))
    raise ConvergenceFailure(
        f"no common zero found after {_INTERSECTION_RESTARTS} restarts", trace=trace
    )
