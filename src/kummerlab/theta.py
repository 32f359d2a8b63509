"""Riemann theta evaluation by truncated lattice sums.

Convention used everywhere in this package (zero characteristic):

    theta(z) = sum over n in Z^g of exp(i pi n.tau.n + 2 pi i n.z)

for tau symmetric with positive-definite imaginary part Y = Im(tau).
This function is even and quasi-periodic,

    theta(z + tau n + m) = exp(-i pi n.tau.n - 2 pi i n.z) theta(z),

and the evaluator always reduces the argument by the period lattice first,
tracking the exponential prefactor exactly, so the summed series stays
numerically small no matter how large the input is.  One reduction does
this for every caller, _cell for a point and _cell_rows for the rows of a
block: z = z_red + m0 + tau n0 with n0 = rint(Y^-1 Im z), and w the
exponent of the prefactor exp(w).  Both hold the guards that refuse an
argument whose n0 doubles cannot resolve, and both take a shortcut where
n0 = 0: z_red = z - rint(Re z) and w = 0, with no translate by tau n0 and
no prefactor.  The shortcut gives the bits of the full steps.
kummerlab.kummer reduces its points through them too.

Directional derivatives are exact: each direction W contributes the
per-term factor 2 pi i (n.W).  Finite differences never appear here.

Truncation: terms are summed over integer points inside an ellipsoid
||T(n + q)|| <= R where T is the Cholesky factor of Y (so ||T x||^2 =
x.Y.x) and q = Y^{-1} Im(z) after reduction.  The radius R comes from a
provable Gaussian-tail bound: each excluded lattice point owns a disjoint
ball of radius rho/2 (rho a lower bound on the shortest vector of T Z^g),
so the excluded mass is at most an explicit incomplete-gamma integral,
with the polynomial derivative factors bounded by (2 pi)^N (r/s + c)^N.
Larger derivative order or smaller eps never shrinks the radius.  The
upper incomplete gamma Gamma(a, x) is only needed at integer and
half-integer a = (g + j)/2, where it has a closed form: start from
Gamma(1, x) = e^-x or Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)) and recur
upward with Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x.

Enumeration scans the box |n_i| <= ceil(R / s_min) in slabs of at most
_SLAB_ROWS rows, in the box's lexicographic order, keeping the points inside
the ellipsoid.  The kept points and their order, and so every sum's bits,
are those of a scan that holds the whole box, but memory stays at one slab:
a genus-5 build over 21^5 box points peaks at a few MB, not most of a GB.
_BOX_BUDGET still bounds the points scanned, refused before any allocation.

Blocks: the private kernel _theta_rows evaluates plain theta at every row
of a (k, g) array with one reduction and one lattice pass, exp(2 pi i
z_red.n) times the Gaussian phases summed over one lattice for all rows.
Its radius is theta's rule taken at the smallest effective eps of the block,

    _bucket(_solve_radius(0, 0, min_i eps_i d_i / max(1, |exp(w_i)|)) + half_diag)

with d_i = exp(-pi q_i.Y.q_i) the damping of row i.  The tail bound grows
as eps falls, so each row still meets its own eps.  At order 0 the bound
does not depend on the tail offset c0 (its one coefficient is gamma^0 = 1),
so the radius cache keeps one order-0 entry per eps decade.  When every
row has n0 = 0, as every doubled-matrix argument of the second-order basis
(kummerlab.kummer) has unless rounding puts it on a cell boundary, the
block takes _cell_rows' shortcut, damping exponent q.Im z and no exp(w)
product.  The sums agree with theta's to rounding, not bit for bit; the
point memos below are theta's alone, as a block's points are seldom
revisited.

All evaluation state lives on the PeriodMatrix and dies with it; nothing
is shared between matrices.  Each matrix keeps its solved radii, its
enumerated lattice points (with their z-independent Gaussian phases and a
complex copy of the points, so the phase product n.z casts no integers per
call) per enumeration radius, and four small memos:

- points: the reduction of the last few points z: z_red, n0, the
  prefactor exponent w and its capped magnitude, the damping
  exp(-pi q.Y.q), and the tail offset c0 already rounded up to the radius
  cache's 1/4 grid, so a hit builds no radius key beyond the eps decade.
  A point with n0 = 0 takes _cell's shortcut and the damping exponent
  q.Im z (= q.Y.q there), and its calls skip the exp(w) product, which by
  exp(0) = 1 changes no bit of a nonzero part.  Every call of the
  second-order basis (kummerlab.kummer) lands there;
- phases: per point and enumeration radius, the phase vector
  exp(i pi n.tau.n + 2 pi i n.z_red) and, once a derivative needs them,
  the shifted points n - n0;
- directions: per direction W (keyed by its bytes as a complex vector),
  its norm and unit vector u = W / ||W||.  Only a direction that passed
  validation is stored, so a hit skips the finiteness check, which those
  same bytes already passed;
- factors: per point, enumeration radius and unit u, the per-term
  derivative factor 2 pi i (n - n0).u.

The words of one Delta_s expansion call theta at one point with the same
few directions, so after the first word a derivative call pays only for
its own products, and a plain-value call (deriv the empty tuple) skips
the direction machinery altogether.  A memo holds at most its private
size (_MEMO_SIZE points, _DIRECTION_MEMO_SIZE directions,
_FACTOR_MEMO_SIZE factors) and is cleared when full.  Entries are
immutable tuples of read-only arrays, inserted whole and computed from
the key alone, so a lost or repeated insert under concurrent use changes
no result.
"""

import itertools
import math
import numbers

import numpy as np

from .errors import IllPosedError, ValidationError
from .util import _COMPLEX, as_array, as_int, as_point, check_positive

DEFAULT_EPS = 1e-12
MAX_DERIV_ORDER = 12

_TWO_PI_I = 2j * np.pi
_FLOAT = np.dtype(float)
_RADIUS_STEP = 0.25
_RADIUS_MAX = 48.0
# entries per point memo; consecutive calls revisit a handful of points
_MEMO_SIZE = 4
# a Delta_s expansion uses at most MAX_DERIV_ORDER directions per sign
_DIRECTION_MEMO_SIZE = 2 * MAX_DERIV_ORDER
# those units at the few enumeration radii one point's words reach
_FACTOR_MEMO_SIZE = 4 * MAX_DERIV_ORDER
# largest real part of a prefactor exponent that is exponentiated as is;
# e^700 leaves room below the double range for the tame sum it scales
_EXP_MAX = 700.0
# n0 = rint(Y^-1 Im z) is exact only while |Y^-1 Im z| < 2^53
_REDUCIBLE = 2.0**53
# smallest normal double; an incomplete gamma below it has lost its digits
_TINY = 2.2250738585072014e-308
# most points one box scan may visit: over 4x the 21^5 box of a well-
# conditioned genus-5 matrix at the default accuracy
_BOX_BUDGET = 2**24
# most rows one slab of the box scan holds: 2^16 x g int64s, about 2.6 MB at g = 5
_SLAB_ROWS = 2**16


class _LatticePoints:
    """Integer points with ||T n|| <= radius plus their Gaussian phases exp(i pi n.tau.n).

    ``cpoints`` is the same points as complex, so the phase product n.z casts
    them once per lattice rather than once per call, with the same bits.
    """

    __slots__ = ("radius", "points", "cpoints", "gauss")

    def __init__(self, radius, points, gauss):
        self.radius = radius
        self.points = points
        self.cpoints = points.astype(complex)
        self.gauss = gauss


class PeriodMatrix:
    """A symmetric g x g complex matrix with positive-definite imaginary part.

    Derived quantities used by the evaluator are computed once here: the
    Cholesky factor T of Im(tau) and the extreme eigenvalues of Im(tau)
    (lam_min is recorded for validation and error bounds).  The matrix also
    owns the evaluator's caches (solved radii, lattice points per radius,
    and the bounded point memos), so they are freed with it.  Instances are
    treated as immutable.
    """

    def __init__(self, tau):
        tau = as_array(tau, "period matrix entries must be numbers")
        if tau.ndim != 2 or tau.shape[0] != tau.shape[1] or tau.shape[0] < 1:
            raise ValidationError(f"period matrix must be square, got shape {tau.shape}")
        if not np.all(np.isfinite(tau)):
            raise ValidationError("period matrix entries must be finite")
        scale = max(np.abs(tau).max(), 1.0)
        asym = np.abs(tau - tau.T).max()
        if asym > 1e-14 * scale:
            raise ValidationError(
                f"period matrix is not symmetric: max |tau_ij - tau_ji| = {asym:.3e} "
                f"exceeds 1e-14 * max|tau| = {1e-14 * scale:.3e}"
            )
        tau = 0.5 * (tau + tau.T)
        y = tau.imag.copy()
        eigs = np.linalg.eigvalsh(y)
        if eigs[0] <= 0.0:
            raise ValidationError(
                f"imaginary part is not positive definite: smallest eigenvalue {eigs[0]:.3e}"
            )
        self.g = tau.shape[0]
        self.tau = tau
        self.im = y
        self.re = tau.real.copy()
        self.im_inv = np.linalg.inv(y)
        if not np.all(np.isfinite(self.im_inv)):
            raise ValidationError(
                f"imaginary part is numerically singular: smallest eigenvalue {eigs[0]:.3e} "
                "has no finite inverse"
            )
        self.lam_min = float(eigs[0])
        self.lam_max = float(eigs[-1])
        self.s_min = math.sqrt(self.lam_min)
        self.s_max = math.sqrt(self.lam_max)
        # T with ||T x||^2 = x.Y.x; numpy cholesky returns L with L L^T = Y
        self.chol = np.linalg.cholesky(y).T
        # |Im z| = |Y q| <= lam_max |q|, so past this |q| is past 2^54, beyond the
        # reduction guard with room for rounding; refused before any product overflows
        self._reach = 2.0 * _REDUCIBLE * self.lam_max
        # |q| <= sqrt(g) ||Y^-1||_inf max |Im z_i|, so below this largest entry |q| is
        # under half of 2^53, with room for the rounding of q and of hypot
        inf_norm = float(np.abs(self.im_inv).sum(axis=1).max())
        self._tame = 0.5 * _REDUCIBLE / (math.sqrt(self.g) * inf_norm)
        # worst-case ||T q|| over the reduced cube |q_i| <= 1/2
        self.half_diag = 0.5 * math.sqrt(self.g) * self.s_max
        self._radius_cache = {}  # (order, c0_q, eps) -> radius
        self._lattice = {}  # enumeration radius -> _LatticePoints
        self._reduced = {}  # z bytes -> (z bytes, z_red, n0, w, pmag, exp(-pi q.Y.q), c0_q)
        self._phases = {}  # (z bytes, enumeration radius) -> (phase vector, n - n0)
        self._directions = {}  # W bytes -> (norm, unit u, u bytes)
        self._factors = {}  # (z bytes, enumeration radius, u bytes) -> 2 pi i (n - n0).u

    def __repr__(self):
        return f"PeriodMatrix(g={self.g}, lam_min={self.lam_min:.4g})"


def make_period_matrix(g, entries):
    """Validate and build a PeriodMatrix of dimension g."""
    g = as_int(g, "dimension", 1)
    entries = as_array(entries, "period matrix entries must be numbers")
    if entries.shape != (g, g):
        raise ValidationError(f"expected a {g}x{g} matrix, got shape {entries.shape}")
    return PeriodMatrix(entries)


def reduce_argument(pm, z):
    """Split z = z_red + tau n0 + m0 with z_red in the reduced cell.

    Returns (z_red, n0, m0, w) where exp(w) is the exact quasi-periodicity
    prefactor: theta(z) = exp(w) * theta(z_red).  n0 and m0 are integer
    vectors held as floats.  Raises IllPosedError once |Y^-1 Im z| reaches
    2^53, where doubles are spaced more than 1 apart and no longer resolve
    the lattice shift n0.
    """
    _, n0, z_red, w = _cell(pm, z)
    return z_red, n0, _translate(pm, z, n0)[1], w


def _cell(pm, z):
    """(q, n0, z_red, w) of reduce_argument, with q = Y^-1 Im z and n0 = rint(q).

    Both reduction guards run here.  When n0 = 0, z_red = z - rint(Re z) and
    w = 0, with no translate by tau n0 and no prefactor.
    """
    im = z.imag
    _check_reach(pm, math.hypot(*im.tolist()))
    q = pm.im_inv.dot(im)  # the product of @, with less call overhead
    # hypot, unlike q.q, does not overflow before the bound can refuse q
    if not math.hypot(*q.tolist()) < _REDUCIBLE:
        raise _unreducible(q)
    n0 = np.rint(q)
    if not any(n0.tolist()):  # ndarray.any costs about as much as the whole n0 = 0 branch
        return q, n0, z - np.rint(z.real), 0j
    z_red = _translate(pm, z, n0)[0]
    return q, n0, z_red, -1j * np.pi * (n0 @ pm.tau @ n0) - _TWO_PI_I * (n0 @ z_red)


def _check_reach(pm, size):
    """IllPosedError when ``size``, a lower bound on |Im z|, is past the matrix's reach.

    Such a z has |Y^-1 Im z| past 2^53 too, so this refuses nothing that the
    guard on q accepts; it runs first because Y^-1 Im z can overflow before
    that guard sees q.  hypot gives inf, not a warning, where the norm itself
    overflows.
    """
    if not size < pm._reach:
        raise IllPosedError(
            f"argument too large to reduce: |Im z| = {size:.3e} puts |Y^-1 Im z| past 2^53, "
            "where doubles no longer resolve the lattice shift"
        )


def _unreducible(q):
    return IllPosedError(
        f"argument too large to reduce: max |Y^-1 Im z| = {np.abs(q).max():.3e} "
        "is past 2^53, where doubles no longer resolve the lattice shift"
    )


def _translate(pm, z, n0):
    """(z_red, m0) with z_red = z - tau n0 - m0 and m0 = rint(Re(z - tau n0))."""
    z1 = z - pm.tau @ n0
    m0 = np.rint(z1.real)
    return z1 - m0, m0


def _cell_rows(pm, v):
    """_cell of every row of a (k, g) array: q, n0, z_red and w as arrays, with the same guards.

    _reduce_rows gives q, n0 and z_red; the prefactor exponent w is added on
    top, zero for a block whose rows all have n0 = 0.
    """
    q, n0, z_red, tau_n = _reduce_rows(pm, v)
    if tau_n is None:
        return q, n0, z_red, np.zeros(len(v), dtype=complex)
    return q, n0, z_red, -1j * np.pi * (tau_n * n0).sum(axis=1) - _TWO_PI_I * (n0 * z_red).sum(axis=1)


def _reduce_rows(pm, v):
    """(q, n0, z_red, tau n0) of every row, with _cell_rows' guards and no prefactor exponent.

    A block whose rows all have n0 = 0 takes _cell's n0 = 0 steps and gives
    tau n0 as None; otherwise every row takes _translate_rows, where n0 = 0
    leaves z_red as _cell does.
    """
    im = v.imag
    # the largest entry bounds the |Im z| of its own row from below; the ufunc
    # reduce and count_nonzero below skip the ndarray.max / .any wrappers
    size = float(np.maximum.reduce(np.abs(im), axis=None, initial=0.0))
    _check_reach(pm, size)
    q = im @ pm.im_inv.T
    # the same entry bounds every row's |q|: hypot runs only where that bound is close
    # to 2^53 (initial=0 makes a one-column reduce |q|, not q)
    if not size < pm._tame and not (np.hypot.reduce(q, axis=1, initial=0.0) < _REDUCIBLE).all():
        raise _unreducible(q)
    n0 = np.rint(q)
    if not np.count_nonzero(n0):
        return q, n0, v - np.rint(v.real), None
    return (q, n0) + _translate_rows(pm, v, n0)


def _translate_rows(pm, v, n0):
    """(z_red, tau n0) of _reduce_rows' full path: the translate by tau n0."""
    tau_n = n0 @ pm.tau
    z1 = v - tau_n
    return z1 - np.rint(z1.real), tau_n


def lattice_reduce(pm, v):
    """Representative of v modulo Z^g + tau Z^g in the reduced cell of reduce_argument.

    Raises ValidationError unless v is a finite length-g vector, and
    IllPosedError where reduce_argument does.
    """
    return _cell(pm, as_point(v, pm.g, name="v"))[2]


def torus_distance(pm, p, q):
    """Euclidean norm of the lattice-reduced difference p - q."""
    diff = as_point(p, pm.g, name="p") - as_point(q, pm.g, name="q")
    return float(np.linalg.norm(lattice_reduce(pm, diff)))


def _direction(pm, w, k):
    """(norm, unit, unit bytes) of direction k, memoized per matrix by its bytes.

    A float64 row is keyed as its complex twin and a row of any other kind
    misses; a miss runs the full as_point check first, so only a validated
    direction is ever stored; unit is None for the zero direction.
    """
    if type(w) is np.ndarray and w.dtype is _FLOAT:
        w = w.astype(complex)
    keyed = type(w) is np.ndarray and w.dtype is _COMPLEX and w.shape == (pm.g,)
    hit = pm._directions.get(w.tobytes()) if keyed else None
    if hit is None:
        arr = as_point(w, pm.g, name=f"derivative direction {k}")
        n = _norm(arr)
        unit = _frozen(arr / n) if n else None
        hit = (n, unit, None if unit is None else unit.tobytes())
        _remember(pm._directions, arr.tobytes(), hit, _DIRECTION_MEMO_SIZE)
    return hit


def _validate_deriv(pm, deriv):
    """Validated directions as runs [(norm, unit, unit bytes), count] of one repeated object.

    Delta words pass each W^(j) as a run of the same array, so a run is
    looked up once.  Every run is validated before the caller acts on a
    zero norm.
    """
    runs = []
    last = None
    order = 0
    try:
        items = enumerate(deriv)
    except TypeError:
        raise ValidationError(f"deriv must be a sequence of directions, got {deriv!r}") from None
    for k, w in items:
        order += 1
        if runs and w is last:
            runs[-1][1] += 1
            continue
        runs.append([_direction(pm, w, k), 1])
        last = w
    if order > MAX_DERIV_ORDER:
        raise ValidationError(f"derivative order {order} exceeds maximum {MAX_DERIV_ORDER}")
    return runs


def _norm(v):
    """np.linalg.norm of a 1-D float or complex vector, same arithmetic, no dispatch."""
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def _remember(memo, key, value, size=_MEMO_SIZE):
    # a full memo starts over: the next calls revisit the newest entries
    if key not in memo and len(memo) >= size:
        memo.clear()
    memo[key] = value


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _reduced(pm, z):
    """(key, z_red, n0, w, pmag, exp(-pi q.Y.q), c0_q) of a validated point, memoized per matrix.

    exp(w) is the quasi-periodicity prefactor, pmag its magnitude capped at
    e^700, q = Y^-1 Im(z_red), and c0_q the tail-bound offset
    c0 = ||q + n0|| rounded up to the radius cache's grid.  When n0 = 0,
    z_red = z - m0, q is the q of the shift itself and w = 0.
    """
    key = z.tobytes()
    hit = pm._reduced.get(key)
    if hit is None:
        q, n0, z_red, w = _cell(pm, z)
        if any(n0.tolist()):
            q = pm.im_inv @ z_red.imag
            c0 = _norm(q + n0)
            qq = float(q @ pm.im @ q)
        else:
            c0 = _norm(q)
            qq = float(q.dot(z.imag))  # q.Y.q, as Im z = Y q here
        hit = (key, _frozen(z_red), _frozen(n0), w, math.exp(min(w.real, _EXP_MAX)),
               math.exp(-math.pi * qq), math.ceil(c0 * 4.0) / 4.0)
        _remember(pm._reduced, key, hit)
    return hit


def _upper_gamma(a, x):
    """Upper incomplete gamma Gamma(a, x) for integer or half-integer a > 0 and x > 0.

    Every term of the upward recurrence is positive, so nothing cancels;
    x^b e^-x is formed as exp(b log x - x), which stays accurate where
    e^-x alone would be subnormal.
    """
    if a % 1.0:
        b, total = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    else:
        b, total = 1.0, math.exp(-x)
    log_x = math.log(x)
    while b < a:
        total = b * total + math.exp(b * log_x - x)
        b += 1.0
    return total


def _log_upper_gamma(a, x):
    """Upper bound on log Gamma(a, x), for x where Gamma(a, x) itself underflows.

    Runs the upward recurrence on Gamma(b, x) e^x, whose terms b S + x^b
    stay in range; the half-integer start sqrt(pi) erfc(sqrt x) e^x is
    bounded by 1/sqrt(x), so the result never undershoots.
    """
    if a % 1.0:
        b, total = 0.5, 1.0 / math.sqrt(x)
    else:
        b, total = 1.0, 1.0
    while b < a:
        total = b * total + x**b
        b += 1.0
    return math.log(total) - x


def _tail_bound(g, s_min, order, c0, radius):
    """Upper bound on the lattice-sum mass outside the ellipsoid of the given radius.

    Bound for unit-norm derivative directions and with the exp(pi q.Y.q)
    scale factored out by the caller.  Every excluded point n owns a
    disjoint ball of radius rho/2 around v = T(n+q); on that ball the
    integrand (2 pi)^N (||x||/s + c)^N exp(-pi ||x||^2) dominates the term,
    which gives the incomplete-gamma expression below.  Once an incomplete
    gamma leaves the normal double range (tiny s_min, where its coefficient
    is huge), the sum is formed in log space instead of reading 0; a
    coefficient past double range still raises (OverflowError, or
    ZeroDivisionError once (rho/2)^g underflows to 0).
    """
    rho = s_min  # ||T n|| >= s_min ||n|| >= s_min for n != 0
    r0 = radius - 0.5 * rho
    if r0 <= 0.0:
        return math.inf
    beta = 1.0 / s_min
    gamma = c0 + 0.5 * rho / s_min
    count_factor = g / (0.5 * rho) ** g
    x = math.pi * r0 * r0
    total = 0.0
    parts = []  # (coefficient, a, Gamma(a, x))
    for j in range(order + 1):
        a = 0.5 * (g + j)
        coef = math.comb(order, j) * beta**j * gamma ** (order - j)
        upper = _upper_gamma(a, x)
        total += coef * (upper / (2.0 * math.pi**a))
        parts.append((coef, a, upper))
    scale = (2.0 * math.pi) ** order * count_factor
    if all(upper >= _TINY for _, _, upper in parts):
        return scale * total
    logs = [
        math.log(coef) - math.log(2.0 * math.pi**a)
        + (math.log(upper) if upper >= _TINY else _log_upper_gamma(a, x))
        for coef, a, upper in parts
    ]
    top = max(logs)
    log_bound = math.log(scale) + top + math.log(sum(math.exp(v - top) for v in logs))
    return math.exp(log_bound)  # OverflowError past double range, as beta**j


def _solve_radius(pm, order, c0_q, eps):
    """Smallest radius on a fixed grid whose tail bound is below eps.

    Cached per (order, c0_q, decade of eps), where c0_q is the offset c0
    rounded up to a multiple of 1/4 (the point memo holds it); both roundings
    go toward the safe side, so the cached radius stays valid.  Raises
    IllPosedError when no radius up to _RADIUS_MAX meets the bound, or the
    bound overflows (Im(tau) too ill-conditioned), rather than truncate at
    a radius whose tail is not below eps.
    """
    if eps <= 0.0 or not math.isfinite(eps):
        eps_q = 1e-300
    else:
        eps_q = 10.0 ** math.floor(math.log10(eps))
    # the order-0 bound does not depend on c0 (its one coefficient is gamma^0 = 1),
    # so every plain value at one eps decade shares one entry
    key = (order, c0_q if order else 0.0, eps_q)
    hit = pm._radius_cache.get(key)
    if hit is not None:
        return hit
    r = max(1.0, 0.5 * pm.s_min + _RADIUS_STEP)
    while True:
        try:
            bound = _tail_bound(pm.g, pm.s_min, order, c0_q, r)
        except (OverflowError, ZeroDivisionError):
            # a coefficient past double range: beta**j overflows or (rho/2)^g underflows
            bound = math.inf
        # a NaN bound (inf * 0) is no bound: keep growing the radius
        if bound <= eps_q:
            break
        if r >= _RADIUS_MAX:
            raise IllPosedError(
                f"no truncation radius up to {_RADIUS_MAX} bounds the tail by {eps_q:.1e} "
                f"(order {order}, s_min {pm.s_min:.3e}, c0 {c0_q}); "
                "Im(tau) is too ill-conditioned for this accuracy"
            )
        r += _RADIUS_STEP
    pm._radius_cache[key] = r
    return r


def truncation_radius(pm, z, order=0, eps=DEFAULT_EPS):
    """Radius R such that the series tail outside ||T(n+q)|| <= R is below eps.

    Monotone by construction: the result is the running maximum of the
    solved radii over derivative orders 0..order, and the underlying
    solver never shrinks with decreasing eps.
    """
    check_positive(eps, "eps")
    order = as_int(order, "order", 0, MAX_DERIV_ORDER)
    z = as_point(z, pm.g, name="z")
    _, _, _, _, _, damp, c0_q = _reduced(pm, z)
    eps_solver = eps * damp
    return max(_solve_radius(pm, n, c0_q, eps_solver) for n in range(order + 1))


def lattice_points(pm, radius):
    """All integer points with ||T n|| <= radius, with cached Gaussian phases.

    Enumeration scans the box |n_i| <= ceil(radius / s_min) in slabs of at
    most _SLAB_ROWS rows (see _box_slabs), keeping the points inside the
    ellipsoid in the box's lexicographic order, so the whole box is never
    held at once.  The entry is cached on the matrix per radius.  Raises
    ValidationError unless radius is a finite non-negative real number, and
    IllPosedError, before allocating, when the box holds more than
    _BOX_BUDGET points: the budget bounds the points scanned.
    """
    try:
        hit = pm._lattice.get(radius)
    except TypeError:  # unhashable, so no number: refused below
        hit = None
    # only valid radii are stored; True and False equal 1.0 and 0.0, so only a bool can hit wrongly
    if hit is not None and type(radius) is not bool:
        return hit
    if (isinstance(radius, bool) or not isinstance(radius, numbers.Real)
            or not 0.0 <= radius < math.inf):
        raise ValidationError(f"radius must be finite and non-negative, got {radius!r}")
    g = pm.g
    reach = radius / pm.s_min
    # a reach this large is past the budget at any g, and may be an overflowed inf
    bound = math.ceil(reach) if reach < _BOX_BUDGET else None
    if bound is None or (2 * bound + 1) ** g > _BOX_BUDGET:
        side = 2 * (reach if bound is None else bound) + 1
        raise IllPosedError(
            f"lattice box of ({side:.3e})^{g} points at radius {radius} exceeds "
            f"{_BOX_BUDGET} (s_min {pm.s_min:.3e}); Im(tau) is too ill-conditioned"
        )
    kept = []
    for slab in _box_slabs(g, bound):
        norms = np.linalg.norm(slab @ pm.chol.T, axis=1)
        kept.append(slab[norms <= radius])
    pts = np.concatenate(kept)
    quad = np.einsum("ij,jk,ik->i", pts, pm.tau, pts)
    gauss = np.exp(1j * np.pi * quad)
    entry = _LatticePoints(radius, pts, gauss)
    pm._lattice[radius] = entry
    return entry


def _box_slabs(g, bound):
    """The box |n_i| <= bound in C (lexicographic) order, as int64 slabs of g columns.

    The trailing t coordinates, the most whose box of (2 bound + 1)^t rows
    fits in _SLAB_ROWS, form a grid built once; each tuple of leading
    coordinates, in increasing lexicographic order, is written over the
    slab's leading columns.  When a single axis is longer than a slab, the
    last axis is cut into runs instead.  The slab is overwritten by the next
    one, so a caller keeps copies of the rows it needs.
    """
    side = 2 * bound + 1
    t = 0
    while t < g and side ** (t + 1) <= _SLAB_ROWS:
        t += 1
    heads = itertools.product(range(-bound, bound + 1), repeat=g - max(t, 1))
    if t == 0:
        for head in heads:
            for lo in range(-bound, bound + 1, _SLAB_ROWS):
                run = np.arange(lo, min(lo + _SLAB_ROWS, bound + 1), dtype=np.int64)
                slab = np.empty((run.size, g), dtype=np.int64)
                slab[:, :-1] = head
                slab[:, -1] = run
                yield slab
        return
    axis = np.arange(-bound, bound + 1, dtype=np.int64)
    slab = np.empty((side**t, g), dtype=np.int64)
    for k, column in enumerate(np.meshgrid(*[axis] * t, indexing="ij")):
        slab[:, g - t + k] = column.ravel()
    for head in heads:
        slab[:, : g - t] = head
        yield slab


def _bucket(radius):
    return math.ceil(radius * 2.0) / 2.0


def theta(pm, z, deriv=(), eps=DEFAULT_EPS):
    """Evaluate theta (or a mixed directional derivative) to absolute accuracy eps.

    ``deriv`` is a sequence of direction vectors; each contributes a factor
    2 pi i (n.W) per lattice term.  A zero direction makes the derivative
    vanish identically and returns 0 at once.  Identical inputs give
    bit-identical results within one process, whatever the matrix
    evaluated before.
    """
    check_positive(eps, "eps")
    z = as_point(z, pm.g, name="z")
    runs, order, dir_scale = (), 0, 1.0
    if type(deriv) is not tuple or deriv:
        runs = _validate_deriv(pm, deriv)
        norms = []
        for (n, unit, _), count in runs:
            if unit is None:
                return 0.0 + 0.0j
            norms += [n] * count
        order = len(norms)
        dir_scale = math.prod(norms) if norms else 1.0

    zkey, z_red, n0, w, pmag, damp, c0_q = _reduced(pm, z)
    eps_eff = eps / max(1.0, pmag * dir_scale)
    radius = _bucket(_solve_radius(pm, order, c0_q, eps_eff * damp) + pm.half_diag)
    pts = lattice_points(pm, radius)

    # (phase vector, lattice points n - n0 as complex once a factor needs them)
    key = (zkey, radius)
    hit = pm._phases.get(key)
    if hit is None:
        hit = (_frozen(pts.gauss * np.exp(_TWO_PI_I * (pts.cpoints @ z_red))), None)
        _remember(pm._phases, key, hit)
    phase, shifted = hit
    terms = phase
    for (_, unit, ukey), count in runs:
        fkey = (zkey, radius, ukey)
        factor = pm._factors.get(fkey)
        if factor is None:
            if shifted is None:
                shifted = _frozen((pts.points - n0).astype(complex))
                _remember(pm._phases, key, (phase, shifted))
            factor = _frozen(_TWO_PI_I * (shifted @ unit))
            _remember(pm._factors, fkey, factor, _FACTOR_MEMO_SIZE)
        for _ in range(count):
            terms = terms * factor
    total = terms.sum()
    if w.real < _EXP_MAX and pmag * dir_scale * float(abs(total)) < 1e300:
        if not w:  # n0 = 0, so exp(w) = 1
            return complex(dir_scale * total)
        return complex(np.exp(w) * dir_scale * total)
    # the prefactor may exceed double range for extreme arguments; the
    # reduced sum itself is always tame, so inf here is an honest answer
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.exp(w) * dir_scale * total)
    if math.isnan(value.real) or math.isnan(value.imag):
        value = _overflowed(w, dir_scale, total)
    return value


def _theta_rows(pm, rows, eps):
    """Plain theta at every row of a (k, g) complex array, row i to absolute accuracy eps[i].

    One reduction (_cell_rows, with its guards) and one lattice pass at the
    block's shared radius (module docstring).  A block whose rows all have
    n0 = 0 takes theta's n0 = 0 steps: damping exponent q.Im z, with no
    exp(w) product.  Otherwise a row's value is exp(w_i) times its sum, with
    theta's handling of a prefactor past double range.  The rows and eps are
    trusted: validated points and positive finite eps.
    """
    q, n0, z_red, w = _cell_rows(pm, rows)
    shifted = np.count_nonzero(n0)
    if shifted:
        # q - n0 = Y^-1 Im z_red, so (q - n0).Im z_red is the reduced point's q.Y.q
        eps = eps * np.exp(-np.pi * ((q - n0) * z_red.imag).sum(axis=1))
        eps = eps / np.maximum(1.0, np.exp(np.minimum(w.real, _EXP_MAX)))
    else:
        eps = eps * np.exp(-np.pi * (q * rows.imag).sum(axis=1))  # q.Y.q, as Im z = Y q here
    # the order-0 radius does not depend on the tail offset c0
    radius = _bucket(_solve_radius(pm, 0, 0.0, float(eps.min())) + pm.half_diag)
    pts = lattice_points(pm, radius)
    totals = np.exp(_TWO_PI_I * (z_red @ pts.cpoints.T)) @ pts.gauss
    if not shifted:
        return totals
    # exp(w) may leave double range, as in theta; inf is then the honest answer
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(w) * totals
    for i in np.flatnonzero(np.isnan(values)).tolist():
        values[i] = _overflowed(w[i], 1.0, totals[i])
    return values


def _overflowed(w, dir_scale, total):
    """exp(w) * dir_scale * total where exp(w) overflows, with no NaN component.

    The complex product (inf + inf i)(a + b i) forms inf - inf; rotating the
    tame sum by exp(i Im w) first and scaling each component by the real
    magnitude e^Re(w) dir_scale apart leaves +-inf, or 0 for a zero component.
    """
    rotated = complex(math.cos(w.imag), math.sin(w.imag)) * complex(total)
    with np.errstate(over="ignore"):
        mag = float(np.exp(w.real)) * dir_scale
    re, im = (part * mag if part else 0.0 for part in (rotated.real, rotated.imag))
    return complex(re, im)
