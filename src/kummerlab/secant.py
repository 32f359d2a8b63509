"""Secant-plane detection and verification on the Kummer variety.

A configuration is the data (Y = {a_1, ..., a_{m+2}}, zeta): the m+2
Kummer points K(zeta + a_i) are asked to lie on a common m-plane of
P^(2^g - 1).  The numerical criterion is the ratio of extreme singular
values of the matrix whose columns are the second-order theta vectors at
zeta + a_i; it is zero exactly on secant configurations, scale-free, and
smooth enough to minimize.  At g = 2 the zero set of det[K(zeta + a_i)] for
m = 2 is invariant under all 16 half-periods, so any four points have a
curve of quadrisecants, and no g = 2 datum can test the paper's claim 1,
the class of a curve of (m+2)-secants.

Two independent checks cross-validate each other: the singular-value
criterion and the bilinear identity

    sum_i alpha_i theta(z + 2 zeta + a_i) theta(z - a_i) = 0  for all z,

where alpha spans the null space of the secant matrix.  The identity is
a consequence of the addition formula, so it exercises a different code
path than the SVD.

Records hold inputs only: a SecantConfiguration is its four validated
inputs and cannot be changed, and every residual, coefficient vector and
search outcome is returned to the caller, never written back into one.

Half-period bookkeeping: a point of the torus has 2^(2g) halvings; every
operation consuming a halved point takes an explicit lift in {0,1}^(2g)
(first g bits the integer part, last g bits the tau part), and the
verification operations enumerate all lifts rather than guessing one.
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateSecantError,
    IllPosedError,
    ToleranceFailure,
    ValidationError,
)
from .kummer import (
    _half_period_values,
    _ratios,
    _second_order_rows,
    half_period,
    second_order_values,
)
from .simplex import nelder_mead
from .theta import DEFAULT_EPS, _cell, _reduce_rows, _theta_rows, lattice_reduce
# bound here though no function below calls it: the theta-call pins and
# perfbench's tracer rebind theta in every module of the secant stack
from .theta import theta  # noqa: F401
from .util import as_array, as_int, as_point, as_points, check_positive, complex_box, expect, rng

SECANT_TOL = 1e-8
# search objective on collisions and failed evaluations; a genuine ratio is below it
_PLATEAU = 1.0
_COLLISION_MARGIN = 0.05
# Nelder-Mead budget, spread tolerance and initial step of secant_search
_SEARCH_MAX_ITER = 500
_SEARCH_TOL = 1e-9
_SEARCH_STEP = 0.05
# samples per bilinear_residual block, 2(m+2) theta rows each: the block
# kernel's fixed cost, about that of six scalar theta calls, is paid once per
# block, and a block this small adds next to nothing to peak memory
_BILINEAR_BLOCK = 8


@dataclass(frozen=True, eq=False)
class SecantConfiguration:
    """Candidate (m+2)-secant: points a_1..a_{m+2} and offset zeta, validated once.

    Frozen: ``points`` becomes a tuple of complex g-vectors and ``zeta`` one
    such vector.  A derived configuration is a new one (``dataclasses.replace``).
    """

    pm: object
    m: int
    points: tuple
    zeta: np.ndarray

    def __post_init__(self):
        g = self.pm.g
        m = as_int(self.m, "m", 0)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "points", tuple(as_points(self.points, g, "points", m + 2)))
        object.__setattr__(self, "zeta", as_point(self.zeta, g, name="zeta"))


@dataclass
class PropagationCheck:
    best_lift: tuple
    best_residual: float
    table: list  # (lift bits, residual), all 2^(2g) rows


def secant_matrix(cfg, eps=DEFAULT_EPS):
    """2^g x (m+2) matrix of second-order values at zeta + a_i (columns unnormalized).

    An m-plane through m+2 points of P^(2^g - 1) needs m + 2 <= 2^g; the
    dimension check lives here because the pure-arithmetic operations
    (propagation, the involution identity) are meaningful for any m.
    """
    expect(cfg, SecantConfiguration, "cfg")
    _check_dimension(cfg)
    cols = [second_order_values(cfg.pm, cfg.zeta + a, eps=eps) for a in cfg.points]
    return np.stack(cols, axis=1)


def _check_dimension(cfg):
    if cfg.m + 2 > 2**cfg.pm.g:
        raise ValidationError(
            f"m+2 = {cfg.m + 2} points exceed 2^g = {2**cfg.pm.g} coordinates"
        )


def _finite(values, what):
    """``values``, or IllPosedError when an entry overflowed to inf or nan."""
    if not np.isfinite(values).all():
        raise IllPosedError(f"{what} overflowed; arguments too far from the cell")
    return values


def secant_residual(cfg, eps=DEFAULT_EPS):
    """sigma_{m+2} / sigma_1 of the secant matrix; near zero iff the plane exists.

    Overflowed second-order values raise IllPosedError.
    """
    expect(cfg, SecantConfiguration, "cfg")
    m = _finite(secant_matrix(cfg, eps=eps), "second-order values")
    return float(_ratios(m, eps))


def secant_coefficients(cfg, eps=DEFAULT_EPS, tol=SECANT_TOL):
    """Null vector alpha with sum_i alpha_i theta_j(zeta + a_i) = 0 for all j.

    Requires a verified secant (residual <= tol).  Refuses when the null
    direction is not unique (second-smallest singular value within 10x of
    the smallest).  Normalized so the largest-modulus entry is 1.
    Overflowed second-order values raise IllPosedError.
    """
    expect(cfg, SecantConfiguration, "cfg")
    check_positive(tol, "tol")
    m = _finite(secant_matrix(cfg, eps=eps), "second-order values")
    _, s, vh = np.linalg.svd(m)
    if s[0] < 1e3 * eps:
        raise IllPosedError("secant matrix has no usable scale")
    ratio = float(s[-1] / s[0])
    if ratio > tol:
        raise ToleranceFailure(
            f"not a secant configuration: residual {ratio:.3e} exceeds tolerance {tol:.1e}"
        )
    if s[-2] < 10.0 * s[-1] or s[-2] / s[0] <= tol:
        raise DegenerateSecantError(
            f"null space not one-dimensional (sigma ratios {s[-2] / s[0]:.3e} vs {ratio:.3e}); "
            "coefficients are not unique"
        )
    alpha = np.conj(vh[-1])
    pivot = int(np.argmax(np.abs(alpha)))
    return alpha / alpha[pivot]


def bilinear_residual(cfg, alpha, sample_count=50, seed=0, eps=DEFAULT_EPS):
    """Worst normalized defect of the bilinear identity over sampled z.

    Sample points come from a dedicated stream of the given seed; the
    result is max over samples of |sum_i t_i| / max_i |t_i| with
    t_i = alpha_i theta(z + 2 zeta + a_i) theta(z - a_i).  The 2(m+2)
    theta values of _BILINEAR_BLOCK samples at a time come from one block
    (theta._theta_rows), each to absolute accuracy eps; they agree with
    per-call theta values to rounding, not bit for bit.  eps is checked
    once, before any evaluation.  Overflowed terms raise IllPosedError:
    they carry no verdict.
    """
    expect(cfg, SecantConfiguration, "cfg")
    check_positive(eps, "eps")
    size = cfg.m + 2
    alpha = as_array(alpha, f"alpha must be a length-{size} vector of numbers")
    if alpha.shape != (size,):
        raise ValidationError(f"alpha must have length {size}")
    if not np.all(np.isfinite(alpha)) or np.abs(alpha).max() == 0.0:
        raise ValidationError("alpha must be finite and nonzero")
    sample_count = as_int(sample_count, "sample_count", 1)
    gen = rng(seed, 0xB1)
    pm = cfg.pm
    pts = np.array(cfg.points)
    worst = 0.0
    for start in range(0, sample_count, _BILINEAR_BLOCK):
        z = np.array([complex_box(gen, pm.g)
                      for _ in range(min(_BILINEAR_BLOCK, sample_count - start))])[:, None, :]
        # per sample: the m+2 arguments z + 2 zeta + a_i, then the m+2 arguments z - a_i
        rows = np.concatenate([z + 2.0 * cfg.zeta + pts, z - pts], axis=1).reshape(-1, pm.g)
        if not np.all(np.isfinite(rows)):
            raise ValidationError("z: entries must be finite")  # as theta refuses such a z
        values = _theta_rows(pm, rows, np.full(len(rows), eps)).reshape(len(z), 2, size)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            terms = alpha * values[:, 0] * values[:, 1]
        denom = np.abs(terms).max(axis=1)
        # the first sample whose terms overflowed or all vanished is the one refused
        bad = np.flatnonzero(~np.isfinite(terms).all(axis=1) | (denom == 0.0))
        if bad.size:
            _finite(terms[bad[0]], "bilinear terms")
            raise IllPosedError("all bilinear terms vanished at a sample point")
        worst = max(worst, float((np.abs(terms.sum(axis=1)) / denom).max()))
    return worst


def propagate(cfg, zeta_prime, lift):
    """Derived points [b_1, ..., b_{m+2}] of the shifted secant family.

    b_1 = zeta' + a_3 + (a_1 + a_2)/2 + half-period(lift),
    b_j = b_1 - a_3 + a_{j+2}      for 2 <= j <= m,
    b_{m+1} = a_2 + a_3 - b_1,
    b_{m+2} = a_1 + a_3 - b_1.

    Pure coordinate arithmetic; the linear identities among the b's hold
    to rounding.
    """
    expect(cfg, SecantConfiguration, "cfg")
    if cfg.m < 1:
        raise ValidationError("propagation needs m >= 1")
    pm = cfg.pm
    zeta_prime = as_point(zeta_prime, pm.g, name="zeta_prime")
    h = half_period(pm, lift)
    a = cfg.points
    b1 = zeta_prime + a[2] + 0.5 * (a[0] + a[1]) + h
    bs = [b1]
    for j in range(2, cfg.m + 1):
        bs.append(b1 - a[2] + a[j + 1])
    bs.append(a[1] + a[2] - b1)
    bs.append(a[0] + a[2] - b1)
    return bs


def propagation_secant_check(cfg, zeta_prime, eps=DEFAULT_EPS, tol=1e-7):
    """Try every half-period lift of b_1 and rank the derived configurations.

    ``cfg`` must be a secant: its own secant_residual, computed here, must
    be at most 10 tol, or ValidationError.  The derived configurations keep
    cfg's zeta, and each of their points is a base point moved by the b_1
    lift h: b_1 = c_1 + h with c_1 = zeta' + a_3 + (a_1 + a_2)/2,
    b_j = (c_1 - a_3 + a_{j+2}) + h, and b_{m+1} = (a_2 + a_3 - c_1) - h,
    b_{m+2} = (a_1 + a_3 - c_1) - h.  The basis is even, so
    K(zeta + d - h) = K(-(zeta + d) + h), and each column of all 2^(2g)
    derived matrices comes from one second-order evaluation at its base
    point under the half-period action (kummer._half_period_values).  The
    columns agree with second_order_values at zeta plus the points
    ``propagate`` gives to rounding, not bit for bit.  The stacked matrices
    get secant_residual's overflow check, then one SVD call ranks the whole
    table.  Raises with the full residual table when no lift passes.

    On the genus-2 family pairs of the benchmark every lift passes, each row
    at rounding level (at most 2e-12), so there ``best_lift`` is picked by
    rounding.
    """
    expect(cfg, SecantConfiguration, "cfg")
    if cfg.m < 1:
        raise ValidationError("propagation check needs m >= 1")
    check_positive(tol, "tol")
    residual = secant_residual(cfg, eps=eps)
    if residual > 10.0 * tol:
        raise ValidationError(
            f"input configuration is not a verified secant (residual {residual:.3e})"
        )
    pm = cfg.pm
    zeta_prime = as_point(zeta_prime, pm.g, name="zeta_prime")
    a, zeta = cfg.points, cfg.zeta
    c1 = zeta_prime + a[2] + 0.5 * (a[0] + a[1])
    bases = [zeta + c1] + [zeta + (c1 - a[2] + a[j + 1]) for j in range(2, cfg.m + 1)]
    bases += [-(zeta + (a[1] + a[2] - c1)), -(zeta + (a[0] + a[2] - c1))]
    columns = [_half_period_values(pm, c, eps) for c in bases]
    mats = _finite(np.stack(columns, axis=2), "second-order values")
    lifts = list(itertools.product((0, 1), repeat=2 * pm.g))
    what = "no lift reached residual {tol:.1e}; best {best:.3e} at lift {lift}"
    table, best = _lift_table(lifts, mats, eps, tol, what)
    return PropagationCheck(best[0], best[1], table)


def _lift_table(labels, mats, eps, tol, what):
    """(table, best row) of (label, residual) rows, one per labelled matrix.

    Ranks the whole stack in one SVD call.  When the best residual exceeds
    tol, raises IllPosedError carrying the table as ``.table``, with the
    message ``what`` formatted from ``best``, its ``lift`` and ``tol``.
    """
    table = list(zip(labels, _ratios(mats, eps).tolist()))
    best = min(table, key=lambda row: row[1])
    if best[1] > tol:
        err = IllPosedError(what.format(best=best[1], lift=best[0], tol=tol))
        err.table = table
        raise err
    return table, best


def involution_identity(pm, a_points, zeta_prime, lift):
    """Lattice-reduced distance between -b_1 - b_2 and -2 zeta' - sum(a_i).

    Quadrisecant case (m = 2); b_1 and b_2 come from ``propagate``, so this
    checks its arithmetic.  The identity is exact linear algebra modulo the
    period lattice, so the result is rounding-level for any input.
    """
    cfg = SecantConfiguration(pm, 2, a_points, np.zeros(pm.g))
    zeta_prime = as_point(zeta_prime, pm.g, name="zeta_prime")
    a = cfg.points
    b1, b2 = propagate(cfg, zeta_prime, lift)[:2]
    s = a[0] + a[1] + a[2] + a[3]
    diff = (-b1 - b2) - (-2.0 * zeta_prime - s)
    return float(np.linalg.norm(lattice_reduce(pm, diff)))


def _collided(pm, rows):
    """Whether some row lies within _COLLISION_MARGIN of the period lattice, in one reduction.

    The reduction is theta._reduce_rows, with _cell_rows' guards and without
    the prefactor exponent, which no distance needs.
    """
    near = _reduce_rows(pm, rows)[2].view(float)
    return bool(np.count_nonzero(np.sqrt((near * near).sum(axis=1)) < _COLLISION_MARGIN))


@dataclass
class SearchOptions:
    seed: int = 0
    eps: float = DEFAULT_EPS


@dataclass
class SearchResult:
    """Lattice-reduced best zeta, its secant residual, and the search's iteration record."""

    zeta: np.ndarray
    residual: float
    search_info: dict  # iterations, converged, trace of (iteration, best objective)


def secant_search(pm, m, points, zeta_seed, options=None):
    """Minimize the secant residual over zeta by Nelder-Mead (2g real unknowns).

    The search metric is the singular-value ratio of the column-normalized
    secant matrix, evaluated at the lattice-reduced zeta: the raw ratio is
    lattice-invariant but can be driven down by inflating one column's
    scale, and reduction plus normalization close that route.  Collisions
    (some zeta + a_i within _COLLISION_MARGIN = 0.05 of +-(zeta + a_k) on the
    torus) sit on a plateau: there the rank condition is vacuous, and
    every point set has such trivial zeros at 2 zeta = -a_i - a_k.

    Each evaluation reduces zeta, tests the pair rows for a collision, then
    builds its matrix from one block of second-order values, all members of
    all m+2 points in one lattice pass (kummer._second_order_rows); it
    agrees with per-member second_order_values to rounding.  A reduction
    guard that refuses a pair row raises out of the search; one that refuses
    the points reads as the plateau.  The reported residual is
    secant_residual of the returned zeta, per member, so the two agree bit
    for bit.  The options' eps is checked once, before any evaluation.

    The simplex starts from steps of about _SEARCH_STEP = 0.05 and stops
    when its values spread less than _SEARCH_TOL = 1e-9 or after
    _SEARCH_MAX_ITER = 500 iterations.  Deterministic given the options'
    seed and eps; returns a SearchResult whose ``search_info`` flag
    ``converged`` is false when the simplex never left the plateau.
    """
    opts = SearchOptions() if options is None else options
    if not isinstance(opts, SearchOptions):
        raise ValidationError(f"options must be a SearchOptions, got {type(opts).__name__}")
    check_positive(opts.eps, "eps")
    g = pm.g
    # validated once here: every evaluation below reuses these points
    seed_cfg = SecantConfiguration(pm, m, points, zeta_seed)
    zeta_seed = seed_cfg.zeta
    _check_dimension(seed_cfg)
    pts = np.array(seed_cfg.points)
    first, second = np.triu_indices(len(pts), 1)  # the pairs i < k
    # zeta cancels from (zeta + a_i) - (zeta + a_k): those distances are fixed
    apart = not _collided(pm, pts[first] - pts[second])

    def unpack(x):
        # the search builds x itself, so nothing is left for as_point to check
        return _cell(pm, x[:g] + 1j * x[g:])[2]

    def objective(x):
        args = unpack(x) + pts
        # a guard failure on the pair rows raises out of the search
        if not apart or _collided(pm, args[first] + args[second]):
            return _PLATEAU
        try:
            # one block of every member's second-order values; columns are the members
            values = _second_order_rows(pm, args, opts.eps)
            mat = _finite(values, "second-order values").T
            norms = np.linalg.norm(mat, axis=0)
            if norms.min() == 0.0:
                return _PLATEAU
            return float(_ratios(mat / norms, opts.eps))
        except IllPosedError:
            return _PLATEAU

    x0 = np.concatenate([zeta_seed.real, zeta_seed.imag])
    gen = rng(opts.seed, 0x5E)
    steps = _SEARCH_STEP * (1.0 + 0.1 * gen.uniform(-1.0, 1.0, size=2 * g))
    result = nelder_mead(objective, x0, steps=steps, max_iter=_SEARCH_MAX_ITER, tol=_SEARCH_TOL)
    zeta = unpack(result.x)
    info = {
        "iterations": result.iterations,
        "converged": result.converged and result.fx < _PLATEAU,
        "trace": result.trace,
    }
    return SearchResult(zeta, secant_residual(replace(seed_cfg, zeta=zeta), eps=opts.eps), info)
