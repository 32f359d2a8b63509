"""Level-2 theta basis, the Kummer map, and the addition-formula oracle.

The basis of the 2^g-dimensional space of second-order theta functions is

    theta_j(z) = theta[sigma_j, 0](2z; 2tau),

indexed by the half-integer characteristics sigma_j in {0, 1/2}^g in
lexicographic order.  With the zero-characteristic convention of
:mod:`kummerlab.theta` this basis satisfies the Riemann addition formula
with unit coefficients,

    theta(z+w) theta(z-w) = sum_j theta_j(z) theta_j(w),

which :func:`addition_residual` checks numerically; that residual is the
cross-module oracle tying the scalar engine and this basis together.

Each call reduces z once for all 2^g members, by theta's own reduction
(theta._cell) of z - rint(Re z), which is exact however large Re z is:
z = z_c + m + tau k with k = rint(Y^-1 Im z), and every member obeys

    theta_j(z) = F theta_j(z_c),   F = exp(2w) = exp(-2 pi i k.tau.k - 4 pi i k.z_c),

with one common factor F, the square of theta's prefactor exp(w) (Mumford,
Tata Lectures on Theta I, ch. II).  A factor past e^700 is refused with
IllPosedError before any exp runs.
Each theta_j(z_c) then reduces to the scalar engine through the
characteristic shift

    theta[s,0](v; O) = exp(i pi s.O.s + 2 pi i s.v) theta(v + O s; O),

taken at a representative s' = s (mod 1), which leaves theta[s,0]
unchanged.  Per coordinate s'_i = -1/2 where s_i = 1/2 and q_c,i =
(Y^-1 Im z_c)_i >= 0, else s'_i = s_i, so q_c + s' lies in [-1/2, 1/2]^g
and the doubled-matrix argument 2 z_c + 2 tau s' needs no further
reduction inside theta.

The search of kummerlab.secant ranks each step from a block of these
values, (k, 2^g) for k points, built by the row forms of the same steps: one
reduction of all k points (theta._cell_rows), and one theta._theta_rows pass
over all k 2^g doubled-matrix arguments.  It agrees with second_order_values
to rounding.

Every function here takes the period matrix tau itself.  The point-independent
data of the basis (the doubled matrix 2 tau and, for each of the 2^g sign
patterns of q_c, the representatives s', the shifts 2 tau s' and the phases
2 pi i s'.tau.s') is private to this module: it is built on a matrix's first
use and kept on that matrix.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePointError, IllPosedError, ValidationError
from .theta import _EXP_MAX, DEFAULT_EPS, PeriodMatrix, _cell, _cell_rows, _theta_rows, theta
from .util import as_array, as_point, check_positive


def characteristics(g):
    """The 2^g half-integer characteristic vectors, lexicographic."""
    return np.array(list(itertools.product((0.0, 0.5), repeat=g)))


class _Basis(NamedTuple):
    """The point-independent parts of every theta_j for one period matrix.

    The last three are indexed [pattern, j], pattern p having bit g-1-i set
    where q_c,i >= 0.
    """

    pm2: PeriodMatrix  # the doubled matrix 2 tau, whose lattice cache stays warm
    labels: np.ndarray  # the representatives s'
    shifts: np.ndarray  # the argument shifts 2 tau s'
    quad_phase: np.ndarray  # the phases 2 pi i s'.tau.s'


def _basis(pm):
    """The basis data of ``pm``, built on first use and kept on the matrix.

    It holds no reference back to ``pm``, so the matrix, the doubled matrix
    and its lattice cache are freed together by reference counting.
    """
    try:
        return pm._kummer_basis
    except AttributeError:
        pass
    sig = characteristics(pm.g)
    # pattern p flips to -1/2 the half entries whose bit is set; characteristics
    # lists the bit vectors (halved) in the order of p
    flip = sig[:, None, :] * sig[None, :, :] > 0.0
    reps = np.where(flip, -sig[None, :, :], sig[None, :, :])
    quad_phase = 2j * np.pi * np.einsum("pji,ik,pjk->pj", reps, pm.tau, reps)
    pm._kummer_basis = _Basis(PeriodMatrix(2.0 * pm.tau), reps, 2.0 * (reps @ pm.tau), quad_phase)
    return pm._kummer_basis


def _centre(pm, z):
    """(z_c, k, log F, pattern) of the reduction z = z_c + m + tau k.

    theta_j(z) = exp(log F) theta_j(z_c) for every member j, and pattern
    indexes the representatives s' of ``_basis`` for the signs of q_c.
    Raises IllPosedError where theta's own reduction does, and where
    Re log F reaches _EXP_MAX, before exp(log F) can leave double range.
    """
    # taking the integer part of Re z off first is exact, so a huge Re z
    # loses no digit to the translate by tau k
    q, k, z, w = _cell(pm, z - np.rint(z.real))
    log_f = w + w  # 2w exactly, signed zeros included
    if not log_f.real < _EXP_MAX:
        raise _too_far(log_f.real)
    pattern = 0
    for v in (q - k).tolist():
        pattern = 2 * pattern + (v >= 0.0)
    return z, k, log_f, pattern


def _too_far(exponent):
    return IllPosedError(
        f"second-order values overflowed: the quasi-periodicity factor is "
        f"e^{exponent:.4g}, past e^{_EXP_MAX:g}; argument too far from the cell"
    )


def _centre_rows(pm, v):
    """_centre of every row of a (k, g) array: z_c, k, log F and pattern as arrays.

    The same steps over theta._cell_rows, with the same guards.  The first
    row whose factor reaches e^700 is the one refused.
    """
    q, k, z, w = _cell_rows(pm, v - np.rint(v.real))
    log_f = w + w
    far = ~(log_f.real < _EXP_MAX)
    if np.count_nonzero(far):
        raise _too_far(log_f.real[far][0])
    # the first coordinate's sign is the pattern's leading bit, as in _centre
    return z, k, log_f, (q - k >= 0.0) @ (1 << np.arange(pm.g - 1, -1, -1))


def second_order_values(pm, z, eps=DEFAULT_EPS):
    """The vector (theta_0(z), ..., theta_{N}(z)), each to absolute accuracy eps."""
    check_positive(eps, "eps")
    z = as_point(z, pm.g, name="z")
    pm2, labels, shifts, quad_phase = _basis(pm)
    z_c, _, log_f, p = _centre(pm, z)
    # F exp(2 pi i s'.tau.s' + 4 pi i s'.z_c) for every representative s'
    pref = np.exp(quad_phase[p] + (log_f + 4j * np.pi * labels[p].dot(z_c)))
    args = 2.0 * z_c + shifts[p]
    eps_j = [eps / max(1.0, abs(c)) for c in pref.tolist()]
    out = np.empty(len(eps_j), dtype=complex)
    for j in range(len(eps_j)):
        # one numpy-scalar product per entry: a vectorised pref * values rounds differently
        out[j] = pref[j] * theta(pm2, args[j], eps=eps_j[j])
    return out


def _second_order_rows(pm, v, eps):
    """second_order_values at every row of a (k, g) array, as a (k, 2^g) block.

    One _centre_rows reduction and one _theta_rows pass over all k 2^g
    doubled-matrix arguments, each member to absolute accuracy eps as in
    second_order_values; the sums agree with it to rounding, not bit for
    bit.  The rows and eps are trusted: validated points and a checked eps.
    """
    pm2, labels, shifts, quad_phase = _basis(pm)
    z_c, _, log_f, p = _centre_rows(pm, v)
    reps = labels[p]  # (k, 2^g, g)
    pref = np.exp(quad_phase[p] + (log_f[:, None] + 4j * np.pi * (reps @ z_c[:, :, None])[..., 0]))
    args = 2.0 * z_c[:, None, :] + shifts[p]
    values = _theta_rows(pm2, args.reshape(-1, pm.g), (eps / np.maximum(1.0, np.abs(pref))).ravel())
    return pref * values.reshape(pref.shape)


def second_order_derivative(pm, z, direction, eps=DEFAULT_EPS):
    """Directional derivative of every basis value at z along ``direction``."""
    check_positive(eps, "eps")
    z = as_point(z, pm.g, name="z")
    direction = as_point(direction, pm.g, name="direction")
    pm2, labels, shifts, quad_phase = _basis(pm)
    z_c, k, log_f, p = _centre(pm, z)
    pref = np.exp(quad_phase[p] + (log_f + 4j * np.pi * labels[p].dot(z_c)))
    # d/dz of log F + 4 pi i s'.z_c along the direction
    lin = 4j * np.pi * (labels[p] - k).dot(direction)
    args = 2.0 * z_c + shifts[p]
    eps_j = [eps / max(1.0, abs(c)) for c in pref.tolist()]
    out = np.empty(len(eps_j), dtype=complex)
    for j in range(len(eps_j)):
        plain = theta(pm2, args[j], eps=eps_j[j])
        slope = theta(pm2, args[j], deriv=(direction,), eps=eps_j[j])
        out[j] = pref[j] * (lin[j] * plain + 2.0 * slope)
    return out


def _ratios(mats, eps):
    """sigma_min / sigma_max of one matrix, or of each in a stack, from one SVD call.

    The rank test behind every secant, tangency and lift-table residual.
    Raises IllPosedError, naming the first such matrix, when a largest
    singular value is below the accuracy floor.
    """
    s = np.linalg.svd(mats, compute_uv=False)
    top = s[..., 0]
    floor = 1e3 * eps
    if top.min() < floor:
        raise IllPosedError(
            f"largest singular value {top.flat[np.flatnonzero(top < floor)[0]]:.3e} is below "
            "the accuracy floor; the rank comparison is meaningless"
        )
    return s[..., -1] / top


@dataclass
class ProjectivePoint:
    """A point of P^(2^g - 1), normalized so the largest-modulus entry is 1."""

    coords: np.ndarray

    def __post_init__(self):
        coords = as_array(self.coords, "projective coordinates must be numbers")
        if coords.ndim != 1 or coords.size == 0:
            raise ValidationError("projective point needs a nonempty coordinate vector")
        if not np.all(np.isfinite(coords)):
            raise ValidationError("projective coordinates must be finite")
        mags = np.abs(coords)
        pivot = int(np.argmax(mags))
        if mags[pivot] == 0.0:
            raise ValidationError("projective point cannot be the zero vector")
        self.coords = coords / coords[pivot]


def kummer(pm, z, eps=DEFAULT_EPS):
    """The Kummer image [theta_0(z) : ... : theta_N(z)] as a normalized point."""
    vals = second_order_values(pm, z, eps=eps)
    if np.abs(vals).max() < 1e3 * eps:
        raise DegeneratePointError(
            "all second-order values below the accuracy floor; "
            "the linear system is base-point-free, so this signals an accuracy failure"
        )
    return ProjectivePoint(vals)


def projective_distance(p, q):
    """sin of the angle between coordinate vectors: 0 iff projectively equal.

    Mathematically sqrt(1 - |<p,q>|^2 / (|p|^2 |q|^2)); evaluated through
    the orthogonal residual q - p <p,q>/|p|^2, which stays accurate down to
    rounding for nearly parallel vectors where the direct formula loses
    half the digits to cancellation.
    """
    if not (isinstance(p, ProjectivePoint) and isinstance(q, ProjectivePoint)
            and p.coords.shape == q.coords.shape):
        raise ValidationError("projective distance needs two ProjectivePoints of one dimension")
    a = p.coords
    b = q.coords
    na = np.linalg.norm(a)  # at least 1: the largest entry of each is 1
    nb = np.linalg.norm(b)
    b_perp = b - a * (np.vdot(a, b) / (na * na))
    return float(min(1.0, np.linalg.norm(b_perp) / nb))


def addition_residual(pm, z, w, eps=DEFAULT_EPS):
    """Relative defect of theta(z+w) theta(z-w) = sum_j theta_j(z) theta_j(w).

    This is the module's self-test: it must stay at the accuracy floor for
    every valid input, and it is sensitive to any mis-scaled basis member.
    """
    z = as_point(z, pm.g, name="z")
    w = as_point(w, pm.g, name="w")
    lhs = theta(pm, z + w, eps=eps) * theta(pm, z - w, eps=eps)
    rhs = second_order_values(pm, z, eps=eps) @ second_order_values(pm, w, eps=eps)
    return float(abs(lhs - rhs) / max(1.0, abs(lhs)))


def half_period(pm, bits):
    """The half-period (p + tau q)/2 from 2g bits: p = bits[:g], q = bits[g:].

    Every bit must equal 0 or 1; anything else, 0.5 included, is refused
    rather than truncated.
    """
    message = f"lift must be a vector of 2g = {2 * pm.g} bits, each 0 or 1"
    bits = as_array(bits, message)
    if bits.shape != (2 * pm.g,) or not np.all((bits == 0) | (bits == 1)):
        raise ValidationError(message)
    return 0.5 * (bits[: pm.g].real + pm.tau @ bits[pm.g :].real)


def all_half_periods(pm):
    """All 2^(2g) (bits, half-period) pairs in deterministic order."""
    out = []
    for bits in itertools.product((0, 1), repeat=2 * pm.g):
        arr = np.array(bits, dtype=np.int64)
        out.append((bits, half_period(pm, arr)))
    return out
