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
Each theta_j reduces to the scalar engine through the characteristic
shift  theta[s,0](v; O) = exp(i pi s.O.s + 2 pi i s.v) theta(v + O s; O).

Every function here takes the period matrix tau itself.  The point-independent
data of the basis (the doubled matrix 2 tau, the characteristics, the shifts
2 tau s and the phases 2 pi i s.tau.s) is private to this module: it is built
on a matrix's first use and kept on that matrix.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePointError, IllPosedError, ValidationError
from .theta import DEFAULT_EPS, PeriodMatrix, _check_reach, theta
from .util import as_point


def characteristics(g):
    """The 2^g half-integer characteristic vectors, lexicographic."""
    return np.array(list(itertools.product((0.0, 0.5), repeat=g)))


class _Basis(NamedTuple):
    """The point-independent parts of every theta_j for one period matrix."""

    pm2: PeriodMatrix  # the doubled matrix 2 tau, whose lattice cache stays warm
    labels: np.ndarray  # the characteristics s
    shifts: np.ndarray  # the argument shifts 2 tau s
    quad_phase: np.ndarray  # the phases 2 pi i s.tau.s


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
    quad_phase = 2j * np.pi * np.einsum("ij,jk,ik->i", sig, pm.tau, sig)
    pm._kummer_basis = _Basis(PeriodMatrix(2.0 * pm.tau), sig, 2.0 * (sig @ pm.tau), quad_phase)
    return pm._kummer_basis


def second_order_values(pm, z, eps=DEFAULT_EPS):
    """The vector (theta_0(z), ..., theta_{N}(z)), each to absolute accuracy eps."""
    z = as_point(z, pm.g, name="z")
    _check_reach(pm, math.hypot(*z.imag.tolist()))  # before 4 pi i s.z can overflow
    pm2, labels, shifts, quad_phase = _basis(pm)
    # exp(2 pi i s.tau.s + 4 pi i s.z) for every characteristic s
    pref = np.exp(quad_phase + 4j * np.pi * (labels @ z))
    args = 2.0 * z + shifts
    eps_j = (eps / np.maximum(1.0, np.abs(pref))).tolist()
    out = np.empty(len(eps_j), dtype=complex)
    for j in range(len(eps_j)):
        # one numpy-scalar product per entry: a vectorised pref * values rounds differently
        out[j] = pref[j] * theta(pm2, args[j], eps=eps_j[j])
    return out


def second_order_derivative(pm, z, direction, eps=DEFAULT_EPS):
    """Directional derivative of every basis value at z along ``direction``."""
    z = as_point(z, pm.g, name="z")
    direction = as_point(direction, pm.g, name="direction")
    _check_reach(pm, math.hypot(*z.imag.tolist()))
    pm2, labels, shifts, quad_phase = _basis(pm)
    pref = np.exp(quad_phase + 4j * np.pi * (labels @ z))
    lin = 4j * np.pi * (labels @ direction)
    z2 = 2.0 * z
    out = np.empty(len(pref), dtype=complex)
    for j in range(len(pref)):
        eps_j = eps / max(1.0, abs(pref[j]))
        arg = z2 + shifts[j]
        plain = theta(pm2, arg, eps=eps_j)
        slope = theta(pm2, arg, deriv=(direction,), eps=eps_j)
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
        coords = np.asarray(self.coords, dtype=complex)
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
    a = p.coords
    b = q.coords
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValidationError("projective distance undefined for zero vectors")
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
    try:
        bits = np.asarray(bits)
    except ValueError:  # ragged nesting, e.g. from a JSON lift
        raise ValidationError(message) from None
    if bits.shape != (2 * pm.g,) or not np.all((bits == 0) | (bits == 1)):
        raise ValidationError(message)
    p = bits[: pm.g].astype(float)
    q = bits[pm.g :].astype(float)
    return 0.5 * (p + pm.tau @ q)


def all_half_periods(pm):
    """All 2^(2g) (bits, half-period) pairs in deterministic order."""
    out = []
    for bits in itertools.product((0, 1), repeat=2 * pm.g):
        arr = np.array(bits, dtype=np.int64)
        out.append((bits, half_period(pm, arr)))
    return out
