"""Shared fixtures and independent oracles.

The brute-force theta sum here is deliberately primitive: plain loops over
an integer box, no argument reduction, no caching, no shared code with the
engine.  It is the reference everything else is judged against.
"""

import cmath
import importlib
import itertools
import math

import numpy as np
import pytest

import kummerlab as kl


def brute_theta(tau, z, box, deriv=()):
    """Unreduced lattice sum over the box |n_i| <= box (oracle)."""
    tau = np.asarray(tau, dtype=complex)
    z = np.asarray(z, dtype=complex)
    g = z.size
    total = 0.0 + 0.0j
    for idx in itertools.product(range(-box, box + 1), repeat=g):
        n = np.array(idx, dtype=float)
        term = cmath.exp(1j * np.pi * (n @ tau @ n) + 2j * np.pi * (n @ z))
        for w in deriv:
            term *= 2j * np.pi * (n @ np.asarray(w))
        total += term
    return total


def box_scan_lattice(pm, radius):
    """(points, Gaussian phases) of a scan that holds the whole box at once (oracle).

    The box |n_i| <= ceil(radius / s_min) as one meshgrid, kept where
    ||T n|| <= radius, in C order: lattice_points' enumeration before it
    scanned in slabs, whose bits it must keep.
    """
    bound = math.ceil(radius / pm.s_min)
    grid = np.meshgrid(*[np.arange(-bound, bound + 1)] * pm.g, indexing="ij")
    pts = np.stack([a.ravel() for a in grid], axis=1).astype(np.int64)
    pts = pts[np.linalg.norm(pts @ pm.chol.T, axis=1) <= radius]
    return pts, np.exp(1j * np.pi * np.einsum("ij,jk,ik->i", pts, pm.tau, pts))


def unreduced_second_order(pm, z, direction=None, eps=1e-12):
    """theta_j(z), or its derivative along ``direction``, with no reduction of z (oracle).

    The characteristic shift taken at s itself on the doubled matrix:
    theta_j(z) = exp(2 pi i s.tau.s + 4 pi i s.z) theta(2z + 2 tau s; 2 tau).
    """
    pm2 = kl.make_period_matrix(pm.g, 2.0 * pm.tau)
    out = []
    for s in itertools.product((0.0, 0.5), repeat=pm.g):
        s = np.array(s)
        pref = cmath.exp(2j * np.pi * (s @ pm.tau @ s) + 4j * np.pi * (s @ z))
        arg = 2.0 * np.asarray(z) + 2.0 * (pm.tau @ s)
        eps_j = eps / max(1.0, abs(pref))
        value = kl.theta(pm2, arg, eps=eps_j)
        if direction is not None:
            slope = kl.theta(pm2, arg, deriv=(direction,), eps=eps_j)
            value = 4j * np.pi * (s @ direction) * value + 2.0 * slope
        out.append(pref * value)
    return np.array(out)


def per_member_objective(pm, points, eps=1e-12):
    """secant_search's objective with one second_order_values call per column (reference).

    The objective as it was before the search built its matrix as one block:
    at the lattice-reduced zeta, the collision plateau, then sigma_min /
    sigma_max of the column-normalized matrix of the members' values, each
    column from its own call.  A search through it is the reference that the
    block objective must reproduce step for step.
    """
    secant = importlib.import_module("kummerlab.secant")
    ratios = importlib.import_module("kummerlab.kummer")._ratios
    g = pm.g
    pts = np.array(points, dtype=complex)
    first, second = np.triu_indices(len(pts), 1)
    apart = not secant._collided(pm, pts[first] - pts[second])

    def objective(x):
        args = kl.lattice_reduce(pm, x[:g] + 1j * x[g:]) + pts
        if not apart or secant._collided(pm, args[first] + args[second]):
            return secant._PLATEAU
        try:
            mat = np.stack([kl.second_order_values(pm, arg, eps=eps) for arg in args], axis=1)
            if not np.all(np.isfinite(mat)):
                return secant._PLATEAU
            norms = np.linalg.norm(mat, axis=0)
            if norms.min() == 0.0:
                return secant._PLATEAU
            return float(ratios(mat / norms, eps))
        except kl.IllPosedError:
            return secant._PLATEAU

    return objective


def full_path_theta_rows(pm, rows, eps):
    """theta._theta_rows as it was before its n0 = 0 path: every block takes the full path (reference).

    One reduction with the translate by tau n0 for every row, the prefactor
    exponent w, the damping and the largest tail offset c0, one lattice pass
    at the shared radius, and exp(w) times each sum wherever some row has
    n0 != 0.  The kernel's n0 = 0 path must give these bytes.
    """
    th = importlib.import_module("kummerlab.theta")
    q, n0, z_red = th._reduce_rows(pm, rows)
    w = -1j * np.pi * ((n0 @ pm.tau) * n0).sum(axis=1) - 2j * np.pi * (n0 * z_red).sum(axis=1)
    pmag = np.exp(np.minimum(w.real, th._EXP_MAX))
    damp = np.exp(-np.pi * ((q - n0) * z_red.imag).sum(axis=1))
    c0_q = math.ceil(float(np.sqrt((q * q).sum(axis=1)).max()) * 4.0) / 4.0
    eps_min = float((eps * damp / np.maximum(1.0, pmag)).min())
    radius = th._bucket(th._solve_radius(pm, 0, c0_q, eps_min) + pm.half_diag)
    pts = th.lattice_points(pm, radius)
    totals = np.exp(2j * np.pi * (z_red @ pts.cpoints.T)) @ pts.gauss
    if not n0.any():
        return totals
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(w) * totals
    for i in np.flatnonzero(np.isnan(values)).tolist():
        values[i] = th._overflowed(w[i], 1.0, totals[i])
    return values


def full_path_centre_rows(pm, v):
    """kummer._centre_rows as it was before its k = 0 path: every row translated (reference).

    (z_c, k, log F, pattern) from the translate by tau k, the second rint and
    the log F products for every block; the k = 0 path must give these bytes.
    """
    th = importlib.import_module("kummerlab.theta")
    q, k = th._shift_rows(pm, v)
    z = v - np.rint(v.real)
    tau_k = k @ pm.tau
    z = z - tau_k
    z = z - np.rint(z.real)
    log_f = -2j * np.pi * (tau_k * k).sum(axis=1) - 4j * np.pi * (k * z).sum(axis=1)
    assert (log_f.real < th._EXP_MAX).all()
    return z, k, log_f, (q - k >= 0.0) @ (1 << np.arange(pm.g - 1, -1, -1))


def per_call_bilinear(cfg, alpha, sample_count=50, seed=0, eps=1e-12):
    """bilinear_residual with two scalar theta calls per term (reference).

    The defect as it was before the samples were evaluated in blocks: per
    sample z from the same stream, max over samples of |sum_i t_i| / max_i
    |t_i| with t_i = alpha_i theta(z + 2 zeta + a_i) theta(z - a_i).
    """
    util = importlib.import_module("kummerlab.util")
    alpha = np.asarray(alpha, dtype=complex)
    gen = util.rng(seed, 0xB1)
    pm = cfg.pm
    worst = 0.0
    for _ in range(sample_count):
        z = util.complex_box(gen, pm.g)
        terms = np.array([
            alpha[i] * kl.theta(pm, z + 2.0 * cfg.zeta + a, eps=eps) * kl.theta(pm, z - a, eps=eps)
            for i, a in enumerate(cfg.points)
        ])
        assert np.isfinite(terms).all() and np.abs(terms).max() > 0.0
        worst = max(worst, abs(terms.sum()) / np.abs(terms).max())
    return worst


def random_period_matrix(g, seed, lam_lo=0.3, lam_hi=2.5):
    """Random valid period matrix with eigenvalues of Im(tau) in range."""
    gen = np.random.default_rng(seed)
    for _ in range(200):
        a = gen.normal(size=(g, g)) * 0.6
        y = a @ a.T + 0.45 * np.eye(g)
        eigs = np.linalg.eigvalsh(y)
        if eigs[0] < lam_lo or eigs[-1] > lam_hi:
            continue
        x = gen.uniform(-0.45, 0.45, size=(g, g))
        x = 0.5 * (x + x.T)
        return kl.make_period_matrix(g, x + 1j * y)
    raise AssertionError("sampler failed to produce a period matrix")


def random_point(g, seed, re_half=0.5, im_half=0.3):
    gen = np.random.default_rng(seed)
    return gen.uniform(-re_half, re_half, g) + 1j * gen.uniform(-im_half, im_half, g)


@pytest.fixture(scope="session")
def pm_g1():
    return kl.make_period_matrix(1, [[1j]])


@pytest.fixture(scope="session")
def pm_g2():
    return kl.sample_genus2_period_matrix(7)


@pytest.fixture(scope="session")
def divisor_points(pm_g2):
    return [kl.find_theta_divisor_point(pm_g2, s) for s in (101, 102, 103, 104)]


@pytest.fixture(scope="session")
def fay(pm_g2, divisor_points):
    return kl.fay_configuration(pm_g2, divisor_points)


@pytest.fixture(scope="session")
def fay_alpha(fay):
    return kl.secant_coefficients(fay.config)


@pytest.fixture(scope="session")
def tangency(pm_g2, divisor_points):
    return kl.degenerate_fay_configuration(pm_g2, divisor_points[:3])


@pytest.fixture(scope="session")
def solved_state(pm_g2, tangency):
    state = kl.make_state(pm_g2, 1, tangency.u, [tangency.b], order=4, w1=tangency.direction)
    samples = kl.default_samples(pm_g2, 16, seed=3)
    kl.run_hierarchy(state, 4, samples)
    return state
