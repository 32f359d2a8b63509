"""Shared fixtures and independent oracles.

The brute-force theta sum here is deliberately primitive: plain loops over
an integer box, no argument reduction, no caching, no shared code with the
engine.  It is the reference everything else is judged against.
"""

import cmath
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
