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
    q = rows.imag @ pm.im_inv.T
    n0 = np.rint(q)
    z_red = rows - n0 @ pm.tau
    z_red = z_red - np.rint(z_red.real)
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


def full_path_centre(pm, z):
    """kummer._centre as it was before it reduced through theta._cell (reference).

    (z_c, k, log F, pattern) from its own translate by tau k, second rint and
    log F products, or z_c = z - rint(Re z) and log F = 0 where k = 0; the
    reduction through theta must give these bytes.
    """
    q = pm.im_inv.dot(z.imag)
    k = np.rint(q)
    z = z - np.rint(z.real)
    log_f = 0j
    if k.any():
        z = z - pm.tau.dot(k)
        z = z - np.rint(z.real)
        log_f = -2j * np.pi * k.dot(pm.tau).dot(k) - 4j * np.pi * k.dot(z)
    pattern = 0
    for v in (q - k).tolist():
        pattern = 2 * pattern + (v >= 0.0)
    return z, k, log_f, pattern


def full_path_centre_rows(pm, v):
    """kummer._centre_rows before its reduction through theta: every row translated (reference).

    (z_c, k, log F, pattern) from the translate by tau k, the second rint and
    the log F products for every block; the reduction through theta must give
    these bytes.
    """
    th = importlib.import_module("kummerlab.theta")
    q = v.imag @ pm.im_inv.T
    k = np.rint(q)
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


def per_coefficient_series(state, x, mult, z, upto, eps):
    """hierarchy._translate_series as one apply_delta call per coefficient (reference).

    The series as it was before one walk served every coefficient: each
    coefficient k = 0..upto validates z and x, scales the directions and
    walks its words on its own.  The one walk must give these bytes.
    """
    return np.array([kl.apply_delta(state, k, mult, x, z, eps=eps) for k in range(upto + 1)])


def exponent_words(s):
    """The words of Delta_s as (exponents (i_1..i_s), weight 1/prod(i_j!)) (reference).

    The enumeration that weighted_partitions ran when it returned exponent
    tuples: i_s, i_{s-1}, ..., i_1 are chosen in that order, each counting
    up from 0 while s - sum j i_j stays nonnegative, and the weight divides
    out the factorials in the same order.  Its words are the library's, in
    the library's order, with the library's weight bits.
    """
    words = []

    def descend(k, remaining, exps):
        if k == 0:
            if remaining == 0:
                weight = 1.0
                for e in exps:
                    weight /= math.factorial(e)
                words.append((tuple(reversed(exps)), weight))
            return
        for i in range(remaining // k + 1):
            descend(k - 1, remaining - k * i, exps + [i])

    descend(s, s, [])
    return words


def _backtrack(x, step, residual, size, inside=None):
    """util.backtrack, the line search the root finders called before util.newton (reference)."""
    lam = 1.0
    while lam > 2**-9:
        x2 = x + lam * step
        if inside is None or inside(x2):
            r2 = residual(x2)
            if np.abs(r2).max() < (1.0 - 0.25 * lam) * size:
                return x2, r2
        lam *= 0.5
    return None


def loop_divisor_point(pm, seed, restarts=20, max_iter=100):
    """find_theta_divisor_point with its own Newton loop, as before util.newton (reference).

    Returns the ThetaDivisorPoint, or raises ConvergenceFailure with the
    (restart, iterations, |theta|) rows; the shared iteration must give
    these bytes.
    """
    sc = importlib.import_module("kummerlab.scenarios")
    util = importlib.import_module("kummerlab.util")
    gen = util.rng(seed, 0xD1)
    trace = []
    eye = np.eye(2)

    def newton(z0, free, budget):
        def at(w):
            z = z0.copy()
            z[free] = w
            return z

        def residual(w):
            return kl.theta(pm, at(w), eps=util.NEWTON_EPS)

        w = z0[free]
        f = residual(w)
        it = 0
        for it in range(budget):
            if abs(f) < util.NEWTON_TOL:
                break
            fp = kl.theta(pm, at(w), deriv=(eye[free],), eps=util.NEWTON_EPS)
            if abs(fp) < 1e-12:
                break
            accepted = _backtrack(w, -f / fp, residual, abs(f), inside=sc._in_cell_box)
            if accepted is None:
                break
            w, f = accepted
        return at(w), abs(f), it

    for restart in range(restarts):
        free = int(gen.integers(0, 2))
        z0 = np.empty(2, dtype=complex)
        z0[free] = gen.uniform(-0.4, 0.4) + 1j * gen.uniform(-0.3, 0.3)
        z0[1 - free] = gen.uniform(-0.4, 0.4) + 1j * gen.uniform(-0.3, 0.3)
        z, res, it = newton(z0, free, max_iter)
        if res < util.NEWTON_TOL:
            reduced = kl.lattice_reduce(pm, z)
            res_red = abs(kl.theta(pm, reduced, eps=util.NEWTON_EPS))
            if res_red >= util.NEWTON_TOL:
                reduced, res_red, _ = newton(reduced, free, 20)
            if res_red < util.NEWTON_TOL:
                z, res = reduced, res_red
            return kl.ThetaDivisorPoint(z, res)
        trace.append((restart, it, float(res)))
    raise kl.ConvergenceFailure("reference divisor search failed", trace=trace)


def loop_project_to_divisor(pm, z0):
    """project_to_divisor with its own Newton loop, as before util.newton (reference)."""
    sc = importlib.import_module("kummerlab.scenarios")
    util = importlib.import_module("kummerlab.util")
    z = np.asarray(z0, dtype=complex).copy()
    eye = np.eye(2)

    def residual(x):
        return kl.theta(pm, x, eps=util.NEWTON_EPS)

    f = residual(z)
    for _ in range(sc._PROJECT_MAX_ITER):
        if abs(f) < sc._PROJECT_TOL:
            return z
        grad = np.array([kl.theta(pm, z, deriv=(eye[i],), eps=util.NEWTON_EPS) for i in range(2)])
        slope = grad @ grad
        if abs(slope) == 0.0:
            break
        accepted = _backtrack(z, -(f / slope) * grad, residual, abs(f))
        if accepted is None:
            break
        z, f = accepted
    if abs(f) >= sc._PROJECT_TOL:
        raise kl.ConvergenceFailure(f"divisor projection stalled at |theta| = {abs(f):.3e}")
    return z


def loop_section_intersection(pm, offsets, seed, restarts=16, max_iter=80):
    """find_section_intersection with its own Newton loop, as before util.newton (reference).

    Returns the common zero, or raises ConvergenceFailure with the
    (restart, iterations, residual) rows.
    """
    util = importlib.import_module("kummerlab.util")
    g = pm.g
    offsets = [np.asarray(x, dtype=complex) for x in offsets]
    k = len(offsets)
    gen = util.rng(seed, 0x61)
    eye = np.eye(g)
    trace = []
    for attempt in range(restarts):
        pin = util.complex_box(gen, g, re_half=0.4, im_half=0.3)
        free_idx = list(range(k))

        def embed(w):
            z = pin.copy()
            z[free_idx] = w
            return z

        def residual(w):
            return np.array([kl.theta(pm, embed(w) - x, eps=util.NEWTON_EPS) for x in offsets])

        w = util.complex_box(gen, k, re_half=0.4, im_half=0.3)
        fvec = residual(w)
        it = 0
        for it in range(max_iter):
            nrm = np.abs(fvec).max()
            if nrm < util.NEWTON_TOL:
                return embed(w)
            jac = np.array([
                [kl.theta(pm, embed(w) - x, deriv=(eye[i],), eps=util.NEWTON_EPS) for i in free_idx]
                for x in offsets
            ])
            try:
                step = np.linalg.solve(jac, -fvec)
            except np.linalg.LinAlgError:
                break
            accepted = _backtrack(w, step, residual, nrm)
            if accepted is None:
                break
            w, fvec = accepted
        if np.abs(fvec).max() < util.NEWTON_TOL:
            return embed(w)
        trace.append((attempt, it, float(np.abs(fvec).max())))
    raise kl.ConvergenceFailure("reference section search failed", trace=trace)


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


def loop_propagation_table(cfg, zeta_prime, eps=1e-12):
    """propagation_secant_check's table, one lift at a time (reference).

    Every lift's points come from ``propagate`` and are scored by
    secant_residual of the derived configuration, which keeps cfg's zeta:
    2^(2g) (m + 2) second_order_values calls, none shared.
    """
    table = []
    for bits in itertools.product((0, 1), repeat=2 * cfg.pm.g):
        points = kl.propagate(cfg, zeta_prime, np.array(bits))
        derived = kl.SecantConfiguration(cfg.pm, cfg.m, points, cfg.zeta)
        table.append((bits, kl.secant_residual(derived, eps=eps)))
    return table


def loop_tangency_table(pm, divisor_points, eps=1e-12):
    """degenerate_fay_configuration's table, one second_order_values call per lift (reference)."""
    za, zb, zc = (p.z for p in divisor_points[:3])
    u = kl.lattice_reduce(pm, 0.5 * (za - zb))
    b1 = kl.lattice_reduce(pm, 0.5 * (za + zb) - zc)
    direction = kl.theta_tangent_direction(pm, zc, eps=eps)
    ku = kl.second_order_values(pm, u, eps=eps)
    dku = kl.second_order_derivative(pm, u, direction, eps=eps)
    cu, cd = ku / np.linalg.norm(ku), dku / np.linalg.norm(dku)
    table = []
    for bits, h in kl.all_half_periods(pm):
        kb = kl.second_order_values(pm, b1 + h, eps=eps)
        s = np.linalg.svd(np.stack([cu, kb / np.linalg.norm(kb), cd], axis=1), compute_uv=False)
        table.append((bits, float(s[-1] / s[0])))
    return table
