"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

import kummerlab as kl

from conftest import brute_theta, random_period_matrix, random_point


def verdict(number, name, ok, detail):
    line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_addition_formula():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for g in (1, 2, 3):
        for k in range(67 if g > 1 else 66):
            pm = random_period_matrix(g, 10_000 + 100 * g + k)
            z = random_point(g, 20_000 + k + g)
            w = random_point(g, 30_000 + k + g)
            worst = max(worst, kl.addition_residual(pm, z, w, eps=1e-13))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and count == 200 and elapsed <= 60.0
    verdict(1, "addition formula", ok, f"{count} cases, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_theta_vs_brute_force():
    worst = 0.0
    for k in range(100):
        g = 1 + k % 3
        pm = random_period_matrix(g, 40_000 + k)
        z = random_point(g, 50_000 + k, re_half=0.8, im_half=0.35)
        r = kl.truncation_radius(pm, z, 0, 1e-12)
        box = int(np.ceil(3.0 * r / pm.s_min))
        worst = max(worst, abs(kl.theta(pm, z, eps=1e-12) - brute_theta(pm.tau, z, box)))

    worst_d1 = 0.0
    for k in range(50):
        g = 1 + k % 2
        pm = random_period_matrix(g, 60_000 + k)
        z = random_point(g, 70_000 + k)
        gen = np.random.default_rng(80_000 + k)
        w = gen.normal(size=g) + 1j * gen.normal(size=g)
        h = 1e-5
        fd = (kl.theta(pm, z + h * w, eps=1e-14) - kl.theta(pm, z - h * w, eps=1e-14)) / (2 * h)
        dv = kl.theta(pm, z, deriv=(w,), eps=1e-14)
        worst_d1 = max(worst_d1, abs(dv - fd) / max(1.0, abs(dv)))

    worst_d2 = 0.0
    pm = random_period_matrix(2, 90_000)
    gen = np.random.default_rng(90_001)
    for k in range(10):
        z = random_point(2, 91_000 + k)
        w1 = gen.normal(size=2) + 1j * gen.normal(size=2)
        w2 = gen.normal(size=2) + 1j * gen.normal(size=2)
        h = 2e-4
        fd = (
            kl.theta(pm, z + h * (w1 + w2), eps=1e-14)
            - kl.theta(pm, z + h * (w1 - w2), eps=1e-14)
            - kl.theta(pm, z - h * (w1 - w2), eps=1e-14)
            + kl.theta(pm, z - h * (w1 + w2), eps=1e-14)
        ) / (4 * h * h)
        dv = kl.theta(pm, z, deriv=(w1, w2), eps=1e-14)
        worst_d2 = max(worst_d2, abs(dv - fd) / max(1.0, abs(dv)))

    ok = worst <= 5e-12 and worst_d1 <= 1e-7 and worst_d2 <= 1e-5
    verdict(
        2,
        "theta vs brute force",
        ok,
        f"value {worst:.2e} (<=5e-12), d1 {worst_d1:.2e} (<=1e-7), d2 {worst_d2:.2e} (<=1e-5)",
    )


def test_criterion_03_fay_trisecants():
    t0 = time.perf_counter()
    worst_secant = 0.0
    worst_bilinear = 0.0
    runs = 0
    for p in range(5):
        pm = kl.sample_genus2_period_matrix(200 + p)
        for q in range(10):
            seeds = [100_000 + 1_000 * p + 40 * q + i for i in range(4)]
            pts = [kl.find_theta_divisor_point(pm, s) for s in seeds]
            result = kl.fay_configuration(pm, pts)
            alpha = kl.secant_coefficients(result.config)
            bilinear = kl.bilinear_residual(result.config, alpha, sample_count=50, seed=q)
            worst_secant = max(worst_secant, result.residual)
            worst_bilinear = max(worst_bilinear, bilinear)
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = runs == 50 and worst_secant <= 1e-7 and worst_bilinear <= 1e-6 and elapsed <= 300.0
    verdict(
        3,
        "trisecant reproduction",
        ok,
        f"{runs} configurations, worst secant {worst_secant:.2e}, "
        f"worst bilinear {worst_bilinear:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_propagation_family():
    # exact linear identities on random data
    gen = np.random.default_rng(123)
    pm1 = kl.make_period_matrix(1, [[1j]])
    worst_lin = 0.0
    for _ in range(1000):
        m = int(gen.integers(1, 4))
        pts = [gen.normal(size=1) + 1j * gen.normal(size=1) for _ in range(m + 2)]
        zp = gen.normal(size=1) + 1j * gen.normal(size=1)
        lift = gen.integers(0, 2, size=2)
        cfg = kl.SecantConfiguration(pm1, m, pts, np.zeros(1))
        b = kl.propagate(cfg, zp, lift)
        scale = max(1.0, float(np.abs(np.concatenate(pts)).max()))
        defects = [np.abs(b[-2] + b[0] - (pts[1] + pts[2])).max(),
                   np.abs(b[-1] + b[0] - (pts[0] + pts[2])).max()]
        defects += [np.abs(b[j - 1] - b[0] - (pts[j + 1] - pts[2])).max() for j in range(2, m + 1)]
        worst_lin = max(worst_lin, max(defects) / scale)

    # family data: sampled (zeta, zeta') pairs from the trisecant family
    pm = kl.sample_genus2_period_matrix(77)
    base = [kl.find_theta_divisor_point(pm, 300 + i) for i in range(4)]
    fay = kl.fay_configuration(pm, base)
    hits = 0
    pairs = 10
    failed_tables = []
    for k in range(pairs):
        t1 = kl.find_theta_divisor_point(pm, 400 + k)
        t2 = kl.find_theta_divisor_point(pm, 500 + k)
        zeta = 0.5 * (t1.z - base[0].z)
        member = kl.SecantConfiguration(pm, 1, fay.config.points, zeta)
        member_residual = kl.secant_residual(member)
        if member_residual > 1e-7:
            failed_tables.append((k, "member", member_residual))
            continue
        zeta_prime = 0.5 * (t2.z - base[0].z)
        try:
            check = kl.propagation_secant_check(member, zeta_prime)
        except kl.ToleranceFailure as exc:
            failed_tables.append((k, "propagation", getattr(exc, "table", [])))
            continue
        if check.best_residual <= 1e-7:
            hits += 1
        else:
            failed_tables.append((k, "propagation", check.table))
    for item in failed_tables:
        print("  residual table for failed pair:", item)
    ok = worst_lin <= 1e-14 and hits >= 0.8 * pairs
    verdict(
        4,
        "propagation family",
        ok,
        f"linear identities {worst_lin:.2e} (<=1e-14), family hits {hits}/{pairs}",
    )


def test_criterion_05_involution_identity():
    gen = np.random.default_rng(321)
    pm = kl.sample_genus2_period_matrix(4)
    worst = 0.0
    for _ in range(1000):
        pts = [gen.normal(size=2) + 1j * gen.normal(size=2) * 0.5 for _ in range(4)]
        zp = gen.normal(size=2) + 1j * gen.normal(size=2) * 0.5
        lift = gen.integers(0, 2, size=4)
        worst = max(worst, kl.involution_identity(pm, pts, zp, lift))
    ok = worst <= 1e-12
    verdict(5, "involution identity", ok, f"worst lattice-reduced defect {worst:.2e}")


def test_criterion_06_hierarchy_normalization():
    pm = kl.sample_genus2_period_matrix(9)
    gen = np.random.default_rng(55)
    worst_p0 = 0.0
    worst_p1 = 0.0
    for trial in range(3):
        m = 1 + trial % 2

        def pt():
            return gen.uniform(-0.4, 0.4, 2) + 1j * gen.uniform(-0.25, 0.25, 2)

        state = kl.make_state(pm, m, pt(), [pt() for _ in range(m)], order=3, w1=pt())
        state.W = gen.normal(size=(3, 2)) * 0.5 + 1j * gen.normal(size=(3, 2)) * 0.5
        state.alpha1 = gen.normal(size=3) + 1j * gen.normal(size=3)
        if m > 1:
            state.alphaj = gen.normal(size=(m - 1, 3)) + 1j * gen.normal(size=(m - 1, 3))
        for k in range(20):
            z = random_point(2, 7000 + 100 * trial + k)
            worst_p0 = max(worst_p0, abs(kl.assemble_P(state, 0, z)))
        for k in range(10):
            z = random_point(2, 8000 + 100 * trial + k)
            u, w1 = state.u, state.W[0]
            direct = state.alpha1[0] * kl.theta(pm, z + u, eps=1e-14) * kl.theta(pm, z - u, eps=1e-14)
            direct += kl.theta(pm, z + u, deriv=(w1,), eps=1e-14) * kl.theta(pm, z - u, eps=1e-14)
            direct -= kl.theta(pm, z - u, deriv=(w1,), eps=1e-14) * kl.theta(pm, z + u, eps=1e-14)
            for j, b in enumerate(state.b):
                coeff = 1.0 if j == m - 1 else state.alphaj[j, 0]
                direct += coeff * kl.theta(pm, z + b, eps=1e-14) * kl.theta(pm, z - b, eps=1e-14)
            got = kl.assemble_P(state, 1, z, eps=1e-14)
            worst_p1 = max(worst_p1, abs(got - direct) / max(1.0, abs(direct)))
    ok = worst_p0 <= 1e-10 and worst_p1 <= 1e-10
    verdict(6, "hierarchy normalization", ok, f"P0 {worst_p0:.2e}, P1 defect {worst_p1:.2e}")


def test_criterion_07_hierarchy_run():
    pm = kl.sample_genus2_period_matrix(13)
    pts = [kl.find_theta_divisor_point(pm, 600 + i) for i in range(3)]
    datum = kl.degenerate_fay_configuration(pm, pts)
    report = kl.premise_check(pm, 1, datum.u, [datum.b], direction=datum.direction)
    state = kl.make_state(pm, 1, datum.u, [datum.b], order=4, w1=datum.direction)
    samples = kl.default_samples(pm, 16, seed=2)
    kl.run_hierarchy(state, 4, samples)
    worst = max(state.residuals)

    aborted_ok = False
    gen = np.random.default_rng(61)
    bad = kl.make_state(
        pm,
        1,
        gen.normal(size=2) * 0.3 + 0.1j * gen.normal(size=2),
        [gen.normal(size=2) * 0.3 + 0.1j * gen.normal(size=2)],
        order=4,
        w1=np.array([1.0, 0.3]),
    )
    try:
        kl.run_hierarchy(bad, 4, samples)
    except kl.HierarchyAbort as exc:
        aborted_ok = exc.order == 1 and exc.residual >= 1e-3

    ok = report.passed and len(state.residuals) == 4 and worst <= 1e-7 and aborted_ok
    verdict(
        7,
        "hierarchy run to order 4",
        ok,
        f"premise {report.tangency_residual:.2e}, worst order residual {worst:.2e}, "
        f"negative control aborted at order 1: {aborted_ok}",
    )


def test_criterion_08_restriction_identity():
    worst = 0.0
    points_used = 0
    for seed in (21, 22):
        pm = kl.sample_genus2_period_matrix(seed)
        pts = [kl.find_theta_divisor_point(pm, 650 + 10 * seed + i) for i in range(3)]
        datum = kl.degenerate_fay_configuration(pm, pts)
        state = kl.make_state(pm, 1, datum.u, [datum.b], order=4, w1=datum.direction)
        kl.run_hierarchy(state, 4, kl.default_samples(pm, 16, seed=seed))
        g_points = [
            kl.find_section_intersection(pm, [state.u, -state.u], seed=s) for s in (1, 5)
        ]
        points_used += len(g_points)
        for s in (1, 2, 3):
            worst = max(worst, kl.restriction_identity_check(state, s, g_points))
    ok = points_used >= 4 and worst <= 1e-6
    verdict(
        8,
        "restriction identity",
        ok,
        f"{points_used} points of the common zero set, worst defect {worst:.2e}",
    )


def test_criterion_09_oracle_cross_validation():
    positives_ok = 0
    for p in range(4):
        pm = kl.sample_genus2_period_matrix(800 + p)
        for q in range(5):
            seeds = [700_000 + 1_000 * p + 50 * q + i for i in range(4)]
            pts = [kl.find_theta_divisor_point(pm, s) for s in seeds]
            result = kl.fay_configuration(pm, pts)
            alpha = kl.secant_coefficients(result.config)
            if result.residual <= 1e-8 and kl.bilinear_residual(
                result.config, alpha, sample_count=50, seed=q
            ) <= 1e-6:
                positives_ok += 1

    negatives_ok = 0
    pm = kl.sample_genus2_period_matrix(801)
    drawn = 0
    k = 0
    while drawn < 20:
        cfg = kl.SecantConfiguration(
            pm,
            1,
            [random_point(2, 900_000 + 3 * k + i) for i in range(3)],
            random_point(2, 910_000 + k),
        )
        k += 1
        if kl.secant_residual(cfg) < 1e-3:
            continue
        drawn += 1
        # best-fit candidate: the right singular vector of the smallest
        # singular value; if even it fails the bilinear identity, every
        # other coefficient vector fails harder
        mat = kl.secant_matrix(cfg)
        _, _, vh = np.linalg.svd(mat)
        alpha = np.conj(vh[-1])
        if kl.bilinear_residual(cfg, alpha, sample_count=50, seed=k) >= 1e-4:
            negatives_ok += 1

    ok = positives_ok == 20 and negatives_ok == 20
    verdict(
        9,
        "oracle cross-validation",
        ok,
        f"positives {positives_ok}/20 agree, negatives {negatives_ok}/20 agree",
    )


def test_criterion_10_performance():
    pm = kl.sample_genus2_period_matrix(2)
    z = random_point(2, 1)
    kl.theta(pm, z, eps=1e-12)  # warm the caches

    t0 = time.perf_counter()
    for _ in range(200):
        kl.theta(pm, z, eps=1e-12)
    single = (time.perf_counter() - t0) / 200

    points = [random_point(2, 2_000 + k) for k in range(10_000)]
    t0 = time.perf_counter()
    for p in points:
        kl.theta(pm, p, eps=1e-12)
    batch = time.perf_counter() - t0

    ok = single <= 1e-3 and batch <= 5.0
    verdict(
        10,
        "performance",
        ok,
        f"single evaluation {single * 1e6:.0f} us (<=1 ms), 10^4 batch {batch:.2f}s (<=5 s)",
    )
