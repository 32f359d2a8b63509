"""Genus-2 scenario generators: divisor points, trisecants, tangency data."""

import numpy as np
import pytest

import kummerlab as kl
import kummerlab.scenarios as scenarios_module
from kummerlab.errors import ConvergenceFailure, ValidationError


def _misalignment(a, b):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return float(np.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2)))


class TestDivisorPoints:
    def test_residual_bound(self, pm_g2, divisor_points):
        for p in divisor_points:
            assert p.residual <= 1e-10
            assert abs(kl.theta(pm_g2, p.z, eps=1e-14)) <= 1e-10

    def test_negative_point_also_on_divisor(self, pm_g2, divisor_points):
        for p in divisor_points:
            assert abs(kl.theta(pm_g2, -p.z, eps=1e-14)) <= 1e-10

    def test_distinct_seeds_separate(self, pm_g2):
        pts = [kl.find_theta_divisor_point(pm_g2, 600 + k).z for k in range(10)]
        separated = 0
        total = 0
        for i in range(10):
            for k in range(i + 1, 10):
                total += 1
                if kl.torus_distance(pm_g2, pts[i], pts[k]) >= 1e-3:
                    separated += 1
        assert separated >= 0.9 * total

    def test_deterministic(self, pm_g2):
        a = kl.find_theta_divisor_point(pm_g2, 31)
        b = kl.find_theta_divisor_point(pm_g2, 31)
        assert np.array_equal(a.z, b.z)
        assert a.residual == b.residual

    def test_genus_restriction(self, pm_g1):
        with pytest.raises(ValidationError, match="g = 2"):
            kl.find_theta_divisor_point(pm_g1, 0)

    def test_out_of_restarts_raises_with_trace(self, pm_g2, monkeypatch):
        # one Newton step per start cannot reach 1e-11 from a random start
        monkeypatch.setattr(scenarios_module, "_DIVISOR_RESTARTS", 3)
        monkeypatch.setattr(scenarios_module, "_DIVISOR_MAX_ITER", 1)
        with pytest.raises(ConvergenceFailure, match="after 3 restarts") as err:
            kl.find_theta_divisor_point(pm_g2, 31)
        assert [row[:2] for row in err.value.trace] == [(0, 0), (1, 0), (2, 0)]
        assert all(row[2] >= 1e-11 for row in err.value.trace)


class TestFayConfiguration:
    def test_residual_and_shape(self, fay):
        assert fay.residual <= 1e-7
        assert fay.config.m == 1
        assert len(fay.table) == 256

    def test_fresh_tau_and_points(self):
        pm = kl.sample_genus2_period_matrix(19)
        pts = [kl.find_theta_divisor_point(pm, 700 + k) for k in range(4)]
        result = kl.fay_configuration(pm, pts)
        assert result.residual <= 1e-7

    def test_swapping_last_two_points_permutes_only(self, pm_g2, divisor_points):
        a = kl.fay_configuration(pm_g2, divisor_points)
        swapped = [divisor_points[0], divisor_points[1], divisor_points[3], divisor_points[2]]
        b = kl.fay_configuration(pm_g2, swapped)
        assert b.residual == pytest.approx(a.residual, rel=1e-6, abs=1e-14)

    def test_coincident_input_rejected(self, pm_g2, divisor_points):
        with pytest.raises(ValidationError, match="apart"):
            kl.fay_configuration(
                pm_g2, [divisor_points[0], divisor_points[1], divisor_points[2], divisor_points[2]]
            )

    def test_wrong_count_rejected(self, pm_g2, divisor_points):
        with pytest.raises(ValidationError, match="four"):
            kl.fay_configuration(pm_g2, divisor_points[:3])

    def test_family_persistence(self, pm_g2, divisor_points, fay):
        # sliding one input point along the divisor keeps the construction
        # inside the trisecant family
        gen = np.random.default_rng(8)
        za = divisor_points[0].z
        passed = 0
        for _ in range(10):
            v = kl.theta_tangent_direction(pm_g2, za)
            step = gen.uniform(0.02, 0.08) * np.exp(2j * np.pi * gen.uniform())
            za_new = kl.project_to_divisor(pm_g2, za + step * v)
            moved = [kl.ThetaDivisorPoint(za_new, 0.0)] + list(divisor_points[1:])
            result = kl.fay_configuration(pm_g2, moved)
            if result.residual <= 1e-7:
                passed += 1
        assert passed == 10

    def test_emitted_configuration_passes_bilinear(self, fay, fay_alpha):
        assert kl.bilinear_residual(fay.config, fay_alpha, sample_count=50, seed=0) <= 1e-6


class TestDegenerateFay:
    def test_tangency_residual(self, tangency):
        assert tangency.residual <= 1e-6

    def test_premise_check_agreement(self, pm_g2, tangency):
        report = kl.premise_check(pm_g2, 1, tangency.u, [tangency.b], direction=tangency.direction)
        assert report.tangency_residual <= 1e-6

    def test_confluent_direction_vs_finite_difference(self, pm_g2, divisor_points):
        # rebuild the honest configuration at z_d = z_c + h v and compare the
        # chord direction of the colliding arguments with the analytic tangent
        za, zb, zc = (p.z for p in divisor_points[:3])
        v = kl.theta_tangent_direction(pm_g2, zc)
        mis = []
        for h in (1e-4, 5e-5):
            zd = kl.project_to_divisor(pm_g2, zc + h * v)
            chord = (zd - zc) / h
            mis.append(_misalignment(chord, v))
        assert mis[0] <= 1e-3
        assert mis[1] <= mis[0] + 1e-12

    def test_determinism(self, pm_g2, divisor_points):
        a = kl.degenerate_fay_configuration(pm_g2, divisor_points[:3])
        b = kl.degenerate_fay_configuration(pm_g2, divisor_points[:3])
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.direction, b.direction)

    def test_wrong_count_rejected(self, pm_g2, divisor_points):
        with pytest.raises(ValidationError, match="three"):
            kl.degenerate_fay_configuration(pm_g2, divisor_points)


class TestPeriodMatrixSampler:
    def test_deterministic(self):
        a = kl.sample_genus2_period_matrix(5)
        b = kl.sample_genus2_period_matrix(5)
        assert np.array_equal(a.tau, b.tau)

    def test_even_constants_screened(self):
        for seed in (1, 2, 3):
            pm = kl.sample_genus2_period_matrix(seed)
            consts = kl.even_theta_constants(pm)
            assert consts.shape == (10,)
            assert np.abs(consts).min() > 1e-6

    def test_eigenvalue_window(self):
        pm = kl.sample_genus2_period_matrix(11)
        assert 0.35 <= pm.lam_min <= pm.lam_max <= 2.5
