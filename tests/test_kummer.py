"""Second-order basis, Kummer map, and the addition-formula oracle."""

import gc
import importlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummerlab as kl
from kummerlab.errors import ValidationError

from conftest import random_period_matrix, random_point


class TestSecondOrderValues:
    def test_length_is_two_for_g1(self, pm_g1):
        assert kl.second_order_values(pm_g1, [0.2 + 0.1j]).shape == (2,)

    def test_even_in_z(self, pm_g2):
        for k in range(5):
            z = random_point(2, 70 + k)
            a = kl.second_order_values(pm_g2, z)
            b = kl.second_order_values(pm_g2, -z)
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())

    def test_addition_formula_is_the_oracle(self, pm_g2):
        z = random_point(2, 81)
        w = random_point(2, 82)
        assert kl.addition_residual(pm_g2, z, w, eps=1e-13) <= 1e-10

    def test_derivative_vs_finite_differences(self, pm_g2):
        z = random_point(2, 83)
        w = np.array([0.5 - 0.1j, 0.2 + 0.3j])
        h = 1e-5
        fd = (kl.second_order_values(pm_g2, z + h * w, eps=1e-14)
              - kl.second_order_values(pm_g2, z - h * w, eps=1e-14)) / (2 * h)
        dv = kl.second_order_derivative(pm_g2, z, w, eps=1e-14)
        assert np.abs(dv - fd).max() <= 1e-6 * max(1.0, np.abs(dv).max())


class TestAdditionResidual:
    def test_w_zero_specialization(self, pm_g2):
        z = random_point(2, 90)
        assert kl.addition_residual(pm_g2, z, np.zeros(2), eps=1e-13) <= 1e-10

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_random_inputs(self, g):
        for k in range(4):
            pm = random_period_matrix(g, 2000 * g + k)
            z = random_point(g, 3000 + k)
            w = random_point(g, 4000 + k)
            assert kl.addition_residual(pm, z, w, eps=1e-13) <= 1e-10

    def test_sensitive_to_basis_scaling(self, pm_g2):
        # the same identity recomputed with one basis member doubled must fail loudly
        worst = 0.0
        for k in range(5):
            z = random_point(2, 60 + k)
            w = random_point(2, 65 + k)
            lhs = kl.theta(pm_g2, z + w) * kl.theta(pm_g2, z - w)
            vz = kl.second_order_values(pm_g2, z)
            vw = kl.second_order_values(pm_g2, w)
            vz_bad = vz.copy()
            vz_bad[0] *= 2.0
            residual = abs(lhs - vz_bad @ vw) / max(1.0, abs(lhs))
            worst = max(worst, residual)
        assert worst > 1e-3


class TestKummerMap:
    def test_evenness_100_points(self, pm_g2):
        for k in range(100):
            z = random_point(2, 7000 + k)
            d = kl.projective_distance(kl.kummer(pm_g2, z), kl.kummer(pm_g2, -z))
            assert d <= 1e-10

    def test_g1_at_origin(self, pm_g1):
        pt = kl.kummer(pm_g1, [0.0])
        assert pt.coords.shape == (2,)
        assert np.abs(pt.coords).max() == pytest.approx(1.0)

    def test_lattice_invariance(self, pm_g2):
        gen = np.random.default_rng(17)
        for k in range(5):
            z = random_point(2, 7500 + k)
            lam = pm_g2.tau @ gen.integers(-2, 3, size=2) + gen.integers(-2, 3, size=2)
            d = kl.projective_distance(kl.kummer(pm_g2, z), kl.kummer(pm_g2, z + lam))
            assert d <= 1e-10

    def test_degenerate_point_guard(self, pm_g2):
        # an accuracy floor above the value scale must be reported, not hidden
        with pytest.raises(kl.DegeneratePointError):
            kl.kummer(pm_g2, random_point(2, 7600), eps=1e3)


class TestBasisData:
    def test_matrix_and_doubled_matrix_freed_without_gc(self):
        # the basis data kept on a matrix holds no reference back to it, so
        # reference counting alone frees the matrix and its doubled matrix
        enabled = gc.isenabled()
        gc.disable()
        try:
            pm = random_period_matrix(2, 76)
            kl.kummer(pm, random_point(2, 76))
            pm2 = importlib.import_module("kummerlab.kummer")._basis(pm).pm2
            refs = [weakref.ref(pm), weakref.ref(pm2)]
            refs += [weakref.ref(entry.points) for entry in pm2._lattice.values()]
            assert len(refs) >= 3
            del pm, pm2
            alive = [ref() is not None for ref in refs]
        finally:
            if enabled:
                gc.enable()
        assert not any(alive)


class TestProjectivePoint:
    def test_normalization_pivot_is_one(self):
        pt = kl.ProjectivePoint(np.array([1.0 + 1.0j, 3.0 - 4.0j, 0.5j]))
        assert np.abs(pt.coords).max() == pytest.approx(1.0)
        assert pt.coords[1] == pytest.approx(1.0 + 0.0j)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValidationError):
            kl.ProjectivePoint(np.zeros(4, dtype=complex))


class TestProjectiveDistance:
    def test_identical_points(self):
        p = kl.ProjectivePoint(np.array([1.0, 2.0j, -0.5]))
        assert kl.projective_distance(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        p = kl.ProjectivePoint(np.array([1.0, 0.0], dtype=complex))
        q = kl.ProjectivePoint(np.array([0.0, 1.0], dtype=complex))
        assert kl.projective_distance(p, q) == pytest.approx(1.0)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, seed):
        gen = np.random.default_rng(seed)
        v = gen.normal(size=4) + 1j * gen.normal(size=4)
        p = kl.ProjectivePoint(v)
        q = kl.ProjectivePoint(3.0 * v)
        assert kl.projective_distance(p, q) <= 1e-12


class TestHalfPeriods:
    def test_count(self, pm_g2):
        assert len(kl.all_half_periods(pm_g2)) == 16

    def test_doubled_half_period_is_lattice(self, pm_g2):
        for bits, h in kl.all_half_periods(pm_g2):
            assert np.linalg.norm(kl.lattice_reduce(pm_g2, 2.0 * h)) < 1e-12

    def test_rejects_bad_bits(self, pm_g2):
        with pytest.raises(ValidationError):
            kl.half_period(pm_g2, [0, 1, 2, 0])

    @pytest.mark.parametrize("bits", [[0.5, 1, 0, 0], [0.9, 1.7, 0, 0]])
    def test_rejects_non_integer_bits(self, pm_g2, bits):
        # an integer cast would truncate both to [0, 1, 0, 0]
        with pytest.raises(ValidationError, match="each 0 or 1"):
            kl.half_period(pm_g2, bits)
