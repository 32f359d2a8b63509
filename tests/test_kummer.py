"""Second-order basis, Kummer map, and the addition-formula oracle."""

import gc
import importlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummerlab as kl
from kummerlab.errors import IllPosedError, ValidationError

from conftest import (
    full_path_centre_rows,
    full_path_theta_rows,
    random_period_matrix,
    random_point,
    unreduced_second_order,
)


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


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestReduction:
    """One reduction z = z_c + m + tau k per call, against the unreduced formula."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_matches_unreduced_formula_in_the_cell(self, g):
        gen = np.random.default_rng(60 + g)
        for k in range(6):
            pm = random_period_matrix(g, 600 + 10 * g + k)
            z = random_point(g, 700 + 10 * g + k)
            direction = gen.normal(size=g) + 1j * gen.normal(size=g)
            assert rel(kl.second_order_values(pm, z), unreduced_second_order(pm, z)) <= 1e-13
            assert rel(kl.second_order_derivative(pm, z, direction),
                       unreduced_second_order(pm, z, direction)) <= 1e-13

    @pytest.mark.parametrize("shift", [[1.0, 0.0], [-3.0, 1e12], [1e15, -2.0**40], [-1e15, 7.0]])
    @pytest.mark.parametrize("im", [[0.1, -0.2], [1.3, -2.1]])
    def test_period_one_up_to_1e15(self, shift, im):
        pm = random_period_matrix(2, 64)
        # real parts with three fractional bits, so z + shift is exact up to 2^50
        z = np.array([0.25, -0.375]) + 1j * np.array(im)
        direction = np.array([0.4 - 0.2j, 1.1 + 0.3j])
        moved = z + np.array(shift)
        assert rel(kl.second_order_values(pm, moved), kl.second_order_values(pm, z)) <= 1e-13
        assert rel(kl.second_order_derivative(pm, moved, direction),
                   kl.second_order_derivative(pm, z, direction)) <= 1e-13

    @pytest.mark.parametrize("k", [[1, 0], [0, -2], [3, 1]])
    def test_tau_shift_identity(self, pm_g2, k):
        # theta_j(z + tau k) = exp(-2 pi i k.tau.k - 4 pi i k.z) theta_j(z)
        k = np.array(k, dtype=float)
        direction = np.array([0.3 + 0.5j, -0.8])
        for seed in range(4):
            z = random_point(2, 800 + seed)
            factor = np.exp(-2j * np.pi * (k @ pm_g2.tau @ k) - 4j * np.pi * (k @ z))
            moved = z + pm_g2.tau @ k
            assert rel(kl.second_order_values(pm_g2, moved),
                       factor * unreduced_second_order(pm_g2, z)) <= 1e-12
            assert rel(kl.second_order_derivative(pm_g2, moved, direction),
                       unreduced_second_order(pm_g2, moved, direction)) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [[100j, 0], [-100j, 0], [-200j, 0]])
    def test_overflow_is_ill_posed_without_warnings(self, z):
        pm = kl.make_period_matrix(2, 1j * np.array([[1, 0.3], [0.3, 1.2]]))
        with pytest.raises(IllPosedError, match="overflowed"):
            kl.second_order_values(pm, z)
        with pytest.raises(IllPosedError, match="overflowed"):
            kl.second_order_derivative(pm, z, [1.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("height", [8.0, -8.0])
    def test_values_below_the_bound_are_finite(self, height):
        pm = kl.make_period_matrix(2, 1j * np.array([[1, 0.3], [0.3, 1.2]]))
        z = np.array([0.1 + height * 1j, 0.2])
        for values in (kl.second_order_values(pm, z), kl.second_order_derivative(pm, z, [1, 0])):
            assert np.all(np.isfinite(values)) and np.abs(values).max() > 1e100


kummer_module = importlib.import_module("kummerlab.kummer")


class TestSecondOrderRows:
    """The (k, 2^g) block of basis values against stacked second_order_values calls."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_block_matches_stacked_values(self, g):
        gen = np.random.default_rng(90 + g)
        for k in range(3):
            pm = random_period_matrix(g, 900 + 10 * g + k)
            cell = np.array([random_point(g, 950 + 10 * g + 100 * i + k) for i in range(4)])
            shifts = gen.integers(-3, 4, size=(4, g)) @ pm.tau.T
            far = cell + shifts + gen.integers(-10**12, 10**12, size=(4, g))
            for rows in (cell, far):
                block = kummer_module._second_order_rows(pm, rows, 1e-12)
                assert block.shape == (4, 2**g)
                for z, values in zip(rows, block):
                    assert rel(values, kl.second_order_values(pm, z)) <= 1e-13

    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_block_radius_covers_every_member(self, monkeypatch, g, eps):
        # each member of second_order_values sums to its own radius; the block
        # sums all of them in one pass, at no smaller radius than any of them
        pm = random_period_matrix(g, 930 + g)
        pm2 = kummer_module._basis(pm).pm2
        rows = np.array([random_point(g, 960 + 10 * g + i) for i in range(4)])
        rows[1] += pm.tau @ np.ones(g)
        theta_module = importlib.import_module("kummerlab.theta")
        lattice_points = theta_module.lattice_points
        radii = []

        def recorded(pm, radius):
            if pm is pm2:
                radii.append(radius)
            return lattice_points(pm, radius)

        monkeypatch.setattr(theta_module, "lattice_points", recorded)
        kummer_module._second_order_rows(pm, rows, eps)
        assert len(radii) == 1
        block = radii.pop()
        for z in rows:
            kl.second_order_values(pm, z, eps=eps)
        assert block >= max(radii)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [[100j, 0], [-200j, 0]])
    def test_factor_past_e700_raises_as_second_order_values(self, z):
        pm = kl.make_period_matrix(2, 1j * np.array([[1, 0.3], [0.3, 1.2]]))
        with pytest.raises(IllPosedError, match="overflowed") as scalar:
            kl.second_order_values(pm, z)
        rows = np.array([[0.1, 0.2 + 0.1j], z, [0.3, 300j]], dtype=complex)
        with pytest.raises(IllPosedError) as block:
            kummer_module._second_order_rows(pm, rows, 1e-12)
        assert str(block.value) == str(scalar.value)  # the first such row is refused

    @pytest.mark.filterwarnings("error")
    def test_row_past_the_reduction_guard_raises_as_second_order_values(self, pm_g2):
        z = np.array([0.1 + 1e300j, 0.2])
        with pytest.raises(IllPosedError, match="too large to reduce") as scalar:
            kl.second_order_values(pm_g2, z)
        with pytest.raises(IllPosedError) as block:
            kummer_module._second_order_rows(pm_g2, np.array([random_point(2, 3), z]), 1e-12)
        assert str(block.value) == str(scalar.value)


class TestCentredPaths:
    """The k = 0 path of _centre_rows and the n0 = 0 path of _theta_rows keep the full paths' bytes."""

    @staticmethod
    def rows(pm, seed, shifted):
        """Four points of the reduced cell (k = 0), or the same points moved by tau k (k != 0).

        The first is real, so its q = Y^-1 Im z is 0 and its pattern bits are those of q >= 0.
        """
        gen = np.random.default_rng(seed)
        cell = np.array([kl.lattice_reduce(pm, random_point(pm.g, seed + i, 2.0, 1.0))
                         for i in range(4)])
        cell[0] = cell[0].real
        if not shifted:
            return cell
        return cell + gen.integers(-2, 3, size=(4, pm.g)) @ pm.tau.T + gen.integers(-5, 6, (4, pm.g))

    @pytest.mark.parametrize("shifted", [False, True], ids=["k = 0", "k != 0"])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_centre_rows_match_the_full_path(self, g, shifted):
        pm = random_period_matrix(g, 940 + g)
        rows = self.rows(pm, 970 + 10 * g, shifted)
        z_c, k, log_f, pattern = kummer_module._centre_rows(pm, rows)
        ref = full_path_centre_rows(pm, rows)
        assert bool(k.any()) is shifted
        assert z_c.tobytes() == ref[0].tobytes()
        assert pattern.tobytes() == ref[3].tobytes()
        # log F is 0 where k = 0; the full path forms it from signed-zero products
        assert np.array_equal(log_f, ref[2])
        if shifted:
            assert log_f.tobytes() == ref[2].tobytes()

    @pytest.mark.parametrize("shifted", [False, True], ids=["k = 0", "k != 0"])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_block_matches_the_full_path_kernels(self, monkeypatch, g, shifted):
        pm = random_period_matrix(g, 945 + g)
        rows = self.rows(pm, 980 + 10 * g, shifted)
        block = kummer_module._second_order_rows(pm, rows, 1e-12)
        monkeypatch.setattr(kummer_module, "_centre_rows",
                            lambda pm, v, shift=None: full_path_centre_rows(pm, v))
        monkeypatch.setattr(kummer_module, "_theta_rows", full_path_theta_rows)
        assert block.tobytes() == kummer_module._second_order_rows(pm, rows, 1e-12).tobytes()


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
