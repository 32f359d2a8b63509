"""Lattice-sum engine against brute-force and structural oracles."""

import gc
import importlib
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummerlab as kl
from kummerlab.errors import IllPosedError, ValidationError
from kummerlab.theta import lattice_points, reduce_argument

from conftest import (
    box_scan_lattice,
    brute_theta,
    full_path_theta_rows,
    random_period_matrix,
    random_point,
)


# every public entry point that reduces an argument, called at a point z
ENTRY_POINTS = {
    "theta": lambda pm, z: kl.theta(pm, z),
    "lattice_reduce": lambda pm, z: kl.lattice_reduce(pm, z),
    "torus_distance": lambda pm, z: kl.torus_distance(pm, z, [0.0, 0.0]),
    "truncation_radius": lambda pm, z: kl.truncation_radius(pm, z),
    "second_order_values": lambda pm, z: kl.second_order_values(pm, z),
    "second_order_derivative": lambda pm, z: kl.second_order_derivative(pm, z, [1.0, 0.0]),
    "secant_search": lambda pm, z: kl.secant_search(pm, 1, [z, [0.1, 0.2], [0.3, 0.1]], [0, 0]),
}


class TestMakePeriodMatrix:
    def test_g1_identity(self):
        pm = kl.make_period_matrix(1, [[1j]])
        assert pm.lam_min == 1.0

    def test_g2_eigenvalues_by_hand(self):
        # Im = [[1, .5], [.5, 1]]: char poly (1-l)^2 = 1/4, eigenvalues 0.5 and 1.5
        pm = kl.make_period_matrix(2, [[1j, 0.5j], [0.5j, 1j]])
        assert pm.lam_min == pytest.approx(0.5, abs=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            kl.make_period_matrix(2, [[1j, 1.0], [0.0, 1j]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="positive definite"):
            kl.make_period_matrix(2, [[1j, 0.0], [0.0, -1j]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            kl.make_period_matrix(2, [[1j]])

    def test_rejects_subnormal_eigenvalue(self):
        # positive, but Y^-1 overflows to inf, so no point could be reduced
        with pytest.raises(ValidationError, match="numerically singular"):
            kl.make_period_matrix(3, np.diag([1e-310j, 1j, 1j]))

    def test_tiny_normal_eigenvalue_constructs(self):
        pm = kl.make_period_matrix(3, np.diag([1e-200j, 1j, 1j]))
        assert np.all(np.isfinite(pm.im_inv))


class TestTruncationRadius:
    def test_tail_below_eps_g1(self, pm_g1):
        r = kl.truncation_radius(pm_g1, [0.0], order=0, eps=1e-12)
        tail = sum(2.0 * np.exp(-np.pi * n * n) for n in range(int(np.floor(r)) + 1, 60))
        assert tail < 1e-12

    @pytest.mark.parametrize("g", [1, 3, 5])
    def test_order_zero_radius_does_not_depend_on_c0(self, g):
        # the order-0 bound's one coefficient is gamma^0 = 1 whatever c0 is;
        # fresh matrices solve the bound itself at each c0
        for eps in (1e-4, 1e-12, 1e-40):
            radii = {theta_module._solve_radius(kl.make_period_matrix(g, 0.7j * np.eye(g)), 0, c0, eps)
                     for c0 in (0.0, 0.25, 1.3, 4.0, 40.0)}
            assert len(radii) == 1
        # so every plain value at one eps decade shares one cache entry
        pm = kl.make_period_matrix(g, 0.7j * np.eye(g))
        for c0 in (0.0, 1.3, 40.0):
            theta_module._solve_radius(pm, 0, c0, 1e-12)
        theta_module._solve_radius(pm, 1, 1.3, 1e-12)
        assert len(pm._radius_cache) == 2

    def test_monotone_in_eps(self, pm_g2):
        z = random_point(2, 5)
        assert kl.truncation_radius(pm_g2, z, 0, 1e-6) <= kl.truncation_radius(pm_g2, z, 0, 1e-12)

    def test_monotone_in_order(self, pm_g2):
        z = random_point(2, 5)
        assert kl.truncation_radius(pm_g2, z, 2, 1e-12) >= kl.truncation_radius(pm_g2, z, 0, 1e-12)

    def test_rejects_bad_eps(self, pm_g1):
        with pytest.raises(ValidationError):
            kl.truncation_radius(pm_g1, [0.0], 0, -1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_eps_not_finite_and_positive(self, pm_g1, eps):
        with pytest.raises(ValidationError, match="finite and positive"):
            kl.truncation_radius(pm_g1, [0.0], 0, eps)
        with pytest.raises(ValidationError, match="finite and positive"):
            kl.theta(pm_g1, [0.0], eps=eps)

    # a str, None and a complex used to raise a bare TypeError; True ran as eps = 1
    @pytest.mark.parametrize("eps", ["1e-12", None, 1e-12 + 0j, True])
    @pytest.mark.parametrize("call", [
        lambda pm, eps: kl.theta(pm, [0.1], eps=eps),
        lambda pm, eps: kl.truncation_radius(pm, [0.1], 0, eps),
        lambda pm, eps: kl.second_order_values(pm, [0.1], eps=eps),
        lambda pm, eps: kl.second_order_derivative(pm, [0.1], [1.0], eps=eps),
        lambda pm, eps: kl.kummer(pm, [0.1], eps=eps),
    ], ids=["theta", "truncation_radius", "second_order_values", "second_order_derivative",
            "kummer"])
    def test_rejects_eps_not_a_real_number(self, pm_g1, call, eps):
        with pytest.raises(ValidationError, match="eps must be finite and positive"):
            call(pm_g1, eps)


# the package attribute kummerlab.theta is the function, not the module
theta_module = importlib.import_module("kummerlab.theta")

UNIT_ROUNDOFF = 2.0**-53
HALF_INTEGERS = [k / 2 for k in range(1, 41)]  # a = 1/2 .. 20
GAMMA_XS = np.geomspace(1e-8, 745.0, 150)


class TestUpperGamma:
    """The closed-form Gamma(a, x) behind the tail bound."""

    @pytest.mark.parametrize("x", [1e-3, 0.5, 7.0, 60.0])
    def test_closed_forms_by_hand(self, x):
        e, root = math.exp(-x), math.sqrt(x)
        half = math.sqrt(math.pi) * math.erfc(root)
        cases = {
            0.5: half,
            1.0: e,
            1.5: root * e + 0.5 * half,
            2.5: (x * root + 1.5 * root) * e + 0.75 * half,
            3.0: (x * x + 2.0 * x + 2.0) * e,
        }
        for a, want in cases.items():
            assert theta_module._upper_gamma(a, x) == pytest.approx(want, rel=1e-14)

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        # both implementations form x^a e^-x from rounded intermediates, so
        # each may be off by a few x * u near x ~ 700 (Gamma is x-conditioned)
        for a in HALF_INTEGERS:
            for x in GAMMA_XS:
                want = float(special.gamma(a) * special.gammaincc(a, x))
                if not want >= np.finfo(float).tiny:
                    continue
                rtol = 1e-13 + 4.0 * x * UNIT_ROUNDOFF
                assert theta_module._upper_gamma(a, x) == pytest.approx(want, rel=rtol), (a, x)

    def test_matches_mpmath_to_conditioning(self):
        mpmath = pytest.importorskip("mpmath")
        for a in HALF_INTEGERS:
            for x in GAMMA_XS:
                want = float(mpmath.gammainc(a, x))
                if not want >= np.finfo(float).tiny:
                    continue
                rtol = 4.0 * (2.0 * a + x) * UNIT_ROUNDOFF
                assert theta_module._upper_gamma(a, x) == pytest.approx(want, rel=rtol), (a, x)

    def test_radius_matches_scipy_bound(self, monkeypatch):
        special = pytest.importorskip("scipy.special")
        grid = [
            (g, s_min, order, c0, eps)
            for g in range(1, 7)
            for s_min in (0.45, 1.2)
            for order in range(kl.MAX_DERIV_ORDER + 1)
            for c0 in (0.0, 1.3, 4.0)
            for eps in (1e-4, 1e-12, 1e-16, 1e-40)
        ]

        def radii():
            # fresh matrices, so no radius comes from the other run's cache
            pms = {}
            out = []
            for g, s_min, order, c0, eps in grid:
                if (g, s_min) not in pms:
                    pms[g, s_min] = kl.make_period_matrix(g, 1j * s_min**2 * np.eye(g))
                out.append(theta_module._solve_radius(pms[g, s_min], order, c0, eps))
            return out

        ours = radii()
        monkeypatch.setattr(
            theta_module,
            "_upper_gamma",
            lambda a, x: math.gamma(a) * float(special.gammaincc(a, x)),
        )
        assert radii() == ours


class TestTheta:
    def test_known_value_g1(self, pm_g1):
        # sum of exp(-pi n^2); classical constant, frozen from the brute oracle
        val = kl.theta(pm_g1, [0.0])
        assert val == pytest.approx(1.0864348112133080, abs=1e-13)
        assert val == pytest.approx(brute_theta(pm_g1.tau, [0.0], 10), abs=1e-12)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_matches_brute_force(self, g):
        for k in range(6):
            pm = random_period_matrix(g, 1000 * g + k)
            z = random_point(g, 77 * g + k, re_half=0.8, im_half=0.35)
            r = kl.truncation_radius(pm, z, 0, 1e-12)
            box = int(np.ceil(3.0 * r / pm.s_min))
            assert abs(kl.theta(pm, z, eps=1e-12) - brute_theta(pm.tau, z, box)) < 5e-12

    def test_evenness(self, pm_g2):
        for k in range(10):
            z = random_point(2, k)
            assert abs(kl.theta(pm_g2, z) - kl.theta(pm_g2, -z)) <= 2e-12

    def test_quasi_periodicity(self, pm_g2):
        gen = np.random.default_rng(4)
        tau = pm_g2.tau
        for _ in range(5):
            z = random_point(2, int(gen.integers(1 << 30)))
            n = gen.integers(-3, 4, size=2)
            m = gen.integers(-3, 4, size=2)
            lhs = kl.theta(pm_g2, z + tau @ n + m)
            rhs = np.exp(-1j * np.pi * (n @ tau @ n) - 2j * np.pi * (n @ z)) * kl.theta(pm_g2, z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        g=st.integers(min_value=1, max_value=2),
        reach=st.sampled_from([3, 10, 30]),
    )
    @settings(max_examples=40, deadline=None)
    def test_quasi_periodicity_at_large_arguments(self, seed, g, reach):
        gen = np.random.default_rng(seed)
        pm = random_period_matrix(g, seed)
        tau = pm.tau
        z = random_point(g, seed + 1)
        n = gen.integers(-reach, reach + 1, size=g)
        m = gen.integers(-reach, reach + 1, size=g)
        got = kl.theta(pm, z + tau @ n + m)
        assert not (math.isnan(got.real) or math.isnan(got.imag))
        base = kl.theta(pm, z)
        exponent = -1j * np.pi * (n @ tau @ n) - 2j * np.pi * (n @ z)
        log_size = exponent.real + math.log(abs(base))
        if log_size < 690.0:
            want = np.exp(exponent) * base
            assert abs(got - want) <= 1e-9 * abs(want)
        elif log_size > 720.0:
            assert math.isinf(abs(got))

    def test_large_imaginary_argument_is_reduced(self, pm_g2):
        # without reduction this sum has terms of magnitude exp(~200)
        z = random_point(2, 9) + pm_g2.tau @ np.array([4.0, -5.0])
        val = kl.theta(pm_g2, z)
        z_red, _, _, w = reduce_argument(pm_g2, z)
        assert abs(val - np.exp(w) * kl.theta(pm_g2, z_red)) <= 1e-9 * abs(val)

    @pytest.mark.parametrize("height", [100.0, 300.0, 1000.0, 1e10, 1e15])
    def test_overflowing_prefactor_is_inf_not_nan(self, height):
        # exp(w) is inf + inf i here; multiplied by the sum it used to give nan + nan i
        pm = kl.make_period_matrix(2, [[1j, 0], [0, 1j]])
        z = [0.1 + 1j * height, 0.2]
        for deriv in ((), [np.array([1.0, 0.3j])] * 2):
            val = kl.theta(pm, z, deriv=deriv)
            assert not (math.isnan(val.real) or math.isnan(val.imag)), val
            assert math.isinf(abs(val))

    @pytest.mark.parametrize("shift", [1e19, -3e17, 2.0**70])
    def test_huge_integer_real_part_reduces_exactly(self, pm_g2, shift):
        # an integer Re z is a period; the shift m0 must not wrap past int64
        z = np.array([0.05j, 0.2])
        assert kl.theta(pm_g2, z + [shift, 0.0]) == kl.theta(pm_g2, z)

    def test_overflow_keeps_a_zero_component(self):
        assert theta_module._overflowed(complex(1000.0, 0.0), 1.0, 2.0 + 0j) == complex(math.inf, 0.0)

    # past about 1e154 q.q overflows: the guard must still refuse with
    # IllPosedError, not a RuntimeWarning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("height", [1e16, 1e19, 1e100, 1e200, 1e300])
    def test_argument_beyond_resolved_shift_is_ill_posed(self, height):
        pm = kl.make_period_matrix(2, [[1j, 0], [0, 1j]])
        z = np.array([0.1 + 1j * height, 0.2])
        with pytest.raises(IllPosedError, match="too large to reduce"):
            reduce_argument(pm, z)
        with pytest.raises(IllPosedError, match="too large to reduce"):
            kl.theta(pm, z)

    # on Y = I at 1e300, and at the top of the double range on a Y with an
    # off-diagonal entry, where Y^-1 Im z (or 4 pi i s.z in the second-order
    # basis) overflowed with a RuntimeWarning before the guard on it could refuse
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, y, z", [
        pytest.param(ENTRY_POINTS[name], [[1, 0], [0, 1]], [0.1 + 1e300j, 0.2], id=name)
        for name in ("truncation_radius", "second_order_values", "torus_distance")
    ] + [
        pytest.param(call, [[1, 0.3], [0.3, 1.2]], [height * 1j, 0], id=f"{name}-{height:g}")
        for name, call in ENTRY_POINTS.items() for height in (1.7e308, 0.85e308)
    ])
    def test_entry_points_refuse_an_argument_at_1e300(self, call, y, z):
        pm = kl.make_period_matrix(2, 1j * np.array(y))
        with pytest.raises(IllPosedError, match="too large to reduce"):
            call(pm, np.array(z))

    def test_first_derivative_vs_finite_differences(self):
        failures = 0
        for k in range(50):
            g = 1 + k % 2
            pm = random_period_matrix(g, 300 + k)
            z = random_point(g, 500 + k)
            gen = np.random.default_rng(900 + k)
            w = gen.normal(size=g) + 1j * gen.normal(size=g)
            h = 1e-5
            fd = (kl.theta(pm, z + h * w, eps=1e-14) - kl.theta(pm, z - h * w, eps=1e-14)) / (2 * h)
            dv = kl.theta(pm, z, deriv=(w,), eps=1e-14)
            if abs(dv - fd) > 1e-7 * max(1.0, abs(dv)):
                failures += 1
        assert failures == 0

    def test_second_derivative_vs_finite_differences(self, pm_g2):
        gen = np.random.default_rng(21)
        for k in range(8):
            z = random_point(2, 40 + k)
            w1 = gen.normal(size=2) + 1j * gen.normal(size=2)
            w2 = gen.normal(size=2) + 1j * gen.normal(size=2)
            h = 2e-4
            fd = (
                kl.theta(pm_g2, z + h * w1 + h * w2, eps=1e-14)
                - kl.theta(pm_g2, z + h * w1 - h * w2, eps=1e-14)
                - kl.theta(pm_g2, z - h * w1 + h * w2, eps=1e-14)
                + kl.theta(pm_g2, z - h * w1 - h * w2, eps=1e-14)
            ) / (4 * h * h)
            dv = kl.theta(pm_g2, z, deriv=(w1, w2), eps=1e-14)
            assert abs(dv - fd) <= 1e-5 * max(1.0, abs(dv))

    def test_derivative_matches_brute_force(self, pm_g2):
        z = random_point(2, 3)
        w = np.array([0.3 - 0.2j, 0.8 + 0.1j])
        assert abs(kl.theta(pm_g2, z, deriv=(w,)) - brute_theta(pm_g2.tau, z, 10, deriv=(w,))) < 1e-10

    def test_zero_direction_gives_zero(self, pm_g2):
        assert kl.theta(pm_g2, random_point(2, 1), deriv=(np.zeros(2),)) == 0.0

    def test_deriv_order_cap(self, pm_g2):
        with pytest.raises(ValidationError, match="order"):
            kl.theta(pm_g2, [0.0, 0.0], deriv=[np.ones(2)] * 13)

    def test_deriv_shape_checked(self, pm_g2):
        with pytest.raises(ValidationError):
            kl.theta(pm_g2, [0.0, 0.0], deriv=([1.0],))

    def test_deterministic(self, pm_g2):
        z = random_point(2, 12)
        w = np.array([0.4, -0.2 + 0.1j])
        a = kl.theta(pm_g2, z, deriv=(w,))
        b = kl.theta(pm_g2, z, deriv=(w,))
        assert a == b


class TestThetaTranslate:
    """The translated section z -> theta(z - x), which apply_delta gives at order 0."""

    @staticmethod
    def translate(pm, z, x):
        state = kl.make_state(pm, 1, np.full(pm.g, 0.2), [np.full(pm.g, 0.3)], order=1)
        return kl.apply_delta(state, 0, +1, 0.5, x, z)

    def test_zero_translate_is_identity(self, pm_g2):
        z = random_point(2, 6)
        assert self.translate(pm_g2, z, np.zeros(2)) == kl.theta(pm_g2, z)

    def test_z_equal_x_gives_theta_zero(self, pm_g1):
        z = np.array([0.3 + 0.1j])
        assert self.translate(pm_g1, z, z) == pytest.approx(kl.theta(pm_g1, [0.0]), abs=1e-13)

    def test_matches_shifted_argument(self, pm_g2):
        z = random_point(2, 61)
        x = random_point(2, 62)
        assert abs(self.translate(pm_g2, z, x) - kl.theta(pm_g2, z - x)) <= 1e-12


class TestLatticeCache:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_enumeration_equals_box_scan(self, g):
        pm = random_period_matrix(g, 50 + g)
        for radius in (2.0, 4.0, 6.0):
            pts = lattice_points(pm, radius).points
            got = {tuple(p) for p in pts}
            box = int(np.ceil(radius / pm.s_min)) + 2
            expected = set()
            for idx in itertools.product(range(-box, box + 1), repeat=g):
                n = np.array(idx, dtype=float)
                if np.sqrt(n @ pm.im @ n) <= radius:
                    expected.add(idx)
            assert got == expected

    def test_cache_hit_returns_same_object(self, pm_g2):
        a = lattice_points(pm_g2, 5.0)
        b = lattice_points(pm_g2, 5.0)
        assert a is b


@pytest.fixture
def slab_rows(monkeypatch):
    """Row counts of the slabs every later lattice build scans, in order."""
    seen = []
    scan = theta_module._box_slabs

    def recording(g, bound):
        for slab in scan(g, bound):
            seen.append(len(slab))
            yield slab

    monkeypatch.setattr(theta_module, "_box_slabs", recording)
    return seen


def assert_box_scan_bits(pm, radius):
    entry = lattice_points(pm, radius)
    pts, gauss = box_scan_lattice(pm, radius)
    assert entry.points.dtype == pts.dtype and np.array_equal(entry.points, pts)
    assert entry.gauss.tobytes() == gauss.tobytes()


class TestSlabScan:
    """The slab scan keeps the whole-box scan's points, order and Gaussian-phase bits."""

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_whole_box_scan(self, g, seed, slab_rows):
        pm = random_period_matrix(g, 700 + 10 * g + seed)
        for radius in (1.0, 2.5, 4.0, 5.5, 6.5):
            assert_box_scan_bits(pm, radius)
        assert max(slab_rows) <= theta_module._SLAB_ROWS

    @pytest.mark.parametrize("radius, rows", [
        (31.75, [255**2]),  # side 255: one slab of 65,025 rows, just inside 2^16
        (32.0, [257] * 257),  # side 257: 66,049 rows is over, so one slab per n_1
    ])
    def test_box_at_the_slab_limit(self, radius, rows, slab_rows):
        # s_min = 1/4 and radius / s_min an integer, so the box side is exact
        pm = kl.make_period_matrix(2, [[0.3 + 0.0625j, 0.1], [0.1, -0.2 + 1j]])
        assert_box_scan_bits(pm, radius)
        assert slab_rows == rows

    @pytest.mark.parametrize("spare", [0, -1])
    def test_box_exactly_one_slab_and_just_over(self, monkeypatch, spare, slab_rows):
        pm = random_period_matrix(3, 703)
        side = 2 * math.ceil(5.5 / pm.s_min) + 1
        monkeypatch.setattr(theta_module, "_SLAB_ROWS", side**2 + spare)
        assert_box_scan_bits(pm, 5.5)
        # side^2 rows fill one slab of two trailing axes; a row fewer leaves one axis
        assert slab_rows == ([side**2] * side if spare == 0 else [side] * side**2)

    def test_g1_axis_longer_than_a_slab(self, slab_rows):
        # s_min = 2^-10: |n| <= 40,960, an axis of 81,921 points, cut into two runs
        pm = kl.make_period_matrix(1, [[0.3 + 2.0**-20 * 1j]])
        assert_box_scan_bits(pm, 40.0)
        assert slab_rows == [2**16, 81921 - 2**16]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_axis_longer_than_a_slab_at_any_genus(self, monkeypatch, g, slab_rows):
        monkeypatch.setattr(theta_module, "_SLAB_ROWS", 4)
        pm = random_period_matrix(g, 720 + g)
        assert_box_scan_bits(pm, 2.5)
        assert max(slab_rows) <= 4

    def test_genus5_build_peaks_far_below_the_box(self):
        # theta-genus' spectrum: the radius-6.5 box is 21^5 = 4.08M points, and a scan
        # that held it (and its float product) peaked at about 700 MB under tracemalloc
        gen = np.random.default_rng(5)
        q, _ = np.linalg.qr(gen.normal(size=(5, 5)))
        y = q @ np.diag(np.linspace(0.45, 2.5, 5)) @ q.T
        x = gen.uniform(-0.5, 0.5, size=(5, 5))
        pm = kl.make_period_matrix(5, 0.5 * (x + x.T) + 0.5j * (y + y.T))
        assert 2 * math.ceil(6.5 / pm.s_min) + 1 == 21
        tracemalloc.start()
        try:
            entry = lattice_points(pm, 6.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(entry.points) > 30000
        assert peak < 32 * 2**20


class TestLatticeRadius:
    """lattice_points refuses a radius that is not a finite non-negative real number."""

    # NaN used to raise a bare ValueError, inf an OverflowError, "3" a TypeError,
    # and True ran as radius 1
    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -0.5, "3", None,
                                        1.0 + 0j, True, False, np.True_, [2.0], np.array(2.0)])
    def test_rejects_radius(self, pm_g2, radius):
        with pytest.raises(ValidationError, match="radius must be finite and non-negative"):
            lattice_points(kl.make_period_matrix(2, pm_g2.tau), radius)

    def test_bool_misses_a_cached_radius(self, pm_g2):
        pm = kl.make_period_matrix(2, pm_g2.tau)
        lattice_points(pm, 1.0)
        with pytest.raises(ValidationError, match="radius"):
            lattice_points(pm, True)

    def test_radius_zero_is_the_origin(self, pm_g2):
        assert lattice_points(pm_g2, 0.0).points.tolist() == [[0, 0]]

    @pytest.mark.parametrize("radius", [5, np.float64(5.0), np.int64(5)])
    def test_any_real_number_is_a_radius(self, pm_g2, radius):
        pm = kl.make_period_matrix(2, pm_g2.tau)
        assert np.array_equal(lattice_points(pm, radius).points, lattice_points(pm_g2, 5.0).points)

    def test_radius_past_float_range_of_the_box_is_ill_posed(self):
        # radius / s_min overflows to inf, where math.ceil would raise OverflowError
        pm = kl.make_period_matrix(2, np.diag([1e-200j, 1j]))
        with pytest.raises(IllPosedError, match="lattice box"):
            lattice_points(pm, 1e300)


class TestBoxBudget:
    """A box scan larger than _BOX_BUDGET points raises before it allocates."""

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("box scan started")

        monkeypatch.setattr(theta_module.np, "meshgrid", refuse)

    def test_extreme_matrix_raises_through_theta(self, no_scan):
        # a radius is provable (15.25), but the box would have ~1e304 points
        pm = kl.make_period_matrix(3, np.diag([1e-200j, 1j, 1j]))
        with pytest.raises(IllPosedError, match="lattice box"):
            kl.theta(pm, np.zeros(3))

    def test_box_numpy_could_try_to_allocate_raises(self, no_scan):
        # s_min ~ 0.03 at g = 3: a box of about 1e9 points, tens of GB
        pm = kl.make_period_matrix(3, np.diag([1e-3j, 1j, 1j]))
        with pytest.raises(IllPosedError, match="lattice box"):
            kl.theta(pm, np.zeros(3))

    def test_budget_is_inclusive(self, monkeypatch, pm_g2):
        radius = 6.0
        box = (2 * math.ceil(radius / pm_g2.s_min) + 1) ** 2
        monkeypatch.setattr(theta_module, "_BOX_BUDGET", box - 1)
        with pytest.raises(IllPosedError, match="lattice box"):
            lattice_points(kl.make_period_matrix(2, pm_g2.tau), radius)
        monkeypatch.setattr(theta_module, "_BOX_BUDGET", box)
        assert len(lattice_points(kl.make_period_matrix(2, pm_g2.tau), radius).points) > 0


class TestLatticeReduce:
    def test_reduces_lattice_vector_to_zero(self, pm_g2):
        v = pm_g2.tau @ np.array([2.0, -1.0]) + np.array([3.0, 5.0])
        assert np.linalg.norm(kl.lattice_reduce(pm_g2, v)) < 1e-12

    def test_torus_distance_symmetric_zero(self, pm_g2):
        p = random_point(2, 8)
        assert kl.torus_distance(pm_g2, p, p) == 0.0

    def test_matches_reduce_argument(self, pm_g2):
        for seed in range(5):
            v = random_point(2, seed) + pm_g2.tau @ np.array([3.0, -2.0]) + 7.0
            assert np.array_equal(kl.lattice_reduce(pm_g2, v), reduce_argument(pm_g2, v)[0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("height", [1e17, 2.0**53 + 0.5, 1e300])
    def test_argument_beyond_resolved_shift_is_ill_posed(self, height):
        # at 2^53 + 0.5 the unguarded reduction left Im z_2 = -1.2, outside the cell
        pm = kl.make_period_matrix(2, [[0.1 + 1j, 0.05 + 0.3j], [0.05 + 0.3j, -0.2 + 1.2j]])
        v = [0.1 + 1j * height, 0.2 + 0.3j]
        with pytest.raises(IllPosedError, match="too large to reduce"):
            kl.lattice_reduce(pm, v)
        with pytest.raises(IllPosedError, match="too large to reduce"):
            kl.torus_distance(pm, v, [0.0, 0.0])


class TestRadiusCap:
    def test_bound_that_never_drops_raises(self, monkeypatch):
        pm = kl.make_period_matrix(2, 1j * np.eye(2))
        monkeypatch.setattr(theta_module, "_tail_bound", lambda *args: 1.0)
        with pytest.raises(IllPosedError, match="no truncation radius"):
            theta_module._solve_radius(pm, 0, 0.0, 1e-12)

    def test_ill_conditioned_matrix_raises(self):
        # s_min = 1e-40: the order-8 tail bound overflows, so no radius is provable
        pm = kl.make_period_matrix(2, np.diag([1e-80j, 1j]))
        with pytest.raises(IllPosedError, match="ill-conditioned"):
            kl.truncation_radius(pm, [0.0, 0.0], order=8, eps=1e-12)
        with pytest.raises(IllPosedError):
            kl.theta(pm, [0.0, 0.0], deriv=[np.array([1.0, 0.0])] * 8, eps=1e-12)

    def test_underflowing_gamma_does_not_end_the_tail_early(self):
        # s_min = 1e-34: Gamma(a, x) underflows near radius 15.75 while its
        # coefficient is near 1e340; the bound first drops below 1e-12 at 16.5
        pm = kl.make_period_matrix(2, np.diag([1e-68j, 1j]))
        radius = kl.truncation_radius(pm, [0.0, 0.0], order=8, eps=1e-12)
        assert radius >= 16.5
        assert theta_module._solve_radius(pm, 8, 0.0, 1e-12) >= 16.5
        assert theta_module._solve_radius(pm, 8, 0.0, 1e-300) > radius

    def test_log_space_bound_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        g, s_min, order, c0 = 2, 1e-34, 8, 0.0
        for radius in (15.75, 16.0, 16.5, 17.0, 20.0):
            ours = theta_module._tail_bound(g, s_min, order, c0, radius)
            with mpmath.workdps(40):
                rho = mpmath.mpf(s_min)
                x = mpmath.pi * (radius - rho / 2) ** 2
                want = sum(
                    math.comb(order, j) * (1 / rho) ** j * (c0 + mpmath.mpf(1) / 2) ** (order - j)
                    * mpmath.gammainc(mpmath.mpf(g + j) / 2, x) / (2 * mpmath.pi ** (mpmath.mpf(g + j) / 2))
                    for j in range(order + 1)
                ) * (2 * mpmath.pi) ** order * g / (rho / 2) ** g
            # an upper bound, and a tight one
            assert ours >= float(want) * (1.0 - 1e-12), radius
            assert ours <= float(want) * (1.0 + 1e-3), radius

    def test_underflowing_cell_volume_raises(self):
        # s_min = 1e-150 at g = 3: (s_min / 2)^g underflows to 0 in the count factor
        pm = kl.make_period_matrix(3, np.diag([1e-300j, 1j, 1j]))
        with pytest.raises(IllPosedError, match="no truncation radius"):
            kl.truncation_radius(pm, np.zeros(3))
        with pytest.raises(IllPosedError, match="no truncation radius"):
            kl.theta(pm, np.zeros(3))

    def test_well_conditioned_matrix_solves(self):
        pm = kl.make_period_matrix(2, np.diag([0.25j, 1j]))
        assert kl.truncation_radius(pm, [0.0, 0.0], order=8, eps=1e-12) < 48.0


def _neighbours(pm, gen, z):
    """Points a memo keyed too coarsely would confuse with z."""
    g = pm.g
    step = gen.normal(size=g) * 1e-3
    n = gen.integers(-2, 3, size=g)
    return [z, z + 1j * step, z + step, z + pm.tau @ n + 1.0, -z, z.conj()]


def _interleaved_calls(pm, gen, z, pool=()):
    """One call at z itself, a neighbour of z or a random point, at a random order and eps.

    Half the derivative calls draw their directions from ``pool``, so the
    direction and factor memos hold entries the checked call also uses.
    """
    g = pm.g
    if gen.uniform() < 0.5:
        near = _neighbours(pm, gen, z)
        point = near[int(gen.integers(len(near)))]
    else:
        point = random_point(g, int(gen.integers(1 << 30)))
    order = int(gen.integers(0, 5))
    if pool and gen.uniform() < 0.5:
        dirs = [pool[int(k)] for k in gen.integers(len(pool), size=order)]
    else:
        dirs = [gen.normal(size=g) + 1j * gen.normal(size=g)] * order
    eps = float(gen.choice([1e-6, 1e-12, 1e-14]))
    kl.theta(pm, point, deriv=dirs, eps=eps)


def _direction_form(dirs, form):
    """The same directions passed as shared objects, fresh equal copies, lists, or with -0.0."""
    if form == "copies":
        return [np.array(w) for w in dirs]
    if form == "lists":
        return [w.tolist() for w in dirs]
    if form == "negzero":
        return [_negative_zeros(w) for w in dirs]
    return dirs


def _negative_zeros(w):
    """w with every zero real or imaginary part written as -0.0: other bytes, the same direction."""
    out = np.empty(w.shape, dtype=complex)
    out.real = np.where(w.real == 0.0, -0.0, w.real)
    out.imag = np.where(w.imag == 0.0, -0.0, w.imag)
    return out


def _bits(value):
    return np.array([value]).tobytes()


class TestPointMemo:
    """The per-matrix caches change no value and stay bounded."""

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        g=st.integers(min_value=1, max_value=3),
        order=st.integers(min_value=0, max_value=4),
        form=st.sampled_from(["shared", "copies", "lists", "negzero"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_cold_and_warm_calls_are_bit_identical(self, seed, g, order, form):
        gen = np.random.default_rng(seed)
        tau = random_period_matrix(g, seed).tau
        z = random_point(g, seed + 1, re_half=2.0, im_half=1.0)
        w = gen.normal(size=g) + 1j * gen.normal(size=g)
        v = gen.normal(size=g) + 0j  # zero imaginary parts, -0.0 in the negzero form
        dirs = [w] * order + [v]
        cold = kl.theta(kl.make_period_matrix(g, tau), z, deriv=_direction_form(dirs, form))
        pm = kl.make_period_matrix(g, tau)
        for _ in range(40):
            _interleaved_calls(pm, gen, z, pool=[w, v, -v, 0.5 * w])
            assert _bits(kl.theta(pm, z, deriv=_direction_form(dirs, form))) == _bits(cold)

    def test_direction_forms_agree(self, pm_g2):
        z = random_point(2, 30)
        w = np.array([0.3 - 0.2j, -0.5 + 0.4j])
        v = np.array([0.0, 0.7 - 0.1j])
        want = kl.theta(kl.make_period_matrix(2, pm_g2.tau), z, deriv=[w, w, v])
        for form in ("shared", "copies", "lists", "negzero"):
            assert kl.theta(pm_g2, z, deriv=_direction_form([w, w, v], form)) == want

    def test_repeated_direction_object_equals_copies(self, pm_g2):
        z = random_point(2, 31)
        w = np.array([0.3 - 0.2j, -0.5 + 0.4j])
        shared = kl.theta(pm_g2, z, deriv=[w] * 4)
        copies = kl.theta(pm_g2, z, deriv=[w.copy() for _ in range(4)])
        assert _bits(shared) == _bits(copies)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_norm_matches_numpy_bits(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 7))
        scale = 10.0 ** gen.uniform(-150, 150)
        real = gen.normal(size=n) * scale
        cplx = real + 1j * gen.normal(size=n) * scale
        for v in (real, cplx):
            assert theta_module._norm(v) == float(np.linalg.norm(v))

    def test_memos_stay_bounded(self):
        pm = random_period_matrix(2, 71)
        gen = np.random.default_rng(71)
        for k in range(1000):
            z = random_point(2, 10_000 + k)
            order = k % 3
            kl.theta(pm, z, deriv=[gen.normal(size=2) + 0j] * order, eps=(1e-12, 1e-6)[k % 2])
            assert len(pm._reduced) <= theta_module._MEMO_SIZE
            assert len(pm._phases) <= theta_module._MEMO_SIZE
            assert len(pm._directions) <= theta_module._DIRECTION_MEMO_SIZE
            assert len(pm._factors) <= theta_module._FACTOR_MEMO_SIZE
        assert len(pm._lattice) <= 8

    def test_direction_memos_stay_bounded_at_one_point(self):
        # 1,000 distinct directions at one point: only the direction and factor memos grow
        pm = random_period_matrix(2, 76)
        z = random_point(2, 76)
        gen = np.random.default_rng(76)
        for k in range(1000):
            w = gen.normal(size=2) + 1j * gen.normal(size=2)
            kl.theta(pm, z, deriv=[w] * (1 + k % 3) + [np.ones(2)])
            assert len(pm._directions) <= theta_module._DIRECTION_MEMO_SIZE
            assert len(pm._factors) <= theta_module._FACTOR_MEMO_SIZE

    def test_matrix_and_its_caches_are_freed(self):
        pm = random_period_matrix(2, 72)
        z = random_point(2, 72)
        kl.theta(pm, z, deriv=[np.array([1.0, 0.5j])])
        refs = [weakref.ref(pm)]
        refs += [weakref.ref(entry.points) for entry in pm._lattice.values()]
        refs += [weakref.ref(arr) for entry in pm._phases.values() for arr in entry]
        refs += [weakref.ref(entry[1]) for entry in pm._directions.values()]
        refs += [weakref.ref(arr) for arr in pm._factors.values()]
        assert len(refs) >= 5
        del pm
        assert all(ref() is None for ref in refs)

    def test_matrix_with_basis_is_collected(self):
        pm = random_period_matrix(2, 73)
        kl.second_order_values(pm, random_point(2, 73))
        pm2 = importlib.import_module("kummerlab.kummer")._basis(pm).pm2
        refs = [weakref.ref(pm), weakref.ref(pm2)]
        refs += [weakref.ref(entry.points) for entry in pm2._lattice.values()]
        del pm, pm2
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_cached_arrays_are_read_only(self, pm_g2):
        kl.theta(pm_g2, random_point(2, 74), deriv=[np.ones(2)])
        entries = list(pm_g2._reduced.values()) + list(pm_g2._phases.values())
        entries += list(pm_g2._directions.values()) + [(f,) for f in pm_g2._factors.values()]
        arrays = [arr for entry in entries for arr in entry if isinstance(arr, np.ndarray)]
        assert len(arrays) >= 6
        assert not any(arr.flags.writeable for arr in arrays)


BAD_POINTS = {
    "nan": np.array([np.nan, 0.0]),
    "inf": np.array([0.1, complex(0.0, np.inf)]),
    "shape": np.zeros(3),
}


class TestValidationThroughCaches:
    """Bad points and directions still raise, whatever the memos hold."""

    @pytest.fixture
    def warm_pm(self):
        pm = random_period_matrix(2, 75)
        kl.theta(pm, np.zeros(2), deriv=[np.ones(2)])
        return pm

    @pytest.mark.parametrize("bad", sorted(BAD_POINTS))
    def test_theta(self, warm_pm, bad):
        with pytest.raises(ValidationError):
            kl.theta(warm_pm, BAD_POINTS[bad])
        with pytest.raises(ValidationError):
            kl.theta(warm_pm, np.zeros(2), deriv=[BAD_POINTS[bad]])
        w = np.ones(2)
        with pytest.raises(ValidationError):
            kl.theta(warm_pm, np.zeros(2), deriv=[w, w, BAD_POINTS[bad]])

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_direction_after_a_valid_one(self, warm_pm, bad):
        # the memo holds a valid w; an equal-shaped copy with one bad entry must not hit it
        w = np.array([0.4 + 0.1j, -0.2 + 0.3j])
        kl.theta(warm_pm, np.zeros(2), deriv=[w])
        spoilt = w.copy()
        spoilt[1] = {"nan": np.nan, "inf": complex(0.0, np.inf)}[bad]
        with pytest.raises(ValidationError, match="derivative direction 1"):
            kl.theta(warm_pm, np.zeros(2), deriv=[w, spoilt])
        with pytest.raises(ValidationError):
            kl.theta(warm_pm, np.zeros(2), deriv=[spoilt, np.zeros(2)])
        keys = [np.frombuffer(key, dtype=complex) for key in warm_pm._directions]
        assert all(np.isfinite(key).all() for key in keys)

    def test_direction_of_another_shape_with_memo_bytes(self, warm_pm):
        w = np.array([0.4 + 0.1j, -0.2 + 0.3j])
        kl.theta(warm_pm, np.zeros(2), deriv=[w])
        with pytest.raises(ValidationError, match="shape"):
            kl.theta(warm_pm, np.zeros(2), deriv=[w.reshape(1, 2)])

    @pytest.mark.parametrize("bad", sorted(BAD_POINTS))
    # scaling an infinite W row makes inf * 0 before theta rejects it
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_apply_delta(self, warm_pm, bad):
        state = kl.make_state(warm_pm, 1, [0.2, 0.1j], [[0.3, -0.1]], order=3, w1=np.ones(2))
        state.W[1] = [0.5, 0.2j]
        kl.apply_delta(state, 2, +1, 0.5, np.zeros(2), np.zeros(2))
        with pytest.raises(ValidationError):
            kl.apply_delta(state, 2, +1, 0.5, np.zeros(2), BAD_POINTS[bad])
        with pytest.raises(ValidationError):
            kl.apply_delta(state, 2, +1, 0.5, BAD_POINTS[bad], np.zeros(2))
        if bad != "shape":
            state.W[1] = BAD_POINTS[bad]
            with pytest.raises(ValidationError):
                kl.apply_delta(state, 2, +1, 0.5, np.zeros(2), np.zeros(2))



class TestMalformedInput:
    """Non-numeric and misshaped input is a ValidationError, not a numpy error."""

    @pytest.mark.parametrize("z", [["a", "b"], [[0.1, 0.2], [0.3]]])
    def test_theta_non_numeric_point(self, pm_g2, z):
        with pytest.raises(ValidationError, match="vector of numbers"):
            kl.theta(pm_g2, z)

    def test_lattice_reduce_wrong_shape(self, pm_g2):
        with pytest.raises(ValidationError, match="shape"):
            kl.lattice_reduce(pm_g2, np.zeros(3))

    @pytest.mark.parametrize("p, q", [(np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros((2, 2)))])
    def test_torus_distance_wrong_shape(self, pm_g2, p, q):
        with pytest.raises(ValidationError, match="shape"):
            kl.torus_distance(pm_g2, p, q)


class TestEpsNotAPlainNumber:
    """A numpy bool and any ndarray are refused as eps wherever eps is taken."""

    # np.True_ ran as eps = 1; a one-element array passed the check and then
    # failed as a bare TypeError
    @pytest.mark.parametrize("eps", [np.True_, np.False_, np.array([1e-3]), np.array(1e-3),
                                     np.array([1e-3, 1e-4])],
                             ids=["np.True_", "np.False_", "1-element", "0-d", "2-element"])
    @pytest.mark.parametrize("call", [
        lambda pm, eps: kl.theta(pm, [0.1], eps=eps),
        lambda pm, eps: kl.truncation_radius(pm, [0.1], 0, eps),
        lambda pm, eps: kl.second_order_values(pm, [0.1], eps=eps),
        lambda pm, eps: kl.second_order_derivative(pm, [0.1], [1.0], eps=eps),
        lambda pm, eps: kl.secant_search(pm, 0, [[0.1], [0.3 + 0.1j]], [0.0],
                                         kl.SearchOptions(eps=eps)),
    ], ids=["theta", "truncation_radius", "second_order_values", "second_order_derivative",
            "secant_search"])
    def test_refused(self, pm_g1, call, eps):
        with pytest.raises(ValidationError, match="eps must be finite and positive"):
            call(pm_g1, eps)

    @pytest.mark.parametrize("eps", [np.float64(1e-3), np.float32(1e-3), 1, np.int64(1)])
    def test_numpy_and_integer_reals_still_run(self, pm_g1, eps):
        assert kl.theta(pm_g1, [0.1], eps=eps) == kl.theta(pm_g1, [0.1], eps=float(eps))


class TestThetaRows:
    """The block kernel: one reduction and one lattice pass for every row of a (k, g) array."""

    @staticmethod
    def shifted_rows(pm, seed, count=4):
        """Points z + tau k + n with nonzero k, so every row reduces with n0 != 0."""
        gen = np.random.default_rng(seed)
        rows = []
        for i in range(count):
            k = np.zeros(pm.g)
            while not k.any():
                k = gen.integers(-2, 3, size=pm.g).astype(float)
            z = random_point(pm.g, seed + i, re_half=0.8, im_half=0.35)
            rows.append(z + pm.tau @ k + gen.integers(-3, 4, size=pm.g))
        return np.array(rows)

    @staticmethod
    def cell_rows(pm, seed, count=4):
        """Points with |Y^-1 Im z| < 1/2 in every coordinate, so every row reduces with n0 = 0."""
        gen = np.random.default_rng(seed)
        q = gen.uniform(-0.45, 0.45, size=(count, pm.g))
        return gen.uniform(-3.0, 3.0, size=(count, pm.g)) + 1j * (q @ pm.im)

    @staticmethod
    def counting_translate(monkeypatch):
        """The row counts of every _translate_rows call, the step only the full path takes."""
        calls = []
        original = theta_module._translate_rows

        def counted(pm, v, n0):
            calls.append(len(v))
            return original(pm, v, n0)

        monkeypatch.setattr(theta_module, "_translate_rows", counted)
        return calls

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_cell_block_takes_the_n0_zero_path_with_the_full_paths_bytes(self, monkeypatch, g):
        pm = random_period_matrix(g, 1330 + g)
        # the doubled-matrix arguments of second-order values, and plain cell points
        doubled = importlib.import_module("kummerlab.kummer")._basis(pm).pm2
        for matrix, rows in ((pm, self.cell_rows(pm, 1900 + g, 6)),
                             (doubled, self.cell_rows(doubled, 1910 + g, 8))):
            assert not theta_module._shift_rows(matrix, rows)[1].any()
            eps = np.geomspace(1e-14, 1e-8, len(rows))
            reference = full_path_theta_rows(matrix, rows, eps)
            translated = self.counting_translate(monkeypatch)
            values = theta_module._theta_rows(matrix, rows, eps)
            assert translated == []
            assert values.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_one_row_off_the_cell_takes_the_full_path(self, monkeypatch, g):
        pm = random_period_matrix(g, 1340 + g)
        rows = np.concatenate([self.cell_rows(pm, 1920 + g, 3), self.shifted_rows(pm, 1930 + g, 1)])
        n0 = theta_module._shift_rows(pm, rows)[1]
        assert n0.any(axis=1).tolist() == [False, False, False, True]
        eps = np.full(len(rows), 1e-12)
        reference = full_path_theta_rows(pm, rows, eps)
        translated = self.counting_translate(monkeypatch)
        values = theta_module._theta_rows(pm, rows, eps)
        assert translated == [len(rows)]
        assert values.tobytes() == reference.tobytes()
        for z, value, shift in zip(rows, values, n0):
            ref = brute_theta(pm.tau, z, int(np.abs(shift).max()) + 8)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_rows_off_the_cell_match_brute_force(self, g):
        pm = random_period_matrix(g, 1300 + g)
        rows = self.shifted_rows(pm, 1400 + 10 * g)
        n0 = theta_module._reduce_rows(pm, rows)[1]
        assert n0.any(axis=1).all()
        values = theta_module._theta_rows(pm, rows, np.full(len(rows), 1e-12))
        for z, value, shift in zip(rows, values, n0):
            # every term past |n + q| = 8 is below e^-(pi 0.3 64) of the largest one
            ref = brute_theta(pm.tau, z, int(np.abs(shift).max()) + 8)
            assert abs(value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_rows_match_theta(self, g):
        pm = random_period_matrix(g, 1310 + g)
        rows = np.concatenate([self.shifted_rows(pm, 1500 + 10 * g),
                               [random_point(g, 1600 + 10 * g + i) for i in range(4)]])
        values = theta_module._theta_rows(pm, rows, np.full(len(rows), 1e-12))
        for z, value in zip(rows, values):
            ref = kl.theta(pm, z)
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_shared_radius_covers_every_row(self, monkeypatch, g):
        pm = random_period_matrix(g, 1320 + g)
        rows = np.concatenate([self.shifted_rows(pm, 1700 + 10 * g, 2),
                               [random_point(g, 1800 + 10 * g + i) for i in range(2)]])
        eps = np.array([1e-12, 1e-8, 1e-14, 1e-10])
        radii = []

        def recorded(pm, radius):
            radii.append(radius)
            return lattice_points(pm, radius)

        monkeypatch.setattr(theta_module, "lattice_points", recorded)
        theta_module._theta_rows(pm, rows, eps)
        assert len(radii) == 1  # one lattice pass for the block
        for z, e in zip(rows, eps):
            w = reduce_argument(pm, z)[3]
            own = kl.truncation_radius(pm, z, 0, e / max(1.0, math.exp(min(w.real, 700.0))))
            assert radii[0] >= theta_module._bucket(own + pm.half_diag)

    @pytest.mark.filterwarnings("error")
    def test_prefactor_past_double_range_gives_thetas_value(self, pm_g1):
        rows = np.array([[0.1 + 300j], [0.2 - 0.1j], [-0.3 - 250j]])
        values = theta_module._theta_rows(pm_g1, rows, np.full(3, 1e-12))
        assert np.isinf(values[[0, 2]]).all()
        for z, value in zip(rows, values):
            ref = kl.theta(pm_g1, z)
            if np.isinf(ref):
                assert value == ref
            else:
                assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("far", ["reach", "shift"])
    def test_rows_past_the_reduction_guard_raise_as_theta(self, pm_g2, far):
        if far == "reach":  # |Im z| itself is past the matrix's reach
            z = np.array([0.1 + 1e300j, 0.2])
        else:  # within reach, but |Y^-1 Im z| = 1.5 * 2^53 along the weakest direction
            lam, vec = np.linalg.eigh(pm_g2.im)
            z = 0.3 + 1j * (1.5 * 2.0**53 * lam[0]) * vec[:, 0]
        with pytest.raises(IllPosedError, match="too large to reduce") as scalar:
            kl.theta(pm_g2, z)
        with pytest.raises(IllPosedError) as block:
            theta_module._theta_rows(pm_g2, np.array([random_point(2, 5), z]), np.full(2, 1e-12))
        assert str(block.value) == str(scalar.value)
