"""Secant detection, coefficients, bilinear cross-check, propagation, search."""

import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummerlab as kl
from kummerlab import jsonio
from kummerlab.errors import DegenerateSecantError, IllPosedError, ToleranceFailure, ValidationError
from kummerlab.simplex import nelder_mead

from conftest import (
    loop_propagation_table,
    per_call_bilinear,
    per_member_objective,
    random_period_matrix,
    random_point,
)

secant_module = importlib.import_module("kummerlab.secant")
theta_module = importlib.import_module("kummerlab.theta")


def _cfg(pm, m, points, zeta):
    return kl.SecantConfiguration(pm, m, points, zeta)


class TestSecantMatrix:
    def test_identical_points_rank_one(self, pm_g2):
        a = random_point(2, 1)
        cfg = _cfg(pm_g2, 1, [a, a, a], random_point(2, 2))
        m = kl.secant_matrix(cfg)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] / s[0] <= 1e-12

    def test_fay_rank_two(self, fay):
        m = kl.secant_matrix(fay.config)
        assert m.shape == (4, 3)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[2] / s[0] <= 1e-8

    def test_random_points_are_separated(self, pm_g2):
        hits = 0
        for k in range(100):
            cfg = _cfg(
                pm_g2,
                1,
                [random_point(2, 10_000 + 3 * k + i) for i in range(3)],
                random_point(2, 20_000 + k),
            )
            if kl.secant_residual(cfg) >= 1e-3:
                hits += 1
        assert hits >= 95


class TestSecantResidual:
    def test_duplicated_point(self, pm_g2):
        a = random_point(2, 5)
        cfg = _cfg(pm_g2, 1, [a, a, random_point(2, 6)], random_point(2, 7))
        assert kl.secant_residual(cfg) <= 1e-12

    def test_fay_configuration(self, fay):
        assert kl.secant_residual(fay.config) <= 1e-8

    def test_perturbation_increases_residual(self, fay):
        base = kl.secant_residual(fay.config)
        pts = [p.copy() for p in fay.config.points]
        pts[1] = pts[1] + np.array([1e-2, 0.0])
        perturbed = _cfg(fay.config.pm, 1, pts, fay.config.zeta)
        assert kl.secant_residual(perturbed) >= 10.0 * base

    def test_permutation_invariance_exact(self, fay):
        cfg = fay.config
        perm = _cfg(cfg.pm, 1, [cfg.points[2], cfg.points[0], cfg.points[1]], cfg.zeta)
        assert kl.secant_residual(perm) == pytest.approx(kl.secant_residual(cfg), rel=1e-10)

    def test_zeta_lattice_shift_invariance(self, fay):
        cfg = fay.config
        lam = cfg.pm.tau @ np.array([1.0, -1.0]) + np.array([2.0, 0.0])
        shifted = _cfg(cfg.pm, 1, cfg.points, cfg.zeta + lam)
        assert abs(kl.secant_residual(shifted) - kl.secant_residual(cfg)) <= 1e-10


class TestLatticeInvariance:
    """The Kummer image, and with it secant_residual, lives on the torus."""

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_integer_shifts_leave_the_residual(self, seed):
        # second-order thetas are periodic under Z^g, so every column is unchanged
        gen = np.random.default_rng(seed)
        pm = random_period_matrix(2, seed)
        points = [random_point(2, seed + k) for k in range(3)]
        zeta = random_point(2, seed + 3)
        cfg = _cfg(pm, 1, points, zeta)
        shifts = gen.integers(-4, 5, size=(4, 2))
        moved = _cfg(pm, 1, [p + m for p, m in zip(points, shifts)], zeta + shifts[3])
        assert kl.secant_residual(moved) == pytest.approx(kl.secant_residual(cfg), rel=1e-9, abs=1e-13)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_lattice_translate_of_a_point_is_the_same_kummer_point(self, seed):
        # K(zeta + a + tau n + m) is a multiple of K(zeta + a): the pair spans a line
        gen = np.random.default_rng(seed)
        pm = random_period_matrix(2, seed)
        a = random_point(2, seed)
        lam = pm.tau @ gen.integers(-1, 2, size=2) + gen.integers(-3, 4, size=2)
        cfg = _cfg(pm, 1, [a, a + lam, random_point(2, seed + 1)], random_point(2, seed + 2))
        assert kl.secant_residual(cfg) <= 1e-10


class TestSecantCoefficients:
    def test_two_identical_columns_formal(self, pm_g2):
        # m = 0: two coinciding points force alpha proportional to (1, -1)
        a = random_point(2, 11)
        cfg = _cfg(pm_g2, 0, [a, a], random_point(2, 12))
        alpha = kl.secant_coefficients(cfg)
        assert alpha[0] == pytest.approx(-alpha[1], abs=1e-9)

    def test_fay_all_entries_nonzero(self, fay, fay_alpha):
        m = kl.secant_matrix(fay.config)
        col_norms = np.linalg.norm(m, axis=0)
        weighted = np.abs(fay_alpha) * col_norms
        assert weighted.min() > 1e-6 * weighted.max()

    def test_residual_bound(self, fay, fay_alpha):
        m = kl.secant_matrix(fay.config)
        assert np.linalg.norm(m @ fay_alpha) / np.linalg.svd(m, compute_uv=False)[0] <= 1e-7

    def test_non_secant_rejected(self, pm_g2):
        cfg = _cfg(pm_g2, 1, [random_point(2, 30 + i) for i in range(3)], random_point(2, 33))
        with pytest.raises(ToleranceFailure, match="not a secant"):
            kl.secant_coefficients(cfg)

    def test_degenerate_spectrum_rejected(self, pm_g2):
        a = random_point(2, 14)
        cfg = _cfg(pm_g2, 1, [a, a, a], random_point(2, 15))
        with pytest.raises(DegenerateSecantError):
            kl.secant_coefficients(cfg)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowed_values_are_ill_posed(self, pm_g2, fay):
        # numpy's SVD does not converge on the overflowed matrix
        points = [np.array([0.1, 400j])] + list(fay.config.points[1:])
        with pytest.raises(IllPosedError, match="overflowed"):
            kl.secant_coefficients(_cfg(pm_g2, 1, points, fay.config.zeta))


class TestBilinearResidual:
    def test_fay_coefficients_pass(self, fay, fay_alpha):
        assert kl.bilinear_residual(fay.config, fay_alpha, sample_count=50, seed=1) <= 1e-7

    def test_zero_alpha_rejected(self, fay):
        with pytest.raises(ValidationError):
            kl.bilinear_residual(fay.config, np.zeros(3), sample_count=5, seed=1)

    def test_random_alpha_fails(self, fay):
        gen = np.random.default_rng(3)
        alpha = gen.normal(size=3) + 1j * gen.normal(size=3)
        assert kl.bilinear_residual(fay.config, alpha, sample_count=50, seed=1) >= 1e-2

    def test_deterministic_in_seed(self, fay, fay_alpha):
        a = kl.bilinear_residual(fay.config, fay_alpha, sample_count=10, seed=9)
        b = kl.bilinear_residual(fay.config, fay_alpha, sample_count=10, seed=9)
        assert a == b

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("height", [20.0, 40.0])
    def test_overflowed_terms_are_ill_posed(self, fay, fay_alpha, height):
        # the overflowed defect is nan, which max() would drop, reporting a pass of 0.0
        cfg = _cfg(fay.config.pm, 1, fay.config.points, [0.0, height * 1j])
        with pytest.raises(IllPosedError, match="overflowed"):
            kl.bilinear_residual(cfg, fay_alpha)


    @pytest.mark.parametrize("count", [2.5, "5", None])
    def test_sample_count_must_be_an_integer(self, fay, fay_alpha, count):
        with pytest.raises(ValidationError, match="sample_count"):
            kl.bilinear_residual(fay.config, fay_alpha, count)


@pytest.fixture(scope="module")
def bilinear_cases(pm_g2, fay, fay_alpha):
    """(configuration, alpha) pairs at g = 1, 2, 3, m = 0, 1, 2, in the cell and moved by tau k."""
    cfg, pm = fay.config, pm_g2
    gen = np.random.default_rng(17)

    def alpha(size):
        return gen.normal(size=size) + 1j * gen.normal(size=size)

    pm1 = kl.make_period_matrix(1, [[0.2 + 1.1j]])
    pm3 = random_period_matrix(3, 33)
    moved = [a + pm.tau @ k for a, k in zip(cfg.points, ([1.0, 0.0], [0.0, -2.0], [1.0, 1.0]))]
    # zeta + tau k / 2 moves every z + 2 zeta + a_i by tau k, which scales term i by
    # a common factor times exp(-2 pi i k.a_i): the rescaled alpha keeps the identity
    half = np.array([1.0, -1.0])
    kept = fay_alpha * np.exp(2j * np.pi * np.array([half @ a for a in cfg.points]))
    return [
        (cfg, fay_alpha),
        (_cfg(pm, 1, cfg.points, cfg.zeta + 0.5 * pm.tau @ half), kept),
        (cfg, alpha(3)),
        # zeta moved by tau k: z + 2 zeta + a_i reduces with n0 != 0
        (_cfg(pm, 1, cfg.points, cfg.zeta + pm.tau @ [1.0, -1.0]), fay_alpha),
        (_cfg(pm, 1, cfg.points, cfg.zeta + pm.tau @ [2.0, 0.0] + 3.0), fay_alpha),
        # the points moved as well: both arguments of every term reduce with n0 != 0
        (_cfg(pm, 1, moved, cfg.zeta), fay_alpha),
        (_cfg(pm, 1, moved, cfg.zeta - pm.tau @ [0.0, 1.0]), alpha(3)),
        (_cfg(pm, 0, [random_point(2, 70), random_point(2, 71)], random_point(2, 72)), alpha(2)),
        (_cfg(pm, 2, [random_point(2, 73 + i) for i in range(4)], random_point(2, 77)), alpha(4)),
        (_cfg(pm1, 0, [[0.1 + 0.05j], [0.3 - 0.1j]], [0.2 + 1.1j]), alpha(2)),
        (_cfg(pm1, 1, [[0.1], [0.2j], [-0.3 + 0.1j]], [0.4 - 0.3j]), alpha(3)),
        (_cfg(pm3, 1, [random_point(3, 80 + i) for i in range(3)], random_point(3, 83)), alpha(3)),
        (_cfg(pm3, 2, [random_point(3, 84 + i) for i in range(4)], random_point(3, 88)
              + pm3.tau @ [1.0, 0.0, -1.0]), alpha(4)),
    ]


class TestBilinearBlock:
    """bilinear_residual evaluates its samples in blocks through theta._theta_rows.

    The defect must agree with per-call theta values (conftest.per_call_bilinear)
    to rounding.
    """

    @pytest.mark.parametrize("case", range(13))
    def test_agrees_with_per_call_reference(self, bilinear_cases, case):
        cfg, alpha = bilinear_cases[case]
        block = kl.bilinear_residual(cfg, alpha, sample_count=10, seed=case)
        assert abs(block - per_call_bilinear(cfg, alpha, 10, case)) <= 1e-13

    def test_moved_cases_reduce_off_the_cell(self, bilinear_cases):
        for cfg, _ in bilinear_cases[1:2] + bilinear_cases[3:7]:
            shifts = [theta_module.reduce_argument(cfg.pm, 2.0 * cfg.zeta + a)[1] for a in cfg.points]
            assert all(n0.any() for n0 in shifts)

    def test_identity_holds_at_the_zeta_moved_by_half_a_period(self, bilinear_cases):
        cfg, alpha = bilinear_cases[1]
        assert kl.bilinear_residual(cfg, alpha, sample_count=50, seed=1) <= 1e-7

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 16, 50])
    def test_sample_counts_cross_the_block_boundaries(self, monkeypatch, fay, fay_alpha, count):
        rows = []
        original = secant_module._theta_rows

        def recorded(pm, block, eps):
            rows.append(len(block))
            return original(pm, block, eps)

        monkeypatch.setattr(secant_module, "_theta_rows", recorded)
        block = kl.bilinear_residual(fay.config, fay_alpha, sample_count=count, seed=4)
        # 2(m+2) = 6 rows per sample, at most 8 samples per block
        assert rows == [48] * (count // 8) + ([6 * (count % 8)] if count % 8 else [])
        assert abs(block - per_call_bilinear(fay.config, fay_alpha, count, 4)) <= 1e-13

    @pytest.mark.parametrize("eps", [math.nan, -1.0, "x", True, np.True_, np.array([1e-3])],
                             ids=["nan", "-1.0", "x", "True", "np.True_", "array"])
    def test_eps_refused_before_the_first_evaluation(self, monkeypatch, fay, fay_alpha, eps):
        calls = []

        def recorder(original):
            def recorded(*args, **kwargs):
                calls.append(original)
                return original(*args, **kwargs)

            return recorded

        monkeypatch.setattr(secant_module, "_theta_rows", recorder(secant_module._theta_rows))
        monkeypatch.setattr(theta_module, "_theta_rows", recorder(theta_module._theta_rows))
        monkeypatch.setattr(secant_module, "theta", recorder(secant_module.theta))
        with pytest.raises(ValidationError, match="eps must be finite and positive"):
            kl.bilinear_residual(fay.config, fay_alpha, sample_count=5, seed=1, eps=eps)
        assert calls == []

    @pytest.mark.parametrize("alpha", ["abc", [[1], 2, 3], None, [1.0, "x", 2.0]],
                             ids=["text", "ragged", "None", "text entry"])
    def test_alpha_that_is_no_vector_of_numbers(self, fay, alpha):
        with pytest.raises(ValidationError, match="alpha must"):
            kl.bilinear_residual(fay.config, alpha, sample_count=5, seed=1)


class TestPropagate:
    def test_all_zero(self, pm_g2):
        cfg = _cfg(pm_g2, 2, [np.zeros(2)] * 4, np.zeros(2))
        b_points = kl.propagate(cfg, np.zeros(2), np.zeros(4, dtype=int))
        assert all(np.linalg.norm(b) == 0.0 for b in b_points)

    def test_scalar_mock_worked_example(self, pm_g1):
        # m=2, a=(1,2,3,4), zeta'=0.5: b_1 = 0.5+3+1.5 = 5, b_2 = 5-3+4 = 6,
        # b_3 = 2+3-5 = 0, b_4 = 1+3-5 = -1
        cfg = _cfg(pm_g1, 2, [[1.0], [2.0], [3.0], [4.0]], [0.0])
        b_points = kl.propagate(cfg, [0.5], np.zeros(2, dtype=int))
        got = [complex(b[0]) for b in b_points]
        assert got == [5.0, 6.0, 0.0, -1.0]

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_linear_identities(self, seed):
        pm = kl.make_period_matrix(1, [[1j]])
        gen = np.random.default_rng(seed)
        pts = [gen.normal(size=1) + 1j * gen.normal(size=1) for _ in range(4)]
        zp = gen.normal(size=1) + 1j * gen.normal(size=1)
        lift = gen.integers(0, 2, size=2)
        cfg = _cfg(pm, 2, pts, np.zeros(1))
        b = kl.propagate(cfg, zp, lift)
        scale = max(1.0, max(np.abs(np.concatenate(pts))))
        assert np.abs(b[1] - b[0] - (pts[3] - pts[2])).max() <= 1e-14 * scale
        assert np.abs(b[2] + b[0] - (pts[1] + pts[2])).max() <= 1e-14 * scale
        assert np.abs(b[3] + b[0] - (pts[0] + pts[2])).max() <= 1e-14 * scale

    def test_needs_positive_m(self, pm_g2):
        cfg = _cfg(pm_g2, 0, [random_point(2, 1), random_point(2, 2)], np.zeros(2))
        with pytest.raises(ValidationError):
            kl.propagate(cfg, np.zeros(2), np.zeros(4, dtype=int))


class TestInvolutionIdentity:
    def test_scalar_mock(self, pm_g1):
        # -b_1 - b_2 = -11 = -2(0.5) - 10
        r = kl.involution_identity(pm_g1, [[1.0], [2.0], [3.0], [4.0]], [0.5], [0, 0])
        assert r <= 1e-12

    def test_all_zeros(self, pm_g2):
        r = kl.involution_identity(pm_g2, [np.zeros(2)] * 4, np.zeros(2), np.zeros(4, dtype=int))
        assert r == 0.0

    def test_random_inputs_random_lifts(self, pm_g2):
        gen = np.random.default_rng(12)
        for _ in range(50):
            pts = [gen.normal(size=2) + 1j * gen.normal(size=2) * 0.4 for _ in range(4)]
            zp = gen.normal(size=2) + 1j * gen.normal(size=2) * 0.4
            lift = gen.integers(0, 2, size=4)
            assert kl.involution_identity(pm_g2, pts, zp, lift) <= 1e-12

    def test_wrong_point_count(self, pm_g2):
        with pytest.raises(ValidationError):
            kl.involution_identity(pm_g2, [np.zeros(2)] * 3, np.zeros(2), np.zeros(4, dtype=int))


class TestPropagationSecantCheck:
    def test_family_pair(self, pm_g2, divisor_points, fay):
        t = kl.find_theta_divisor_point(pm_g2, 888)
        zeta_prime = 0.5 * (t.z - divisor_points[0].z)
        check = kl.propagation_secant_check(fay.config, zeta_prime)
        assert check.best_residual <= 1e-7
        assert len(check.table) == 16

    def test_matching_parameter_sanity(self, pm_g2, divisor_points, fay):
        # the stored configuration sits at curve parameter z_a (zeta = 0);
        # choosing zeta' at the same parameter gives a derived configuration
        # with two projectively equal points, still a secant
        check = kl.propagation_secant_check(fay.config, np.zeros(2))
        assert check.best_residual <= 1e-7

    def test_rejects_non_secant_input(self, pm_g2):
        cfg = _cfg(pm_g2, 1, [random_point(2, 50 + i) for i in range(3)], random_point(2, 55))
        with pytest.raises(ValidationError, match="verified secant"):
            kl.propagation_secant_check(cfg, random_point(2, 56))

    @pytest.mark.parametrize("source", ["moved from a verified secant", "file claiming 0"])
    def test_verifies_its_input_wherever_it_came_from(self, pm_g2, fay, source):
        # zeta = (0.2, -0.1) is off the family: its residual is near 0.1, so
        # the input error must come before any lift is tried
        zeta = np.array([0.2, -0.1])
        if source == "file claiming 0":
            payload = dict(jsonio.config_to_json(fay.config), residual=0.0)
            payload["zeta"] = jsonio.point_to_json(zeta)
            cfg = jsonio.config_from_json(payload, pm_g2)
        else:
            assert kl.secant_residual(fay.config) <= 1e-7
            cfg = dataclasses.replace(fay.config, zeta=zeta)
        with pytest.raises(ValidationError, match="not a verified secant"):
            kl.propagation_secant_check(cfg, np.zeros(2))
        assert kl.secant_residual(cfg) > 1e-3

    def test_rejects_m_zero(self, pm_g2):
        a = random_point(2, 57)
        cfg = _cfg(pm_g2, 0, [a, a], np.zeros(2))
        with pytest.raises(ValidationError):
            kl.propagation_secant_check(cfg, random_point(2, 58))

    def test_off_family_shift_fails_with_table(self, fay):
        # a random zeta' does not come from the secant family, so no lift
        # can succeed; the failure carries the full residual table
        with pytest.raises(kl.ToleranceFailure) as err:
            kl.propagation_secant_check(fay.config, random_point(2, 59))
        assert len(err.value.table) == 16
        assert min(r for _, r in err.value.table) > 1e-7


    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0,
                                     True, np.True_, np.array([1e-7]), "x"])
    def test_tol_must_be_finite_and_positive(self, pm_g2, tol):
        # with tol = nan both gates compared False and a non-secant passed;
        # True and np.True_ ran as tol = 1, and "x" raised a bare TypeError
        cfg = _cfg(pm_g2, 1, [random_point(2, 50 + i) for i in range(3)], random_point(2, 55))
        with pytest.raises(ValidationError, match="tol must be finite and positive"):
            kl.propagation_secant_check(cfg, random_point(2, 56), tol=tol)
        with pytest.raises(ValidationError, match="tol must be finite and positive"):
            kl.secant_coefficients(cfg, tol=tol)


def _propagation_tables(cfg, zeta_prime, tol=1e-7):
    """(propagation_secant_check's table, the per-lift reference's), a raised table where no lift passes."""
    try:
        table = kl.propagation_secant_check(cfg, zeta_prime, tol=tol).table
    except IllPosedError as exc:
        table = exc.table
    return table, loop_propagation_table(cfg, zeta_prime)


class TestPropagationAgainstLoop:
    """Every lift scored from one evaluation per column agrees with one secant_residual per lift."""

    # ten times the default eps, absolute, on every row
    BOUND = 1e-11

    @pytest.fixture(scope="class")
    def member(self, pm_g2, divisor_points, fay):
        # a family member with zeta != 0 and its family shift, as the benchmark builds them
        t1, t2 = (kl.find_theta_divisor_point(pm_g2, s) for s in (887, 888))
        zeta = 0.5 * (t1.z - divisor_points[0].z)
        return _cfg(pm_g2, 1, fay.config.points, zeta), 0.5 * (t2.z - divisor_points[0].z)

    def agree(self, cfg, zeta_prime, tol=1e-7):
        table, loop = _propagation_tables(cfg, zeta_prime, tol)
        assert [b for b, _ in table] == [b for b, _ in loop]
        assert max(abs(r - want) for (_, r), (_, want) in zip(table, loop)) <= self.BOUND

    def test_family_pair(self, member):
        self.agree(*member)

    def test_zeta_zero_pair_and_matching_parameter(self, pm_g2, divisor_points, fay):
        zeta_prime = 0.5 * (kl.find_theta_divisor_point(pm_g2, 888).z - divisor_points[0].z)
        self.agree(fay.config, zeta_prime)
        self.agree(fay.config, np.zeros(2))

    def test_off_family_failure_table(self, fay):
        with pytest.raises(IllPosedError):
            kl.propagation_secant_check(fay.config, random_point(2, 59))
        self.agree(fay.config, random_point(2, 59))

    @pytest.mark.parametrize("g, m", [(2, 2), (3, 1), (3, 3)])
    def test_every_column_kind(self, g, m):
        # tol = 1 admits any input and any table, so random points reach every
        # column formula: b_1, the middle b_j (m >= 2) and the last two
        pm = random_period_matrix(g, 70 + g)
        cfg = _cfg(pm, m, [random_point(g, 700 + 10 * g + i) for i in range(m + 2)],
                   random_point(g, 790 + g))
        self.agree(cfg, random_point(g, 795 + g), tol=1.0)

    @pytest.mark.parametrize("k, n", [((1, 0), (10**6, 10**6)), ((2, 1), (10**6, -10**6)),
                                      ((-3, 2), (-10**6, 10**6)), ((0, -3), (0, 10**6))])
    def test_zeta_prime_moved_by_a_period(self, member, k, n):
        # the phase is taken at z - rint(Re z), so |Re zeta'| = 1e6 costs no digits
        cfg, zeta_prime = member
        self.agree(cfg, zeta_prime + cfg.pm.tau @ np.array(k) + np.array(n))

    @pytest.mark.parametrize("k, n", [((0, 0), (10**6, 0)), ((-3, 2), (-10**6, 10**6))])
    def test_off_family_rows_moved_by_a_period(self, k, n):
        # rows of order 1e-5 to 0.1, where digits lost to a large Re zeta' would show
        pm = random_period_matrix(2, 72)
        cfg = _cfg(pm, 1, [random_point(2, 720 + i) for i in range(3)], random_point(2, 792))
        self.agree(cfg, random_point(2, 797) + pm.tau @ np.array(k) + np.array(n), tol=1.0)

    def test_too_far_raises_on_both_paths(self, member):
        cfg, zeta_prime = member
        far = zeta_prime + cfg.pm.tau @ np.array([40, 0])
        with pytest.raises(IllPosedError):
            kl.propagation_secant_check(cfg, far)
        with pytest.raises(IllPosedError):
            loop_propagation_table(cfg, far)


class TestSecantSearch:
    def test_reconverges_from_perturbed_family_zeta(self, pm_g2, divisor_points, fay):
        t = kl.find_theta_divisor_point(pm_g2, 777)
        zeta_true = 0.5 * (t.z - divisor_points[0].z)
        seed_zeta = zeta_true + np.array([1e-3, -1e-3]) * (1.0 + 0.5j)
        opts = kl.SearchOptions(seed=2)
        found = kl.secant_search(pm_g2, 1, fay.config.points, seed_zeta, opts)
        assert found.residual <= 1e-8
        assert found.search_info["converged"] is True

    def test_random_seed_finds_no_secant(self, pm_g2):
        pts = [random_point(2, 60 + i) for i in range(3)]
        opts = kl.SearchOptions(seed=4)
        found = kl.secant_search(pm_g2, 1, pts, random_point(2, 63), opts)
        assert found.residual >= 1e-3
        assert found.search_info["iterations"] <= 500

    def test_start_on_collision_is_not_converged(self, pm_g2, fay):
        # a_2 = a_1 + 1 is the same torus point, so every zeta is a collision:
        # the whole simplex stays on the plateau from its first vertex on
        a = list(fay.config.points)
        a[1] = a[0] + 1.0
        found = kl.secant_search(pm_g2, 1, a, -0.5 * (a[0] + a[1]), kl.SearchOptions(seed=3))
        assert found.search_info["iterations"] == 1
        assert found.search_info["converged"] is False

    def test_plateau_search_reports_its_zeta_and_residual(self, pm_g2, fay):
        # the trivial zero on the plateau has a tiny residual, but only
        # converged marks a secant that the search found
        a = list(fay.config.points)
        a[1] = a[0] + 1.0
        found = kl.secant_search(pm_g2, 1, a, fay.config.zeta, kl.SearchOptions(seed=5))
        assert found.search_info["converged"] is False
        assert found.residual == kl.secant_residual(_cfg(pm_g2, 1, a, found.zeta))
        assert sorted(vars(found)) == ["residual", "search_info", "zeta"]

    @pytest.mark.filterwarnings("error")
    def test_point_beyond_resolved_shift_is_ill_posed(self, pm_g2, fay):
        # the collision test reduces the point differences first, so its
        # guard is the one that must refuse them
        a = list(fay.config.points)
        a[2] = np.array([0.1 + 1e300j, 0.2])
        with pytest.raises(IllPosedError, match="too large to reduce"):
            kl.secant_search(pm_g2, 1, a, fay.config.zeta)

    @pytest.mark.filterwarnings("error")
    def test_pair_rows_beyond_resolved_shift_raise_out_of_the_search(self, monkeypatch, pm_g1):
        # the points differ by 0.3, so the collision test of the differences
        # passes; the pair row 2 zeta + a_1 + a_2 is past the guard, and that
        # failure is the first objective evaluation's to raise, not a plateau
        def first_step(f, x0, **kw):
            raise AssertionError(f"the objective returned {f(x0)}")

        monkeypatch.setattr(secant_module, "nelder_mead", first_step)
        with pytest.raises(IllPosedError, match="too large to reduce"):
            kl.secant_search(pm_g1, 0, [[1e300j], [0.3 + 1e300j]], [0.0])

    def test_deterministic(self, pm_g2, fay):
        opts = kl.SearchOptions(seed=11)
        a = kl.secant_search(pm_g2, 1, fay.config.points, random_point(2, 65), opts)
        b = kl.secant_search(pm_g2, 1, fay.config.points, random_point(2, 65), opts)
        assert np.array_equal(a.zeta, b.zeta)
        assert a.residual == b.residual


@pytest.fixture(scope="module")
def search_cases(pm_g2, divisor_points, fay):
    """(pm, m, points, zeta seed, search seed) for searches that converge, fail and plateau."""
    a = list(fay.config.points)
    collided = [a[0], a[0] + 1.0, a[2]]
    t = kl.find_theta_divisor_point(pm_g2, 777)
    family = 0.5 * (t.z - divisor_points[0].z) + np.array([1e-3, -1e-3]) * (1.0 + 0.5j)
    moved = [a[0] + pm_g2.tau @ [2.0, -1.0] + 5.0, a[1], a[2] - pm_g2.tau @ [0.0, 3.0]]
    pm3 = random_period_matrix(3, 31)
    cases = [
        (pm_g2, 1, a, family, 2),
        # test_start_on_collision_is_not_converged's plateau, and a plateau start off it
        (pm_g2, 1, collided, -0.5 * (collided[0] + collided[1]), 3),
        (pm_g2, 1, collided, fay.config.zeta, 5),
        (pm_g2, 1, [random_point(2, 60 + i) for i in range(3)], random_point(2, 63), 4),
        (pm_g2, 1, moved, fay.config.zeta + 0.01, 6),
        (pm3, 2, [random_point(3, 90 + i) for i in range(4)], random_point(3, 95), 7),
        (kl.make_period_matrix(1, [[0.2 + 1.1j]]), 0, [[0.1 + 0.05j], [0.3 - 0.1j]], [0.2], 8),
    ]
    return cases + [(pm_g2, 1, a, random_point(2, 65 + k), 11 + k) for k in range(4)]


class TestSearchBlockObjective:
    """The search ranks each step from one block of second-order values.

    Its steps must be those of a search whose objective stacks one
    second_order_values call per column (conftest.per_member_objective).
    """

    @pytest.mark.parametrize("case", range(11))
    def test_same_search_as_per_member_objective(self, monkeypatch, search_cases, case):
        pm, m, points, zeta, seed = search_cases[case]
        opts = kl.SearchOptions(seed=seed)
        block = kl.secant_search(pm, m, points, zeta, opts)
        reference = per_member_objective(pm, points, opts.eps)
        monkeypatch.setattr(secant_module, "nelder_mead",
                            lambda f, x0, **kw: nelder_mead(reference, x0, **kw))
        member = kl.secant_search(pm, m, points, zeta, opts)
        assert block.zeta.tobytes() == member.zeta.tobytes()
        assert block.residual == member.residual
        assert block.search_info["iterations"] == member.search_info["iterations"]
        assert block.search_info["converged"] is member.search_info["converged"]

    def test_objective_agrees_with_per_member_objective(self, monkeypatch, search_cases):
        pm, m, points, zeta, seed = search_cases[0]
        seen = []

        def recording(f, x0, **kw):
            seen.append(f)
            return nelder_mead(f, x0, **kw)

        monkeypatch.setattr(secant_module, "nelder_mead", recording)
        kl.secant_search(pm, m, points, zeta, kl.SearchOptions(seed=seed))
        reference = per_member_objective(pm, points)
        gen = np.random.default_rng(5)
        x0 = np.concatenate([zeta.real, zeta.imag])
        for x in x0 + gen.normal(scale=0.05, size=(20, 4)):
            assert seen[0](x) == pytest.approx(reference(x), rel=1e-10, abs=1e-15)


class TestCollided:
    """The search's collision test: some row within _COLLISION_MARGIN of the period lattice."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_verdict_matches_per_row_lattice_reduce(self, g):
        pm = random_period_matrix(g, 1360 + g)
        gen = np.random.default_rng(1360 + g)
        margin = secant_module._COLLISION_MARGIN
        for k in range(12):
            # lattice points, some far off the cell, moved by up to twice the margin
            n = gen.integers(-3, 4, size=(4, g)) * (k % 3 != 0)
            offsets = gen.normal(size=(4, g)) + 1j * gen.normal(size=(4, g))
            radii = gen.uniform(0.5, 2.0, size=(4, 1)) * margin
            offsets *= radii / np.linalg.norm(offsets, axis=1, keepdims=True)
            rows = n @ pm.tau + gen.integers(-5, 6, size=(4, g)) + offsets
            want = any(np.linalg.norm(kl.lattice_reduce(pm, row)) < margin for row in rows)
            assert secant_module._collided(pm, rows) is want
            assert want is bool((radii < margin).any())


class TestClaimOneAtGenusTwo:
    """At g = 2 the m = 2 secant locus is invariant under every half-period (module docstring)."""

    @pytest.mark.parametrize("k", range(4))
    def test_locus_holds_every_half_period_translate_of_a_root(self, pm_g2, k):
        points = [random_point(2, 7000 + 10 * k + i) for i in range(4)]
        found = kl.secant_search(pm_g2, 2, points, random_point(2, 7100 + k), kl.SearchOptions(seed=k))
        assert found.search_info["converged"] and found.residual < 1e-8

        def residual(shift):
            return kl.secant_residual(_cfg(pm_g2, 2, points, found.zeta + shift))

        for bits, h in kl.all_half_periods(pm_g2):
            assert residual(h) < 1e-8, bits
            if any(bits):
                # negative control: a quarter period leaves the locus
                assert residual(0.5 * h) > 1e-3, bits


class TestSearchEps:
    """SearchOptions.eps is checked once, before the search evaluates anything."""

    @staticmethod
    def counting(monkeypatch):
        evals = []

        def wrapped(f, x0, **kw):
            def counted(x):
                evals.append(x)
                return f(x)

            return nelder_mead(counted, x0, **kw)

        monkeypatch.setattr(secant_module, "nelder_mead", wrapped)
        return evals

    @pytest.mark.parametrize("eps", [math.nan, -1.0, "x", True, np.True_, np.array([1e-3])],
                             ids=["nan", "-1.0", "x", "True", "np.True_", "array"])
    def test_refused_before_the_first_evaluation(self, monkeypatch, pm_g2, fay, eps):
        evals = self.counting(monkeypatch)
        with pytest.raises(ValidationError, match="eps must be finite and positive"):
            kl.secant_search(pm_g2, 1, fay.config.points, fay.config.zeta,
                             kl.SearchOptions(eps=eps))
        assert evals == []

    def test_a_valid_eps_is_counted_through(self, monkeypatch, pm_g2, fay):
        evals = self.counting(monkeypatch)
        found = kl.secant_search(pm_g2, 1, fay.config.points, fay.config.zeta,
                                 kl.SearchOptions(eps=1e-10))
        assert len(evals) > found.search_info["iterations"]


class TestConfigurationValidation:
    def test_fields_are_frozen(self, fay):
        # a changed zeta must pass validation: a derived configuration is
        # built anew
        with pytest.raises(dataclasses.FrozenInstanceError):
            fay.config.zeta = "nonsense"
        with pytest.raises(ValidationError, match="zeta"):
            dataclasses.replace(fay.config, zeta="nonsense")

    def test_points_become_a_tuple_of_validated_vectors(self, pm_g2):
        cfg = _cfg(pm_g2, 1, [[0.1, 0.2], [0.3, 0.1j], (0.0, 0.5)], [0.0, 0.0])
        assert isinstance(cfg.points, tuple)
        assert all(p.dtype == complex and p.shape == (2,) for p in cfg.points)

    def test_too_many_points_for_genus(self, pm_g1):
        # the dimension count gates the geometric operations, not the
        # container: propagation arithmetic stays legal for mock data
        cfg = _cfg(pm_g1, 1, [[0.1], [0.2], [0.3]], [0.0])
        with pytest.raises(ValidationError, match="exceed"):
            kl.secant_residual(cfg)

    def test_wrong_point_count(self, pm_g2):
        with pytest.raises(ValidationError, match="expected"):
            _cfg(pm_g2, 1, [np.zeros(2)] * 2, np.zeros(2))
