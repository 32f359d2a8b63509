"""Series bookkeeping, per-order elimination, and the restriction identities."""

import cmath
import itertools
from dataclasses import replace

import numpy as np
import pytest

import kummerlab as kl
import kummerlab.hierarchy as hierarchy_module
from kummerlab.errors import ConvergenceFailure, HierarchyAbort, IllPosedError, ValidationError
from kummerlab.hierarchy import order_columns

from conftest import random_period_matrix, random_point


def partition_count_oracle(s):
    """Number of multisets of positive integers summing to s, by enumeration."""
    count = 0
    for sizes in itertools.product(*(range(s // k + 1) for k in range(1, s + 1))):
        if sum(k * i for k, i in zip(range(1, s + 1), sizes)) == s:
            count += 1
    return count


def random_state(pm, m, seed, order=4, fill=True):
    gen = np.random.default_rng(seed)

    def pt():
        return gen.uniform(-0.4, 0.4, pm.g) + 1j * gen.uniform(-0.25, 0.25, pm.g)

    state = kl.make_state(pm, m, pt(), [pt() for _ in range(m)], order=order, w1=pt())
    if fill:
        state.W = gen.normal(size=(order, pm.g)) * 0.5 + 1j * gen.normal(size=(order, pm.g)) * 0.5
        state.alpha1 = gen.normal(size=order) + 1j * gen.normal(size=order)
        if m > 1:
            state.alphaj = gen.normal(size=(m - 1, order)) + 1j * gen.normal(size=(m - 1, order))
    return state


def series_oracle(pm, x, w_rows, sign, scale, z, s_max, n_nodes=32, radius=0.35):
    """Taylor coefficients of eps -> theta(z - x + sign*scale*C(eps)) by
    trigonometric differencing on a circle of radius ``radius`` (independent
    of the operator machinery)."""
    vals = []
    for k in range(n_nodes):
        eps_k = radius * cmath.exp(2j * np.pi * k / n_nodes)
        c = sum(w * eps_k ** (j + 1) for j, w in enumerate(w_rows))
        vals.append(kl.theta(pm, z - x + sign * scale * c, eps=1e-14))
    out = []
    for s in range(s_max + 1):
        acc = sum(vals[k] * cmath.exp(-2j * np.pi * k * s / n_nodes) for k in range(n_nodes))
        out.append(acc / (n_nodes * radius**s))
    return out


def m2_state():
    """An m = 2 state on a g = 3 matrix (m = 2 needs g >= 3 for a
    zero-dimensional common zero set) and a point of its G."""
    pm = random_period_matrix(3, 321)
    gen = np.random.default_rng(50)

    def pt():
        return gen.uniform(-0.4, 0.4, 3) + 1j * gen.uniform(-0.25, 0.25, 3)

    state = kl.make_state(pm, 2, pt(), [pt(), pt()], order=3, w1=pt())
    state.W = gen.normal(size=(3, 3)) * 0.4 + 1j * gen.normal(size=(3, 3)) * 0.4
    state.alpha1 = gen.normal(size=3) + 1j * gen.normal(size=3)
    state.alphaj = gen.normal(size=(1, 3)) + 1j * gen.normal(size=(1, 3))
    z = kl.find_section_intersection(pm, [state.u, -state.u, state.b[0]], seed=3)
    return state, z


# Reference oracle: the generating section written out term by term, with
# its own coefficient table and one factor series per displayed theta.


def oracle_series(state, x, sign, scale, z, upto, eps=1e-12):
    """[eps^k] of theta(z - x + sign*scale*C(eps)) for k = 0..upto."""
    return np.array([kl.apply_delta(state, k, sign, scale, x, z, eps=eps) for k in range(upto + 1)])


def oracle_alpha(state, label, upto):
    """Coefficient array of a_label(eps) through eps^upto (labels 1..m+2)."""
    arr = np.zeros(upto + 1, dtype=complex)
    n = min(upto, state.order)
    if label == 1:
        arr[0] = 1.0
        arr[1 : n + 1] = state.alpha1[:n]
    elif label == 2:
        arr[0] = -1.0
    elif label == state.m + 2:
        if upto >= 1:
            arr[1] = 1.0
    else:
        arr[1 : n + 1] = state.alphaj[label - 3, :n]
    return arr


def conv(a, b, upto):
    return np.convolve(a, b)[: upto + 1]


def oracle_P(state, z, upto):
    u = state.u
    g1 = oracle_series(state, -u, +1, 0.5, z, upto)  # theta(z+u+C/2)
    g2 = oracle_series(state, +u, -1, 0.5, z, upto)  # theta(z-u-C/2)
    g3 = oracle_series(state, +u, +1, 0.5, z, upto)  # theta(z-u+C/2)
    g4 = oracle_series(state, -u, -1, 0.5, z, upto)  # theta(z+u-C/2)
    total = conv(conv(oracle_alpha(state, 1, upto), g1, upto), g2, upto)
    total = total - conv(g3, g4, upto)
    for j, b in enumerate(state.b):
        g5 = oracle_series(state, -b, +1, 0.5, z, upto)
        g6 = oracle_series(state, +b, -1, 0.5, z, upto)
        total = total + conv(conv(oracle_alpha(state, j + 3, upto), g5, upto), g6, upto)
    return total


def oracle_Q(state, z, s):
    W, alpha1, alphaj = state.W.copy(), state.alpha1.copy(), state.alphaj.copy()
    W[s - 1] = 0.0
    alpha1[s - 1] = 0.0
    alphaj[:, s - 1] = 0.0
    return oracle_P(replace(state, W=W, alpha1=alpha1, alphaj=alphaj), z, s)[s]


def oracle_R(state, z, s):
    """P with argument shifted by +C/2: the second factors are constant."""
    pm, u = state.pm, state.u
    r = conv(oracle_alpha(state, 1, s), oracle_series(state, -u, +1, 1.0, z, s) * kl.theta(pm, z - u), s)
    r = r - oracle_series(state, +u, +1, 1.0, z, s) * kl.theta(pm, z + u)
    for j, b in enumerate(state.b):
        r = r + conv(oracle_alpha(state, j + 3, s),
                     oracle_series(state, -b, +1, 1.0, z, s) * kl.theta(pm, z - b), s)
    return r[s]


def oracle_T(state, z, s):
    """P with argument shifted by -C/2: the first factors are constant."""
    pm, u = state.pm, state.u
    t = conv(oracle_alpha(state, 1, s), oracle_series(state, +u, -1, 1.0, z, s) * kl.theta(pm, z + u), s)
    t = t - oracle_series(state, -u, -1, 1.0, z, s) * kl.theta(pm, z - u)
    for j, b in enumerate(state.b):
        t = t + conv(oracle_alpha(state, j + 3, s),
                     oracle_series(state, +b, -1, 1.0, z, s) * kl.theta(pm, z + b), s)
    return t[s]


def bits(value):
    return np.array([value], dtype=complex).tobytes()


class TestWeightedPartitions:
    def test_order_one(self):
        words = kl.weighted_partitions(1)
        assert len(words) == 1
        assert words[0].exponents == (1,)
        assert words[0].weight == 1.0

    def test_order_three_by_hand(self):
        words = {w.exponents: w.weight for w in kl.weighted_partitions(3)}
        assert words == {(3, 0, 0): pytest.approx(1 / 6), (1, 1, 0): 1.0, (0, 0, 1): 1.0}

    def test_order_five_count(self):
        assert len(kl.weighted_partitions(5)) == 7

    @pytest.mark.parametrize("s", range(1, 13))
    def test_counts_match_enumeration_oracle(self, s):
        assert len(kl.weighted_partitions(s)) == partition_count_oracle(s)

    def test_exponent_constraint(self):
        for s in (4, 7):
            for w in kl.weighted_partitions(s):
                assert sum(k * i for k, i in enumerate(w.exponents, start=1)) == s

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            kl.weighted_partitions(13)


def per_word_delta(state, s, sign, scale, x, z, eps=1e-12):
    """Delta_s as one theta call at z - x per operator word, each on a fresh matrix."""
    total = 0.0 + 0.0j
    for word in kl.weighted_partitions(s):
        dirs = []
        for w, count in zip(state.W[:s], word.exponents):
            if count == 0:
                continue
            if np.linalg.norm(w) == 0.0:
                break
            dirs.extend([sign * scale * w] * count)
        else:
            fresh = kl.make_period_matrix(state.pm.g, state.pm.tau)
            total += word.weight * kl.theta(fresh, z - x, deriv=dirs, eps=eps)
    return total


class TestApplyDelta:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_equals_per_word_sum_bit_for_bit(self, seed):
        # series after series on one matrix, as assemble_P runs them, over
        # more translates than the point memo holds; then the later rows are
        # installed, as solve_order does, and every series runs again
        pm = random_period_matrix(2, seed)
        state = random_state(pm, 1, seed, order=8)
        rows = state.W.copy()
        rows[5] = 0.0  # words touching W^(6) are skipped
        state.W[4:] = 0.0
        z = random_point(2, seed + 1)
        xs = [random_point(2, seed + 10 + k) for k in range(6)]
        for solved in (4, 8):
            state.W[:solved] = rows[:solved]
            for k, x in enumerate(xs):
                sign, scale = ((+1, 0.5), (-1, 0.5), (+1, 1.0))[k % 3]
                for s in range(1, 9):
                    got = kl.apply_delta(state, s, sign, scale, x, z)
                    want = per_word_delta(state, s, sign, scale, x, z)
                    assert np.array([got]).tobytes() == np.array([want]).tobytes(), (solved, k, s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    # scaling an infinite W row makes inf * 0 before theta rejects it
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_bad_row_after_valid_directions_raises(self, pm_g2, bad):
        state = random_state(pm_g2, 1, 13, order=3)
        z = random_point(2, 14)
        x = random_point(2, 15)
        kl.apply_delta(state, 3, +1, 0.5, x, z)  # every W^(j) is now a memo entry
        state.W[2, 1] = bad
        with pytest.raises(ValidationError):
            kl.apply_delta(state, 3, +1, 0.5, x, z)

    def test_point_checked_once_even_without_words(self, pm_g2):
        state = random_state(pm_g2, 1, 16, order=2, fill=False)
        state.W[:] = 0.0
        assert kl.apply_delta(state, 2, +1, 0.5, np.zeros(2), np.zeros(2)) == 0.0
        with pytest.raises(ValidationError):
            kl.apply_delta(state, 2, +1, 0.5, np.zeros(2), np.array([np.nan, 0.0]))

    def test_order_zero_is_plain_value(self, pm_g2):
        state = random_state(pm_g2, 1, 1)
        z = random_point(2, 2)
        x = random_point(2, 3)
        assert kl.apply_delta(state, 0, +1, 0.5, x, z) == kl.theta(pm_g2, z - x)

    def test_order_one_vs_finite_differences(self, pm_g2):
        state = random_state(pm_g2, 1, 4)
        z = random_point(2, 5)
        x = random_point(2, 6)
        val = kl.apply_delta(state, 1, -1, 0.5, x, z, eps=1e-14)
        w = -0.5 * state.W[0]
        h = 1e-5
        fd = (kl.theta(pm_g2, z - x + h * w, eps=1e-14) - kl.theta(pm_g2, z - x - h * w, eps=1e-14)) / (2 * h)
        assert abs(val - fd) <= 1e-7 * max(1.0, abs(val))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_zero_scale_makes_no_theta_call(self, pm_g2, monkeypatch, s):
        state = random_state(pm_g2, 1, 17, order=3)
        calls = []
        real_theta = hierarchy_module.theta

        def counted(*args, **kwargs):
            calls.append(args)
            return real_theta(*args, **kwargs)

        monkeypatch.setattr(hierarchy_module, "theta", counted)
        got = kl.apply_delta(state, s, +1, 0.0, random_point(2, 18), random_point(2, 19))
        assert got == 0.0
        assert calls == []

    def test_linear_in_scale_exactly(self, pm_g2):
        state = random_state(pm_g2, 1, 7)
        z = random_point(2, 8)
        x = random_point(2, 9)
        assert kl.apply_delta(state, 1, +1, 0.5, x, z) * 2.0 == kl.apply_delta(state, 1, +1, 1.0, x, z)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_against_series_oracle(self, pm_g2, s):
        for k in range(4):
            state = random_state(pm_g2, 1, 100 + k, order=3)
            z = random_point(2, 200 + k)
            x = random_point(2, 300 + k)
            sign = +1 if k % 2 == 0 else -1
            scale = 0.5 if k % 2 == 0 else 1.0
            got = kl.apply_delta(state, s, sign, scale, x, z, eps=1e-14)
            want = series_oracle(pm_g2, x, state.W, sign, scale, z, s)[s]
            assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


def factor_series(state, base, sign, z, upto, eps=kl.DEFAULT_EPS):
    """Series of theta(z + sign*(base + C(eps)/2)) through eps^upto, one apply_delta per order."""
    return np.array([kl.apply_delta(state, k, sign, 0.5, -sign * base, z, eps=eps)
                     for k in range(upto + 1)])


class TestFactorSeries:
    def test_zero_curve_is_constant(self, pm_g2):
        state = random_state(pm_g2, 1, 10, fill=False)
        state.W[:] = 0.0
        z = random_point(2, 11)
        base = random_point(2, 12)
        # make_state needs a nonzero seed direction, so zero it afterwards
        series = factor_series(state, base, +1, z, 3)
        assert series[0] == kl.theta(pm_g2, z + base)
        assert np.all(series[1:] == 0.0)

    def test_order_one_coefficient(self, pm_g2):
        state = random_state(pm_g2, 1, 13)
        z = random_point(2, 14)
        base = random_point(2, 15)
        for sign in (+1, -1):
            series = factor_series(state, base, sign, z, 1, eps=1e-14)
            direct = sign * 0.5 * kl.theta(pm_g2, z + sign * base, deriv=(state.W[0],), eps=1e-14)
            assert abs(series[1] - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_truncation_stable(self, pm_g2):
        state = random_state(pm_g2, 1, 16, order=6)
        z = random_point(2, 17)
        base = random_point(2, 18)
        short = factor_series(state, base, +1, z, 3)
        long = factor_series(state, base, +1, z, 5)
        assert np.array_equal(short, long[:4])


class TestAssembleP:
    def test_p0_vanishes(self, pm_g2):
        state = random_state(pm_g2, 2, 20)
        for k in range(20):
            z = random_point(2, 400 + k)
            assert abs(kl.assemble_P(state, 0, z)) <= 1e-10

    def test_p1_matches_direct_display(self, pm_g2):
        for k in range(5):
            m = 1 + k % 2
            state = random_state(pm_g2, m, 500 + k)
            z = random_point(2, 600 + k)
            u, w1 = state.u, state.W[0]
            direct = state.alpha1[0] * kl.theta(pm_g2, z + u, eps=1e-14) * kl.theta(pm_g2, z - u, eps=1e-14)
            direct += kl.theta(pm_g2, z + u, deriv=(w1,), eps=1e-14) * kl.theta(pm_g2, z - u, eps=1e-14)
            direct -= kl.theta(pm_g2, z - u, deriv=(w1,), eps=1e-14) * kl.theta(pm_g2, z + u, eps=1e-14)
            for j, b in enumerate(state.b):
                coeff = 1.0 if j == m - 1 else state.alphaj[j, 0]
                direct += coeff * kl.theta(pm_g2, z + b, eps=1e-14) * kl.theta(pm_g2, z - b, eps=1e-14)
            got = kl.assemble_P(state, 1, z, eps=1e-14)
            assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_p2_vanishes_for_zero_curve_and_coefficients(self, pm_g2):
        state = random_state(pm_g2, 1, 21, fill=False)
        state.W[:] = 0.0
        for k in range(5):
            z = random_point(2, 700 + k)
            assert abs(kl.assemble_P(state, 2, z)) <= 1e-10

    def test_affine_in_order_s_unknowns(self, pm_g2):
        # superposition: P_s(x + y together) - P_s(zeroed) must equal the
        # sum of the two single-perturbation differences
        state = random_state(pm_g2, 2, 22, order=3)
        s = 3
        z = random_point(2, 23)
        gen = np.random.default_rng(24)

        def with_unknowns(a1, aj, w):
            st = random_state(pm_g2, 2, 22, order=3)
            st.alpha1[s - 1] = a1
            st.alphaj[:, s - 1] = aj
            st.W[s - 1] = w
            return kl.assemble_P(st, s, z, eps=1e-14)

        base = with_unknowns(0.0, np.zeros(1), np.zeros(2))
        a1, aj, w = gen.normal(size=3)[0] + 0.3j, gen.normal(size=1) + 0.1j, gen.normal(size=2) + 0.2j
        lhs = with_unknowns(a1, aj, w) - base
        rhs = (with_unknowns(a1, np.zeros(1), np.zeros(2)) - base
               + with_unknowns(0.0, aj, np.zeros(2)) - base
               + with_unknowns(0.0, np.zeros(1), w) - base)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestAssembleQ:
    def test_independent_of_order_s_unknowns(self, pm_g2):
        state = random_state(pm_g2, 2, 25, order=3)
        z = random_point(2, 26)
        s = 2
        q_before = kl.assemble_Q(state, s, z)
        p_before = kl.assemble_P(state, s, z)
        state.alpha1[s - 1] += 2.7 - 0.4j
        q_after = kl.assemble_Q(state, s, z)
        p_after = kl.assemble_P(state, s, z)
        assert abs(q_after - q_before) <= 1e-12
        assert abs(p_after - p_before) > 1e-6

    def test_q1_hand_expansion(self, pm_g2):
        # with order-1 unknowns removed only the eps-normalized term remains
        state = random_state(pm_g2, 2, 27)
        z = random_point(2, 28)
        bm = state.b[-1]
        expected = kl.theta(pm_g2, z + bm) * kl.theta(pm_g2, z - bm)
        assert abs(kl.assemble_Q(state, 1, z) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_decomposition_identity(self, pm_g2):
        state = random_state(pm_g2, 2, 29, order=3)
        s = 3
        z = random_point(2, 30)
        cols = order_columns(state, z, eps=1e-14)
        unknowns = np.concatenate([[state.alpha1[s - 1]], state.alphaj[:, s - 1], state.W[s - 1]])
        q = kl.assemble_Q(state, s, z, eps=1e-14)
        p = kl.assemble_P(state, s, z, eps=1e-14)
        assert abs(q + cols @ unknowns - p) <= 1e-12 * max(1.0, abs(p))


def oracle_cases():
    """(state, z) at m = 1 (g = 2) and m = 2 (g = 3)."""
    pm = random_period_matrix(2, 60)
    state = random_state(pm, 1, 61, order=3)
    z = kl.find_section_intersection(pm, [state.u, -state.u], seed=2)
    return [(state, z), m2_state()]


class TestAgainstTermByTermOracle:
    """The section written once equals the section written term by term."""

    @pytest.fixture(scope="class")
    def cases(self):
        return oracle_cases()

    @pytest.mark.parametrize("case", [0, 1])
    def test_assemble_P_bit_for_bit(self, cases, case):
        state, z = cases[case]
        for s in range(4):
            assert bits(kl.assemble_P(state, s, z)) == bits(oracle_P(state, z, s)[s]), s

    @pytest.mark.parametrize("case", [0, 1])
    def test_assemble_Q_bit_for_bit(self, cases, case):
        state, z = cases[case]
        for s in range(1, 4):
            assert bits(kl.assemble_Q(state, s, z)) == bits(oracle_Q(state, z, s)), s

    @pytest.mark.parametrize("case", [0, 1])
    def test_restriction_r_and_t(self, cases, case):
        state, z = cases[case]
        for s in range(1, 4):
            report = kl.restriction_identity_check(state, s, [z], full=True)
            want_r, want_t = oracle_R(state, z, s), oracle_T(state, z, s)
            assert abs(report.r_values[0] - want_r) <= 1e-13 * abs(want_r), s
            assert abs(report.t_direct[0] - want_t) <= 1e-13 * abs(want_t), s

    @pytest.mark.parametrize("case", [0, 1])
    def test_default_return_is_the_full_discrepancy(self, cases, case):
        state, z = cases[case]
        for s in range(1, 4):
            full = kl.restriction_identity_check(state, s, [z], full=True)
            assert kl.restriction_identity_check(state, s, [z]) == full.discrepancy


class TestSolveOrder:
    def test_synthetic_recovery(self, pm_g2):
        # columns from the real assembly, right side manufactured from known
        # unknowns: least squares must recover them
        state = random_state(pm_g2, 1, 31, fill=False)
        gen = np.random.default_rng(32)
        samples = [random_point(2, 800 + k) for k in range(12)]
        a = np.stack([order_columns(state, z) for z in samples])
        x_true = gen.normal(size=3) + 1j * gen.normal(size=3)
        x_hat, *_ = np.linalg.lstsq(a, a @ x_true, rcond=None)
        assert np.abs(x_hat - x_true).max() <= 1e-8 * max(1.0, np.abs(x_true).max())

    def test_m1_g2_three_unknowns_twelve_samples(self, pm_g2, tangency):
        state = kl.make_state(pm_g2, 1, tangency.u, [tangency.b], order=1, w1=tangency.direction)
        samples = [random_point(2, 900 + k) for k in range(12)]
        residual = kl.solve_order(state, 1, samples)
        assert residual <= 1e-10
        assert state.residuals == [residual]
        # the solved direction is the tangency direction up to scale
        w = state.W[0] / np.linalg.norm(state.W[0])
        assert abs(abs(np.vdot(w, tangency.direction)) - 1.0) <= 1e-6
        # independent validation: the installed solution kills P_1 off-sample
        for k in range(5):
            z = random_point(2, 950 + k)
            assert abs(kl.assemble_P(state, 1, z)) <= 1e-9

    def test_degenerate_sample_set_rejected(self, pm_g2):
        state = random_state(pm_g2, 1, 33, fill=False)
        z = random_point(2, 34)
        with pytest.raises(IllPosedError, match="rank"):
            kl.solve_order(state, 1, [z] * 12)

    def test_too_few_samples_rejected(self, pm_g2):
        state = random_state(pm_g2, 1, 35, fill=False)
        with pytest.raises(ValidationError, match="samples"):
            kl.solve_order(state, 1, [random_point(2, 36)])

    def test_orders_must_be_consecutive(self, pm_g2):
        state = random_state(pm_g2, 1, 37, fill=False, order=3)
        with pytest.raises(ValidationError, match="consecutive"):
            kl.solve_order(state, 2, [random_point(2, 38 + k) for k in range(12)])


class TestRunHierarchy:
    def test_degenerate_seed_solves_smoke(self, solved_state):
        assert len(solved_state.residuals) == 4
        assert max(solved_state.residuals) <= 1e-7

    def test_rejects_zero_seed_direction(self, pm_g2, tangency):
        state = kl.make_state(pm_g2, 1, tangency.u, [tangency.b], order=2)
        samples = kl.default_samples(pm_g2, 12, seed=1)
        with pytest.raises(ValidationError, match="nonzero first direction"):
            kl.run_hierarchy(state, 2, samples)

    def test_random_data_aborts_at_order_one(self, pm_g2):
        state = random_state(pm_g2, 1, 39, fill=False)
        samples = kl.default_samples(pm_g2, 12, seed=2)
        with pytest.raises(HierarchyAbort) as err:
            kl.run_hierarchy(state, 3, samples)
        assert err.value.order == 1
        assert err.value.residual >= 1e-3

    def test_order_stability_bit_identical(self, pm_g2, tangency):
        samples = kl.default_samples(pm_g2, 14, seed=5)
        s_long = kl.make_state(pm_g2, 1, tangency.u, [tangency.b], order=4, w1=tangency.direction)
        s_short = kl.make_state(pm_g2, 1, tangency.u, [tangency.b], order=2, w1=tangency.direction)
        kl.run_hierarchy(s_long, 4, samples)
        kl.run_hierarchy(s_short, 2, samples)
        assert np.array_equal(s_long.alpha1[:2], s_short.alpha1[:2])
        assert np.array_equal(s_long.W[:2], s_short.W[:2])
        assert s_long.residuals[:2] == s_short.residuals[:2]


class TestPremiseCheck:
    def test_tangency_datum_passes(self, pm_g2, tangency):
        report = kl.premise_check(pm_g2, 1, tangency.u, [tangency.b], direction=tangency.direction)
        assert report.tangency_residual <= 1e-6
        assert report.passed

    def test_existential_form_passes(self, pm_g2, tangency):
        report = kl.premise_check(pm_g2, 1, tangency.u, [tangency.b])
        assert report.tangency_residual <= 1e-6

    def test_random_data_fails(self, pm_g2):
        report = kl.premise_check(
            pm_g2, 1, random_point(2, 40), [random_point(2, 41)], direction=random_point(2, 42)
        )
        assert report.tangency_residual >= 1e-3
        assert not report.passed

    def test_m1_shifted_premise_vacuous(self, pm_g2, tangency):
        report = kl.premise_check(pm_g2, 1, tangency.u, [tangency.b], direction=tangency.direction)
        assert report.shifted_residuals == []

    def test_m_zero_is_rejected(self, pm_g2):
        # the shifted premise read b_list[-1] of an empty list: IndexError
        with pytest.raises(ValidationError, match="positive integer"):
            kl.premise_check(pm_g2, 0, random_point(2, 43), [])

    def test_zero_direction_is_rejected(self, pm_g2, tangency):
        # its derivative column is zero: this exited 2 as a tolerance failure
        with pytest.raises(ValidationError, match="direction must be nonzero"):
            kl.premise_check(pm_g2, 1, tangency.u, [tangency.b], direction=np.zeros(2))

    def test_more_columns_than_coordinates_is_rejected(self, pm_g2, tangency):
        # m = 2 with g = 2 coordinate derivatives is 5 columns in 4 rows: the
        # rank test is vacuous, and s[rank_target] raised IndexError
        with pytest.raises(ValidationError, match="5 premise columns exceed 2\\^g = 4"):
            kl.premise_check(pm_g2, 2, tangency.u, [tangency.b, random_point(2, 44)])


class TestRestrictionIdentity:
    def test_points_found_and_identity_order_one(self, pm_g2, solved_state):
        z = kl.find_section_intersection(pm_g2, [solved_state.u, -solved_state.u], seed=1)
        bm = solved_state.b[-1]
        direct = kl.theta(pm_g2, z + bm) * kl.theta(pm_g2, z - bm)
        report = kl.restriction_identity_check(solved_state, 1, [z], full=True)
        assert abs(report.r_values[0] - direct) <= 1e-8 * max(1.0, abs(direct))
        assert report.discrepancy <= 1e-8

    def test_off_g_point_rejected(self, pm_g2, solved_state):
        with pytest.raises(ValidationError, match="common zero"):
            kl.restriction_identity_check(solved_state, 1, [random_point(2, 43)])

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_identity_orders(self, pm_g2, solved_state, s):
        pts = [
            kl.find_section_intersection(pm_g2, [solved_state.u, -solved_state.u], seed=k)
            for k in (1, 4)
        ]
        assert kl.restriction_identity_check(solved_state, s, pts) <= 1e-6

    def test_identity_holds_for_arbitrary_state_data(self, pm_g2):
        # the restriction computation is exact for any coefficients, solved or not
        state = random_state(pm_g2, 1, 44, order=3)
        z = kl.find_section_intersection(pm_g2, [state.u, -state.u], seed=2)
        assert kl.restriction_identity_check(state, 2, [z]) <= 1e-8

    def test_t_reading_comparison_m2(self):
        state, z = m2_state()
        report = kl.restriction_identity_check(state, 3, [z], full=True)
        scale = max(1.0, abs(report.t_direct[0]))
        # the eps-degree reading reproduces the direct series
        assert abs(report.t_direct[0] - report.t_formula[0]) <= 1e-7 * scale
        assert report.discrepancy <= 1e-7


class TestFindSectionIntersection:
    def test_zero_set_membership(self, pm_g2, tangency):
        z = kl.find_section_intersection(pm_g2, [tangency.u, -tangency.u], seed=9)
        assert abs(kl.theta(pm_g2, z - tangency.u)) <= 1e-10
        assert abs(kl.theta(pm_g2, z + tangency.u)) <= 1e-10

    def test_overdetermined_rejected(self, pm_g2):
        with pytest.raises(ValidationError, match="overdetermined"):
            kl.find_section_intersection(pm_g2, [random_point(2, k) for k in range(3)], seed=0)

    def test_out_of_restarts_raises_with_trace(self, pm_g2, tangency, monkeypatch):
        # one Newton step per start cannot reach 1e-11 from a random start
        monkeypatch.setattr(hierarchy_module, "_INTERSECTION_RESTARTS", 2)
        monkeypatch.setattr(hierarchy_module, "_INTERSECTION_MAX_ITER", 1)
        with pytest.raises(ConvergenceFailure, match="after 2 restarts") as err:
            kl.find_section_intersection(pm_g2, [tangency.u, -tangency.u], seed=9)
        assert [row[:2] for row in err.value.trace] == [(0, 0), (1, 0)]
        assert all(row[2] >= 1e-11 for row in err.value.trace)


def test_negative_sample_count_is_rejected(pm_g2):
    with pytest.raises(ValidationError, match="-3"):
        kl.default_samples(pm_g2, -3, seed=0)
