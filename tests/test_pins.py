"""Theta-call pins and bit-identity of the warm evaluation path.

The call counts are pinned at their current values: a change that lowers
one on purpose updates it here, in the open.  Calls are counted by
rebinding ``theta`` in every module that calls it, so no tracer is needed.
"""

import importlib
import itertools

import numpy as np
import pytest

import kummerlab as kl
from kummerlab.theta import reduce_argument

from conftest import random_period_matrix, random_point

theta_module = importlib.import_module("kummerlab.theta")
CALLERS = ("theta", "kummer", "secant", "scenarios", "hierarchy")


@pytest.fixture
def theta_calls(monkeypatch):
    """A one-element list holding the number of theta calls made since the fixture started."""
    original = theta_module.theta
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for name in CALLERS:
        monkeypatch.setattr(importlib.import_module(f"kummerlab.{name}"), "theta", counted)
    return count


def bits(value):
    """The exact bits of a complex value, signed zeros included."""
    return np.array([value], dtype=complex).view(np.uint64).tolist()


class TestThetaCallPins:
    def test_fay_configuration_makes_144_calls(self, pm_g2, divisor_points, theta_calls):
        kl.fay_configuration(pm_g2, divisor_points)
        assert theta_calls[0] == 144

    @pytest.mark.parametrize("order, calls", [(4, 2_400), (8, 17_856)])
    def test_run_hierarchy_on_16_samples(self, order, calls, theta_calls):
        # the tangency datum of acceptance criterion 07, which solves to order 8
        pm = kl.sample_genus2_period_matrix(13)
        points = [kl.find_theta_divisor_point(pm, 600 + i) for i in range(3)]
        datum = kl.degenerate_fay_configuration(pm, points)
        state = kl.make_state(pm, 1, datum.u, [datum.b], order=order, w1=datum.direction)
        samples = kl.default_samples(pm, 16, seed=2)
        theta_calls[0] = 0
        kl.run_hierarchy(state, order, samples)
        assert theta_calls[0] == calls

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_second_order_values_makes_one_call_per_basis_member(self, g, theta_calls):
        pm = random_period_matrix(g, 30 + g)
        kl.second_order_values(pm, random_point(g, 30 + g))
        assert theta_calls[0] == 2**g


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("outside", [False, True])
def test_basis_calls_skip_the_full_reduction(g, outside, monkeypatch):
    # every theta call of the basis lands in the n0 = 0 cell, so theta never translates
    original = theta_module._translate
    count = [0]

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(theta_module, "_translate", counted)
    pm = random_period_matrix(g, 50 + g)
    gen = np.random.default_rng(50 + g)
    for k in range(10):
        z = random_point(g, 5000 + 10 * g + k)
        if outside:
            z = z + pm.tau @ gen.integers(-3, 4, size=g) + gen.integers(-10**6, 10**6, size=g)
        kl.second_order_values(pm, z)
        kl.second_order_derivative(pm, z, gen.normal(size=g))
    assert count[0] == 0


class TestMemoHitEqualsMiss:
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_bit_for_bit(self, shifted, order):
        pm_seed = 40 + order
        gen = np.random.default_rng(pm_seed)
        direction = gen.normal(size=2) + 1j * gen.normal(size=2)
        deriv = (direction,) * order
        for k in range(8):
            z = random_point(2, 100 * pm_seed + k, im_half=0.1)
            if shifted:
                z = z + random_period_matrix(2, pm_seed).tau @ np.array([1.0, -2.0])
            fresh = random_period_matrix(2, pm_seed)
            assert bool(reduce_argument(fresh, z)[1].any()) == shifted
            miss = kl.theta(fresh, z, deriv=deriv)
            hit = kl.theta(fresh, z, deriv=deriv)
            again = kl.theta(random_period_matrix(2, pm_seed), z.copy(), deriv=list(deriv))
            assert bits(miss) == bits(hit) == bits(again)

    def test_unshifted_reduction_matches_reduce_argument(self, pm_g2):
        for k in range(20):
            z = random_point(2, 500 + k, im_half=0.1)
            z_red, n0, _, w = reduce_argument(pm_g2, z)
            assert not n0.any()
            entry = theta_module._reduced(pm_g2, z)
            assert np.array_equal(entry[1], z_red) and np.array_equal(entry[2], n0)
            assert entry[3] == 0j and w == 0j and entry[4] == 1.0


class TestStackedLiftTables:
    """One SVD call over a stack gives each row the bits of its own SVD call."""

    @staticmethod
    def ratio(columns):
        s = np.linalg.svd(np.stack(columns, axis=1), compute_uv=False)
        return float(s[-1] / s[0])

    def test_fay_table(self, pm_g2, divisor_points, fay):
        za, zb, zc, zd = (p.z for p in divisor_points)
        hp = kl.all_half_periods(pm_g2)
        p1, p2, p3 = (
            kl.lattice_reduce(pm_g2, 0.5 * v)
            for v in (za + zb - zc - zd, za - zb + zc - zd, za - zb - zc + zd)
        )
        v1 = kl.second_order_values(pm_g2, p1)
        v2 = {b: kl.second_order_values(pm_g2, p2 + h) for b, h in hp}
        v3 = {b: kl.second_order_values(pm_g2, p3 + h) for b, h in hp}
        loop = [((b2, b3), self.ratio([v1, v2[b2], v3[b3]])) for (b2, _), (b3, _) in
                itertools.product(hp, hp)]
        assert fay.table == loop

    def test_degenerate_table(self, pm_g2, divisor_points, tangency):
        za, zb, zc = (p.z for p in divisor_points[:3])
        u = kl.lattice_reduce(pm_g2, 0.5 * (za - zb))
        b1 = kl.lattice_reduce(pm_g2, 0.5 * (za + zb) - zc)
        ku = kl.second_order_values(pm_g2, u)
        dku = kl.second_order_derivative(pm_g2, u, tangency.direction)
        cu, cd = ku / np.linalg.norm(ku), dku / np.linalg.norm(dku)
        loop = []
        for b, h in kl.all_half_periods(pm_g2):
            kb = kl.second_order_values(pm_g2, b1 + h)
            loop.append((b, self.ratio([cu, kb / np.linalg.norm(kb), cd])))
        assert tangency.table == loop

    def test_propagation_table(self, pm_g2, divisor_points, fay):
        zeta_prime = 0.5 * (kl.find_theta_divisor_point(pm_g2, 888).z - divisor_points[0].z)
        check = kl.propagation_secant_check(fay.config, zeta_prime)
        loop = []
        for b in itertools.product((0, 1), repeat=4):
            b_points = kl.propagate(fay.config, zeta_prime, np.array(b))
            derived = kl.SecantConfiguration(pm_g2, 1, b_points, fay.config.zeta)
            loop.append((b, kl.secant_residual(derived)))
        assert check.table == loop
