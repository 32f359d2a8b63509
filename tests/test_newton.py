"""util.newton, the damped-Newton iteration behind every root finder."""

import numpy as np
import pytest

import kummerlab as kl
import kummerlab.hierarchy as hierarchy_module
import kummerlab.scenarios as scenarios_module
from kummerlab.util import newton

from conftest import loop_divisor_point, loop_project_to_divisor, loop_section_intersection


def _counted(fn):
    """fn, recording each argument it is called with in ``calls``."""
    calls = []

    def wrapped(x, *rest):
        calls.append(x)
        return fn(x, *rest)

    return wrapped, calls


class TestNewton:
    def test_start_within_tol_returns_iteration_zero_without_a_step(self):
        def step(x, r):
            raise AssertionError("step taken at a converged start")

        residual, calls = _counted(lambda x: 1e-13 * x)
        x, res, it = newton(residual, step, 1.0 + 0.0j, 10)
        assert (x, res, it) == (1.0 + 0.0j, 1e-13, 0)
        assert len(calls) == 1

    def test_none_step_ends_the_run(self):
        # one accepted step, then the step refuses
        steps = iter([-0.5, None])
        residual, calls = _counted(lambda x: x)
        x, res, it = newton(residual, lambda x, r: next(steps), 1.0, 10)
        assert (x, res, it) == (0.5, 0.5, 1)
        assert calls == [1.0, 0.5]

    def test_rejected_trials_end_the_run_unevaluated(self):
        tried = []

        def inside(x):
            tried.append(x)
            return False

        residual, calls = _counted(lambda x: x)
        x, res, it = newton(residual, lambda x, r: -r, 1.0, 10, inside=inside)
        assert (x, res, it) == (1.0, 1.0, 0)
        assert calls == [1.0]
        assert tried == [1.0 - 2.0**-k for k in range(9)]

    def test_exhausted_budget_returns_budget_minus_one(self):
        x, res, it = newton(lambda x: x, lambda x, r: -0.5 * r, 1.0, 5)
        assert (x, res, it) == (2.0**-5, 2.0**-5, 4)

    def test_line_search_halves_an_overshooting_step(self):
        # lam = 1 lands at -1, no smaller than 1; lam = 1/2 lands on the root
        residual, calls = _counted(lambda x: x)
        x, res, it = newton(residual, lambda x, r: -2.0 * r, 1.0, 10)
        assert (x, res, it) == (0.0, 0.0, 1)
        assert calls == [1.0, -1.0, 0.0]

    def test_residual_is_a_python_float(self):
        _, res, _ = newton(lambda x: np.array([x, 2.0 * x]), lambda x, r: None, 1.0 + 1.0j, 3)
        assert type(res) is float and res == abs(2.0 + 2.0j)
        _, res, _ = newton(lambda x: x, lambda x, r: None, 3.0 + 4.0j, 3)
        assert type(res) is float and res == 5.0


def _outcome(call):
    """The bytes of what a root finder returns, or of the trace rows it raises."""
    try:
        found = call()
    except kl.ConvergenceFailure as err:
        return [(row[0], row[1], float(row[2]).hex()) for row in err.trace]
    if isinstance(found, kl.ThetaDivisorPoint):
        return found.z.tobytes(), float(found.residual).hex()
    return found.tobytes()


class TestRootFindersKeepTheirBits:
    """Each finder gives the bytes of its own pre-util.newton loop (conftest)."""

    @pytest.mark.parametrize("seed", [101, 102, 103, 104, 600, 601, 602, 603])
    def test_divisor_points(self, pm_g2, seed):
        new = _outcome(lambda: kl.find_theta_divisor_point(pm_g2, seed))
        assert new == _outcome(lambda: loop_divisor_point(pm_g2, seed))

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_divisor_failure_trace(self, pm_g2, monkeypatch, max_iter):
        monkeypatch.setattr(scenarios_module, "_DIVISOR_RESTARTS", 3)
        monkeypatch.setattr(scenarios_module, "_DIVISOR_MAX_ITER", max_iter)
        new = _outcome(lambda: kl.find_theta_divisor_point(pm_g2, 31))
        assert new == _outcome(lambda: loop_divisor_point(pm_g2, 31, 3, max_iter))

    def test_divisor_theta_calls(self, pm_g2, monkeypatch):
        # the same theta calls, in the same order, on the same arguments
        log = []
        real = kl.theta

        def recorded(pm, z, deriv=(), eps=kl.DEFAULT_EPS):
            log.append((np.asarray(z).tobytes(), [np.asarray(d).tobytes() for d in deriv], eps))
            return real(pm, z, deriv=deriv, eps=eps)

        monkeypatch.setattr(scenarios_module, "theta", recorded)
        kl.find_theta_divisor_point(pm_g2, 101)
        new, log[:] = log[:], []
        monkeypatch.setattr(kl, "theta", recorded)
        loop_divisor_point(pm_g2, 101)
        assert new == log

    @pytest.mark.parametrize("seed", [1, 2, 5, 9])
    def test_section_intersections(self, pm_g2, tangency, seed):
        offsets = [tangency.u, -tangency.u]
        new = _outcome(lambda: kl.find_section_intersection(pm_g2, offsets, seed))
        assert new == _outcome(lambda: loop_section_intersection(pm_g2, offsets, seed))

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_section_failure_trace(self, pm_g2, tangency, monkeypatch, max_iter):
        monkeypatch.setattr(hierarchy_module, "_INTERSECTION_RESTARTS", 2)
        monkeypatch.setattr(hierarchy_module, "_INTERSECTION_MAX_ITER", max_iter)
        offsets = [tangency.u, -tangency.u]
        new = _outcome(lambda: kl.find_section_intersection(pm_g2, offsets, 9))
        assert new == _outcome(lambda: loop_section_intersection(pm_g2, offsets, 9, 2, max_iter))

    def test_projections(self, pm_g2, divisor_points):
        # the family-persistence steps along the divisor, and the confluent ones
        gen = np.random.default_rng(8)
        za = divisor_points[0].z
        starts = []
        for _ in range(10):
            v = kl.theta_tangent_direction(pm_g2, za)
            step = gen.uniform(0.02, 0.08) * np.exp(2j * np.pi * gen.uniform())
            starts.append(za + step * v)
        zc = divisor_points[2].z
        v = kl.theta_tangent_direction(pm_g2, zc)
        starts += [zc + h * v for h in (1e-4, 5e-5)]
        for z0 in starts:
            new = _outcome(lambda: kl.project_to_divisor(pm_g2, z0))
            assert new == _outcome(lambda: loop_project_to_divisor(pm_g2, z0))
