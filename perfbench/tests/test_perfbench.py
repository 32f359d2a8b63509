"""Tests of the benchmark itself: interception, pinned call counts, digests."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import kummerlab as kl  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BOUND_NAMES = ("kummer", "secant", "scenarios", "hierarchy", "cli")


@pytest.fixture
def tracer():
    t = Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def _theta_module():
    return importlib.import_module("kummerlab.theta")


def _spec(workload):
    return json.loads(Path(run.SPEC_PATH).read_text())["workloads"][workload]


def _first_task(workload):
    make = workloads.WORKLOADS[workload][0]
    return make(1, dict(_spec(workload), tasks=1), None)[0]


def _theta_calls(t):
    return sum(1 for span in t.spans if span[1] == "theta.theta")


def test_every_bound_name_is_wrapped_and_restored():
    original = _theta_module().theta
    assert kl.theta is original  # the package attribute is the function
    t = Tracer().install()
    try:
        wrapped = _theta_module().theta
        assert wrapped is not original
        assert kl.theta is wrapped
        for name in BOUND_NAMES:
            assert importlib.import_module(f"kummerlab.{name}").theta is wrapped, name
        kl.theta(kl.make_period_matrix(1, [[1j]]), [0.1])
        assert _theta_calls(t) == 1
    finally:
        t.uninstall()
    assert kl.theta is original
    for name in BOUND_NAMES:
        assert importlib.import_module(f"kummerlab.{name}").theta is original


def test_fay_configuration_makes_144_theta_calls(tracer):
    pm = kl.sample_genus2_period_matrix(7)
    points = [kl.find_theta_divisor_point(pm, s) for s in (101, 102, 103, 104)]
    start = len(tracer.spans)
    kl.fay_configuration(pm, points)
    assert sum(1 for span in tracer.spans[start:] if span[1] == "theta.theta") == 144


@pytest.mark.parametrize("order, calls", [(4, 2_400), (8, 17_856)])
def test_run_hierarchy_theta_calls_on_16_samples(tracer, order, calls):
    # the tangency datum of acceptance criterion 07, which solves to order 8
    pm = kl.sample_genus2_period_matrix(13)
    points = [kl.find_theta_divisor_point(pm, 600 + i) for i in range(3)]
    datum = kl.degenerate_fay_configuration(pm, points)
    state = kl.make_state(pm, 1, datum.u, [datum.b], order=order, w1=datum.direction)
    samples = kl.default_samples(pm, 16, seed=2)
    start = len(tracer.spans)
    kl.run_hierarchy(state, order, samples)
    assert sum(1 for span in tracer.spans[start:] if span[1] == "theta.theta") == calls
    per_order = layer_metrics(tracer.spans[start:])
    assert sum(per_order[f"hierarchy.order{s}.theta_calls"] for s in range(1, order + 1)) == calls


def test_traced_and_untraced_outputs_have_one_digest():
    task = _first_task("secant-g2")
    digests = []
    for traced in (False, True, False):
        t = Tracer().install() if traced else None
        try:
            out = workloads.run_secant_g2(kl, task, None)
        finally:
            if t is not None:
                t.uninstall()
        h = worker.hashlib.sha256()
        worker._feed(h, out)
        digests.append(h.hexdigest())
        if t is not None:
            metrics = layer_metrics(t.spans)
            assert metrics["secant.propagation.lifts_tried"] == 16
            assert metrics["scenarios.fay.lift_pairs_tried"] == 256
            assert metrics["kummer.theta_per_values"] == 4.0
            assert metrics["secant.search.objective_evals"] > metrics["secant.search.iterations"]
    assert len(set(digests)) == 1


def test_self_time_subtracts_direct_children():
    spans = [
        (0, "secant.secant_matrix", 0.0, 10.0, -1, 0, None),
        (1, "kummer.second_order_values", 1.0, 5.0, 0, 0, None),
        (2, "theta.theta", 1.5, 2.5, 1, 0, {"g": 2, "deriv": 0}),
        (3, "theta.lattice_points", 1.6, 2.0, 2, 0, {"points": 9, "build": True, "bytes": 10**6}),
        (4, "theta.theta", 6.0, 7.0, 0, 0, {"g": 2, "deriv": 1}),
        (5, "theta.lattice_points", 6.1, 6.2, 4, 0, {"points": 9}),
    ]
    m = layer_metrics(spans)
    assert m["secant.matrix.self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert m["kummer.values.self_s"] == pytest.approx(4.0 - 1.0)
    assert m["theta.self_s"] == pytest.approx((1.0 - 0.4) + (1.0 - 0.1))
    assert m["theta.calls"] == 2 and m["theta.deriv_calls"] == 1
    assert m["theta.lattice.builds"] == 1 and m["theta.lattice.hit_ratio"] == 0.5
    assert m["theta.lattice.points_summed"] == 18
    assert m["theta.lattice.retained_mb"] == 1.0
    assert m["theta.cold_ms.g2"] == pytest.approx(1e3)
    assert m["theta.warm_us.g2"] == pytest.approx(1e6)
    assert m["kummer.theta_per_values"] == 1.0


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(48))
    assert run.tail(values) == (37, pytest.approx(100 * 38 / 48))
    assert run.tail(values[:12]) == (11, 100.0)
    assert run.tail(values[:21]) == (20, 100.0)  # p52 would sit on the median


def test_brute_force_oracle_matches_a_closed_form():
    # genus 1 at tau = i: theta(0) = pi^(1/4) / Gamma(3/4)
    lattice = workloads.brute_lattice(np.array([[1j]]), 8)
    exact = np.pi**0.25 / 1.2254167024651776
    assert workloads.brute_theta(lattice, np.zeros(1)) == pytest.approx(exact, abs=1e-15)


def test_run_refuses_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "secant-g2", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_each_task_scales_by_the_median_kernel_timing_around_it():
    # one kernel timing per gap: task 0 between 2 ms and 4 ms, task 1 between 4 ms and 9 ms
    result = {"task_s": [1.0, 0.5], "reference_s": [2e-3, 4e-3, 9e-3],
              "reference_repeats": 1}
    run.scale_to_reference(result, 2e-3)
    assert result["task_ms"] == pytest.approx([1e3 * 2 / 3, 1e3 * 0.5 * 4 / 13])
    assert result["wall_s"] == pytest.approx(2 / 3 + 0.5 * 4 / 13)
    assert result["raw_wall_s"] == 1.5
    # two per gap: a single slow timing (9 ms) moves the median of four little
    result = {"task_s": [1.0], "reference_s": [2e-3, 2e-3, 2e-3, 9e-3],
              "reference_repeats": 2}
    run.scale_to_reference(result, 2e-3)
    assert result["task_ms"] == pytest.approx([1e3])


def test_a_reported_tolerance_failure_is_unsolved_and_a_crash_is_wrong():
    def check(kl_, task, out, tol):
        return [], ["residual 1e-3 > 1e-7"]

    abort = kl.HierarchyAbort("elimination stalled at order 7", order=7, residual=3e-4)
    assert worker._judge(check, None, None, abort, {}) == ([], [f"HierarchyAbort: {abort}"])
    assert worker._judge(check, None, None, KeyError("x"), {}) == (["KeyError: 'x'"], [])
    assert worker._judge(check, None, {}, None, {}) == ([], ["residual 1e-3 > 1e-7"])


def test_hierarchy_oracle_separates_missed_tolerances_from_contradictions():
    tol = _spec("hierarchy-deep")["tolerances"]
    out = {"premise_passed": True, "premise": 1e-9, "defects": np.zeros(4),
           "residuals": np.array([1e-12] * 6 + [2e-7, 5e-6])}
    wrong, unsolved = workloads.check_hierarchy_deep(kl, None, out, tol)
    assert wrong == [] and len(unsolved) == 2
    out["residuals"][-1] = 1e-3  # above run_hierarchy's abort_tol, yet not aborted
    assert workloads.check_hierarchy_deep(kl, None, out, tol)[0]
