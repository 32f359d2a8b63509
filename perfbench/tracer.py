"""In-memory span tracer that wraps kummerlab's public functions from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces every
public function of the layer modules (theta, kummer, secant, simplex,
scenarios, hierarchy, cli) with a wrapper that records one span per call:
(id, name, start, end, parent id, task id, attributes).  Every name bound to
an original function is rebound: ``from .theta import theta`` gives kummer,
secant, scenarios, hierarchy and cli references of their own, and the package
attribute ``kummerlab.theta`` is the function, which shadows the submodule,
so modules are looked up with ``importlib.import_module``.

Per-layer metrics are derived from the span list after the timed region.
Self time is a span's duration minus the durations of its direct children;
calls are single-threaded and nested, so children never overlap.
"""

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("theta", "kummer", "secant", "simplex", "scenarios", "hierarchy", "cli")
PACKAGE = "kummerlab"
MB = 1e6  # bytes


def _theta_note(args, kwargs, result):
    deriv = kwargs.get("deriv", args[2] if len(args) > 2 else ())
    return {"g": args[0].g, "deriv": len(deriv)}


def _solve_order_note(args, kwargs, result):
    return {"order": args[1]}


def _search_note(args, kwargs, result):
    info = result.search_info
    return {"iterations": info["iterations"], "converged": bool(info["converged"])}


def _propagation_note(args, kwargs, result):
    return {"lifts": len(result.table), "passed": True}


def _propagation_fail_note(args, kwargs, exc):
    return {"lifts": len(getattr(exc, "table", ())), "passed": False}


def _fay_note(args, kwargs, result):
    return {"lift_pairs": len(result.table)}


def _fay_fail_note(args, kwargs, exc):
    return {"lift_pairs": len(getattr(exc, "table", ()))}


# span name -> attributes taken from the arguments and the return value
_NOTES = {
    "theta.theta": _theta_note,
    "hierarchy.solve_order": _solve_order_note,
    "secant.secant_search": _search_note,
    "secant.propagation_secant_check": _propagation_note,
    "scenarios.fay_configuration": _fay_note,
}
# span name -> attributes taken from the arguments and a raised exception
_FAIL_NOTES = {
    "secant.propagation_secant_check": _propagation_fail_note,
    "scenarios.fay_configuration": _fay_fail_note,
}


# pure coordinate arithmetic called once or more per theta evaluation; a span
# would cost more than the call, so its time stays in the caller's self time
UNTRACED = {"theta.reduce_argument", "theta.lattice_reduce", "theta.torus_distance",
            "hierarchy.weighted_partitions"}


class Tracer:
    """Records spans in memory; one instance per process."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, task, attrs); index == id
        self.task = -1
        self._stack = []
        self._annotations = {}  # span id -> attributes added while the span runs
        self._rebound = []  # (module, attribute, original)
        self._lattice_seen = {}  # id(entry) -> entry, held so ids are never reused

    def annotate(self, **attrs):
        """Attach attributes to the innermost running span."""
        self._annotations.setdefault(self._stack[-1], {}).update(attrs)

    def _wrap(self, name, fn, note=None, fail_note=None):
        spans = self.spans
        stack = self._stack
        annotations = self._annotations
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                attrs = annotations.pop(sid, {})
                if fail_note is not None:
                    attrs.update(fail_note(args, kwargs, exc))
                attrs["raised"] = type(exc).__name__
                spans[sid] = (sid, name, start, end, parent, tracer.task, attrs)
                raise
            end = clock()
            stack.pop()
            attrs = annotations.pop(sid, None) if annotations else None
            if note is not None:
                attrs = note(args, kwargs, result)
            spans[sid] = (sid, name, start, end, parent, tracer.task, attrs)
            return result

        return traced

    def _lattice_note(self, args, kwargs, entry):
        # a build is a call that returns an entry not returned before
        attrs = {"points": len(entry.points)}
        if id(entry) not in self._lattice_seen:
            self._lattice_seen[id(entry)] = entry
            attrs["build"] = True
            attrs["bytes"] = entry.points.nbytes + entry.gauss.nbytes
        return attrs

    def _counting_nelder_mead(self, fn):
        tracer = self

        @functools.wraps(fn)
        def nelder_mead(f, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)

            result = fn(counted, *args, **kwargs)
            tracer.annotate(evals=evals, iterations=result.iterations)
            return result

        return nelder_mead

    def _make_wrapper(self, name, fn):
        if name == "theta.lattice_points":
            return self._wrap(name, fn, note=self._lattice_note)
        if name == "simplex.nelder_mead":
            return self._wrap(name, self._counting_nelder_mead(fn))
        return self._wrap(name, fn, _NOTES.get(name), _FAIL_NOTES.get(name))

    def install(self):
        """Wrap every public function of the layer modules, wherever it is bound."""
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                name = f"{layer}.{attr}"
                if getattr(value, "__module__", None) == module.__name__ and name not in UNTRACED:
                    replacement[id(value)] = self._make_wrapper(name, value)
        names = [PACKAGE] + sorted(m for m in sys.modules if m.startswith(PACKAGE + "."))
        for module in (sys.modules[m] for m in names):
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))
        return self

    def uninstall(self):
        """Put every original function back."""
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)


def read_spans(path, task, id_offset):
    """Spans written by ``Tracer.write`` in another process, re-identified."""
    out = []
    with open(path) as fh:
        for line in fh:
            sid, name, start, end, parent, _, attrs = json.loads(line)
            parent = parent + id_offset if parent >= 0 else -1
            out.append((sid + id_offset, name, start, end, parent, task, attrs))
    return out


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(spans):
    """Per-layer counts and times for one pass over a task list.

    Times ending in ``_s`` are totals over the pass.  A name with no spans
    reads 0.  Ratios come with their base count under a sibling name.
    """
    by_id = {span[0]: span for span in spans}
    child_time = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    for sid, name, start, end, _, _, _ in spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]

    def parent_name(span):
        parent = by_id.get(span[4])
        return parent[1] if parent else None

    def attrs(span):
        return span[6] or {}

    thetas = [s for s in spans if s[1] == "theta.theta"]
    lattice = [s for s in spans if s[1] == "theta.lattice_points"]
    builds = [s for s in lattice if attrs(s).get("build")]
    cold_ids = {s[4] for s in builds}
    theta_parent = Counter(parent_name(s) for s in thetas)

    # the solve_order span above each span; parents always have smaller ids
    order_of = {}
    for span in sorted(spans):
        if span[1] == "hierarchy.solve_order":
            order_of[span[0]] = attrs(span)["order"]
        elif span[4] in order_of:
            order_of[span[0]] = order_of[span[4]]
    order_s = defaultdict(float)
    order_theta = Counter()
    for span in spans:
        if span[1] == "hierarchy.solve_order":
            order_s[attrs(span)["order"]] += span[3] - span[2]
        elif span[1] == "theta.theta" and span[0] in order_of:
            order_theta[order_of[span[0]]] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    searches = [s for s in spans if s[1] == "secant.secant_search"]
    propagations = [s for s in spans if s[1] == "secant.propagation_secant_check"]
    out = {
        "theta.calls": len(thetas),
        "theta.deriv_calls": sum(1 for s in thetas if attrs(s).get("deriv")),
        "theta.self_s": self_s["theta.theta"],
        "theta.lattice.calls": len(lattice),
        "theta.lattice.builds": len(builds),
        "theta.lattice.hit_ratio": ratio(len(lattice) - len(builds), len(lattice)),
        "theta.lattice.build_s": sum(s[3] - s[2] for s in builds),
        "theta.lattice.points_summed": sum(attrs(s)["points"] for s in lattice),
        "theta.lattice.retained_mb": sum(attrs(s)["bytes"] for s in builds) / MB,
    }
    for g in range(1, 6):
        genus = [s for s in thetas if attrs(s).get("g") == g]
        cold = [s[3] - s[2] for s in genus if s[0] in cold_ids]
        warm = [s[3] - s[2] for s in genus if s[0] not in cold_ids]
        out[f"theta.cold_ms.g{g}"] = 1e3 * _median(cold)
        out[f"theta.warm_us.g{g}"] = 1e6 * _median(warm)
    out.update({
        "kummer.values.calls": calls["kummer.second_order_values"],
        "kummer.values.self_s": self_s["kummer.second_order_values"],
        "kummer.deriv.calls": calls["kummer.second_order_derivative"],
        "kummer.deriv.self_s": self_s["kummer.second_order_derivative"],
        "kummer.theta_per_values": ratio(theta_parent["kummer.second_order_values"],
                                         calls["kummer.second_order_values"]),
        "secant.matrix.calls": calls["secant.secant_matrix"],
        "secant.matrix.self_s": self_s["secant.secant_matrix"],
        "secant.residual.calls": calls["secant.secant_residual"],
        "secant.bilinear.self_s": self_s["secant.bilinear_residual"],
        "secant.propagation.calls": len(propagations),
        "secant.propagation.self_s": self_s["secant.propagation_secant_check"],
        "secant.propagation.lifts_tried": sum(attrs(s).get("lifts", 0) for s in propagations),
        "secant.propagation.passed_ratio": ratio(
            sum(1 for s in propagations if attrs(s).get("passed")), len(propagations)),
        "secant.search.calls": len(searches),
        "secant.search.self_s": self_s["secant.secant_search"],
        "secant.search.iterations": sum(attrs(s).get("iterations", 0) for s in searches),
        "secant.search.objective_evals": sum(
            attrs(s).get("evals", 0) for s in spans if s[1] == "simplex.nelder_mead"),
        "secant.search.converged_ratio": ratio(
            sum(1 for s in searches if attrs(s).get("converged")), len(searches)),
        "simplex.nelder_mead.self_s": self_s["simplex.nelder_mead"],
        "scenarios.divisor.calls": calls["scenarios.find_theta_divisor_point"],
        "scenarios.divisor.self_s": self_s["scenarios.find_theta_divisor_point"],
        "scenarios.divisor.theta_per_point": ratio(
            theta_parent["scenarios.find_theta_divisor_point"],
            calls["scenarios.find_theta_divisor_point"]),
        "scenarios.fay.self_s": self_s["scenarios.fay_configuration"],
        "scenarios.fay.lift_pairs_tried": sum(
            attrs(s).get("lift_pairs", 0) for s in spans
            if s[1] == "scenarios.fay_configuration"),
        "scenarios.degenerate.self_s": self_s["scenarios.degenerate_fay_configuration"],
        "scenarios.sample_pm.self_s": self_s["scenarios.sample_genus2_period_matrix"],
        "hierarchy.solve_order.self_s": self_s["hierarchy.solve_order"],
    })
    for s in range(1, 9):
        out[f"hierarchy.order{s}.s"] = order_s[s]
        out[f"hierarchy.order{s}.theta_calls"] = order_theta[s]
    out.update({
        "hierarchy.apply_delta.calls": calls["hierarchy.apply_delta"],
        "hierarchy.apply_delta.self_s": self_s["hierarchy.apply_delta"],
        "hierarchy.order_columns.self_s": self_s["hierarchy.order_columns"],
        "hierarchy.assemble_Q.self_s": self_s["hierarchy.assemble_Q"],
        "hierarchy.premise.self_s": self_s["hierarchy.premise_check"],
        "hierarchy.restriction.self_s": self_s["hierarchy.restriction_identity_check"],
        "hierarchy.section_intersection.self_s": self_s["hierarchy.find_section_intersection"],
    })
    return out
