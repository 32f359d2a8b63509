"""The four workloads: seeded inputs, one task each, and the oracle per task.

Each workload is a tuple of three functions:

- ``make(seed, spec, ctx)`` builds the task inputs from the seed alone;
- ``run(kl, inputs, ctx)`` is one task, timed by the caller; it returns the
  task's numeric outputs;
- ``check(kl, inputs, outputs, tol)`` is the oracle, run outside the timed
  region.  It returns two lists of messages, ``(wrong, unsolved)``.
  ``wrong`` lists outputs that contradict an independent reference or the
  program's own report of them.  ``unsolved`` lists tolerances that a
  truthfully reported result misses, such as a search that stops on a
  residual above the target.

A task that raises ``kummerlab.ToleranceFailure`` (the program reporting a
numerical failure, such as ``HierarchyAbort``) is unsolved; one that raises
anything else is wrong.  Every workload draws its inputs straight from the
seed, with no filtering.  Tolerances live in ``spec.json``.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_SALT = {"theta-genus": 1, "secant-g2": 2, "hierarchy-deep": 3, "cli-pipeline": 4}


def _stream(seed, workload):
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_SALT[workload]]))


def _seeds(gen, count):
    return [int(s) for s in gen.integers(2**31, size=count)]


def _cgauss(gen, g):
    return gen.normal(size=g) + 1j * gen.normal(size=g)


# ---------------------------------------------------------------- theta-genus


def make_theta_genus(seed, spec, ctx):
    """Per task and per genus: a period matrix, reduced points, one derivative.

    Im(tau) has a fixed spectrum, evenly spaced in ``im_spectrum``, under a
    random rotation; the real part and the points are random.  The range is
    that of the period-matrix sampler in tests/conftest.py: it draws
    Y = A A^T + 0.45 I, so no eigenvalue lies below 0.45, and rejects any
    above 2.5.  Points are
    z = a + tau b with a in [-1/2, 1/2)^g and |b| <= 1/4, inside the
    fundamental cell.  With the spectrum fixed and |b| that small, every
    point of a matrix needs the same truncation radius, so each matrix costs
    the same lattice builds (one for the values, one for the derivative)
    over the same box, and the seed changes the inputs but not the work.
    """
    gen = _stream(seed, "theta-genus")
    lo, hi = spec["im_spectrum"]
    tasks = []
    for _ in range(spec["tasks"]):
        per_genus = []
        for g in spec["genera"]:
            q, _ = np.linalg.qr(gen.normal(size=(g, g)))
            y = q @ np.diag(np.linspace(lo, hi, g)) @ q.T
            y = 0.5 * (y + y.T)
            x = gen.uniform(-0.5, 0.5, size=(g, g))
            tau = 0.5 * (x + x.T) + 1j * y
            pts = np.array([gen.uniform(-0.5, 0.5, g) + tau @ _in_ball(gen, g, 0.25)
                            for _ in range(spec["points"] + 1)])
            direction = _cgauss(gen, g)
            per_genus.append({"tau": tau, "points": pts[:-1], "dpoint": pts[-1],
                              "direction": direction / np.linalg.norm(direction)})
        tasks.append(per_genus)
    return tasks


def _in_ball(gen, g, radius):
    u = gen.normal(size=g)
    return radius * gen.uniform() * u / np.linalg.norm(u)


def run_theta_genus(kl, task, ctx):
    out = []
    for item in task:
        pm = kl.make_period_matrix(item["tau"].shape[0], item["tau"])
        values = [kl.theta(pm, z) for z in item["points"]]
        slope = kl.theta(pm, item["dpoint"], deriv=(item["direction"],))
        out.append({"values": np.array(values), "slope": slope})
    return out


def brute_lattice(tau, box):
    """Every integer point of the box |n_i| <= box with its factor exp(i pi n.tau.n)."""
    g = tau.shape[0]
    axis = np.arange(-box, box + 1, dtype=float)
    n = np.array(np.meshgrid(*([axis] * g), indexing="ij")).reshape(g, -1).T
    return n, np.exp(1j * np.pi * ((n @ tau) * n).sum(axis=1))


def brute_theta(lattice, z, direction=None):
    """Unreduced lattice sum over a ``brute_lattice`` box, all in numpy.

    Independent of the engine: no argument reduction, no ellipsoid, no
    radius solve, no cache.
    """
    n, gauss = lattice
    terms = gauss * np.exp(2j * np.pi * (n @ z))
    if direction is not None:
        terms = terms * (2j * np.pi * (n @ direction))
    return complex(terms.sum())


def _oracle_box(tau, tail_exponent):
    # every excluded n has |n_i + b_i| >= box + 1/2 in some coordinate, so its
    # Gaussian factor is below exp(-pi lam_min (box + 1/2)^2) times exp(pi b.Y.b)
    lam_min = float(np.linalg.eigvalsh(tau.imag)[0])
    return int(math.ceil(math.sqrt(tail_exponent / (math.pi * lam_min))))


def check_theta_genus(kl, task, out, tol):
    bad = []
    for item, got in zip(task, out):
        tau = item["tau"]
        g = tau.shape[0]
        lattice = brute_lattice(tau, _oracle_box(tau, tol["oracle_tail_exponent"]))
        for k, z in enumerate(item["points"]):
            ref = brute_theta(lattice, z)
            err = abs(got["values"][k] - ref) / max(1.0, abs(ref))
            if not err <= tol["value"]:
                bad.append(f"g={g} point {k}: |theta - brute| = {err:.2e} > {tol['value']:.0e}")
        ref = brute_theta(lattice, item["dpoint"], item["direction"])
        err = abs(got["slope"] - ref) / max(1.0, abs(ref))
        if not err <= tol["deriv"]:
            bad.append(f"g={g} derivative: |dtheta - brute| = {err:.2e} > {tol['deriv']:.0e}")
    return bad, []


# ------------------------------------------------------------------ secant-g2


def make_secant_g2(seed, spec, ctx):
    gen = _stream(seed, "secant-g2")
    tasks = []
    for _ in range(spec["tasks"]):
        pm_seed, bilinear_seed, search_seed, *divisor = _seeds(gen, 9)
        tasks.append({
            "pm_seed": pm_seed,
            "divisor_seeds": divisor[:4],
            "family_seeds": divisor[4:],
            "bilinear_seed": bilinear_seed,
            "search_seed": search_seed,
            "perturbation": spec["perturbation"] * _cgauss(gen, 2),
        })
    return tasks


def run_secant_g2(kl, task, ctx):
    """Trisecant from four divisor points, verified, propagated and re-found.

    The family member (zeta, zeta') is built as in acceptance criterion 04:
    zeta = (t1 - z_a)/2 and zeta' = (t2 - z_a)/2 for two further divisor points.
    """
    pm = kl.sample_genus2_period_matrix(task["pm_seed"])
    pts = [kl.find_theta_divisor_point(pm, s) for s in task["divisor_seeds"]]
    fay = kl.fay_configuration(pm, pts)
    alpha = kl.secant_coefficients(fay.config)
    bilinear = kl.bilinear_residual(fay.config, alpha, 50, task["bilinear_seed"])
    t1, t2 = (kl.find_theta_divisor_point(pm, s) for s in task["family_seeds"])
    zeta = 0.5 * (t1.z - pts[0].z)
    member = kl.SecantConfiguration(pm, 1, fay.config.points, zeta)
    member_residual = kl.secant_residual(member)
    check = kl.propagation_secant_check(member, 0.5 * (t2.z - pts[0].z))
    found = kl.secant_search(pm, 1, fay.config.points, zeta + task["perturbation"],
                             kl.SearchOptions(seed=task["search_seed"]))
    return {
        "pm_seed": task["pm_seed"],
        "points": np.array(fay.config.points),
        "fay_residual": fay.residual,
        "alpha": alpha,
        "bilinear": bilinear,
        "member_residual": member_residual,
        "best_lift": np.array(check.best_lift),
        "best_residual": check.best_residual,
        "lift_table": np.array([r for _, r in check.table]),
        "search_zeta": found.zeta,
        "search_residual": found.residual,
        "search_iterations": found.search_info["iterations"],
    }


def check_secant_g2(kl, task, out, tol):
    wrong, unsolved = [], []
    table = out["lift_table"]
    if table.size != 16 or out["best_residual"] != table.min():
        wrong.append("propagation hit is not the minimum of its 16-row lift table")
    pm = kl.sample_genus2_period_matrix(out["pm_seed"])
    again = kl.secant_residual(kl.SecantConfiguration(pm, 1, list(out["points"]),
                                                      out["search_zeta"]))
    if again != out["search_residual"]:
        wrong.append(f"secant_search reports residual {out['search_residual']:.6e}, "
                     f"its zeta gives {again:.6e}")
    for key, limit in (("fay_residual", tol["secant"]), ("bilinear", tol["bilinear"]),
                       ("member_residual", tol["secant"]),
                       ("best_residual", tol["propagation"]),
                       ("search_residual", tol["search"])):
        if not out[key] <= limit:
            unsolved.append(f"{key} {out[key]:.2e} > {limit:.0e}")
    return wrong, unsolved


# ------------------------------------------------------------- hierarchy-deep


def make_hierarchy_deep(seed, spec, ctx):
    gen = _stream(seed, "hierarchy-deep")
    tasks = []
    for _ in range(spec["tasks"]):
        pm_seed, sample_seed, *rest = _seeds(gen, 7)
        tasks.append({"pm_seed": pm_seed, "divisor_seeds": rest[:3],
                      "sample_seed": sample_seed, "g_seeds": rest[3:]})
    return tasks


HIERARCHY_ORDER = 8  # order 12 is left out: over 10 s per run_hierarchy call today
HIERARCHY_SAMPLES = 16
RESTRICTION_ORDERS = 4
ABORT_TOL = 1e-4  # run_hierarchy's default abort_tol


def run_hierarchy_deep(kl, task, ctx):
    """Tangency datum, premise check, the hierarchy to order 8, restriction identities."""
    order = HIERARCHY_ORDER
    pm = kl.sample_genus2_period_matrix(task["pm_seed"])
    pts = [kl.find_theta_divisor_point(pm, s) for s in task["divisor_seeds"]]
    datum = kl.degenerate_fay_configuration(pm, pts)
    premise = kl.premise_check(pm, 1, datum.u, [datum.b], direction=datum.direction)
    state = kl.make_state(pm, 1, datum.u, [datum.b], order=order, w1=datum.direction)
    samples = kl.default_samples(pm, HIERARCHY_SAMPLES, seed=task["sample_seed"])
    kl.run_hierarchy(state, order, samples)
    g_points = [kl.find_section_intersection(pm, [state.u, -state.u], seed=s)
                for s in task["g_seeds"]]
    defects = [kl.restriction_identity_check(state, s, g_points)
               for s in range(1, RESTRICTION_ORDERS + 1)]
    return {
        "tangency": datum.residual,
        "premise": premise.tangency_residual,
        "premise_passed": premise.passed,
        "W": state.W,
        "alpha1": state.alpha1,
        "residuals": np.array(state.residuals),
        "g_points": np.array(g_points),
        "defects": np.array(defects),
    }


def check_hierarchy_deep(kl, task, out, tol):
    # run_hierarchy raises HierarchyAbort on the first residual above its
    # abort_tol, so every residual it kept must lie below that
    residuals = out["residuals"]
    wrong = [] if len(residuals) == HIERARCHY_ORDER and np.all(residuals <= ABORT_TOL) else [
        f"run_hierarchy returned residuals {residuals.tolist()}"]
    unsolved = [] if out["premise_passed"] else [f"premise check failed ({out['premise']:.2e})"]
    for s, r in enumerate(residuals, start=1):
        if not r <= tol["order_residual"]:
            unsolved.append(f"order {s} residual {r:.2e} > {tol['order_residual']:.0e}")
    for s, d in enumerate(out["defects"], start=1):
        if not d <= tol["restriction"]:
            unsolved.append(f"restriction order {s} defect {d:.2e} > {tol['restriction']:.0e}")
    return wrong, unsolved


# --------------------------------------------------------------- cli-pipeline

CLI_STEPS = ("scenario-fay", "secant-check", "secant-search", "scenario-degenerate",
             "premise-check", "hierarchy-run", "theta", "kummer")


def _dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def make_cli_pipeline(seed, spec, ctx):
    """The README walkthrough inputs, tau.json and z.json, written to a task directory each."""
    gen = _stream(seed, "cli-pipeline")
    tasks = []
    for slot in range(spec["tasks"]):
        pm_seed, fay_seed, degenerate_seed, search_seed = _seeds(gen, 4)
        pm = ctx.kl.sample_genus2_period_matrix(pm_seed)
        work = os.path.join(ctx.work_dir, f"task{slot}")
        os.makedirs(work)
        _dump(os.path.join(work, "tau.json"),
              {"g": 2, "tau_re": pm.re.tolist(), "tau_im": pm.im.tolist()})
        z = gen.uniform(-0.5, 0.5, 2) + 1j * gen.uniform(-0.3, 0.3, 2)
        _dump(os.path.join(work, "z.json"), {"re": z.real.tolist(), "im": z.imag.tolist()})
        tasks.append({"dir": work, "fay_seed": fay_seed, "degenerate_seed": degenerate_seed,
                      "search_seed": search_seed, "shift": spec["perturbation"] * _cgauss(gen, 2)})
    return tasks


def _cli_argv(task):
    common = ["--tau", "tau.json"]
    return {
        "scenario-fay": common + ["--seed", str(task["fay_seed"]), "--output", "fay.json"],
        "secant-check": common + ["--input", "fay.json", "--output", "check.json"],
        "secant-search": common + ["--input", "search.json", "--seed", str(task["search_seed"]),
                                   "--output", "search_out.json"],
        "scenario-degenerate": common + ["--seed", str(task["degenerate_seed"]),
                                         "--output", "seed.json"],
        "premise-check": common + ["--input", "seed.json", "--output", "premise.json"],
        "hierarchy-run": common + ["--input", "seed.json", "--order", "4",
                                   "--output", "run.json"],
        "theta": common + ["--input", "z.json", "--output", "theta_out.json"],
        "kummer": common + ["--input", "z.json", "--output", "kummer_out.json"],
    }


def _search_input(work, shift):
    # the verified trisecant with its offset moved off the secant: the search
    # has to find its way back
    with open(os.path.join(work, "fay.json")) as fh:
        cfg = json.load(fh)
    zeta = np.array(cfg["zeta"]["re"]) + 1j * np.array(cfg["zeta"]["im"]) + shift
    cfg.update(zeta={"re": zeta.real.tolist(), "im": zeta.imag.tolist()},
               residual=None, alpha=None)
    _dump(os.path.join(work, "search.json"), cfg)


# a step runs only if the report it reads was written by an earlier step
CLI_NEEDS = {"secant-check": "fay.json", "secant-search": "fay.json",
             "premise-check": "seed.json", "hierarchy-run": "seed.json"}
# the cli's exit codes: 0 done, 2 a tolerance failure with the report written
CLI_UNSOLVED = 2


def run_cli_pipeline(kl, task, ctx):
    """Each subcommand in its own process, as a user would type it."""
    work = task["dir"]
    argv = _cli_argv(task)
    codes = {}
    for step in CLI_STEPS:
        if not os.path.exists(os.path.join(work, CLI_NEEDS.get(step, "tau.json"))):
            codes[step] = None
            continue
        if step == "secant-search":
            _search_input(work, task["shift"])
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "kummerlab", step] + argv[step]
        else:
            cmd = [sys.executable, os.path.join(HERE, "clitrace.py"),
                   f"{step}.spans", f"{step}.import"] + [step] + argv[step]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.DEVNULL, timeout=120)
        ctx.cli_seconds[step] = ctx.cli_seconds.get(step, 0.0) + time.perf_counter() - start
        codes[step] = proc.returncode
        if proc.returncode != 0:
            ctx.cli_nonzero += 1
        if ctx.tracer is not None:
            ctx.absorb_child(os.path.join(work, f"{step}.spans"),
                             os.path.join(work, f"{step}.import"))
    reports = {}
    for name in sorted(os.listdir(work)):
        if name.endswith((".json", ".csv")) and name not in ("tau.json", "z.json"):
            with open(os.path.join(work, name), "rb") as fh:
                reports[name] = fh.read()
    return {"codes": codes, "reports": reports}


def check_cli_pipeline(kl, task, out, tol):
    codes = out["codes"]
    wrong = [f"{step} exited {code}" for step, code in codes.items()
             if code not in (0, CLI_UNSOLVED, None)]
    unsolved = [f"{step} exited {code}" for step, code in codes.items() if code == CLI_UNSOLVED]
    unsolved += [f"{step} skipped: no {CLI_NEEDS[step]}" for step, code in codes.items()
                 if code is None]
    reports = {k: json.loads(v) for k, v in out["reports"].items() if k.endswith(".json")}
    if codes["secant-check"] == 0:
        check = reports["check.json"]
        if not check["residual"] <= tol["secant"]:
            unsolved.append(f"secant-check residual {check['residual']:.2e}")
        if check["alpha"] is None:
            unsolved.append("secant-check wrote no coefficients")
    if codes["secant-search"] == 0:
        search = reports["search_out.json"]
        if not search["residual"] <= tol["secant"]:
            unsolved.append(f"secant-search residual {search['residual']:.2e}")
    if codes["premise-check"] == 0 and not reports["premise.json"]["passed"]:
        wrong.append("premise-check exited 0 but did not pass")
    if codes["hierarchy-run"] == 0:
        run = reports["run.json"]
        if run["solved_through"] != 4:
            wrong.append(f"hierarchy-run exited 0 but solved through {run['solved_through']}")
        elif not max(run["residuals"]) <= tol["order_residual"]:
            unsolved.append(f"hierarchy-run residuals {run['residuals']}")
    if codes["theta"] == 0:
        value = reports["theta_out.json"]["value"]
        if not (math.isfinite(value["re"]) and math.isfinite(value["im"])):
            wrong.append("theta value not finite")
    if codes["kummer"] == 0:
        coords = np.array(reports["kummer_out.json"]["coords_re"]) + 1j * np.array(
            reports["kummer_out.json"]["coords_im"])
        if not (np.all(np.isfinite(coords)) and abs(np.abs(coords).max() - 1.0) <= 1e-15):
            wrong.append("kummer point is not normalized")
    return wrong, unsolved


WORKLOADS = {
    "theta-genus": (make_theta_genus, run_theta_genus, check_theta_genus),
    "secant-g2": (make_secant_g2, run_secant_g2, check_secant_g2),
    "hierarchy-deep": (make_hierarchy_deep, run_hierarchy_deep, check_hierarchy_deep),
    "cli-pipeline": (make_cli_pipeline, run_cli_pipeline, check_cli_pipeline),
}
