"""Command-line entry point.

One executable with subcommands; every numeric report is JSON (plus CSV
residual tables next to the JSON output where applicable).  ``main`` loads
--tau and --input, runs the handler and writes the report it returns.
Exit codes: 0 success, 1 input error (bad file, bad schema, bad flag value,
unknown or unread flag), 2 numerical tolerance failure.  A check that misses
its tolerance still writes its report.  A raised tolerance failure prints
``tolerance failure: <message>`` on stderr; when it is a failed lift search
(scenario-fay, scenario-degenerate, secant-propagate) the report is
{"passed": false, "message"} with the whole lift-residual table as CSV.
"""

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import jsonio
from .errors import HierarchyAbort, ToleranceFailure, ValidationError
from .hierarchy import default_samples, make_state, premise_check, run_hierarchy
from .kummer import kummer
from .scenarios import (
    degenerate_fay_configuration,
    fay_configuration,
    find_theta_divisor_point,
)
from .secant import (
    SECANT_TOL,
    SearchOptions,
    involution_identity,
    propagation_secant_check,
    secant_coefficients,
    secant_residual,
    secant_search,
)
from .theta import DEFAULT_EPS, theta
from .util import rng


def _divisor_seeds(seed, count):
    gen = rng(seed, 0xCE)
    return [int(s) for s in gen.integers(2**62, size=count)]


def _write(args, payload, csv_text=None):
    if args.output:
        with open(args.output, "w") as fh:
            jsonio.dump(payload, fh)
        if csv_text is not None:
            with open(args.output + ".csv", "w") as fh:
                fh.write(csv_text)
    else:
        jsonio.dump(payload, sys.stdout)
        if csv_text is not None:
            sys.stdout.write(csv_text)


# each handler takes the parsed flags, the period matrix and the --input JSON
# (None where the subcommand reads none) and returns (payload, code[, csv text])
def cmd_theta(args, pm, obj):
    z = jsonio.point_from_json(obj, pm.g, args.input, "z")
    value = theta(pm, z, eps=args.eps)
    return {"value": jsonio.scalar_to_json(value), "eps": args.eps}, 0


def cmd_kummer(args, pm, obj):
    z = jsonio.point_from_json(obj, pm.g, args.input, "z")
    pt = kummer(pm, z, eps=args.eps)
    return jsonio.projective_point_to_json(pt), 0


def cmd_secant_check(args, pm, obj):
    cfg = jsonio.config_from_json(obj, pm, args.input)
    residual = secant_residual(cfg, eps=args.eps)
    if residual > args.tol:
        return jsonio.config_to_json(cfg, residual), 2
    try:
        alpha = secant_coefficients(cfg, eps=args.eps, tol=args.tol)
    except ToleranceFailure:
        alpha = None
    return jsonio.config_to_json(cfg, residual, alpha), 0


def cmd_secant_search(args, pm, obj):
    cfg = jsonio.config_from_json(obj, pm, args.input)
    opts = SearchOptions(seed=args.seed, eps=args.eps)
    result = secant_search(pm, cfg.m, cfg.points, cfg.zeta, opts)
    payload = jsonio.config_to_json(replace(cfg, zeta=result.zeta), result.residual)
    payload["search"] = {
        "iterations": result.search_info["iterations"],
        "converged": result.search_info["converged"],
    }
    # a search that never left the collision plateau can return a trivial
    # zero with a tiny residual; only a converged search counts
    return payload, 0 if result.search_info["converged"] and result.residual <= args.tol else 2


def cmd_secant_propagate(args, pm, obj):
    cfg = jsonio.config_from_json(obj.get("config", obj), pm, args.input)
    zeta_prime = jsonio._point(obj, "zeta_prime", pm.g, args.input)
    check = propagation_secant_check(cfg, zeta_prime, eps=args.eps, tol=args.tol)
    payload = {
        "passed": True,
        "best_lift": jsonio.bits_to_str(check.best_lift),
        "best_residual": check.best_residual,
    }
    return payload, 0, jsonio.residual_table_csv(check.table)


def cmd_involution(args, pm, obj):
    pts = jsonio._points(obj, "points", pm.g, args.input)
    zeta_prime = jsonio._point(obj, "zeta_prime", pm.g, args.input)
    if args.lift is not None:
        lift = jsonio.str_to_bits(args.lift, 2 * pm.g)
    elif "lift" in obj:
        lift = obj["lift"]
    else:
        lift = np.zeros(2 * pm.g, dtype=np.int64)
    residual = involution_identity(pm, pts, zeta_prime, lift)
    return {"residual": residual}, 0 if residual <= args.tol else 2


def cmd_hierarchy_run(args, pm, obj):
    m, u, b, w1 = jsonio.hierarchy_seed_from_json(obj, pm, args.input)
    state = make_state(pm, m, u, b, order=args.order, w1=w1)
    samples = default_samples(pm, args.samples, args.seed)
    code = 0
    try:
        run_hierarchy(state, args.order, samples, eps=args.eps)
    except HierarchyAbort:
        code = 2
    return jsonio.hierarchy_state_to_json(state), code, jsonio.hierarchy_csv(state)


def cmd_premise_check(args, pm, obj):
    m, u, b, w1 = jsonio.hierarchy_seed_from_json(obj, pm, args.input)
    report = premise_check(pm, m, u, b, eps=args.eps, direction=w1)
    payload = {
        "tangency_residual": report.tangency_residual,
        "shifted_residuals": report.shifted_residuals,
        "passed": report.passed,
    }
    return payload, 0 if report.passed else 2


def cmd_scenario_fay(args, pm, obj):
    pts = [find_theta_divisor_point(pm, s) for s in _divisor_seeds(args.seed, 4)]
    result = fay_configuration(pm, pts, eps=args.eps)
    return jsonio.config_to_json(result.config, result.residual), 0


def cmd_scenario_degenerate(args, pm, obj):
    pts = [find_theta_divisor_point(pm, s) for s in _divisor_seeds(args.seed, 3)]
    datum = degenerate_fay_configuration(pm, pts, eps=args.eps)
    payload = jsonio.hierarchy_seed_to_json(
        1, datum.u, [datum.b], datum.direction, extra={"tangency_residual": datum.residual}
    )
    return payload, 0


# each flag is defined once; a subcommand is given only the flags its handler reads
_FLAGS = {
    "tau": dict(metavar="PATH", required=True, help="period matrix JSON file"),
    "input": dict(metavar="PATH", required=True, help="operation input JSON file"),
    "eps": dict(type=float, default=DEFAULT_EPS, help="evaluation accuracy"),
    "tol": dict(type=float, default=SECANT_TOL, help="acceptance tolerance"),
    "seed": dict(type=int, default=0, help="seed for all randomness"),
    "samples": dict(type=int, default=64, help="sample count for the least-squares solves"),
    "order": dict(type=int, default=4, help="hierarchy truncation order"),
    "lift": dict(metavar="BITS", help="half-period lift as 2g bits"),
    "output": dict(metavar="PATH", help="write JSON here (default stdout)"),
}

_COMMANDS = {
    "theta": (cmd_theta, "tau input eps output"),
    "kummer": (cmd_kummer, "tau input eps output"),
    "secant-check": (cmd_secant_check, "tau input eps tol output"),
    "secant-search": (cmd_secant_search, "tau input eps tol seed output"),
    "secant-propagate": (cmd_secant_propagate, "tau input eps tol output"),
    "involution": (cmd_involution, "tau input tol lift output"),
    "hierarchy-run": (cmd_hierarchy_run, "tau input eps seed samples order output"),
    "premise-check": (cmd_premise_check, "tau input eps output"),
    "scenario-fay": (cmd_scenario_fay, "tau eps seed output"),
    "scenario-degenerate": (cmd_scenario_degenerate, "tau eps seed output"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error; subparsers are built from this class too
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="kummerlab",
        description="Theta functions, Kummer secant planes, and the elimination hierarchy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} operation")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = vars(args)
    floor = flags.get("eps", 0.0)
    try:
        # the one flag check no library call makes: eps itself is checked by theta
        if "tol" in flags and not floor < args.tol < math.inf:
            raise ValidationError(f"--tol must be finite and above {floor}, got {args.tol}")
        pm = jsonio.load_period_matrix(args.tau)
        obj = jsonio.load_json(args.input) if "input" in flags else None
        try:
            payload, code, *csv_text = _COMMANDS[args.command][0](args, pm, obj)
        except ToleranceFailure as exc:
            table = getattr(exc, "table", None)
            if table is not None:
                # a failed lift search still writes a report and its whole table
                report = {"passed": False, "message": str(exc)}
                _write(args, report, jsonio.residual_table_csv(table))
            raise
        _write(args, payload, *csv_text)
        return code
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
