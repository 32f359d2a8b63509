"""Derivative-free Nelder-Mead minimization over R^n.

Deliberately self-contained: the search must be deterministic given the
starting simplex, and callers need the per-iteration trace for reports.
Standard coefficients (reflect 1, expand 2, contract 1/2, shrink 1/2).
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SimplexResult:
    x: np.ndarray
    fx: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def nelder_mead(f, x0, steps, max_iter=500, tol=1e-9):
    """Minimize f: R^n -> R from x0.

    The initial simplex is x0 and x0 + steps[i] e_i for each coordinate i.
    Terminates when the spread of vertex values drops below
    tol * (1 + |f_best|) or the iteration budget runs out.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    steps = np.asarray(steps, dtype=float)
    verts = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] += steps[i]
        verts.append(v)
    verts = np.array(verts)
    fvals = np.array([f(v) for v in verts])

    trace = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        trace.append((it, float(fvals[0])))
        if fvals[-1] - fvals[0] <= tol * (1.0 + abs(fvals[0])):
            converged = True
            break
        centroid = verts[:-1].mean(axis=0)
        xr = centroid + (centroid - verts[-1])
        fr = f(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - verts[-1])
            fe = f(xe)
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (verts[-1] - centroid)
            fc = f(xc)
            if fc < fvals[-1]:
                verts[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
                    fvals[i] = f(verts[i])
    order = np.argsort(fvals, kind="stable")
    verts, fvals = verts[order], fvals[order]
    return SimplexResult(verts[0], float(fvals[0]), it, converged, trace)
