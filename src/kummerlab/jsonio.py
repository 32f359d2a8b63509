"""JSON and CSV wire formats.

Schemas (all numbers IEEE doubles):
  period matrix   {"g": int, "tau_re": [[...]], "tau_im": [[...]]}
  complex point   {"re": [...], "im": [...]}
  complex scalar  {"re": x, "im": y}
  projective pt   {"coords_re": [...], "coords_im": [...]}
  secant config   {"m": int, "points": [point...], "zeta": point}; a report
                  adds "residual": number|null and "alpha": point|null,
                  which the reader ignores like any other unread key
  propagation     {"config": secant config, "zeta_prime": point}
  involution      {"points": [4 points], "zeta_prime": point, "lift": [2g bits]},
                  the lift all zeros when absent
  hierarchy seed  {"m": int, "u": point, "b": [point...], "W1": point|null}
  hierarchy run   the seed's "m", "u", "b" with "order", "solved_through"
                  (the number of solved orders), "W", "alpha1", "alphaj"
                  and "residuals", one per solved order
Every input file holds one JSON object; a string ("0.5" too) or a bool where
numbers belong is an input error.  CSV residual tables use a comma separator,
'.' decimal point, header row; lift columns are bit strings, and a lift pair
(the Fay trisecant's second and third point) prints as bits|bits.  A
hierarchy run's table is order,residual, one row per solved order.
"""

import json

import numpy as np

from .errors import ValidationError
from .kummer import ProjectivePoint
from .secant import SecantConfiguration
from .theta import make_period_matrix
from .util import as_array, as_int


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{path}: file not found")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}")
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj, name, path):
    if not isinstance(obj, dict) or name not in obj:
        raise ValidationError(f"{path}: missing field '{name}'")
    return obj[name]


def _int(obj, name, path):
    return as_int(_field(obj, name, path), f"{path}: field '{name}'")


def _point(obj, name, g, path):
    """The complex point in field ``name``, or ValidationError naming it."""
    return point_from_json(_field(obj, name, path), g, path, name)


def _points(obj, name, g, path):
    """The list of complex points in field ``name``, or ValidationError naming it."""
    value = _field(obj, name, path)
    if not isinstance(value, list):
        raise ValidationError(f"{path}: field '{name}' must be a list of points")
    return [point_from_json(p, g, path, f"{name}[{i}]") for i, p in enumerate(value)]


def _floats(obj, name, path):
    """The real array in field ``name``, or ValidationError naming it."""
    value = as_array(_field(obj, name, path), f"{path}: field '{name}' must hold numbers")
    if value.imag.any():
        raise ValidationError(f"{path}: field '{name}' must hold real numbers")
    return value.real


def period_matrix_from_json(obj, path="<input>"):
    g = _int(obj, "g", path)
    re = _floats(obj, "tau_re", path)
    im = _floats(obj, "tau_im", path)
    if re.shape != (g, g) or im.shape != (g, g):
        raise ValidationError(f"{path}: tau_re/tau_im must be {g}x{g}")
    return make_period_matrix(g, re + 1j * im)


def period_matrix_to_json(pm):
    return {"g": pm.g, "tau_re": pm.re.tolist(), "tau_im": pm.im.tolist()}


def load_period_matrix(path):
    return period_matrix_from_json(load_json(path), path=path)


def point_from_json(obj, g, path="<input>", name="point"):
    re = _floats(obj, "re", f"{path}:{name}")
    im = _floats(obj, "im", f"{path}:{name}")
    if re.shape != (g,) or im.shape != (g,):
        raise ValidationError(f"{path}: {name} must have length {g}")
    return re + 1j * im


def point_to_json(vec):
    vec = np.asarray(vec, dtype=complex)
    return {"re": vec.real.tolist(), "im": vec.imag.tolist()}


def scalar_to_json(value):
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def projective_point_to_json(pt: ProjectivePoint):
    return {"coords_re": pt.coords.real.tolist(), "coords_im": pt.coords.imag.tolist()}


def config_from_json(obj, pm, path="<input>"):
    m = _int(obj, "m", path)
    points = _points(obj, "points", pm.g, path)
    zeta = _point(obj, "zeta", pm.g, path)
    return SecantConfiguration(pm, m, points, zeta)


def config_to_json(cfg: SecantConfiguration, residual=None, alpha=None):
    """A configuration as JSON, with the residual and coefficients a caller computed for it."""
    return {
        "m": cfg.m,
        "points": [point_to_json(p) for p in cfg.points],
        "zeta": point_to_json(cfg.zeta),
        "residual": residual,
        "alpha": point_to_json(alpha) if alpha is not None else None,
    }


def hierarchy_seed_from_json(obj, pm, path="<input>"):
    m = _int(obj, "m", path)
    u = _point(obj, "u", pm.g, path)
    b = _points(obj, "b", pm.g, path)
    w1 = obj.get("W1")
    if w1 is not None:
        w1 = point_from_json(w1, pm.g, path, "W1")
    return m, u, b, w1


def hierarchy_seed_to_json(m, u, b_list, w1, extra=None):
    out = {
        "m": m,
        "u": point_to_json(u),
        "b": [point_to_json(p) for p in b_list],
        "W1": point_to_json(w1) if w1 is not None else None,
    }
    if extra:
        out.update(extra)
    return out


def hierarchy_state_to_json(state):
    return {
        "m": state.m,
        "u": point_to_json(state.u),
        "b": [point_to_json(p) for p in state.b],
        "order": state.order,
        "solved_through": len(state.residuals),
        "W": [point_to_json(w) for w in state.W],
        "alpha1": point_to_json(state.alpha1),
        "alphaj": [point_to_json(row) for row in state.alphaj],
        "residuals": list(state.residuals),
    }


def bits_to_str(bits):
    return "".join(str(int(b)) for b in bits)


def residual_table_csv(table):
    """A lift-residual table as CSV; a lift pair's label prints as bits|bits."""
    lines = ["lift,residual"]
    for lift, residual in table:
        pair = isinstance(lift[0], tuple)
        label = "|".join(map(bits_to_str, lift)) if pair else bits_to_str(lift)
        lines.append(f"{label},{residual!r}")
    return "\n".join(lines) + "\n"


def hierarchy_csv(state):
    lines = ["order,residual"]
    for i, res in enumerate(state.residuals, start=1):
        lines.append(f"{i},{res!r}")
    return "\n".join(lines) + "\n"


def dump(obj, stream):
    json.dump(obj, stream, indent=2)
    stream.write("\n")
