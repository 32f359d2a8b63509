"""Small shared helpers: seeded randomness, input validation and the damped-Newton step."""

import cmath
import math
import numbers

import numpy as np

from .errors import ValidationError

# evaluation accuracy and root tolerance of the damped-Newton root finders
NEWTON_EPS = 1e-14
NEWTON_TOL = 1e-11


def rng(seed, *salts):
    """Counter-based generator (Philox) for a named, reproducible stream.

    ``salts`` distinguish independent streams derived from one user seed,
    so e.g. sample draws and restart points never alias.
    """
    seed = as_int(seed, "seed")
    seq = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=tuple(salts))
    return np.random.Generator(np.random.Philox(seq))


def as_point(z, g, name="point"):
    """Coerce to a finite complex vector of length ``g``."""
    try:
        arr = np.asarray(z, dtype=complex)
    except (TypeError, ValueError):
        raise ValidationError(f"{name}: expected a length-{g} complex vector of numbers") from None
    if arr.shape != (g,):
        raise ValidationError(f"{name}: expected a length-{g} complex vector, got shape {arr.shape}")
    # exact, and a few times cheaper than np.isfinite on a vector this short
    if not all(map(cmath.isfinite, arr.tolist())):
        raise ValidationError(f"{name}: entries must be finite")
    return arr


def check_positive(value, name):
    """ValidationError unless ``value`` is a finite positive real number.

    A bool, a numpy bool and an array are none: True would run as 1, and a
    one-element array passes the comparison, then fails as a bare TypeError.
    A float, the common case, is settled by the first test.
    """
    if type(value) is float and 0.0 < value < math.inf:
        return
    if not (isinstance(value, numbers.Real) and type(value) is not bool and 0.0 < value < math.inf):
        raise ValidationError(f"{name} must be finite and positive, got {value!r}")


def as_int(value, name, low=None, high=None):
    """``value`` as an int in low..high (either end open when None), or ValidationError.

    A bool or any non-integral number (2.0 included) is refused, not truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        span = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValidationError(f"{name} must be {span}, got {value}")
    return value


def complex_box(gen, g, re_half=0.5, im_half=0.3):
    """One random complex g-vector with uniform real/imaginary parts."""
    re = gen.uniform(-re_half, re_half, size=g)
    im = gen.uniform(-im_half, im_half, size=g)
    return re + 1j * im


def backtrack(x, step, residual, size, inside=None):
    """Damped step of a Newton-type iteration: the first accepted x + lam*step.

    Tries lam = 1, 1/2, ... while lam > 2^-9 and accepts the first trial
    point whose residual r = residual(point) has max |r| < (1 - lam/4) size,
    where ``size`` is max |r| at x.  ``inside``, when given, rejects a trial
    point before its residual is evaluated.  Returns (point, r), or None
    when no lam is accepted.
    """
    lam = 1.0
    while lam > 2**-9:
        x2 = x + lam * step
        if inside is None or inside(x2):
            r2 = residual(x2)
            if np.abs(r2).max() < (1.0 - 0.25 * lam) * size:
                return x2, r2
        lam *= 0.5
    return None
