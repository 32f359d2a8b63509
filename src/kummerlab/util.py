"""Small shared helpers: seeded randomness, input validation and the damped-Newton iteration."""

import cmath
import math
import numbers

import numpy as np

from .errors import ValidationError

# evaluation accuracy and root tolerance of the damped-Newton root finders
NEWTON_EPS = 1e-14
NEWTON_TOL = 1e-11
# the line search's step fractions lam = 1, 1/2, ... while lam > 2^-9
_DAMPING = tuple(0.5**k for k in range(9))
_COMPLEX = np.dtype(complex)


def rng(seed, *salts):
    """Counter-based generator (Philox) for a named, reproducible stream.

    ``salts`` distinguish independent streams derived from one user seed,
    so e.g. sample draws and restart points never alias.
    """
    seed = as_int(seed, "seed")
    seq = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=tuple(salts))
    return np.random.Generator(np.random.Philox(seq))


def as_array(value, message):
    """np.asarray(value, dtype=complex), or ValidationError(message) unless it holds numbers.

    A number is an int, a float or a complex value, Python or numpy; a bool, a
    string (even "0.5"), None and a ragged nesting are not, though numpy reads
    the first two as numbers.  A numeric array is settled by its dtype.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iufc":
        return np.asarray(value, dtype=complex)
    try:
        # each leaf of the nesting as one cell; a ragged one leaves a list in a cell
        cells = np.asarray(value, dtype=object)
    except (TypeError, ValueError):
        raise ValidationError(message) from None
    if not all(isinstance(x, numbers.Complex) and not isinstance(x, bool) for x in cells.flat):
        raise ValidationError(message)
    return np.asarray(value, dtype=complex)


def as_point(z, g, name="point"):
    """``z`` as a finite complex vector of length ``g`` by as_array; a complex128 array as is."""
    if type(z) is not np.ndarray or z.dtype is not _COMPLEX:
        z = as_array(z, f"{name}: expected a length-{g} complex vector of numbers")
    if z.shape != (g,):
        raise ValidationError(f"{name}: expected a length-{g} complex vector, got shape {z.shape}")
    # exact, and a few times cheaper than np.isfinite on a vector this short
    if not all(map(cmath.isfinite, z.tolist())):
        raise ValidationError(f"{name}: entries must be finite")
    return z


def as_points(points, g, name="points", count=None):
    """Each of the iterable ``points`` through as_point, as a list; ``count`` of them if given."""
    try:
        points = list(points)
    except TypeError:
        raise ValidationError(f"{name}: expected an iterable of points") from None
    if count is not None and len(points) != count:
        raise ValidationError(f"{name}: expected {count} points, got {len(points)}")
    return [as_point(p, g, name=f"{name}[{i}]") for i, p in enumerate(points)]


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
    An int, the common case, is settled by the first test.
    """
    if type(value) is not int:
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


def newton(residual, step, x, budget, tol=NEWTON_TOL, inside=None):
    """Damped Newton-type iteration from x: (x, max |r| as a Python float, iterations).

    Each of at most ``budget`` iterations ends the run once max |r| < tol
    for r = residual(x), or when step(x, r) returns None.  Otherwise x
    moves to the first trial x + lam * step, lam = 1, 1/2, ... while lam >
    2^-9, whose max |r| is below (1 - lam/4) times the current one, and the
    run ends when there is none.  ``inside``, when given, rejects a trial
    before its residual is evaluated.  The count is the index of the last
    iteration entered.
    """
    # max |r| by Python's abs for a scalar r, by numpy's for an array, and a
    # trial by numpy's: the bits each root finder has always measured
    r = residual(x)
    size = float(np.max(abs(r)))
    it = 0
    for it in range(budget):
        if size < tol or (dx := step(x, r)) is None:
            break
        for lam in _DAMPING:
            trial = x + lam * dx
            if inside is None or inside(trial):
                r_trial = residual(trial)
                if np.abs(r_trial).max() < (1.0 - 0.25 * lam) * size:
                    break
        else:
            break
        x, r, size = trial, r_trial, float(np.max(abs(r_trial)))
    return x, size, it
