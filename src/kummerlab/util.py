"""Small shared helpers: seeded randomness and input validation."""

import numpy as np

from .errors import ValidationError


def rng(seed, *salts):
    """Counter-based generator (Philox) for a named, reproducible stream.

    ``salts`` distinguish independent streams derived from one user seed,
    so e.g. sample draws and restart points never alias.
    """
    seq = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(salts))
    return np.random.Generator(np.random.Philox(seq))


def as_point(z, g, name="point"):
    """Coerce to a finite complex vector of length ``g``."""
    arr = np.asarray(z, dtype=complex)
    if arr.shape != (g,):
        raise ValidationError(f"{name}: expected a length-{g} complex vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: entries must be finite")
    return arr


def complex_box(gen, g, re_half=0.5, im_half=0.3):
    """One random complex g-vector with uniform real/imaginary parts."""
    re = gen.uniform(-re_half, re_half, size=g)
    im = gen.uniform(-im_half, im_half, size=g)
    return re + 1j * im
