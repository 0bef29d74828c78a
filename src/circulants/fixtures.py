"""Seeded random inputs shared by `verify-all` and `circulants bench`."""

from __future__ import annotations

import numpy as np

from .core import Circulant

DEFAULT_SEED = 0x5EED


def random_circulant(rng: np.random.Generator, n: int) -> Circulant:
    """First row of n complex entries, real and imaginary parts uniform in [-1, 1)."""
    parts = rng.uniform(-1.0, 1.0, size=(n, 2))
    return Circulant(tuple(complex(re, im) for re, im in parts))
