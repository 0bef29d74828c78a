"""Seeded random inputs shared by `verify-all` and `circulants bench`."""

from __future__ import annotations

import numpy as np

from .core import Circulant, _result

DEFAULT_SEED = 0x5EED


def random_circulant(rng: np.random.Generator, n: int) -> Circulant:
    """First row of n complex entries, real and imaginary parts uniform in
    [-1, 1): each drawn pair (re, im) read as one complex entry, the same
    bits as complex(re, im)."""
    parts = rng.uniform(-1.0, 1.0, size=(n, 2))
    return _result(Circulant, parts.view(complex).reshape(n))
