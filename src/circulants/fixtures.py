"""Seeded random inputs shared by `verify-all` and `circulants bench`,
whose default seed is `base.DEFAULT_SEED`."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .core import Circulant, _result

if TYPE_CHECKING:  # `twisted` loads in `random_weights`, which alone uses it
    from .twisted import MuWeights


def random_circulant(rng: np.random.Generator, n: int) -> Circulant:
    """First row of n complex entries, real and imaginary parts uniform in
    [-1, 1): each drawn pair (re, im) read as one complex entry, the same
    bits as complex(re, im)."""
    parts = rng.uniform(-1.0, 1.0, size=(n, 2))
    return _result(Circulant, parts.view(complex).reshape(n))


def random_weights(rng: np.random.Generator, n: int) -> MuWeights:
    """Twist weights (1, mu_2, ..., mu_n): the n - 1 moduli uniform in
    [1/2, 2) are drawn first, then the n - 1 phases uniform in
    [0, 2 pi).  At n = 1 both draws are empty and leave the generator
    where it was."""
    from .twisted import MuWeights

    tail = rng.uniform(0.5, 2.0, n - 1) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n - 1))
    return MuWeights(np.concatenate(((1.0,), tail)))
