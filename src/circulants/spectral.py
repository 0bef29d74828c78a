"""Spectral theory of circulants: DFT diagonalization and the fast product.

With omega = cos(2*pi/n) + i*sin(2*pi/n) and the representer polynomial
p_C(X) = c_1 + c_2 X + ... + c_n X^(n-1), the eigenvalues of
C = circ(c_1, ..., c_n) are lambda_j = p_C(omega^(j-1)) for j = 1..n,
with eigenvector x_j = (1, omega^(j-1), omega^(2(j-1)), ...).  Mapping C
to diag(lambda_1, ..., lambda_n) is an algebra isomorphism onto the
diagonal matrices, so sums and products of circulants act pointwise on
spectra; that gives the O(n log n) multiplication path.

The transform is numpy.fft (pocketfft), O(n log n) at every order:
mixed-radix passes for composite n and Bluestein's chirp-z for large
prime factors.  With norm="forward" the unscaled inverse transform
evaluates the representer at the omega powers, so lambda = ifft(c) and
c = fft(lambda) carry no extra scaling pass.  The hand-rolled radix-2
FFT and direct DFT live on in `oracle` as independent references.
Like every value, a Spectrum stores only its read-only ndarray `array`;
the tuple `values` of Python complex numbers is built on first read.
Each transform reads its operands' `array` and runs one FFT on it, and
its output is built by the public constructors, Spectrum(array) and
Circulant(array), so it passes the same vectorised entry check as user
input but builds no Python object per entry.  Slot order is always
j = 1..n; spectra are never sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Circulant, _check_orders, _entries, _RowValue, _set_array


@dataclass(frozen=True)
class FourierContext:
    """Primitive n-th root of unity omega and its power table
    array[k] = omega^k, a read-only array."""

    n: int
    omega: complex
    array: np.ndarray = field(repr=False, compare=False)

    @property
    def powers(self) -> tuple[complex, ...]:
        """The power table as Python complex numbers."""
        return tuple(self.array.tolist())


def fourier_context(n: int) -> FourierContext:
    powers = np.exp(2j * np.pi * np.arange(n) / n)
    powers.setflags(False)
    return FourierContext(n=n, omega=complex(powers[min(1, n - 1)]), array=powers)


class Spectrum(_RowValue):
    """Eigenvalues in slot order: values[j-1] = p_C(omega^(j-1)), stored
    as the read-only array `array`."""

    __slots__ = ()

    def __init__(self, values):
        _set_array(self, _entries(values))

    values = property(_RowValue._tuple, doc="The eigenvalues as Python complex numbers.")

    def __repr__(self) -> str:
        return f"Spectrum(values={self._tuple()!r})"

    def as_array(self) -> np.ndarray:
        """A fresh, writable copy of `array`."""
        return self.array.copy()


def eigenvalues(c: Circulant) -> Spectrum:
    """All n eigenvalues lambda_j = p_C(omega^(j-1)), in slot order."""
    return Spectrum(np.fft.ifft(c.array, norm="forward"))


def eigenvector(ctx: FourierContext, j: int) -> np.ndarray:
    """Column eigenvector x_j = (1, omega^(j-1), omega^(2(j-1)), ...).

    j is 1-based; the first component is exactly 1.
    """
    if not 1 <= j <= ctx.n:
        raise IndexError(f"eigenvalue slot {j} out of range 1..{ctx.n}")
    return ctx.array[((j - 1) * np.arange(ctx.n)) % ctx.n]


def eigenvector_matrix(n: int) -> np.ndarray:
    """Matrix whose j-th column is the eigenvector x_j (a DFT Vandermonde)."""
    ctx = fourier_context(n)
    k = np.arange(n)
    return ctx.array[(k[:, None] * k[None, :]) % n]


def to_diagonal(c: Circulant) -> np.ndarray:
    """The diagonal image diag(lambda_1, ..., lambda_n) of the isomorphism
    onto diagonal matrices; multiplicative and additive on circulants."""
    return np.diag(eigenvalues(c).array)


def from_spectrum(spectrum) -> Circulant:
    """Inverse transform: c_i = (1/n) * sum_j conj(omega^((i-1)(j-1))) lambda_j.

    Takes a Spectrum or any row of values that Spectrum accepts."""
    if not isinstance(spectrum, Spectrum):
        spectrum = Spectrum(spectrum)
    return Circulant(np.fft.fft(spectrum.array, norm="forward"))


def fast_mul(x: Circulant, y: Circulant) -> Circulant:
    """Product through pointwise multiplication of spectra.

    O(n log n) at every order (numpy.fft); agrees with the convolution
    reference path up to roundoff.  `x * y` switches to this path from
    order `core.SPECTRAL_MUL_MIN_ORDER` on.
    """
    _check_orders(x, y)
    return Circulant(np.fft.ifft(np.fft.fft(x.array) * np.fft.fft(y.array)))
