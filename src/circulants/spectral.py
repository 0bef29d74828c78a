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
c = fft(lambda) carry no extra scaling pass.  Each formula is written
once, as an array function: `_to_spectrum` and `_to_row`, shared by
`eigenvalues`, `from_spectrum` and the `forms` layer, whose callers run
them under `_quiet`.  `fast_mul` at an order with one large prime
factor (see `_product_length`) skips the length-n transform: it takes
the linear convolution of the two rows at a zero-padded fast length
m >= 2n - 1 and folds it mod n.  The O(n^2) direct DFT of `oracle` is
its independent reference.

Like every value, a Spectrum stores only its read-only ndarray `array`;
the tuple `values` of Python complex numbers is a view of it, built on
each read, and only `repr` and `hash` read it here.
Each transform runs its FFTs on its operands' `array`, and its output
array becomes the result's `array` through `core._result`, which applies
the finiteness test of the entry rule and builds no Python object per
entry.  The transforms run without numpy's floating-point warnings: a
spectrum or product that leaves the float range is refused by that test
with InvalidScalarError.  Slot order is always j = 1..n; spectra are
never sorted.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .core import Circulant, _check_order, _check_orders, _fold, _quiet, _result, _RowValue


#: The primes up to 83, multiplied.  n divides its 64th power exactly when
#: no prime factor of n exceeds 83 (for every n below 2^64), so orders
#: without a large prime factor pay one pow() in `_product_length`.
_SMOOTH_PRIMORIAL = math.prod(
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83)
)


def _powers(base: int, limit: int) -> list[int]:
    """base^0, base^1, ... up to `limit`."""
    powers = [1]
    while powers[-1] * base <= limit:
        powers.append(powers[-1] * base)
    return powers


def _fast_lengths(limit: int) -> list[int]:
    """The lengths up to `limit` that `fast_mul` pads to, ascending: the
    5-smooth numbers 2^a 3^b 5^c that are a power of two or at most 7/8
    of the next power of two.  Doubling a length doubles that power of
    two too, so the odd part 3^b 5^c alone decides.

    On CPython 3.11 with numpy 2.4 (pocketfft), on a 2-vCPU x86-64 VM,
    the padded product at a 5-smooth length L against the next power of
    two P, interleaved, medians of 12 to 40 runs, 95 lengths L from 135
    to 128000: the 71 with L <= 7/8 P took 0.30 to 0.94 of P's time
    (median 0.67), the 15 with 7/8 P < L < 0.95 P took 0.79 to 0.99
    (median 0.94; up to 1.02 in an earlier sweep), and the 9 with
    L >= 0.95 P took 0.96 to 1.16 (median 1.00).
    """
    odd = [p3 * p5 for p5 in _powers(5, limit) for p3 in _powers(3, limit // p5)]
    return sorted(
        o << a
        for o in odd
        if o == 1 or 8 * o <= 7 << (o - 1).bit_length()
        for a in range((limit // o).bit_length())
    )


#: Up to 2^40: a padded order n needs 2n - 1 <= 2^40, far past any row
#: that fits in memory.
_FAST_LENGTHS = _fast_lengths(1 << 40)


def _product_length(n: int) -> int:
    """The transform length at which `fast_mul` multiplies two order-n
    rows: n itself, or a zero-padded fast length m >= 2n - 1.

    It pads when the prime factors of n above 83 multiply to one prime p
    with p^2 >= 8n, that is n = k p with p > 83 prime and k <= p / 8.
    There pocketfft's length-n transform runs a radix-p pass or
    Bluestein's chirp-z, and three transforms at a fast length cost
    less; m is then the first entry of `_FAST_LENGTHS` from 2n - 1 on.
    Measured as in `_fast_lengths`, interleaved medians of 20 to 60
    runs, the padded product took this share of the length-n one: 0.76 /
    0.69 / 0.59 / 0.38 / 0.42 / 0.38 at the primes n = 97 / 127 / 257 /
    1999 / 10007 / 65537, and 0.32 at 2 * 997.  Calling `fast_mul` on
    fresh operands each time, against the length-n product, 400
    interleaved pairs: 0.84 / 0.88 / 0.81 at n = 89 / 97 / 101, 0.94 at
    8 * 97 and 0.48 at 8 * 127, but 1.00 / 0.99 / 0.94 at the primes 67
    / 71 / 79 and 1.06 / 1.09 at 4 * 67 / 8 * 67, hence p > 83.  Where
    the rule keeps length n the padded product took 1.24 at 64 * 127,
    1.08 at 97^2, 1.10 at 37 * 41, and for the factor 37 from 1.04 at
    2 * 37 to 1.26 at 27 * 37 and 1.9 at 135 * 37; it forgoes gains such
    as 0.37 at 16 * 127.
    """
    if pow(_SMOOTH_PRIMORIAL, 64, n) == 0:
        return n
    p, g = n, math.gcd(n, _SMOOTH_PRIMORIAL)
    while g > 1:
        p //= g
        g = math.gcd(p, g)
    # p, the product of the prime factors above 83, passes Fermat's test
    # to base 2 when it is prime; a pseudoprime merely takes the padded
    # path, whose result is as accurate.
    if p * p < 8 * n or pow(2, p - 1, p) != 1:
        return n
    return _FAST_LENGTHS[bisect_left(_FAST_LENGTHS, 2 * n - 1)]


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
    _check_order(n)
    powers = np.exp(2j * np.pi * np.arange(n) / n)
    powers.setflags(False)
    return FourierContext(n=n, omega=complex(powers[min(1, n - 1)]), array=powers)


class Spectrum(_RowValue):
    """Eigenvalues in slot order: values[j-1] = p_C(omega^(j-1)), stored
    as the read-only array `array`."""

    __slots__ = ()

    values = property(_RowValue._tuple, doc="The eigenvalues as Python complex numbers.")

    def __repr__(self) -> str:
        return f"Spectrum(values={self._tuple()!r})"

    def as_array(self) -> np.ndarray:
        """A fresh, writable copy of `array`."""
        return self.array.copy()


def _to_spectrum(c: np.ndarray) -> np.ndarray:
    """lambda_j = p_C(omega^(j-1)) of the row c, a fresh array: the
    unscaled inverse transform.  Run under `_quiet` by its callers."""
    return np.fft.ifft(c, norm="forward")


def _to_row(lam: np.ndarray) -> np.ndarray:
    """The row c with spectrum lam, a fresh array: the forward transform
    scaled by 1/n.  Run under `_quiet` by its callers."""
    return np.fft.fft(lam, norm="forward")


@_quiet
def eigenvalues(c: Circulant) -> Spectrum:
    """All n eigenvalues lambda_j = p_C(omega^(j-1)), in slot order."""
    return _result(Spectrum, _to_spectrum(c.array))


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


@_quiet
def from_spectrum(spectrum) -> Circulant:
    """Inverse transform: c_i = (1/n) * sum_j conj(omega^((i-1)(j-1))) lambda_j.

    Takes a Spectrum or any row of values that Spectrum accepts."""
    if not isinstance(spectrum, Spectrum):
        spectrum = Spectrum(spectrum)
    return _result(Circulant, _to_row(spectrum.array))


def fast_mul(x: Circulant, y: Circulant) -> Circulant:
    """Product through pointwise multiplication of spectra.

    O(n log n) at every order (numpy.fft); agrees with the direct
    convolution `core.mul_naive` up to roundoff.  At most orders it is
    ifft(fft(x) * fft(y)) at length n.  Where n has one large prime
    factor (`_product_length`) it convolves the rows at a zero-padded
    fast length m >= 2n - 1 instead, r = ifft(fft(x, m) * fft(y, m)),
    and folds the linear convolution mod n with `core._fold`, as
    `mul_naive` folds its own.  `x * y` switches from `mul_naive` to this
    function at order `core.SPECTRAL_MUL_MIN_ORDER`.
    """
    _check_orders(x, y)
    return _result(Circulant, _convolve(x.array, y.array, _product_length(x.n)))


@_quiet
def _convolve(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """The cyclic convolution of the rows a and b, through transforms at
    length m: the rows' own length n, or m >= 2n - 1, where the rows are
    zero-padded and their linear convolution is folded mod n."""
    r = np.fft.ifft(np.fft.fft(a, m) * np.fft.fft(b, m))
    return r if m == a.size else _fold(r, a.size)
