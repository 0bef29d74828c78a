"""Spectral theory of circulants: DFT diagonalization, the fast product,
and what is read off the spectrum: forms, conjugate, inverse, verdicts.

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
every function of this module, whose callers run them under `_quiet`.
Each public function enters that error state at most once.  `fast_mul`
at an order with one large prime factor (see `_product_length`) skips
the length-n transform: it takes the linear convolution of the two rows
at a zero-padded fast length m >= 2n - 1 and folds it mod n.  The
O(n^2) direct DFT of `oracle` is its independent reference.

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

The characteristic forms q_1, ..., q_n of a circulant: every circulant
satisfies its characteristic polynomial
X^n - q_1 X^(n-1) + q_2 X^(n-2) - ... + (-1)^n q_n, where q_i is the
i-th elementary symmetric polynomial of the eigenvalues; q_1 = n*c_1 is
the trace form and q_n = det the norm form.  The DFT diagonalises the
algebra, so each result is read off the spectrum lambda: the q_i are the
coefficients of prod_j (X + lambda_j).  `_expand` deals the roots into
blocks of at most `_BLOCK` = 12, expands each block one factor at a time
in place in Python complex arithmetic and multiplies the block products
pairwise with np.convolve.  That stays accurate where Newton's
identities on power sums cancel: its error is about n * eps *
e_i(|lambda|) (Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed.), and on seeded spectra with moduli in [1, 8] at n = 1..64 it
reads at most 0.33 of that against the exact rational product.  It
takes 0.56 to 0.76 of the time of one numpy slice update per root from
n = 4 to 4096.  The forms of a real row are real, with imaginary parts
+0.0, at every order: `forms`, `char_poly` and the calls built on them
read realness off the row, an O(n) test, since numpy's transform of a
real row is closed under conjugation to the last bit only at some
orders (the primes tried, none of 24, 25, 33, 36, 48 or 64).  Given
only a spectrum, `forms_of_spectrum` and `symmetric_tables` take it as
real when it is closed under conjugation as a sorted multiset, as
numpy.poly does.  The conjugate

    conj(x) = (-1)^(n+1) x^(n-1) + (-1)^n q_1(x) x^(n-2) + ... + q_{n-1}(x)

is the adjugate analogue, x * conj(x) = q_n(x) * 1, with spectrum
prod_{k != j} lambda_k; the inverse has spectrum 1 / lambda_j.

The forms, the conjugate, the inverse and the verdicts work on arrays,
and `core._check_finite` refuses a spectrum, a reciprocal or adjugate
spectrum and a result at the points where `eigenvalues`,
`from_spectrum` and `core._result` refuse them, with the same errors.
`is_invertible` and `inverse` read the spectrum in one modulus pass,
whose largest modulus is finite whenever the spectrum is, so they
refuse it only when that modulus is not finite.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .base import _check_orders
from .core import Circulant, _check_finite, _check_order, _check_tol, _fold, _quiet, _result, _RowValue
from .errors import InvalidScalarError, SingularMatrixError


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


@_quiet
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
    n, m = x.n, _product_length(x.n)
    r = np.fft.ifft(np.fft.fft(x.array, m) * np.fft.fft(y.array, m))
    return _result(Circulant, r if m == n else _fold(r, n))


#: x is singular when min_j |lambda_j| <= SINGULAR_RTOL * max_j |lambda_j|.
#: The FFT's error on lambda is about eps * log2(n) * max |lambda|, at
#: least five orders of magnitude below this up to n = 4096.
SINGULAR_RTOL = 1e-10

#: sum_j log|lambda_j| beyond this means |q_n| = prod_j |lambda_j| is past
#: the float range by at least a factor e, a margin far wider than the
#: rounding of the log sum or of the expansion's running product.
_LOG_NORM_LIMIT = math.log(sys.float_info.max) + 1.0

#: Most roots in one block of `_expand`.  Its time as a share of the
#: same recurrence run as one numpy slice update per root,
#: s[1:k+1] += lambda_k s[:k], medians of 7 interleaved in-process rounds
#: (CPython 3.11, numpy 2.4, a 2-vCPU x86-64 VM), for at most 8 / 10 / 12
#: / 16 / 24 roots per block: 0.66 / 0.59 / 0.61 / 0.59 / 0.63 at n = 17,
#: 0.62 / 0.66 / 0.66 / 0.74 / 0.75 at 64, 0.63 / 0.62 / 0.62 / 0.67 /
#: 0.78 at 256, 0.70 / 0.70 / 0.67 / 0.70 / 0.78 at 649 and 0.57 / 0.53 /
#: 0.55 / 0.56 / 0.62 at 4096; 32 was slower than 24 in an earlier sweep.
#: 8 to 12 stay level within their quartiles; 12 keeps a spectrum of up
#: to 12 roots in one block.
_BLOCK = 12


@dataclass(frozen=True)
class SymmetricTables:
    """Power sums p_1..p_n and elementary symmetric values s_0..s_n."""

    power_sums: tuple[complex, ...]
    elementary: tuple[complex, ...]


@dataclass(frozen=True)
class FormsVector:
    """The values (q_1(x), ..., q_n(x))."""

    q: tuple[complex, ...]

    @property
    def n(self) -> int:
        return len(self.q)

    @property
    def trace_form(self) -> complex:
        return self.q[0]

    @property
    def norm_form(self) -> complex:
        return self.q[-1]


@dataclass(frozen=True)
class InvertibilityVerdict:
    invertible: bool
    #: 1-based slot j with p_C(omega^(j-1)) ~ 0 when singular, else None.
    witness: int | None
    #: q_n = prod_j lambda_j; inf or nan when it leaves the float range.
    norm_form: complex
    threshold: float


def _alternate(s: np.ndarray) -> tuple[complex, ...]:
    """(a_0, -a_1, a_2, -a_3, ...) of the complex array s, negated in
    place, as Python complex numbers: the sign pattern between
    s_0..s_n = (1, q_1, ..., q_n) and prod_j (X - lambda_j).  Negated as
    0.0 - a, so a zero part comes out +0.0, never -0.0."""
    s[1::2] = 0.0 - s[1::2]
    return tuple(s.tolist())


def _log_modulus(z: complex) -> float:
    """log|z| counted from the parts, finite where |z| passes the float
    maximum: with m >= s the magnitudes of the parts,
    log|z| = log m + log1p((s / m)^2) / 2.  ValueError at z = 0."""
    re, im = abs(z.real), abs(z.imag)
    m, s = max(re, im), min(re, im)
    return math.log(m) + 0.5 * math.log1p((s / m) ** 2)


def _expand(lam: np.ndarray) -> np.ndarray:
    """s_0..s_n, the coefficients of prod_j (X + lambda_j) in descending
    powers, a fresh complex array.

    The roots are dealt into m = ceil(n / `_BLOCK`) blocks, every m-th
    root to one block.  Each block's product is expanded in place one
    factor at a time in Python complex arithmetic, s_i += lambda_k s_(i-1)
    for i = 1..k, each with s_(i-1) as it was before the factor, so no
    numpy call is made per root; the block products are then multiplied
    pairwise, level by level, with np.convolve.  Dealt, not cut: a
    spectrum in slot order changes smoothly from slot to slot, and the
    product over one arc of slots can leave the float range where the
    whole product does not (2I + P at n = 645..649, whose largest form is
    0.83 of the float maximum, overflowed in blocks of 12 consecutive
    slots).  Negating lambda is exact, so s_i has the bits of (-1)^i
    times the coefficient of prod_j (X - lambda_j) by the same steps.
    The imaginary parts are as the arithmetic leaves them; `_elementary`
    zeroes them for a real element.  Run under `_quiet` by its callers:
    a value beyond the float range comes out inf or nan without a numpy
    warning."""
    roots = lam.tolist()
    m = -(-len(roots) // _BLOCK)
    blocks = []
    for part in (roots[b::m] for b in range(m)):
        s = [1.0 + 0j] + [0j] * len(part)
        for k, z in enumerate(part, 1):
            prev = s[0]
            for i in range(1, k + 1):
                cur = s[i]
                s[i] = cur + z * prev
                prev = cur
        blocks.append(np.array(s))
    while len(blocks) > 1:
        paired = [np.convolve(a, b) for a, b in zip(blocks[::2], blocks[1::2])]
        blocks = paired + blocks[2 * len(paired) :]
    return blocks[0]


def _is_real_row(c: Circulant) -> bool:
    """Whether every imaginary part of c's row is 0 (-0.0 counts): then
    its forms are real."""
    return not np.count_nonzero(c.array.imag)


def _is_conjugate_closed(lam: np.ndarray) -> bool:
    """Whether lam equals its conjugate as a sorted multiset, bit for bit:
    numpy.poly's rule for real coefficients, for callers that see only a
    spectrum."""
    return bool((np.sort(lam) == np.sort(lam.conj())).all())


def _elementary(lam: np.ndarray, real: bool) -> np.ndarray:
    """s_0..s_n = (1, q_1, ..., q_n) of lam by `_expand`, a fresh complex
    array, with imaginary parts +0.0 when ``real`` says the element is
    real.  Raises InvalidScalarError when one leaves the float range: in
    O(n), before the expansion, when q_n alone does.  Run under `_quiet`
    by its callers."""
    # sum_j log|lambda_j| in C-level builtins: at small n this costs a
    # third of numpy's calls under errstate, on every call that succeeds.
    # numpy's complex abs is inf for a modulus beyond the float range,
    # whose log is then counted from the parts; the rounding of
    # |lambda_j| cannot move the verdict.
    try:
        log_norm = sum(map(math.log, np.abs(lam).tolist()))
        if log_norm == math.inf:
            log_norm = sum(map(_log_modulus, lam.tolist()))
    except ValueError:  # a zero eigenvalue: q_n = 0 cannot overflow
        log_norm = -math.inf
    if log_norm > _LOG_NORM_LIMIT:
        raise InvalidScalarError("a characteristic form leaves the float range")
    s = _expand(lam)
    if real:
        s.imag = 0.0
    if np.count_nonzero(np.isfinite(s)) != s.size:
        raise InvalidScalarError("a characteristic form leaves the float range")
    return s


@_quiet
def symmetric_tables(spectrum: Spectrum) -> SymmetricTables:
    """Power sums directly; elementary values by `_elementary`, real when
    the spectrum is closed under conjugation.  Raises InvalidScalarError
    when a power sum or a form leaves the float range."""
    lam = spectrum.array
    p = [complex(np.sum(lam**k)) for k in range(1, lam.size + 1)]
    if not np.isfinite(p).all():
        raise InvalidScalarError("a power sum leaves the float range")
    s = _elementary(lam, _is_conjugate_closed(lam))
    return SymmetricTables(power_sums=tuple(p), elementary=tuple(s.tolist()))


def _spectrum(c: Circulant) -> np.ndarray:
    """The eigenvalues of c as a fresh array, refused as `eigenvalues`
    refuses them when one leaves the float range.  Run under `_quiet` by
    its callers."""
    lam = _to_spectrum(c.array)
    _check_finite(lam)
    return lam


def _circulant(lam: np.ndarray) -> Circulant:
    """The circulant with spectrum lam, refused as `from_spectrum`
    refuses a spectrum or a row that leaves the float range.  Run under
    `_quiet` by its callers."""
    _check_finite(lam)
    return _result(Circulant, _to_row(lam))


@_quiet
def forms(c: Circulant) -> FormsVector:
    """q_i(x) = s_i(lambda_1, ..., lambda_n), with imaginary parts +0.0
    for a real row; InvalidScalarError when a form leaves the float
    range."""
    return FormsVector(q=tuple(_elementary(_spectrum(c), _is_real_row(c))[1:].tolist()))


@_quiet
def forms_of_spectrum(spectrum: Spectrum) -> FormsVector:
    """Forms of any element given its spectrum, real when the spectrum is
    closed under conjugation; InvalidScalarError when a form leaves the
    float range."""
    lam = spectrum.array
    return FormsVector(q=tuple(_elementary(lam, _is_conjugate_closed(lam))[1:].tolist()))


def char_poly_of_forms(f: FormsVector) -> tuple[complex, ...]:
    """Monic characteristic polynomial from the forms, descending powers:
    (1, -q_1, +q_2, ..., (-1)^n q_n)."""
    return _alternate(np.array((1.0,) + f.q, dtype=complex))


@_quiet
def char_poly(c: Circulant) -> tuple[complex, ...]:
    """Monic characteristic polynomial of c, descending powers, with
    imaginary parts +0.0 for a real row."""
    return _alternate(_elementary(_spectrum(c), _is_real_row(c)))


@_quiet
def conjugate(c: Circulant) -> Circulant:
    """Adjugate-analogue conj(x), from its spectrum mu_j = prod_{k != j} lambda_k.

    The prefix and suffix products of lambda give every mu_j without a
    division, so singular x is no special case.  Equals the polynomial
    sum_{i=0..n-1} (-1)^(n+1-i) q_i(x) x^(n-1-i) with q_0 = 1, and
    satisfies x*conj(x) = q_n(x)*1.  Raises InvalidScalarError when a
    mu_j leaves the float range.
    """
    lam = _spectrum(c)
    prefix = np.cumprod(np.concatenate(((1.0,), lam[:-1])))
    suffix = np.cumprod(np.concatenate(((1.0,), lam[:0:-1])))[::-1]
    return _circulant(prefix * suffix)


def _scan(c: Circulant, threshold: float | None) -> tuple[np.ndarray, int, float, float, float]:
    """The spectrum of c, the slot of its least modulus, that modulus,
    the greatest and the threshold.  One modulus pass: its maximum is
    finite whenever the spectrum is, and only when it is not is the
    spectrum refused as `eigenvalues` refuses it.  Run under `_quiet` by
    its callers."""
    if threshold is not None:
        _check_tol(threshold, "threshold")
    lam = _to_spectrum(c.array)
    mag = np.abs(lam)
    slot = int(mag.argmin())
    lo, hi = float(mag[slot]), float(mag.max())
    if not math.isfinite(hi):
        _check_finite(lam)
    tol = SINGULAR_RTOL * hi if threshold is None else threshold
    if tol == math.inf and threshold is None:
        # A modulus past the float maximum, with finite parts: take the
        # largest modulus of the spectrum scaled by 2^-e, where the parts
        # are below 1, and scale the threshold back (exact in powers of 2).
        _, e = np.frexp(np.abs(lam.view(float)).max())
        scaled = np.ldexp(lam.view(float), -e).view(complex)
        tol = math.ldexp(SINGULAR_RTOL * float(np.abs(scaled).max()), int(e))
    return lam, slot, lo, hi, tol


@_quiet
def is_invertible(c: Circulant, threshold: float | None = None) -> InvertibilityVerdict:
    """Invertibility decided per eigenvalue slot.

    c is singular when min_j |lambda_j| <= threshold, by default
    SINGULAR_RTOL * max_j |lambda_j|; a negative or NaN threshold raises
    InvalidScalarError (at 0 an exact zero eigenvalue is still singular).
    The witness is then the argmin slot j, whose eigenvalue
    p_C(omega^(j-1)) is (numerically) zero: the root-of-unity
    obstruction.  norm_form is q_n = prod_j lambda_j.
    """
    lam, slot, lo, _, tol = _scan(c, threshold)
    invertible = lo > tol
    return InvertibilityVerdict(invertible, None if invertible else slot + 1, complex(lam.prod()), tol)


def _reciprocal(lam: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """1 / lambda_j for moduli in [lo, hi].

    numpy's complex reciprocal (Smith's method) divides by a denominator
    of up to 2 max(|Re|, |Im|), so beyond about 9e307 it overflows and
    returns 0.  Outside 2^-1021 .. 2^1021 each lambda_j = s 2^e is
    therefore scaled first, with max(|Re s|, |Im s|) in [1/2, 1), and
    1 / lambda_j = (1 / s) 2^-e (Smith 1962; Baudin and Smith 2012).
    Scaling by 2^-e is exact, so wherever the plain reciprocal neither
    overflows nor underflows the two agree in every bit.  Run under
    `_quiet` by `inverse`: a reciprocal may leave the float range."""
    if 2.0**-1021 < lo and hi < 2.0**1021:
        return 1.0 / lam
    _, e = np.frexp(np.maximum(np.abs(lam.real), np.abs(lam.imag)))
    shift = -np.repeat(e, 2)
    scaled = 1.0 / np.ldexp(lam.view(float), shift).view(complex)
    return np.ldexp(scaled.view(float), shift).view(complex)


@_quiet
def inverse(c: Circulant, threshold: float | None = None) -> Circulant:
    """x^(-1) = conj(x) / q_n(x), computed as the element with spectrum
    1 / lambda_j; raises SingularMatrixError with the root-of-unity
    witness when is_invertible(c, threshold) finds c singular, and
    InvalidScalarError when an entry of the inverse leaves the float
    range."""
    lam, slot, lo, hi, tol = _scan(c, threshold)
    if not lo > tol:
        raise SingularMatrixError(
            f"numerically singular circulant: |lambda_j|={lo:.3e} <= {tol:.3e}"
            f" at root-of-unity slot j={slot + 1}",
            witness=slot + 1,
        )
    return _circulant(_reciprocal(lam, lo, hi))
