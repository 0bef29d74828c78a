"""Circulant matrices over the complex numbers.

An order-n circulant is determined by its first row (c_1, ..., c_n): each
later row is the previous one rotated once to the right, so the (i, j)
entry is c_{j-i+1} with subscripts taken mod n (residue 0 means index n).
Under matrix addition and product the circulants form a commutative
n-dimensional algebra, and the product corresponds to cyclic convolution
of first rows.  Equivalently, a circulant is the element
c_1 e_1 + ... + c_n e_n of the cyclic group algebra with basis products
e_i e_j = e_{i+j-1}.

Formulas in docstrings are 1-based like the literature; storage is
0-based.  Every row value of the package (circulant, spectrum, twist
weights, twisted coefficients) stores one thing: its row as a read-only
complex ndarray `array`.  numpy work on a value starts from that array.
The public tuples of Python complex numbers (`coeffs`, `values`, `mu`,
`table`) are views, built from the array by `_view` on every read and
never stored; in the value layer only `repr` and `hash` read them.  `==`
compares the arrays and `hash` is the hash of the tuple.

Values are built in one of two ways, both in this module:

* Outside input goes through the one public constructor, `_RowValue`'s,
  which checks and copies it with the one vectorised entry rule, `_entries`.
* Every value the package computes is a fresh numpy array handed to
  `_result`: the finiteness test of the entry rule, the read-only flag,
  no copy.

Both run the class invariant, stated once on the class as `_check(arr)`
(on `twisted.MuWeights` and `twisted.TwoCocycle`; None elsewhere), which
no other module calls.  `base._Frozen` freezes every immutable slotted class.

Arithmetic on values is numpy's, run under `_quiet`, the package's only
`np.errstate`, so a result beyond the float range comes out inf or nan
without a numpy warning (`x + y`, `x - y`, `mu_to_dense` included) and
`_result` or `_check_finite` refuses it with InvalidScalarError.  numpy's
complex `*` and `/` may round the last bit differently from Python's
complex arithmetic (fused multiply-adds; division through a reciprocal);
both are within a few ulps of the exact result.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .base import _check_orders, _Frozen
from .errors import InvalidOrderError, InvalidScalarError

#: Runs numpy work with its overflow and invalid-value warnings off: an
#: entry beyond the float range comes out inf or nan, which `_result`
#: refuses with InvalidScalarError.  Applied as a decorator, which numpy
#: makes safe across threads; it costs about 1.3 us each time it is
#: entered, so each public call enters it once, around its checks and its
#: arithmetic alike.  Build each wrapped function once, at module level:
#: wrapping inside a call costs more.
_quiet = np.errstate(over="ignore", invalid="ignore")
_add = _quiet(np.add)
_subtract = _quiet(np.subtract)
_multiply = _quiet(np.multiply)
_divide = _quiet(np.divide)
_astype = _quiet(np.ndarray.astype)


def _entries(values, ndim=1) -> np.ndarray:
    """Matrix entries as a read-only complex ndarray: the one rule for a
    valid entry, shared by every value type of the package and by the
    dense helpers.

    Accepts a row (a flat sequence or 1-D array, ndim=1), a table (a
    sequence of rows or 2-D array, ndim=2) or, with ndim=None, an array of
    any shape, whose caller checks the shape itself.  The entries are
    numbers: numpy numeric dtypes, or an object array (Fractions,
    Decimals, ints beyond int64, mixed types) whose every element is a
    numbers.Number, so that a string is never parsed as a number.  Each
    entry equals complex(v).  The array never shares memory with the
    caller's, so mutating the caller's array later leaves the value
    unchanged.  Raises InvalidOrderError when there is no entry, and
    InvalidScalarError on a ragged or non-numeric input or one of another
    number of axes, on an entry beyond the float range and on a
    non-finite entry (one vectorised check).
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        arr = None
    if arr is None or (ndim is not None and arr.ndim != ndim):
        raise InvalidScalarError(f"entries must form {'a flat sequence' if ndim == 1 else 'a table'} of numbers")
    if arr.size == 0:
        raise InvalidOrderError("need at least one entry")
    if arr.dtype.kind == "O":
        # One issubclass per distinct type, not one isinstance per entry.
        for kind in set(map(type, arr.ravel().tolist())):
            if not issubclass(kind, numbers.Number):
                raise InvalidScalarError(f"cannot use {kind.__name__} as a matrix entry")
    elif arr.dtype.kind not in "biufc":
        raise InvalidScalarError(f"cannot use {arr.dtype.type.__name__} as a matrix entry")
    try:
        if arr.dtype.char in "gG":
            # A long double beyond the float range casts to inf, which the
            # finiteness check below reports.
            arr = _astype(arr, complex)
        arr = arr.astype(complex, copy=False)
    except OverflowError:
        raise InvalidScalarError("entry beyond the float range") from None
    except (TypeError, ValueError) as exc:
        raise InvalidScalarError(f"entry has no complex value ({exc})") from None
    _check_finite(arr)
    # astype(copy=False) hands back the caller's own complex array.  A list
    # or tuple never shares memory, and testing one would convert it again.
    if arr is values or (
        not isinstance(values, (list, tuple)) and np.may_share_memory(arr, values)
    ):
        arr = arr.copy()
    # write=False, passed positionally: a third of the fixed cost of the
    # keyword or `.flags.writeable` forms, which shows on short rows.
    arr.setflags(False)
    return arr


def _check_finite(arr: np.ndarray):
    """Raise InvalidScalarError, naming the first such slot (its index in
    the flattened array), unless every entry of the complex array is
    finite."""
    finite = np.isfinite(arr)
    # count_nonzero does the job of .all() at half its fixed cost, which
    # dominates on short rows.
    if np.count_nonzero(finite) != arr.size:
        slot = int(np.argmin(finite))
        raise InvalidScalarError(f"non-finite entry {arr.flat[slot]} at index {slot}")


@_quiet
def _moduli(z: np.ndarray) -> np.ndarray:
    """|z_k| for a complex array, inf (without a warning) beyond the float
    range.  np.hypot rounds like Python's abs(complex); numpy's vectorised
    complex abs differs in the last bit on about a third of entries."""
    return np.hypot(z.real, z.imag)


def _check_tol(tol: float, name: str = "tolerance"):
    """Raise InvalidScalarError unless tol is a non-negative real number
    (a `numbers.Real`: int, float, Fraction or a numpy real scalar).  A
    negative or NaN tolerance would fail every check, and a string, list,
    None or complex number has no order to compare with."""
    if not (isinstance(tol, numbers.Real) and tol >= 0):
        raise InvalidScalarError(f"{name} must be a non-negative number, got {tol!r}")


#: Order from which `x * y` takes the spectral product `fast_mul` instead
#: of the direct convolution `mul_naive`.  On CPython 3.11 with numpy 2.4
#: (pocketfft), on a 2-vCPU x86-64 VM, random complex inputs, the two
#: timed interleaved, medians of 21 to 25 rounds: mul_naive took 0.33 /
#: 0.47 / 0.44 / 0.65 / 0.79 of fast_mul's time at n = 12 / 64 / 97 /
#: 128 / 160, 0.91 to 0.98 at 192 to 208 (0.74 at 212), 0.98 to 1.05 at
#: 216 and 220, 1.07 at 224 and 1.29 at 256.
SPECTRAL_MUL_MIN_ORDER = 216


def _view(arr: np.ndarray) -> tuple:
    """A stored complex array as Python complex numbers of the same bits:
    the tuple of a row, or a tuple of row tuples for a table."""
    return tuple(arr.tolist()) if arr.ndim == 1 else tuple(map(tuple, arr.tolist()))


class _RowValue(_Frozen):
    """Base of the row values: each stores its validated row once, as the
    read-only complex ndarray `array` (`twisted.TwoCocycle` its n x n table).

    `__init__(values)` is the one public constructor: `_entries` at the
    class's number of axes `_ndim` (a row, or TwoCocycle's table taken
    whole), then the class invariant; `MuCirculant` and `TwoCocycle` add
    their own steps.
    The subclass's public tuple attribute is `_tuple`, the `_view` of
    `array` built on each read.  A value is immutable, equals a value of
    the same class whose array holds equal entries (so -0.0 equals 0.0, as
    in tuples), hashes like its tuple, and pickles through its constructor,
    so an unpickled array is read-only again.
    """

    __slots__ = ("array",)

    #: The class invariant beyond finite entries, `_check(arr)`, which
    #: raises on an array that breaks it; None on a class without one.
    _check = None
    #: The number of axes of `array`: 1 for a row, 2 for a table.
    _ndim = 1

    def __init__(self, values):
        arr = _entries(values, self._ndim)
        if self._check is not None:
            self._check(arr)
        _set_array(self, arr)

    def _tuple(self) -> tuple:
        return _view(self.array)

    _key = _tuple

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.array, other.array)

    # Defining __eq__ drops the inherited hash; the key's hash is the tuple's.
    __hash__ = _Frozen.__hash__

    def __reduce__(self):
        return type(self), (self.array,)


# The slot's own setter, which the frozen __setattr__ does not guard: a
# quarter cheaper than object.__setattr__ on every construction.
_set_array = _RowValue.array.__set__


def _result(cls, arr: np.ndarray):
    """A `cls` value (any row value) holding `arr`, a complex array of the
    class's shape just computed by numpy that nothing else writes (a
    fresh result, or a row decoded into a read-only array by
    `documents`).  It passes the finiteness test of `_entries` and the
    class invariant `cls._check`, if any, and becomes read-only; the rest
    of `_entries`, the form checks and the defensive copy, would only
    repeat what the computation guarantees (about 2 us per call at
    n = 12, a tenth of `eigenvalues` there, on a 2-vCPU x86-64 VM)."""
    _check_finite(arr)
    if cls._check is not None:
        cls._check(arr)
    arr.setflags(False)
    value = cls.__new__(cls)
    _set_array(value, arr)
    return value


class Circulant(_RowValue):
    """Immutable circulant matrix, stored as its first row: the read-only
    array `array`, also readable as the tuple `coeffs`."""

    __slots__ = ()

    coeffs = property(_RowValue._tuple, doc="The first row as Python complex numbers.")

    def to_dense(self) -> np.ndarray:
        """Expand to the full n x n array with entry (i, j) = c_{j-i+1 mod n}."""
        return self.array[_shift(self.n)]

    def transpose(self) -> "Circulant":
        """circ(c_1, c_n, c_{n-1}, ..., c_2); matches the dense transpose."""
        c = self.array
        return _result(Circulant, np.concatenate((c[:1], c[:0:-1])))

    def norm_inf(self) -> float:
        """Induced infinity norm of the dense form: every row sums to sum |c_i|;
        inf when that sum, or one |c_i|, leaves the float range."""
        # With Python's left-to-right sum of `_moduli` the result equals
        # sum(abs(c) for c in coeffs) in every bit, where that is finite.
        return float(sum(_moduli(self.array).tolist()))

    def __add__(self, other: "Circulant") -> "Circulant":
        if not isinstance(other, Circulant):
            return NotImplemented
        _check_orders(self, other)
        return _result(Circulant, _add(self.array, other.array))

    def __sub__(self, other: "Circulant") -> "Circulant":
        if not isinstance(other, Circulant):
            return NotImplemented
        _check_orders(self, other)
        return _result(Circulant, _subtract(self.array, other.array))

    def __neg__(self) -> "Circulant":
        return _result(Circulant, -self.array)

    def __mul__(self, other):
        """Circulant product, or scaling by a number.

        Below order SPECTRAL_MUL_MIN_ORDER the product is `mul_naive`,
        numpy's direct O(n^2) convolution (exact on integer entries); from
        that order on it is `spectral.fast_mul`, O(n log n) through
        numpy.fft: a length-n transform, or at orders with one large prime
        factor a zero-padded convolution folded mod n.  A product beyond
        the float range raises InvalidScalarError, without a numpy warning.
        """
        if isinstance(other, Circulant):
            if self.n < SPECTRAL_MUL_MIN_ORDER:
                return mul_naive(self, other)
            from .spectral import fast_mul

            return fast_mul(self, other)
        if isinstance(other, numbers.Number):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self.scale(other)
        return NotImplemented

    def scale(self, a) -> "Circulant":
        """a * C, coefficientwise; raises InvalidScalarError when a is not
        a finite number or a product leaves the float range."""
        return _result(Circulant, _multiply(_entries((a,))[0], self.array))

    def __repr__(self) -> str:
        return "circ(%s)" % ", ".join(_fmt(c) for c in self.coeffs)


def _shift(n: int) -> np.ndarray:
    """The n x n index array (j - i) mod n: at (i, j), the slot of the
    first row that an order-n circulant holds there (0-based)."""
    return (np.arange(n)[None, :] - np.arange(n)[:, None]) % n


def _fmt(z: complex) -> str:
    return repr(z.real) if z.imag == 0 else repr(z)


def circ(*coeffs) -> Circulant:
    """Build circ(c_1, ..., c_n) from scalars or a single iterable."""
    if len(coeffs) == 1 and not isinstance(coeffs[0], numbers.Number):
        coeffs = tuple(coeffs[0])
    return Circulant(tuple(coeffs))


def _check_order(n: int):
    """Raise InvalidOrderError unless the order n is an integer (one that
    operator.index takes) of at least 1."""
    try:
        operator.index(n)
    except TypeError:
        raise InvalidOrderError(f"order must be an integer, got {n!r}") from None
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")


def _unit(n: int, k: int) -> Circulant:
    """P_n^k, the circulant whose first row is 1 at index k mod n, 0 elsewhere."""
    _check_order(n)
    row = np.zeros(n, dtype=complex)
    row[k % n] = 1.0
    return _result(Circulant, row)


def identity(n: int) -> Circulant:
    """circ(1, 0, ..., 0), the multiplicative identity."""
    return _unit(n, 0)


def fundamental(n: int) -> Circulant:
    """The cyclic-shift permutation P_n = circ(0, 1, 0, ..., 0).

    P_n generates the whole algebra: P_n^n = I_n and
    circ(c_1, ..., c_n) = c_1 I + c_2 P_n + ... + c_n P_n^(n-1).
    For n = 1 this degenerates to circ(1).
    """
    return _unit(n, 1)


@_quiet
def linear_combine(a, x: Circulant, b, y: Circulant) -> Circulant:
    """Coefficientwise a*x + b*y; raises InvalidScalarError when a or b is
    not a finite number or an entry leaves the float range."""
    _check_orders(x, y)
    a, b = _entries((a, b))
    return _result(Circulant, a * x.array + b * y.array)


@_quiet
def mul_naive(x: Circulant, y: Circulant) -> Circulant:
    """Direct O(n^2) product: cyclic convolution of first rows.

    r_k = sum of x_i y_j over i + j - 1 = k (mod n), which is the first
    row of the dense matrix product: numpy's direct linear convolution
    of the rows (`np.convolve`), folded mod n by `_fold`.  Exact on
    integer entries whose products and sums stay below 2^53.  A product
    beyond the float range raises InvalidScalarError, without a numpy
    warning.
    """
    _check_orders(x, y)
    return _result(Circulant, _fold(np.convolve(x.array, y.array), x.n))


def _fold(r: np.ndarray, n: int) -> np.ndarray:
    """Fold the linear convolution r of two order-n rows mod n:
    c_k = r_k + r_(k+n).  Entries of r from 2n - 1 on, zero in exact
    arithmetic, are dropped.  Call it under `_quiet`, where a sum beyond
    the float range comes out inf."""
    c = r[:n].copy()
    c[: n - 1] += r[n : 2 * n - 1]
    return c
