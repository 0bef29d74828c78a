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
0-based.  Every value of the package (circulant, spectrum, twist
weights, twisted coefficients, cocycle rows) stores its row as a tuple
of Python complex numbers, validated by one vectorised rule,
`_entries`, in its constructor; computed results go through the same
constructors.  Circulants, spectra and the twisted values also keep the
validated row as a read-only complex ndarray in their `array` field,
which `==`, `hash` and `repr` ignore, so numpy work on a value starts
from that array instead of rebuilding one from the tuple.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidOrderError, InvalidScalarError


def _entries(values) -> tuple[tuple[complex, ...], np.ndarray]:
    """A row of matrix entries as Python complex numbers and as a read-only
    complex ndarray: the one rule for a valid entry, shared by every value
    type of the package.

    Accepts any flat sequence or 1-D array of numbers: numpy numeric
    dtypes, or an object row (Fractions, Decimals, ints beyond int64,
    mixed types) whose every element is a numbers.Number, so that a
    string is never parsed as a number.  Each entry equals complex(v).
    The array never shares memory with the caller's, so mutating the
    caller's array later leaves the value unchanged.  Raises
    InvalidOrderError on an empty row and InvalidScalarError on a nested,
    ragged or non-numeric row, on an entry beyond the float range and on a
    non-finite entry (one vectorised check).
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        raise InvalidScalarError("entries must form a flat sequence of numbers") from None
    if arr.ndim != 1:
        raise InvalidScalarError("entries must form a flat sequence of numbers")
    if arr.size == 0:
        raise InvalidOrderError("need at least one entry")
    if arr.dtype.kind == "O":
        # One issubclass per distinct type, not one isinstance per entry.
        for kind in set(map(type, arr.tolist())):
            if not issubclass(kind, numbers.Number):
                raise InvalidScalarError(f"cannot use {kind.__name__} as a matrix entry")
    elif arr.dtype.kind not in "biufc":
        raise InvalidScalarError(f"cannot use {arr.dtype.type.__name__} as a matrix entry")
    try:
        if arr.dtype.char in "gG":
            # A long double beyond the float range casts to inf, which the
            # finiteness check below reports; numpy would also warn.
            with np.errstate(over="ignore"):
                arr = arr.astype(complex)
        arr = arr.astype(complex, copy=False)
    except OverflowError:
        raise InvalidScalarError("entry beyond the float range") from None
    except (TypeError, ValueError) as exc:
        raise InvalidScalarError(f"entry has no complex value ({exc})") from None
    finite = np.isfinite(arr)
    # count_nonzero does the job of .all() at half its fixed cost, which
    # dominates on short rows.
    if np.count_nonzero(finite) != arr.size:
        slot = int(np.argmin(finite))
        raise InvalidScalarError(f"non-finite entry {arr[slot]} at index {slot}")
    # astype(copy=False) hands back the caller's own complex array.  A list
    # or tuple never shares memory, and testing one would convert it again.
    if arr is values or (
        not isinstance(values, (list, tuple)) and np.may_share_memory(arr, values)
    ):
        arr = arr.copy()
    # write=False, passed positionally: a third of the fixed cost of the
    # keyword or `.flags.writeable` forms, which shows on short rows.
    arr.setflags(False)
    return tuple(arr.tolist()), arr


#: Order from which `x * y` takes the spectral product instead of the
#: O(n^2) convolution.  On CPython 3.11 with numpy 2.4 (pocketfft), on a
#: 2-vCPU x86-64 VM, random complex inputs, best of 15 runs: mul_naive
#: takes 15 / 21 / 27 / 29 / 45 us at n = 8 / 10 / 11 / 12 / 16, and
#: fast_mul 24 us at each of these orders; they break even at n = 11.
SPECTRAL_MUL_MIN_ORDER = 12


@dataclass(frozen=True)
class Circulant:
    """Immutable circulant matrix, stored as its first row: `coeffs`, and
    the same row as the read-only array `array`."""

    coeffs: tuple[complex, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Set through __dict__, which the frozen __setattr__ does not
        # guard: a third of the cost of two object.__setattr__ calls.
        self.__dict__["coeffs"], self.__dict__["array"] = _entries(self.coeffs)

    def __reduce__(self):
        # Rebuilt through the constructor: an unpickled array is writable.
        return type(self), (self.coeffs,)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def to_dense(self) -> np.ndarray:
        """Expand to the full n x n array with entry (i, j) = c_{j-i+1 mod n}."""
        n = self.n
        shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        return self.array[shift]

    def transpose(self) -> "Circulant":
        """circ(c_1, c_n, c_{n-1}, ..., c_2); matches the dense transpose."""
        c = self.coeffs
        return Circulant(c[:1] + c[1:][::-1])

    def norm_inf(self) -> float:
        """Induced infinity norm of the dense form: every row sums to sum |c_i|."""
        return float(sum(abs(c) for c in self.coeffs))

    def __add__(self, other: "Circulant") -> "Circulant":
        if not isinstance(other, Circulant):
            return NotImplemented
        _check_orders(self, other)
        return Circulant(self.array + other.array)

    def __sub__(self, other: "Circulant") -> "Circulant":
        if not isinstance(other, Circulant):
            return NotImplemented
        _check_orders(self, other)
        return Circulant(self.array - other.array)

    def __neg__(self) -> "Circulant":
        return Circulant(-self.array)

    def __mul__(self, other):
        """Circulant product, or scaling by a number.

        Below order SPECTRAL_MUL_MIN_ORDER the product is the O(n^2)
        convolution `mul_naive` (exact on integer entries); from that
        order on it is `spectral.fast_mul`, O(n log n) through numpy.fft.
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
        # Python complex products, not numpy's: numpy's complex multiply
        # may fuse a multiply-add (FMA) and round the last bit differently,
        # while +, - and unary - on the arrays equal the Python results.
        (a,), _ = _entries((a,))
        return Circulant(tuple(a * c for c in self.coeffs))

    def __repr__(self) -> str:
        return "circ(%s)" % ", ".join(_fmt(c) for c in self.coeffs)


def _fmt(z: complex) -> str:
    return repr(z.real) if z.imag == 0 else repr(z)


def _check_orders(x, y):
    """Raise DimensionMismatchError unless x and y, circulants of any
    kind, have the same order n."""
    if x.n != y.n:
        raise DimensionMismatchError(f"orders differ: {x.n} vs {y.n}")


def circ(*coeffs) -> Circulant:
    """Build circ(c_1, ..., c_n) from scalars or a single iterable."""
    if len(coeffs) == 1 and not isinstance(coeffs[0], numbers.Number):
        coeffs = tuple(coeffs[0])
    return Circulant(tuple(coeffs))


def identity(n: int) -> Circulant:
    """circ(1, 0, ..., 0), the multiplicative identity."""
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    return Circulant((1.0 + 0.0j,) + (0.0 + 0.0j,) * (n - 1))


def fundamental(n: int) -> Circulant:
    """The cyclic-shift permutation P_n = circ(0, 1, 0, ..., 0).

    P_n generates the whole algebra: P_n^n = I_n and
    circ(c_1, ..., c_n) = c_1 I + c_2 P_n + ... + c_n P_n^(n-1).
    For n = 1 this degenerates to circ(1).
    """
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    if n == 1:
        return identity(1)
    row = [0.0 + 0.0j] * n
    row[1] = 1.0 + 0.0j
    return Circulant(tuple(row))


def linear_combine(a, x: Circulant, b, y: Circulant) -> Circulant:
    """Coefficientwise a*x + b*y, in Python complex arithmetic (see
    `Circulant.scale`)."""
    _check_orders(x, y)
    (a, b), _ = _entries((a, b))
    return Circulant(tuple(a * xc + b * yc for xc, yc in zip(x.coeffs, y.coeffs)))


def mul_naive(x: Circulant, y: Circulant) -> Circulant:
    """Reference O(n^2) product: cyclic convolution of first rows.

    r_k = sum of x_i y_j over i + j - 1 = k (mod n), which is the first
    row of the dense matrix product.
    """
    _check_orders(x, y)
    n = x.n
    out = [0.0 + 0.0j] * n
    for i, xi in enumerate(x.coeffs):
        if xi == 0:
            continue
        for j, yj in enumerate(y.coeffs):
            k = i + j
            if k >= n:
                k -= n
            out[k] += xi * yj
    return Circulant(tuple(out))
