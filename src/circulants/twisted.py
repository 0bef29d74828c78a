"""Coboundary-twisted circulants, including skew circulants.

Pick weights mu_1 = 1, mu_2, ..., mu_n (all nonzero).  They induce the
two-cocycle F(e_i, e_j) = mu_i mu_j / mu_{i+j-1} on the cyclic group,
and the twisted algebra embeds into matrices as

    circ(c_1, ..., c_n; mu_2, ..., mu_n)

with first row (c_1, ..., c_n), diagonal c_1, and entry
c_{j-i+1} * mu_i * mu_{j-i+1} / mu_j elsewhere.  Rescaling coefficients
by the weights,

    Psi: circ(c; mu) -> circ(c_1, c_2 mu_2, ..., c_n mu_n),

is an algebra isomorphism onto ordinary circulants, which transports
products and the eigen decomposition: with
p(X) = c_1 + c_2 mu_2 X + ... + c_n mu_n X^(n-1) the eigenvalues are
lambda_j = p(omega^(j-1)) and the eigenvector of lambda_j is
(1, mu_2 omega^(j-1), mu_3 omega^(2(j-1)), ...).

Skew circulants (sign flipped below the diagonal) are the special case
mu_i = sigma^(i-1) for sigma = cos(pi/n) + i sin(pi/n).

Psi and its inverse are one numpy product or quotient of the coefficient
and weight arrays, so `mu_mul`, `mu_eigen` and `mu_forms` cost a
circulant product, transform or forms call plus O(n) array work.  As in
`core`, every computed value (psi_inv's coefficients, the skew weights,
the coboundary table) is a fresh array handed to `core._result`, which
also runs the invariant of its class: `MuWeights._check` (mu_1 = 1, no
zero weight) and `TwoCocycle._check` (no zero entry) are the one place
each is stated, and `core`'s one public constructor runs them too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Circulant,
    _check_finite,
    _check_order,
    _check_tol,
    _divide,
    _moduli,
    _multiply,
    _result,
    _RowValue,
    _shift,
    _subtract,
)
from .errors import (
    DimensionMismatchError,
    IncompatibleAlgebrasError,
    InvalidCocycleError,
    InvalidOrderError,
    InvalidScalarError,
    InvalidWeightsError,
)
from .forms import FormsVector, forms
from .hopf import HopfReport
from .spectral import Spectrum, eigenvalues, eigenvector_matrix

_WEIGHT_MATCH_TOL = 1e-12
#: verify_cocycle takes tables whose entries have max(|re|, |im|) in this
#: range: then each product of two entries, and the difference of two
#: such products, is a finite normal float with full relative precision.
_COCYCLE_ENTRY_RANGE = (2.0**-500, 2.0**500)
#: verify_cocycle takes the triples in blocks of at most this many (or of
#: one x): at n = 4..8 one block took 33-48 us, one x at a time 68-136 us.
_COCYCLE_BLOCK = 4096


class MuWeights(_RowValue):
    """Full weight vector (mu_1, ..., mu_n) with mu_1 = 1, all nonzero,
    stored as the read-only array `array`."""

    __slots__ = ()

    @staticmethod
    def _check(arr: np.ndarray):
        if arr[0] != 1:
            raise InvalidWeightsError(f"mu_1 must be exactly 1, got {complex(arr[0])!r}")
        if np.count_nonzero(arr) != arr.size:
            raise InvalidWeightsError("weights must be nonzero")

    mu = property(_RowValue._tuple, doc="The weights as Python complex numbers.")

    def __repr__(self) -> str:
        return f"MuWeights(values={self.mu!r})"

    @classmethod
    def from_tail(cls, tail) -> "MuWeights":
        """Build from (mu_2, ..., mu_n); the leading 1 is implied."""
        return cls((1.0 + 0.0j,) + tuple(tail))

    def matches(self, other: "MuWeights") -> bool:
        """Same order, and every |mu_k - other mu_k| <= 1e-12 (the moduli
        rounded like Python's abs; one that leaves the float range is no
        match)."""
        if self.n != other.n:
            return False
        return bool((_moduli(_subtract(self.array, other.array)) <= _WEIGHT_MATCH_TOL).all())


class TwoCocycle(_RowValue):
    """Explicit table F[i][j] = F(e_{i+1}, e_{j+1}), all entries nonzero,
    stored like a row value as the read-only n x n complex array `array`;
    `table`, the rows as tuples of Python complex numbers, is its view,
    built on each read.

    The constructor takes a sequence of n rows of n entries, or an n x n
    array, and checks the table's shape before the entry rule reads it
    whole: InvalidOrderError on an empty table, InvalidCocycleError on one
    that is not square (a flat row, a scalar or an iterator included)."""

    __slots__ = ()

    _ndim = 2

    def __init__(self, table):
        try:
            n = len(table)
            square = all(len(row) == n for row in table)
        except TypeError:  # the table or a row has no length
            n, square = None, False
        if n == 0:
            raise InvalidOrderError("empty cocycle table")
        if not square:
            raise InvalidCocycleError("cocycle table must be square")
        super().__init__(table)

    @staticmethod
    def _check(arr: np.ndarray):
        if np.count_nonzero(arr) != arr.size:
            raise InvalidCocycleError("cocycle values must be nonzero")

    table = property(_RowValue._tuple, doc="The rows as tuples of Python complex numbers.")

    def __repr__(self) -> str:
        return f"TwoCocycle(table={self.table!r})"


class MuCirculant(_RowValue):
    """circ(c_1, ..., c_n; mu_2, ..., mu_n); the coefficients are stored
    as the read-only array `array`, beside the weights."""

    __slots__ = ("weights",)

    def __init__(self, coeffs, weights: MuWeights):
        super().__init__(coeffs)
        if self.n != weights.n:
            raise DimensionMismatchError(f"{self.n} coefficients but {weights.n} weights")
        _set_weights(self, weights)

    coeffs = property(_RowValue._tuple, doc="The coefficients as Python complex numbers.")

    def __repr__(self) -> str:
        return f"MuCirculant(coeffs={self.coeffs!r}, weights={self.weights!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.weights == other.weights and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.coeffs, self.weights))

    def __reduce__(self):
        return type(self), (self.array, self.weights)


_set_weights = MuCirculant.weights.__set__


def _mu_result(arr: np.ndarray, weights: MuWeights) -> MuCirculant:
    """A MuCirculant over `weights` holding arr, weights.n coefficients, on
    the terms of `core._result`."""
    m = _result(MuCirculant, arr)
    _set_weights(m, weights)
    return m


def mu_circ(coeffs, mu_tail) -> MuCirculant:
    """Build circ(c_1, ..., c_n; mu_2, ..., mu_n) from the two lists."""
    return MuCirculant(tuple(coeffs), MuWeights.from_tail(mu_tail))


def skew_root(n: int) -> complex:
    """sigma = cos(pi/n) + i sin(pi/n); sigma^2 = omega and sigma^n = -1."""
    _check_order(n)
    return complex(np.exp(1j * np.pi / n))


def cocycle_from_mu(weights: MuWeights) -> TwoCocycle:
    """Coboundary cocycle F(e_i, e_j) = mu_i mu_j / mu_{i+j-1 mod n}.

    Entries on the first row and column are exactly 1 (mu_1 = 1), so they
    are not routed through floating division.  An entry that overflows
    raises InvalidScalarError, one that underflows InvalidCocycleError.
    """
    mu = weights.array
    k = np.arange(weights.n)
    table = _divide(_multiply(mu[:, None], mu), mu[(k[:, None] + k) % weights.n])
    table[0, :] = table[:, 0] = 1.0
    return _result(TwoCocycle, table)


def verify_cocycle(f: TwoCocycle, tol: float = 1e-10) -> HopfReport:
    """Check normalization and the cocycle identity
    F(x,y) F(xy,z) = F(y,z) F(x,yz) over all n^3 triples; the reported
    residual is the worst relative deviation.  The triples run as arrays
    over blocks of consecutive x, at most max(n^2, _COCYCLE_BLOCK) at a
    time, so memory stays O(n^2); `oracle.cocycle_residual` is the same
    check as a Python loop.

    Raises InvalidScalarError on a negative or NaN tol, and on a table with
    an entry outside 2^-500 .. 2^500 in magnitude, whose products could
    overflow or underflow and so give no verdict."""
    _check_tol(tol)
    t = f.array
    n = f.n
    lo, hi = _COCYCLE_ENTRY_RANGE
    mags = np.maximum(np.abs(t.real), np.abs(t.imag))
    if mags.min() < lo or mags.max() > hi:
        raise InvalidScalarError(
            "cocycle entries must lie within 2^-500 .. 2^500 in magnitude,"
            " so that their products stay in the float range"
        )
    worst = _moduli(np.concatenate((t[0], t[:, 0])) - 1.0).max()
    k = np.arange(n)
    y_plus_z = (k[:, None] + k[None, :]) % n
    step = max(1, _COCYCLE_BLOCK // (n * n))
    for x0 in range(0, n, step):
        # Entry [x - x0, y, z] of each array belongs to the triple (x, y, z).
        rows = t[x0:x0 + step]
        lhs = rows[:, :, None] * t[(k[x0:x0 + step, None] + k) % n]
        rhs = t * rows[:, y_plus_z]
        deviation = _moduli(lhs - rhs) / np.maximum(_moduli(lhs), _moduli(rhs))
        worst = max(worst, deviation.max())
    worst = float(worst)
    return HopfReport("cocycle", worst <= tol, worst)


def mu_to_dense(m: MuCirculant) -> np.ndarray:
    """Dense expansion: entry (i, j) = c_{j-i+1} mu_i mu_{j-i+1} / mu_j,
    that is c_{j-i+1} F(e_i, e_{j-i+1}) for the cocycle of the weights.

    On the first row and the main diagonal the weight factor is
    identically 1, so those entries carry c_j and c_1 verbatim rather
    than going through floating division.  Raises InvalidScalarError when
    an entry leaves the float range.
    """
    n = m.n
    i = np.arange(n)[:, None]
    shift = _shift(n)
    dense = _multiply(m.array[shift], cocycle_from_mu(m.weights).array[i, shift])
    _check_finite(dense)
    return dense


def psi(m: MuCirculant) -> Circulant:
    """The untwisting isomorphism: coefficients rescaled by the weights.
    Raises InvalidScalarError when a product leaves the float range."""
    return _result(Circulant, _multiply(m.array, m.weights.array))


def psi_inv(c: Circulant, weights: MuWeights) -> MuCirculant:
    """Inverse of :func:`psi`: divide coefficients by the weights.  Raises
    InvalidScalarError when a quotient leaves the float range."""
    if c.n != weights.n:
        raise DimensionMismatchError(f"order {c.n} vs {weights.n} weights")
    return _mu_result(_divide(c.array, weights.array), weights)


def mu_mul(x: MuCirculant, y: MuCirculant) -> MuCirculant:
    """Product inside one twisted algebra, transported through psi: the
    circulant product psi(x) * psi(y), with its dispatch by order."""
    if not x.weights.matches(y.weights):
        raise IncompatibleAlgebrasError("operands have different twist weights")
    return psi_inv(psi(x) * psi(y), x.weights)


@dataclass(frozen=True)
class MuEigenDecomposition:
    """Spectrum in slot order plus the matrix whose j-th column is the
    eigenvector (1, mu_2 omega^(j-1), mu_3 omega^(2(j-1)), ...)."""

    spectrum: Spectrum
    vectors: np.ndarray


def mu_eigen(m: MuCirculant) -> MuEigenDecomposition:
    """Closed-form eigen decomposition read off the entries.  Raises
    InvalidScalarError when a part of a vector entry mu_k omega^((j-1)(k-1))
    leaves the float range, as it may where |mu_k| does although both
    parts of mu_k are finite."""
    spectrum = eigenvalues(psi(m))
    vectors = _multiply(m.weights.array[:, None], eigenvector_matrix(m.n))
    _check_finite(vectors)
    return MuEigenDecomposition(spectrum=spectrum, vectors=vectors)


def skew_circ(coeffs) -> MuCirculant:
    """scirc(c_1, ..., c_n): a circulant with every entry below the main
    diagonal negated, realized as circ(c; sigma, sigma^2, ..., sigma^(n-1)).
    An array row is taken as it is, any other iterable as its tuple."""
    if not isinstance(coeffs, np.ndarray):
        coeffs = tuple(coeffs)
    return MuCirculant(coeffs, _skew_weights(len(coeffs)))


def _skew_weights(n: int) -> MuWeights:
    """The weights (1, sigma, ..., sigma^(n-1)) of the skew circulants of
    order n, sigma = exp(i pi / n): exp(0) = 1 exactly, and every weight
    has modulus 1."""
    return _result(MuWeights, np.exp(1j * np.pi * np.arange(n) / n))


def mu_forms(m: MuCirculant) -> FormsVector:
    """Forms q_i = s_i(lambda_1, ..., lambda_n) of a twisted element, the
    forms of psi(m), so real (imaginary parts +0.0) when psi(m) is a
    real row; q_1 = n c_1 is still the trace and q_n the determinant."""
    return forms(psi(m))
