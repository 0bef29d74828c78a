"""Hopf structure carried by the circulant algebra.

The cyclic group algebra C[C_n] is a Hopf algebra on the basis
e_1, ..., e_n with grouplike comultiplication Delta(e_g) = e_g (x) e_g.
Pushed onto circulants (e_k = P^(k-1)) this gives

    counit      eps(C) = c_1 + ... + c_n,
    coproduct   Delta(C) = sum_k c_k P^(k-1) (x) P^(k-1),
    antipode    S(C) = C^T = circ(c_1, c_n, ..., c_2).

Delta(C) lives in C[C_n x C_n] = C[C_n] (x) C[C_n], and this module
stores an element of it as its support: index arrays a, b and values v,
the element sum_i v_i P^(a_i) (x) P^(b_i) (0-based powers).  Delta(C) is
the diagonal support (k, k, c_k): n coefficients, not n^2.  Each axiom
is a push-forward of the support: (eps (x) id) sends P^a (x) P^b to P^b,
and m(S (x) id) sends it to P^(b-a), so both are one `np.bincount` over
the real and one over the imaginary parts.  The product of two diagonal
supports is the product of C[C_n] on their diagonals (Delta is an
algebra map); any other product is the 2-D cyclic convolution of the
coefficient tensors, which the 2-D DFT diagonalises.

Viewed as an n^2 x n^2 matrix, the element with coefficient tensor T
(T[a, b] the coefficient of P^a (x) P^b) is the block circulant with
circulant blocks B_k = circ(T[k]); for Delta(C) that is
circ(c_1 I, c_2 P, ..., c_n P^(n-1)), whose spectrum is the spectrum of
C with every eigenvalue repeated n times.  The tensor, the blocks and
the dense n^2 x n^2 expansion are derived from the support on demand.

The factorization helpers decompose an arbitrary dense matrix uniquely
as sum a[i][k] * E_ii * P^(k-1) (diagonal times circulant).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .base import _Frozen
from .core import Circulant, _check_finite, _check_tol, _entries, _moduli, _quiet, _result, _shift
from .errors import DimensionMismatchError, InvalidOrderError, InvalidScalarError
from .spectral import eigenvalues


class BlockCirculant(_Frozen):
    """An element of C[C_n x C_n], stored as its support: read-only index
    arrays `a`, `b` and the complex `values`, for the element
    sum_i values[i] P^(a[i]) (x) P^(b[i]).  The pairs (a[i], b[i]) are
    distinct and in increasing order.

    As a matrix it is the n^2 x n^2 block circulant with circulant blocks
    B_1, ..., B_n: block position (i, j) holds B_{j-i+1 mod n}, and the
    matrix is sum_k P^(k-1) (x) B_k.  `BlockCirculant(blocks)` builds it
    from those blocks (every pair (a, b) in the support); `blocks`,
    `coefficient_tensor()` and `expand()` are derived from the support,
    and an element pickles as its support.
    """

    __slots__ = ("n", "a", "b", "values")

    def __new__(cls, blocks):
        blocks = tuple(blocks)
        n = len(blocks)
        if n == 0:
            raise InvalidOrderError("need at least one block")
        if any(block.n != n for block in blocks):
            raise DimensionMismatchError("block order must equal the number of blocks")
        a, b = np.divmod(np.arange(n * n), n)
        return cls._from_support(n, a, b, np.array([block.array for block in blocks]).ravel())

    @classmethod
    def _from_support(
        cls, n: int, a: np.ndarray, b: np.ndarray, values: np.ndarray
    ) -> "BlockCirculant":
        """The element sum_i values[i] P^(a[i]) (x) P^(b[i]) of order n, from
        validated arrays, which it makes read-only and keeps."""
        for value in (a, b, values):
            value.setflags(write=False)
        x = object.__new__(cls)
        for name, value in zip(cls.__slots__, (n, a, b, values)):
            getattr(cls, name).__set__(x, value)
        return x

    @property
    def blocks(self) -> tuple[Circulant, ...]:
        """The n blocks B_k = circ(T[k - 1]); O(n^2)."""
        return tuple(_result(Circulant, row) for row in self.coefficient_tensor())

    def coefficient_tensor(self) -> np.ndarray:
        """T[a, b] = coefficient of P^b inside block a, so that the matrix
        is sum_{a,b} T[a, b] P^a (x) P^b (0-based powers); O(n^2)."""
        t = np.zeros((self.n, self.n), dtype=complex)
        t[self.a, self.b] = self.values
        return t

    def expand(self) -> np.ndarray:
        """Dense n^2 x n^2 form; O(n^4) memory, verification use only.

        Entry (i n + r, j n + s) is T[j - i mod n, s - r mod n]."""
        n = self.n
        shift = _shift(n)
        dense = self.coefficient_tensor()[shift[:, None, :, None], shift[None, :, None, :]]
        return dense.reshape(n * n, n * n)

    def _diagonal_row(self) -> np.ndarray | None:
        """(T[0, 0], ..., T[n-1, n-1]) when the support lies on the
        diagonal, else None."""
        if not np.array_equal(self.a, self.b):
            return None
        row = np.zeros(self.n, dtype=complex)
        row[self.a] = self.values
        return row

    def _key(self) -> tuple:
        """The order and the nonzero support: equal elements have the same
        order and the same nonzero coefficients (-0.0 equals 0.0, as in the
        tensors)."""
        keep = self.values != 0
        index = self.a[keep] * self.n + self.b[keep]
        return self.n, tuple(index.tolist()), tuple(self.values[keep].tolist())

    def __reduce__(self):
        return BlockCirculant._from_support, (self.n, self.a, self.b, self.values)

    def __repr__(self) -> str:
        return f"BlockCirculant(blocks={self.blocks!r})"


@dataclass(frozen=True)
class HopfReport:
    axiom: str
    holds: bool
    residual: float


def counit(c: Circulant) -> complex:
    """eps(C) = c_1 + ... + c_n; multiplicative on circulants.  Raises
    InvalidScalarError when the sum leaves the float range."""
    eps = complex(sum(c.array.tolist()))
    if not cmath.isfinite(eps):
        raise InvalidScalarError("the counit leaves the float range")
    return eps


def comultiplication(c: Circulant) -> BlockCirculant:
    """Delta(C), the diagonal support (k, k, c_(k+1)), k = 0..n-1: the
    element with coefficient tensor diag(c_1, ..., c_n)."""
    k = np.arange(c.n)
    return BlockCirculant._from_support(c.n, k, k, c.array)


def antipode(c: Circulant) -> Circulant:
    """S(C) is the transpose; an involution and (anti)automorphism."""
    return c.transpose()


def block_mul(x: BlockCirculant, y: BlockCirculant) -> BlockCirculant:
    """Product in C[C_n x C_n].  Two diagonal supports multiply as
    Delta(u) Delta(v) = Delta(u v): one product of circulants on the
    diagonals.  Any other pair is the 2-D cyclic convolution of the two
    coefficient tensors, through the 2-D DFT."""
    if x.n != y.n:
        raise DimensionMismatchError(f"block orders differ: {x.n} vs {y.n}")
    u, v = x._diagonal_row(), y._diagonal_row()
    if u is not None and v is not None:
        return comultiplication(_result(Circulant, u) * _result(Circulant, v))
    product = _convolve2(x.coefficient_tensor(), y.coefficient_tensor()).ravel()
    _check_finite(product)
    a, b = np.divmod(np.arange(x.n * x.n), x.n)
    return BlockCirculant._from_support(x.n, a, b, product)


@_quiet
def _convolve2(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The 2-D cyclic convolution of two coefficient tensors, through the
    2-D DFT, without numpy's warnings: an entry beyond the float range
    comes out inf or nan, which `block_mul` refuses."""
    return np.fft.ifft2(np.fft.fft2(s) * np.fft.fft2(t))


def delta_spectrum(c: Circulant) -> tuple[complex, ...]:
    """Spectrum of Delta(C): every eigenvalue of C with multiplicity n."""
    return tuple(np.repeat(eigenvalues(c).array, c.n).tolist())


def _push_forward(x: BlockCirculant, power: np.ndarray) -> np.ndarray:
    """Coefficients of the image of x under the linear map that sends the
    support's i-th basis element P^(a_i) (x) P^(b_i) to P^(power[i]).
    np.bincount adds the real and the imaginary parts in support order."""
    out = np.empty(x.n, dtype=complex)
    out.real = np.bincount(power, weights=x.values.real, minlength=x.n)
    out.imag = np.bincount(power, weights=x.values.imag, minlength=x.n)
    return out


def counit_image(x: BlockCirculant) -> np.ndarray:
    """(eps (x) id)(x): eps sends every P^a to 1, so coefficient b is the
    sum of x's coefficients at (a, b) over a."""
    return _push_forward(x, x.b)


def antipode_image(x: BlockCirculant) -> np.ndarray:
    """m(S (x) id)(x): S (x) id then m send P^a (x) P^b to P^(b-a), so
    coefficient k is the sum of x's coefficients at (a, a+k mod n) over a."""
    return _push_forward(x, (x.b - x.a) % x.n)


def verify_counit_axiom(c: Circulant, tol: float = 1e-10) -> HopfReport:
    """(eps (x) id) Delta(C) = C, in O(n).  Raises InvalidScalarError on a
    negative or NaN tol."""
    _check_tol(tol)
    residual = float(np.max(np.abs(counit_image(comultiplication(c)) - c.array)))
    return HopfReport("counit", residual <= tol, residual)


def verify_antipode_axiom(c: Circulant, tol: float = 1e-10) -> HopfReport:
    """S(C_(1)) C_(2) = eps(C) I, in O(n).  Raises InvalidScalarError on a
    negative or NaN tol and when eps(C) leaves the float range."""
    _check_tol(tol)
    target = np.zeros(c.n, dtype=complex)
    target[0] = counit(c)
    # Coefficient 0 of the image adds c_1, ..., c_n in the order counit does.
    residual = float(np.max(np.abs(antipode_image(comultiplication(c)) - target)))
    return HopfReport("antipode", residual <= tol, residual)


def integral_check(h: Circulant, tol: float = 1e-10) -> HopfReport:
    """The all-ones circulant absorbs multiplication: h * J = eps(h) * J,
    equivalently eps(h) is an eigenvalue with eigenvector (1, ..., 1).
    The residual is max_k |(h * J)_k - eps(h)| / (1 + ||h||_inf).  Raises
    InvalidScalarError on a negative or NaN tol and when eps(h) or the
    norm of h leaves the float range."""
    _check_tol(tol)
    eps = counit(h)
    norm = h.norm_inf()
    if norm == math.inf:
        raise InvalidScalarError("the norm of h leaves the float range")
    product = h * _result(Circulant, np.ones(h.n, dtype=complex))
    residual = float(np.max(_moduli(product.array - eps))) / (1.0 + norm)
    return HopfReport("integral", residual <= tol, residual)


def factorize_dense(a: np.ndarray) -> np.ndarray:
    """Coefficients of A in the diagonal-times-shift basis.

    A = sum_{i,k} grid[i][k] E_ii P^(k-1) forces
    grid[i][k] = A[i, i+k-1 mod n] (1-based); the factorization through
    diagonal and circulant matrices is unique and exact.

    The entries pass the package's entry rule: InvalidScalarError on a
    ragged, non-numeric, non-finite or beyond-float-range entry,
    InvalidOrderError on an empty matrix and DimensionMismatchError on one
    that is not square.
    """
    a = _entries(a, None)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"square matrix required, got {a.shape}")
    n = a.shape[0]
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    return a[i, (i + k) % n]


def reconstruct_factorization(grid: np.ndarray) -> np.ndarray:
    """Inverse of :func:`factorize_dense`, with its refusals."""
    grid = _entries(grid, None)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise DimensionMismatchError(f"square grid required, got {grid.shape}")
    n = grid.shape[0]
    return grid[np.arange(n)[:, None], _shift(n)]


def coassociativity_tensors(
    c: Circulant,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Supports of (Delta (x) id) Delta(C) and (id (x) Delta) Delta(C) in
    the P^a (x) P^b (x) P^c basis, each as index arrays and values
    (a, b, c, v); coassociativity makes them equal, entry for entry.

    Delta(P^a) = P^a (x) P^a, so Delta (x) id moves the coefficient at
    (a, b) to (a, a, b) and id (x) Delta moves it to (a, b, b): O(n) for
    the diagonal support of Delta(C).  `oracle.coassociativity_tensors`
    builds the dense n^3 tensors."""
    x = comultiplication(c)
    return (x.a, x.a, x.b, x.values), (x.a, x.b, x.b, x.values)
