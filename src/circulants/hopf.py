"""Hopf structure carried by the circulant algebra.

The cyclic group algebra C[C_n] is a Hopf algebra on the basis
e_1, ..., e_n with grouplike comultiplication Delta(e_g) = e_g (x) e_g.
Pushed onto circulants (e_k = P^(k-1)) this gives

    counit      eps(C) = c_1 + ... + c_n,
    coproduct   Delta(C) = sum_k c_k P^(k-1) (x) P^(k-1),
    antipode    S(C) = C^T = circ(c_1, c_n, ..., c_2).

Delta(C) lives in C[C_n x C_n] = C[C_n] (x) C[C_n], and this module
computes with one form of its elements: the coefficient tensor T, where
T[a, b] is the coefficient of P^a (x) P^b (0-based powers), so that
Delta(C) has T = diag(c_1, ..., c_n).  The product of C[C_n x C_n] is
the 2-D cyclic convolution of coefficient tensors, which the 2-D DFT
diagonalises, and each axiom is a sum over T: (eps (x) id) Delta(C)
sums T over its first index, and m(S (x) id) Delta(C) sums T along its
wrapped diagonals.

Viewed as an n^2 x n^2 matrix, the element with tensor T is the block
circulant with circulant blocks B_k = circ(T[k]); for Delta(C) that is
circ(c_1 I, c_2 P, ..., c_n P^(n-1)), whose spectrum is the spectrum of
C with every eigenvalue repeated n times.  It is stored as its n
blocks; dense n^2 x n^2 expansion is for small-order verification only.

The factorization helpers decompose an arbitrary dense matrix uniquely
as sum a[i][k] * E_ii * P^(k-1) (diagonal times circulant).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Circulant
from .errors import DimensionMismatchError, InvalidOrderError, InvalidScalarError
from .spectral import eigenvalues


@dataclass(frozen=True)
class BlockCirculant:
    """n^2 x n^2 block circulant with circulant blocks B_1, ..., B_n.

    Block position (i, j) holds B_{j-i+1 mod n}; equivalently the matrix
    is sum_k P^(k-1) (x) B_k.
    """

    blocks: tuple[Circulant, ...]

    def __post_init__(self):
        n = len(self.blocks)
        if n == 0:
            raise InvalidOrderError("need at least one block")
        if any(b.n != n for b in self.blocks):
            raise DimensionMismatchError("block order must equal the number of blocks")

    @property
    def n(self) -> int:
        return len(self.blocks)

    def expand(self) -> np.ndarray:
        """Dense n^2 x n^2 form; O(n^4) memory, verification use only.

        Entry (i n + r, j n + s) is T[j - i mod n, s - r mod n]."""
        n = self.n
        shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        dense = self.coefficient_tensor()[shift[:, None, :, None], shift[None, :, None, :]]
        return dense.reshape(n * n, n * n)

    def coefficient_tensor(self) -> np.ndarray:
        """T[a, b] = coefficient of P^b inside block a, so that the matrix
        is sum_{a,b} T[a, b] P^a (x) P^b (0-based powers)."""
        return np.array([b.array for b in self.blocks])


@dataclass(frozen=True)
class HopfReport:
    axiom: str
    holds: bool
    residual: float


def _check_tol(tol: float):
    """Raise InvalidScalarError unless tol is a non-negative number; a
    negative or NaN tolerance would fail every check."""
    if not tol >= 0:
        raise InvalidScalarError(f"tolerance must be a non-negative number, got {tol!r}")


def counit(c: Circulant) -> complex:
    """eps(C) = c_1 + ... + c_n; multiplicative on circulants.  Raises
    InvalidScalarError when the sum leaves the float range."""
    eps = complex(sum(c.coeffs))
    if not cmath.isfinite(eps):
        raise InvalidScalarError("the counit leaves the float range")
    return eps


def comultiplication(c: Circulant) -> BlockCirculant:
    """Delta(C), the element with coefficient tensor diag(c_1, ..., c_n):
    blocks B_k = c_k * P^(k-1)."""
    return BlockCirculant(tuple(map(Circulant, np.diag(c.array))))


def antipode(c: Circulant) -> Circulant:
    """S(C) is the transpose; an involution and (anti)automorphism."""
    return c.transpose()


def block_mul(a: BlockCirculant, b: BlockCirculant) -> BlockCirculant:
    """Product in C[C_n x C_n]: the 2-D cyclic convolution of the two
    coefficient tensors, through the 2-D DFT."""
    if a.n != b.n:
        raise DimensionMismatchError(f"block orders differ: {a.n} vs {b.n}")
    spectra = np.fft.fft2(a.coefficient_tensor()) * np.fft.fft2(b.coefficient_tensor())
    return BlockCirculant(tuple(map(Circulant, np.fft.ifft2(spectra))))


def delta_spectrum(c: Circulant) -> tuple[complex, ...]:
    """Spectrum of Delta(C): every eigenvalue of C with multiplicity n."""
    return tuple(np.repeat(eigenvalues(c).array, c.n).tolist())


def verify_counit_axiom(c: Circulant, tol: float = 1e-10) -> HopfReport:
    """(eps (x) id) Delta(C) = C.  eps sends every P^a to 1, so the left
    side is the coefficient tensor of Delta(C) summed over its first index.
    Raises InvalidScalarError on a negative or NaN tol."""
    _check_tol(tol)
    t = comultiplication(c).coefficient_tensor()
    residual = float(np.max(np.abs(t.sum(axis=0) - c.array)))
    return HopfReport("counit", residual <= tol, residual)


def verify_antipode_axiom(c: Circulant, tol: float = 1e-10) -> HopfReport:
    """S(C_(1)) C_(2) = eps(C) I.  S (x) id then m send P^a (x) P^b to
    P^(b-a), so coefficient k of the left side is the sum of T[a, a+k mod n]
    over a.  Raises InvalidScalarError on a negative or NaN tol and when
    eps(C) leaves the float range."""
    _check_tol(tol)
    target = np.zeros(c.n, dtype=complex)
    target[0] = counit(c)
    # factorize_dense gathers T[a, a+k mod n] into row a, column k; the
    # sum down the columns adds c_1, ..., c_n in the order counit does.
    acc = factorize_dense(comultiplication(c).coefficient_tensor()).sum(axis=0)
    residual = float(np.max(np.abs(acc - target)))
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
    product = h * Circulant(np.ones(h.n))
    # np.hypot rounds each modulus like Python's abs(complex).
    d = product.array - eps
    with np.errstate(over="ignore"):
        residual = float(np.max(np.hypot(d.real, d.imag))) / (1.0 + norm)
    return HopfReport("integral", residual <= tol, residual)


def factorize_dense(a: np.ndarray) -> np.ndarray:
    """Coefficients of A in the diagonal-times-shift basis.

    A = sum_{i,k} grid[i][k] E_ii P^(k-1) forces
    grid[i][k] = A[i, i+k-1 mod n] (1-based); the factorization through
    diagonal and circulant matrices is unique and exact.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"square matrix required, got {a.shape}")
    n = a.shape[0]
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    return a[i, (i + k) % n]


def reconstruct_factorization(grid: np.ndarray) -> np.ndarray:
    """Inverse of :func:`factorize_dense`."""
    grid = np.asarray(grid, dtype=complex)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise DimensionMismatchError(f"square grid required, got {grid.shape}")
    n = grid.shape[0]
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return grid[i, (j - i) % n]


def coassociativity_tensors(c: Circulant) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tensors of (Delta (x) id) Delta(C) and (id (x) Delta) Delta(C)
    in the P^a (x) P^b (x) P^c basis; coassociativity makes them equal.

    Delta(P^a) = P^a (x) P^a, so Delta (x) id moves T[a, b] to slot
    (a, a, b) and id (x) Delta moves it to slot (a, b, b)."""
    t = comultiplication(c).coefficient_tensor()
    n = c.n
    k = np.arange(n)
    left = np.zeros((n, n, n), dtype=complex)
    right = np.zeros((n, n, n), dtype=complex)
    left[k, k, :] = t
    right[:, k, k] = t
    return left, right
