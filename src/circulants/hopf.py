"""Hopf structure carried by the circulant algebra.

The cyclic group algebra is a Hopf algebra on the basis e_1, ..., e_n
with grouplike comultiplication; pushed onto circulants this gives

    counit      eps(C) = c_1 + ... + c_n,
    coproduct   Delta(C) = sum_k c_k P^(k-1) (x) P^(k-1),
    antipode    S(C) = C^T = circ(c_1, c_n, ..., c_2).

Viewed as an n^2 x n^2 matrix, Delta(C) is the block circulant with
circulant blocks circ(c_1 I, c_2 P, ..., c_n P^(n-1)), and its spectrum
is the spectrum of C with every eigenvalue repeated n times.  Delta(C)
is stored structurally as its n blocks; dense n^2 x n^2 expansion is for
small-order verification only.

The factorization helpers decompose an arbitrary dense matrix uniquely
as sum a[i][k] * E_ii * P^(k-1) (diagonal times circulant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Circulant, fundamental, identity, mul_naive
from .errors import DimensionMismatchError, InvalidOrderError
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
        """Dense n^2 x n^2 form; O(n^4) memory, verification use only."""
        n = self.n
        dense_blocks = [b.to_dense() for b in self.blocks]
        out = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                out[i * n : (i + 1) * n, j * n : (j + 1) * n] = dense_blocks[(j - i) % n]
        return out

    def coefficient_tensor(self) -> np.ndarray:
        """T[a, b] = coefficient of P^b inside block a, so that the matrix
        is sum_{a,b} T[a, b] P^a (x) P^b (0-based powers)."""
        return np.array([b.array for b in self.blocks])


@dataclass(frozen=True)
class HopfReport:
    axiom: str
    holds: bool
    residual: float


def counit(c: Circulant) -> complex:
    """eps(C) = c_1 + ... + c_n; multiplicative on circulants."""
    return complex(sum(c.coeffs))


def comultiplication(c: Circulant) -> BlockCirculant:
    """Delta(C) with blocks B_k = c_k * P^(k-1)."""
    n = c.n
    blocks = []
    for k, ck in enumerate(c.coeffs):
        row = [0.0 + 0.0j] * n
        row[k] = ck
        blocks.append(Circulant(tuple(row)))
    return BlockCirculant(tuple(blocks))


def antipode(c: Circulant) -> Circulant:
    """S(C) is the transpose; an involution and (anti)automorphism."""
    return c.transpose()


def block_mul(a: BlockCirculant, b: BlockCirculant) -> BlockCirculant:
    """Product of block circulants: cyclic convolution at the block level."""
    if a.n != b.n:
        raise DimensionMismatchError(f"block orders differ: {a.n} vs {b.n}")
    n = a.n
    zero = Circulant((0.0 + 0.0j,) * n)
    out = [zero] * n
    for i, ai in enumerate(a.blocks):
        for j, bj in enumerate(b.blocks):
            k = (i + j) % n
            out[k] = out[k] + mul_naive(ai, bj)
    return BlockCirculant(tuple(out))


def delta_spectrum(c: Circulant) -> tuple[complex, ...]:
    """Spectrum of Delta(C): every eigenvalue of C with multiplicity n."""
    values: list[complex] = []
    for lam in eigenvalues(c).values:
        values.extend([lam] * c.n)
    return tuple(values)


def verify_counit_axiom(c: Circulant, tol: float = 1e-10) -> HopfReport:
    """(eps (x) id) Delta(C) = C, i.e. sum_k c_k P^(k-1) reproduces C."""
    n = c.n
    p = fundamental(n)
    power = identity(n)
    acc = c.coeffs[0] * power
    for k in range(1, n):
        power = mul_naive(power, p)
        acc = acc + c.coeffs[k] * power
    residual = max(abs(a - b) for a, b in zip(acc.coeffs, c.coeffs))
    return HopfReport("counit", residual <= tol, residual)


def verify_antipode_axiom(c: Circulant, tol: float = 1e-10) -> HopfReport:
    """S(C_(1)) C_(2) = eps(C) I, evaluated as sum_k c_k Q^(k-1) P^(k-1)
    with Q = P^T the inverse shift."""
    n = c.n
    p = fundamental(n)
    q = p.transpose()
    p_power = identity(n)
    q_power = identity(n)
    acc = c.coeffs[0] * mul_naive(q_power, p_power)
    for k in range(1, n):
        p_power = mul_naive(p_power, p)
        q_power = mul_naive(q_power, q)
        acc = acc + c.coeffs[k] * mul_naive(q_power, p_power)
    target = counit(c) * identity(n)
    residual = max(abs(a - b) for a, b in zip(acc.coeffs, target.coeffs))
    return HopfReport("antipode", residual <= tol, residual)


def integral_check(h: Circulant, tol: float = 1e-10) -> HopfReport:
    """The all-ones circulant absorbs multiplication: h * J = eps(h) * J,
    equivalently eps(h) is an eigenvalue with eigenvector (1, ..., 1)."""
    n = h.n
    ones = Circulant((1.0 + 0.0j,) * n)
    product = mul_naive(h, ones)
    eps = counit(h)
    residual = max(abs(a - eps) for a in product.coeffs) / (1.0 + h.norm_inf())
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


def _basis_delta_tensors(n: int) -> np.ndarray:
    # D[a] is the coefficient tensor of Delta applied to the basis
    # circulant with a single 1 in slot a.
    out = np.zeros((n, n, n), dtype=complex)
    for a in range(n):
        row = [0.0 + 0.0j] * n
        row[a] = 1.0 + 0.0j
        out[a] = comultiplication(Circulant(tuple(row))).coefficient_tensor()
    return out


def coassociativity_tensors(c: Circulant) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tensors of (Delta (x) id) Delta(C) and (id (x) Delta) Delta(C)
    in the P^a (x) P^b (x) P^c basis; coassociativity makes them equal."""
    t = comultiplication(c).coefficient_tensor()
    basis = _basis_delta_tensors(c.n)
    left = np.einsum("axy,ab->xyb", basis, t)
    right = np.einsum("ab,bxy->axy", t, basis)
    return left, right
