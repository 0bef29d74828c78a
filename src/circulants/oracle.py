"""Independent reference computations used to validate the other modules.

Nothing here calls into the circulant modules; inputs are plain numpy
arrays or grids of Fractions.  These run at desk scale only (n <= 64
floating, n <= 16 exact, n <= 32 for the dense Hopf tensors; the
transform up to about a thousand).  One hand-rolled transform, the
O(n^2) direct DFT that evaluates the definition at every order, checks
the numpy.fft path of `spectral`; the dense coefficient tensors of
C[C_n x C_n] check the support form of `hopf`; a loop over the cocycle
triples checks `twisted.verify_cocycle`; the Brandt predicate walked
probe by probe on characteristic polynomials checks
`lattice.brandt_check`; closed forms at orders 3 and 4 check `forms`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, InvalidVectorError, SingularMatrixError


def closed_forms_n3(row) -> tuple[complex, complex, complex]:
    """Hard-coded (q_1, q_2, q_3) of circ(c_1, c_2, c_3), from its row."""
    c1, c2, c3 = row
    return (
        3 * c1,
        3 * c1**2 - 3 * c2 * c3,
        c1**3 + c2**3 + c3**3 - 3 * c1 * c2 * c3,
    )


def closed_forms_n4(row) -> tuple[complex, complex, complex, complex]:
    """Hard-coded (q_1, ..., q_4) of circ(c_1, ..., c_4), from its row."""
    c1, c2, c3, c4 = row
    return (
        4 * c1,
        6 * c1**2 - 4 * c2 * c4 - 2 * c3**2,
        4 * c1**3 - 8 * c1 * c2 * c4 - 4 * c1 * c3**2 + 4 * c2**2 * c3 + 4 * c3 * c4**2,
        c1**4
        - c2**4
        + c3**4
        - c4**4
        - 2 * c1**2 * c3**2
        - 4 * c1**2 * c2 * c4
        + 4 * c1 * c2**2 * c3
        + 4 * c1 * c3 * c4**2
        + 2 * c2**2 * c4**2
        - 4 * c2 * c3**2 * c4,
    )


def _dft_direct(vec: np.ndarray, sign: int) -> np.ndarray:
    # O(n^2) evaluation of the definition; sign +1 evaluates at the omega
    # powers (the eigenvalue convention), -1 at their conjugates.  The
    # exponents are reduced mod n to keep the phases clean.
    n = vec.size
    k = np.arange(n)
    table = np.exp(sign * 2j * np.pi / n * ((k[:, None] * k[None, :]) % n))
    return table @ vec.astype(complex)


def faddeev_leverrier(a: np.ndarray) -> tuple[complex, ...]:
    """Monic characteristic polynomial by the trace recurrence, O(n^4).

    Returns coefficients in descending powers: (1, m_1, ..., m_n) for
    X^n + m_1 X^(n-1) + ... + m_n.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"square matrix required, got {a.shape}")
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    c = 1.0 + 0.0j  # c_0: M_1 = A (M_0 + c_0 I) = A
    for k in range(1, n + 1):
        m = a @ (m + c * eye)
        c = -np.trace(m) / k
        coeffs.append(complex(c))
    return tuple(coeffs)


def faddeev_leverrier_exact(grid) -> tuple[Fraction, ...]:
    """Exact-rational variant of the trace recurrence, run in integers.

    With A = B/L (B integral, L the lcm of the denominators), M_k = N_k / L^k
    and c_k = e_k / L^k, where N_k = B (N_{k-1} + e_{k-1} I) is integral and
    e_k = -tr(N_k) / k is the integer coefficient of B's characteristic
    polynomial, so the division is exact.
    """
    rows = [[Fraction(x) for x in row] for row in grid]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("square grid required")
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    b = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    coeffs = [Fraction(1)]
    m = [[0] * n for _ in range(n)]
    e = 1
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += e
        columns = list(zip(*m))
        m = [[sum(map(operator.mul, row, col)) for col in columns] for row in b]
        e = -sum(m[i][i] for i in range(n)) // k
        coeffs.append(Fraction(e, scale**k))
    return tuple(coeffs)


def exact_det(grid) -> Fraction:
    """Determinant by fraction elimination with row pivoting."""
    rows = [[Fraction(x) for x in row] for row in grid]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("square grid required")
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        pivot = rows[k][k]
        det *= pivot
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return det


def exact_inverse(grid) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse by Gauss-Jordan over Fractions on [A | I], each column
    pivoted on its first nonzero entry at or below the diagonal."""
    rows = [[Fraction(x) for x in row] for row in grid]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("square grid required")
    aug = [rows[i] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("exact determinant is zero")
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        inv_pivot = 1 / aug[k][k]
        aug[k] = [x * inv_pivot for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                factor = aug[i][k]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[k])]
    return tuple(tuple(row[n:]) for row in aug)


def _forms_of_row(row) -> tuple[Fraction, ...]:
    """(q_1, ..., q_n) of the circulant with this rational first row, read
    off the exact characteristic polynomial of its dense matrix:
    q_i = (-1)^i * (coefficient of X^(n-i))."""
    n = len(row)
    monic = faddeev_leverrier_exact([[row[(j - i) % n] for j in range(n)] for i in range(n)])
    return tuple(-monic[i] if i % 2 else monic[i] for i in range(1, n + 1))


def brandt_check_by_forms(rows, forms=_forms_of_row):
    """The integral Brandt predicate by its definition, on first rows of
    rationals: for every ordered pair (a, b), including a = b, the forms
    q_1..q_n of a, b, a + b and the cyclic product ab, probed in that
    order, must be integers.  Returns None when they all are, else the
    first fractional form as ((ia, ib), combination, form_index, value),
    combination one of 'a', 'b', 'a+b', 'ab'.

    `forms` maps a row (a tuple of Fractions) to (q_1, ..., q_n); the
    default takes them from `faddeev_leverrier_exact`, O(n^4).  Every
    element's forms are taken first, and those of a + b and ab once per
    unordered pair, since both commute."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("all rows must share one order")
    single = [forms(row) for row in rows]
    combined: dict[tuple[int, int], tuple] = {}
    for ia, a in enumerate(rows):
        for ib, b in enumerate(rows):
            key = (min(ia, ib), max(ia, ib))
            if key not in combined:
                plus = tuple(map(operator.add, a, b))
                times = tuple(
                    sum(a[i] * b[(k - i) % n] for i in range(n)) for k in range(n)
                )
                combined[key] = (forms(plus), forms(times))
            plus_forms, times_forms = combined[key]
            probes = (("a", single[ia]), ("b", single[ib]), ("a+b", plus_forms), ("ab", times_forms))
            for label, q in probes:
                for i, qi in enumerate(q, start=1):
                    if qi.denominator != 1:
                        return (ia, ib), label, i, qi
    return None


def coproduct_tensor(row) -> np.ndarray:
    """The coefficient tensor T of Delta(c) for the first row c, where
    T[a, b] multiplies P^a (x) P^b: Delta(P^k) = P^k (x) P^k, so
    T = diag(c).  n^2 entries."""
    return np.diag(np.asarray(row, dtype=complex))


def group_tensor_product(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Product in C[C_n x C_n] from its definition: P^c (x) P^d times
    P^a (x) P^b is P^(a+c) (x) P^(b+d), so the product tensor is the 2-D
    cyclic convolution sum_{c,d} s[c, d] t[a - c, b - d]; O(n^4) time
    and memory."""
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape != t.shape:
        raise DimensionMismatchError(f"shapes {s.shape} and {t.shape} are not one square shape")
    n = s.shape[0]
    k = np.arange(n)
    shift = (k[:, None] - k[None, :]) % n  # shift[a, c] = a - c mod n
    return np.einsum("cd,acbd->ab", s, t[shift[:, :, None, None], shift[None, None, :, :]])


def tensor_counit_image(t: np.ndarray) -> np.ndarray:
    """(eps (x) id) of the element with tensor t: the sum over a of t[a, b]."""
    return np.asarray(t, dtype=complex).sum(axis=0)


def tensor_antipode_image(t: np.ndarray) -> np.ndarray:
    """m(S (x) id) of the element with tensor t: P^a (x) P^b goes to
    P^(b-a), so coefficient k is the sum over a of t[a, a + k mod n]."""
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    a = np.arange(n)[:, None]
    return t[a, (a + np.arange(n)[None, :]) % n].sum(axis=0)


def coassociativity_tensors(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense tensors of (Delta (x) id) and (id (x) Delta) applied to the
    element with tensor t, in the P^a (x) P^b (x) P^c basis:
    Delta(P^a) = P^a (x) P^a moves t[a, b] to slot (a, a, b), and to slot
    (a, b, b).  n^3 entries."""
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    k = np.arange(n)
    left = np.zeros((n, n, n), dtype=complex)
    right = np.zeros((n, n, n), dtype=complex)
    left[k, k, :] = t
    right[:, k, k] = t
    return left, right


def cocycle_residual(t) -> float:
    """Worst deviation of the n x n rows t of Python complex numbers from a
    normalized two-cocycle, in Python arithmetic: max |t - 1| on the first
    row and column, and max |lhs - rhs| / max(|lhs|, |rhs|) over all
    triples, lhs = t[x][y] t[x+y][z] and rhs = t[y][z] t[x][y+z] (mod n)."""
    n = len(t)
    worst = 0.0
    for i in range(n):
        worst = max(worst, abs(t[0][i] - 1.0), abs(t[i][0] - 1.0))
    for x in range(n):
        for y in range(n):
            xy = (x + y) % n
            f_xy = t[x][y]
            for z in range(n):
                lhs = f_xy * t[xy][z]
                rhs = t[y][z] * t[x][(y + z) % n]
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return worst


def eigen_residual(a: np.ndarray, lam: complex, x: np.ndarray) -> float:
    """Scale-aware residual ||A x - lam x||_inf / (1 + ||A||_inf ||x||_inf)."""
    a = np.asarray(a, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or x.shape != (a.shape[0],):
        raise DimensionMismatchError(f"shapes {a.shape} and {x.shape} do not agree")
    if not np.any(x):
        raise InvalidVectorError("eigenvector candidate is identically zero")
    residual = np.max(np.abs(a @ x - lam * x))
    a_norm = np.max(np.sum(np.abs(a), axis=1))
    x_norm = np.max(np.abs(x))
    return float(residual / (1.0 + a_norm * x_norm))


def greedy_multiset_match(left, right, tol: float) -> float | None:
    """Greedy nearest-neighbour pairing of two complex multisets.

    Returns the largest paired distance, or None if some value cannot be
    matched within tol (a failed matching must never pass silently).
    """
    left = [complex(v) for v in left]
    remaining = [complex(v) for v in right]
    if len(left) != len(remaining):
        return None
    worst = 0.0
    for v in left:
        dists = [abs(v - w) for w in remaining]
        best = int(np.argmin(dists))
        if dists[best] > tol:
            return None
        worst = max(worst, dists[best])
        remaining.pop(best)
    return worst
