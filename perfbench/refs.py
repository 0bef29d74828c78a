"""The benchmark's own references for every checked output.

Nothing here calls the package: float references use numpy's FFT,
``numpy.poly`` and dense algebra; exact references use the benchmark's
own cyclic convolution over Fractions.  Tolerances are fixed here, from
the error bounds of the reference algorithms, before any run.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: Entrywise error allowed on a spectrum or product, relative to the
#: 1-norm bound on its entries (an FFT's error is ~ eps * log2(n) of it).
TRANSFORM_RTOL = 1e-10
#: Coefficient error allowed on forms / characteristic polynomials,
#: relative to e_i(|lambda|); the product recurrence meets n * eps.
POLY_RTOL = 1e-8
#: Absolute uncertainty of any computed eigenvalue, relative to the
#: largest; it bounds how far e_i may move even when a factor is zero.
SPECTRUM_RTOL = 1e-12
#: Error allowed on a conjugate, relative to its largest eigenvalue.
CONJUGATE_RTOL = 1e-8
#: Error allowed on an inverse, relative to cond * max 1/|lambda_j|.
INVERSE_RTOL = 1e-9
#: An eigenvalue below this share of the largest one counts as zero.
SINGULAR_RTOL = 1e-10


# -- float references -----------------------------------------------------------

def spectrum(coeffs) -> np.ndarray:
    """lambda_j = sum_k c_k omega^((j-1)(k-1)) with omega = exp(2 pi i / n)."""
    c = np.asarray(coeffs, dtype=complex)
    return c.size * np.fft.ifft(c)


def coeffs_of(lam) -> np.ndarray:
    """Inverse of :func:`spectrum`."""
    lam = np.asarray(lam, dtype=complex)
    return np.fft.fft(lam) / lam.size


def cyclic_product(x, y) -> np.ndarray:
    return np.fft.ifft(np.fft.fft(np.asarray(x, dtype=complex)) * np.fft.fft(np.asarray(y, dtype=complex)))


def adjugate_spectrum(lam) -> np.ndarray:
    """mu_j = prod_{k != j} lambda_k, by prefix and suffix products."""
    lam = np.asarray(lam, dtype=complex)
    before = np.concatenate(([1.0 + 0.0j], np.cumprod(lam[:-1])))
    after = np.concatenate((np.cumprod(lam[::-1][:-1])[::-1], [1.0 + 0.0j]))
    return before * after


def zero_slots(lam) -> set[int]:
    """1-based slots whose eigenvalue counts as zero."""
    mag = np.abs(np.asarray(lam))
    return {int(j) + 1 for j in np.flatnonzero(mag <= SINGULAR_RTOL * mag.max())}


def max_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got, dtype=complex) - np.asarray(want, dtype=complex))))


def close(got, want, scale: float, rtol: float) -> bool:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return max_err(got, want) <= rtol * scale


def poly_close(got, lam) -> bool:
    """got ~ numpy.poly(lam), coefficient i within POLY_RTOL * e_i(|lambda|)
    plus the change of e_i(|lambda|) when every |lambda_j| grows by
    SPECTRUM_RTOL * max |lambda|."""
    got = np.asarray(got, dtype=complex)
    want = np.poly(np.asarray(lam, dtype=complex))
    mag = np.abs(np.asarray(lam))
    scale = np.poly(-mag)
    moved = np.poly(-(mag + SPECTRUM_RTOL * mag.max())) - scale
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return bool(np.all(np.abs(got - want) <= POLY_RTOL * scale + moved))


def forms_close(q, lam) -> bool:
    """q_i = (-1)^i * (coefficient i of the monic characteristic polynomial)."""
    signs = np.array([(-1) ** i for i in range(1, len(q) + 1)])
    return poly_close(np.concatenate(([1.0], signs * np.asarray(q, dtype=complex))), lam)


# -- exact references -----------------------------------------------------------

def conv_exact(x, y) -> tuple[Fraction, ...]:
    """Cyclic convolution of two exact first rows."""
    n = len(x)
    out = [Fraction(0)] * n
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[(i + j) % n] += xi * yj
    return tuple(out)


def powers_exact(c) -> list[tuple[Fraction, ...]]:
    """First rows of C^0, ..., C^n."""
    n = len(c)
    rows = [tuple(Fraction(int(k == 0)) for k in range(n))]
    for _ in range(n):
        rows.append(conv_exact(rows[-1], c))
    return rows


def char_poly_exact(c) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial, descending powers, from the traces
    tr(C^k) = n * (c^{*k})_0 and the exact Newton recurrence; checked by
    Cayley-Hamilton on the same powers."""
    n = len(c)
    rows = powers_exact(c)
    p = [n * rows[k][0] for k in range(1, n + 1)]
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    monic = tuple((-1) ** i * e[i] for i in range(n + 1))
    residual = [sum(monic[i] * rows[n - i][k] for i in range(n + 1)) for k in range(n)]
    if any(residual):
        raise ArithmeticError("reference characteristic polynomial fails Cayley-Hamilton")
    return monic


def forms_of_poly(monic) -> tuple[Fraction, ...]:
    return tuple((-1) ** i * monic[i] for i in range(1, len(monic)))


def poly_from_roots(roots) -> tuple[Fraction, ...]:
    out = [Fraction(1)]
    for r in roots:
        out = [a - r * b for a, b in zip(out + [Fraction(0)], [Fraction(0)] + out)]
    return tuple(out)


def det_exact(rows) -> Fraction:
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def matmul_exact(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def combine_exact(coefficients, rows) -> tuple[Fraction, ...]:
    """sum_i a_i * rows_i."""
    return tuple(sum(a * row[j] for a, row in zip(coefficients, rows)) for j in range(len(rows[0])))
