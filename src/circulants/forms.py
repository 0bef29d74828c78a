"""Characteristic forms q_1, ..., q_n of a circulant and their algebra.

Every circulant satisfies its characteristic polynomial
X^n - q_1 X^(n-1) + q_2 X^(n-2) - ... + (-1)^n q_n, where q_i is the
i-th elementary symmetric polynomial of the eigenvalues; q_1 = n*c_1 is
the trace form and q_n = det the norm form.  The q_i are computed from
power sums of the spectrum through Newton's identities

    k*s_k = sum_{i=1..k} (-1)^(i-1) s_{k-i} p_i,

not by expanding the dense characteristic polynomial.  The conjugate

    conj(x) = (-1)^(n+1) x^(n-1) + (-1)^n q_1(x) x^(n-2) + ... + q_{n-1}(x)

is the adjugate analogue: x * conj(x) = q_n(x) * 1, so the inverse is
conj(x) / q_n(x) whenever q_n(x) is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Circulant, identity, mul_naive
from .errors import SingularMatrixError
from .spectral import Spectrum, eigenvalues


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
    norm_form: complex
    threshold: float


def symmetric_tables(spectrum: Spectrum) -> SymmetricTables:
    """Power sums directly, elementary values by the Newton recurrence."""
    lam = spectrum.as_array()
    n = lam.size
    p = [complex(np.sum(lam**k)) for k in range(1, n + 1)]
    s = [1.0 + 0.0j]
    for k in range(1, n + 1):
        acc = 0.0 + 0.0j
        sign = 1.0
        for i in range(1, k + 1):
            acc += sign * s[k - i] * p[i - 1]
            sign = -sign
        s.append(acc / k)
    return SymmetricTables(power_sums=tuple(p), elementary=tuple(s))


def forms(c: Circulant) -> FormsVector:
    """q_i(x) = s_i(lambda_1, ..., lambda_n)."""
    tables = symmetric_tables(eigenvalues(c))
    return FormsVector(q=tables.elementary[1:])


def forms_of_spectrum(spectrum: Spectrum) -> FormsVector:
    """Forms of any element given its spectrum (shared with the twisted case)."""
    return FormsVector(q=symmetric_tables(spectrum).elementary[1:])


def char_poly_of_forms(f: FormsVector) -> tuple[complex, ...]:
    """Monic characteristic polynomial from the forms, descending powers:
    (1, -q_1, +q_2, ..., (-1)^n q_n)."""
    coeffs = [1.0 + 0.0j]
    sign = -1.0
    for qi in f.q:
        coeffs.append(sign * qi)
        sign = -sign
    return tuple(coeffs)


def char_poly(c: Circulant) -> tuple[complex, ...]:
    """Monic characteristic polynomial of c, descending powers."""
    return char_poly_of_forms(forms(c))


def conjugate(c: Circulant) -> Circulant:
    """Adjugate-analogue conj(x), by Horner accumulation of powers of x.

    conj(x) = sum_{i=0..n-1} (-1)^(n+1-i) q_i(x) x^(n-1-i) with q_0 = 1,
    requiring n-1 multiplications.  Satisfies x*conj(x) = q_n(x)*1.
    """
    n = c.n
    q = (1.0 + 0.0j,) + forms(c).q  # q[0] = q_0 = 1
    one = identity(n)
    sign = -1.0 if n % 2 == 0 else 1.0  # (-1)^(n+1)
    acc = sign * one
    for i in range(1, n):
        sign = -sign
        acc = mul_naive(acc, c) + (sign * q[i]) * one
    return acc


def singularity_threshold(c: Circulant) -> float:
    """|q_n| at or below this declares the matrix singular.

    The determinant scales like the n-th power of the norm, hence
    1e-9 * (1 + norm)^n.
    """
    return 1e-9 * (1.0 + c.norm_inf()) ** c.n


def is_invertible(c: Circulant, threshold: float | None = None) -> InvertibilityVerdict:
    """Invertibility via the norm form q_n (the determinant).

    When singular, the witness is a slot j whose eigenvalue
    p_C(omega^(j-1)) is (numerically) zero: the root-of-unity obstruction.
    """
    lam = eigenvalues(c).as_array()
    qn = complex(np.prod(lam))
    tol = singularity_threshold(c) if threshold is None else threshold
    if abs(qn) > tol:
        return InvertibilityVerdict(True, None, qn, tol)
    witness = int(np.argmin(np.abs(lam))) + 1
    return InvertibilityVerdict(False, witness, qn, tol)


def inverse(c: Circulant, threshold: float | None = None) -> Circulant:
    """x^(-1) = conj(x) / q_n(x); raises SingularMatrixError with the
    root-of-unity witness when q_n is below the singularity threshold."""
    verdict = is_invertible(c, threshold)
    if not verdict.invertible:
        raise SingularMatrixError(
            "singular circulant: representer vanishes at root-of-unity slot "
            f"j={verdict.witness} (|q_n|={abs(verdict.norm_form):.3e} <= {verdict.threshold:.3e})",
            witness=verdict.witness,
        )
    return conjugate(c).scale(1.0 / verdict.norm_form)
