"""Exact integer/rational analysis of circulants.

Everything here runs over arbitrary-precision rationals: characteristic
polynomials, Brandt-style integrality predicates on the forms q_i,
lattice bases of circulants and exact membership decompositions.

Circulants of order n are the group algebra of the cyclic group C_n, so
tr(C^k) is n times the identity coefficient of the k-th convolution
power of the first row.  The exact characteristic polynomial is built
from these traces alone: clear the row's denominators once (d = L*c),
take the powers d^{*k}, k = 1..n, by exact cyclic convolution over
Python ints, and run Newton's identities in integers.  That is O(n^3)
integer operations on the first row, never the dense n x n matrix.

Floating point appears in exactly two places, both forced by the
irrationality of omega: seeding exact roots and matching them to
eigenvalue slots, and rebuilding coefficients from a prescribed integer/rational spectrum.

A lattice here is Z v_1 + ... + Z v_n for independent circulants
v_i = c_i1 I + c_i2 P + ... + c_in P^(n-1); when the coefficient matrix
has an integral exact inverse, every integral circulant is a member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Circulant
from .errors import (
    DependentBasisError,
    DimensionMismatchError,
    InvalidOrderError,
    InvalidScalarError,
    NotIntegralBasisError,
    RootAssignmentError,
)
from .spectral import eigenvalues, from_spectrum

Rational = Fraction

#: Exact roots are matched to floating eigenvalue slots within this.
_SLOT_MATCH_TOL = 1e-6


def _as_rational(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidScalarError(
            f"refusing float {value!r} in exact arithmetic; pass int, Fraction or 'p/q'"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise InvalidScalarError(f"cannot use {value!r} as a rational entry") from exc


@dataclass(frozen=True)
class RationalCirculant:
    """Circulant with exact rational first row."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise InvalidOrderError("a circulant needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(_as_rational(c) for c in self.coeffs))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def to_exact_dense(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.n
        return tuple(
            tuple(self.coeffs[(j - i) % n] for j in range(n)) for i in range(n)
        )

    def to_float(self) -> Circulant:
        return Circulant(self.coeffs)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __add__(self, other: "RationalCirculant") -> "RationalCirculant":
        if not isinstance(other, RationalCirculant):
            return NotImplemented
        _check_orders(self, other)
        return RationalCirculant(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "RationalCirculant") -> "RationalCirculant":
        if not isinstance(other, RationalCirculant):
            return NotImplemented
        _check_orders(self, other)
        n = self.n
        out = [Fraction(0)] * n
        for i, xi in enumerate(self.coeffs):
            if xi:
                for j, yj in enumerate(other.coeffs):
                    out[(i + j) % n] += xi * yj
        return RationalCirculant(tuple(out))


def _check_orders(x: RationalCirculant, y: RationalCirculant):
    if x.n != y.n:
        raise DimensionMismatchError(f"orders differ: {x.n} vs {y.n}")


def rational_circ(*coeffs) -> RationalCirculant:
    if len(coeffs) == 1 and isinstance(coeffs[0], (list, tuple)):
        coeffs = tuple(coeffs[0])
    return RationalCirculant(tuple(coeffs))


def _cleared(c: RationalCirculant) -> tuple[int, list[int]]:
    """(L, d): L is the lcm of the row's denominators and d = L*c, an
    integer row."""
    scale = math.lcm(*(x.denominator for x in c.coeffs))
    return scale, [x.numerator * (scale // x.denominator) for x in c.coeffs]


def exact_char_poly(c: RationalCirculant) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial with exact coefficients, descending
    powers, from the traces of the convolution powers.

    With d = L*c integral, p_k = tr(D^k) = n * (d^{*k})_0, each power one
    exact cyclic convolution over Python ints (zero entries of d are
    skipped).  Newton's identities k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i
    then run in integers: D is an integer matrix, so its characteristic
    polynomial is integral and every division by k is exact.  The
    coefficient of X^(n-i) is (-1)^i e_i / L^i.  O(n^3) integer operations.
    """
    n = c.n
    scale, d = _cleared(c)
    support = [(i, v) for i, v in enumerate(d) if v]
    power = [1] + [0] * (n - 1)
    traces = []
    for _ in range(n):
        nxt = [0] * n
        for i, v in support:
            # Adds v * P^i * power: entry k gains v * power[k - i].
            nxt = [acc + v * w for acc, w in zip(nxt, power[n - i:] + power[: n - i])]
        power = nxt
        traces.append(n * power[0])
    e = [1]
    for k in range(1, n + 1):
        total = 0
        for i in range(1, k + 1):
            term = e[k - i] * traces[i - 1]
            total += term if i % 2 else -term
        e.append(total // k)
    return tuple(Fraction(-e[i] if i % 2 else e[i], scale**i) for i in range(n + 1))


def forms_exact(c: RationalCirculant) -> tuple[Fraction, ...]:
    """(q_1, ..., q_n) read off the exact characteristic polynomial:
    q_i = (-1)^i * (coefficient of X^(n-i))."""
    monic = exact_char_poly(c)
    return tuple((-1) ** i * monic[i] for i in range(1, len(monic)))


@dataclass(frozen=True)
class IntegerSpectrum:
    """Exact eigenvalues in slot order (integers have denominator 1)."""

    values: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)


def _deflate(monic: list[Fraction], root: Fraction) -> list[Fraction] | None:
    # Synthetic division; returns the quotient if root is exact, else None.
    out = [monic[0]]
    for coeff in monic[1:]:
        out.append(coeff + root * out[-1])
    if out[-1] != 0:
        return None
    return out[:-1]


def _rational_roots(
    monic: tuple[Fraction, ...], float_eigs: np.ndarray, scale: int
) -> list[Fraction] | None:
    """All roots when the polynomial splits into rational linear factors.

    The polynomial is that of D/scale with D an integer circulant, whose
    eigenvalues are algebraic integers; so every rational root is k/scale
    for an integer k, and each real floating eigenvalue seeds the one
    candidate round(lambda * scale) / scale.  Every candidate is verified
    by exact evaluation and consumed by repeated deflation, so
    multiplicities are exact.
    """
    n = len(monic) - 1
    candidates = {
        Fraction(round(lam.real * scale), scale)
        for lam in float_eigs
        if abs(lam.imag) <= _SLOT_MATCH_TOL
    }
    roots: list[Fraction] = []
    remaining = list(monic)
    for cand in sorted(candidates):
        while len(remaining) > 1:
            quotient = _deflate(remaining, cand)
            if quotient is None:
                break
            roots.append(cand)
            remaining = quotient
    if len(roots) != n:
        return None
    return roots


def integer_spectrum(c: RationalCirculant, mode: str = "integral") -> IntegerSpectrum | None:
    """Exact spectrum when it exists, assigned to slots j = 1..n.

    Splits the exact characteristic polynomial into rational linear
    factors (candidates k/L, L the lcm of the row's denominators, checked
    by exact deflation); returns None when it does not split, or when
    mode='integral' and some root is fractional.
    Slot assignment matches exact roots against the floating eigenvalues
    p_C(omega^(j-1)); an ambiguous assignment raises RootAssignmentError
    rather than returning a wrong order.
    """
    if mode not in ("integral", "rational"):
        raise ValueError(f"mode must be 'integral' or 'rational', got {mode!r}")
    monic = exact_char_poly(c)
    float_eigs = eigenvalues(c.to_float()).as_array()
    roots = _rational_roots(monic, float_eigs, _cleared(c)[0])
    if roots is None:
        return None
    if mode == "integral" and any(r.denominator != 1 for r in roots):
        return None
    pool = list(roots)
    assigned: list[Fraction] = []
    for lam in float_eigs:
        near = sorted({r for r in pool if abs(complex(r) - lam) <= 2 * _SLOT_MATCH_TOL})
        if len(near) > 1:
            raise RootAssignmentError(
                f"two distinct roots {near[0]} and {near[1]} both match eigenvalue {lam}"
            )
        if not near or abs(complex(near[0]) - lam) > _SLOT_MATCH_TOL:
            raise RootAssignmentError(f"no exact root matches eigenvalue {lam}")
        assigned.append(near[0])
        pool.remove(near[0])
    return IntegerSpectrum(tuple(assigned))


@dataclass(frozen=True)
class BrandtCounterexample:
    pair: tuple[int, int]
    combination: str  # 'a' | 'b' | 'a+b' | 'ab'
    form_index: int  # 1-based i with q_i outside Z (resp. Q)
    value: Fraction


@dataclass(frozen=True)
class BrandtVerdict:
    holds: bool
    counterexample: BrandtCounterexample | None = None


def brandt_check(elements, mode: str = "integral") -> BrandtVerdict:
    """Does the set satisfy the integral (rational) Brandt predicate?

    For every ordered pair (a, b), including a = b, all forms
    q_i(a), q_i(b), q_i(a+b), q_i(ab) must lie in Z (resp. Q).  Returns
    the first violation found, in that ordered traversal; the forms of
    a+b and ab are computed once per unordered pair.  Rational inputs
    always satisfy the rational variant; the integral one is the
    interesting predicate.
    """
    if mode not in ("integral", "rational"):
        raise ValueError(f"mode must be 'integral' or 'rational', got {mode!r}")
    elements = list(elements)
    if not elements:
        return BrandtVerdict(True)
    n = elements[0].n
    if any(e.n != n for e in elements):
        raise DimensionMismatchError("all elements must share one order")
    if mode == "rational":
        return BrandtVerdict(True)
    single = [forms_exact(e) for e in elements]
    # a + b and ab commute, so (a, b) and (b, a) share their forms.
    combined: dict[tuple[int, int], tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = {}
    for ia, a in enumerate(elements):
        for ib, b in enumerate(elements):
            key = (min(ia, ib), max(ia, ib))
            if key not in combined:
                combined[key] = (forms_exact(a + b), forms_exact(a * b))
            plus, times = combined[key]
            probes = (("a", single[ia]), ("b", single[ib]), ("a+b", plus), ("ab", times))
            for label, q in probes:
                for i, qi in enumerate(q, start=1):
                    if qi.denominator != 1:
                        return BrandtVerdict(
                            False, BrandtCounterexample((ia, ib), label, i, qi)
                        )
    return BrandtVerdict(True)


@dataclass(frozen=True)
class SpectrumReconstruction:
    circulant: Circulant
    real: bool


def reconstruct_from_spectrum(values) -> SpectrumReconstruction:
    """Coefficients from a prescribed exact spectrum, by inverse transform.

    c_i = (1/n) sum_j conj(omega^((i-1)(j-1))) lambda_j.  The result is
    real exactly when lambda_{k+1} = lambda_{n-k+1} for 1 <= k <= n-1;
    in that case residual imaginary parts (roundoff) are zeroed.
    """
    if isinstance(values, IntegerSpectrum):
        values = values.values
    lams = tuple(_as_rational(v) for v in values)
    n = len(lams)
    if n == 0:
        raise InvalidOrderError("empty spectrum")
    real = all(lams[k] == lams[n - k] for k in range(1, n))
    c = from_spectrum(tuple(float(v) for v in lams))
    if real:
        worst = max(abs(z.imag) for z in c.coeffs)
        if worst > 1e-10:
            raise RootAssignmentError(
                f"conjugate-symmetric spectrum left imaginary residue {worst:.3e}"
            )
        c = Circulant(tuple(complex(z.real, 0.0) for z in c.coeffs))
    return SpectrumReconstruction(circulant=c, real=real)


def _gauss_jordan(rows: list[list[Fraction]]) -> tuple[Fraction, list[list[Fraction]] | None]:
    # Returns (det, inverse); inverse is None when det = 0.
    n = len(rows)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(rows)]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0), None
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
            det = -det
        det *= aug[k][k]
        inv_pivot = 1 / aug[k][k]
        aug[k] = [x * inv_pivot for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                factor = aug[i][k]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[k])]
    return det, [row[n:] for row in aug]


@dataclass(frozen=True)
class LatticeBasis:
    """Rows hold the P-power coefficients of the generators v_1, ..., v_n."""

    rows: tuple[tuple[Fraction, ...], ...]
    det: Fraction
    inverse: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)


def lattice_new(rows) -> LatticeBasis:
    """Validate and precompute: stores the exact determinant and inverse
    of the coefficient matrix; rejects dependent rows."""
    grid = [[_as_rational(x) for x in row] for row in rows]
    n = len(grid)
    if n == 0 or any(len(row) != n for row in grid):
        raise InvalidOrderError("basis must be a nonempty square grid")
    det, inverse = _gauss_jordan(grid)
    if inverse is None:
        raise DependentBasisError("basis rows are linearly dependent (det = 0)")
    return LatticeBasis(
        rows=tuple(tuple(row) for row in grid),
        det=det,
        inverse=tuple(tuple(row) for row in inverse),
    )


def basis_inverse_integral(basis: LatticeBasis) -> tuple[bool, tuple[tuple[Fraction, ...], ...]]:
    """Whether every entry of the exact inverse is an integer, with the
    inverse itself."""
    integral = all(x.denominator == 1 for row in basis.inverse for x in row)
    return integral, basis.inverse


@dataclass(frozen=True)
class LatticeSolution:
    coefficients: tuple[Fraction, ...]
    member: bool  # all coefficients integral


def lattice_decompose(basis: LatticeBasis, target: RationalCirculant) -> LatticeSolution:
    """Solve (a_1, ..., a_n) * C = target row exactly; membership means
    every a_i is an integer.

    When the basis inverse is integral and the target is integral,
    membership is guaranteed and asserted.  Non-members still get their
    exact rational coefficients.
    """
    n = basis.n
    if target.n != n:
        raise DimensionMismatchError(f"target order {target.n} vs basis order {n}")
    coeffs = tuple(
        sum(target.coeffs[i] * basis.inverse[i][j] for i in range(n)) for j in range(n)
    )
    # Exact recombination must reproduce the target; zero tolerance.
    for j in range(n):
        recombined = sum(coeffs[i] * basis.rows[i][j] for i in range(n))
        if recombined != target.coeffs[j]:
            raise ArithmeticError("exact decomposition failed to recombine")
    member = all(a.denominator == 1 for a in coeffs)
    integral_inverse, _ = basis_inverse_integral(basis)
    if integral_inverse and target.is_integral() and not member:
        raise ArithmeticError("integral inverse must decompose integral targets")
    return LatticeSolution(coefficients=coeffs, member=member)


def delta_lattice_decompose(basis: LatticeBasis, block_coeffs) -> tuple[int, ...]:
    """Integer coefficients m with sum m_i Delta(v_i) equal to the block
    circulant circ(a_1 I, a_2 P, ..., a_n P^(n-1)).

    Coproduct linearity reduces this to the plain lattice decomposition
    of circ(a_1, ..., a_n); requires a basis with integral inverse and
    integer a_i (InvalidScalarError otherwise), so every m_i is an
    integer.
    """
    integral_inverse, _ = basis_inverse_integral(basis)
    if not integral_inverse:
        raise NotIntegralBasisError("basis inverse has fractional entries")
    target = RationalCirculant(tuple(block_coeffs))
    fractional = [a for a in target.coeffs if a.denominator != 1]
    if fractional:
        raise InvalidScalarError(f"block coefficient {fractional[0]} is not an integer")
    solution = lattice_decompose(basis, target)
    return tuple(int(a) for a in solution.coefficients)
