"""Exact integer/rational analysis of circulants.

Everything here runs over arbitrary-precision rationals: characteristic
polynomials, exact spectra, Brandt-style integrality predicates on the
forms q_i, lattice bases of circulants and exact membership
decompositions.  Each exact path clears denominators once (an integer
row or grid times 1/L, L the lcm of the denominators), works in Python
ints and builds the returned Fractions at the end.

Circulants of order n are the group algebra of the cyclic group C_n, so
tr(C^k) is n times the identity coefficient of the k-th convolution
power of the first row.  The exact characteristic polynomial is built
from these traces alone: take the powers d^{*k}, k = 1..n, of the
cleared row d = L*c by exact cyclic convolution and run Newton's
identities in integers.  That is O(n^3) integer operations on the first
row, never the dense n x n matrix.

Over Q the group algebra splits as Q[C_n] = prod_{d | n} Q(zeta_d)
(Perlis and Walker), so the exact spectrum is decided factor by factor:
the row reduced mod the cyclotomic polynomial Phi_d is a constant
exactly when the eigenvalues at the primitive d-th roots of unity are
rational, and then that constant is their common value.

Floating point appears in one place only, forced by the irrationality
of omega: rebuilding coefficients from a prescribed integer/rational
spectrum.

A lattice here is Z v_1 + ... + Z v_n for independent circulants
v_i = c_i1 I + c_i2 P + ... + c_in P^(n-1); when the coefficient matrix
has an integral exact inverse, every integral circulant is a member.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import Circulant, _check_orders
from .errors import (
    DependentBasisError,
    DimensionMismatchError,
    InvalidOrderError,
    InvalidScalarError,
    NotIntegralBasisError,
    RootAssignmentError,
)
from .spectral import from_spectrum

Rational = Fraction


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
        coeffs = tuple(self.coeffs)
        # A row of exact Fractions, as `+` and `*` build, is kept as it is.
        if set(map(type, coeffs)) != {Fraction}:
            coeffs = tuple(map(_as_rational, coeffs))
        object.__setattr__(self, "coeffs", coeffs)

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
        lx, x = _cleared(self.coeffs)
        ly, y = _cleared(other.coeffs)
        scale = lx * ly
        return RationalCirculant(tuple(Fraction(v, scale) for v in _convolve(_support(x), y)))


def rational_circ(*coeffs) -> RationalCirculant:
    if len(coeffs) == 1 and isinstance(coeffs[0], (list, tuple)):
        coeffs = tuple(coeffs[0])
    return RationalCirculant(tuple(coeffs))


def _cleared(values) -> tuple[int, list[int]]:
    """(L, d): L is the lcm of the Fractions' denominators and d = L*values,
    a list of integers."""
    scale = math.lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _support(d: list[int]) -> list[tuple[int, int]]:
    """The nonzero entries (i, d_i) of an integer row."""
    return [(i, v) for i, v in enumerate(d) if v]


def _convolve(support: list[tuple[int, int]], y: list[int]) -> list[int]:
    """Cyclic convolution of the integer row with this support and y: the
    sum of v * P^i y over the support, P^i y being y rotated right by i."""
    n = len(y)
    out = [0] * n
    for i, v in support:
        out = [acc + v * w for acc, w in zip(out, y[n - i:] + y[: n - i])]
    return out


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
    scale, d = _cleared(c.coeffs)
    support = _support(d)
    power = [1] + [0] * (n - 1)
    traces = []
    for _ in range(n):
        power = _convolve(support, power)
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


def _mobius(m: int) -> int:
    """The Moebius function: (-1)^k when m is a product of k distinct
    primes, else 0."""
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def _cyclotomic(d: int) -> list[int]:
    """Phi_d as an ascending integer coefficient list: the product of
    (x^e - 1)^mu(d/e) over the divisors e of d.  The binomials with
    mu = +1 are multiplied in first, so every division by one with
    mu = -1 is exact; each step is O(degree)."""
    exponents = [(e, _mobius(d // e)) for e in range(1, d + 1) if d % e == 0]
    phi = [1]
    for e, mu in exponents:
        if mu == 1:  # phi * (x^e - 1)
            shifted = [-a for a in phi] + [0] * e
            shifted[e:] = [a + b for a, b in zip(shifted[e:], phi)]
            phi = shifted
    for e, mu in exponents:
        if mu == -1:  # phi / (x^e - 1): phi_k = q_{k-e} - q_k
            q = [0] * (len(phi) - e)
            for k in range(len(q)):
                q[k] = (q[k - e] if k >= e else 0) - phi[k]
            phi = q
    return phi


def _divmod_monic(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by the monic integer polynomial g, all
    as ascending coefficient lists; only g's nonzero terms are visited."""
    m = len(g) - 1
    rem = list(f)
    terms = _support(g[:m])
    quot = [0] * max(len(f) - m, 0)
    for top in range(len(f) - 1, m - 1, -1):
        q = rem[top]
        if q:
            base = top - m
            quot[base] = q
            for i, a in terms:
                rem[base + i] -= q * a
    return quot, rem[:m]


def integer_spectrum(c: RationalCirculant, mode: str = "integral") -> IntegerSpectrum | None:
    """Exact spectrum when it exists, assigned to slots j = 1..n.

    Slot j evaluates the row polynomial p(x) = sum c_k x^k at a primitive
    d-th root of unity, d = n / gcd(j-1, n), and all slots of one d share
    the value when it is rational.  For each divisor d the cleared row
    L*c is folded mod x^d - 1 and reduced mod the integer cyclotomic
    polynomial Phi_d (the product of binomials (x^e - 1)^mu(d/e), see
    `_cyclotomic`).  Since 1, zeta, ..., zeta^(phi(d)-1) is a basis
    of Q(zeta_d), those eigenvalues are rational exactly when the
    remainder is a constant r_d, and then each equals r_d / L.  Returns
    None when some remainder is not constant, or when mode='integral'
    and some r_d / L is fractional.  Integer operations only, no floats,
    so the answer does not depend on the size of the entries.
    """
    if mode not in ("integral", "rational"):
        raise ValueError(f"mode must be 'integral' or 'rational', got {mode!r}")
    n = c.n
    scale, row = _cleared(c.coeffs)
    value: dict[int, Fraction] = {}
    for d in (d for d in range(1, n + 1) if n % d == 0):
        _, rem = _divmod_monic([sum(row[k::d]) for k in range(d)], _cyclotomic(d))
        if any(rem[1:]):
            return None
        lam = Fraction(rem[0], scale)
        if mode == "integral" and lam.denominator != 1:
            return None
        value[d] = lam
    return IntegerSpectrum(tuple(value[n // math.gcd(k, n)] for k in range(n)))


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
    """(det, inverse) of a square rational grid; inverse is None when
    det = 0.

    Fraction-free Gauss-Jordan (Bareiss): the grid is cleared to A = L*grid
    and [A | I] is eliminated in integers, each update
    (p * a_ij - a_ik * a_kj) // p_prev dividing exactly by the previous
    pivot.  At the end the left block is p*I with p = sign * det(A) (sign
    from the row swaps) and the right block is p * A^-1, so
    det = sign * p / L^n and the inverse is L * right / p.
    """
    n = len(rows)
    scale, flat = _cleared([x for row in rows for x in row])
    aug = [flat[i * n:(i + 1) * n] + [int(i == j) for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot_row is None:
            return Fraction(0), None
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
            sign = -sign
        pivot_line = aug[k]
        pivot = pivot_line[k]
        for i in range(n):
            if i != k:
                factor = aug[i][k]
                aug[i] = [(pivot * x - factor * y) // prev for x, y in zip(aug[i], pivot_line)]
        prev = pivot
    return (
        Fraction(sign * prev, scale**n),
        [[Fraction(scale * x, prev) for x in row[n:]] for row in aug],
    )


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
    # target = t/lt, inverse = v/lv and rows = r/lr with t, v, r integral
    # (v and r flattened row by row), so the coefficients are t v / (lt lv).
    lt, t = _cleared(target.coeffs)
    lv, v = _cleared([x for row in basis.inverse for x in row])
    lr, r = _cleared([x for row in basis.rows for x in row])
    nums = [sum(map(operator.mul, t, v[j::n])) for j in range(n)]
    # Exact recombination (coefficients times rows = target) must hold;
    # zero tolerance.
    for j in range(n):
        if sum(map(operator.mul, nums, r[j::n])) != t[j] * lv * lr:
            raise ArithmeticError("exact decomposition failed to recombine")
    denominator = lt * lv
    member = all(a % denominator == 0 for a in nums)
    if lv == 1 and lt == 1 and not member:
        raise ArithmeticError("integral inverse must decompose integral targets")
    return LatticeSolution(
        coefficients=tuple(Fraction(a, denominator) for a in nums), member=member
    )


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
