"""Exact integer/rational analysis of circulants.

Everything here runs over arbitrary-precision rationals: characteristic
polynomials, exact spectra, Brandt-style integrality predicates on the
forms q_i, lattice bases of circulants and exact membership
decompositions.  Each exact value is stored once, cleared: an integer
row or grid and L, the lcm of its denominators, the value being the
integers times 1/L.  A `RationalCirculant` is built through its one
constructor, which applies the exact entry rule `_as_rational` and
clears; a `LatticeBasis` holds its rows and inverse so.  The exact
algorithms work on these Python ints; Fractions appear only as views at
the API edge (`coeffs`, `rows`, `inverse`) and as the returned results.

Circulants of order n are the group algebra of the cyclic group C_n, so
tr(C^k) is n times the identity coefficient of the k-th convolution
power of the first row.  The exact characteristic polynomial is built
from these traces alone, on the cleared row d = L*c and never on the
dense n x n matrix, and Newton's identities run in integers.  The
traces come by baby steps and giant steps (Paterson and Stockmeyer):
the powers d^{*i}, i <= m = isqrt(3n), and d^{*jm}, j <= n/m, each one
product of two big integers into which the rows are packed (Kronecker
substitution), then one dot product of length n per trace.  A slot
holds an entry of absolute value below 2^(w-1), w a whole number of
bytes; the entries of d^{*k} are at most ||d||_1^k.  So about
2.3 sqrt(n) products of integers of up to n * n log2 ||d||_1 bits, plus
O(n^2) operations on integers for the dot products and Newton's
identities.

Over Q the group algebra splits as Q[C_n] = prod_{d | n} Q(zeta_d)
(Perlis and Walker).  The component of a row in Q(zeta_d) is its
remainder r_d: the row folded mod x^d - 1 and reduced mod the
cyclotomic polynomial Phi_d, read in the basis 1, zeta_d, ...,
zeta_d^(phi(d)-1).  The exact spectrum and the Brandt predicate are
both decided on these remainders, factor by factor:
- the eigenvalues at the primitive d-th roots of unity are rational
  exactly when r_d is a constant, and then that constant is their
  common value;
- the forms q_1..q_n are all integers exactly when every eigenvalue is
  an algebraic integer, that is when every r_d has integer coordinates,
  because that basis is an integral basis of Z[zeta_d].
The remainders cost O(n^2) integer operations per row at most, and no
product of large integers.

Floating point appears in two places only: the float view `to_float`,
and rebuilding coefficients from a prescribed integer/rational spectrum,
forced by the irrationality of omega.  They alone import numpy, `core`
and `spectral`, when they run.  The integer kernel (the packed products,
`_traces`, `_elementary` and `_components`) lives in the numpy-free
`base`, so exact work loads neither numpy nor the float layer.

A lattice here is Z v_1 + ... + Z v_n for independent circulants
v_i = c_i1 I + c_i2 P + ... + c_in P^(n-1); when the coefficient matrix
has an integral exact inverse, every integral circulant is a member.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .base import _Frozen, _check_orders, _components, _cyclic, _elementary
from .errors import (
    DependentBasisError,
    DimensionMismatchError,
    DocumentError,
    InvalidModeError,
    InvalidOrderError,
    InvalidScalarError,
    NotIntegralBasisError,
    RootAssignmentError,
)

if TYPE_CHECKING:  # `core` loads in the float views, which alone use it
    from .core import Circulant


def _as_rational(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidScalarError(
            f"refusing float {value!r} in exact arithmetic; pass int, Fraction or 'p/q'"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidScalarError(f"cannot use {value!r} as a rational entry") from exc


def _rational_row(coeffs) -> tuple[Fraction, ...]:
    """A circulant's first row under the exact entry rule `_as_rational`,
    the one door of every exact row: `RationalCirculant` clears it, and the
    float view of a rational document converts it without clearing."""
    values = tuple(coeffs)
    if not values:
        raise InvalidOrderError("a circulant needs at least one coefficient")
    # A row of exact Fractions, as `+` and `*` build, needs no conversion.
    if set(map(type, values)) != {Fraction}:
        values = tuple(map(_as_rational, values))
    return values


class RationalCirculant(_Frozen):
    """Circulant with exact rational first row, stored once, cleared: `scale`
    is L, the lcm of the entries' denominators, and `cleared` the tuple of
    integers L*c.  The row as Fractions, `coeffs`, is a view built on each
    read; every exact algorithm reads `scale` and `cleared` instead.

    `RationalCirculant(coeffs)` is the one constructor, `+` and `*`
    included: each entry through `_as_rational`, the exact entry rule, then
    cleared.  So the stored form is unique to the rational row, and `==`
    and `hash` agree with equality of the Fraction rows.  A value pickles
    as its stored form, which `_restore` puts back unchanged: neither the
    view nor a second clearing is paid."""

    __slots__ = ("scale", "cleared")

    def __init__(self, coeffs):
        values = _rational_row(coeffs)
        scale = math.lcm(*(x.denominator for x in values))
        # The slots' own setters, which the frozen __setattr__ does not guard.
        RationalCirculant.scale.__set__(self, scale)
        RationalCirculant.cleared.__set__(self, tuple(x.numerator * (scale // x.denominator) for x in values))

    n = property(lambda self: len(self.cleared))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The row as Fractions, built on each read: one gcd of an entry
        and L per entry, so n gcds of integers as long as L.  With many
        distinct large denominators L is their product, n times as long as
        one of them, and the view costs O(n) gcds of that length."""
        return tuple(Fraction(v, self.scale) for v in self.cleared)

    def to_exact_dense(self) -> tuple[tuple[Fraction, ...], ...]:
        """The n x n grid whose row i is the first row rotated i places
        to the right: entry (i, j) is c_{j-i+1 mod n}."""
        row, n = self.coeffs, self.n
        return tuple(row[n - i:] + row[:n - i] for i in range(n))

    def to_float(self) -> Circulant:
        from .core import Circulant

        # int / int rounds once, as float(Fraction) does, and needs no entry
        # in lowest terms.
        try:
            return Circulant(tuple(v / self.scale for v in self.cleared))
        except OverflowError:
            raise InvalidScalarError("entry beyond the float range") from None

    def is_integral(self) -> bool:
        return self.scale == 1

    def _key(self) -> tuple:
        return self.scale, self.cleared

    def __reduce__(self):
        return _restore, (self.scale, self.cleared)

    def __repr__(self) -> str:
        return f"RationalCirculant(coeffs={self.coeffs!r})"

    def __add__(self, other: "RationalCirculant") -> "RationalCirculant":
        if not isinstance(other, RationalCirculant):
            return NotImplemented
        _check_orders(self, other)
        lx, ly = self.scale, other.scale
        sums = (x * ly + y * lx for x, y in zip(self.cleared, other.cleared))
        return RationalCirculant(tuple(Fraction(v, lx * ly) for v in sums))

    def __mul__(self, other: "RationalCirculant") -> "RationalCirculant":
        if not isinstance(other, RationalCirculant):
            return NotImplemented
        _check_orders(self, other)
        scale = self.scale * other.scale
        return RationalCirculant(tuple(Fraction(v, scale) for v in _cyclic(self.cleared, other.cleared)))


def _restore(scale: int, cleared: tuple[int, ...]) -> RationalCirculant:
    """The value whose stored form is (scale, cleared), as `__reduce__`
    wrote it from a value built by the constructor."""
    value = object.__new__(RationalCirculant)
    RationalCirculant.scale.__set__(value, scale)
    RationalCirculant.cleared.__set__(value, cleared)
    return value


def rational_circ(*coeffs) -> RationalCirculant:
    one_row = len(coeffs) == 1 and isinstance(coeffs[0], (list, tuple))
    return RationalCirculant(coeffs[0] if one_row else coeffs)


def _forms(c: RationalCirculant):
    """Yield q_1, ..., q_n of c, each one computed only when it is asked
    for: with d = L*c integral and e_i the elementary symmetric values of
    the eigenvalues of circ(d) (see `base._elementary`), q_i = e_i / L^i."""
    for i, e in enumerate(_elementary(c.cleared), start=1):
        yield Fraction(e, c.scale**i)


#: What `_exact_cost` counts, as the refusals quote it.
_EXACT_COST_MODEL = "sqrt(n) (n^2 a)^1.585 + n^3 b^2 / 30, a = bits of ||L c||_1, b = a + bits of L"


def _cost(n: int, norm: int, scale: int) -> float:
    """`_EXACT_COST_MODEL` at order n, with a and b read off ||L c||_1 and
    L.  The first term is the packed products, about 2.3 sqrt(n) of
    integers of up to n^2 a bits, which CPython multiplies by Karatsuba
    (see `base._traces`); they see only L*c.  The second is the forms
    q_i = e_i / L^i, whose numerator and denominator grow by up to b bits
    a step: their reduction to lowest terms and their decimal text are
    quadratic in their length, and the n lengths of up to n b bits sum to
    about n^3 b^2 / 3 squared bits, each timed at about a tenth of a unit
    of the first term (1e-12 s against 1e-11 s on a 2-vCPU VM)."""
    a = norm.bit_length()
    return math.sqrt(n) * (n * n * max(1, a)) ** math.log2(3) + n**3 * (a + scale.bit_length()) ** 2 / 30


def _exact_cost(c: RationalCirculant) -> float:
    """The cost model of the exact forms of c, read off the stored row."""
    return _cost(c.n, sum(map(abs, c.cleared)), c.scale)


def _scales(denominators):
    """Yield the lcm of the distinct denominators read so far, one distinct
    denominator at a time, so that a caller can stop as soon as a cost read
    off it passes a bound, before the lcm of them all is built."""
    scale = 1
    for d in dict.fromkeys(denominators):
        scale = math.lcm(scale, d)
        yield scale


def _least_exact_costs(row):
    """Lower bounds of `_exact_cost(RationalCirculant(row))`, read off the
    entries' parts before the row is cleared, each at least the one
    before: ||L c||_1 is at least each numerator, and L at least the lcm
    of any of the denominators, built one distinct denominator at a time
    (see `_scales`)."""
    n, norm = len(row), max(abs(x.numerator) for x in row)
    return (_cost(n, norm, scale) for scale in _scales(x.denominator for x in row))


#: The largest cost, on the model of its path, of an exact input that
#: `circulants forms`, `charpoly` and `lattice-solve` and the
#: `exact-char-poly` bench row serve, about 1e-11 s a unit.  On a 2-vCPU
#: VM `circulants charpoly` took up to about 1.1e-11 s per unit of
#: `_exact_cost`: on integer rows, order 128 with 64-digit entries (cost
#: 2.8e11) 2.2 s, order 256 with 15-digit ones (4.2e11) 2.7 s, order 64
#: with 450-digit ones (4.8e11) 4.3 s, order 32 with 2100-digit ones
#: (4.7e11) 5.2 s, order 512 with -3..3 (3.4e11) 1.5 s, order 1540 with
#: the identity row (5.0e11) 0.3 s; where L counts, (1/D, 0, ..., 0) with
#: D of 4299 digits at order 40 (4.3e11) 4.5 s, order 6 with fractions of
#: 4300-digit parts (2.6e11) 3.4 s, order 24 with one 4300-digit
#: denominator (9.4e10) 1.3 s.  So an accepted call stays within a few
#: seconds; order 64 with 1000-digit integers (1.7e12, 18 s) and
#: (1/D, 0, ..., 0) at order 256 (1.1e14, forms of about 1.4e8 digits)
#: are refused.
_EXACT_MAX_COST = 5e11


#: What `_solve_cost` counts, as the `lattice-solve` refusal quotes it.
_SOLVE_COST_MODEL = "n^3 (R^2 / 7 + 160 R + 43000), R = sum over rows of the bits of the largest entry of L_i times row i"


def _solve_cost(n: int, bits: int) -> float:
    """`_SOLVE_COST_MODEL` at order n, with R = bits: the fraction-free
    elimination of `_gauss_jordan`, in the unit of `_EXACT_MAX_COST`
    (about 1e-11 s).  Each of its n steps updates the 2n entries of n - 1
    rows of [A | I], and at step k they are k x k minors of about k R / n
    bits.  Python multiplies and divides such integers in time at most
    quadratic in their length (its long division is schoolbook), so the
    steps sum to about n^3 (C R^2 + B R + A).  A, B and C are a least
    squares fit to in-process `circulants lattice-solve` times of 33
    grids on a 2-vCPU VM: integers of 1 to 4000 digits at n = 4..128,
    fractions p/q with |p| < 100, q < 50 at n = 8..64, and rows mixing
    p/q of 18 to 1000 digits with small ones at n = 4..24.  Each time of
    0.02 s or more was 0.82 to 1.75 times the model's, the larger ratios
    on the mixed rows.  So the bound serves random fractional grids as
    above up to about n = 56 (3.8 s) and refuses them from n = 64 on
    (7.8 s)."""
    return n**3 * (bits * bits / 7 + 160 * bits + 43000)


def _least_solve_costs(grid):
    """Lower bounds of `_solve_cost` of the square grid of rationals, read
    off the entries' parts before any row is cleared, each at least the
    one before.  Row i is cleared by L_i, the lcm of its denominators, and
    each nonzero entry p/q of it becomes |p| L_i / q, of at least bits(p)
    bits (q divides L_i) and at least bits(p) + bits(L_i) - bits(q) - 1.
    Each L_i is built one distinct denominator at a time (see `_scales`)."""
    n = len(grid)
    parts = [[(x.numerator.bit_length(), x.denominator.bit_length()) for x in row if x] for row in grid]
    bits = [max((p for p, _ in row), default=0) for row in parts]
    total = sum(bits)
    yield _solve_cost(n, total)
    for i, row in enumerate(grid):
        spread = max((p - q for p, q in parts[i]), default=0) - 1
        for scale in _scales(x.denominator for x in row if x):
            least = max(bits[i], spread + scale.bit_length())
            total, bits[i] = total + least - bits[i], least
            yield _solve_cost(n, total)


#: What `_least_target_costs` counts, as the `lattice-solve` refusal
#: quotes it.
_TARGET_COST_MODEL = "n T^2 / 3, T = bits of the lcm of the target's denominators"


def _least_target_costs(row):
    """Lower bounds of `_TARGET_COST_MODEL` of the target row, each at least
    the one before: L_t is at least the lcm of any of the denominators,
    built one distinct denominator at a time (see `_scales`).

    The model counts clearing the target row of `lattice-solve` and
    `lattice_decompose`, in the unit of `_EXACT_MAX_COST`.  With L_t of T
    bits, the n coefficients are sums t v_j over L_t lv, and reducing each
    to lowest terms is a gcd of integers of about T bits, quadratic in T;
    so is their decimal text.  A least squares fit of C n T^2 to
    in-process `circulants lattice-solve` times on a 2-vCPU VM gave
    C = 0.36, here 1/3: 17 targets of distinct 1000- or 4300-digit
    denominators, numerators 1 or as long, at n = 4..32, over a unimodular
    basis with a dense inverse.  Each time of 0.02 s or more was 0.93 to
    1.76 times the model's, the larger ratios on the shortest times.  Over
    the identity basis each gcd ends in a few steps and the time is nearer
    T^2 / 1.4 (0.38 s at n = 16, T = 228 000).  The grid's own terms, such
    as lv, are bounded by `_solve_cost`.  So a target of 16 distinct
    4300-digit denominators is served (2.8 s over the dense inverse) and
    one of 24 refused (8.7 s)."""
    return (len(row) * scale.bit_length() ** 2 / 3 for scale in _scales(x.denominator for x in row))


def _refuse_past(costs, field: str, what: str, model: str) -> None:
    """The one check of a cost against `_EXACT_MAX_COST` and the one
    refusal: read the costs in turn, and at the first past the bound raise
    DocumentError on ``field``, exit 2, reading no further.  So a lower
    bound built one distinct denominator at a time (see `_scales`) refuses
    an input of many distinct large denominators before their lcm is
    built."""
    if any(cost > _EXACT_MAX_COST for cost in costs):
        raise DocumentError(field, f"the cost of {what} is more than {_EXACT_MAX_COST:.3g} ({model})")


def bounded_row(row) -> RationalCirculant:
    """The rational row whose exact forms `circulants forms` and `charpoly`
    and the `exact-char-poly` bench row compute, refused past the bound on
    `_EXACT_COST_MODEL`: first on the lower bounds read off the entries'
    parts, before the row is cleared, then on the cleared row."""
    refusal = ("first_row", "exact forms", _EXACT_COST_MODEL)
    _refuse_past(_least_exact_costs(row), *refusal)
    c = RationalCirculant(row)
    _refuse_past((_exact_cost(c),), *refusal)
    return c


def bounded_solve(grid, row) -> LatticeSolution:
    """The `lattice_decompose` of the target row over the `lattice_new`
    basis of the grid of rationals, as `circulants lattice-solve` asks,
    refused past the bound: first the target on `_TARGET_COST_MODEL`, then
    the grid on `_SOLVE_COST_MODEL`, each on the lower bounds read off its
    entries' parts, before anything is cleared or eliminated."""
    _refuse_past(_least_target_costs(row), "first_row", "exact decomposition", _TARGET_COST_MODEL)
    _refuse_past(_least_solve_costs(grid), "entries", "exact elimination", _SOLVE_COST_MODEL)
    return lattice_decompose(lattice_new(grid), RationalCirculant(row))


def exact_char_poly(c: RationalCirculant) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial with exact coefficients, descending
    powers: the coefficient of X^(n-i) is (-1)^i q_i (see `_forms`).
    About 2.3 sqrt(n) products of packed integers and O(n^2) integer
    operations (see `base._traces`)."""
    return (Fraction(1), *(-q if i % 2 else q for i, q in enumerate(_forms(c), start=1)))


def forms_exact(c: RationalCirculant) -> tuple[Fraction, ...]:
    """(q_1, ..., q_n), q_i = (-1)^i * (coefficient of X^(n-i)) of the
    exact characteristic polynomial."""
    return tuple(_forms(c))


@dataclass(frozen=True)
class IntegerSpectrum:
    """Exact eigenvalues in slot order (integers have denominator 1)."""

    values: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)


def _check_mode(mode: str):
    """Raise InvalidModeError unless mode is 'integral' or 'rational'."""
    if mode not in ("integral", "rational"):
        raise InvalidModeError(f"mode must be 'integral' or 'rational', got {mode!r}")


def integer_spectrum(c: RationalCirculant, mode: str = "integral") -> IntegerSpectrum | None:
    """Exact spectrum when it exists, assigned to slots j = 1..n.

    Slot j evaluates the row polynomial p(x) = sum c_k x^k at a primitive
    d-th root of unity, d = n / gcd(j-1, n), and all slots of one d share
    the value when it is rational.  For each divisor d the cleared row
    L*c is folded mod x^d - 1 and reduced mod the integer cyclotomic
    polynomial Phi_d (the product of binomials (x^e - 1)^mu(d/e), see
    `base._cyclotomic`).  Since 1, zeta, ..., zeta^(phi(d)-1) is a basis
    of Q(zeta_d), those eigenvalues are rational exactly when the
    remainder is a constant r_d (see `base._components`), and then each equals
    r_d / L.  Returns None when some remainder is not constant, or when
    mode='integral' and some r_d / L is fractional, and raises
    InvalidModeError on any other mode.  Integer operations only, no
    floats, so the answer does not depend on the size of the entries.
    """
    _check_mode(mode)
    n = c.n
    value: dict[int, Fraction] = {}
    for d, rem in _components(c.cleared):
        if any(rem[1:]):
            return None
        lam = Fraction(rem[0], c.scale)
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
    the first violation in that ordered traversal (pairs in row-major
    order, then a, b, a+b, ab, then i = 1..n).  Rational inputs always
    satisfy the rational variant; the integral one is the interesting
    predicate.  Raises InvalidModeError on any other mode.

    The integral predicate is decided in the Wedderburn components, not
    by characteristic polynomials.  With L*c integral, the forms of c
    are all integers exactly when L divides every coefficient of every
    remainder r_d of L*c (see `base._components`): the forms are the
    coefficients of the monic characteristic polynomial, which lies in
    Z[X] exactly when every eigenvalue r_d(zeta_d) / L is an algebraic
    integer, and 1, zeta_d, ..., zeta_d^(phi(d)-1) is an integral basis
    of Z[zeta_d], the ring of integers of Q(zeta_d).  Those c form the
    ring prod_d Z[zeta_d], closed under + and *, so a+b and ab pass
    whenever a and b do, and the traversal's first violation is a single
    element: the first element k whose forms are not all integers,
    probed as a at pair (0, 0) when k = 0, else as b at pair (0, k).
    Its witness (form_index, value) is the first fractional form q_i of
    that element, computed form by form and stopped there; a set that
    holds computes no form.  Cost: the remainders of each element,
    O(n^2) integer operations at most, plus, on failure, the traces up
    to the witness q_i (for i <= isqrt(3n), i products of packed n-slot
    integers whose slots hold at most a^max(8, 2i), a = ||L c||_1; see
    `base._traces`); nothing per pair.
    """
    _check_mode(mode)
    elements = list(elements)
    if not elements:
        return BrandtVerdict(True)
    n = elements[0].n
    if any(e.n != n for e in elements):
        raise DimensionMismatchError("all elements must share one order")
    if mode == "rational":
        return BrandtVerdict(True)
    k = next((k for k, e in enumerate(elements) if not _has_integral_forms(e)), None)
    if k is None:
        return BrandtVerdict(True)
    i, value = next(
        (i, q) for i, q in enumerate(_forms(elements[k]), start=1) if q.denominator != 1
    )
    return BrandtVerdict(False, BrandtCounterexample((0, k), "b" if k else "a", i, value))


def _has_integral_forms(c: RationalCirculant) -> bool:
    """Whether every form q_i(c) is an integer: with L*c integral,
    whether L divides every coefficient of every remainder r_d of L*c."""
    return all(v % c.scale == 0 for _, rem in _components(c.cleared) for v in rem)


@dataclass(frozen=True)
class SpectrumReconstruction:
    circulant: Circulant
    real: bool


def reconstruct_from_spectrum(values) -> SpectrumReconstruction:
    """Coefficients from a prescribed exact spectrum, by inverse transform.

    c_i = (1/n) sum_j conj(omega^((i-1)(j-1))) lambda_j.  The result is
    real exactly when lambda_{k+1} = lambda_{n-k+1} for 1 <= k <= n-1;
    in that case residual imaginary parts (roundoff) are zeroed, and
    RootAssignmentError is raised if any exceeds
    1e-10 * (1 + max_j |lambda_j|).  Raises InvalidScalarError when a
    value lies beyond the float range.
    """
    import numpy as np

    from .core import Circulant, _result
    from .spectral import from_spectrum

    if isinstance(values, IntegerSpectrum):
        values = values.values
    lams = tuple(_as_rational(v) for v in values)
    if not lams:
        raise InvalidOrderError("empty spectrum")
    real = lams[1:] == lams[:0:-1]
    try:
        spectrum = np.array(lams, dtype=float)
        c = from_spectrum(spectrum)
    except OverflowError:
        raise InvalidScalarError("a spectrum value lies beyond the float range") from None
    if real:
        # The roundoff of the inverse transform scales with the values.
        worst = float(np.abs(c.array.imag).max())
        if worst > 1e-10 * (1.0 + float(np.abs(spectrum).max())):
            raise RootAssignmentError(
                f"conjugate-symmetric spectrum left imaginary residue {worst:.3e}"
            )
        c = _result(Circulant, c.array.real.astype(complex))
    return SpectrumReconstruction(circulant=c, real=real)


def _gauss_jordan(rows: list[RationalCirculant]) -> tuple[Fraction, tuple[int, tuple[int, ...]] | None]:
    """(det, inverse) of the square grid of these rows, the inverse cleared as
    (lv, v): v / lv, with v the integer entries flattened row by row,
    lv > 0 and gcd(lv, v) = 1; inverse is None when det = 0.

    Fraction-free Gauss-Jordan (Bareiss): each row i is stored cleared by
    the lcm L_i of its own denominators, so that A = D*grid with
    D = diag(L_i) is integral, and [A | I] is eliminated in integers, each
    update (p * a_ij - a_ik * a_kj) // p_prev dividing exactly by the
    previous pivot.  At the end the left block is p*I with p = sign * det(A) (sign
    from the row swaps) and the right block is p * A^-1, so
    det = sign * p / (L_1 ... L_n) and the inverse, A^-1 D, is column c
    of right times L_c, over p.  One lcm of all n^2 denominators would do
    the same work on numbers up to n times longer.
    """
    n = len(rows)
    scales = [row.scale for row in rows]
    aug = [[*row.cleared, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
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
            factor = aug[i][k]
            # With factor 0 and pivot = prev, the update would leave row i as it is.
            if i != k and (factor or pivot != prev):
                aug[i] = [(pivot * x - factor * y) // prev for x, y in zip(aug[i], pivot_line)]
        prev = pivot
    v = [scale * x for row in aug for x, scale in zip(row[n:], scales)]
    g = math.gcd(prev, *v)
    if prev < 0:
        g = -g
    return Fraction(sign * prev, math.prod(scales)), (prev // g, tuple(x // g for x in v))


@dataclass(frozen=True, repr=False)
class LatticeBasis:
    """Rows hold the P-power coefficients of the generators v_1, ..., v_n.

    Stored once, cleared, as `lattice_new` builds it: the rows as
    `cleared_rows` = (lr, r), rows = r / lr, and the exact inverse of
    their grid as `cleared_inverse` = (lv, v), inverse = v / lv, with r
    and v integer tuples flattened row by row, lr and lv the lcms of the
    entries' denominators and gcd(lv, v) = 1; and the determinant `det`.
    `rows` and `inverse`, the grids as Fractions, are views built on each
    read.  Each stored form is unique to its grid, so `==` and `hash` mean
    equality of rows, det and inverse, and `repr` shows those three."""

    cleared_rows: tuple[int, tuple[int, ...]]
    det: Fraction
    cleared_inverse: tuple[int, tuple[int, ...]]

    n = property(lambda self: math.isqrt(len(self.cleared_rows[1])))
    rows = property(lambda self: _grid(*self.cleared_rows), doc="The rows as Fractions.")
    inverse = property(lambda self: _grid(*self.cleared_inverse), doc="The inverse as Fractions.")

    def __repr__(self) -> str:
        return f"LatticeBasis(rows={self.rows!r}, det={self.det!r}, inverse={self.inverse!r})"


def _grid(scale: int, flat: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """The square grid of Fractions flat / scale, flat read row by row."""
    n = math.isqrt(len(flat))
    return tuple(tuple(Fraction(x, scale) for x in flat[i:i + n]) for i in range(0, n * n, n))


def lattice_new(rows) -> LatticeBasis:
    """Validate and precompute: stores the exact determinant and inverse
    of the coefficient matrix; rejects dependent rows.  Each row is built
    as a `RationalCirculant`, through its entry rule."""
    grid = [tuple(row) for row in rows]
    n = len(grid)
    if n == 0 or any(len(row) != n for row in grid):
        raise InvalidOrderError("basis must be a nonempty square grid")
    circulants = [RationalCirculant(row) for row in grid]
    det, cleared_inverse = _gauss_jordan(circulants)
    if cleared_inverse is None:
        raise DependentBasisError("basis rows are linearly dependent (det = 0)")
    lr = math.lcm(*(c.scale for c in circulants))
    r = tuple(x * (lr // c.scale) for c in circulants for x in c.cleared)
    return LatticeBasis(cleared_rows=(lr, r), det=det, cleared_inverse=cleared_inverse)


def basis_inverse_integral(basis: LatticeBasis) -> tuple[bool, tuple[tuple[Fraction, ...], ...]]:
    """Whether every entry of the exact inverse is an integer, with the
    inverse itself."""
    return basis.cleared_inverse[0] == 1, basis.inverse


@dataclass(frozen=True)
class LatticeSolution:
    coefficients: tuple[Fraction, ...]
    member: bool  # all coefficients integral


def lattice_decompose(basis: LatticeBasis, target: RationalCirculant) -> LatticeSolution:
    """Solve (a_1, ..., a_n) * C = target row exactly; membership means
    every a_i is an integer.

    The coefficients are recombined with the rows and checked against the
    target exactly (ArithmeticError otherwise).  When the basis inverse
    and the target are integral, the coefficients are integer sums of
    products, so membership follows.  Non-members still get their exact
    rational coefficients.
    """
    n = basis.n
    if target.n != n:
        raise DimensionMismatchError(f"target order {target.n} vs basis order {n}")
    # target = t/lt, inverse = v/lv and rows = r/lr with t, v, r integral
    # (v and r flattened row by row), so the coefficients are t v / (lt lv).
    lt, t = target.scale, target.cleared
    lv, v = basis.cleared_inverse
    lr, r = basis.cleared_rows
    nums = [sum(map(operator.mul, t, v[j::n])) for j in range(n)]
    # Exact recombination (coefficients times rows = target) must hold;
    # zero tolerance.
    for j in range(n):
        if sum(map(operator.mul, nums, r[j::n])) != t[j] * lv * lr:
            raise ArithmeticError("exact decomposition failed to recombine")
    denominator = lt * lv
    member = all(a % denominator == 0 for a in nums)
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
    if basis.cleared_inverse[0] != 1:
        raise NotIntegralBasisError("basis inverse has fractional entries")
    target = RationalCirculant(block_coeffs)
    if target.scale != 1:
        fractional = next(Fraction(v, target.scale) for v in target.cleared if v % target.scale)
        raise InvalidScalarError(f"block coefficient {fractional} is not an integer")
    solution = lattice_decompose(basis, target)
    return tuple(int(a) for a in solution.coefficients)
