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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import Circulant, _check_orders, _result
from .errors import (
    DependentBasisError,
    DimensionMismatchError,
    InvalidModeError,
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
        return RationalCirculant(tuple(Fraction(v, scale) for v in _cyclic(x, y)))


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


# Packed rows (Kronecker substitution).  An integer row v of length n
# with |v_s| < 2^(w-1) is held as the one Python int sum v_s 2^(w s),
# w = 8 * width bits per slot: a product of two such ints is the linear
# convolution of the rows, slot by slot, as long as every slot of it
# stays below 2^(w-1) in absolute value.


def _width(bound: int) -> int:
    """Bytes per slot for entries of absolute value at most bound: its bits
    plus a sign bit, rounded up to whole bytes."""
    return bound.bit_length() // 8 + 1


def _bias(n: int, width: int) -> int:
    """2^(w-1) in every one of n slots of width bytes: adding it makes
    every slot of a packed row nonnegative, with no carry between slots."""
    return int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * n, "little")


def _pack(row: list[int], width: int) -> int:
    """The row packed into slots of width bytes, in O(n w) bit work: each
    entry is written biased into its slot, then the bias is taken off."""
    half = 1 << 8 * width - 1
    data = b"".join((v + half).to_bytes(width, "little") for v in row)
    return int.from_bytes(data, "little") - _bias(len(row), width)


def _unpack(packed: int, n: int, width: int) -> list[int]:
    """The n entries of a packed row, in O(n w) bit work: one to_bytes of
    the biased int and one from_bytes per slot."""
    half = 1 << 8 * width - 1
    data = (packed + _bias(n, width)).to_bytes(n * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - half for i in range(0, n * width, width)]


def _fold(product: int, n: int, width: int) -> int:
    """A packed linear product folded mod x^n - 1: the low n slots, taken
    as a balanced remainder, plus the high slots shifted down.  Exact when
    every slot of the product and of the folded row fits its slot."""
    shift = 8 * width * n
    low = product & ((1 << shift) - 1)
    if low >> shift - 1:
        low -= 1 << shift
    return low + ((product - low) >> shift)


def _slot0(packed: int, width: int) -> int:
    """The first entry of a packed row."""
    w = 8 * width
    v = packed & ((1 << w) - 1)
    return v - (1 << w) if v >> w - 1 else v


def _cyclic(x: list[int], y: list[int]) -> list[int]:
    """Cyclic convolution of two integer rows of one length n: one big
    integer product of the packed rows, folded mod x^n - 1.  The slots
    are wide enough for the entries of x and y and for ||x||_1 max|y|,
    which bounds every slot of the linear product as well as of the
    result."""
    n = len(x)
    norm, top = sum(map(abs, x)), max(map(abs, y))
    width = _width(max(norm * top, norm, top))
    return _unpack(_fold(_pack(x, width) * _pack(y, width), n, width), n, width)


def _traces(d: list[int]):
    """Yield the traces p_k = tr(D^k) = n (d^{*k})_0, k = 1..n, of the
    integer circulant D = circ(d), computed only as they are asked for.

    Baby steps and giant steps (Paterson and Stockmeyer): with
    m = isqrt(3n) and a = ||d||_1, every entry of d^{*k} is at most a^k.
    The baby powers B_i = d^{*i}, i <= m, are kept packed at the one
    width of a^m, each one big integer product of n-slot numbers and a
    fold, and p_i is read from slot 0 (p_1 = n d_0, before anything is
    packed).  Past m they are unpacked once, and
    p_{jm+i} = n sum_s G_j[s] B_i[-s mod n] with the giant powers
    G_j = d^{*jm}, each one `_cyclic` product G_{j-1} * G_1, its slots
    sized by the norms of the two factors, at most a^{jm}.  In all, about
    2.3 sqrt(n) big integer products and n dot products of length n; a
    caller that stops after p_k pays for the powers up to k only."""
    n = len(d)
    yield n * d[0]
    # A giant step packs two rows, multiplies at a growing width and
    # unpacks; a baby step folds at one width and unpacks, so giants cost
    # more.  In interleaved timings at n = 6..256, isqrt(3n) beat isqrt(n)
    # at every order tried, by 4 to 32 %; isqrt(4n) lost at 64 and 97.
    m = math.isqrt(3 * n)
    a = sum(map(abs, d))
    width = _width(a**m)
    packed_d = power = _pack(d, width)
    babies = [power]
    for _ in range(1, m):
        power = _fold(power * packed_d, n, width)
        babies.append(power)
        yield n * _slot0(power, width)
    if m == n:
        return
    # reversed_rows[i][s] = B_i[-s mod n], B_0 being the identity row.
    rows = [_unpack(b, n, width) for b in babies]
    reversed_rows = [[1] + [0] * (n - 1)] + [row[:1] + row[:0:-1] for row in rows[:-1]]
    first = giant = rows[-1]  # G_1 = B_m
    for k in range(m + 1, n + 1):
        i = k % m  # k = jm + i, and G_j is the last giant power taken
        if i == 0:
            giant = _cyclic(giant, first)
        yield n * sum(map(operator.mul, giant, reversed_rows[i]))


def _elementary(d: list[int]):
    """Yield e_1, ..., e_n, the elementary symmetric values of the
    eigenvalues of the integer circulant D = circ(d), one per step.

    Step k takes the trace p_k = tr(D^k) from `_traces` and then Newton's
    identity k*e_k = sum_{i=1..k} (-1)^(i-1) p_i e_{k-i} in integers: D
    is an integer matrix, so its characteristic polynomial is integral
    and the division by k is exact.  e_k needs only p_1..p_k, so a caller
    that stops after e_k pays for k traces, not n.  The same code runs at
    every order: about 2.3 sqrt(n) products of packed n-slot integers,
    whose widest slots hold about n log2(a) bits, a = ||d||_1,
    plus O(n^2) integer operations for the dot products and Newton's
    identities."""
    signed = []  # (-1)^(i-1) p_i for i = 1..k
    e = [1]
    for k, p in enumerate(_traces(d), start=1):
        signed.append(p if k % 2 else -p)
        e.append(sum(map(operator.mul, signed, reversed(e))) // k)
        yield e[k]


def _forms(c: RationalCirculant):
    """Yield q_1, ..., q_n of c, each one computed only when it is asked
    for: with d = L*c integral and e_i the elementary symmetric values of
    the eigenvalues of circ(d) (see `_elementary`), q_i = e_i / L^i."""
    scale, d = _cleared(c.coeffs)
    for i, e in enumerate(_elementary(d), start=1):
        yield Fraction(e, scale**i)


#: The largest order of a rational document whose exact forms or
#: characteristic polynomial `circulants forms` and `charpoly` compute.
#: At a fixed entry size the cost grows about as n^3.7 (sqrt(n) products
#: of integers of up to n^2 log2 ||d||_1 bits, by Karatsuba): through
#: `cli.main` on a 2-vCPU VM a dense row of order 128 took 0.03 s with
#: entries -3..3, 0.4 to 0.5 s with 15-digit integers or with fractions
#: of denominators below 50, and 3.2 to 3.5 s with 64-digit integers; at
#: order 256 the 15-digit row took 4.5 s and the fractions 6 to 9 s.
_EXACT_MAX_ORDER = 128


def exact_char_poly(c: RationalCirculant) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial with exact coefficients, descending
    powers: the coefficient of X^(n-i) is (-1)^i q_i (see `_forms`).
    About 2.3 sqrt(n) products of packed integers and O(n^2) integer
    operations (see `_traces`)."""
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


def _mod_monic(f: list[int], g: list[int]) -> list[int]:
    """Remainder of f by the monic integer polynomial g, both as ascending
    coefficient lists; only g's nonzero terms are visited."""
    m = len(g) - 1
    rem = list(f)
    terms = _support(g[:m])
    for top in range(len(f) - 1, m - 1, -1):
        q = rem[top]
        if q:
            base = top - m
            for i, a in terms:
                rem[base + i] -= q * a
    return rem[:m]


def _components(row: list[int]):
    """Yield (d, r_d) for each divisor d of n = len(row), in increasing
    order: the integer row folded mod x^d - 1 and reduced mod Phi_d, an
    ascending list of phi(d) integer coefficients.  p(zeta) = r_d(zeta)
    at every primitive d-th root of unity zeta, p being the row
    polynomial."""
    n = len(row)
    for d in range(1, n + 1):
        if n % d == 0:
            yield d, _mod_monic([sum(row[k::d]) for k in range(d)], _cyclotomic(d))


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
    `_cyclotomic`).  Since 1, zeta, ..., zeta^(phi(d)-1) is a basis
    of Q(zeta_d), those eigenvalues are rational exactly when the
    remainder is a constant r_d (see `_components`), and then each equals
    r_d / L.  Returns None when some remainder is not constant, or when
    mode='integral' and some r_d / L is fractional, and raises
    InvalidModeError on any other mode.  Integer operations only, no
    floats, so the answer does not depend on the size of the entries.
    """
    _check_mode(mode)
    n = c.n
    scale, row = _cleared(c.coeffs)
    value: dict[int, Fraction] = {}
    for d, rem in _components(row):
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
    the first violation in that ordered traversal (pairs in row-major
    order, then a, b, a+b, ab, then i = 1..n).  Rational inputs always
    satisfy the rational variant; the integral one is the interesting
    predicate.  Raises InvalidModeError on any other mode.

    The integral predicate is decided in the Wedderburn components, not
    by characteristic polynomials.  With L*c integral, the forms of c
    are all integers exactly when L divides every coefficient of every
    remainder r_d of L*c (see `_components`): the forms are the
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
    integers; see `_traces`); nothing per pair.
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
    scale, row = _cleared(c.coeffs)
    return all(v % scale == 0 for _, rem in _components(row) for v in rem)


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


def _gauss_jordan(rows: list[list[Fraction]]) -> tuple[Fraction, tuple[int, tuple[int, ...]] | None]:
    """(det, inverse) of a square rational grid, the inverse cleared as
    (lv, v): v / lv, with v the integer entries flattened row by row,
    lv > 0 and gcd(lv, v) = 1; inverse is None when det = 0.

    Fraction-free Gauss-Jordan (Bareiss): each row i is cleared by the lcm
    L_i of its own denominators, so that A = D*grid with D = diag(L_i) is
    integral, and [A | I] is eliminated in integers, each update
    (p * a_ij - a_ik * a_kj) // p_prev dividing exactly by the previous
    pivot.  At the end the left block is p*I with p = sign * det(A) (sign
    from the row swaps) and the right block is p * A^-1, so
    det = sign * p / (L_1 ... L_n) and the inverse, A^-1 D, is column c
    of right times L_c, over p.  One lcm of all n^2 denominators would do
    the same work on numbers up to n times longer.
    """
    n = len(rows)
    scales, cleared = zip(*map(_cleared, rows))
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(cleared)]
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
    v = [scale * x for row in aug for x, scale in zip(row[n:], scales)]
    g = math.gcd(prev, *v)
    if prev < 0:
        g = -g
    return Fraction(sign * prev, math.prod(scales)), (prev // g, tuple(x // g for x in v))


@dataclass(frozen=True)
class LatticeBasis:
    """Rows hold the P-power coefficients of the generators v_1, ..., v_n.

    `lattice_new` builds it with the inverse and the rows also cleared,
    for every `lattice_decompose` against this basis: inverse = v / lv
    and rows = r / lr with v and r integer tuples, flattened row by row,
    lv > 0 and gcd(lv, v) = 1, kept outside `==`, `hash` and `repr`."""

    rows: tuple[tuple[Fraction, ...], ...]
    det: Fraction
    inverse: tuple[tuple[Fraction, ...], ...]
    cleared_inverse: tuple[int, tuple[int, ...]] = field(repr=False, compare=False)
    cleared_rows: tuple[int, tuple[int, ...]] = field(repr=False, compare=False)

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
    det, cleared_inverse = _gauss_jordan(grid)
    if cleared_inverse is None:
        raise DependentBasisError("basis rows are linearly dependent (det = 0)")
    lv, v = cleared_inverse
    lr, r = _cleared([x for row in grid for x in row])
    return LatticeBasis(
        rows=tuple(map(tuple, grid)),
        det=det,
        inverse=tuple(tuple(Fraction(x, lv) for x in v[i:i + n]) for i in range(0, n * n, n)),
        cleared_inverse=cleared_inverse,
        cleared_rows=(lr, tuple(r)),
    )


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
