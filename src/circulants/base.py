"""The numpy-free base of the package.

Importing this module loads no numpy, and neither does importing
`errors`, `documents` or `cli`; so a process that only reads rational
documents (`charpoly`, `forms`, `brandt-check`, `lattice-solve`) loads
this module, `lattice` and those, never numpy, `core` or `spectral`.
It holds what the exact layer shares with the float layer, and the
exact layer's integer kernel:

* `_Frozen`, the base of every immutable slotted class, with the one
  equality rule of those values, and `_check_orders`, the order check
  of two circulants of any kind;
* `DEFAULT_SEED`, the seed of `verify-all` and `circulants bench`;
* the integer kernel of `lattice`: rows packed into one big integer
  (Kronecker substitution) and their cyclic product `_cyclic`; the
  traces `_traces` and elementary symmetric values `_elementary` of an
  integer circulant; and its Wedderburn components `_components` over Q,
  by the cyclotomic polynomials `_cyclotomic`.  `lattice`'s docstring
  states the algorithms and their costs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError

from .errors import DimensionMismatchError

DEFAULT_SEED = 0x5EED


class _Frozen:
    """Base of the immutable slotted classes: assigning or deleting an
    attribute raises FrozenInstanceError, as on a frozen dataclass.
    Every constructor fills the slots through their descriptors' `__set__`.

    The one equality rule of these values: a value equals a value of its
    own class whose `_key()`, the stored form as a hashable tuple, is
    equal, and hashes like its key.  A subclass defines `_key`; one that
    compares its stored arrays directly (`core._RowValue`) keeps the hash."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _check_orders(x, y):
    """Raise DimensionMismatchError unless x and y, circulants of any
    kind, have the same order n."""
    if x.n != y.n:
        raise DimensionMismatchError(f"orders differ: {x.n} vs {y.n}")


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
    The baby powers B_i = d^{*i}, i <= m, are each one big integer
    product B_{i-1} * d of n-slot numbers and a fold, packed at the width
    of a^top, where top starts at min(8, m) and doubles, up to m, when i
    passes it.  Each power is kept as its unpacked row, and p_i is read
    from its slot 0 (p_1 = n d_0, before anything is packed).  Past m,
    p_{jm+i} = n sum_s G_j[s] B_i[-s mod n] with the giant powers
    G_j = d^{*jm}, each one `_cyclic` product G_{j-1} * G_1, its slots
    sized by the norms of the two factors, at most a^{jm}.  In all, about
    2.3 sqrt(n) big integer products and n dot products of length n; a
    caller that stops after p_k, k <= m, pays for k products at the
    width of at most a^max(8, 2k), not a^m."""
    n = len(d)
    yield n * d[0]
    # A giant step packs two rows, multiplies at a growing width and
    # unpacks; a baby step folds at one width and unpacks, so giants cost
    # more.  In interleaved timings at n = 6..256, isqrt(3n) beat isqrt(n)
    # at every order tried, by 4 to 32 %; isqrt(4n) lost at 64 and 97.
    m = math.isqrt(3 * n)
    a = sum(map(abs, d))
    rows, top = [d], 0  # rows[i - 1] = B_i
    for i in range(2, m + 1):
        if i > top:
            top = min(max(8, 2 * top), m)
            width = _width(a**top)
            packed_d, power = _pack(d, width), _pack(rows[-1], width)
        power = _fold(power * packed_d, n, width)
        rows.append(_unpack(power, n, width))
        yield n * rows[-1][0]
    if m == n:
        return
    # reversed_rows[i][s] = B_i[-s mod n], B_0 being the identity row.
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
    terms = [(i, a) for i, a in enumerate(g[:m]) if a]
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
