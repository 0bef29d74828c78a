"""Benchmark of the package's operations, one row per timed call.

``ROWS`` lists the rows in output order, as (name, build).  For each
size the run draws two random circulants x and y and calls every
``build(x, y, seed)``: it cross-checks the call it will time on those
inputs and returns ``(call, checksum)``, or None above the order the
row is capped at, and then no record of that row is written.  Only then
is any row of that size timed.  A failed check raises
BenchDisagreementError, so timings are never published for wrong
answers.  Builders look up the functions
they check and time in this module's namespace when they run, so a test
can replace one.
"""

from __future__ import annotations

import functools
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyfromroots

from . import cli
from .core import Circulant, _shift, mul_naive
from .documents import (
    DocumentError,
    circulant_to_obj,
    dump_json,
    load_json,
    parse_documents,
    spectrum_from_obj,
    spectrum_to_obj,
)
from .errors import CirculantError, InvalidScalarError
from .fixtures import DEFAULT_SEED, random_circulant, random_weights
from .forms import forms, inverse, is_invertible
from .hopf import block_mul, comultiplication, integral_check
from .hopf import verify_antipode_axiom, verify_counit_axiom
from .lattice import BrandtCounterexample, BrandtVerdict, bounded_row, brandt_check, exact_char_poly
from .lattice import integer_spectrum, rational_circ
from .spectral import eigenvalues, fast_mul
from .twisted import MuCirculant, TwoCocycle, cocycle_from_mu, mu_eigen, mu_mul, mu_to_dense, verify_cocycle


class BenchDisagreementError(CirculantError, ArithmeticError):
    """A cross-check failed; no timings were produced."""

    exit_code = 1


@dataclass(frozen=True)
class BenchResult:
    n: int
    method: str
    reps: int
    median_ns: int
    checksum: float


def _dense_method(x: Circulant, y: Circulant) -> Circulant:
    return Circulant((x.to_dense() @ y.to_dense())[0])


def _within(n: int, what: str, deviation: float, scale: float) -> None:
    """Raise BenchDisagreementError, naming ``what``, unless ``deviation``
    is at most 1e-9 * (1 + scale)."""
    tol = 1e-9 * (1.0 + scale)
    if not deviation <= tol:
        raise BenchDisagreementError(f"n={n}: {what} {deviation:.3e} (tol {tol:.3e})")


def _product(method: str, x: Circulant, y: Circulant, seed: int):
    """The product x y by this module's function named ``method``, and the
    checksum sum |r_k|; checked against ``mul_naive`` within
    1e-9 * (1 + ||x|| ||y||)."""
    fn = globals()[method]
    product = fn(x, y)
    reference = product if fn is mul_naive else mul_naive(x, y)
    deviation = float(np.max(np.abs(product.array - reference.array)))
    _within(x.n, f"{method} deviates from mul_naive by", deviation, x.norm_inf() * y.norm_inf())
    return lambda: fn(x, y), product.norm_inf()


def _cli_eig(x: Circulant, *_):
    """``circulants eig`` run in process on x's document, and the checksum
    sum |lambda_j|; checked: the decoded output equals
    ``eigenvalues(x).values``."""
    text = json.dumps(circulant_to_obj(x))

    def run() -> tuple[int, str]:
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
        try:
            code = cli.main(["eig"])
            return code, sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = saved

    code, out = run()
    want = eigenvalues(x).values
    if code != 0 or spectrum_from_obj(load_json(out)) != want:
        raise BenchDisagreementError(f"n={x.n}: cli eig (exit {code}) disagrees with eigenvalues")
    return run, float(sum(abs(z) for z in want))


def _integer_spectrum(x: Circulant, *_):
    """The exact spectrum of the orbit-constant row c_k = n / gcd(k, n),
    the order of k in Z/n, whose spectrum is integral, and the checksum
    sum |lambda_j|; checked: every slot equals the rounded float
    eigenvalue of that slot, within 1e-9 * (1 + ||c||)."""
    n = x.n
    row = rational_circ([n // math.gcd(k, n) for k in range(n)])
    spectrum = integer_spectrum(row)
    floats = eigenvalues(row.to_float()).values
    tol = 1e-9 * (1.0 + sum(row.coeffs))
    if spectrum is None or any(
        v != round(z.real) or abs(z - float(v)) > tol for v, z in zip(spectrum.values, floats)
    ):
        raise BenchDisagreementError(f"n={n}: integer_spectrum disagrees with eigenvalues")
    return lambda: integer_spectrum(row), float(sum(abs(v) for v in spectrum.values))


def _forms(x: Circulant, *_):
    """The forms of circ(2, 1, 0, ..., 0) = 2I + P of x's order n, and the
    checksum sum_i |q_i| 2^-i; None where a form leaves the float range
    (from n = 650).  Checked: prod_j (X + lambda_j) = (X + 2)^n - (-1)^n,
    so q_i = C(n, i) 2^i - [i = n] (-1)^n, within 1e-12 e_i(|lambda|), the
    scale of the expansion's error.  Both sides are scaled by 2^-i, which
    is exact, so that e_i(|lambda|) / 2^i = e_i(|lambda| / 2), taken from
    numpy's polyfromroots, stays in the float range."""
    n = x.n
    c = Circulant((2, 1) + (0,) * (n - 2))
    try:
        q = np.array(forms(c).q)
    except InvalidScalarError:
        return None
    exact = [math.comb(n, i) * 2**i for i in range(1, n + 1)]
    exact[-1] -= (-1) ** n
    unit = np.ldexp(1.0, -np.arange(1, n + 1))
    half_moduli = np.abs(2.0 + np.exp(2j * np.pi * np.arange(n) / n)) / 2
    scale = polyfromroots(-half_moduli)[-2::-1]
    if not np.all(np.abs(q - np.array(exact, dtype=float)) * unit <= 1e-12 * scale):
        raise BenchDisagreementError(f"n={n}: forms of 2I + P are not those of (X - 2)^n - 1")
    return lambda: forms(c), float(np.abs(q * unit).sum())


def _inverse(x: Circulant, *_):
    """The inverse of circ(2, 1, 0, ..., 0) = 2I + P of x's order n, whose
    spectrum 2 + omega^k has condition number at most 3, and the
    checksum, the deviation max_k |(c c^-1 - I)_k| (sum_k |c^-1_k| is 1
    at every n).  Checked: that deviation is at most 1e-9, the product
    taken by `mul_naive`."""
    n = x.n
    c = Circulant((2, 1) + (0,) * (n - 2))
    inv = inverse(c)
    residual = mul_naive(c, inv).array.copy()
    residual[0] -= 1.0
    deviation = float(np.max(np.abs(residual)))
    if not deviation <= 1e-9:
        raise BenchDisagreementError(f"n={n}: 2I + P times its inverse is {deviation:.3e} off I")
    return lambda: inverse(c), deviation


def _verdict(x: Circulant, *_):
    """The invertibility verdict on circ(1, -1, 0, ..., 0) = I - P of x's
    order, whose eigenvalue at slot 1 is the row sum 0, and the checksum,
    the verdict's threshold.  Checked: the verdict is singular with
    witness 1."""
    n = x.n
    c = Circulant((1, -1) + (0,) * (n - 2))
    verdict = is_invertible(c)
    if verdict.invertible or verdict.witness != 1:
        raise BenchDisagreementError(f"n={n}: I - P gets the verdict {verdict}, want witness 1")
    return lambda: is_invertible(c), verdict.threshold


def _verify_cocycle(x: Circulant, y: Circulant, seed: int):
    """`verify_cocycle` on the coboundary of weights drawn from (seed, n),
    and the checksum, its residual; None above n = 128, since the check
    is O(n^3) (0.22 s at n = 128 and 1.77 s at 256 on a 2-vCPU x86-64
    VM).  Checked: it holds on the coboundary and fails on a copy with
    the entry F(e_1, e_n) scaled by 1 + 1e-3, a normalization entry,
    since at n = 2 every normalized table is a cocycle."""
    n = x.n
    if n > 128:
        return None
    coboundary = cocycle_from_mu(random_weights(np.random.default_rng([seed, n]), n))
    table = coboundary.array.copy()
    table[0, -1] *= 1 + 1e-3
    report, perturbed = verify_cocycle(coboundary), verify_cocycle(TwoCocycle(table))
    if not report.holds or perturbed.holds:
        holds = (report.holds, perturbed.holds)
        raise BenchDisagreementError(f"n={n}: verify_cocycle holds {holds} on a coboundary and its perturbed copy")
    return lambda: verify_cocycle(coboundary), report.residual


def _add(x: Circulant, y: Circulant, *_):
    """x + y, and the checksum sum |s_k|; checked: it equals the sum of
    the two coefficient tuples, entry by entry in Python complex."""
    total = x + y
    if total != Circulant(tuple(a + b for a, b in zip(x.coeffs, y.coeffs))):
        raise BenchDisagreementError(f"n={x.n}: x + y disagrees with the tuple sum")
    return lambda: x + y, total.norm_inf()


def _block_mul(x: Circulant, y: Circulant, *_):
    """Delta x times Delta y, and the checksum sum |T[a, b]| over the
    product's coefficient tensor; checked against the 2-D cyclic
    convolution of the two coefficient tensors, taken through the 2-D
    DFT, within 1e-9 * (1 + ||x|| ||y||)."""
    dx, dy = comultiplication(x), comultiplication(y)
    product = block_mul(dx, dy).coefficient_tensor()
    spectra = np.fft.fft2(dx.coefficient_tensor()) * np.fft.fft2(dy.coefficient_tensor())
    deviation = float(np.max(np.abs(product - np.fft.ifft2(spectra))))
    scale = x.norm_inf() * y.norm_inf()
    _within(x.n, "block_mul deviates from the 2-D convolution by", deviation, scale)
    return lambda: block_mul(dx, dy), float(np.abs(product).sum())


def _hopf_verify(x: Circulant, *_):
    """The counit, antipode and integral checks of x, and the checksum,
    the sum of their residuals; checked: all three hold and the counit
    and antipode residuals are exactly 0.0, as summing the coefficients
    in the counit's order makes them."""

    def run():
        return verify_counit_axiom(x), verify_antipode_axiom(x), integral_check(x)

    reports = run()
    if not all(r.holds for r in reports) or reports[0].residual != 0.0 or reports[1].residual != 0.0:
        raise BenchDisagreementError(f"n={x.n}: hopf-verify reports {reports}")
    return run, float(sum(r.residual for r in reports))


def _parse(x: Circulant, *_):
    """Decoding the circulant document of x, and the checksum sum |c_i| of
    the decoded row; checked: that row equals the row of x bit for
    bit."""
    text = json.dumps(circulant_to_obj(x))
    decoded = parse_documents(text)[0].to_circulant()
    if decoded.array.tobytes() != x.array.tobytes():
        raise BenchDisagreementError(f"n={x.n}: the decoded row differs from the encoded one")
    return lambda: parse_documents(text), decoded.norm_inf()


def _encode(x: Circulant, *_):
    """Writing the spectrum document of x, and the checksum, the length of
    the text; checked: the text equals ``json.dumps(obj, indent=2)`` and
    a newline."""
    obj = spectrum_to_obj(eigenvalues(x).array)
    text = dump_json(obj)
    if text != json.dumps(obj, indent=2) + "\n":
        raise BenchDisagreementError(f"n={x.n}: dump_json differs from json.dumps(indent=2)")
    return lambda: dump_json(obj), float(len(text))


def _brandt(x: Circulant, y: Circulant, seed: int):
    """The integral Brandt predicate of three random integer rows of
    x's order n, entries -2..2, and of the same set led by the scalar
    I/2, and the checksum, the witness's value.  The rows are drawn from
    (seed, n), not from x and y's generator.  Checked: the integer set
    holds and the led set fails at pair (0, 0), combination 'a', on the
    first form of (X - 1/2)^n that is not an integer:
    q_i = C(n, i) / 2^i with the smallest such i."""
    n = x.n
    rng = np.random.default_rng([seed, n])
    held = [rational_circ([int(v) for v in rng.integers(-2, 3, n)]) for _ in range(3)]
    led = [rational_circ([Fraction(1, 2)] + [0] * (n - 1)), *held]
    i = next(i for i in range(1, n + 1) if math.comb(n, i) % 2**i)
    want = BrandtCounterexample((0, 0), "a", i, Fraction(math.comb(n, i), 2**i))

    def run():
        return brandt_check(held), brandt_check(led)

    verdicts = run()
    if verdicts != (BrandtVerdict(True), BrandtVerdict(False, want)):
        raise BenchDisagreementError(f"n={n}: brandt_check gives {verdicts}, want a witness {want}")
    return run, float(want.value)


#: A prime below 2^25: products of two residues and sums of up to 2^13
#: of them stay within int64.
_PRIME = 33554393


def _exact_char_poly(x: Circulant, y: Circulant, seed: int):
    """The exact characteristic polynomial of a dense integer row of x's
    order n, entries -3..3, drawn from (seed, n), not from x and y's
    generator; and the checksum, the total bit length of its
    coefficients.  None where `lattice.bounded_row`, the door of
    `circulants charpoly`, refuses the dense row (from about n = 570).
    Checked: circ(2, 1, 0, ..., 0) = 2I + P gives (X - 2)^n - 1 exactly,
    and the dense row's polynomial annihilates the row modulo a prime
    below 2^25 (Cayley-Hamilton, by Horner's rule in int64)."""
    n = x.n
    rng = np.random.default_rng([seed, n])
    row = [int(v) for v in rng.integers(-3, 4, n)]
    # Where the bound bites, 2I + P (1-norm 3) costs less than the dense row.
    try:
        c = bounded_row(row)
    except DocumentError:
        return None
    closed = [math.comb(n, i) * (-2) ** i for i in range(n + 1)]
    closed[-1] -= 1
    if exact_char_poly(rational_circ([2, 1] + [0] * (n - 2))) != tuple(closed):
        raise BenchDisagreementError(f"n={n}: exact_char_poly of 2I + P is not (X - 2)^n - 1")
    monic = exact_char_poly(c)
    # The first row of p(C), by acc <- acc C + a_k I with every entry a
    # residue; C[i, j] = row[j - i mod n], so the first row of acc C is
    # acc @ C.
    dense = np.array(row, dtype=np.int64)[_shift(n)] % _PRIME
    acc = np.zeros(n, dtype=np.int64)
    for a in monic:
        acc = acc @ dense % _PRIME
        acc[0] = (acc[0] + a.numerator % _PRIME) % _PRIME
    if any(a.denominator != 1 for a in monic) or acc.any():
        raise BenchDisagreementError(f"n={n}: exact_char_poly does not annihilate its row mod {_PRIME}")
    return lambda: exact_char_poly(c), float(sum(abs(a.numerator).bit_length() for a in monic))


def _twisted_pair(n: int, seed: int) -> tuple[MuCirculant, MuCirculant]:
    """Two twisted circulants of order n over one set of `random_weights`,
    with coefficients drawn like x and y.  Drawn from (seed, n), not from
    x and y's generator."""
    rng = np.random.default_rng([seed, n])
    weights = random_weights(rng, n)
    return tuple(MuCirculant(random_circulant(rng, n).array, weights) for _ in range(2))


def _mu_mul(x: Circulant, y: Circulant, seed: int):
    """The twisted product of the pair of x's order, and the checksum
    sum |c_i|; checked: its dense form is within 1e-9 * (1 + max |entry|)
    of the product of the dense forms."""
    a, b = _twisted_pair(x.n, seed)
    product = mu_mul(a, b)
    dense = mu_to_dense(a) @ mu_to_dense(b)
    deviation = float(np.max(np.abs(mu_to_dense(product) - dense)))
    scale = float(np.max(np.abs(dense)))
    _within(x.n, "mu_mul deviates from the dense product by", deviation, scale)
    return lambda: mu_mul(a, b), float(np.abs(product.array).sum())


def _mu_eig(x: Circulant, y: Circulant, seed: int):
    """The eigen decomposition of the first of that pair, and the checksum
    sum |lambda_j|; checked: the residual max |D V - V diag(lambda)| of
    its dense form D is within 1e-9 * (1 + max |D|)."""
    a, _ = _twisted_pair(x.n, seed)
    eig = mu_eigen(a)
    dense = mu_to_dense(a)
    lam = eig.spectrum.array
    residual = float(np.max(np.abs(dense @ eig.vectors - eig.vectors * lam)))
    _within(x.n, "mu_eigen leaves the residual", residual, float(np.max(np.abs(dense))))
    return lambda: mu_eigen(a), float(np.abs(lam).sum())


#: The largest bench order: the `dense` row's O(n^3) matrix product costs
#: most there (0.9 s at n = 2048 and 5.8 s at 4096 on a 2-vCPU x86-64 VM).
_MAX_SIZE = 4096

#: (name, build) for every row, in output order.
ROWS = (
    ("naive", functools.partial(_product, "mul_naive")),
    ("spectral", functools.partial(_product, "fast_mul")),
    ("dense", functools.partial(_product, "_dense_method")),
    ("cli-eig", _cli_eig),
    ("integer-spectrum", _integer_spectrum),
    ("add", _add),
    ("block-mul", _block_mul),
    ("hopf-verify", _hopf_verify),
    ("parse", _parse),
    ("encode", _encode),
    ("brandt", _brandt),
    ("exact-char-poly", _exact_char_poly),
    ("mu-mul", _mu_mul),
    ("mu-eig", _mu_eig),
    ("forms", _forms),
    ("inverse", _inverse),
    ("verdict", _verdict),
    ("verify-cocycle", _verify_cocycle),
)


def _median_ns(fn, reps: int) -> int:
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return int(statistics.median(times))


def run_bench(sizes, reps: int, seed: int = DEFAULT_SEED) -> list[BenchResult]:
    """Median wall time over ``reps`` calls, and the checksum, for every
    size and row of ``ROWS``, in that order, but none for a row above its
    cap.  x and y are drawn in turn for each size from one generator
    seeded with ``seed``.  Raises
    DocumentError on the field "bench", before drawing any input, when a
    size is below 2 or above 4096 or reps below 3, and
    BenchDisagreementError when a row's check fails, before any row of
    that size is timed."""
    sizes = [int(n) for n in sizes]
    if not sizes or any(n < 2 for n in sizes):
        raise DocumentError("bench", "every bench size must be >= 2")
    if any(n > _MAX_SIZE for n in sizes):
        raise DocumentError("bench", f"every bench size must be <= {_MAX_SIZE}")
    if reps < 3:
        raise DocumentError("bench", f"need at least 3 repetitions, got {reps}")
    rng = np.random.default_rng(seed)
    results: list[BenchResult] = []
    for n in sizes:
        x = random_circulant(rng, n)
        y = random_circulant(rng, n)
        built = [(name, build(x, y, seed)) for name, build in ROWS]
        for name, row in built:
            if row is not None:
                call, checksum = row
                results.append(BenchResult(n, name, reps, _median_ns(call, reps), checksum))
    return results
