"""Multiplication benchmark: convolution vs spectral vs dense product,
plus one whole ``circulants eig`` invocation run in process, the exact
integer spectrum of an orbit-constant row, the sum ``x + y``, the
coproduct product ``block_mul(Delta x, Delta y)``, the three Hopf
checks of ``circulants hopf-verify``, the document layer (decoding a
circulant document and encoding a spectrum document), the integral
Brandt predicate of an integer set and of that set led by I/2, and the
product and eigen decomposition of twisted circulants.

Every row is cross-checked on the same fixed-seed inputs before any
timing happens; disagreement aborts the run, so timings are never
published for wrong answers.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Circulant, mul_naive
from .documents import (
    DocumentError,
    circulant_to_obj,
    dump_json,
    load_json,
    parse_documents,
    spectrum_from_obj,
    spectrum_to_obj,
)
from .errors import CirculantError
from .fixtures import DEFAULT_SEED, random_circulant
from .hopf import (
    block_mul,
    comultiplication,
    integral_check,
    verify_antipode_axiom,
    verify_counit_axiom,
)
from .lattice import (
    BrandtCounterexample,
    BrandtVerdict,
    brandt_check,
    integer_spectrum,
    rational_circ,
)
from .spectral import eigenvalues, fast_mul
from .twisted import MuCirculant, MuWeights, mu_eigen, mu_mul, mu_to_dense

METHODS = ("naive", "spectral", "dense")
#: The row that times ``cli.main(["eig"])`` on the first input of each size.
CLI_EIG = "cli-eig"
#: The row that times ``integer_spectrum`` of circ(n / gcd(k, n)), k = 0..n-1.
INTEGER_SPECTRUM = "integer-spectrum"
#: The row that times ``x + y`` on the two product inputs of each size.
ADD = "add"
#: The row that times ``block_mul(Delta x, Delta y)`` on the two product inputs.
BLOCK_MUL = "block-mul"
#: The row that times the counit, antipode and integral checks of x.
HOPF_VERIFY = "hopf-verify"
#: The row that times ``parse_documents`` on the circulant document of x.
PARSE = "parse"
#: The row that times ``dump_json`` of the spectrum document of x.
ENCODE = "encode"
#: The row that times ``brandt_check`` of an integer set and of that set led by I/2.
BRANDT = "brandt"
#: The row that times ``mu_mul`` of two twisted circulants over random weights.
MU_MUL = "mu-mul"
#: The row that times ``mu_eigen`` of the first of those twisted circulants.
MU_EIG = "mu-eig"


class BenchDisagreementError(CirculantError, ArithmeticError):
    """The multiplication paths disagreed; no timings were produced."""

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


def _checksum(c: Circulant) -> float:
    return float(sum(abs(z) for z in c.coeffs))


def _cli_eig(x: Circulant):
    """A call that runs ``circulants eig`` in process on x's document, and
    the checksum sum |lambda_j|; raises BenchDisagreementError unless the
    decoded output equals ``eigenvalues(x).values``."""
    from . import cli  # cli imports this module

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


def _integer_spectrum(n: int):
    """A call that takes the exact spectrum of the orbit-constant row
    c_k = n / gcd(k, n), the order of k in Z/n, whose spectrum is
    integral, and the checksum sum |lambda_j|; raises
    BenchDisagreementError unless every slot equals the rounded float
    eigenvalue of that slot, within 1e-9 * (1 + ||c||)."""
    row = rational_circ([n // math.gcd(k, n) for k in range(n)])
    spectrum = integer_spectrum(row)
    floats = eigenvalues(row.to_float()).values
    tol = 1e-9 * (1.0 + sum(row.coeffs))
    if spectrum is None or any(
        v != round(z.real) or abs(z - float(v)) > tol for v, z in zip(spectrum.values, floats)
    ):
        raise BenchDisagreementError(f"n={n}: integer_spectrum disagrees with eigenvalues")
    return lambda: integer_spectrum(row), float(sum(abs(v) for v in spectrum.values))


def _add(x: Circulant, y: Circulant) -> Circulant:
    """x + y; raises BenchDisagreementError unless it equals the sum of
    the two coefficient tuples, entry by entry in Python complex."""
    total = x + y
    if total != Circulant(tuple(a + b for a, b in zip(x.coeffs, y.coeffs))):
        raise BenchDisagreementError(f"n={x.n}: x + y disagrees with the tuple sum")
    return total


def _block_mul(x: Circulant, y: Circulant):
    """A call that multiplies Delta x by Delta y, and the checksum
    sum |T[a, b]| over the product's coefficient tensor; raises
    BenchDisagreementError unless the product is within
    1e-9 * (1 + ||x|| ||y||) of the 2-D cyclic convolution of the two
    coefficient tensors, taken through the 2-D DFT."""
    dx, dy = comultiplication(x), comultiplication(y)
    product = block_mul(dx, dy).coefficient_tensor()
    spectra = np.fft.fft2(dx.coefficient_tensor()) * np.fft.fft2(dy.coefficient_tensor())
    deviation = float(np.max(np.abs(product - np.fft.ifft2(spectra))))
    if not deviation <= 1e-9 * (1.0 + x.norm_inf() * y.norm_inf()):
        raise BenchDisagreementError(
            f"n={x.n}: block_mul deviates from the 2-D convolution by {deviation:.3e}"
        )
    return lambda: block_mul(dx, dy), float(np.abs(product).sum())


def _hopf_verify(x: Circulant):
    """A call that runs the counit, antipode and integral checks of x, and
    the checksum, the sum of their residuals; raises
    BenchDisagreementError unless all three hold and the counit and
    antipode residuals are exactly 0.0, as summing the coefficients in
    the counit's order makes them."""

    def run():
        return verify_counit_axiom(x), verify_antipode_axiom(x), integral_check(x)

    reports = run()
    if not all(r.holds for r in reports) or reports[0].residual != 0.0 or reports[1].residual != 0.0:
        raise BenchDisagreementError(f"n={x.n}: hopf-verify reports {reports}")
    return run, float(sum(r.residual for r in reports))


def _parse(x: Circulant):
    """A call that decodes the circulant document of x, and the checksum
    sum |c_i| of the decoded row; raises BenchDisagreementError unless
    that row equals the row of x bit for bit."""
    text = json.dumps(circulant_to_obj(x))
    decoded = parse_documents(text)[0].to_circulant()
    if decoded.array.tobytes() != x.array.tobytes():
        raise BenchDisagreementError(f"n={x.n}: the decoded row differs from the encoded one")
    return lambda: parse_documents(text), _checksum(decoded)


def _encode(x: Circulant):
    """A call that writes the spectrum document of x, and the checksum,
    the length of the text; raises BenchDisagreementError unless the
    text equals ``json.dumps(obj, indent=2)`` and a newline."""
    obj = spectrum_to_obj(eigenvalues(x).array)
    text = dump_json(obj)
    if text != json.dumps(obj, indent=2) + "\n":
        raise BenchDisagreementError(f"n={x.n}: dump_json differs from json.dumps(indent=2)")
    return lambda: dump_json(obj), float(len(text))


def _brandt(n: int, seed: int):
    """A call that decides the integral Brandt predicate of three random
    integer rows of order n, entries -2..2, and of the same set led by
    the scalar I/2, and the checksum, the witness's value.  The rows are
    drawn from (seed, n), not from the other rows' generator, whose
    inputs stay as they were.  Raises BenchDisagreementError unless the
    integer set holds and the led set fails at pair (0, 0), combination
    'a', on the first form of (X - 1/2)^n that is not an integer:
    q_i = C(n, i) / 2^i with the smallest such i."""
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


def _twisted_pair(n: int, seed: int) -> tuple[MuCirculant, MuCirculant]:
    """Two twisted circulants of order n over one set of weights, with
    moduli uniform in [1/2, 2) and uniform phases, and coefficients drawn
    like the other rows' inputs.  Drawn from (seed, n), not from the other
    rows' generator, whose inputs stay as they were."""
    rng = np.random.default_rng([seed, n])
    tail = rng.uniform(0.5, 2.0, n - 1) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n - 1))
    weights = MuWeights(np.concatenate(((1.0,), tail)))
    return (
        MuCirculant(random_circulant(rng, n).array, weights),
        MuCirculant(random_circulant(rng, n).array, weights),
    )


def _mu_mul(x: MuCirculant, y: MuCirculant):
    """A call that multiplies x by y in their twisted algebra, and the
    checksum sum |c_i| of the product; raises BenchDisagreementError
    unless the product's dense form is within 1e-9 * (1 + max |entry|)
    of the product of the dense forms."""
    product = mu_mul(x, y)
    dense = mu_to_dense(x) @ mu_to_dense(y)
    deviation = float(np.max(np.abs(mu_to_dense(product) - dense)))
    if not deviation <= 1e-9 * (1.0 + float(np.max(np.abs(dense)))):
        raise BenchDisagreementError(
            f"n={x.n}: mu_mul deviates from the dense product by {deviation:.3e}"
        )
    return lambda: mu_mul(x, y), float(np.abs(product.array).sum())


def _mu_eig(x: MuCirculant):
    """A call that takes the eigen decomposition of x, and the checksum
    sum |lambda_j|; raises BenchDisagreementError unless the residual
    max |D V - V diag(lambda)| of the dense form D is within
    1e-9 * (1 + max |D|)."""
    eig = mu_eigen(x)
    dense = mu_to_dense(x)
    lam = eig.spectrum.array
    residual = float(np.max(np.abs(dense @ eig.vectors - eig.vectors * lam)))
    if not residual <= 1e-9 * (1.0 + float(np.max(np.abs(dense)))):
        raise BenchDisagreementError(f"n={x.n}: mu_eigen leaves the residual {residual:.3e}")
    return lambda: mu_eigen(x), float(np.abs(lam).sum())


def _median_ns(fn, reps: int) -> int:
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return int(statistics.median(times))


def run_bench(sizes, reps: int, seed: int = DEFAULT_SEED) -> list[BenchResult]:
    """Median wall time per size and method over fixed-seed random inputs:
    the three products of x and y, then ``circulants eig`` on x, then the
    exact spectrum of the orbit-constant row of that order, then x + y,
    then block_mul(Delta x, Delta y), then the Hopf checks of x, then
    decoding the circulant document of x and encoding its spectrum
    document, then the Brandt predicate of an integer set of that order
    and of that set led by I/2, then the product and the eigen
    decomposition of twisted circulants of that order.  Raises
    DocumentError on the field "bench" when a size is below 2 or reps
    below 3."""
    sizes = [int(n) for n in sizes]
    if not sizes or any(n < 2 for n in sizes):
        raise DocumentError("bench", "every bench size must be >= 2")
    if reps < 3:
        raise DocumentError("bench", f"need at least 3 repetitions, got {reps}")
    rng = np.random.default_rng(seed)
    runners = {"naive": mul_naive, "spectral": fast_mul, "dense": _dense_method}
    results: list[BenchResult] = []
    for n in sizes:
        x = random_circulant(rng, n)
        y = random_circulant(rng, n)
        tol = 1e-9 * (1.0 + x.norm_inf() * y.norm_inf())
        products = {name: fn(x, y) for name, fn in runners.items()}
        reference = products["naive"]
        for name in METHODS[1:]:
            deviation = max(
                abs(a - b) for a, b in zip(products[name].coeffs, reference.coeffs)
            )
            if deviation > tol:
                raise BenchDisagreementError(
                    f"n={n}: {name} deviates from naive by {deviation:.3e} (tol {tol:.3e})"
                )
        cli_run, cli_checksum = _cli_eig(x)
        spectrum_run, spectrum_checksum = _integer_spectrum(n)
        total = _add(x, y)
        block_run, block_checksum = _block_mul(x, y)
        hopf_run, hopf_checksum = _hopf_verify(x)
        parse_run, parse_checksum = _parse(x)
        encode_run, encode_checksum = _encode(x)
        brandt_run, brandt_checksum = _brandt(n, seed)
        mu_x, mu_y = _twisted_pair(n, seed)
        mu_mul_run, mu_mul_checksum = _mu_mul(mu_x, mu_y)
        mu_eig_run, mu_eig_checksum = _mu_eig(mu_x)
        for name in METHODS:
            fn = runners[name]
            median = _median_ns(lambda: fn(x, y), reps)
            results.append(BenchResult(n, name, reps, median, _checksum(products[name])))
        results.append(BenchResult(n, CLI_EIG, reps, _median_ns(cli_run, reps), cli_checksum))
        spectrum_ns = _median_ns(spectrum_run, reps)
        results.append(BenchResult(n, INTEGER_SPECTRUM, reps, spectrum_ns, spectrum_checksum))
        results.append(BenchResult(n, ADD, reps, _median_ns(lambda: x + y, reps), _checksum(total)))
        block_ns = _median_ns(block_run, reps)
        results.append(BenchResult(n, BLOCK_MUL, reps, block_ns, block_checksum))
        results.append(BenchResult(n, HOPF_VERIFY, reps, _median_ns(hopf_run, reps), hopf_checksum))
        results.append(BenchResult(n, PARSE, reps, _median_ns(parse_run, reps), parse_checksum))
        results.append(BenchResult(n, ENCODE, reps, _median_ns(encode_run, reps), encode_checksum))
        results.append(BenchResult(n, BRANDT, reps, _median_ns(brandt_run, reps), brandt_checksum))
        results.append(BenchResult(n, MU_MUL, reps, _median_ns(mu_mul_run, reps), mu_mul_checksum))
        results.append(BenchResult(n, MU_EIG, reps, _median_ns(mu_eig_run, reps), mu_eig_checksum))
    return results
