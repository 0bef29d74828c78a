"""Multiplication benchmark: convolution vs spectral vs dense product,
plus one whole ``circulants eig`` invocation run in process, the exact
integer spectrum of an orbit-constant row, the sum ``x + y`` and the
coproduct product ``block_mul(Delta x, Delta y)``.

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

import numpy as np

from .core import Circulant, mul_naive
from .documents import MatrixDocument, document_to_obj, load_json, spectrum_from_obj
from .errors import CirculantError
from .fixtures import DEFAULT_SEED, random_circulant
from .hopf import block_mul, comultiplication
from .lattice import integer_spectrum, rational_circ
from .spectral import eigenvalues, fast_mul

METHODS = ("naive", "spectral", "dense")
#: The row that times ``cli.main(["eig"])`` on the first input of each size.
CLI_EIG = "cli-eig"
#: The row that times ``integer_spectrum`` of circ(n / gcd(k, n)), k = 0..n-1.
INTEGER_SPECTRUM = "integer-spectrum"
#: The row that times ``x + y`` on the two product inputs of each size.
ADD = "add"
#: The row that times ``block_mul(Delta x, Delta y)`` on the two product inputs.
BLOCK_MUL = "block-mul"


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

    text = json.dumps(document_to_obj(MatrixDocument.from_circulant(x)))

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
    BenchDisagreementError unless the product is Delta(x * y) within
    1e-9 * (1 + ||x|| ||y||)."""
    dx, dy = comultiplication(x), comultiplication(y)
    product = block_mul(dx, dy).coefficient_tensor()
    deviation = float(np.max(np.abs(product - comultiplication(x * y).coefficient_tensor())))
    if not deviation <= 1e-9 * (1.0 + x.norm_inf() * y.norm_inf()):
        raise BenchDisagreementError(
            f"n={x.n}: block_mul deviates from Delta(x * y) by {deviation:.3e}"
        )
    return lambda: block_mul(dx, dy), float(np.abs(product).sum())


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
    then block_mul(Delta x, Delta y)."""
    sizes = [int(n) for n in sizes]
    if not sizes or any(n < 2 for n in sizes):
        raise ValueError("every bench size must be >= 2")
    if reps < 3:
        raise ValueError(f"need at least 3 repetitions, got {reps}")
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
    return results
