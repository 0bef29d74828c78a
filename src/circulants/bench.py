"""Multiplication benchmark: convolution vs spectral vs dense product.

All three methods are cross-checked on the same fixed-seed inputs before
any timing happens; disagreement aborts the run, so timings are never
published for wrong answers.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .core import Circulant, mul_naive
from .errors import CirculantError
from .fixtures import DEFAULT_SEED, random_circulant
from .oracle import dense_mul
from .spectral import fast_mul

METHODS = ("naive", "spectral", "dense")


class BenchDisagreementError(CirculantError, ArithmeticError):
    """The multiplication paths disagreed; no timings were produced."""


@dataclass(frozen=True)
class BenchResult:
    n: int
    method: str
    reps: int
    median_ns: int
    checksum: float


def _dense_method(x: Circulant, y: Circulant) -> Circulant:
    product = dense_mul(x.to_dense(), y.to_dense())
    return Circulant(tuple(product[0].tolist()))


def _checksum(c: Circulant) -> float:
    return float(sum(abs(z) for z in c.coeffs))


def run_bench(sizes, reps: int, seed: int = DEFAULT_SEED) -> list[BenchResult]:
    """Median wall time per size and method over fixed-seed random inputs."""
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
        for name in METHODS:
            fn = runners[name]
            times = []
            for _ in range(reps):
                start = time.perf_counter_ns()
                out = fn(x, y)
                times.append(time.perf_counter_ns() - start)
            results.append(
                BenchResult(
                    n=n,
                    method=name,
                    reps=reps,
                    median_ns=int(statistics.median(times)),
                    checksum=_checksum(out),
                )
            )
    return results
