"""Computed values are built from numpy arrays through `core._result`.

`Circulant.scale`, `linear_combine`, `psi` and `psi_inv` are numpy
products and quotients, whose last bit may differ from Python's complex
arithmetic (fused multiply-adds, division through a reciprocal): each
entry stays within a few ulps of the Python result, equals it wherever
the result is exact, and a result beyond the float range is the typed
error without a numpy warning (RuntimeWarnings are errors under this
repo's pytest settings).
"""

import json
import sys

import numpy as np
import pytest

from circulants import (
    Circulant,
    InvalidScalarError,
    MuCirculant,
    MuWeights,
    circ,
    linear_combine,
    mu_mul,
    mu_to_dense,
    psi,
    psi_inv,
)
from circulants.documents import parse_documents
from circulants.errors import CirculantError
from circulants.fixtures import random_circulant
from circulants.verify import random_real_circulant

SEED = 0x5EED
EPS = sys.float_info.epsilon
ORDERS = (1, 2, 13, 4096)


def random_weights(rng, n) -> MuWeights:
    tail = rng.uniform(0.5, 2.0, n - 1) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n - 1))
    return MuWeights(np.concatenate(((1.0,), tail)))


def gaussian_integers(rng, n) -> np.ndarray:
    return rng.integers(-8, 9, size=(n, 2)).astype(float).view(complex).reshape(n)


def assert_close_to_python(got, want, bound):
    got = np.array(got.coeffs)
    deviation = np.abs(got - np.array(want))
    assert np.all(deviation <= bound), float(np.max(deviation / np.maximum(bound, 1e-300)))


@pytest.mark.parametrize("n", ORDERS)
def test_scale_and_linear_combine_agree_with_python_complex(n):
    rng = np.random.default_rng([SEED, n])
    x, y = random_circulant(rng, n), random_circulant(rng, n)
    for a, b in ((complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2))), (0.75, -3)):
        assert_close_to_python(
            x.scale(a), [a * c for c in x.coeffs], 4 * EPS * abs(a) * np.abs(x.array)
        )
        assert_close_to_python(
            linear_combine(a, x, b, y),
            [a * u + b * v for u, v in zip(x.coeffs, y.coeffs)],
            4 * EPS * (abs(a) * np.abs(x.array) + abs(b) * np.abs(y.array)),
        )


@pytest.mark.parametrize("n", ORDERS)
def test_psi_and_psi_inv_agree_with_python_complex(n):
    rng = np.random.default_rng([SEED, n])
    weights = random_weights(rng, n)
    m = MuCirculant(random_circulant(rng, n).array, weights)
    c = random_circulant(rng, n)
    w = np.abs(weights.array)
    assert_close_to_python(
        psi(m), [a * b for a, b in zip(m.coeffs, weights.mu)], 4 * EPS * np.abs(m.array) * w
    )
    back = psi_inv(c, weights)
    assert back.weights is weights
    assert_close_to_python(
        back, [a / b for a, b in zip(c.coeffs, weights.mu)], 8 * EPS * np.abs(c.array) / w
    )


@pytest.mark.parametrize("n", ORDERS)
def test_exact_results_equal_python_complex_bit_for_bit(n):
    # Products of small Gaussian integers are exact in both arithmetics.
    # The quotient is too when every weight is a power of two times a
    # unit (1, i, -1 or -i); numpy divides through a reciprocal, so other
    # Gaussian integer weights may round differently.
    rng = np.random.default_rng([SEED, n])
    x, y = Circulant(gaussian_integers(rng, n)), Circulant(gaussian_integers(rng, n))
    a, b = complex(3, -2), complex(-5, 1)
    assert x.scale(a).coeffs == tuple(a * c for c in x.coeffs)
    assert linear_combine(a, x, b, y).coeffs == tuple(
        a * u + b * v for u, v in zip(x.coeffs, y.coeffs)
    )
    weights = MuWeights(np.concatenate(((1.0,), gaussian_integers(rng, n)[1:] + 9)))
    m = MuCirculant(x.array, weights)
    assert psi(m).coeffs == tuple(u * w for u, w in zip(x.coeffs, weights.mu))
    units = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, n)] * 2.0 ** rng.integers(-3, 4, n)
    units[0] = 1
    powers = MuWeights(units)
    assert psi_inv(y, powers).coeffs == tuple(u / w for u, w in zip(y.coeffs, powers.mu))


def test_results_beyond_the_float_range_raise_the_typed_error():
    big = circ(1e308, -1e308j)
    with pytest.raises(InvalidScalarError):
        big.scale(10)
    with pytest.raises(InvalidScalarError):
        big * complex(1e10, 1e10)
    with pytest.raises(InvalidScalarError):
        linear_combine(1e10, big, 1, big)
    with pytest.raises(InvalidScalarError):
        linear_combine(1, big, 1, big)  # the sum overflows, each product does not
    with pytest.raises(InvalidScalarError):
        psi(MuCirculant((1.0, 1e308), MuWeights((1.0, 1e10))))
    with pytest.raises(InvalidScalarError):
        psi_inv(big, MuWeights((1.0, 1e-10)))
    with pytest.raises(InvalidScalarError):
        big.scale(float("inf"))
    with pytest.raises(InvalidScalarError):
        big + big
    with pytest.raises(InvalidScalarError):
        big - (-big)
    with pytest.raises(InvalidScalarError):
        mu_to_dense(MuCirculant((1.0, 1e308), MuWeights((1.0, 1e10))))
    # A difference past the float range is no match, not a warning.
    assert not MuWeights((1, 1e308)).matches(MuWeights((1, -1e308)))


def test_mu_documents_share_the_decoded_row():
    # As with circulant documents, the value holds the decoded row itself;
    # the weights are copied once, behind the leading 1.
    row = [["1.5", "-2.0"], ["0.25", "3.0"], ["-1.0", "0.5"]]
    mu = [["2.0", "1.0"], ["0.5", "0.0"]]
    for doc in (
        {"kind": "mu_circulant", "n": 3, "first_row": row, "mu": mu},
        {"kind": "skew_circulant", "n": 3, "first_row": row},
        {"kind": "circulant", "n": 3, "first_row": row},
    ):
        (parsed,) = parse_documents(json.dumps(doc))
        convert = parsed.to_circulant if doc["kind"] == "circulant" else parsed.to_mu_circulant
        first, second = convert(), convert()
        assert np.shares_memory(first.array, second.array)
        assert not first.array.flags.writeable
        assert first.coeffs == (1.5 - 2j, 0.25 + 3j, -1 + 0.5j)
        if doc["kind"] == "mu_circulant":
            assert first.weights.mu == (1, 2 + 1j, 0.5)
            assert not first.weights.array.flags.writeable


@pytest.mark.parametrize(
    "mu, error",
    [([["0.0", "0.0"], ["1.0", "0.0"]], "nonzero"), ([["nan", "0.0"], ["1.0", "0.0"]], "non-finite")],
)
def test_decoded_weights_are_still_checked(mu, error):
    doc = {"kind": "mu_circulant", "n": 3, "first_row": [["1.0", "0.0"]] * 3, "mu": mu}
    (parsed,) = parse_documents(json.dumps(doc))
    with pytest.raises(CirculantError, match=error) as info:
        parsed.to_mu_circulant()
    assert info.value.exit_code == 2


def test_mu_mul_at_order_4096_is_psi_inv_of_the_untwisted_product():
    rng = np.random.default_rng(SEED)
    weights = random_weights(rng, 4096)
    x = MuCirculant(random_circulant(rng, 4096).array, weights)
    y = MuCirculant(random_circulant(rng, 4096).array, weights)
    assert mu_mul(x, y) == psi_inv(psi(x) * psi(y), weights)


@pytest.mark.parametrize("n", (1, 2, 13, 256))
def test_seeded_rows_equal_the_per_entry_construction(n):
    # The fixtures read the drawn array as complex entries: the bits of
    # complex(re, im) and complex(x, 0.0), entry by entry.
    parts = np.random.default_rng([SEED, n]).uniform(-1.0, 1.0, size=(n, 2))
    row = random_circulant(np.random.default_rng([SEED, n]), n)
    assert row.array.tobytes() == Circulant(tuple(complex(a, b) for a, b in parts)).array.tobytes()
    reals = np.random.default_rng([SEED, n]).uniform(-1.0, 1.0, size=n)
    real = random_real_circulant(np.random.default_rng([SEED, n]), n)
    assert real.array.tobytes() == Circulant(tuple(complex(a, 0.0) for a in reals)).array.tobytes()
    assert not row.array.flags.writeable and not real.array.flags.writeable
