import time

import numpy as np
import pytest

from circulants import (
    Circulant,
    InvalidOrderError,
    InvalidScalarError,
    circ,
    eigenvalues,
    eigenvector,
    eigenvector_matrix,
    fast_mul,
    fourier_context,
    from_spectrum,
    fundamental,
    identity,
    mul_naive,
    to_diagonal,
)
from circulants import oracle
from circulants.core import SPECTRAL_MUL_MIN_ORDER
from circulants.errors import DimensionMismatchError
from circulants.hopf import block_mul, comultiplication
from circulants.spectral import _FAST_LENGTHS, _product_length
from circulants.twisted import mu_circ, mu_mul, mu_to_dense, skew_root
from circulants.verify import random_circulant

SEED = 0x5EED


def test_fourier_context_root_relations():
    for n in range(1, 65):
        ctx = fourier_context(n)
        assert abs(ctx.omega**n - 1) <= 1e-12
        assert all(abs(abs(p) - 1) <= 1e-12 for p in ctx.powers)


@pytest.mark.parametrize("n", (0, -1))
@pytest.mark.parametrize(
    "function", (identity, fundamental, skew_root, fourier_context, eigenvector_matrix)
)
def test_every_order_taking_function_refuses_orders_below_one(function, n):
    with pytest.raises(InvalidOrderError) as info:
        function(n)
    assert str(info.value) == f"order must be >= 1, got {n}"


@pytest.mark.parametrize("n", (2.5, 2.0, np.float64(3.0), "3", None), ids=repr)
@pytest.mark.parametrize(
    "function", (identity, fundamental, skew_root, fourier_context, eigenvector_matrix)
)
def test_every_order_taking_function_refuses_orders_that_are_not_integers(function, n):
    with pytest.raises(InvalidOrderError) as info:
        function(n)
    assert str(info.value) == f"order must be an integer, got {n!r}"


def test_eigenvalues_allones():
    lam = eigenvalues(circ(1, 1, 1)).values
    assert lam[0] == pytest.approx(3)
    assert abs(lam[1]) <= 1e-12 and abs(lam[2]) <= 1e-12


def test_eigenvalues_123():
    lam = eigenvalues(circ(1, 2, 3)).values
    assert lam[0] == pytest.approx(6)
    assert lam[1] == pytest.approx(-1.5 - 0.8660254037844386j, abs=1e-9)
    assert lam[2] == pytest.approx(-1.5 + 0.8660254037844386j, abs=1e-9)


def test_eigenvalues_of_shift_are_omega_powers():
    for n in (2, 3, 8, 12):
        ctx = fourier_context(n)
        lam = eigenvalues(fundamental(n)).values
        assert lam == pytest.approx(ctx.powers, abs=1e-12)


def test_transform_matches_hand_rolled_oracle():
    # Production numpy.fft against the direct DFT of `oracle`, at
    # power-of-two, composite and prime orders.
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4, 5, 8, 12, 16, 31, 32, 64, 97, 100, 128, 256, 360, 1024):
        x, y = random_circulant(rng, n), random_circulant(rng, n)
        cx, cy = np.asarray(x.coeffs), np.asarray(y.coeffs)
        lam = np.asarray(eigenvalues(x).values)
        want = oracle._dft_direct(cx, +1)
        assert np.max(np.abs(lam - want)) <= 1e-9 * (1.0 + x.norm_inf())
        back = np.asarray(from_spectrum(tuple(want.tolist())).coeffs)
        assert np.max(np.abs(back - oracle._dft_direct(want, -1) / n)) <= 1e-9 * (1.0 + x.norm_inf())
        product = np.asarray(fast_mul(x, y).coeffs)
        spectra = oracle._dft_direct(cx, +1) * oracle._dft_direct(cy, +1)
        scale = 1.0 + x.norm_inf() * y.norm_inf()
        assert np.max(np.abs(product - oracle._dft_direct(spectra, -1) / n)) <= 1e-9 * scale


def test_eigenvector_examples():
    assert np.array_equal(eigenvector(fourier_context(3), 1), np.ones(3, dtype=complex))
    v = eigenvector(fourier_context(4), 2)
    assert v == pytest.approx(np.array([1, 1j, -1, -1j]), abs=1e-12)
    assert v[0] == 1  # exactly
    with pytest.raises(IndexError):
        eigenvector(fourier_context(4), 5)
    with pytest.raises(IndexError):
        eigenvector(fourier_context(4), 0)


def test_eigen_residual_per_slot():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 7, 16, 40, 64):
        c = random_circulant(rng, n)
        dense = c.to_dense()
        ctx = fourier_context(n)
        lam = eigenvalues(c).values
        for j in range(1, n + 1):
            x = eigenvector(ctx, j)
            residual = np.max(np.abs(dense @ x - lam[j - 1] * x))
            assert residual <= 1e-9 * (1.0 + c.norm_inf())


def test_to_diagonal():
    assert np.allclose(to_diagonal(circ(1, 1, 1)), np.diag([3, 0, 0]), atol=1e-12)
    assert np.allclose(to_diagonal(circ(1, 0)), np.eye(2), atol=0)
    assert np.allclose(to_diagonal(circ(0, 1)), np.diag([1, -1]), atol=1e-12)


def test_diagonal_map_is_algebra_map():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 8, 16):
        x, y = random_circulant(rng, n), random_circulant(rng, n)
        scale = 1.0 + x.norm_inf() * y.norm_inf()
        prod = to_diagonal(mul_naive(x, y))
        assert np.max(np.abs(prod - to_diagonal(x) @ to_diagonal(y))) <= 1e-9 * scale
        total = to_diagonal(x + y)
        assert np.max(np.abs(total - to_diagonal(x) - to_diagonal(y))) <= 1e-9 * scale


def test_from_spectrum_examples():
    assert from_spectrum((3, 0, 0)).coeffs == pytest.approx((1, 1, 1), abs=1e-12)
    for n in (2, 5, 8):
        allones = from_spectrum((n,) + (0,) * (n - 1))
        assert allones.coeffs == pytest.approx((1,) * n, abs=1e-12)
        unit = from_spectrum((1,) * n)
        assert unit.coeffs == pytest.approx(identity(n).coeffs, abs=1e-12)


def test_spectrum_roundtrip():
    rng = np.random.default_rng(SEED)
    for n in range(1, 65):
        c = random_circulant(rng, n)
        back = from_spectrum(eigenvalues(c))
        assert back.coeffs == pytest.approx(c.coeffs, abs=1e-9)


def test_transform_linearity():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4, 5, 8, 16, 31, 32, 64):
        x, y = random_circulant(rng, n), random_circulant(rng, n)
        lhs = np.asarray(eigenvalues(x + y).values)
        rhs = np.asarray(eigenvalues(x).values) + np.asarray(eigenvalues(y).values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_fast_mul_examples():
    assert fast_mul(circ(1, 2, 3), circ(1, 2, 3)).coeffs == pytest.approx(
        (13, 13, 10), abs=1e-9
    )
    rng = np.random.default_rng(SEED)
    x = random_circulant(rng, 8)
    assert fast_mul(x, identity(8)).coeffs == pytest.approx(x.coeffs, abs=1e-12)
    for n in (2, 3, 9, 16):
        p = fundamental(n)
        q = p  # becomes P^(n-1), the inverse shift
        for _ in range(n - 2):
            q = mul_naive(q, p)
        assert fast_mul(p, q).coeffs == pytest.approx(identity(n).coeffs, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        fast_mul(circ(1, 2), circ(1, 2, 3))


def test_fast_mul_agrees_with_naive_everywhere():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 4, 5, 8, 12, 16, 31, 32, 64):
        for _ in range(200):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            scale = 1.0 + x.norm_inf() * y.norm_inf()
            diff = max(
                abs(a - b) for a, b in zip(fast_mul(x, y).coeffs, mul_naive(x, y).coeffs)
            )
            assert diff <= 1e-9 * scale


def test_fast_mul_pointwise_spectra():
    rng = np.random.default_rng(SEED)
    for n in (3, 8, 16):
        x, y = random_circulant(rng, n), random_circulant(rng, n)
        lhs = np.asarray(eigenvalues(fast_mul(x, y)).values)
        rhs = np.asarray(eigenvalues(x).values) * np.asarray(eigenvalues(y).values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + x.norm_inf() * y.norm_inf())


def test_eigenvector_matrix_columns():
    n = 6
    ctx = fourier_context(n)
    v = eigenvector_matrix(n)
    for j in range(1, n + 1):
        assert np.array_equal(v[:, j - 1], eigenvector(ctx, j))


def test_from_spectrum_rejects_overflowing_and_empty_spectra():
    # The true coefficients are finite, but the transform's partial sums
    # overflow: a non-finite result must raise, not leak into a value.
    for n in (3, 4, 12):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidScalarError):
                from_spectrum((1e308,) * n)
    with pytest.raises(InvalidOrderError):
        from_spectrum(())


def test_transform_outputs_are_tuples_of_complex():
    x = circ(1, 2, 3)
    for values in (eigenvalues(x).values, from_spectrum((6, 0, 0)).coeffs, fast_mul(x, x).coeffs):
        assert isinstance(values, tuple) and all(type(v) is complex for v in values)


def test_product_operator_dispatches_at_crossover():
    rng = np.random.default_rng(SEED)
    for n in range(1, SPECTRAL_MUL_MIN_ORDER):
        for _ in range(20):
            x = circ(*(int(v) for v in rng.integers(-9, 10, size=n)))
            y = circ(*(int(v) for v in rng.integers(-9, 10, size=n)))
            assert (x * y).coeffs == mul_naive(x, y).coeffs
    for n in (SPECTRAL_MUL_MIN_ORDER - 1, SPECTRAL_MUL_MIN_ORDER, SPECTRAL_MUL_MIN_ORDER + 1, 64, 100):
        for _ in range(20):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            scale = 1.0 + x.norm_inf() * y.norm_inf()
            diff = max(abs(a - b) for a, b in zip((x * y).coeffs, mul_naive(x, y).coeffs))
            assert diff <= 1e-9 * scale
            expected = fast_mul(x, y) if n >= SPECTRAL_MUL_MIN_ORDER else mul_naive(x, y)
            assert (x * y).coeffs == expected.coeffs
    with pytest.raises(DimensionMismatchError):
        random_circulant(rng, SPECTRAL_MUL_MIN_ORDER) * random_circulant(rng, 3)


@pytest.mark.parametrize(
    "call",
    (
        lambda: eigenvalues(circ(1e308, 1e308)),
        lambda: from_spectrum((1e308, 1e308)),
        lambda: fast_mul(circ(1e308, 1e308), circ(1e308, 1)),
        lambda: circ(*[1e308] * 13) * circ(*[1e308] * 13),
        lambda: Circulant([1e300] * 97) * Circulant([1e300] * 97),
        lambda: Circulant([1e300] * 257) * Circulant([1e300] * 257),
    ),
    ids=("eigenvalues", "from_spectrum", "fast_mul", "mul-13", "mul-97-padded", "mul-257-padded"),
)
def test_transform_overflow_raises_the_typed_error_without_a_warning(call):
    # pytest turns RuntimeWarning into an error here (pyproject.toml), so
    # a numpy overflow warning would fail the test before the typed error.
    # `*` takes the zero-padded `fast_mul` at order 257, above the crossover.
    with pytest.raises(InvalidScalarError, match="non-finite"):
        call()


def test_product_length_pads_orders_with_one_large_prime_factor():
    padded = (89, 97, 127, 257, 509, 712, 997, 1994, 1999, 10007)
    kept = (1, 12, 64, 67, 74, 83, 96, 209, 536, 1068, 999, 1000, 2032, 2048, 4995, 8128, 9409)
    for n in padded:
        m = _product_length(n)
        assert m >= 2 * n - 1 and m in _FAST_LENGTHS
        assert m == min(length for length in _FAST_LENGTHS if length >= 2 * n - 1)
    assert all(_product_length(n) == n for n in kept)
    # Each fast length is 2^a 3^b 5^c, a power of two or at most 7/8 of the next.
    for m in _FAST_LENGTHS[:200]:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        pow2 = 1 << (m - 1).bit_length()
        assert rest == 1 and (m == pow2 or 8 * m <= 7 * pow2)


def _cyclic_convolution(a, b):
    """The exact cyclic convolution of two int64 rows."""
    n = a.size
    linear = np.convolve(a, b)
    return linear[:n] + np.r_[linear[n:], 0]


@pytest.mark.parametrize("n", (97, 127, 257, 509, 997, 1994, 1999))
def test_padded_product_is_exact_on_small_integers(n):
    rng = np.random.default_rng(SEED + n)
    a, b = rng.integers(-3, 4, size=(2, n))
    assert _product_length(n) > n
    product = fast_mul(Circulant(a), Circulant(b)).array
    assert np.array_equal(np.rint(product.real), _cyclic_convolution(a, b))
    assert np.array_equal(np.rint(product.imag), np.zeros(n))


@pytest.mark.parametrize("n", (97, 257))
def test_padded_product_agrees_with_naive(n):
    rng = np.random.default_rng(SEED + n)
    x, y = random_circulant(rng, n), random_circulant(rng, n)
    scale = 1.0 + x.norm_inf() * y.norm_inf()
    assert np.max(np.abs(fast_mul(x, y).array - mul_naive(x, y).array)) <= 1e-9 * scale


def test_direct_product_at_order_4096_agrees_with_fast_mul_within_a_second():
    n = 4096
    rng = np.random.default_rng(SEED + n)
    x, y = random_circulant(rng, n), random_circulant(rng, n)
    start = time.perf_counter()
    direct = mul_naive(x, y)
    elapsed = time.perf_counter() - start
    scale = 1.0 + x.norm_inf() * y.norm_inf()
    assert np.max(np.abs(direct.array - fast_mul(x, y).array)) <= 1e-9 * scale
    assert elapsed < 1.0


@pytest.mark.parametrize("n", (64, 96, 209, 1000, 2048))
def test_unpadded_product_is_the_length_n_transform_bit_for_bit(n):
    rng = np.random.default_rng(SEED + n)
    x, y = random_circulant(rng, n), random_circulant(rng, n)
    assert _product_length(n) == n
    want = np.fft.ifft(np.fft.fft(x.array) * np.fft.fft(y.array))
    assert fast_mul(x, y).array.tobytes() == want.tobytes()


def test_products_at_a_padded_order():
    n = 97
    rng = np.random.default_rng(SEED + n)
    x, y = random_circulant(rng, n), random_circulant(rng, n)
    scale = 1.0 + x.norm_inf() * y.norm_inf()
    naive = mul_naive(x, y)
    assert np.max(np.abs((x * y).array - naive.array)) <= 1e-9 * scale
    coproduct = block_mul(comultiplication(x), comultiplication(y)).coefficient_tensor()
    assert np.max(np.abs(coproduct - comultiplication(naive).coefficient_tensor())) <= 1e-9 * scale
    tail = rng.uniform(0.5, 2.0, n - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1))
    u, v = mu_circ(x.coeffs, tuple(tail)), mu_circ(y.coeffs, tuple(tail))
    dense = mu_to_dense(u) @ mu_to_dense(v)
    assert np.max(np.abs(mu_to_dense(mu_mul(u, v)) - dense)) <= 1e-9 * (1.0 + np.max(np.abs(dense)))
