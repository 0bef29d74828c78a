import numpy as np
import pytest

from circulants import (
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
from circulants.verify import random_circulant

SEED = 0x5EED


def test_fourier_context_root_relations():
    for n in range(1, 65):
        ctx = fourier_context(n)
        assert abs(ctx.omega**n - 1) <= 1e-12
        assert all(abs(abs(p) - 1) <= 1e-12 for p in ctx.powers)


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


def _oracle_transform(vec, sign):
    n = vec.size
    if n & (n - 1) == 0:
        return oracle._fft_pow2(vec, sign)
    return oracle._dft_direct(vec, sign)


def test_transform_matches_hand_rolled_oracle():
    # Production numpy.fft against the radix-2 FFT and the direct DFT of
    # `oracle`, at power-of-two, composite and prime orders.
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4, 5, 8, 12, 16, 31, 32, 64, 97, 100, 128, 360):
        x, y = random_circulant(rng, n), random_circulant(rng, n)
        cx, cy = np.asarray(x.coeffs), np.asarray(y.coeffs)
        lam = np.asarray(eigenvalues(x).values)
        want = _oracle_transform(cx, +1)
        assert np.max(np.abs(lam - want)) <= 1e-9 * (1.0 + x.norm_inf())
        back = np.asarray(from_spectrum(tuple(want.tolist())).coeffs)
        assert np.max(np.abs(back - _oracle_transform(want, -1) / n)) <= 1e-9 * (1.0 + x.norm_inf())
        product = np.asarray(fast_mul(x, y).coeffs)
        spectra = _oracle_transform(cx, +1) * _oracle_transform(cy, +1)
        scale = 1.0 + x.norm_inf() * y.norm_inf()
        assert np.max(np.abs(product - _oracle_transform(spectra, -1) / n)) <= 1e-9 * scale


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
