from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from circulants import circ, fundamental, rational_circ
from circulants.errors import (
    DimensionMismatchError,
    InvalidVectorError,
    SingularMatrixError,
)
from circulants.oracle import (
    coassociativity_tensors,
    coproduct_tensor,
    eigen_residual,
    exact_det,
    exact_inverse,
    faddeev_leverrier,
    faddeev_leverrier_exact,
    greedy_multiset_match,
    group_tensor_product,
    tensor_antipode_image,
    tensor_counit_image,
)
from circulants.spectral import eigenvalues, eigenvector, fourier_context
from circulants.verify import random_circulant

SEED = 0x5EED


def test_dense_mul_examples():
    rng = np.random.default_rng(SEED)
    a = rng.uniform(-1, 1, (4, 4)) + 0j
    assert np.array_equal(np.eye(4, dtype=complex) @ a, a)
    lhs = circ(1, 2, 3).to_dense() @ circ(1, 2, 3).to_dense()
    assert np.max(np.abs(lhs - circ(13, 13, 10).to_dense())) == 0
    p3 = fundamental(3).to_dense()
    assert np.array_equal(p3 @ p3.T, np.eye(3, dtype=complex))


def test_faddeev_leverrier_examples():
    got = faddeev_leverrier(circ(1, 2, 3).to_dense())
    assert got == pytest.approx((1, -3, -15, -18), abs=1e-9)
    assert faddeev_leverrier(np.zeros((2, 2))) == pytest.approx((1, 0, 0), abs=0)
    got = faddeev_leverrier(np.diag([4.0, 1.0, 1.0]))
    assert got == pytest.approx((1, -6, 9, -4), abs=1e-9)


def test_exact_and_float_char_polys_agree():
    rng = np.random.default_rng(SEED)
    for n in range(1, 11):
        c = rational_circ(*(int(v) for v in rng.integers(-5, 6, size=n)))
        exact = faddeev_leverrier_exact(c.to_exact_dense())
        floating = faddeev_leverrier(c.to_float().to_dense())
        for a, b in zip(exact, floating):
            assert abs(float(a) - b) <= 1e-8 * (1 + abs(float(a)))


def test_exact_inverse_reference_basis():
    rows = [
        [F(0), F(-1), F(1)],
        [F(-1, 3), F(1, 3), F(1, 3)],
        [F(1, 3), F(2, 3), F(-1, 3)],
    ]
    assert exact_inverse(rows) == ((1, -1, 2), (0, 1, 1), (1, 1, 1))


def test_exact_inverse_identity_and_singular():
    assert exact_inverse([[1, 0], [0, 1]]) == ((1, 0), (0, 1))
    with pytest.raises(SingularMatrixError):
        exact_inverse([[1, 1], [1, 1]])


def test_exact_inverse_times_matrix_is_identity():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 5, 8):
        grid = [[F(int(v), int(rng.integers(1, 5))) for v in row] for row in rng.integers(-9, 10, (n, n))]
        if exact_det(grid) == 0:
            continue
        inv = exact_inverse(grid)
        product = [
            [sum(inv[i][k] * grid[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_exact_det_matches_pivot_free_cases():
    assert exact_det([[2, 0], [0, 3]]) == 6
    assert exact_det([[0, 1], [1, 0]]) == -1
    assert exact_det([[1, 1], [1, 1]]) == 0


def test_eigen_residual_examples():
    a = circ(1, 1, 1).to_dense()
    assert eigen_residual(a, 3, np.ones(3)) <= 1e-15
    c = circ(1, 2, 3)
    lam = eigenvalues(c).values[1]
    x = eigenvector(fourier_context(3), 2)
    assert eigen_residual(c.to_dense(), lam, x) <= 1e-12
    assert eigen_residual(np.eye(2), 2, np.array([1.0, 0.0])) == 0.5


def test_eigen_residual_rejects_zero_vector():
    with pytest.raises(InvalidVectorError):
        eigen_residual(np.eye(2), 1, np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        eigen_residual(np.eye(2), 1, np.ones(3))


def test_greedy_multiset_match():
    assert greedy_multiset_match((1, 2, 3), (3.0, 1.0, 2.0), 1e-9) == 0.0
    assert greedy_multiset_match((1, 2), (1, 2.5), 1e-3) is None
    assert greedy_multiset_match((1,), (1, 2), 1e-9) is None
    worst = greedy_multiset_match((1, 1 + 1e-12), (1, 1), 1e-9)
    assert worst is not None and worst <= 2e-12


def test_oracles_do_not_depend_on_circulant_modules():
    import circulants.oracle as oracle_module

    source = Path(oracle_module.__file__).read_text()
    for banned in ("from .core", "from .spectral", "from .forms", "from .hopf",
                   "from .twisted", "from .lattice"):
        assert banned not in source


def test_float_oracle_on_random_circulants():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 5, 8):
        c = random_circulant(rng, n)
        coeffs = faddeev_leverrier(c.to_dense())
        # Evaluate the polynomial at the known eigenvalues: must vanish.
        for lam in eigenvalues(c).values:
            value = 0j
            for coeff in coeffs:
                value = value * lam + coeff
            assert abs(value) <= 1e-8 * (1 + c.norm_inf()) ** n


def shift_powers(n: int) -> list[np.ndarray]:
    return [np.linalg.matrix_power(np.roll(np.eye(n), 1, axis=1), k) for k in range(n)]


def kron_matrix(t: np.ndarray) -> np.ndarray:
    """sum_{a,b} t[a, b] P^a (x) P^b as an n^2 x n^2 matrix, from the
    permutation matrices themselves."""
    n = t.shape[0]
    powers = shift_powers(n)
    return sum(t[a, b] * np.kron(powers[a], powers[b]) for a in range(n) for b in range(n))


def test_hopf_tensor_oracles_follow_their_definitions():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4):
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        product = kron_matrix(s) @ kron_matrix(t)
        assert np.max(np.abs(kron_matrix(group_tensor_product(s, t)) - product)) <= 1e-12
        row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        delta = kron_matrix(coproduct_tensor(row))
        powers = shift_powers(n)
        assert np.array_equal(delta, sum(row[k] * np.kron(powers[k], powers[k]) for k in range(n)))
        # eps(P^a) = 1 and S(P^a) = P^-a, entry by entry over the tensor.
        counit = np.zeros(n, dtype=complex)
        antipode = np.zeros(n, dtype=complex)
        left = np.zeros((n, n, n), dtype=complex)
        right = np.zeros((n, n, n), dtype=complex)
        for a in range(n):
            for b in range(n):
                counit[b] += t[a, b]
                antipode[(b - a) % n] += t[a, b]
                left[a, a, b] += t[a, b]
                right[a, b, b] += t[a, b]
        assert np.max(np.abs(tensor_counit_image(t) - counit)) <= 1e-12
        assert np.max(np.abs(tensor_antipode_image(t) - antipode)) <= 1e-12
        oleft, oright = coassociativity_tensors(t)
        assert np.array_equal(oleft, left) and np.array_equal(oright, right)
    with pytest.raises(DimensionMismatchError):
        group_tensor_product(np.eye(2), np.eye(3))
