import copy
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from circulants import (
    IncompatibleAlgebrasError,
    InvalidCocycleError,
    InvalidOrderError,
    InvalidWeightsError,
    MuCirculant,
    MuWeights,
    circ,
    cocycle_from_mu,
    eigenvalues,
    forms,
    fourier_context,
    mu_circ,
    mu_eigen,
    mu_forms,
    mu_mul,
    mu_to_dense,
    mul_naive,
    psi,
    psi_inv,
    skew_circ,
    skew_root,
    verify_cocycle,
)
from circulants.core import SPECTRAL_MUL_MIN_ORDER
from circulants.errors import DimensionMismatchError, InvalidScalarError
from circulants.oracle import cocycle_residual
from circulants.twisted import TwoCocycle
from circulants.verify import random_circulant, random_real_circulant

SEED = 0x5EED


def _weights(*tail):
    return MuWeights.from_tail(tuple(tail))


def test_random_weights_draw_moduli_then_phases():
    from circulants.fixtures import random_weights

    rng = np.random.default_rng(SEED)
    state = rng.bit_generator.state
    assert random_weights(rng, 1) == MuWeights((1,)) and rng.bit_generator.state == state
    mags, phases = rng.uniform(0.5, 2.0, 4), rng.uniform(0.0, 2 * np.pi, 4)
    assert random_weights(np.random.default_rng(SEED), 5) == _weights(*(mags * np.exp(1j * phases)))


def test_weights_validation():
    with pytest.raises(InvalidWeightsError):
        MuWeights((2, 1))
    with pytest.raises(InvalidWeightsError):
        _weights(1, 0)


def test_cocycle_table_rejects_zero_entries():
    from circulants import InvalidCocycleError

    with pytest.raises(InvalidCocycleError):
        TwoCocycle(((1, 1), (1, 0)))
    with pytest.raises(InvalidCocycleError):
        TwoCocycle(((1, 1), (1,)))


def test_mu_circulant_first_row_and_diagonal():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 5, 8):
        tail = tuple(complex(x, y) for x, y in rng.uniform(0.5, 2.0, size=(n - 1, 2)))
        m = mu_circ(random_circulant(rng, n).coeffs, tail)
        dense = mu_to_dense(m)
        assert tuple(dense[0]) == m.coeffs
        assert np.allclose(np.diag(dense), m.coeffs[0], atol=1e-12)


def test_cocycle_from_mu_order3():
    a, b = 2 + 0j, 5 + 0j
    f = cocycle_from_mu(_weights(a, b)).table
    assert f[1][1] == pytest.approx(a * a / b)
    assert f[1][2] == pytest.approx(a * b)
    assert f[2][2] == pytest.approx(b * b / a)
    assert f[2][1] == pytest.approx(a * b)


def test_cocycle_normalization_row_and_column():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 6):
        tail = tuple(complex(x, y) for x, y in rng.uniform(0.5, 2.0, size=(n - 1, 2)))
        f = cocycle_from_mu(_weights(*tail)).table
        assert all(f[0][i] == 1 and f[i][0] == 1 for i in range(n))


def test_trivial_weights_give_constant_cocycle():
    f = cocycle_from_mu(_weights(1, 1, 1)).table
    assert all(x == 1 for row in f for x in row)


def test_coboundaries_satisfy_cocycle_identity():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        mags = rng.uniform(0.5, 2.0, size=n - 1)
        phases = rng.uniform(0, 2 * np.pi, size=n - 1)
        weights = _weights(*(mags * np.exp(1j * phases)))
        report = verify_cocycle(cocycle_from_mu(weights))
        assert report.holds and report.residual <= 1e-10


def test_perturbed_table_fails_cocycle_identity():
    weights = _weights(1.0 + 0j, 1.0 + 0j)
    table = [list(row) for row in cocycle_from_mu(weights).table]
    table[1][1] *= 1.1
    report = verify_cocycle(TwoCocycle(tuple(tuple(row) for row in table)))
    assert not report.holds
    assert 0.05 <= report.residual <= 0.15


@pytest.mark.parametrize("b", (1e200, 1e-200))
def test_cocycle_products_beyond_float_range_raise(b):
    # Not a cocycle: F(e_2, e_2) F(e_3, e_3) = b^2 but F(e_2, e_3) F(e_2, e_1) = b.
    # Its products overflow (inf - inf is nan) or underflow to 0.
    table = TwoCocycle(((1, 1, 1), (1, b, b), (1, b, b)))
    with pytest.raises(InvalidScalarError, match="float range"):
        verify_cocycle(table)


@pytest.mark.parametrize("tol", (-1.0, float("nan")))
def test_verify_cocycle_rejects_negative_or_nan_tol(tol):
    table = cocycle_from_mu(_weights(1j, -1.0))
    with pytest.raises(InvalidScalarError, match="tolerance"):
        verify_cocycle(table, tol)
    assert verify_cocycle(table, 0.0).residual >= 0.0


def _random_weights(rng, n):
    return _weights(*(rng.uniform(0.5, 2.0, size=n - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n - 1))))


def test_verify_cocycle_matches_the_triple_loop():
    # Coboundaries hold; a table with entries scaled by 1 + 1e-3 z (some on
    # the first row or column) does not.  The array form and the loop agree
    # on the verdict, and on the residual up to the last bits of the
    # complex products.  Up to n = 16 the triples take one block; 20, 23
    # and 41 take several, the last one short at 23 and 41.
    rng = np.random.default_rng(SEED)
    for n in (*range(1, 17), 20, 23, 41):
        for perturb in (False, True):
            table = cocycle_from_mu(_random_weights(rng, n)).array.copy()
            if perturb:
                slots = rng.integers(0, n, size=(2, 3))
                table[slots[0], slots[1]] *= 1 + 1e-3 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
            report = verify_cocycle(TwoCocycle(table), tol=1e-10)
            residual = cocycle_residual(table.tolist())
            assert report.holds == (residual <= 1e-10)
            assert report.holds != perturb
            assert abs(report.residual - residual) <= 1e-15


def test_coboundary_at_order_256_in_quadratic_memory():
    # The triples go one x at a time: n^2 entries per step, not n^3.
    weights = _random_weights(np.random.default_rng(SEED), 256)
    tracemalloc.start()
    try:
        report = verify_cocycle(cocycle_from_mu(weights))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds and report.residual <= 1e-10
    assert peak < 16e6


def test_two_cocycle_stores_one_read_only_array():
    rows = ((1, 1, 1), (1, 2j, -0.5), (1, 3, complex(0.25, -0.0)))
    f = TwoCocycle(rows)
    assert f.n == 3 and f.array.shape == (3, 3) and not f.array.flags.writeable
    assert f.table == tuple(tuple(complex(v) for v in row) for row in rows)
    assert all(type(v) is complex for row in f.table for v in row)
    assert f.table == tuple(map(tuple, f.array.tolist()))
    caller = np.array(rows, dtype=complex)
    same = TwoCocycle(caller)
    caller[1, 1] = 5
    assert same == f and hash(same) == hash(f) == hash(f.table)
    assert TwoCocycle(((1, 1, 1), (1, 2j, -0.5), (1, 3, 0.25))) == f  # -0.0 equals 0.0
    assert f != TwoCocycle(((1, 1, 1), (1, 2j, -0.5), (1, 3, 0.5)))
    assert f != TwoCocycle(((1,),)) and f != rows
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert twin == f and twin.table == f.table and not twin.array.flags.writeable
    assert repr(TwoCocycle(((1,),))) == "TwoCocycle(table=(((1+0j),),))"
    with pytest.raises(FrozenInstanceError):
        f.array = np.ones((3, 3))


@pytest.mark.parametrize(
    "table, error",
    (
        ((), InvalidOrderError),
        (((1, 1, 1), (1, 1), (1, 1, 1, 1)), InvalidCocycleError),
        (np.array([[1, 1], [1, 0j]]), InvalidCocycleError),
        (((1, 1), (1, float("nan"))), InvalidScalarError),
        (((1, float("inf")), (1, 1)), InvalidScalarError),
        (np.array([[1, 1], [1, np.inf]]), InvalidScalarError),
        (np.ones((2, 2, 2)), InvalidScalarError),
        (((1, 1), (1, "2")), InvalidScalarError),
        ((1, 2), InvalidCocycleError),
        (np.ones(4), InvalidCocycleError),
        (5, InvalidCocycleError),
        (iter([(1,)]), InvalidCocycleError),
        (np.array(3.0), InvalidCocycleError),
    ),
    ids=(
        "empty", "ragged", "zero-array", "nan", "inf", "inf-array", "3-d", "string",
        "flat-row", "flat-array", "scalar", "iterator", "0-d-array",
    ),
)
def test_two_cocycle_rejects_bad_tables(table, error):
    # With test_cocycle_table_rejects_zero_entries: ragged, zero, non-finite
    # and empty tables raise the types the per-row check raised.
    with pytest.raises(error):
        TwoCocycle(table)


def test_cocycle_from_mu_refuses_entries_beyond_the_float_range():
    # mu_2^2 / mu_3 overflows; mu_2 mu_3 / mu_1 underflows to 0.
    with pytest.raises(InvalidScalarError):
        cocycle_from_mu(_weights(1e200, 1e-200))
    with pytest.raises(InvalidCocycleError):
        cocycle_from_mu(_weights(1e-200, 1e-200))


def test_mu_to_dense_is_the_explicit_weight_expression():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 5, 8, 13, 64):
        mu = np.concatenate(([1], rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        i, j = np.indices((n, n))
        factor = mu[i] * mu[(j - i) % n] / mu[j]
        factor[0, :] = 1.0
        np.fill_diagonal(factor, 1.0)
        dense = mu_to_dense(MuCirculant(c, MuWeights(mu)))
        assert dense.tobytes() == (c[(j - i) % n] * factor).tobytes()


def test_mu_to_dense_order3_pattern():
    c1, c2, c3 = 1.5, -2.0, 3 + 1j
    a, b = 2 + 0j, -4 + 0j
    dense = mu_to_dense(mu_circ((c1, c2, c3), (a, b)))
    expected = np.array(
        [
            [c1, c2, c3],
            [c3 * a * b, c1, c2 * a * a / b],
            [c2 * a * b, c3 * b * b / a, c1],
        ]
    )
    assert np.max(np.abs(dense - expected)) <= 1e-12


def test_trivial_weights_reduce_to_plain_circulant():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 7):
        c = random_circulant(rng, n)
        m = mu_circ(c.coeffs, (1,) * (n - 1))
        assert np.array_equal(mu_to_dense(m), c.to_dense())
        assert psi(m).coeffs == c.coeffs
        assert mu_eigen(m).spectrum.values == eigenvalues(c).values
        assert mu_forms(m).q == forms(c).q


def test_scalar_coefficients_give_scalar_matrix():
    m = mu_circ((2.5, 0, 0, 0), (2, 3, 4))
    assert np.array_equal(mu_to_dense(m), 2.5 * np.eye(4))
    assert mu_eigen(m).spectrum.values == pytest.approx((2.5,) * 4, abs=1e-12)


def test_psi_examples():
    assert psi(mu_circ((1, 1, 1), (2, 5))).coeffs == (1, 2, 5)
    m = psi_inv(circ(1, 2, 3), _weights(2, 4))
    assert m.coeffs == (1, 1, 0.75)
    assert m.weights.mu == (1, 2, 4)


def test_psi_roundtrip():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 8):
        tail = tuple(complex(x, y) for x, y in rng.uniform(0.5, 2.0, size=(n - 1, 2)))
        m = mu_circ(random_circulant(rng, n).coeffs, tail)
        back = psi_inv(psi(m), m.weights)
        assert back.coeffs == pytest.approx(m.coeffs, abs=1e-12)


def test_mu_mul_identity_and_square():
    x = mu_circ((0, 1, 0), (2 + 0j, 4 + 0j))
    e = mu_circ((1, 0, 0), (2 + 0j, 4 + 0j))
    assert mu_mul(e, x).coeffs == pytest.approx(x.coeffs, abs=1e-12)
    square = mu_mul(x, x)
    assert square.coeffs == pytest.approx((0, 0, 1), abs=1e-12)  # a^2/b = 4/4


def test_mu_mul_rejects_different_weights():
    x = mu_circ((1, 2, 3), (2, 4))
    y = mu_circ((1, 2, 3), (2, 5))
    with pytest.raises(IncompatibleAlgebrasError):
        mu_mul(x, y)


def test_mu_mul_matches_dense_product():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4, 8, 16, 64):
        mags = rng.uniform(0.5, 2.0, size=n - 1)
        phases = rng.uniform(0, 2 * np.pi, size=n - 1)
        tail = tuple(mags * np.exp(1j * phases))
        x = mu_circ(random_circulant(rng, n).coeffs, tail)
        y = mu_circ(random_circulant(rng, n).coeffs, tail)
        if n < SPECTRAL_MUL_MIN_ORDER:
            naive = psi_inv(mul_naive(psi(x), psi(y)), x.weights)
            assert mu_mul(x, y).coeffs == naive.coeffs
        structural = mu_to_dense(mu_mul(x, y))
        dense = mu_to_dense(x) @ mu_to_dense(y)
        scale = 1.0 + float(np.max(np.abs(dense)))
        assert np.max(np.abs(structural - dense)) <= 1e-9 * scale


def test_mu_eigen_shift_example():
    a, b = 2 + 0j, -3 + 0j
    m = mu_circ((0, 1, 0), (a, b))
    eig = mu_eigen(m)
    ctx = fourier_context(3)
    dense = mu_to_dense(m)
    for j in range(3):
        assert eig.spectrum.values[j] == pytest.approx(a * ctx.powers[j], abs=1e-12)
        expected_vector = np.array([1, a * ctx.powers[j], b * ctx.powers[j] ** 2])
        assert eig.vectors[:, j] == pytest.approx(expected_vector, abs=1e-12)
        residual = np.max(np.abs(dense @ eig.vectors[:, j] - eig.spectrum.values[j] * eig.vectors[:, j]))
        assert residual <= 1e-9 * (1.0 + np.max(np.abs(dense)))


def test_mu_eigen_refuses_vectors_beyond_the_float_range():
    # |mu_3| = 1.97e308: mu_3 omega^2 has a part past the float maximum.
    m = MuCirculant((1.0, 0.0, 0.5), MuWeights((1.0, 1.7, complex(1e308, 1.7e308))))
    with pytest.raises(InvalidScalarError, match="non-finite entry"):
        mu_eigen(m)


def test_mu_eigen_residuals_random():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 5, 8, 16):
        mags = rng.uniform(0.5, 2.0, size=n - 1)
        phases = rng.uniform(0, 2 * np.pi, size=n - 1)
        m = mu_circ(random_circulant(rng, n).coeffs, tuple(mags * np.exp(1j * phases)))
        eig = mu_eigen(m)
        dense = mu_to_dense(m)
        residual = np.max(
            np.abs(dense @ eig.vectors - eig.vectors * eig.spectrum.as_array()[None, :])
        )
        assert residual <= 1e-9 * (1.0 + float(np.max(np.abs(dense))))


def test_eigen_transport_from_untwisted_pair():
    # An eigenpair of circ(c_1, c_2 mu_2, ...) transports to the twisted
    # matrix with the component-wise weighted eigenvector.
    rng = np.random.default_rng(SEED)
    n = 6
    tail = tuple(complex(x, y) for x, y in rng.uniform(0.5, 1.5, size=(n - 1, 2)))
    m = mu_circ(random_circulant(rng, n).coeffs, tail)
    plain = psi(m)
    lam = eigenvalues(plain).values
    ctx = fourier_context(n)
    mu = np.asarray(m.weights.mu)
    dense = mu_to_dense(m)
    for j in range(1, n + 1):
        x = np.asarray([ctx.powers[(k * (j - 1)) % n] for k in range(n)])
        transported = mu * x
        residual = np.max(np.abs(dense @ transported - lam[j - 1] * transported))
        assert residual <= 1e-9 * (1.0 + float(np.max(np.abs(dense))))


def test_skew_root_relations():
    for n in range(1, 65):
        sigma = skew_root(n)
        assert abs(sigma**2 - fourier_context(n).omega) <= 1e-12
        assert abs(sigma**n + 1) <= 1e-12


def test_skew_circ_order3_pattern():
    a, b, c = 1.0, 2.0, 3.0
    dense = mu_to_dense(skew_circ((a, b, c)))
    expected = np.array([[a, b, c], [-c, a, b], [-b, -c, a]])
    assert np.max(np.abs(dense - expected)) <= 1e-12


def test_skew_circ_is_sign_flipped_circulant():
    rng = np.random.default_rng(SEED)
    for n in range(1, 33):
        c = random_real_circulant(rng, n)
        dense = mu_to_dense(skew_circ(c.coeffs))
        flipped = c.to_dense()
        flipped[np.tril_indices(n, k=-1)] *= -1.0
        assert np.max(np.abs(dense - flipped)) <= 1e-12


def test_skew_order1_and_order2():
    assert np.array_equal(mu_to_dense(skew_circ((4.0,))), np.array([[4.0 + 0j]]))
    eig = mu_eigen(skew_circ((1.0, 1.0)))
    assert sorted(eig.spectrum.values, key=lambda z: z.imag) == pytest.approx(
        [1 - 1j, 1 + 1j], abs=1e-12
    )


def test_mu_forms_examples():
    assert mu_forms(mu_circ((1, 0, 0), (2, 5))).q == pytest.approx((3, 3, 1), abs=1e-12)
    q = mu_forms(skew_circ((1.0, 1.0))).q
    assert q == pytest.approx((2, 2), abs=1e-12)


def test_mu_forms_trace_and_determinant():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 5, 8):
        tail = tuple(complex(x, y) for x, y in rng.uniform(0.5, 1.5, size=(n - 1, 2)))
        m = mu_circ(random_circulant(rng, n).coeffs, tail)
        q = mu_forms(m)
        assert q.q[0] == pytest.approx(n * m.coeffs[0], abs=1e-10 * (1 + abs(m.coeffs[0]) * n))
        det = np.linalg.det(mu_to_dense(m))
        assert abs(q.q[-1] - det) <= 1e-8 * (1.0 + abs(det))


def test_mu_forms_builds_no_n_by_n_matrix():
    # scirc(1, 0, ..., 0) is the identity: every eigenvalue is 1 and
    # q_k = binomial(n, k).  The eigenvector matrix alone would take 4 MB.
    n = 512
    m = skew_circ([1.0] + [0.0] * (n - 1))
    tracemalloc.start()
    try:
        q = mu_forms(m).q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert q[:3] == (512, 130816, 22238720) and q[-1] == 1


@pytest.mark.parametrize(
    "call, error, message",
    (
        (lambda: MuCirculant((1, 2, 3), _weights(2)), DimensionMismatchError, "3 coefficients but 2 weights"),
        (lambda: psi_inv(circ(1, 2, 3), _weights(2)), DimensionMismatchError, "order 3 vs 2 weights"),
        (lambda: skew_root(0), InvalidOrderError, "order must be >= 1, got 0"),
    ),
    ids=("weight-count", "psi-inv-order", "skew-root-0"),
)
def test_order_mismatches_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_weights_of_different_orders_never_match():
    assert not _weights(2).matches(_weights(2, 3))
    assert _weights(2, 3).matches(_weights(2, 3))
