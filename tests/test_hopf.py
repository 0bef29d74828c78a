import copy
import math
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from circulants import (
    BlockCirculant,
    Circulant,
    antipode,
    block_mul,
    circ,
    comultiplication,
    counit,
    delta_spectrum,
    eigenvalues,
    factorize_dense,
    fundamental,
    identity,
    integral_check,
    mul_naive,
    reconstruct_factorization,
    verify_antipode_axiom,
    verify_counit_axiom,
)
from circulants import oracle
from circulants.errors import DimensionMismatchError, InvalidOrderError, InvalidScalarError
from circulants.hopf import antipode_image, coassociativity_tensors, counit_image
from circulants.oracle import greedy_multiset_match
from circulants.verify import random_circulant

SEED = 0x5EED


def test_counit_examples():
    assert counit(circ(1, 2, 3)) == 6
    assert counit(identity(5)) == 1
    for n in (2, 3, 9):
        assert counit(fundamental(n)) == 1


def test_counit_is_multiplicative():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 8, 16):
        x, y = random_circulant(rng, n), random_circulant(rng, n)
        lhs = counit(mul_naive(x, y))
        rhs = counit(x) * counit(y)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + x.norm_inf() * y.norm_inf())


def test_comultiplication_order2():
    a, b = 2.5, -1 + 1j
    delta = comultiplication(circ(a, b))
    assert delta.blocks[0].coeffs == (a, 0)
    assert delta.blocks[1].coeffs == (0, b)
    p2 = fundamental(2).to_dense()
    expected = np.block([[a * np.eye(2), b * p2], [b * p2, a * np.eye(2)]])
    assert np.array_equal(delta.expand(), expected)


def test_comultiplication_identity_and_shift():
    n = 3
    assert np.array_equal(comultiplication(identity(n)).expand(), np.eye(n * n))
    p = fundamental(n).to_dense()
    assert np.array_equal(comultiplication(fundamental(n)).expand(), np.kron(p, p))


def test_comultiplication_is_tensor_sum_of_shift_powers():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4, 5, 6):
        c = random_circulant(rng, n)
        p = fundamental(n).to_dense()
        power = np.eye(n, dtype=complex)
        expected = np.zeros((n * n, n * n), dtype=complex)
        for k in range(n):
            expected += c.coeffs[k] * np.kron(power, power)
            power = power @ p
        assert np.max(np.abs(comultiplication(c).expand() - expected)) <= 1e-12


def test_block_circulant_layout():
    blocks = tuple(circ(*(float(k),) * 2) for k in (1, 2))
    bc = BlockCirculant(blocks)
    dense = bc.expand()
    assert np.array_equal(dense[:2, :2], blocks[0].to_dense())
    assert np.array_equal(dense[:2, 2:], blocks[1].to_dense())
    assert np.array_equal(dense[2:, :2], blocks[1].to_dense())
    with pytest.raises(DimensionMismatchError):
        BlockCirculant((circ(1, 2, 3),))


def test_antipode_examples():
    assert antipode(circ(1, 2, 3)).coeffs == (1, 3, 2)
    assert antipode(identity(4)).coeffs == (1, 0, 0, 0)
    for n in (2, 3, 7):
        q = antipode(fundamental(n))
        assert mul_naive(q, fundamental(n)).coeffs == identity(n).coeffs


def test_antipode_is_involution_and_transpose():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 5, 16):
        c = random_circulant(rng, n)
        assert antipode(antipode(c)).coeffs == c.coeffs
        assert np.array_equal(antipode(c).to_dense(), c.to_dense().T)


def test_antipode_reverses_products():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 8):
        x, y = random_circulant(rng, n), random_circulant(rng, n)
        lhs = antipode(mul_naive(x, y))
        rhs = mul_naive(antipode(y), antipode(x))
        assert lhs.coeffs == pytest.approx(rhs.coeffs, abs=1e-12)


def test_delta_spectrum_examples():
    assert delta_spectrum(circ(1, 2)) == pytest.approx((3, 3, -1, -1), abs=1e-12)
    assert delta_spectrum(identity(3)) == pytest.approx((1,) * 9, abs=1e-12)
    got = delta_spectrum(circ(1, 1, 1))
    expected = (3, 3, 3, 0, 0, 0, 0, 0, 0)
    assert greedy_multiset_match(got, expected, 1e-9) is not None


def test_delta_spectrum_matches_expanded_matrix():
    rng = np.random.default_rng(SEED)
    for n in range(1, 7):
        for _ in range(10):
            c = random_circulant(rng, n)
            structural = delta_spectrum(c)
            expanded = np.linalg.eigvals(comultiplication(c).expand())
            tol = 1e-9 * (1.0 + c.norm_inf())
            worst = greedy_multiset_match(structural, expanded, tol)
            assert worst is not None, "multiset matching failed"


def test_greedy_matching_failure_is_detected():
    assert greedy_multiset_match((0, 1), (0, 2), 1e-9) is None


def test_delta_diagonalizing_block_structure():
    # The expanded coproduct is diagonalized by the double Fourier basis;
    # block j of the diagonal form is Lam_1 + w^(j-1) Lam_2 + ... with
    # Lam_k = c_k diag(1, w^(k-1), ..., w^((k-1)(n-1))).  Its entries are
    # the eigenvalues, each appearing n times overall.
    from circulants import eigenvector_matrix, fourier_context

    rng = np.random.default_rng(SEED)
    for n in range(1, 7):
        c = random_circulant(rng, n)
        ctx = fourier_context(n)
        w = np.asarray(ctx.powers)
        lam_blocks = [c.coeffs[k] * np.diag(w**k) for k in range(n)]
        diag_blocks = []
        for j in range(n):
            block = np.zeros((n, n), dtype=complex)
            for k in range(n):
                block += (w[j] ** k) * lam_blocks[k]
            diag_blocks.append(block)
        diagonal_entries = np.concatenate([np.diag(b) for b in diag_blocks])
        tol = 1e-9 * (1.0 + c.norm_inf())
        assert greedy_multiset_match(delta_spectrum(c), diagonal_entries, tol) is not None
        # Residual check: columns of F (x) F are eigenvectors of the expansion
        # with exactly those diagonal entries.
        f = eigenvector_matrix(n)
        big = comultiplication(c).expand()
        vectors = np.kron(f, f)
        residual = np.max(np.abs(big @ vectors - vectors * diagonal_entries[None, :]))
        assert residual <= 1e-9 * (1.0 + n * c.norm_inf())


def test_counit_axiom():
    for c in (circ(1, 2, 3), random_circulant(np.random.default_rng(SEED), 8), circ(0, 0)):
        report = verify_counit_axiom(c)
        assert report.holds and report.residual <= 1e-12


def test_antipode_axiom():
    rng = np.random.default_rng(SEED)
    for c in (circ(1, 2, 3), fundamental(5), random_circulant(rng, 16)):
        report = verify_antipode_axiom(c)
        assert report.holds and report.residual <= 1e-10


def test_counit_beyond_float_range_raises():
    big = circ(1e308, 1e308)
    for check in (counit, verify_antipode_axiom, integral_check):
        with pytest.raises(InvalidScalarError, match="float range"):
            check(big)


@pytest.mark.parametrize("tol", (-1.0, float("nan")))
@pytest.mark.parametrize("check", (verify_counit_axiom, verify_antipode_axiom, integral_check))
def test_verifiers_reject_negative_or_nan_tol(check, tol):
    with pytest.raises(InvalidScalarError, match="tolerance"):
        check(circ(1, 2, 3), tol)
    assert check(circ(1, 2, 3), 0.0).holds


def test_integral_element_examples():
    assert mul_naive(circ(2, 5), circ(1, 1)).coeffs == (7, 7)
    assert integral_check(circ(2, 5)).holds
    assert integral_check(identity(3)).holds
    assert mul_naive(circ(1, 2, 3), circ(1, 1, 1)).coeffs == (6, 6, 6)
    assert integral_check(circ(1, 2, 3)).holds


def test_delta_is_algebra_map():
    rng = np.random.default_rng(SEED)
    for n in range(1, 7):
        x, y = random_circulant(rng, n), random_circulant(rng, n)
        lhs = block_mul(comultiplication(x), comultiplication(y)).expand()
        rhs = comultiplication(mul_naive(x, y)).expand()
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + x.norm_inf() * y.norm_inf())


def test_block_mul_matches_dense_product_of_general_block_circulants():
    # Blocks with full rows, so the coefficient tensors are not diagonal.
    rng = np.random.default_rng(SEED)
    for n in range(1, 9):
        a = BlockCirculant(tuple(random_circulant(rng, n) for _ in range(n)))
        b = BlockCirculant(tuple(random_circulant(rng, n) for _ in range(n)))
        dense = a.expand() @ b.expand()
        scale = 1.0 + np.abs(a.expand()).sum(axis=1).max() * np.abs(b.expand()).sum(axis=1).max()
        assert np.max(np.abs(block_mul(a, b).expand() - dense)) <= 1e-12 * scale


@pytest.mark.parametrize("n", (256, 1024))
def test_delta_is_algebra_map_at_scale(n):
    # The 2-D FFT's roundoff grows like eps * log n, not with n.
    rng = np.random.default_rng(SEED)
    x, y = random_circulant(rng, n), random_circulant(rng, n)
    product = block_mul(comultiplication(x), comultiplication(y)).coefficient_tensor()
    expected = comultiplication(x * y).coefficient_tensor()
    bound = np.finfo(float).eps * math.log2(n) * (1.0 + x.norm_inf() * y.norm_inf())
    assert np.max(np.abs(product - expected)) <= bound
    assert verify_counit_axiom(x).residual == 0.0
    assert verify_antipode_axiom(x).residual == 0.0


def test_coassociativity_exact():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 5, 8, 64, 4096):
        c = random_circulant(rng, n)
        left, right = coassociativity_tensors(c)
        assert all(np.array_equal(u, v) for u, v in zip(left, right))
        assert len(left[-1]) == n


def scattered(support, n):
    *index, values = support
    t = np.zeros((n,) * len(index), dtype=complex)
    t[tuple(index)] = values
    return t


def random_blocks(rng, n):
    return BlockCirculant(tuple(random_circulant(rng, n) for _ in range(n)))


@pytest.mark.parametrize("n", (1, 2, 3, 5, 8, 13, 32))
def test_support_path_matches_the_dense_oracle_tensors(n):
    rng = np.random.default_rng(SEED + n)
    x, y = random_circulant(rng, n), random_circulant(rng, n)
    dx, dy = comultiplication(x), comultiplication(y)
    tx, ty = oracle.coproduct_tensor(x.array), oracle.coproduct_tensor(y.array)
    assert dx.values.size == n
    assert np.array_equal(dx.coefficient_tensor(), tx)
    # The push-forwards add in the order the dense sums do: equal bits.
    for element, tensor in ((dx, tx), (random_blocks(rng, n), None)):
        t = element.coefficient_tensor() if tensor is None else tensor
        assert counit_image(element).tobytes() == oracle.tensor_counit_image(t).tobytes()
        assert antipode_image(element).tobytes() == oracle.tensor_antipode_image(t).tobytes()
    # Coassociativity: both supports scatter to the oracle's n^3 tensors.
    left, right = coassociativity_tensors(x)
    oleft, oright = oracle.coassociativity_tensors(tx)
    assert np.array_equal(scattered(left, n), oleft) and np.array_equal(scattered(right, n), oright)
    # Products: the diagonal path and the 2-D transform against the definition.
    scale = 1.0 + x.norm_inf() * y.norm_inf()
    reference = oracle.group_tensor_product(tx, ty)
    product = block_mul(dx, dy)
    assert np.array_equal(product.a, product.b) and product.values.size == n
    assert np.max(np.abs(product.coefficient_tensor() - reference)) <= 1e-13 * scale
    general = block_mul(BlockCirculant(dx.blocks), dy)
    assert general.values.size == n * n
    assert np.max(np.abs(general.coefficient_tensor() - reference)) <= 1e-13 * scale
    if n <= 8:
        a, b = random_blocks(rng, n), random_blocks(rng, n)
        ta, tb = a.coefficient_tensor(), b.coefficient_tensor()
        bound = 1e-13 * (1.0 + np.abs(ta).sum() * np.abs(tb).sum())
        assert np.max(np.abs(block_mul(a, b).coefficient_tensor() - oracle.group_tensor_product(ta, tb))) <= bound


def test_block_circulant_is_its_support():
    c = circ(1, -2j, 0, 3.5)
    delta = comultiplication(c)
    assert delta.n == 4
    assert delta.a.tolist() == delta.b.tolist() == [0, 1, 2, 3]
    assert delta.values.tolist() == list(c.coeffs)
    # The blocks are derived, and the blocks constructor gives an equal element.
    assert delta.blocks == (circ(1, 0, 0, 0), circ(0, -2j, 0, 0), circ(0, 0, 0, 0), circ(0, 0, 0, 3.5))
    full = BlockCirculant(delta.blocks)
    assert full.values.size == 16 and np.array_equal(full.coefficient_tensor(), delta.coefficient_tensor())
    assert full == delta and hash(full) == hash(delta)
    assert comultiplication(circ(-0.0, 1)) == comultiplication(circ(0.0, 1))
    assert delta != comultiplication(circ(1, -2j, 0, 3)) and delta != comultiplication(circ(1, 2))
    for arr in (delta.a, delta.b, delta.values):
        assert not arr.flags.writeable
    with pytest.raises(FrozenInstanceError):
        delta.values = np.zeros(4)
    for twin in (pickle.loads(pickle.dumps(delta)), copy.deepcopy(delta)):
        assert twin == delta and not twin.values.flags.writeable
    assert repr(comultiplication(circ(1, 2))) == "BlockCirculant(blocks=(circ(1.0, 0.0), circ(0.0, 2.0)))"
    with pytest.raises(InvalidOrderError):
        BlockCirculant(())


def test_coproduct_pickles_as_its_support():
    # The blocks would pickle as n^2 coefficients: 268 MB at n = 4096.
    delta = comultiplication(random_circulant(np.random.default_rng(SEED), 4096))
    data = pickle.dumps(delta)
    assert len(data) < 256 * 1024
    twin = pickle.loads(data)
    assert twin == delta and np.array_equal(twin.a, delta.a) and np.array_equal(twin.b, delta.b)
    assert not any(arr.flags.writeable for arr in (twin.a, twin.b, twin.values))
    full = BlockCirculant(comultiplication(circ(1, 2j, 3)).blocks)
    assert pickle.loads(pickle.dumps(full)) == full and copy.deepcopy(full) == full


def test_general_product_checks_finiteness():
    # A support off the diagonal takes the 2-D DFT, whose product leaves
    # the float range here.
    x = BlockCirculant((circ(1e300, 1e300), circ(1e300, -1e300)))
    with pytest.raises(InvalidScalarError, match="non-finite"):
        block_mul(x, x)


def test_hopf_verify_axioms_in_linear_memory():
    # The dense coefficient tensor alone would take 256 MiB at n = 4096.
    n = 4096
    c = random_circulant(np.random.default_rng(SEED), n)
    tracemalloc.start()
    try:
        reports = (verify_counit_axiom(c), verify_antipode_axiom(c), integral_check(c))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.holds for r in reports)
    assert reports[0].residual == 0.0 and reports[1].residual == 0.0
    assert peak < 2e6


def test_factorize_order2():
    a, b, c, d = 1 + 1j, 2.0, -3.0, 0.5j
    grid = factorize_dense(np.array([[a, b], [c, d]]))
    assert grid[0, 0] == a and grid[0, 1] == b
    assert grid[1, 0] == d and grid[1, 1] == c


def test_factorize_identity_and_circulant():
    n = 4
    grid = factorize_dense(np.eye(n))
    assert np.array_equal(grid[:, 0], np.ones(n))
    assert np.max(np.abs(grid[:, 1:])) == 0
    dense = circ(1, 2, 3).to_dense()
    grid = factorize_dense(dense)
    assert np.array_equal(grid, np.tile([1, 2, 3], (3, 1)))


def test_factorize_reconstruct_roundtrip():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 5, 9):
        a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        assert np.array_equal(reconstruct_factorization(factorize_dense(a)), a)


def test_factorization_reconstructs_through_basis_matrices():
    # a[i][k] really are the coefficients on E_ii P^(k-1).
    rng = np.random.default_rng(SEED)
    n = 4
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    grid = factorize_dense(a)
    p = fundamental(n).to_dense()
    rebuilt = np.zeros((n, n), dtype=complex)
    shift_power = np.eye(n, dtype=complex)
    for k in range(n):
        for i in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, i] = 1.0
            rebuilt += grid[i, k] * (unit @ shift_power)
        shift_power = shift_power @ p
    assert np.max(np.abs(rebuilt - a)) <= 1e-12


@pytest.mark.parametrize(
    "call, message",
    (
        (
            lambda: block_mul(comultiplication(circ(1, 2)), comultiplication(circ(1, 2, 3))),
            "block orders differ: 2 vs 3",
        ),
        (lambda: factorize_dense(np.ones((2, 3))), "square matrix required, got (2, 3)"),
        (lambda: factorize_dense(np.ones(4)), "square matrix required, got (4,)"),
        (lambda: reconstruct_factorization(np.ones((3, 2))), "square grid required, got (3, 2)"),
    ),
    ids=("block-orders", "factorize-2x3", "factorize-1d", "reconstruct-3x2"),
)
def test_order_and_shape_mismatches_raise(call, message):
    with pytest.raises(DimensionMismatchError) as info:
        call()
    assert str(info.value) == message
