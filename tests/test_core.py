from fractions import Fraction

import numpy as np
import pytest

from circulants import (
    Circulant,
    DimensionMismatchError,
    InvalidOrderError,
    InvalidScalarError,
    circ,
    fundamental,
    identity,
    linear_combine,
    mul_naive,
)
from circulants.verify import random_circulant

SEED = 0x5EED


def test_circ_stores_first_row_verbatim():
    c = circ(1, 2, 3)
    assert c.n == 3
    assert c.coeffs == (1 + 0j, 2 + 0j, 3 + 0j)


def test_identity_element():
    e = circ(1, 0, 0)
    c = random_circulant(np.random.default_rng(SEED), 3)
    assert mul_naive(e, c).coeffs == pytest.approx(c.coeffs, abs=0)


def test_empty_row_rejected():
    with pytest.raises(InvalidOrderError):
        circ()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("inf"))])
def test_non_finite_entry_rejected(bad):
    with pytest.raises(InvalidScalarError):
        circ(1, bad)


def test_non_numeric_entry_rejected():
    with pytest.raises(InvalidScalarError):
        circ("one", 2)


def test_entry_beyond_float_range_rejected():
    with pytest.raises(InvalidScalarError, match="beyond the float range"):
        Circulant((10**400,))


def test_to_dense_order3_pattern():
    c1, c2, c3 = 1 + 1j, 2.0, -3.5
    expected = np.array([[c1, c2, c3], [c3, c1, c2], [c2, c3, c1]])
    assert np.array_equal(circ(c1, c2, c3).to_dense(), expected)


def test_to_dense_order2_identity():
    assert np.array_equal(circ(1, 0).to_dense(), np.eye(2, dtype=complex))


def test_to_dense_shift_permutation():
    p = circ(0, 1, 0).to_dense()
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = expected[1, 2] = expected[2, 0] = 1
    assert np.array_equal(p, expected)


def test_dense_first_row_is_verbatim():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 7, 33):
        c = random_circulant(rng, n)
        assert tuple(c.to_dense()[0]) == c.coeffs


def test_linear_combine():
    assert linear_combine(1, circ(1, 2, 3), 1, circ(0, 0, 1)).coeffs == (1, 2, 4)
    y = circ(5, 6)
    assert linear_combine(0, circ(1, 1), 1, y).coeffs == y.coeffs
    with pytest.raises(DimensionMismatchError):
        linear_combine(1, circ(1, 2, 3), 1, circ(1, 2, 3, 4))


def test_mul_naive_square_example():
    assert mul_naive(circ(1, 2, 3), circ(1, 2, 3)).coeffs == (13, 13, 10)


def test_mul_naive_shift_squares_to_identity():
    assert mul_naive(circ(0, 1), circ(0, 1)).coeffs == (1, 0)


def test_mul_naive_order_mismatch():
    with pytest.raises(DimensionMismatchError):
        mul_naive(circ(1, 2, 3), circ(1, 2, 3, 4))


def test_mul_naive_matches_dense_product():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 5, 8, 16, 31, 64):
        for _ in range(10):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            lhs = mul_naive(x, y).to_dense()
            rhs = x.to_dense() @ y.to_dense()
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_mul_naive_commutes_exactly_on_integer_entries():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 8, 17):
        for _ in range(10):
            x = circ(*(int(v) for v in rng.integers(-9, 10, size=n)))
            y = circ(*(int(v) for v in rng.integers(-9, 10, size=n)))
            assert mul_naive(x, y).coeffs == mul_naive(y, x).coeffs


def test_mul_naive_commutes_up_to_roundoff():
    rng = np.random.default_rng(SEED)
    for n in (2, 5, 16, 64):
        x, y = random_circulant(rng, n), random_circulant(rng, n)
        diff = max(
            abs(a - b)
            for a, b in zip(mul_naive(x, y).coeffs, mul_naive(y, x).coeffs)
        )
        assert diff <= 1e-13 * (1.0 + x.norm_inf() * y.norm_inf())


def test_fundamental_matrix():
    assert fundamental(3).coeffs == (0, 1, 0)
    p = fundamental(3)
    assert mul_naive(mul_naive(p, p), p).coeffs == (1, 0, 0)
    assert fundamental(1).coeffs == (1,)
    with pytest.raises(InvalidOrderError):
        fundamental(0)


def test_shift_powers_rebuild_any_circulant():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 9, 32):
        c = random_circulant(rng, n)
        p = fundamental(n)
        acc = c.coeffs[0] * identity(n)
        power = identity(n)
        for k in range(1, n):
            power = mul_naive(power, p)
            acc = acc + c.coeffs[k] * power
        assert acc.coeffs == c.coeffs


def test_transpose_examples():
    assert circ(1, 2, 3).transpose().coeffs == (1, 3, 2)
    assert circ(5, 7).transpose().coeffs == (5, 7)
    assert circ(1, 2, 3, 4).transpose().coeffs == (1, 4, 3, 2)


def test_transpose_matches_dense_transpose_exactly():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4, 11, 32):
        c = random_circulant(rng, n)
        assert np.array_equal(c.transpose().to_dense(), c.to_dense().T)


def test_operator_sugar_matches_functions():
    x, y = circ(1, 2), circ(3, -1)
    assert (x + y).coeffs == (4, 1)
    assert (x - y).coeffs == (-2, 3)
    assert (2 * x).coeffs == (2, 4)
    assert (x * y).coeffs == mul_naive(x, y).coeffs


def test_immutability():
    c = circ(1, 2)
    with pytest.raises(AttributeError):
        c.coeffs = (3, 4)


def test_circ_of_one_iterable_and_orders_below_1():
    assert circ([1, 2, 3]) == circ(iter((1, 2, 3))) == circ(1, 2, 3)
    with pytest.raises(InvalidOrderError, match="^order must be >= 1, got 0$"):
        identity(0)


#: The binary operators with a foreign operand on either side.
_FOREIGN = {
    "__add__": lambda v, o: v + o,
    "__sub__": lambda v, o: v - o,
    "__mul__": lambda v, o: v * o,
    "__rmul__": lambda v, o: o * v,
}


def _foreign_operand_cases():
    from circulants import comultiplication, mu_circ, rational_circ
    from circulants.documents import circulant_to_obj, document_from_obj

    c = circ(1, 2)
    return (
        *((c, method) for method in (*_FOREIGN, "__eq__")),
        (mu_circ((1, 2), (3,)), "__eq__"),
        (comultiplication(c), "__eq__"),
        (rational_circ(1, 2), "__add__"),
        (rational_circ(1, 2), "__mul__"),
        (document_from_obj(circulant_to_obj(c)), "__eq__"),
    )


@pytest.mark.parametrize(
    "value, method",
    _foreign_operand_cases(),
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_foreign_operands_are_not_implemented(value, method):
    # Python then tries the other operand, and ends in TypeError or, for
    # ==, in identity.
    other = object()
    assert getattr(value, method)(other) is NotImplemented
    if method == "__eq__":
        assert value != other
    else:
        with pytest.raises(TypeError):
            _FOREIGN[method](value, other)


def _tolerance_callers():
    """The six public calls that take a tolerance, each as (name, call(tol))."""
    from circulants import (
        MuWeights,
        cocycle_from_mu,
        integral_check,
        inverse,
        is_invertible,
        verify_antipode_axiom,
        verify_cocycle,
        verify_counit_axiom,
    )

    c = circ(2, 1, 1)
    cocycle = cocycle_from_mu(MuWeights.from_tail((2.0, 0.5j)))
    return {
        "is_invertible": lambda tol: is_invertible(c, threshold=tol),
        "inverse": lambda tol: inverse(c, threshold=tol),
        "verify_counit_axiom": lambda tol: verify_counit_axiom(c, tol=tol),
        "verify_antipode_axiom": lambda tol: verify_antipode_axiom(c, tol=tol),
        "integral_check": lambda tol: integral_check(c, tol=tol),
        "verify_cocycle": lambda tol: verify_cocycle(cocycle, tol=tol),
    }


#: Tolerances that are not real numbers.  None is refused only where it
#: is not the default (`is_invertible` and `inverse` take None as "use
#: the default threshold").
NOT_REAL = ("a", [1], None, 1j, np.complex128(0.5))


@pytest.mark.parametrize(
    "caller, bad",
    [
        (caller, bad)
        for caller in sorted(_tolerance_callers())
        for bad in NOT_REAL
        if not (bad is None and caller in ("inverse", "is_invertible"))
    ],
    ids=repr,
)
def test_a_tolerance_that_is_not_a_real_number_is_refused_typed(caller, bad):
    # A string, list or None has no order, and `>=` raised an untyped
    # TypeError; numpy's complex scalar compares without one and was
    # taken.  Every caller refuses them all with InvalidScalarError, and
    # still takes a real tolerance of any real type.
    call = _tolerance_callers()[caller]
    with pytest.raises(InvalidScalarError, match="non-negative"):
        call(bad)
    for good in (1e-9, Fraction(1, 10**9), np.float32(1e-6)):
        call(good)
