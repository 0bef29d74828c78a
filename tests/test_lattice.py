import dataclasses
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from circulants import (
    BrandtVerdict,
    DependentBasisError,
    LatticeBasis,
    NotIntegralBasisError,
    basis_inverse_integral,
    brandt_check,
    delta_lattice_decompose,
    delta_spectrum,
    exact_char_poly,
    forms_exact,
    integer_spectrum,
    lattice_decompose,
    lattice_new,
    rational_circ,
    reconstruct_from_spectrum,
)
from circulants.errors import (
    CirculantError,
    DimensionMismatchError,
    DocumentError,
    InvalidModeError,
    InvalidScalarError,
)
from circulants.lattice import BrandtCounterexample
from circulants.oracle import brandt_check_by_forms, exact_det, exact_inverse, faddeev_leverrier_exact

SEED = 0x5EED

# Reference 3x3 basis whose coefficient matrix has an integral inverse.
REFERENCE_ROWS = [
    [0, -1, 1],
    [F(-1, 3), F(1, 3), F(1, 3)],
    [F(1, 3), F(2, 3), F(-1, 3)],
]
REFERENCE_INVERSE = ((1, -1, 2), (0, 1, 1), (1, 1, 1))


def test_exact_char_poly_examples():
    assert exact_char_poly(rational_circ(1, 1, 1)) == (1, -3, 0, 0)
    assert exact_char_poly(rational_circ(2, 1, 1)) == (1, -6, 9, -4)
    assert exact_char_poly(rational_circ(1, 0)) == (1, -2, 1)


def test_exact_forms_signs():
    assert forms_exact(rational_circ(1, 1, 1)) == (3, 0, 0)
    assert forms_exact(rational_circ(2, 1, 1)) == (6, 9, 4)


def test_floats_are_rejected_in_exact_arithmetic():
    with pytest.raises(InvalidScalarError):
        rational_circ(0.5, 0, 0)


def test_rational_circulant_keeps_a_fraction_row_and_converts_any_other():
    from circulants.lattice import RationalCirculant

    row = (F(1, 2), F(-3))
    assert RationalCirculant(row).coeffs == row
    assert RationalCirculant([F(1, 2), F(-3)]).coeffs == row

    class Half(F):
        pass

    for mixed in ((F(1, 2), -3), (Half(1, 2), F(-3)), ("1/2", np.int64(-3)), (True, F(2))):
        c = RationalCirculant(mixed)
        assert type(c.coeffs) is tuple and all(type(x) is F for x in c.coeffs)
    assert RationalCirculant((Half(1, 2), F(-3))).coeffs == row
    for bad in ((F(1, 2), 0.5), (F(1, 2), "x"), (F(1, 2), None), (F(1, 2), "1/0")):
        with pytest.raises(InvalidScalarError):
            RationalCirculant(bad)


def test_to_float_rejects_entries_beyond_float_range():
    assert rational_circ(F(1, 4), 2).to_float().coeffs == (0.25 + 0j, 2 + 0j)
    with pytest.raises(InvalidScalarError, match="beyond the float range"):
        rational_circ(F(10**400), 1).to_float()


def test_integer_spectrum_examples():
    assert integer_spectrum(rational_circ(2, 1, 1)).values == (4, 1, 1)
    assert integer_spectrum(rational_circ(1, 1, 1)).values == (3, 0, 0)
    assert integer_spectrum(rational_circ(1, 2, 3)) is None


def test_integer_spectrum_slot_order():
    # Slot 1 is the eigenvalue at omega^0 = 1, i.e. the coefficient sum.
    spec = integer_spectrum(rational_circ(2, 1, 1))
    assert spec.values[0] == 4


def test_rational_mode_spectrum():
    half = rational_circ(F(1, 2), 0, 0)
    assert integer_spectrum(half, mode="integral") is None
    spec = integer_spectrum(half, mode="rational")
    assert spec is not None and spec.values == (F(1, 2),) * 3


def test_integer_spectrum_repeated_roots_and_bigger_order():
    c = rational_circ(2, 1, 1, 0)  # p(X) = 2 + X + X^2
    spec = integer_spectrum(c)
    # p(1)=4, p(i)=1+i+i^2 = i+... stays non-real, so no integral spectrum.
    assert spec is None
    allones = rational_circ(1, 1, 1, 1)
    assert integer_spectrum(allones).values == (4, 0, 0, 0)


def test_sum_and_product_preserve_integer_spectra():
    rng = np.random.default_rng(SEED)
    base = [rational_circ(2, 1, 1), rational_circ(1, 1, 1), rational_circ(3, 0, 0)]
    for _ in range(10):
        i, j = rng.integers(0, len(base), size=2)
        a, b = base[i], base[j]
        sa, sb = integer_spectrum(a), integer_spectrum(b)
        ssum, sprod = integer_spectrum(a + b), integer_spectrum(a * b)
        assert ssum is not None and sprod is not None
        assert ssum.values == tuple(x + y for x, y in zip(sa.values, sb.values))
        assert sprod.values == tuple(x * y for x, y in zip(sa.values, sb.values))


def test_brandt_examples():
    assert brandt_check([rational_circ(2, 1, 1), rational_circ(1, 1, 1)]).holds
    assert brandt_check([rational_circ(1, 0, 0)]).holds
    verdict = brandt_check([rational_circ(F(1, 2), 0, 0)])
    assert not verdict.holds
    ce = verdict.counterexample
    assert ce.form_index == 1 and ce.value == F(3, 2)


def test_brandt_order_mismatch():
    with pytest.raises(DimensionMismatchError):
        brandt_check([rational_circ(1, 0), rational_circ(1, 0, 0)])


def test_brandt_rational_mode_is_vacuous_on_rational_input():
    assert brandt_check([rational_circ(F(1, 2), 0, 0)], mode="rational").holds


@pytest.mark.parametrize("mode", ("exact", "", None), ids=("exact", "empty", "none"))
def test_unknown_mode_is_a_typed_usage_error(mode):
    for call in (
        lambda: integer_spectrum(rational_circ(1, 0), mode=mode),
        lambda: brandt_check([rational_circ(1, 0)], mode=mode),
    ):
        with pytest.raises(InvalidModeError, match="mode must be 'integral' or 'rational'") as info:
            call()
        assert isinstance(info.value, CirculantError) and isinstance(info.value, ValueError)
        assert info.value.exit_code == 2


def test_integer_spectrum_elements_form_brandt_set():
    elements = [rational_circ(2, 1, 1), rational_circ(1, 1, 1), rational_circ(0, 1, 1)]
    assert integer_spectrum(elements[2]).values == (2, -1, -1)
    for e in elements:
        assert integer_spectrum(e) is not None
    assert brandt_check(elements).holds


def test_delta_spectrum_brandt_transfer():
    # Block-circulant images of integer-spectrum elements keep integer spectra.
    for c in (rational_circ(2, 1, 1), rational_circ(1, 1, 1)):
        assert integer_spectrum(c) is not None
        for lam in delta_spectrum(c.to_float()):
            assert abs(lam.imag) <= 1e-9
            assert abs(lam.real - round(lam.real)) <= 1e-9


def test_reconstruct_examples():
    result = reconstruct_from_spectrum((4, 1, 1))
    assert result.real
    assert result.circulant.coeffs == pytest.approx((2, 1, 1), abs=1e-9)
    assert all(z.imag == 0 for z in result.circulant.coeffs)

    result = reconstruct_from_spectrum((3, 0, 0))
    assert result.real
    assert result.circulant.coeffs == pytest.approx((1, 1, 1), abs=1e-9)

    result = reconstruct_from_spectrum((0, 1, 0))
    assert not result.real
    assert any(abs(z.imag) > 1e-3 for z in result.circulant.coeffs)


def test_reconstruct_roundtrips_integer_spectrum():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4, 6):
        lams = tuple(int(v) for v in rng.integers(-9, 10, size=n))
        result = reconstruct_from_spectrum(lams)
        back = integer_spectrum_of_floats(result.circulant.coeffs, lams)
        assert back


def integer_spectrum_of_floats(coeffs, lams):
    # Forward transform of the reconstructed row must hit the prescribed values.
    from circulants import circ, eigenvalues

    got = eigenvalues(circ(*coeffs)).values
    return all(abs(g - l) <= 1e-9 * (1 + abs(l)) for g, l in zip(got, lams))


def test_spectrum_then_reconstruct_is_identity():
    for c in (rational_circ(2, 1, 1), rational_circ(1, 1, 1), rational_circ(5, 0)):
        spec = integer_spectrum(c)
        assert spec is not None
        result = reconstruct_from_spectrum(spec)
        assert result.real
        assert result.circulant.coeffs == pytest.approx(c.to_float().coeffs, abs=1e-9)
        assert brandt_check([c]).holds


def symmetric_integer_spectrum(rng, n, exponent):
    """lambda_{k+1} = lambda_{n-k+1}, integers of about 10^exponent."""
    half = [int(v) * 10**exponent // 10**6 for v in rng.integers(-(10**6), 10**6 + 1, n // 2 + 1)]
    return tuple(half[min(j, n - j)] for j in range(n))


@pytest.mark.parametrize("exponent", (3, 6, 7, 9, 12, 15, 18, 30, 100, 200, 300))
def test_symmetric_spectra_reconstruct_real_at_every_magnitude(exponent):
    # The imaginary roundoff of the inverse transform grows with the
    # values: held to an absolute 1e-10, most of these were refused with
    # RootAssignmentError from 10^7 on.
    rng = np.random.default_rng(SEED + exponent)
    for _ in range(50):
        lams = symmetric_integer_spectrum(rng, int(rng.integers(3, 129)), exponent)
        result = reconstruct_from_spectrum(lams)
        assert result.real and all(z.imag == 0 for z in result.circulant.coeffs)
        scale = max(abs(v) for v in lams)
        got = np.fft.fft(result.circulant.array)
        assert np.max(np.abs(got - np.array(lams, dtype=float))) <= 1e-12 * scale


@pytest.mark.parametrize("exponent", (3, 18, 300))
def test_reconstruction_refuses_an_imaginary_residue_beyond_its_bound(monkeypatch, exponent):
    from circulants import Circulant, spectral
    from circulants.errors import RootAssignmentError

    lams = symmetric_integer_spectrum(np.random.default_rng(SEED), 16, exponent)
    bound = 1e-10 * (1.0 + max(abs(v) for v in lams))
    exact = spectral.from_spectrum

    def residue(spectrum):
        row = exact(spectrum).array.copy()
        row[3] += 2j * bound
        return Circulant(row)

    monkeypatch.setattr(spectral, "from_spectrum", residue)
    with pytest.raises(RootAssignmentError, match="imaginary residue"):
        reconstruct_from_spectrum(lams)


def test_close_rational_eigenvalues_take_exact_slots():
    # Two distinct rational eigenvalues 1 +/- 1/20000000, far closer than
    # any float slot match could separate; the cyclotomic rule puts the
    # coefficient sum in slot 1 and p(-1) in slot 2.
    c = rational_circ(1, F(1, 20_000_000))
    assert integer_spectrum(c, mode="rational").values == (
        1 + F(1, 20_000_000),
        1 - F(1, 20_000_000),
    )


def test_integer_spectrum_beyond_the_float_range():
    big = F(10**400)
    assert integer_spectrum(rational_circ(big, 1)).values == (big + 1, big - 1)


def test_lattice_new_rejects_non_square():
    from circulants import InvalidOrderError

    with pytest.raises(InvalidOrderError):
        lattice_new([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(InvalidOrderError):
        lattice_new([])


def test_lattice_new_accepts_reference_basis():
    basis = lattice_new(REFERENCE_ROWS)
    assert basis.n == 3
    assert basis.det != 0


def test_lattice_new_accepts_identity_rejects_dependent():
    assert lattice_new(np.eye(3, dtype=int).tolist()).det == 1
    with pytest.raises(DependentBasisError):
        lattice_new([[1, 2], [1, 2]])


def test_reference_basis_inverse_is_integral():
    integral, inverse = basis_inverse_integral(lattice_new(REFERENCE_ROWS))
    assert integral
    assert inverse == tuple(tuple(F(x) for x in row) for row in REFERENCE_INVERSE)


def test_identity_basis_inverse():
    integral, inverse = basis_inverse_integral(lattice_new(np.eye(2, dtype=int).tolist()))
    assert integral
    assert inverse == ((1, 0), (0, 1))


def test_fractional_inverse_detected():
    integral, inverse = basis_inverse_integral(lattice_new([[2, 0], [0, 1]]))
    assert not integral
    assert inverse[0][0] == F(1, 2)


def test_lattice_decompose_reference_target():
    basis = lattice_new(REFERENCE_ROWS)
    solution = lattice_decompose(basis, rational_circ(1, 0, 0))
    assert solution.member and solution.coefficients == (1, -1, 2)
    solution = lattice_decompose(basis, rational_circ(0, 0, 1))
    assert solution.member and solution.coefficients == (1, 1, 1)
    recombined = [
        sum(solution.coefficients[i] * basis.rows[i][j] for i in range(3))
        for j in range(3)
    ]
    assert recombined == [0, 0, 1]


def test_lattice_decompose_non_member():
    basis = lattice_new(np.eye(3, dtype=int).tolist())
    solution = lattice_decompose(basis, rational_circ(F(1, 2), 0, 0))
    assert not solution.member
    assert solution.coefficients == (F(1, 2), 0, 0)


def test_lattice_decompose_refuses_a_basis_whose_inverse_does_not_recombine():
    # A stored inverse that is not the inverse of the rows: the identity
    # rows with (1, 1; 0, 1) give coefficients (1, 1) for the target
    # (1, 0), which recombine to (1, 1), and the exact check refuses them.
    basis = LatticeBasis(cleared_rows=(1, (1, 0, 0, 1)), det=F(1), cleared_inverse=(1, (1, 1, 0, 1)))
    with pytest.raises(ArithmeticError, match="failed to recombine"):
        lattice_decompose(basis, rational_circ(1, 0))


def test_lattice_decompose_dimension_error():
    with pytest.raises(DimensionMismatchError):
        lattice_decompose(lattice_new(REFERENCE_ROWS), rational_circ(1, 0))


def test_all_integral_targets_are_members():
    rng = np.random.default_rng(SEED)
    basis = lattice_new(REFERENCE_ROWS)
    for _ in range(100):
        target = rational_circ(*(int(v) for v in rng.integers(-50, 51, size=3)))
        solution = lattice_decompose(basis, target)
        assert solution.member
        recombined = [
            sum(solution.coefficients[i] * basis.rows[i][j] for i in range(3))
            for j in range(3)
        ]
        assert recombined == list(target.coeffs)



def test_repeated_decompositions_match_a_fresh_basis():
    # The basis clears its inverse and rows once; every later call must
    # give what a newly built basis gives, for members and non-members.
    rng = np.random.default_rng(SEED)

    def fractions(n, top, denominators):
        return [F(int(a), int(b)) for a, b in zip(rng.integers(-top, top + 1, n), denominators)]

    rows = [fractions(8, 9, rng.integers(1, 5, 8)) for _ in range(8)]
    basis = lattice_new(rows)
    assert basis.cleared_inverse[0] > 1  # a fractional inverse
    assert "cleared" not in repr(basis) and basis == lattice_new(rows)
    for k in range(20):
        if k % 2:  # a member: an integer combination of the rows
            m = [int(a) for a in rng.integers(-3, 4, 8)]
            target = rational_circ(*(sum(a * row[j] for a, row in zip(m, rows)) for j in range(8)))
        else:
            target = rational_circ(*fractions(8, 20, rng.integers(1, 3, 8)))
        first = lattice_decompose(basis, target)
        assert first.member == bool(k % 2)
        assert lattice_decompose(basis, target) == first
        assert lattice_decompose(lattice_new(rows), target) == first
        recombined = [sum(first.coefficients[i] * rows[i][j] for i in range(8)) for j in range(8)]
        assert recombined == list(target.coeffs)


def test_delta_lattice_decompose():
    basis = lattice_new(REFERENCE_ROWS)
    assert delta_lattice_decompose(basis, (1, 0, 0)) == (1, -1, 2)
    assert delta_lattice_decompose(basis, (0, 0, 0)) == (0, 0, 0)
    with pytest.raises(NotIntegralBasisError):
        delta_lattice_decompose(lattice_new([[2, 0], [0, 1]]), (1, 0))


@pytest.mark.parametrize("n", (3, 6))
def test_delta_lattice_decompose_rejects_fractional_block_coefficients(n):
    identity_basis = lattice_new([[int(i == j) for j in range(n)] for i in range(n)])
    assert delta_lattice_decompose(identity_basis, (1,) * n) == (1,) * n
    with pytest.raises(InvalidScalarError, match="1/2 is not an integer"):
        delta_lattice_decompose(identity_basis, (F(1, 2),) + (1,) * (n - 1))


def mobius(m):
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def ramanujan_sum(q, k):
    g = math.gcd(q, k)
    return sum(mobius(q // e) * e for e in range(1, g + 1) if g % e == 0)


def galois_stable_row(n, values):
    """Exact first row whose eigenvalue at slot j + 1 is values[gcd(j, n)]:
    c_k = (1/n) sum_{d | n} v_d c_{n/d}(k), with c_q the Ramanujan sum."""
    row = [
        sum(F(v) * ramanujan_sum(n // d, k) for d, v in values.items()) / n
        for k in range(n)
    ]
    spectrum = tuple(F(values[math.gcd(j, n)]) for j in range(n))
    return rational_circ(row), spectrum


def mixed_row(rng, n, bound, denominators):
    """n entries k/q with |k| <= bound and q drawn from denominators."""
    nums = rng.integers(-bound, bound + 1, size=n)
    return [F(int(k), int(q)) for k, q in zip(nums, rng.choice(denominators, size=n))]


def divisor_values(rng, n, denominators=(1,)):
    return {
        d: F(int(rng.integers(-6, 7)), int(rng.choice(denominators)))
        for d in range(1, n + 1)
        if n % d == 0
    }


@pytest.mark.parametrize("n", range(1, 17))
def test_exact_char_poly_matches_faddeev_leverrier(n):
    rng = np.random.default_rng(SEED + n)
    ints = [int(v) for v in rng.integers(-5, 6, size=n)]
    mixed = mixed_row(rng, n, 9, (1, 2, 3, 7, 10))
    singular = ints[:-1] + [-sum(ints[:-1])]  # the slot-1 eigenvalue is 0
    split, _ = galois_stable_row(n, divisor_values(rng, n, (1, 2, 3)))
    for row in (ints, mixed, [0] * n, singular, split.coeffs):
        c = rational_circ(row)
        got = exact_char_poly(c)
        assert got == faddeev_leverrier_exact(c.to_exact_dense())
        assert all(type(x) is F for x in got)


@pytest.mark.parametrize("n", (32, 64, 128))
def test_exact_char_poly_closed_form_at_large_order(n):
    # circ(2, 1, 0, ..., 0) = 2I + P: (X - 2)^n - 1.
    want = [math.comb(n, i) * (-2) ** i for i in range(n + 1)]
    want[-1] -= 1
    assert exact_char_poly(rational_circ(2, 1, *([0] * (n - 2)))) == tuple(want)


def test_exact_cayley_hamilton_at_order_32():
    rng = np.random.default_rng(SEED)
    n = 32
    c = rational_circ(mixed_row(rng, n, 3, (1, 2, 3)))

    def scalar(value):
        return rational_circ(value, *([0] * (n - 1)))

    acc = scalar(0)
    for coeff in exact_char_poly(c):
        acc = acc * c + scalar(coeff)
    assert acc.coeffs == (0,) * n


# The traces past m = isqrt(3n) come in giant blocks of m, and these
# orders end the last block in every way: on a giant power (24, 40), one
# trace past it (25), one short of the next (23) and in between, primes
# included.
@pytest.mark.parametrize("n", (17, 23, 24, 25, 30, 31, 35, 36, 37, 40))
def test_exact_char_poly_matches_faddeev_leverrier_past_the_first_giant_blocks(n):
    rng = np.random.default_rng(SEED + n)
    c = rational_circ([int(v) for v in rng.integers(-5, 6, size=n)])
    assert exact_char_poly(c) == faddeev_leverrier_exact(c.to_exact_dense())


def closed_form_rows(n, magnitude):
    """(row, monic) pairs whose polynomial is known in closed form: I gives
    (X - 1)^n, 2I + P gives (X - 2)^n - 1, v P^(n-1) gives X^n - v^n, and
    the row of all -M, whose one nonzero eigenvalue is -nM, gives
    X^(n-1) (X + nM)."""
    zeros = [0] * (n - 1)
    two_plus_p = [math.comb(n, i) * (-2) ** i for i in range(n + 1)]
    two_plus_p[-1] -= 1
    v = -magnitude
    return [
        ([1, *zeros], [math.comb(n, i) * (-1) ** i for i in range(n + 1)]),
        ([2, 1, *zeros[1:]], two_plus_p),
        ([*zeros, v], [1, *zeros, -(v**n)]),
        ([-magnitude] * n, [1, n * magnitude, *zeros]),
    ]


@pytest.mark.parametrize("n", (17, 24, 25))
def test_exact_char_poly_on_rows_that_stress_the_packed_slots(n):
    rng = np.random.default_rng(SEED + n)
    huge = [int(v) for v in rng.integers(-(10**15), 10**15, size=n, endpoint=True)]
    for row in (huge, mixed_row(rng, n, 9, (1, 2, 3, 7, 10))):
        c = rational_circ(row)
        assert exact_char_poly(c) == faddeev_leverrier_exact(c.to_exact_dense())
    # The row of all -M fills every slot of its k-th power with
    # (-M)^k n^(k-1), all of one sign, negative at every odd k: the worst
    # case for the sign bits.
    for magnitude in (1, 127, 128, 255, 256, 10**15):
        for row, monic in closed_form_rows(n, magnitude):
            assert exact_char_poly(rational_circ(row)) == tuple(monic), row[:2]


def schoolbook(x, y):
    n = len(x)
    return tuple(sum(x[i] * y[(s - i) % n] for i in range(n)) for s in range(n))


@pytest.mark.parametrize("n", [*range(1, 65), 256])
def test_rational_product_matches_the_schoolbook_convolution(n):
    rng = np.random.default_rng(SEED + n)
    huge = [F(int(v)) for v in rng.integers(-(10**15), 10**15, size=n, endpoint=True)]
    mixed = mixed_row(rng, n, 10**15, (1, 2, 3, 7, 10))
    product = rational_circ(huge) * rational_circ(mixed)
    assert product.coeffs == schoolbook(huge, mixed)
    assert all(type(v) is F for v in product.coeffs)
    # A zero row, and a constant row, whose products are known without the
    # double loop: every slot of (-M, ..., -M) * y is -M (y_1 + ... + y_n).
    zero = rational_circ([0] * n)
    assert (zero * rational_circ(huge)).coeffs == (rational_circ(mixed) * zero).coeffs == (0,) * n
    for magnitude in (1, 10**15):
        constant = rational_circ([-magnitude] * n)
        assert (constant * rational_circ(mixed)).coeffs == (-magnitude * sum(mixed),) * n


@pytest.mark.parametrize("n", (256, 1024))
def test_brandt_witness_of_the_half_led_set_at_large_order(n):
    # The set the bench's brandt row times: I/2 ahead of three integer
    # rows; the witness is the first fractional form of (X - 1/2)^n.
    rng = np.random.default_rng([SEED, n])
    held = [rational_circ([int(v) for v in rng.integers(-2, 3, n)]) for _ in range(3)]
    led = [rational_circ([F(1, 2)] + [0] * (n - 1)), *held]
    i = next(i for i in range(1, n + 1) if math.comb(n, i) % 2**i)
    want = BrandtCounterexample((0, 0), "a", i, F(math.comb(n, i), 2**i))
    assert brandt_check(led) == BrandtVerdict(False, want)


def test_rational_spectrum_with_mixed_denominators_at_order_24():
    rng = np.random.default_rng(SEED)
    c, spectrum = galois_stable_row(24, divisor_values(rng, 24, (2, 3, 7)))
    assert math.lcm(*(x.denominator for x in c.coeffs)) > 42
    assert any(v.denominator != 1 for v in spectrum)
    assert integer_spectrum(c, mode="rational").values == spectrum
    assert integer_spectrum(c, mode="integral") is None

    c, spectrum = galois_stable_row(20, divisor_values(rng, 20))
    assert not c.is_integral()
    assert integer_spectrum(c).values == spectrum


def test_rational_spectrum_that_does_not_split_at_order_20():
    rng = np.random.default_rng(SEED)
    row = mixed_row(rng, 20, 9, (2, 3, 7))
    row[1] += 1  # c_2 != c_20, so some eigenvalue is not real
    c = rational_circ(row)
    assert integer_spectrum(c, mode="rational") is None
    assert integer_spectrum(c, mode="integral") is None


def subgroup_average(n, m):
    """(1/m)(I + P^(n/m) + ... + P^((m-1) n/m)), the average over the
    subgroup of order m: an idempotent, so its forms are integers
    although its entries are 1/m."""
    return [F(1, m) if k % (n // m) == 0 else F(0) for k in range(n)]


def random_brandt_rows(rng, n, holding):
    """1 to 3 rows of order n.  A holding set adds integer multiples of
    subgroup averages to integer rows; any other set draws each row over
    its own denominator 1 to 4, so it fails unless every denominator
    drawn is 1 (or the fractions happen to cancel)."""
    rows = []
    for _ in range(int(rng.integers(1, 4))):
        if holding:
            row = [F(int(v)) for v in rng.integers(-2, 3, size=n)]
            for m in divisors(n):
                t = int(rng.integers(-2, 3))
                row = [x + t * y for x, y in zip(row, subgroup_average(n, m))]
        else:
            den = int(rng.integers(1, 5))
            row = [F(int(v), den) for v in rng.integers(-4, 5, size=n)]
        rows.append(row)
    return rows


def verdict_tuple(verdict):
    """A BrandtVerdict in the oracle's form: None when it holds, else
    (pair, combination, form_index, value)."""
    if verdict.holds:
        assert verdict.counterexample is None
        return None
    ce = verdict.counterexample
    return ce.pair, ce.combination, ce.form_index, ce.value


def test_brandt_check_matches_ordered_traversal():
    # The oracle walks every probe of every ordered pair on the forms of
    # the dense characteristic polynomial; the verdict and witness must
    # be the same, on holding and failing sets at every order 1..16.
    rng = np.random.default_rng(SEED)
    outcomes = set()
    for n in range(1, 17):
        for holding in (True, False, False, False):
            rows = random_brandt_rows(rng, n, holding)
            want = brandt_check_by_forms(rows)
            assert verdict_tuple(brandt_check([rational_circ(r) for r in rows])) == want
            if holding:
                assert want is None
            outcomes.add(None if want is None else want[1])
    assert outcomes == {None, "a", "b"}


def test_brandt_oracle_takes_the_forms_it_is_given():
    # The default forms (Faddeev-LeVerrier on the dense matrix) and
    # forms_exact give the same traversal.
    rng = np.random.default_rng(SEED + 1)
    for n in (1, 3, 4, 6):
        for holding in (True, False):
            rows = random_brandt_rows(rng, n, holding)
            by_exact = brandt_check_by_forms(rows, forms=lambda r: forms_exact(rational_circ(r)))
            assert by_exact == brandt_check_by_forms(rows)
    with pytest.raises(DimensionMismatchError):
        brandt_check_by_forms([[1, 0], [1, 0, 0]])


@pytest.mark.parametrize("n", [2, 4, 6, 12])
def test_brandt_holds_for_the_averaging_idempotent(n):
    # J/n has every entry 1/n, but it is idempotent, with eigenvalues 1
    # and 0, so all of its forms are integers.
    rows = [subgroup_average(n, n)]
    assert rows == [[F(1, n)] * n]
    assert brandt_check_by_forms(rows) is None
    assert brandt_check([rational_circ(r) for r in rows]) == BrandtVerdict(True)
    shifted = [[x + (k == 0) for k, x in enumerate(rows[0])], [F(1, 2)] + [F(0)] * (n - 1)]
    want = brandt_check_by_forms(shifted)
    assert want is not None and want[:2] == ((0, 1), "b")
    assert verdict_tuple(brandt_check([rational_circ(r) for r in shifted])) == want


@pytest.mark.parametrize("n", [64, 128])
def test_brandt_check_at_large_order_is_fast(n):
    rng = np.random.default_rng(n)
    integer = [rational_circ([int(v) for v in rng.integers(-2, 3, size=n)]) for _ in range(4)]
    averages = [rational_circ(subgroup_average(n, m)) for m in (2, n // 2, n)]
    start = time.perf_counter()
    assert brandt_check(integer).holds and brandt_check(integer + averages).holds
    assert time.perf_counter() - start < 1.0
    # A half on the identity coefficient moves every eigenvalue by 1/2,
    # so the fifth element fails; its witness is its first fractional form.
    half = rational_circ([F(1, 2)] + [F(0)] * (n - 1))
    verdict = brandt_check(integer + [integer[0] + half])
    ce = verdict.counterexample
    assert (ce.pair, ce.combination) == ((0, 4), "b")
    forms = forms_exact(integer[0] + half)
    assert ce.value == forms[ce.form_index - 1] and ce.value.denominator != 1
    assert all(q.denominator == 1 for q in forms[: ce.form_index - 1])


def test_brandt_witness_stops_at_the_first_fractional_form():
    # An integer row of order 256 with 1/2 added to c_1: the witness is an
    # early form, so it costs a few convolution powers, not all 256 (3.3 s
    # through forms_exact on a 2-vCPU VM).
    from itertools import islice

    import circulants.lattice as lattice

    rng = np.random.default_rng(256)
    row = [int(v) for v in rng.integers(-2, 3, size=256)]
    element = rational_circ([row[0] + F(1, 2)] + row[1:])
    start = time.perf_counter()
    verdict = brandt_check([element])
    assert time.perf_counter() - start < 1.0
    ce = verdict.counterexample
    assert (ce.pair, ce.combination) == ((0, 0), "a") and ce.value.denominator != 1
    forms = list(islice(lattice._forms(element), ce.form_index))
    assert forms[-1] == ce.value and all(q.denominator == 1 for q in forms[:-1])
    assert 1 < ce.form_index < 64


def test_brandt_witness_packs_its_powers_no_wider_than_it_reads(monkeypatch):
    # (1/2 + r_0, r_1, ..., r_{n-1}), r random in -3..3: the witness is an
    # early form q_i, and the powers before it are packed at the width of
    # a^top, top doubling from 8, not at a^isqrt(3n) = a^55.
    from itertools import islice

    import circulants.base as base
    import circulants.lattice as lattice

    n = 1024
    rng = np.random.default_rng([SEED, n])
    r = [int(v) for v in rng.integers(-3, 4, n)]
    element = rational_circ([r[0] + F(1, 2)] + r[1:])
    bounds, width = [], base._width

    def spied(bound):
        bounds.append(bound)
        return width(bound)

    monkeypatch.setattr(base, "_width", spied)
    ce = brandt_check([element]).counterexample
    i, a = ce.form_index, sum(map(abs, element.cleared))
    assert bounds and max(bounds) <= a ** max(8, 2 * i) and 2 * i < math.isqrt(3 * n)
    forms = list(islice(lattice._forms(element), i))
    assert forms[-1] == ce.value and ce.value.denominator != 1
    assert all(q.denominator == 1 for q in forms[:-1])


def test_lattice_new_of_the_order_256_identity_is_fast():
    # Bareiss leaves alone a row whose pivot-column entry is 0 while the
    # pivot equals the previous one; on the identity that is every row at
    # every step (2.7 s at this order when each row was updated).
    n = 256
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    start = time.perf_counter()
    basis = lattice_new(identity)
    assert time.perf_counter() - start < 1.0
    assert basis.det == 1 and basis.cleared_inverse == (1, tuple(x for row in identity for x in row))


def test_brandt_check_calls_forms_exact_only_for_the_witness(monkeypatch):
    # forms_exact and brandt_check share the form-by-form generator
    # `_forms`; brandt_check draws from it for the witness element alone,
    # and only up to the first fractional form.
    import circulants.lattice as lattice

    calls, drawn = [], []
    shared = lattice._forms

    def counted(c):
        calls.append(c)
        for q in shared(c):
            drawn.append(q)
            yield q

    monkeypatch.setattr(lattice, "_forms", counted)
    third = F(1, 3)
    holding = [rational_circ(2, 1, 1), rational_circ(1, 1, 1), rational_circ(third, third, third)]
    assert lattice.brandt_check(holding).holds
    assert calls == []
    failing = holding + [rational_circ(F(1, 2), 0, 0), rational_circ(third, 0, 0)]
    verdict = lattice.brandt_check(failing)
    assert calls == [failing[3]] and drawn == [F(3, 2)]
    assert verdict.counterexample == BrandtCounterexample((0, 3), "b", 1, F(3, 2))
    assert lattice.forms_exact(failing[3]) == (F(3, 2), F(3, 4), F(1, 8))
    assert calls == [failing[3]] * 2 and drawn == [F(3, 2), F(3, 2), F(3, 4), F(1, 8)]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def orbit_constant_row(rng, n, magnitude):
    """Integer row with c_k = v[gcd(k, n)] for random v of about this
    magnitude, and its spectrum from the construction: slot j + 1 takes
    sum_g v_g c_{n/g}(j), which depends only on gcd(j, n)."""
    v = {g: int(rng.integers(-magnitude, magnitude + 1)) for g in divisors(n)}
    row = [v[math.gcd(k, n)] for k in range(n)]
    by_gcd = {h: sum(v_g * ramanujan_sum(n // g, h) for g, v_g in v.items()) for h in v}
    return rational_circ(row), tuple(F(by_gcd[math.gcd(j, n)]) for j in range(n))


@pytest.mark.parametrize("n, magnitude", ((12, 10**12), (12, 10**15), (30, 10**9)))
def test_integer_spectrum_of_large_orbit_constant_rows(n, magnitude):
    # These inputs defeated a float-seeded spectrum: it raised
    # RootAssignmentError (1e12, n = 30) or called the row non-split (1e15).
    rng = np.random.default_rng(SEED + n + magnitude % 997)
    for _ in range(20):
        c, spectrum = orbit_constant_row(rng, n, magnitude)
        assert integer_spectrum(c).values == spectrum
        assert integer_spectrum(c, mode="rational").values == spectrum


@pytest.mark.parametrize("n", (256, 1024))
def test_integer_spectrum_of_orbit_constant_rows_at_large_order(n):
    rng = np.random.default_rng(SEED + n)
    c, spectrum = orbit_constant_row(rng, n, 10**15)
    assert integer_spectrum(c).values == spectrum
    # Breaking the orbit symmetry once makes p(omega) non-real.
    row = list(c.coeffs)
    row[1] += 1
    assert integer_spectrum(rational_circ(row), mode="rational") is None


@pytest.mark.parametrize("n", (2520, 5040))
def test_integer_spectrum_of_the_order_row_at_highly_composite_order(n):
    # c_k = n / gcd(k, n), the order of k in Z/n: slot j + 1 takes
    # sum_g (n/g) c_{n/g}(j).  Many divisors, so many Phi_d to build.
    by_gcd = {h: sum(n // g * ramanujan_sum(n // g, h) for g in divisors(n)) for h in divisors(n)}
    c = rational_circ([n // math.gcd(k, n) for k in range(n)])
    assert integer_spectrum(c).values == tuple(F(by_gcd[math.gcd(j, n)]) for j in range(n))


def cyclotomic_by_division(limit):
    """Phi_d for d <= limit, each from x^d - 1 divided exactly by every
    Phi_e with e | d, e < d (ascending integer coefficient lists)."""
    out = {}
    for d in range(1, limit + 1):
        phi = [-1] + [0] * (d - 1) + [1]
        for e in divisors(d)[:-1]:
            g = out[e]
            quotient = [0] * (len(phi) - len(g) + 1)
            for top in range(len(quotient) - 1, -1, -1):
                q = quotient[top] = phi[top + len(g) - 1]
                for i, a in enumerate(g):
                    phi[top + i] -= q * a
            assert not any(phi)
            phi = quotient
        out[d] = phi
    return out


def test_cyclotomic_polynomials_from_binomials_match_division():
    from circulants.base import _cyclotomic

    reference = cyclotomic_by_division(400)
    assert all(_cyclotomic(d) == phi for d, phi in reference.items())
    # Phi_105, the first with a coefficient outside {-1, 0, 1}.
    assert min(_cyclotomic(105)) == -2 and reference[105].count(-2) == 2


def split_by_deflation(monic, float_eigs, scale):
    """The rational roots of the exact polynomial, with multiplicity, when
    it splits over Q, else None.  Candidates k/scale come from the float
    eigenvalues; each is confirmed by exact synthetic division."""
    remaining = list(monic)
    roots = []
    for cand in sorted({F(round(lam.real * scale), scale) for lam in float_eigs}):
        while len(remaining) > 1:
            quotient = [remaining[0]]
            for coeff in remaining[1:]:
                quotient.append(coeff + cand * quotient[-1])
            if quotient[-1] != 0:
                break
            roots.append(cand)
            remaining = quotient[:-1]
    return sorted(roots) if len(remaining) == 1 else None


@pytest.mark.parametrize("n", range(1, 17))
def test_integer_spectrum_matches_faddeev_leverrier_roots(n):
    from circulants import eigenvalues

    rng = np.random.default_rng(SEED + 100 + n)
    rows = [
        [int(v) for v in rng.integers(-3, 4, size=n)],
        mixed_row(rng, n, 9, (1, 2, 3, 7, 10)),
        galois_stable_row(n, divisor_values(rng, n))[0].coeffs,
        galois_stable_row(n, divisor_values(rng, n, (1, 2, 3)))[0].coeffs,
        [F(int(v), 2) for v in rng.integers(-3, 4, size=n)],
    ]
    for row in rows:
        c = rational_circ(row)
        float_eigs = eigenvalues(c.to_float()).as_array()
        scale = math.lcm(*(x.denominator for x in c.coeffs))
        roots = split_by_deflation(faddeev_leverrier_exact(c.to_exact_dense()), float_eigs, scale)
        for mode in ("rational", "integral"):
            got = integer_spectrum(c, mode=mode)
            want = roots
            if mode == "integral" and roots and any(r.denominator != 1 for r in roots):
                want = None
            if want is None:
                assert got is None
                continue
            assert sorted(got.values) == want
            assert all(abs(complex(v) - lam) <= 1e-9 for v, lam in zip(got.values, float_eigs))


def random_grid(rng, n, denominators):
    return [
        [F(int(rng.integers(-4, 5)), int(rng.choice(denominators))) for _ in range(n)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_new_matches_fraction_elimination(n):
    rng = np.random.default_rng(SEED + 200 + n)
    for denominators in ((1,), (1, 2, 3, 5), (7, 10)):
        for _ in range(10):
            grid = random_grid(rng, n, denominators)
            if exact_det(grid) == 0:
                with pytest.raises(DependentBasisError):
                    lattice_new(grid)
                continue
            basis = lattice_new(grid)
            assert basis.det == exact_det(grid)
            assert basis.inverse == exact_inverse(grid)
        if n > 1:
            singular = random_grid(rng, n, denominators)
            singular[-1] = [2 * a for a in singular[0]]
            assert exact_det(singular) == 0
            with pytest.raises(DependentBasisError):
                lattice_new(singular)


def row_scaled_grid(rng, n, exponent):
    """A grid whose rows have denominators of their own: row i draws them
    near 10^exponent times the i-th prime, so no two rows share a scale,
    and a zero leading entry forces a row swap now and then."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    grid = []
    for i in range(n):
        row = []
        for _ in range(n):
            p = int(rng.integers(-(10**6), 10**6)) * 10**exponent + int(rng.integers(0, 10**6))
            q = primes[i] * (10**exponent + int(rng.integers(1, 10**6)))
            row.append(F(p, q))
        grid.append(row)
    if rng.uniform() < 0.5:
        grid[0][0] = F(0)
    return grid


@pytest.mark.parametrize("n", (2, 3, 5, 8))
def test_lattice_new_clears_each_row_by_its_own_scale(n):
    # det divides by the product of the row scales and column c of the
    # inverse is multiplied by the scale of row c; a mix-up of rows and
    # columns, or of the two scales, shows as soon as the rows differ.
    rng = np.random.default_rng(SEED + 400 + n)
    for exponent in (0, 30):
        for _ in range(3):
            grid = row_scaled_grid(rng, n, exponent)
            basis = lattice_new(grid)
            assert basis.det == exact_det(grid)
            assert basis.inverse == exact_inverse(grid)
        singular = row_scaled_grid(rng, n, exponent)
        singular[-1] = [F(3, 7) * a for a in singular[0]]
        with pytest.raises(DependentBasisError):
            lattice_new(singular)


def dense_first_row_product(x, y):
    dx, dy = x.to_exact_dense(), y.to_exact_dense()
    return tuple(sum(dx[0][t] * dy[t][j] for t in range(x.n)) for j in range(x.n))


@pytest.mark.parametrize("n", range(1, 17))
def test_sum_product_and_decomposition_match_dense_fractions(n):
    rng = np.random.default_rng(SEED + 300 + n)
    for _ in range(5):
        x = rational_circ(mixed_row(rng, n, 9, (1, 2, 3, 7, 10)))
        y = rational_circ(mixed_row(rng, n, 9, (1, 4, 5)))
        assert (x + y).coeffs == tuple(a + b for a, b in zip(x.coeffs, y.coeffs))
        assert (x * y).coeffs == dense_first_row_product(x, y)
        assert all(type(v) is F for v in (x * y).coeffs + (x + y).coeffs)

        grid = random_grid(rng, n, (1, 2, 3))
        if exact_det(grid) == 0:
            continue
        inverse = exact_inverse(grid)
        basis = lattice_new(grid)
        for target in (x, rational_circ([int(v) for v in rng.integers(-5, 6, size=n)])):
            want = tuple(
                sum(target.coeffs[i] * inverse[i][j] for i in range(n)) for j in range(n)
            )
            solution = lattice_decompose(basis, target)
            assert solution.coefficients == want
            assert solution.member == all(a.denominator == 1 for a in want)


def test_empty_inputs_and_the_integer_spectrum_value():
    from circulants.errors import InvalidOrderError
    from circulants.lattice import IntegerSpectrum, RationalCirculant

    with pytest.raises(InvalidOrderError, match="^a circulant needs at least one coefficient$"):
        RationalCirculant(())
    with pytest.raises(InvalidOrderError, match="^empty spectrum$"):
        reconstruct_from_spectrum(())
    assert brandt_check([]) == brandt_check([], mode="rational") == BrandtVerdict(True)
    spectrum = integer_spectrum(rational_circ(2, 1, 1))
    assert (spectrum.n, spectrum.is_integral()) == (3, True)
    assert not IntegerSpectrum((F(1), F(1, 2))).is_integral()


@pytest.mark.parametrize("seed", range(6))
def test_cleared_grids_are_the_stored_grids_in_lowest_terms(seed):
    # lattice_new hands the basis its inverse as (lv, v) with lv > 0 and
    # gcd(lv, v) = 1, so that lv == 1 exactly when the inverse is integral.
    rng = np.random.default_rng(seed)
    n = 1 + seed % 4
    while True:
        rows = [[F(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(n)] for _ in range(n)]
        if exact_det(rows) != 0:
            break
    basis = lattice_new(rows)
    for (scale, flat), grid in ((basis.cleared_inverse, basis.inverse), (basis.cleared_rows, basis.rows)):
        entries = [x for row in grid for x in row]
        assert scale == math.lcm(*(x.denominator for x in entries)) > 0
        assert list(flat) == [x * scale for x in entries]
    assert basis_inverse_integral(basis)[0] == all(x.denominator == 1 for row in basis.inverse for x in row)


def fraction_row(rng, n):
    """n Fractions with denominators up to 12, some in non-lowest terms as
    given, so that the row's lcm and each entry's own reduction matter."""
    return [F(int(k), int(q)) for k, q in zip(rng.integers(-20, 21, n), rng.integers(1, 13, n))]


def test_values_store_cleared_integers_and_no_fraction_tuple():
    from circulants.lattice import LatticeBasis, RationalCirculant

    c = RationalCirculant((F(1, 2), F(-2, 3), 5))
    assert RationalCirculant.__slots__ == ("scale", "cleared") and not hasattr(c, "__dict__")
    assert (c.scale, c.cleared) == (6, (3, -4, 30))
    assert c.coeffs == (F(1, 2), F(-2, 3), F(5)) and all(type(x) is F for x in c.coeffs)
    assert c.is_integral() is False and RationalCirculant((F(4, 2), 3)).is_integral()

    basis = lattice_new(REFERENCE_ROWS)
    assert list(vars(basis)) == [f.name for f in dataclasses.fields(LatticeBasis)]
    assert vars(basis) == {
        "cleared_rows": (3, (0, -3, 3, -1, 1, 1, 1, 2, -1)),
        "det": basis.det,
        "cleared_inverse": (1, tuple(x for row in REFERENCE_INVERSE for x in row)),
    }
    assert basis.rows == tuple(tuple(F(x) for x in row) for row in REFERENCE_ROWS)
    assert basis.inverse == REFERENCE_INVERSE and basis.n == 3
    # Basis rows pass the same entry rule as any rational row.
    for bad in (0.5, "x", None):
        with pytest.raises(InvalidScalarError):
            lattice_new([[1, bad], [0, 1]])


@pytest.mark.parametrize("seed", range(4))
def test_views_equal_the_fractions_given(seed):
    rng = np.random.default_rng(SEED + 400 + seed)
    n = 1 + 3 * seed
    row = fraction_row(rng, n)
    assert rational_circ(row).coeffs == tuple(row)
    while True:
        grid = [fraction_row(rng, n) for _ in range(n)]
        if exact_det(grid) != 0:
            break
    basis = lattice_new(grid)
    assert basis.rows == tuple(map(tuple, grid))
    assert basis.inverse == tuple(map(tuple, exact_inverse(grid)))
    assert basis.det == exact_det(grid)


def test_equality_hash_and_pickling_follow_the_fraction_rows():
    import pickle

    from circulants.lattice import RationalCirculant

    spellings = (
        (F(2, 4), F(6, 3), 0),
        ("1/2", "4/2", "0/7"),
        (F(1, 2), 2, False),
        (F(1, 2), np.int64(2), F(0, 5)),
    )
    values = [RationalCirculant(row) for row in spellings]
    for v in values:
        assert v == values[0] and hash(v) == hash(values[0])
        assert repr(v) == "RationalCirculant(coeffs=(Fraction(1, 2), Fraction(2, 1), Fraction(0, 1)))"
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v) and (back.scale, back.cleared) == (2, (1, 4, 0))
    # Integer input against Fraction input, and rows that differ.
    assert RationalCirculant((1, 2)) == RationalCirculant((F(1), F(4, 2)))
    assert hash(RationalCirculant((1, 2))) == hash(RationalCirculant((F(1), F(4, 2))))
    assert RationalCirculant((F(1, 2), F(1, 2))) != RationalCirculant((1, 1))
    assert RationalCirculant((F(1, 2), 1)) != RationalCirculant((F(1, 2), 1, 0))
    assert RationalCirculant((1, 2)) != (1, 2)

    halves = [[F(2, 4), 0], [0, F(3, 1)]]
    same = [["1/2", 0], [F(0, 3), 3]]
    basis = lattice_new(halves)
    assert basis == lattice_new(same) and hash(basis) == hash(lattice_new(same))
    assert basis != lattice_new([[1, 0], [0, 3]])
    back = pickle.loads(pickle.dumps(basis))
    assert back == basis and hash(back) == hash(basis) and repr(back) == repr(basis)
    assert repr(basis) == (
        "LatticeBasis(rows=((Fraction(1, 2), Fraction(0, 1)), (Fraction(0, 1), Fraction(3, 1))), "
        "det=Fraction(3, 2), inverse=((Fraction(2, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 3))))"
    )


def test_pickling_reads_the_stored_integers_not_the_fraction_view(monkeypatch):
    # Dumping and loading leave the `coeffs` view and the clearing alone,
    # so a row of many distinct large denominators pickles in time linear
    # in its stored size.
    import pickle

    from circulants.lattice import RationalCirculant

    denominators = [10**400 + 2 * k + 1 for k in range(16)]
    value = RationalCirculant([F(k + 1, d) for k, d in enumerate(denominators)])

    def refuse(self):
        raise AssertionError("the Fraction view was read")

    monkeypatch.setattr(RationalCirculant, "coeffs", property(refuse))
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is RationalCirculant
    assert (back.scale, back.cleared) == (value.scale, value.cleared) and back == value
    assert hash(back) == hash(value)
    monkeypatch.undo()
    # A pickle written when values pickled through the constructor still loads.
    old = (
        b"\x80\x02ccirculants.lattice\nRationalCirculant\nq\x00cfractions\nFraction\nq\x01"
        b"K\x01K\x02\x86q\x02Rq\x03h\x01K\x02K\x01\x86q\x04Rq\x05h\x01K\x00K\x01\x86q\x06Rq\x07"
        b"\x87q\x08\x85q\tRq\n."
    )
    assert pickle.loads(old) == RationalCirculant((F(1, 2), 2, 0))


@pytest.mark.parametrize("n", range(1, 65))
def test_sum_product_and_decomposition_match_fraction_arithmetic(n):
    # The reference works on the Fractions given, entry by entry, never on
    # a stored row: sums, the O(n^2) cyclic convolution, and coefficients
    # that recombine the basis rows into the target.
    rng = np.random.default_rng(SEED + 500 + n)
    a, b = fraction_row(rng, n), fraction_row(rng, n)
    x, y = rational_circ(a), rational_circ(b)
    assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
    assert (x * y).coeffs == tuple(sum(a[i] * b[(j - i) % n] for i in range(n)) for j in range(n))
    assert (x + y) == rational_circ(tuple(p + q for p, q in zip(a, b)))
    grid = _unimodular_like(rng, n)
    basis = lattice_new(grid)
    for target in (a, [int(v) for v in rng.integers(-5, 6, n)]):
        solution = lattice_decompose(basis, rational_circ(target))
        assert all(type(v) is F for v in solution.coefficients)
        recombined = [sum(m * row[j] for m, row in zip(solution.coefficients, grid)) for j in range(n)]
        assert recombined == list(target)
        assert solution.member == all(v.denominator == 1 for v in solution.coefficients)


def _unimodular_like(rng, n):
    """An invertible n x n grid: the identity with a random strictly upper
    triangle of small Fractions, rows then shuffled."""
    grid = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = F(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
    return [grid[k] for k in rng.permutation(n)]


def test_exact_cost_reads_the_one_norm_and_the_scale_of_the_cleared_row():
    from circulants.lattice import RationalCirculant, _exact_cost

    def model(n, a, b):
        return math.sqrt(n) * (n * n * max(1, a)) ** math.log2(3) + n**3 * b * b / 30

    # L = 6 and L c = (3, -2, 12): 1-norm 17, of 5 bits, and L of 3.
    assert _exact_cost(rational_circ(F(1, 2), F(-1, 3), 2)) == model(3, 5, 8)
    assert _exact_cost(rational_circ(16, 0, 0)) == _exact_cost(rational_circ(8, 8, 0)) == model(3, 5, 6)
    # The zero row still pays for its order.
    assert _exact_cost(rational_circ([0] * 40)) == model(40, 0, 1) == model(40, 1, 1)
    assert _exact_cost(rational_circ([1] + [0] * 39)) == model(40, 1, 2)
    # The forms of (1/D, 0, ..., 0) are C(n, i) / D^i: L c is the identity
    # row, but L counts, and at order 256 with D of 4299 digits the forms
    # would be about 1.4e8 decimal digits.
    wide = [F(1, 10**4298)] + [F(0)] * 255
    assert _exact_cost(RationalCirculant(wide)) == model(256, 1, 1 + (10**4298).bit_length()) > 1e14


def test_least_exact_cost_is_a_lower_bound_read_off_the_parts():
    from circulants.lattice import RationalCirculant, _exact_cost, _least_exact_costs

    def _least_exact_cost(row):
        return max(_least_exact_costs(row))

    rng = np.random.default_rng(0x5EED)
    for n in (1, 2, 5, 16, 64):
        for top in (2, 10**6, 10**18):
            row = [F(int(rng.integers(-top, top)), int(rng.integers(1, top))) for _ in range(n)]
            assert _least_exact_cost(row) <= _exact_cost(RationalCirculant(row))
    # Equal where one entry holds the 1-norm of L c and L is its
    # denominator; ints have parts too.
    row = [F(7, 9), F(0), F(0)]
    assert _least_exact_cost(row) == _exact_cost(RationalCirculant(row))
    assert _least_exact_cost([2, 1, 0]) == _exact_cost(rational_circ(2, 1, 0))


def cleared_bits(grid) -> int:
    """R of `lattice._SOLVE_COST_MODEL`: the bits of the largest entry of
    each row cleared by the lcm of its denominators, summed over rows."""
    total = 0
    for row in grid:
        scale = math.lcm(*(x.denominator for x in row))
        total += max(abs(x.numerator) * (scale // x.denominator) for x in row).bit_length()
    return total


def test_least_solve_cost_is_a_lower_bound_read_off_the_parts():
    from circulants.lattice import _least_solve_costs, _solve_cost

    def _least_solve_cost(grid):
        return max(_least_solve_costs(grid))

    rng = np.random.default_rng(0x5EED)
    for n in (1, 2, 5, 12):
        for top in (2, 100, 10**6, 10**18):
            grid = [
                [F(int(rng.integers(-top, top)) * int(rng.integers(0, 2)), int(rng.integers(1, top))) for _ in range(n)]
                for _ in range(n)
            ]
            assert _least_solve_cost(grid) <= _solve_cost(n, cleared_bits(grid))
    # Equal on integer grids.
    grid = [[F(7), F(0)], [F(0), F(-3)]]
    assert _least_solve_cost(grid) == _solve_cost(2, cleared_bits(grid)) == _solve_cost(2, 3 + 2)
    # Row (1, 1/6) clears by 6 to (6, 1), of 3 bits, and its parts show at
    # least bits(1) + bits(6) - bits(1) - 1 = 2; row (1/2, 1/3) clears to
    # (3, 2), of 2 bits, and its parts show only bits(1) = 1.
    grid = [[F(1), F(1, 6)], [F(1, 2), F(1, 3)]]
    assert cleared_bits(grid) == 5
    assert _least_solve_cost(grid) == _solve_cost(2, 2 + 1)


def test_least_target_costs_grow_to_the_model_of_the_cleared_target():
    from circulants.lattice import RationalCirculant, _least_target_costs

    rng = np.random.default_rng(0x5EED)
    for n in (1, 3, 16):
        for top in (2, 10**6, 10**18):
            row = [F(int(rng.integers(-top, top)), int(rng.integers(1, top))) for _ in range(n)]
            costs = list(_least_target_costs(row))
            assert costs == sorted(costs)
            assert costs[-1] == n * RationalCirculant(row).scale.bit_length() ** 2 / 3


def test_least_solve_cost_stops_building_the_lcm_past_the_bound(monkeypatch):
    # Each row of distinct 4300-digit denominators would clear by an lcm of
    # about 570 000 bits; the bound is passed after the first few.
    from circulants import lattice

    seen = []
    scales = lattice._scales

    def counted(denominators):
        for scale in scales(denominators):
            seen.append(scale)
            yield scale

    rng = np.random.default_rng(7)
    grid = [[F(1, 10**4299 + int(rng.integers(1, 10**18))) for _ in range(40)] for _ in range(40)]
    monkeypatch.setattr(lattice, "_scales", counted)
    with pytest.raises(DocumentError, match="^entries: the cost of exact elimination is more than"):
        lattice.bounded_solve(grid, [F(0)] * 40)
    assert len(seen) < 40
