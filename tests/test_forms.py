import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from circulants import (
    Circulant,
    InvalidScalarError,
    SingularMatrixError,
    char_poly,
    circ,
    conjugate,
    eigenvalues,
    forms,
    from_spectrum,
    identity,
    inverse,
    is_invertible,
    mul_naive,
    symmetric_tables,
)
from circulants import spectral
from circulants.oracle import closed_forms_n3, closed_forms_n4, faddeev_leverrier
from circulants.spectral import InvertibilityVerdict, Spectrum, forms_of_spectrum
from circulants.verify import random_circulant

SEED = 0x5EED


def brute_elementary(lams):
    """Independent oracle: s_k as explicit sums over k-subsets."""
    n = len(lams)
    out = [1 + 0j]
    for k in range(1, n + 1):
        out.append(sum(math.prod(sub) for sub in itertools.combinations(lams, k)))
    return out


def test_symmetric_tables_allones():
    tables = symmetric_tables(Spectrum((1, 1, 1)))
    assert tables.power_sums == pytest.approx((3, 3, 3), abs=1e-12)
    assert tables.elementary == pytest.approx((1, 3, 3, 1), abs=1e-12)


def test_symmetric_tables_complex_example():
    lams = (6, -1.5 - 0.8660254037844386j, -1.5 + 0.8660254037844386j)
    tables = symmetric_tables(Spectrum(lams))
    expected = brute_elementary(lams)
    assert tables.elementary == pytest.approx(expected, abs=1e-9)
    assert tables.elementary[1] == pytest.approx(3, abs=1e-9)
    assert tables.elementary[2] == pytest.approx(-15, abs=1e-9)
    assert tables.elementary[3] == pytest.approx(18, abs=1e-9)


def test_symmetric_tables_quartic_example():
    lams = (2, 1 + 1j, 0, 1 - 1j)
    tables = symmetric_tables(Spectrum(lams))
    assert tables.elementary == pytest.approx((1, 4, 6, 4, 0), abs=1e-12)
    assert tables.elementary == pytest.approx(brute_elementary(lams), abs=1e-12)


def test_elementary_values_against_brute_force():
    rng = np.random.default_rng(SEED)
    for n in range(1, 9):
        lams = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, size=(n, 2)))
        got = symmetric_tables(Spectrum(lams)).elementary
        assert got == pytest.approx(brute_elementary(lams), abs=1e-10)


def test_forms_examples():
    assert forms(circ(1, 2, 3)).q == pytest.approx((3, -15, 18), abs=1e-9)
    assert forms(circ(1, 1, 0, 0)).q == pytest.approx((4, 6, 4, 0), abs=1e-9)
    for n in (1, 2, 5, 8):
        expected = tuple(math.comb(n, i) for i in range(1, n + 1))
        assert forms(identity(n)).q == pytest.approx(expected, abs=1e-9)


def test_trace_and_norm_forms():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 7, 12):
        c = random_circulant(rng, n)
        q = forms(c)
        assert q.trace_form == pytest.approx(n * c.coeffs[0], abs=1e-9 * (1 + c.norm_inf()))
        det = np.linalg.det(c.to_dense())
        assert q.norm_form == pytest.approx(det, abs=1e-8 * (1 + c.norm_inf()) ** n)


def test_closed_forms_match_production_path():
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        c3 = random_circulant(rng, 3)
        assert forms(c3).q == pytest.approx(closed_forms_n3(c3.coeffs), abs=1e-10)
        c4 = random_circulant(rng, 4)
        assert forms(c4).q == pytest.approx(closed_forms_n4(c4.coeffs), abs=1e-10)


def test_char_poly_examples():
    assert char_poly(circ(1, 2, 3)) == pytest.approx((1, -3, -15, -18), abs=1e-9)
    assert char_poly(identity(2)) == pytest.approx((1, -2, 1), abs=1e-12)
    assert char_poly(circ(0, 1)) == pytest.approx((1, 0, -1), abs=1e-12)


def test_char_poly_matches_trace_recurrence_oracle():
    rng = np.random.default_rng(SEED)
    for n in range(1, 13):
        c = random_circulant(rng, n)
        mine = np.asarray(char_poly(c))
        oracle = np.asarray(faddeev_leverrier(c.to_dense()))
        assert np.max(np.abs(mine - oracle)) <= 1e-8 * (1.0 + c.norm_inf()) ** n


def test_conjugate_examples():
    assert conjugate(circ(1, 2, 3)).coeffs == pytest.approx((-5, 7, 1), abs=1e-9)
    assert conjugate(identity(3)).coeffs == pytest.approx((1, 0, 0), abs=1e-9)


def test_conjugate_times_self_is_norm_form():
    # x * conj(x) = q_n(x) * 1; for the singular circ(1,1,0,0) that is zero.
    c = circ(1, 1, 0, 0)
    product = mul_naive(c, conjugate(c))
    assert max(abs(z) for z in product.coeffs) <= 1e-9
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 6, 9):
        x = random_circulant(rng, n)
        product = mul_naive(x, conjugate(x))
        qn = forms(x).norm_form
        expected = (qn,) + (0j,) * (n - 1)
        scale = (1.0 + x.norm_inf()) ** n
        assert product.coeffs == pytest.approx(expected, abs=1e-9 * scale)


def test_conjugate_against_dense_adjugate_oracle():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 4, 6):
        x = random_circulant(rng, n)
        dense = x.to_dense()
        adjugate = np.linalg.inv(dense) * np.linalg.det(dense)
        got = conjugate(x).to_dense()
        assert np.max(np.abs(got - adjugate)) <= 1e-8 * (1.0 + x.norm_inf()) ** n


def test_inverse_examples():
    inv = inverse(circ(1, 2, 3))
    assert inv.coeffs == pytest.approx((-5 / 18, 7 / 18, 1 / 18), abs=1e-12)
    assert inverse(identity(4)).coeffs == pytest.approx((1, 0, 0, 0), abs=1e-12)
    with pytest.raises(SingularMatrixError) as err:
        inverse(circ(1, 1, 0, 0))
    assert err.value.witness == 3


def test_conjugate_and_inverse_pass_their_computed_spectra_as_results(monkeypatch):
    # The spectrum each one computes goes to the transform through
    # `core._result`, never through the entry rule `_entries` for outside
    # input, and gives the bits of that outside-input path.
    from circulants import core

    rng = np.random.default_rng(SEED)
    values = [random_circulant(rng, n) + 3 * identity(n) for n in (1, 2, 5, 12, 97, 256)]
    expected = []
    for x in values:
        lam = eigenvalues(x).array
        mu = [np.prod(np.delete(lam, j)) for j in range(x.n)]
        expected.append((from_spectrum(tuple(1.0 / lam)), from_spectrum(tuple(mu))))

    def refuse(values):
        raise AssertionError("a computed spectrum went through the entry rule")

    monkeypatch.setattr(core, "_entries", refuse)
    for x, (inv, conj) in zip(values, expected):
        assert np.array_equal(inverse(x).array, inv.array)
        scale = float(np.abs(conj.array).max())
        assert np.max(np.abs(conjugate(x).array - conj.array)) <= 1e-12 * scale


def test_inverse_times_self_is_identity():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 5, 8):
        x = random_circulant(rng, n) + 3 * identity(n)
        inv = inverse(x)
        product = mul_naive(x, inv)
        scale = 1.0 + x.norm_inf() * inv.norm_inf()
        assert product.coeffs == pytest.approx(identity(n).coeffs, abs=1e-9 * scale)


def test_is_invertible_witnesses():
    verdict = is_invertible(circ(1, 1, 1))
    assert not verdict.invertible and verdict.witness == 2
    assert is_invertible(circ(1, 2, 3)).invertible
    verdict = is_invertible(circ(1, 1, 0, 0))
    assert not verdict.invertible and verdict.witness == 3


def test_witness_slot_is_a_vanishing_root_of_unity():
    verdict = is_invertible(circ(1, 1, 0, 0))
    lam = eigenvalues(circ(1, 1, 0, 0)).values
    assert abs(lam[verdict.witness - 1]) <= 1e-12


def test_cayley_hamilton_at_element_level():
    rng = np.random.default_rng(SEED)
    for n in range(1, 11):
        for _ in range(20):
            x = random_circulant(rng, n)
            monic = char_poly(x)
            acc = monic[0] * identity(n)
            for coeff in monic[1:]:
                acc = mul_naive(acc, x) + coeff * identity(n)
            bound = 1e-8 * (1.0 + x.norm_inf()) ** n
            assert max(abs(z) for z in acc.coeffs) <= bound


def test_trace_of_conjugate_is_second_highest_form():
    rng = np.random.default_rng(SEED)
    for n in range(2, 11):
        for _ in range(20):
            x = random_circulant(rng, n)
            lhs = forms(conjugate(x)).q[0]
            rhs = forms(x).q[n - 2]
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


def test_q2_sum_identity():
    rng = np.random.default_rng(SEED)
    for n in range(2, 11):
        for _ in range(20):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            qx, qy = forms(x).q, forms(y).q
            lhs = forms(x + y).q[1]
            rhs = qx[1] + qy[1] + qx[0] * qy[0] - forms(mul_naive(x, y)).q[0]
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


def test_real_input_gives_real_forms():
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 4, 7):
        c = circ(*(float(v) for v in rng.uniform(-1, 1, size=n)))
        assert all(abs(q.imag) <= 1e-9 for q in forms(c).q)


LARGE_ORDERS = (128, 1024, 4093)


def spectral_circulant(rng, n, zero_slot=None):
    """Circulant whose eigenvalue moduli lie in [1, 8] (cond <= 8), or
    with lambda at the 1-based zero_slot set to 0."""
    lam = rng.uniform(1.0, 8.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    if zero_slot is not None:
        lam[zero_slot - 1] = 0.0
    return from_spectrum(tuple(lam.tolist()))


@pytest.mark.parametrize("n", (32, 64, 128, 256, 512, 640))
def test_char_poly_at_large_order_matches_exact_polynomial(n):
    # circ(2, 1, 0, ..., 0) = 2I + P has eigenvalues 2 + omega^k, so its
    # characteristic polynomial is (X - 2)^n - 1.
    got = np.asarray(char_poly(circ(2, 1, *([0] * (n - 2)))))
    exact = [math.comb(n, i) * (-2) ** i for i in range(n + 1)]
    exact[-1] -= 1
    abs_lam = np.abs(2.0 + np.exp(2j * np.pi * np.arange(n) / n))
    scale = np.abs(np.poly(abs_lam))  # e_i(|lambda|)
    assert np.all(np.abs(got - np.array(exact, dtype=float)) <= 1e-12 * scale)


@pytest.mark.parametrize("n", LARGE_ORDERS)
def test_inverse_at_large_order(n):
    x = spectral_circulant(np.random.default_rng(SEED + n), n)
    assert (x * inverse(x) - identity(n)).norm_inf() <= 1e-12


@pytest.mark.parametrize("n", LARGE_ORDERS)
def test_single_zero_eigenvalue_is_witnessed_at_large_order(n):
    rng = np.random.default_rng(SEED + n)
    slot = int(rng.integers(1, n + 1))
    x = spectral_circulant(rng, n, zero_slot=slot)
    verdict = is_invertible(x)
    assert not verdict.invertible and verdict.witness == slot
    with pytest.raises(SingularMatrixError) as err:
        inverse(x)
    assert err.value.witness == slot and f"j={slot}" in str(err.value)


def test_verdict_beyond_float_range_determinant_warns_nothing():
    # Eigenvalues 427 and 299 (127 times): well conditioned, but the
    # determinant 427 * 299^127 is beyond the float range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = is_invertible(circ(300, *([1] * 127)))
    assert verdict.invertible and verdict.witness is None
    assert not np.isfinite(verdict.norm_form)


def test_conjugate_of_singular_input_is_the_forms_polynomial():
    # conj(x) = sum_{i=0..n-1} (-1)^(n+1-i) q_i(x) x^(n-1-i), q_0 = 1.
    rng = np.random.default_rng(SEED)
    inputs = [circ(1, 1, 0, 0), circ(1, 1, 1), circ(1, -1, 1, -1)]
    for n in range(1, 11):
        for _ in range(10):
            lam = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            lam[rng.integers(n)] = 0.0
            inputs.append(from_spectrum(tuple(lam.tolist())))
    for x in inputs:
        n = x.n
        q = (1.0,) + forms(x).q
        poly = 0 * identity(n)
        for i in range(n):
            poly = mul_naive(poly, x) + ((-1) ** (n + 1 - i) * q[i]) * identity(n)
        assert conjugate(x).coeffs == pytest.approx(poly.coeffs, abs=1e-10)


def test_forms_beyond_float_range_raise():
    # Eigenvalues 427 and 299 (127 times): q_127 and q_128 are about 1e316.
    x = circ(300, *([1] * 127))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (forms, char_poly):
            with pytest.raises(InvalidScalarError, match="float range"):
                call(x)


def test_forms_of_eigenvalues_whose_modulus_leaves_the_float_range_raise():
    # Both eigenvalues are 1e308 + 1.7e308 i: finite parts, but a modulus
    # of about 1.97e308, on which Python's abs raises OverflowError.
    x = circ(1e308 + 1.7e308j, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (forms, char_poly):
            with pytest.raises(InvalidScalarError, match="float range"):
                call(x)


def test_forms_at_order_1_count_the_parts_of_the_modulus():
    # q_1 = 1e308 + 1.7e308 i is representable, although its modulus is not.
    z = 1e308 + 1.7e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert forms(circ(z)).q == (z,)
        assert char_poly(circ(z)) == (1, -z)


@pytest.mark.parametrize("threshold", (-1.0, float("nan")))
def test_negative_or_nan_threshold_rejected(threshold):
    x = circ(1, 1, 0, 0)
    for call in (is_invertible, inverse):
        with pytest.raises(InvalidScalarError, match="threshold"):
            call(x, threshold)


def test_zero_threshold_still_finds_exact_zero_eigenvalue():
    x = circ(1, 1, 0, 0)  # eigenvalues 2, 1 + i, 0, 1 - i
    assert eigenvalues(x).values[2] == 0
    verdict = is_invertible(x, 0.0)
    assert not verdict.invertible and verdict.witness == 3
    with pytest.raises(SingularMatrixError):
        inverse(x, 0.0)
    assert is_invertible(circ(2, 1, 0, 0), 0.0).invertible


def test_symmetric_tables_raise_instead_of_returning_non_finite_sums():
    # The default fixture at n = 256: 49 power sums leave the float range.
    x = random_circulant(np.random.default_rng(SEED), 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidScalarError, match="float range"):
            symmetric_tables(eigenvalues(x))


def test_forms_beyond_float_range_raise_before_the_expansion(monkeypatch):
    # Random rows at n = 4096: q_n = prod lambda_j is far past the float range.
    def expansion(_):
        raise AssertionError("the expansion reached")

    monkeypatch.setattr(spectral, "_expand", expansion)
    x = random_circulant(np.random.default_rng(1), 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (forms, char_poly):
            with pytest.raises(InvalidScalarError, match="float range"):
                call(x)
    # A zero eigenvalue sends the log-sum to -inf, which is no reason to raise.
    with pytest.raises(AssertionError, match="the expansion"):
        forms(circ(1, 1, 0, 0))


def scaled_identity_residual(x, inv) -> float:
    """max_k |(x 2^-e) * (x^-1 2^e) - I| in coefficients, with 2^e the
    scale of x's largest part: power-of-two scaling is exact and keeps
    both transforms inside the float range."""
    e = np.frexp(np.max(np.abs(x.array.view(float))))[1]
    xs = np.ldexp(x.array.view(float), -e).view(complex)
    ys = np.ldexp(inv.array.view(float), e).view(complex)
    product = np.fft.ifft(np.fft.fft(xs) * np.fft.fft(ys))
    return float(np.max(np.abs(product - np.eye(x.n)[0])))


def test_inverse_of_eigenvalues_beyond_the_reciprocal_range():
    # Eigenvalues 1e308 (1 + i) and 1e308 (1 - i): a plain complex
    # reciprocal overflows its denominator and returns 0.
    x = circ(1e308, 1e308j)
    inv = inverse(x)
    assert inv.coeffs == pytest.approx((5e-309, -5e-309j), rel=1e-12)
    assert scaled_identity_residual(x, inv) <= 1e-15


def test_verdict_on_moduli_past_the_float_maximum():
    # Both eigenvalues are 1.5e308 (1 + i): finite parts, but a modulus of
    # about 2.1e308, so the default threshold 1e-10 max |lambda| is taken
    # on a power-of-two scale instead of being inf.
    x = circ(1.5e308 + 1.5e308j, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = is_invertible(x)
        inv = inverse(x)
    assert verdict.invertible and verdict.witness is None
    assert verdict.threshold == pytest.approx(1.5e298 * math.sqrt(2), rel=1e-15)
    assert scaled_identity_residual(x, inv) <= 1e-15
    # Eigenvalues 1.5e308 (1 + i) and 0 on the same scale: still singular.
    half = 0.75e308 + 0.75e308j
    verdict = is_invertible(circ(half, half))
    assert not verdict.invertible and verdict.witness == 2
    with pytest.raises(SingularMatrixError, match="j=2"):
        inverse(circ(half, half))


@pytest.mark.parametrize("exponent", (-1000, 0, 1000))
@pytest.mark.parametrize("n", (8, 16, 64, 128))
def test_inverse_on_a_power_of_two_scale(n, exponent):
    # The invertible input classes of the forms-inverse benchmark:
    # eigenvalue moduli in [1, 8], and small integers, scaled by
    # 2^exponent; then a row whose eigenvalues' real and imaginary parts
    # reach 1.35e308, where a plain reciprocal returns 0.
    rng = np.random.default_rng(SEED + n)
    integers = rng.integers(-3, 4, n)
    integers[0] = 4 * n  # diagonally dominant, so invertible
    rows = [
        np.ldexp(row.view(float), exponent).view(complex)
        for row in (spectral_circulant(rng, n).array, integers.astype(complex))
    ]
    rows.append(1e308 * (1 + 1j) * np.eye(n)[0] + 0.25e308 * (1 + 1j) * np.eye(n)[1])
    for row in rows:
        x = Circulant(row)
        lam = eigenvalues(x).array
        mag = np.abs(lam)
        inv = inverse(x)
        assert scaled_identity_residual(x, inv) <= 1e-14 * n * mag.max() / mag.min()
        if exponent == 0 and row is not rows[-1]:
            # In the normal range the scaled reciprocal is the plain one, bit for bit.
            assert inv.array.tobytes() == from_spectrum(1.0 / lam).array.tobytes()


@pytest.mark.parametrize(
    "row",
    (
        # Moduli just below 2^-1021 and above 2^1021 take the power-of-two
        # scale, yet on these rows the plain reciprocal neither overflows
        # nor underflows, not even in an intermediate.
        [2.0**-1022 * (1.5 + 1.25j)],
        [2.0**-1022 * (-1.25 - 1.5j)],
        [2.0**1021 * 1.5, 2.0**1021 * 0.25],
        [2.0**1021 * -1.75, 2.0**1021 * 0.5],
    ),
)
def test_scaled_reciprocal_is_the_plain_one_where_both_are_exact(row):
    x = Circulant(row)
    lam = eigenvalues(x).array
    assert inverse(x).array.tobytes() == from_spectrum(1.0 / lam).array.tobytes()


def test_forms_vector_order():
    assert forms(circ(1, 2, 3)).n == 3


def exact_expansion(lam):
    """prod_j (X + lambda_j) in descending powers, in Fractions from the
    float parts, and e_i(|lambda|) from the float moduli, as pairs
    (real, imag) and Fractions."""
    s = [(Fraction(1), Fraction(0))]
    e = [Fraction(1)]
    for z in lam:
        zr, zi, m = Fraction(z.real), Fraction(z.imag), Fraction(abs(z))
        s = [s[0]] + [
            (a[0] + zr * b[0] - zi * b[1], a[1] + zr * b[1] + zi * b[0])
            for a, b in zip(s[1:] + [(Fraction(0), Fraction(0))], s)
        ]
        e = [e[0]] + [a + m * b for a, b in zip(e[1:] + [Fraction(0)], e)]
    return s, e


@pytest.mark.parametrize("n", (1, 2, 15, 16, 17, 31, 32, 33, 64))
def test_block_expansion_within_its_error_bound_of_the_exact_product(n):
    # The classic bound of the expansion, n eps e_i(|lambda|) (Higham,
    # Accuracy and Stability of Numerical Algorithms), for every form, on
    # moduli in [1, 8] at orders on both sides of the block boundaries.
    rng = np.random.default_rng(SEED + n)
    for _ in range(3):
        lam = rng.uniform(1.0, 8.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        got = forms_of_spectrum(Spectrum(tuple(lam.tolist()))).q
        exact, e = exact_expansion(lam.tolist())
        for i in range(1, n + 1):
            re, im = exact[i]
            err = math.hypot(float(Fraction(got[i - 1].real) - re), float(Fraction(got[i - 1].imag) - im))
            assert err <= n * sys.float_info.epsilon * float(e[i])


@pytest.mark.parametrize("n", (13, 17, 37))
def test_real_row_across_a_block_boundary_gives_forms_with_imaginary_parts_plus_zero(n):
    # Two, two and four blocks.  At these prime orders numpy's transform of
    # a real row is closed under conjugation to the last bit, which the
    # rule needs; at composite orders such as 33 it is not.
    row = np.random.default_rng(SEED + n).uniform(-1.0, 1.0, n)
    x = Circulant(row)
    lam = eigenvalues(x).array
    assert np.array_equal(np.sort(lam), np.sort(lam.conj()))
    for values in (forms(x).q, char_poly(x)):
        assert all(z.imag == 0.0 and math.copysign(1.0, z.imag) == 1.0 for z in values)


def test_a_form_past_the_float_range_inside_the_expansion_raises(monkeypatch):
    # e_2 is about 1e400 while q_n = 1: the log-norm check lets it through
    # and the expansion, over two blocks, overflows.
    n = spectral._BLOCK + 8
    lam = (1e200, 1e200, 1e-200, 1e-200) + (1.0,) * (n - 4)
    expand, reached = spectral._expand, []

    def expansion(values):
        reached.append(values.size)
        return expand(values)

    monkeypatch.setattr(spectral, "_expand", expansion)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidScalarError, match="float range"):
            forms_of_spectrum(Spectrum(lam))
    assert reached == [n]


# The refusals of the spectral calls, with their exact types and messages:
# (row, call, the result or (type, message)).
REFUSALS = (
    # The spectrum itself leaves the float range.
    ((1e308,) * 4, inverse, (InvalidScalarError, "non-finite entry (inf+0j) at index 0")),
    ((1e308,) * 4, conjugate, (InvalidScalarError, "non-finite entry (inf+0j) at index 0")),
    ((1e308,) * 4, is_invertible, (InvalidScalarError, "non-finite entry (inf+0j) at index 0")),
    # 1 / 1e-320 leaves the float range; the conjugate and the verdict do not.
    ((1e-320, 0), inverse, (InvalidScalarError, "non-finite entry (inf+0j) at index 0")),
    ((1e-320, 0), conjugate, circ(1e-320, 0)),
    ((1e-320, 0), is_invertible, None),
    # 1 / 5.88e-309 is finite, the transform of the reciprocals is not.
    ((5.88e-309, 0), inverse, (InvalidScalarError, "non-finite entry (inf+0j) at index 0")),
    # The adjugate spectrum prod_{k != j} lambda_k is about 427 * 299^126.
    ((300,) + (1,) * 127, conjugate, (InvalidScalarError, "non-finite entry (nan+nanj) at index 0")),
    # A singular row.
    (
        (1, 1, 0, 0),
        inverse,
        (
            SingularMatrixError,
            "numerically singular circulant: |lambda_j|=0.000e+00 <= 2.000e-10 at root-of-unity slot j=3",
        ),
    ),
    ((1, 1, 0, 0), conjugate, circ(1, -1, 1, -1)),
    ((1, 1, 0, 0), is_invertible, InvertibilityVerdict(False, 3, 0j, 2e-10)),
)


@pytest.mark.parametrize("row, call, want", REFUSALS)
def test_refusals_keep_their_type_and_message(row, call, want):
    x = circ(*row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, tuple):
            with pytest.raises(want[0]) as err:
                call(x)
            assert type(err.value) is want[0] and str(err.value) == want[1]
        elif want is None:
            verdict = call(x)
            assert verdict.invertible and verdict.witness is None
        else:
            assert call(x) == want


def plus_zero(z: complex) -> bool:
    return z.imag == 0.0 and math.copysign(1.0, z.imag) == 1.0


@pytest.mark.parametrize("n", (24, 25, 33, 36, 48, 64))
def test_real_row_at_a_composite_order_gives_real_forms(n):
    # numpy's transform of these real rows is not closed under conjugation
    # to the last bit, so realness is read off the row.  The real parts
    # keep the expansion's bound n eps e_i(|lambda|) against the exact
    # product of the computed spectrum.
    from circulants.twisted import mu_circ, mu_forms

    row = np.random.default_rng(SEED + n).uniform(-1.0, 1.0, n)
    x = Circulant(row)
    lam = eigenvalues(x).array
    assert not np.array_equal(np.sort(lam), np.sort(lam.conj()))
    q = forms(x).q
    trivial = mu_circ(tuple(row), (1.0,) * (n - 1))
    assert mu_forms(trivial).q == q
    poly = char_poly(x)
    assert all(map(plus_zero, q + poly))
    assert poly == (1.0,) + tuple(0.0 - z if i % 2 == 0 else z for i, z in enumerate(q))
    exact, e = exact_expansion(lam.tolist())
    for i in range(1, n + 1):
        err = abs(float(Fraction(q[i - 1].real) - exact[i][0]))
        assert err <= n * sys.float_info.epsilon * float(e[i])


def test_a_complex_row_with_a_spectrum_closed_only_as_a_multiset_keeps_its_imaginary_parts():
    # The spectrum (a, b, conj(a), conj(b)) is closed under conjugation as a
    # multiset, but the row is complex, so `forms` leaves the expansion's
    # imaginary parts as they come; only `forms_of_spectrum`, which sees
    # no row, still takes the spectrum as real.
    x = circ(0.2, 0.1 + 0.35j, -0.09999999999999999, -0.1 + 0.35j)
    lam = eigenvalues(x).array
    assert np.array_equal(np.sort(lam), np.sort(lam.conj()))
    assert all(map(plus_zero, forms_of_spectrum(eigenvalues(x)).q))
    assert not all(z.imag == 0.0 for z in forms(x).q)
    assert not all(z.imag == 0.0 for z in char_poly(x))
