"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single PASS line on success (visible with `pytest -s`);
`pytest -v` shows one pass/fail line per criterion either way.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

import circulants.bench as bench_mod
from circulants import (
    antipode,
    brandt_check,
    char_poly,
    circ,
    comultiplication,
    conjugate,
    delta_spectrum,
    eigenvalues,
    eigenvector_matrix,
    fast_mul,
    forms,
    identity,
    integer_spectrum,
    inverse,
    is_invertible,
    lattice_decompose,
    lattice_new,
    mu_eigen,
    mu_to_dense,
    mul_naive,
    rational_circ,
    reconstruct_from_spectrum,
    skew_circ,
    skew_root,
    verify_antipode_axiom,
    verify_counit_axiom,
)
from circulants.bench import BenchDisagreementError, run_bench
from circulants.lattice import basis_inverse_integral
from circulants.oracle import closed_forms_n3, closed_forms_n4, greedy_multiset_match
from circulants.verify import random_circulant

SEED = 0x5EED


def _passed(number, detail):
    print(f"criterion {number:2d}: PASS ({detail})")


def test_c01_isomorphism_suite():
    started = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst_dense = worst_fast = 0.0
    for n in (2, 3, 4, 5, 8, 16, 32):
        for _ in range(200):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            product = mul_naive(x, y)
            dev = np.max(np.abs(product.to_dense() - x.to_dense() @ y.to_dense()))
            assert dev <= 1e-12
            worst_dense = max(worst_dense, float(dev))
            scale = 1.0 + x.norm_inf() * y.norm_inf()
            fast_dev = max(
                abs(a - b) for a, b in zip(fast_mul(x, y).coeffs, product.coeffs)
            )
            assert fast_dev <= 1e-9 * scale
            worst_fast = max(worst_fast, fast_dev / scale)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed(1, f"dense dev {worst_dense:.2e}, fast dev {worst_fast:.2e}, {elapsed:.1f}s")


def test_c02_eigen_formula_residuals():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(1, 65):
        coeffs = rng.uniform(-1, 1, size=(100, n, 2))
        batch = coeffs[..., 0] + 1j * coeffs[..., 1]
        shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        dense = batch[:, shift]  # (100, n, n)
        v = eigenvector_matrix(n)
        lam = batch @ v
        residual = np.einsum("bij,jk->bik", dense, v) - v[None, :, :] * lam[:, None, :]
        norms = np.sum(np.abs(batch), axis=1)
        per_matrix = np.max(np.abs(residual), axis=(1, 2)) / (1.0 + norms)
        assert np.all(per_matrix <= 1e-9)
        worst = max(worst, float(np.max(per_matrix)))
    _passed(2, f"worst scaled residual {worst:.2e}")


def test_c03_cayley_hamilton():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(1, 11):
        for _ in range(30):
            x = random_circulant(rng, n)
            monic = char_poly(x)
            acc = monic[0] * identity(n)
            for coeff in monic[1:]:
                acc = mul_naive(acc, x) + coeff * identity(n)
            bound = 1e-8 * (1.0 + x.norm_inf()) ** n
            dev = max(abs(z) for z in acc.coeffs)
            assert dev <= bound
            worst = max(worst, dev / bound)
    _passed(3, f"worst residual at {worst:.2e} of bound")


def _random_invertible(rng, n):
    c = random_circulant(rng, n)
    if is_invertible(c).invertible:
        return c
    # Push the spectrum away from zero; keeps the draw random but certain
    # to clear the relative singularity threshold on min |lambda_j|.
    shift = 2.0 * c.norm_inf() + 2.0
    boosted = c + shift * identity(n)
    assert is_invertible(boosted).invertible
    return boosted


def test_c04_conjugate_inverse():
    exact = inverse(circ(1, 2, 3))
    assert exact.coeffs == pytest.approx((-5 / 18, 7 / 18, 1 / 18), abs=1e-12)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(200):
        n = 1 + i % 16
        c = _random_invertible(rng, n)
        inv = inverse(c)
        scale = 1.0 + c.norm_inf() * inv.norm_inf()
        dev = max(
            abs(a - b) for a, b in zip(mul_naive(c, inv).coeffs, identity(n).coeffs)
        )
        assert dev <= 1e-9 * scale
        worst = max(worst, dev / scale)
    _passed(4, f"exact example to 1e-12, worst scaled residual {worst:.2e}")


def test_c05_form_identities():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(2, 11):
        for _ in range(200):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            qx, qy = forms(x).q, forms(y).q
            conj_dev = abs(forms(conjugate(x)).q[0] - qx[n - 2])
            conj_scale = 1.0 + abs(qx[n - 2])
            assert conj_dev <= 1e-9 * conj_scale
            lhs = forms(x + y).q[1]
            rhs = qx[1] + qy[1] + qx[0] * qy[0] - forms(mul_naive(x, y)).q[0]
            q2_scale = 1.0 + abs(lhs) + abs(rhs)
            assert abs(lhs - rhs) <= 1e-9 * q2_scale
            worst = max(worst, conj_dev / conj_scale, abs(lhs - rhs) / q2_scale)
    closed_worst = 0.0
    for _ in range(200):
        c3, c4 = random_circulant(rng, 3), random_circulant(rng, 4)
        dev3 = max(abs(a - b) for a, b in zip(forms(c3).q, closed_forms_n3(c3.coeffs)))
        dev4 = max(abs(a - b) for a, b in zip(forms(c4).q, closed_forms_n4(c4.coeffs)))
        assert dev3 <= 1e-10 and dev4 <= 1e-10
        closed_worst = max(closed_worst, dev3, dev4)
    _passed(5, f"identity residual {worst:.2e}, closed-form dev {closed_worst:.2e}")


def test_c06_hopf_axioms():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(1, 17):
        for _ in range(100):
            c = random_circulant(rng, n)
            counit_report = verify_counit_axiom(c)
            antipode_report = verify_antipode_axiom(c)
            assert counit_report.residual <= 1e-10
            assert antipode_report.residual <= 1e-10
            worst = max(worst, counit_report.residual, antipode_report.residual)
            s = antipode(c)
            assert s.coeffs == c.transpose().coeffs
            assert np.array_equal(s.to_dense(), c.to_dense().T)
    _passed(6, f"worst axiom residual {worst:.2e}, antipode = transpose exactly")


def test_c07_block_circulant_spectrum_multiplicity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(1, 7):
        cases = [random_circulant(rng, n) for _ in range(20)]
        cases += [identity(n), circ(*([1.0] * n))]
        for c in cases:
            expanded = np.linalg.eigvals(comultiplication(c).expand())
            tol = 1e-9 * (1.0 + c.norm_inf())
            matched = greedy_multiset_match(delta_spectrum(c), expanded, tol)
            assert matched is not None, "eigenvalue multiset failed to match"
            worst = max(worst, matched)
    _passed(7, f"worst matched distance {worst:.2e}")


def test_c08_skew_circulant_identification():
    rng = np.random.default_rng(SEED)
    worst_dense = worst_eig = 0.0
    for n in range(1, 33):
        coeffs = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, size=(n, 2)))
        skew = skew_circ(coeffs)
        dense = mu_to_dense(skew)
        flipped = circ(*coeffs).to_dense().copy()
        flipped[np.tril_indices(n, k=-1)] *= -1.0
        dev = float(np.max(np.abs(dense - flipped)))
        assert dev <= 1e-12
        worst_dense = max(worst_dense, dev)

        sigma = skew_root(n)
        weighted = [coeffs[k] * sigma**k for k in range(n)]
        omega_powers = np.exp(2j * np.pi * np.arange(n) / n)
        expected = np.array(
            [sum(weighted[k] * w**k for k in range(n)) for w in omega_powers]
        )
        got = np.asarray(mu_eigen(skew).spectrum.values)
        scale = 1.0 + float(np.sum(np.abs(coeffs)))
        dev = float(np.max(np.abs(got - expected)))
        assert dev <= 1e-9 * scale
        worst_eig = max(worst_eig, dev / scale)
    _passed(8, f"dense dev {worst_dense:.2e}, eigen dev {worst_eig:.2e}")


def test_c09_exact_lattice_reproduction():
    basis = lattice_new(
        [[0, -1, 1], [F(-1, 3), F(1, 3), F(1, 3)], [F(1, 3), F(2, 3), F(-1, 3)]]
    )
    integral, inv = basis_inverse_integral(basis)
    assert integral
    assert inv == ((1, -1, 2), (0, 1, 1), (1, 1, 1))
    solution = lattice_decompose(basis, rational_circ(1, 0, 0))
    assert solution.coefficients == (1, -1, 2) and solution.member
    recombined = [
        sum(solution.coefficients[i] * basis.rows[i][j] for i in range(3))
        for j in range(3)
    ]
    assert recombined == [1, 0, 0]
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        target = rational_circ(*(int(v) for v in rng.integers(-99, 100, size=3)))
        sol = lattice_decompose(basis, target)
        assert sol.member and all(a.denominator == 1 for a in sol.coefficients)
        back = [
            sum(sol.coefficients[i] * basis.rows[i][j] for i in range(3))
            for j in range(3)
        ]
        assert back == list(target.coeffs)
    _passed(9, "reference inverse, decomposition and 100 integral targets exact")


def test_c10_brandt_suite():
    a, b = rational_circ(2, 1, 1), rational_circ(1, 1, 1)
    assert integer_spectrum(a).values == (4, 1, 1)
    assert integer_spectrum(b).values == (3, 0, 0)
    assert brandt_check([a, b]).holds
    assert integer_spectrum(a + b) is not None
    assert integer_spectrum(a * b) is not None
    result = reconstruct_from_spectrum((4, 1, 1))
    assert result.real
    assert result.circulant.coeffs == pytest.approx((2, 1, 1), abs=1e-9)
    _passed(10, "spectra (4,1,1)/(3,0,0), closure forms integral, reconstruction real")


def test_c11_performance_spectral_beats_naive(monkeypatch):
    results = run_bench([1024], reps=3, seed=SEED)
    by_method = {r.method: r for r in results}
    naive, spectral = by_method["naive"], by_method["spectral"]
    assert spectral.median_ns < naive.median_ns
    assert abs(naive.checksum - spectral.checksum) <= 1e-9 * (1.0 + naive.checksum)

    # The harness must refuse to time disagreeing implementations.
    monkeypatch.setattr(
        bench_mod, "fast_mul", lambda x, y: identity(x.n).scale(1e6)
    )
    with pytest.raises(BenchDisagreementError):
        run_bench([16], reps=3, seed=SEED)
    _passed(
        11,
        f"spectral {spectral.median_ns / 1e6:.2f} ms < naive {naive.median_ns / 1e6:.2f} ms at n=1024",
    )
