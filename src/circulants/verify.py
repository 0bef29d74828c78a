"""Seeded spot checks of the package's identities, for `verify-all`.

Each suite draws reproducible random inputs and measures the worst
deviation of a handful of identities, each one a package result held
against an identity or against an independent reference in `oracle`,
and checked once.  The references themselves are checked in the pytest
suite (tests/test_oracle.py), never here; that suite also runs these
checks at full strength.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import hopf, lattice, oracle, spectral, twisted
from .core import Circulant, _result, fundamental, identity, mul_naive
from .errors import DependentBasisError
from .fixtures import DEFAULT_SEED, random_circulant, random_weights
from .forms import char_poly_of_forms, conjugate
from .forms import forms as forms_of


def random_real_circulant(rng: np.random.Generator, n: int) -> Circulant:
    """First row of n real entries uniform in [-1, 1), with imaginary
    parts +0.0: the same bits as complex(x, 0.0)."""
    return _result(Circulant, rng.uniform(-1.0, 1.0, size=n).astype(complex))


def _report(name: str, deviation: float, tol: float) -> hopf.HopfReport:
    """The check ``name`` as the package's one report: it holds when the
    worst deviation is at most ``tol``, and the deviation is its residual."""
    return hopf.HopfReport(name, bool(deviation <= tol), float(deviation))


def _max_coeff_diff(x: Circulant, y: Circulant) -> float:
    return max(abs(a - b) for a, b in zip(x.coeffs, y.coeffs))


def core_suite(rng: np.random.Generator) -> list[hopf.HopfReport]:
    worst_dense = worst_comm = worst_pow = worst_row = worst_tr = 0.0
    for n in (1, 2, 3, 4, 5, 8, 12, 16, 32):
        for _ in range(5):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            product, dense = mul_naive(x, y), x.to_dense()
            worst_dense = max(
                worst_dense,
                float(np.max(np.abs(product.to_dense() - dense @ y.to_dense()))),
            )
            worst_comm = max(worst_comm, _max_coeff_diff(product, mul_naive(y, x)))
            worst_tr = max(worst_tr, float(np.max(np.abs(x.transpose().to_dense() - dense.T))))
            worst_row = max(worst_row, float(np.max(np.abs(dense[0] - x.array))))
            p = fundamental(n)
            coeffs = x.coeffs
            acc = coeffs[0] * identity(n)
            power = identity(n)
            for k in range(1, n):
                power = mul_naive(power, p)
                acc = acc + coeffs[k] * power
            worst_pow = max(worst_pow, _max_coeff_diff(acc, x))
    return [
        _report("core.naive-product-matches-dense-product", worst_dense, 1e-12),
        _report("core.convolution-commutes", worst_comm, 1e-13),
        _report("core.transpose-matches-dense-transpose", worst_tr, 0.0),
        _report("core.shift-powers-rebuild-circulant", worst_pow, 0.0),
        _report("core.dense-first-row-is-verbatim", worst_row, 0.0),
    ]


def spectral_suite(rng: np.random.Generator) -> list[hopf.HopfReport]:
    worst_round = worst_lin = worst_resid = worst_fast = 0.0
    for n in (1, 2, 3, 4, 5, 8, 12, 16, 31, 32, 64):
        for _ in range(5):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            sx = spectral.eigenvalues(x)
            worst_round = max(worst_round, _max_coeff_diff(spectral.from_spectrum(sx), x))
            lx, ly = sx.as_array(), spectral.eigenvalues(y).as_array()
            lsum = spectral.eigenvalues(x + y).as_array()
            worst_lin = max(worst_lin, float(np.max(np.abs(lsum - lx - ly))))
            dense = x.to_dense()
            v = spectral.eigenvector_matrix(n)
            resid = np.max(np.abs(dense @ v - v * lx[None, :])) / (1.0 + x.norm_inf())
            worst_resid = max(worst_resid, float(resid))
            scale = 1.0 + x.norm_inf() * y.norm_inf()
            worst_fast = max(
                worst_fast, _max_coeff_diff(spectral.fast_mul(x, y), mul_naive(x, y)) / scale
            )
    return [
        _report("spectral.spectrum-roundtrip", worst_round, 1e-9),
        _report("spectral.transform-linearity", worst_lin, 1e-12),
        _report("spectral.eigen-residuals", worst_resid, 1e-9),
        _report("spectral.fast-product-matches-naive", worst_fast, 1e-9),
    ]


def forms_suite(rng: np.random.Generator) -> list[hopf.HopfReport]:
    worst_ch = worst_conj = worst_q2 = worst_closed = worst_fl = 0.0
    for n in range(2, 11):
        for _ in range(5):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            fx = forms_of(x)
            monic = char_poly_of_forms(fx)
            acc = monic[0] * identity(n)
            for coeff in monic[1:]:
                acc = mul_naive(acc, x) + coeff * identity(n)
            worst_ch = max(
                worst_ch,
                max(abs(z) for z in acc.coeffs) / (1.0 + x.norm_inf()) ** n,
            )
            qx = fx.q
            scale = 1.0 + abs(qx[n - 2])
            worst_conj = max(
                worst_conj, abs(forms_of(conjugate(x)).q[0] - qx[n - 2]) / scale
            )
            qy = forms_of(y).q
            qsum = forms_of(x + y).q
            qprod = forms_of(mul_naive(x, y)).q
            lhs = qsum[1]
            rhs = qx[1] + qy[1] + qx[0] * qy[0] - qprod[0]
            worst_q2 = max(worst_q2, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
            flo = oracle.faddeev_leverrier(x.to_dense())
            worst_fl = max(
                worst_fl,
                max(abs(a - b) for a, b in zip(monic, flo)) / (1.0 + x.norm_inf()) ** n,
            )
    for _ in range(20):
        c3, c4 = random_circulant(rng, 3), random_circulant(rng, 4)
        worst_closed = max(
            worst_closed,
            max(abs(a - b) for a, b in zip(forms_of(c3).q, oracle.closed_forms_n3(c3.coeffs))),
            max(abs(a - b) for a, b in zip(forms_of(c4).q, oracle.closed_forms_n4(c4.coeffs))),
        )
    return [
        _report("forms.element-satisfies-char-poly", worst_ch, 1e-8),
        _report("forms.trace-of-conjugate-is-q(n-1)", worst_conj, 1e-9),
        _report("forms.q2-sum-identity", worst_q2, 1e-9),
        _report("forms.closed-forms-n3-n4", worst_closed, 1e-10),
        _report("forms.char-poly-matches-trace-recurrence", worst_fl, 1e-8),
    ]


def _scattered(support, n: int) -> np.ndarray:
    """The dense n x n x n tensor of a support (a, b, c, values)."""
    *index, values = support
    t = np.zeros((n, n, n), dtype=complex)
    t[tuple(index)] = values
    return t


def hopf_suite(rng: np.random.Generator) -> list[hopf.HopfReport]:
    worst_axiom = worst_map = worst_conv = worst_spec = worst_fact = worst_invol = worst_coassoc = 0.0
    for n in (1, 2, 3, 4, 8, 16):
        for _ in range(5):
            x = random_circulant(rng, n)
            worst_axiom = max(
                worst_axiom,
                hopf.verify_counit_axiom(x).residual,
                hopf.verify_antipode_axiom(x).residual,
                hopf.integral_check(x).residual,
            )
            worst_invol = max(worst_invol, _max_coeff_diff(hopf.antipode(hopf.antipode(x)), x))
            a = rng.uniform(-1.0, 1.0, size=(n, n)) + 1j * rng.uniform(-1.0, 1.0, size=(n, n))
            worst_fact = max(
                worst_fact,
                float(np.max(np.abs(hopf.reconstruct_factorization(hopf.factorize_dense(a)) - a))),
            )
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(3):
            x, y = random_circulant(rng, n), random_circulant(rng, n)
            dx, dy = hopf.comultiplication(x), hopf.comultiplication(y)
            tx, ty = oracle.coproduct_tensor(x.array), oracle.coproduct_tensor(y.array)
            reference = oracle.group_tensor_product(tx, ty)
            worst_map = max(
                worst_map,
                float(np.max(np.abs(hopf.block_mul(dx, dy).coefficient_tensor() - reference))),
                float(np.max(np.abs(hopf.comultiplication(mul_naive(x, y)).coefficient_tensor() - reference))),
            )
            # Every block x: a full support, which takes the 2-D transform.
            full = hopf.BlockCirculant((x,) * n)
            worst_conv = max(
                worst_conv,
                float(np.max(np.abs(
                    hopf.block_mul(full, dy).coefficient_tensor()
                    - oracle.group_tensor_product(np.tile(x.array, (n, 1)), ty)
                ))),
            )
            lt, rt = hopf.coassociativity_tensors(x)
            ol, orr = oracle.coassociativity_tensors(tx)
            worst_coassoc = max(
                worst_coassoc,
                float(np.max(np.abs(_scattered(lt, n) - ol))),
                float(np.max(np.abs(_scattered(rt, n) - orr))),
            )
            expanded = np.linalg.eigvals(dx.expand())
            matched = oracle.greedy_multiset_match(
                hopf.delta_spectrum(x), expanded, 1e-9 * (1.0 + x.norm_inf())
            )
            worst_spec = max(worst_spec, np.inf if matched is None else matched)
    return [
        _report("hopf.axiom-residuals", worst_axiom, 1e-10),
        _report("hopf.coproduct-is-algebra-map", worst_map, 1e-9),
        _report("hopf.product-matches-convolution", worst_conv, 1e-9),
        _report("hopf.coassociativity-exact", worst_coassoc, 0.0),
        _report("hopf.delta-spectrum-multiplicity-n", worst_spec, 1e-7),
        _report("hopf.factorization-roundtrip", worst_fact, 0.0),
        _report("hopf.antipode-involution", worst_invol, 0.0),
    ]


def twisted_suite(rng: np.random.Generator) -> list[hopf.HopfReport]:
    worst_cocycle = worst_transport = worst_eigen = worst_skew = worst_sigma = 0.0
    for n in (1, 2, 3, 4, 5, 8):
        for _ in range(4):
            weights = random_weights(rng, n)
            report = twisted.verify_cocycle(twisted.cocycle_from_mu(weights))
            worst_cocycle = max(worst_cocycle, report.residual)
            x = twisted.MuCirculant(random_circulant(rng, n).array, weights)
            y = twisted.MuCirculant(random_circulant(rng, n).array, weights)
            dense = twisted.mu_to_dense(x)
            dense_prod = dense @ twisted.mu_to_dense(y)
            structural = twisted.mu_to_dense(twisted.mu_mul(x, y))
            scale = 1.0 + float(np.max(np.abs(dense_prod)))
            worst_transport = max(
                worst_transport, float(np.max(np.abs(structural - dense_prod))) / scale
            )
            eig = twisted.mu_eigen(x)
            resid = np.max(
                np.abs(dense @ eig.vectors - eig.vectors * eig.spectrum.as_array()[None, :])
            )
            worst_eigen = max(worst_eigen, float(resid) / (1.0 + float(np.max(np.abs(dense)))))
    for n in (1, 2, 3, 5, 8, 16, 32):
        c = random_real_circulant(rng, n)
        skew_dense = twisted.mu_to_dense(twisted.skew_circ(c.array))
        flipped = c.to_dense()
        flipped[np.tril_indices(n, k=-1)] *= -1.0
        worst_skew = max(worst_skew, float(np.max(np.abs(skew_dense - flipped))))
    for n in range(1, 65):
        sigma = twisted.skew_root(n)
        omega = spectral.fourier_context(n).omega
        worst_sigma = max(worst_sigma, abs(sigma**2 - omega), abs(sigma**n + 1.0))
    return [
        _report("twisted.coboundary-satisfies-cocycle-identity", worst_cocycle, 1e-10),
        _report("twisted.product-transport-matches-dense", worst_transport, 1e-9),
        _report("twisted.eigen-residuals", worst_eigen, 1e-9),
        _report("twisted.skew-is-sign-flipped-circulant", worst_skew, 1e-12),
        _report("twisted.skew-root-squares-to-omega", worst_sigma, 1e-12),
    ]


def lattice_suite(rng: np.random.Generator) -> list[hopf.HopfReport]:
    reports: list[hopf.HopfReport] = []
    basis = lattice.lattice_new(
        [
            [Fraction(0), Fraction(-1), Fraction(1)],
            [Fraction(-1, 3), Fraction(1, 3), Fraction(1, 3)],
            [Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3)],
        ]
    )
    integral, inverse = lattice.basis_inverse_integral(basis)
    expected_inverse = ((1, -1, 2), (0, 1, 1), (1, 1, 1))
    inverse_ok = integral and all(
        inverse[i][j] == expected_inverse[i][j] for i in range(3) for j in range(3)
    )
    reports.append(_report("lattice.reference-basis-inverse", 0.0 if inverse_ok else 1.0, 0.0))
    solution = lattice.lattice_decompose(basis, lattice.rational_circ(1, 0, 0))
    solve_ok = solution.member and solution.coefficients == (1, -1, 2)
    reports.append(_report("lattice.reference-decomposition", 0.0 if solve_ok else 1.0, 0.0))
    members_ok = True
    for _ in range(20):
        target = lattice.rational_circ(*(int(v) for v in rng.integers(-9, 10, size=3)))
        sol = lattice.lattice_decompose(basis, target)
        members_ok = members_ok and sol.member
    reports.append(_report("lattice.integral-targets-decompose", 0.0 if members_ok else 1.0, 0.0))

    a = lattice.rational_circ(2, 1, 1)
    b = lattice.rational_circ(1, 1, 1)
    spec_a = lattice.integer_spectrum(a)
    spec_b = lattice.integer_spectrum(b)
    spec_sum = lattice.integer_spectrum(a + b)
    spec_prod = lattice.integer_spectrum(a * b)
    closure_ok = (
        spec_a is not None
        and spec_a.values == (4, 1, 1)
        and spec_b is not None
        and spec_b.values == (3, 0, 0)
        and spec_sum is not None
        and spec_prod is not None
        and lattice.brandt_check([a, b]).holds
    )
    reports.append(_report("lattice.integer-spectra-and-brandt", 0.0 if closure_ok else 1.0, 0.0))
    rec = lattice.reconstruct_from_spectrum(spec_a)
    dev = _max_coeff_diff(rec.circulant, a.to_float()) if rec.real else np.inf
    reports.append(_report("lattice.spectrum-reconstruction", float(dev), 1e-9))

    # Random integer rows and grids, entries -5..5: the exact polynomial
    # against the trace recurrence on the dense matrix, and the
    # elimination of `lattice_new` against the oracle's determinant.
    poly_ok = basis_ok = True
    for n in range(1, 11):
        row = lattice.rational_circ([int(v) for v in rng.integers(-5, 6, size=n)])
        poly_ok = poly_ok and lattice.exact_char_poly(row) == oracle.faddeev_leverrier_exact(
            row.to_exact_dense()
        )
        grid = rng.integers(-5, 6, size=(n, n)).tolist()
        det = oracle.exact_det(grid)
        try:
            basis = lattice.lattice_new(grid)
        except DependentBasisError:
            basis_ok = basis_ok and det == 0
            continue
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rows = [lattice.lattice_decompose(basis, lattice.rational_circ(r)).coefficients for r in grid]
        basis_ok = basis_ok and basis.det == det and rows == units
    reports.append(_report("lattice.exact-char-poly-matches-oracle", 0.0 if poly_ok else 1.0, 0.0))
    reports.append(_report("lattice.basis-det-and-unit-rows-match-oracle", 0.0 if basis_ok else 1.0, 0.0))
    return reports


SUITES = (core_suite, spectral_suite, forms_suite, hopf_suite, twisted_suite, lattice_suite)


def run_all(seed: int = DEFAULT_SEED) -> list[hopf.HopfReport]:
    rng = np.random.default_rng(seed)
    return [report for suite in SUITES for report in suite(rng)]
