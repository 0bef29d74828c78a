"""The five workloads: seeded input generation, references, and the
timed steps run on each input.

``generate(name, seed, round)`` returns plain data only (Python numbers,
Fractions, strings and numpy reference arrays), so the package sees
nothing but the generated inputs.  ``bind(pkg, inputs)`` turns the data
into :class:`harness.Item` s that call the package.  A workload's round
has the same orders and input classes every time; the values are drawn
afresh for each round from (seed, round).  ``timed(items)`` drops the
calls on known defects from the timed loop; ``census(items)`` gives the
items that hold them, run untimed.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import refs
from harness import UNTYPED, WRONG_VALUE, WRONG_VERDICT, Item, Step

#: Every public call the benchmark times, named <module>.<function> or
#: cli.<subcommand>; the per-layer metrics cover exactly these.
OP_NAMES = (
    "core.Circulant",
    "core.Circulant.__mul__",
    "spectral.eigenvalues",
    "spectral.from_spectrum",
    "spectral.fast_mul",
    "forms.forms",
    "forms.char_poly",
    "forms.conjugate",
    "forms.inverse",
    "forms.is_invertible",
    "lattice.rational_circ",
    "lattice.exact_char_poly",
    "lattice.forms_exact",
    "lattice.integer_spectrum",
    "lattice.brandt_check",
    "lattice.lattice_new",
    "lattice.lattice_decompose",
    "documents.parse_documents",
    "documents.dump_json",
    "cli.eig",
    "cli.forms",
    "cli.charpoly",
    "cli.inverse",
    "cli.hopf-delta",
    "cli.hopf-verify",
    "cli.mu-eig",
    "cli.skew",
    "cli.cocycle-verify",
    "cli.lattice-solve",
    "cli.brandt-check",
    "cli.factorize",
    "cli.spectrum-reconstruct",
    "cli.verify-all",
)

def _defects(ops, failure: str, cases, exc: str | None = None) -> set[tuple]:
    return {(op, case, failure, exc) for op in ops for case in cases}


def _cases(orders, cls: str | None = None) -> list[str]:
    return [f"n={n}" if cls is None else f"n={n} {cls}" for n in orders]


_VERDICTS = ("forms.is_invertible", "forms.inverse")
_NEWTON = ("forms.forms", "forms.char_poly")
_W, _S, _I = "well_conditioned", "singular", "small_integer"

#: The defects of the parent commit of the benchmark, keyed by (function,
#: input case, failure class, exception type): ROADMAP item 2's
#: determinant threshold 1e-9 * (1 + ||C||)^n (wrong verdicts, and an
#: OverflowError once it leaves the float range), Newton's identities on
#: power sums (wrong forms and polynomials) and the Horner conjugate.
#: Every key but the last group failed at least once in an untimed
#: enumeration over seeds other than those of the measured runs; the
#: README gives the rates.  A call on a key's (function, case) is not
#: timed: it runs in the defect census (:func:`census`), whose failures
#: are reported but are not the run's `failed`.  A census failure
#: outside these keys (another failure class or exception type) clears
#: `correct`, as does any failure of a timed call.
KNOWN_DEFECTS = frozenset().union(
    # spectral-pow2 and spectral-general: the threshold.
    _defects(("forms.is_invertible",), WRONG_VERDICT, _cases((12, 16, 32, 64, 97, 128))),
    _defects(("forms.is_invertible",), UNTYPED, _cases((256, 360, 512, 997, 1000, 1024, 1999, 2048, 4096)),
             "OverflowError"),
    # forms-inverse: Newton's identities, the Horner conjugate, the threshold.
    _defects(_NEWTON, WRONG_VALUE, _cases((8, 16, 32, 48, 64, 96, 128), _I)),
    _defects(_NEWTON, WRONG_VALUE, _cases((16, 32, 48, 64, 96, 128), _S)),
    _defects(_NEWTON, WRONG_VALUE, _cases((16, 32, 48, 64, 96, 128, 192, 256), _W)),
    _defects(("forms.conjugate",), WRONG_VALUE, _cases((8, 16, 32, 48, 64, 96, 128), _I)),
    _defects(("forms.conjugate",), WRONG_VALUE, _cases((32, 48, 64, 96, 128), _S)),
    _defects(("forms.conjugate",), WRONG_VALUE, _cases((32, 48, 64, 96, 128), _W)),
    _defects(_VERDICTS, WRONG_VERDICT, _cases((16, 32, 48, 64, 96, 128), _I)),
    _defects(_VERDICTS, WRONG_VERDICT, _cases((16, 32, 48, 64, 96, 128), _W)),
    _defects(_VERDICTS, UNTYPED, _cases((128,), _I) + _cases((192, 256), _W), "OverflowError"),
    # The same defects one step short of a failure: over 3000 inputs the
    # largest error reached 0.2 (Newton, n = 8 singular) and 0.3 (Horner,
    # n = 16) of the tolerance, and small-integer determinants can be 1
    # while the n = 8 threshold reaches 150.
    _defects(_NEWTON, WRONG_VALUE, _cases((8,), _S)),
    _defects(("forms.conjugate",), WRONG_VALUE, _cases((16,), _S) + _cases((16,), _W)),
    _defects(_VERDICTS, WRONG_VERDICT, _cases((8,), _I)),
)
#: The (function, case) pairs of KNOWN_DEFECTS: their calls are never timed.
DEFECT_PRONE = frozenset((op, case) for op, case, _failure, _exc in KNOWN_DEFECTS)


@dataclass(frozen=True)
class Input:
    """One generated input: its kind, raw data and references."""

    kind: str
    case: str  # order and input class, under which failures are recorded
    data: dict
    ref: dict


def _complex_row(rng, n) -> list[complex]:
    return [complex(a, b) for a, b in rng.uniform(-1.0, 1.0, size=(n, 2))]


def _spectrum_row(rng, n, zero_slot: int | None = None) -> list[complex]:
    """First row whose eigenvalues have moduli in [1, 8] (condition <= 8),
    or exactly one zero at 1-based ``zero_slot``."""
    lam = rng.uniform(1.0, 8.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    if zero_slot is not None:
        lam[zero_slot - 1] = 0.0
    return refs.coeffs_of(lam).tolist()


def _norm1(row) -> float:
    return float(np.sum(np.abs(np.asarray(row, dtype=complex))))


# -- spectral workloads ----------------------------------------------------------

def _spectral_inputs(rng, orders, mul_max: int) -> list[Input]:
    out = []
    for n, copies in orders:
        for _ in range(copies):
            x, y = _complex_row(rng, n), _complex_row(rng, n)
            lam = refs.spectrum(x)
            out.append(
                Input(
                    "spectral",
                    f"n={n}",
                    {"x": x, "y": y, "mul": n <= mul_max},
                    {"lam": lam, "product": refs.cyclic_product(x, y), "zeros": refs.zero_slots(lam)},
                )
            )
    return out


def spectral_pow2(rng) -> list[Input]:
    # `*` is the O(n^2) pure-Python product: timed here only up to n = 64.
    return _spectral_inputs(rng, [(2**k, 4) for k in range(3, 13)], mul_max=64)


def spectral_general(rng) -> list[Input]:
    return _spectral_inputs(rng, [(12, 8), (97, 4), (360, 2), (997, 1), (1000, 1), (1999, 1)], mul_max=1999)


def _verdict_check(zeros: set[int]):
    def check(verdict) -> str | None:
        if zeros:
            ok = not verdict.invertible and verdict.witness in zeros
        else:
            ok = verdict.invertible and verdict.witness is None
        return None if ok else WRONG_VERDICT

    return check


def _singular_expect(zeros: set[int], error_type):
    def expect(err) -> str | None:
        if zeros and isinstance(err, error_type) and err.witness in zeros:
            return None
        return WRONG_VERDICT

    return expect


def _close_check(want, scale: float, rtol: float, attr: str = "coeffs"):
    def check(out) -> str | None:
        return None if refs.close(getattr(out, attr), want, scale, rtol) else WRONG_VALUE

    return check


def _bind_spectral(pkg, inp: Input) -> tuple[Step, ...]:
    x, y = inp.data["x"], inp.data["y"]
    lam, n = inp.ref["lam"], len(x)
    product_scale = _norm1(x) * _norm1(y)
    lam_values = tuple(lam.tolist())

    def built(row):
        return lambda c: None if c.coeffs == tuple(row) else WRONG_VALUE

    steps = [
        Step("core.Circulant", lambda s: pkg.Circulant(x), built(x), keep="x"),
        Step("core.Circulant", lambda s: pkg.Circulant(y), built(y), keep="y"),
        Step("spectral.eigenvalues", lambda s: pkg.eigenvalues(s["x"]),
             _close_check(lam, _norm1(x), refs.TRANSFORM_RTOL, "values")),
        Step("spectral.from_spectrum", lambda s: pkg.from_spectrum(lam_values),
             _close_check(x, _norm1(lam) / n, refs.TRANSFORM_RTOL)),
        Step("spectral.fast_mul", lambda s: pkg.fast_mul(s["x"], s["y"]),
             _close_check(inp.ref["product"], product_scale, refs.TRANSFORM_RTOL)),
        Step("forms.is_invertible", lambda s: pkg.is_invertible(s["x"]), _verdict_check(inp.ref["zeros"])),
    ]
    if inp.data["mul"]:
        steps.append(Step("core.Circulant.__mul__", lambda s: s["x"] * s["y"],
                          _close_check(inp.ref["product"], product_scale, refs.TRANSFORM_RTOL)))
    return tuple(steps)


# -- forms-inverse ---------------------------------------------------------------

FORMS_ORDERS = (8, 16, 32, 48, 64, 96, 128)
#: Orders with well-conditioned inputs only: a small-integer determinant
#: leaves the double range there, and the O(n^3) Horner conjugate takes
#: 1.4 s / 3.3 s at n = 192 / 256, so conjugate stops at n = 128.
FORMS_LARGE_ORDERS = (192, 256)
CONJUGATE_MAX = 128


def forms_inverse(rng) -> list[Input]:
    out = []

    def add(cls, row):
        lam = refs.spectrum(row)
        out.append(Input("forms", f"n={len(row)} {cls}", {"class": cls, "x": row},
                         {"lam": lam, "zeros": refs.zero_slots(lam)}))

    for n in FORMS_ORDERS:
        add("well_conditioned", _spectrum_row(rng, n))
        add("small_integer", [complex(int(v)) for v in rng.integers(-3, 4, n)])
        add("singular", _spectrum_row(rng, n, zero_slot=int(rng.integers(1, n + 1))))
    for n in FORMS_LARGE_ORDERS:
        add("well_conditioned", _spectrum_row(rng, n))
    return out


def _bind_forms(pkg, inp: Input) -> tuple[Step, ...]:
    x = pkg.Circulant(inp.data["x"])
    lam, zeros = inp.ref["lam"], inp.ref["zeros"]
    mu = refs.adjugate_spectrum(lam)
    steps = [
        Step("forms.forms", lambda s: pkg.forms(x),
             lambda f: None if refs.forms_close(f.q, lam) else WRONG_VALUE),
        Step("forms.char_poly", lambda s: pkg.char_poly(x),
             lambda p: None if refs.poly_close(p, lam) else WRONG_VALUE),
    ]
    if x.n <= CONJUGATE_MAX:
        steps.append(Step("forms.conjugate", lambda s: pkg.conjugate(x),
                          _close_check(refs.coeffs_of(mu), float(np.max(np.abs(mu))), refs.CONJUGATE_RTOL)))
    if zeros:
        steps.append(Step("forms.inverse", lambda s: pkg.inverse(x),
                          expect=_singular_expect(zeros, pkg.SingularMatrixError)))
    else:
        mag = np.abs(lam)
        scale = float(mag.max() / mag.min() / mag.min())
        steps.append(Step("forms.inverse", lambda s: pkg.inverse(x),
                          _close_check(refs.coeffs_of(1.0 / lam), scale, refs.INVERSE_RTOL)))
    steps.append(Step("forms.is_invertible", lambda s: pkg.is_invertible(x), _verdict_check(zeros)))
    return tuple(steps)


# -- exact-lattice ----------------------------------------------------------------

EXACT_INPUTS = ((6, True), (6, False), (8, True), (8, False), (10, True), (10, False),
                (12, True), (12, False), (16, True), (20, False))
#: forms_exact and integer_spectrum each redo exact_char_poly: at n = 20
#: that is 0.85 s per call, and three of them would leave only three
#: rounds per run, so above this order only exact_char_poly is timed.
EXACT_FULL_MAX = 16
BRANDT_SETS = ((4, 2, False), (5, 3, True), (6, 2, False), (8, 3, True))  # (n, size, with a half)
LATTICE_ORDERS = (3, 4, 4, 5, 6, 8)


def _split_row(rng, n) -> tuple[list[Fraction], list[int]]:
    """Rational first row whose spectrum is integral: lambda_j depends only
    on gcd(j-1, n), so the spectrum is Galois-stable."""
    values = {d: int(rng.integers(-4, 5)) for d in range(1, n + 1) if n % d == 0}
    lam = [values[math.gcd(j, n)] for j in range(n)]
    row = [Fraction(int(round(v)), n) for v in (n * refs.coeffs_of(lam)).real]
    return row, lam


def _expected_integer_spectrum(row, monic) -> tuple[Fraction, ...] | None:
    """Slot-ordered integral spectrum when the exact polynomial splits into
    the rounded float eigenvalues, else None."""
    lam = refs.spectrum([complex(v) for v in row])
    rounded = np.round(lam.real)
    if np.max(np.abs(lam - rounded)) > 1e-6:
        return None
    roots = tuple(Fraction(int(v)) for v in rounded)
    return roots if refs.poly_from_roots(roots) == monic else None


def _unimodular(rng, n) -> list[list[int]]:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        m = int(rng.choice([-2, -1, 1, 2]))
        rows[i] = [a + m * b for a, b in zip(rows[i], rows[j])]
    order = rng.permutation(n)
    return [rows[k] for k in order]


def _brandt_expected(elements) -> tuple[bool, dict]:
    """Own Brandt verdict, with every probe's forms for checking a witness."""
    def forms_of(row):
        return refs.forms_of_poly(refs.char_poly_exact(row))

    single = [forms_of(e) for e in elements]
    forms = {}
    for ia, a in enumerate(elements):
        for ib, b in enumerate(elements[: ia + 1]):
            plus = forms_of([p + q for p, q in zip(a, b)])
            times = forms_of(refs.conv_exact(a, b))
            for i, j in ((ia, ib), (ib, ia)):  # a + b and ab commute
                forms.update({(i, j, "a"): single[i], (i, j, "b"): single[j], (i, j, "a+b"): plus, (i, j, "ab"): times})
    holds = all(q.denominator == 1 for qs in forms.values() for q in qs)
    return holds, forms


def exact_lattice(rng) -> list[Input]:
    out = []
    for n, split in EXACT_INPUTS:
        if split:
            row, lam = _split_row(rng, n)
        else:
            row = [Fraction(int(v)) for v in rng.integers(-3, 4, n)]
        monic = refs.char_poly_exact(row)
        spectrum = _expected_integer_spectrum(row, monic)
        if split and spectrum != tuple(lam):
            raise ArithmeticError(f"generated split input at n={n} lost its integral spectrum")
        case = f"n={n} {'split' if split else 'generic'}"
        out.append(Input("exact", case, {"row": row}, {"monic": monic, "spectrum": spectrum}))
    for n, size, half in BRANDT_SETS:
        elements = [[Fraction(int(v)) for v in rng.integers(-2, 3, n)] for _ in range(size)]
        if half:
            elements[-1][int(rng.integers(0, n))] += Fraction(1, 2)
        holds, forms = _brandt_expected(elements)
        out.append(Input("brandt", f"n={n} size={size}", {"elements": elements}, {"holds": holds, "forms": forms}))
    for n in LATTICE_ORDERS:
        rows = [[Fraction(v) for v in row] for row in _unimodular(rng, n)]
        member = [Fraction(int(v)) for v in rng.integers(-5, 6, n)]
        outside = list(member)
        outside[int(rng.integers(0, n))] += Fraction(1, 2)
        out.append(Input("lattice", f"n={n}", {"rows": rows, "member": member, "outside": outside},
                         {"det": refs.det_exact(rows)}))
    return out


def _bind_exact(pkg, inp: Input) -> tuple[Step, ...]:
    row, monic, spectrum = inp.data["row"], inp.ref["monic"], inp.ref["spectrum"]
    forms = refs.forms_of_poly(monic)

    def same(want):
        return lambda got: None if tuple(got) == tuple(want) else WRONG_VALUE

    def spectrum_check(got) -> str | None:
        if spectrum is None:
            return None if got is None else WRONG_VALUE
        return None if got is not None and tuple(got.values) == spectrum else WRONG_VALUE

    steps = (
        Step("lattice.rational_circ", lambda s: pkg.rational_circ(row),
             lambda r: None if r.coeffs == tuple(row) else WRONG_VALUE, keep="r"),
        Step("lattice.exact_char_poly", lambda s: pkg.exact_char_poly(s["r"]), same(monic)),
        Step("lattice.forms_exact", lambda s: pkg.forms_exact(s["r"]), same(forms)),
        Step("lattice.integer_spectrum", lambda s: pkg.integer_spectrum(s["r"]), spectrum_check),
    )
    return steps if len(row) <= EXACT_FULL_MAX else steps[:2]


def _brandt_check(holds: bool, forms: dict):
    def check(verdict) -> str | None:
        if verdict.holds != holds:
            return WRONG_VERDICT
        if holds:
            return None if verdict.counterexample is None else WRONG_VERDICT
        ce = verdict.counterexample
        want = forms.get((*ce.pair, ce.combination))
        if want is None or not 1 <= ce.form_index <= len(want):
            return WRONG_VERDICT
        value = want[ce.form_index - 1]
        return None if value == ce.value and value.denominator != 1 else WRONG_VERDICT

    return check


def _bind_brandt(pkg, inp: Input) -> tuple[Step, ...]:
    elements = [pkg.rational_circ(e) for e in inp.data["elements"]]
    return (Step("lattice.brandt_check", lambda s: pkg.brandt_check(elements),
                 _brandt_check(inp.ref["holds"], inp.ref["forms"])),)


def _decomposition_check(rows, target, member: bool):
    def check(sol) -> str | None:
        if refs.combine_exact(sol.coefficients, rows) != tuple(target):
            return WRONG_VALUE
        return None if sol.member == member else WRONG_VERDICT

    return check


def _bind_lattice(pkg, inp: Input) -> tuple[Step, ...]:
    rows = inp.data["rows"]
    n = len(rows)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def basis_check(basis) -> str | None:
        if basis.det != inp.ref["det"] or [list(r) for r in basis.rows] != rows:
            return WRONG_VALUE
        return None if refs.matmul_exact(rows, basis.inverse) == identity else WRONG_VALUE

    member = pkg.rational_circ(inp.data["member"])
    outside = pkg.rational_circ(inp.data["outside"])
    return (
        Step("lattice.lattice_new", lambda s: pkg.lattice_new(rows), basis_check, keep="basis"),
        Step("lattice.lattice_decompose", lambda s: pkg.lattice_decompose(s["basis"], member),
             _decomposition_check(rows, inp.data["member"], True)),
        Step("lattice.lattice_decompose", lambda s: pkg.lattice_decompose(s["basis"], outside),
             _decomposition_check(rows, inp.data["outside"], False)),
    )


# -- cli-documents ---------------------------------------------------------------

def _pair(z: complex) -> list[str]:
    return [repr(float(z.real)), repr(float(z.imag))]


def circulant_doc(row) -> dict:
    return {"kind": "circulant", "n": len(row), "first_row": [_pair(z) for z in row]}


def rational_doc(row) -> dict:
    return {"kind": "rational_circulant", "n": len(row), "first_row": [str(v) for v in row]}


def _complex_values(items) -> np.ndarray:
    return np.array([complex(float(a), float(b)) for a, b in items])


def run_cli(main, argv, text: str) -> tuple[int, str, str]:
    """``main(argv)`` in process, stdin fed from ``text``; (code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def _cli_input(sub: str, doc, check: dict, args=()) -> Input:
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return Input("cli", sub, {"sub": sub, "args": list(args), "text": text}, check)


def _cocycle_residual(table: np.ndarray) -> float:
    """Worst relative deviation from F(x,y) F(xy,z) = F(y,z) F(x,yz) and
    from the normalization F(e_1, .) = F(., e_1) = 1."""
    n = table.shape[0]
    x, y, z = np.ix_(np.arange(n), np.arange(n), np.arange(n))
    lhs = table[x, y] * table[(x + y) % n, z]
    rhs = table[y, z] * table[x, (y + z) % n]
    norm = np.maximum(np.abs(lhs), np.abs(rhs))
    worst = float(np.max(np.abs(lhs - rhs) / norm))
    edge = float(max(np.max(np.abs(table[0] - 1)), np.max(np.abs(table[:, 0] - 1))))
    return max(worst, edge)


def _small_cli_inputs(rng) -> list[Input]:
    out = []
    row = _complex_row(rng, 8)
    lam = refs.spectrum(row)
    out.append(_cli_input("eig", circulant_doc(row), {"code": 0, "spectrum": lam, "scale": _norm1(row)}))
    out.append(_cli_input("forms", circulant_doc(row), {"code": 0, "forms_lam": lam}))
    out.append(_cli_input("charpoly", circulant_doc(row), {"code": 0, "poly_lam": lam}))
    rat = [Fraction(int(v), int(d)) for v, d in zip(rng.integers(-4, 5, 6), rng.integers(1, 4, 6))]
    monic = refs.char_poly_exact(rat)
    out.append(_cli_input("forms", rational_doc(rat), {"code": 0, "exact_forms": refs.forms_of_poly(monic)}))
    out.append(_cli_input("charpoly", rational_doc(rat), {"code": 0, "exact_poly": monic}))

    good = _spectrum_row(rng, 6)
    glam = refs.spectrum(good)
    mag = np.abs(glam)
    out.append(_cli_input("inverse", circulant_doc(good),
                          {"code": 0, "inverse": refs.coeffs_of(1.0 / glam),
                           "scale": float(mag.max() / mag.min() / mag.min())}))
    singular = _spectrum_row(rng, 6, zero_slot=int(rng.integers(1, 7)))
    out.append(_cli_input("inverse", circulant_doc(singular),
                          {"code": 1, "witness": refs.zero_slots(refs.spectrum(singular))}))

    out.append(_cli_input("hopf-delta", circulant_doc(row), {"code": 0, "delta": row}))
    out.append(_cli_input("hopf-verify", circulant_doc(_complex_row(rng, 6)),
                          {"code": 0, "report": {"counit": True, "antipode": True, "integral": True}}))

    mu_row = _complex_row(rng, 6)
    mu = [1.0 + 0.0j] + [complex(np.exp(1j * t) * r) for t, r in
                         zip(rng.uniform(0, 2 * np.pi, 5), rng.uniform(0.5, 2.0, 5))]
    mu_doc = {"kind": "mu_circulant", "n": 6, "first_row": [_pair(z) for z in mu_row],
              "mu": [_pair(z) for z in mu[1:]]}
    out.append(_cli_input("mu-eig", mu_doc, {"code": 0, "mu_row": mu_row, "mu": mu}))
    skew_row = _complex_row(rng, 6)
    out.append(_cli_input("skew", {"kind": "skew_circulant", "n": 6, "first_row": [_pair(z) for z in skew_row]},
                          {"code": 0, "skew_row": skew_row}))
    out.append(_cli_input("cocycle-verify", mu_doc, {"code": 0, "report": {"cocycle": True}}))
    table = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 4))) * rng.uniform(0.5, 2.0, (4, 4))
    holds = _cocycle_residual(table) <= 1e-10
    out.append(_cli_input("cocycle-verify", {"kind": "cocycle", "n": 4, "table": [[_pair(z) for z in r] for r in table]},
                          {"code": 0 if holds else 1, "report": {"cocycle": holds}}))

    basis = [[Fraction(v) for v in r] for r in _unimodular(rng, 4)]
    basis_doc = {"kind": "dense", "n": 4, "entries": [[str(v) for v in r] for r in basis]}
    target = [Fraction(int(v)) for v in rng.integers(-5, 6, 4)]
    outside = list(target)
    outside[int(rng.integers(0, 4))] += Fraction(1, 2)
    for t, member in ((target, True), (outside, False)):
        out.append(_cli_input("lattice-solve", [basis_doc, rational_doc(t)],
                              {"code": 0 if member else 1, "basis": basis, "target": t, "member": member}))

    for half in (False, True):
        elements = [[Fraction(int(v)) for v in rng.integers(-2, 3, 4)] for _ in range(2)]
        if half:
            elements[1][int(rng.integers(0, 4))] += Fraction(1, 2)
        holds, forms = _brandt_expected(elements)
        out.append(_cli_input("brandt-check", [rational_doc(e) for e in elements],
                              {"code": 0 if holds else 1, "brandt": (holds, forms)}))

    grid = rng.uniform(-1, 1, (6, 6)) + 1j * rng.uniform(-1, 1, (6, 6))
    out.append(_cli_input("factorize", {"kind": "dense", "n": 6, "entries": [[_pair(z) for z in r] for r in grid]},
                          {"code": 0, "grid": grid}))
    values = [int(v) for v in rng.integers(-5, 6, 6)]
    if rng.integers(0, 2):
        values = [values[0]] + [values[min(k, 6 - k)] for k in range(1, 6)]  # conjugate-symmetric
    out.append(_cli_input("spectrum-reconstruct", {"kind": "spectrum", "n": 6, "values": [str(v) for v in values]},
                          {"code": 0, "reconstruct": values}))

    # Malformed documents: every one must exit 2 with a one-line error.
    bad = {"code": 2}
    out.append(_cli_input("eig", '{"kind": "circulant", "n": 3, "first_row": [["1", "0"]', bad))
    out.append(_cli_input("forms", {"kind": "toeplitz", "n": 2, "first_row": [["1", "0"], ["2", "0"]]}, bad))
    out.append(_cli_input("inverse", {"kind": "circulant", "n": 4, "first_row": [_pair(z) for z in row[:3]]}, bad))
    out.append(_cli_input("eig", {"kind": "circulant", "n": 2, "first_row": [["nan", "0"], ["1", "0"]]}, bad))
    out.append(_cli_input("charpoly", {"kind": "rational_circulant", "n": 2, "first_row": [1.5, "2"]}, bad))
    return out


SMALL_CLI_VARIANTS = 5


def cli_documents(rng) -> list[Input]:
    out = []
    for _ in range(SMALL_CLI_VARIANTS):
        out.extend(_small_cli_inputs(rng))
    # Large documents, where encoding and decoding dominate.
    for n, copies in ((1024, 4), (2048, 4)):
        for _ in range(copies):
            row = _complex_row(rng, n)
            out.append(_cli_input("eig", circulant_doc(row),
                                  {"code": 0, "spectrum": refs.spectrum(row), "scale": _norm1(row)}))
    for n in (128, 256):
        row = _complex_row(rng, n)
        out.append(_cli_input("hopf-delta", circulant_doc(row), {"code": 0, "delta": row}))
    for _ in range(6):
        row = _complex_row(rng, 4096)
        out.append(Input("parse", "n=4096", {"text": json.dumps(circulant_doc(row))}, {"row": tuple(row)}))
    for _ in range(4):
        payload = {"kind": "spectrum", "n": 4096, "values": [_pair(z) for z in _complex_row(rng, 4096)]}
        out.append(Input("dump", "n=4096", {"payload": payload}, {}))
    out.append(_cli_input("verify-all", "", {"code": 0, "verify_all": True},
                          args=("--seed", str(int(rng.integers(0, 2**32))))))
    return out


def _cli_check(ref: dict):
    """Check (exit code, stdout, stderr) of one subcommand run."""

    def check(result) -> str | None:
        code, stdout, stderr = result
        if code != ref["code"]:
            return WRONG_VERDICT
        if code == 2:
            return None if not stdout and stderr.startswith("error:") else WRONG_VALUE
        if "witness" in ref:
            found = re.search(r"j=(\d+)", stderr)
            return None if not stdout and found and int(found.group(1)) in ref["witness"] else WRONG_VERDICT
        if "verify_all" in ref:
            found = re.search(r"^(\d+)/(\d+) invariant checks passed", stdout.splitlines()[-1])
            return None if found and found.group(1) == found.group(2) else WRONG_VERDICT
        obj = json.loads(stdout)
        return _cli_value(ref, obj)

    return check


def _cli_value(ref: dict, obj) -> str | None:
    """Compare a decoded result document with its reference; the keys of
    the reference name the comparison that applies."""
    if "spectrum" in ref:
        ok = refs.close(_complex_values(obj["values"]), ref["spectrum"], ref["scale"], refs.TRANSFORM_RTOL)
    elif "forms_lam" in ref:
        ok = refs.forms_close(_complex_values(obj["q"]), ref["forms_lam"])
    elif "poly_lam" in ref:
        ok = refs.poly_close(_complex_values(obj["monic_coefficients"]), ref["poly_lam"])
    elif "exact_forms" in ref:
        ok = tuple(Fraction(v) for v in obj["q"]) == ref["exact_forms"]
    elif "exact_poly" in ref:
        ok = tuple(Fraction(v) for v in obj["monic_coefficients"]) == ref["exact_poly"]
    elif "inverse" in ref:
        ok = refs.close(_complex_values(obj["first_row"]), ref["inverse"], ref["scale"], refs.INVERSE_RTOL)
    elif "delta" in ref:
        row = ref["delta"]
        want = [[_pair(z) if k == j else ["0.0", "0.0"] for j in range(len(row))] for k, z in enumerate(row)]
        ok = obj["blocks"] == want
    elif "report" in ref:
        ok = {c["name"]: c["holds"] for c in obj["checks"]} == ref["report"]
    elif "mu_row" in ref:
        n = len(ref["mu_row"])
        mu = np.asarray(ref["mu"])
        lam = refs.spectrum(np.asarray(ref["mu_row"]) * mu)
        omega = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        vectors = np.array([_complex_values(v) for v in obj["vectors"]])
        ok = refs.close(_complex_values(obj["values"]), lam, _norm1(lam), refs.TRANSFORM_RTOL) and refs.close(
            vectors, mu[None, :] * omega, 1.0, refs.TRANSFORM_RTOL)
    elif "skew_row" in ref:
        n = len(ref["skew_row"])
        sigma = np.exp(1j * np.pi * np.arange(1, n) / n)
        ok = (obj["kind"] == "mu_circulant" and [complex(float(a), float(b)) for a, b in obj["first_row"]]
              == ref["skew_row"] and refs.close(_complex_values(obj["mu"]), sigma, 1.0, refs.TRANSFORM_RTOL))
    elif "basis" in ref:
        coefficients = [Fraction(v) for v in obj["coefficients"]]
        if refs.combine_exact(coefficients, ref["basis"]) != tuple(ref["target"]):
            return WRONG_VALUE
        return None if obj["member"] == ref["member"] else WRONG_VERDICT
    elif "brandt" in ref:
        holds, forms = ref["brandt"]
        if obj["holds"] != holds:
            return WRONG_VERDICT
        if holds:
            return None
        ce = obj["counterexample"]
        want = forms.get((*ce["pair"], ce["combination"]))
        value = Fraction(ce["value"])
        ok = want is not None and want[ce["form_index"] - 1] == value and value.denominator != 1
        return None if ok else WRONG_VERDICT
    elif "grid" in ref:
        grid = ref["grid"]
        n = grid.shape[0]
        want = [[_pair(grid[i, (i + k) % n]) for k in range(n)] for i in range(n)]
        ok = obj["grid"] == want
    elif "reconstruct" in ref:
        values = ref["reconstruct"]
        n = len(values)
        real = all(values[k] == values[n - k] for k in range(1, n))
        coeffs = _complex_values(obj["circulant"]["first_row"])
        ok = obj["real"] == real and refs.close(coeffs, refs.coeffs_of(values), _norm1(values) / n,
                                                refs.TRANSFORM_RTOL)
        if real and ok:
            ok = all(float(b) == 0.0 for _a, b in obj["circulant"]["first_row"])
    else:
        raise KeyError(f"no check for reference keys {sorted(ref)}")
    return None if ok else WRONG_VALUE


def _bind_cli(pkg, inp: Input) -> tuple[Step, ...]:
    argv = [inp.data["sub"], *inp.data["args"]]
    text = inp.data["text"]
    return (Step(f"cli.{inp.data['sub']}", lambda s: run_cli(pkg.cli.main, argv, text), _cli_check(inp.ref)),)


def _bind_parse(pkg, inp: Input) -> tuple[Step, ...]:
    row = inp.ref["row"]

    def check(docs) -> str | None:
        ok = len(docs) == 1 and docs[0].kind == "circulant" and tuple(docs[0].first_row) == row
        return None if ok else WRONG_VALUE

    return (Step("documents.parse_documents", lambda s: pkg.documents.parse_documents(inp.data["text"]), check),)


def _bind_dump(pkg, inp: Input) -> tuple[Step, ...]:
    payload = inp.data["payload"]

    def check(text) -> str | None:
        return None if text.endswith("\n") and json.loads(text) == payload else WRONG_VALUE

    return (Step("documents.dump_json", lambda s: pkg.documents.dump_json(payload), check),)


# -- registry ----------------------------------------------------------------------

GENERATORS = {
    "spectral-pow2": spectral_pow2,
    "spectral-general": spectral_general,
    "forms-inverse": forms_inverse,
    "exact-lattice": exact_lattice,
    "cli-documents": cli_documents,
}

#: The tail percentile each workload reports.  Every round holds the same
#: operations, so the times form groups (the inverse transforms at
#: n = 4096, say) and a percentile that falls between two groups jumps between
#: them from run to run.  Each workload's percentile is the highest that
#: has at least ten operations beyond it and falls inside a group of
#: operations of like size; p99.9 (ten operations beyond it, out of
#: about 10000) spread by 53 % over five seeds on spectral-pow2.  On
#: forms-inverse p98.5 spread by 10 % over ten seeds and p95 by 2 % over
#: five, so it reports p95.
TAIL_PERCENTILE = {
    "spectral-pow2": 99.0,  # the 8 inverse transforms at n = 4096
    "spectral-general": 97.0,  # eigenvalues and from_spectrum at n = 1999
    "forms-inverse": 95.0,  # inverse at n = 96 singular and n = 8 well-conditioned
    "exact-lattice": 95.0,  # the exact polynomials at n = 16
    "cli-documents": 95.0,  # eig at n = 1024, 2048 and brandt-check
}

_BINDERS = {
    "spectral": _bind_spectral,
    "forms": _bind_forms,
    "exact": _bind_exact,
    "brandt": _bind_brandt,
    "lattice": _bind_lattice,
    "cli": _bind_cli,
    "parse": _bind_parse,
    "dump": _bind_dump,
}


def generate(workload: str, seed: int, round_index: int) -> list[Input]:
    """Round ``round_index`` of the workload's inputs: the same structure in
    every round, fresh values, so no result is ever asked for twice."""
    salt = list(GENERATORS).index(workload)
    return GENERATORS[workload](np.random.default_rng([seed % 2**64, salt, round_index]))


def bind(pkg, inputs: list[Input]) -> list[Item]:
    return [Item(inp.kind, inp.case, _BINDERS[inp.kind](pkg, inp)) for inp in inputs]


def timed(items: list[Item]) -> list[Item]:
    """The items without their defect-prone calls, so that no timed call
    fails; an item left with no call is dropped."""
    out = []
    for item in items:
        steps = tuple(s for s in item.steps if (s.name, item.case) not in DEFECT_PRONE)
        if steps:
            out.append(Item(item.kind, item.case, steps))
    return out


def census(items: list[Item]) -> list[Item]:
    """The items that hold a defect-prone call, whole (a call may need the
    values an earlier call of its item keeps)."""
    return [item for item in items if any((s.name, item.case) in DEFECT_PRONE for s in item.steps)]


def warmup_items(items: list[Item]) -> list[Item]:
    """The first item holding each operation kind; inputs come smallest first."""
    chosen, seen = [], set()
    for item in items:
        names = {step.name for step in item.steps}
        if not names <= seen:
            chosen.append(item)
            seen |= names
    return chosen
