"""A bounded, seeded census of the subcommands at extreme values.

Every float subcommand runs in process on circulant, skew, mu and dense
documents at a few orders, on rows that mix the edges of the float range
(+-1.7e308, 1e308, +-1e154, 1e-308, 5e-324, 0) with normal draws, under
RuntimeWarnings turned into errors.  The four other document commands
run on exact values and tables of the same kind: `spectrum-reconstruct`
on integer and p/q spectra of 10^0 .. 10^300 and past the float
maximum, `cocycle-verify` on tables and mu weights inside and outside
the 2^-500 .. 2^500 it accepts, and `brandt-check` and `lattice-solve`
on numerators and denominators up to 10^300.  Each call must end in a
typed exit (0, 1 or 2, never the internal-error 3), with no stderr on
success, one stderr line when it fails, and no "nan" or "inf" in any
result document (an error line may name the non-finite value a
computation reached, as in "non-finite entry (inf+1j) at index 0").
Every exit-0 ``inverse`` must also be a good inverse: the coefficients
of x * x^-1 - I, taken exactly in rationals (so no rescaling of x can
overflow or hide an error), stay within INVERSE_RESIDUAL_BOUND * eps *
cond, cond = max|lambda| / min|lambda|.  A conjugate-symmetric spectrum
in the float range must reconstruct to a real row.  Last, every float
subcommand runs on documents with one "nan", "-nan", "inf" or "1e309"
part in any complex field, and `factorize` on exact grids with one entry
past the float maximum: each must exit 2 with one error line.
"""

import io
import json
import math
import sys
import warnings
from fractions import Fraction
from itertools import product

import numpy as np

from circulants.cli import main

SEED = 0xCE115
ORDERS = (1, 2, 3, 4, 12, 13, 16)
KINDS = ("circulant", "skew_circulant", "mu_circulant", "dense")
FLOAT_COMMANDS = (
    "eig",
    "forms",
    "charpoly",
    "inverse",
    "conjugate",
    "hopf-counit",
    "hopf-delta",
    "hopf-antipode",
    "hopf-verify",
    "mu-eig",
    "skew",
    "factorize",
)
EXTREMES = (1.7e308, -1.7e308, 1e308, 1e154, -1e154, 1e-308, 5e-324, 0.0)
#: Share of extreme parts in the rows of one (order, kind), two rows each:
#: normal rows, mixed ones and rows made of extremes only; None draws a
#: row of one extreme repeated, singular from n = 2 on.
EXTREME_SHARES = (0.0, 0.0, 0.1, 0.1, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 1.0, 1.0, None, None)
#: The worst residual seen over this census and a wider run of the same
#: check (3966 exit-0 inverses at n <= 64 over 30 seeds, rows also scaled
#: by 2^+-1000 and 1e+-300) was 1.22 eps cond.
INVERSE_RESIDUAL_BOUND = 8.0


def draw_parts(rng, count, share, extremes=EXTREMES):
    normal = rng.standard_normal(count)
    extreme = rng.choice(extremes, size=count)
    return np.where(rng.uniform(size=count) < share, extreme, normal)


def draw_row(rng, count, share, extremes=EXTREMES):
    """`count` [re, im] string pairs, each part one of `extremes` with
    probability `share`, else a normal draw; with share None, one real
    extreme repeated."""
    if share is None:
        return [[repr(float(rng.choice(extremes))), "0.0"]] * count
    parts = draw_parts(rng, 2 * count, share, extremes).reshape(count, 2)
    return [[repr(float(re)), repr(float(im))] for re, im in parts]


def census_documents():
    """(n, kind, share, document) for every order, kind and share."""
    rng = np.random.default_rng(SEED)
    for n in ORDERS:
        for kind in KINDS:
            for share in EXTREME_SHARES:
                if kind == "dense":
                    doc = {"kind": kind, "n": n, "entries": [draw_row(rng, n, share) for _ in range(n)]}
                else:
                    doc = {"kind": kind, "n": n, "first_row": draw_row(rng, n, share)}
                    if kind == "mu_circulant":
                        doc["mu"] = draw_row(rng, n - 1, share)
                yield n, kind, share, doc


def run_in_process(command, text):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command])
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def exact_row(pairs):
    return [(Fraction(float(re)), Fraction(float(im))) for re, im in pairs]


def inverse_residual_ratio(x_pairs, y_pairs):
    """max_k |(x * y - I)_k| / (eps * cond), the product exact in
    rationals and cond taken on x rescaled by a power of two."""
    x, y = exact_row(x_pairs), exact_row(y_pairs)
    n = len(x)
    worst = 0.0
    for k in range(n):
        re = sum(x[i][0] * y[k - i][0] - x[i][1] * y[k - i][1] for i in range(n)) - (k == 0)
        im = sum(x[i][0] * y[k - i][1] + x[i][1] * y[k - i][0] for i in range(n))
        worst = max(worst, math.hypot(float(re), float(im)))
    row = np.array([complex(float(re), float(im)) for re, im in x_pairs])
    _, exponent = np.frexp(np.max(np.maximum(np.abs(row.real), np.abs(row.imag))))
    moduli = np.abs(np.fft.fft(np.ldexp(row.real, -exponent) + 1j * np.ldexp(row.imag, -exponent)))
    cond = moduli.max() / moduli.min() if moduli.min() > 0 else math.inf
    return worst / (np.finfo(float).eps * cond)


def census():
    """Every census call as (command, n, kind, share, doc, code, out, err)."""
    for n, kind, share, doc in census_documents():
        text = json.dumps(doc)
        for command in FLOAT_COMMANDS:
            code, out, err = run_in_process(command, text)
            yield command, n, kind, share, doc, code, out, err


def assert_typed(where, code, out, err, verdicts=False):
    """A typed exit: a result document with no stderr (exit 1 only where
    the command reports a failed verdict), or one "error: " line on
    stderr and a nonzero exit; no "nan" or "inf" in the result."""
    assert code in (0, 1, 2), where
    if out:
        assert err == "", where
        assert code == 0 or verdicts, where
    else:
        assert code != 0 and err.startswith("error: ") and err.count("\n") == 1, where
    assert "nan" not in out.lower() and "inf" not in out.lower(), where


def test_float_commands_stay_typed_and_finite_at_extreme_values():
    inverses = 0
    codes = set()
    for command, n, kind, share, doc, code, out, err in census():
        where = f"{command} on {kind} n={n} share={share}: exit {code}, stderr {err!r}"
        codes.add(code)
        assert_typed(where, code, out, err, verdicts=command == "hopf-verify")
        if command == "inverse" and code == 0:
            inverses += 1
            ratio = inverse_residual_ratio(doc["first_row"], json.loads(out)["first_row"])
            assert ratio <= INVERSE_RESIDUAL_BOUND, f"{where}: residual {ratio:.2f} eps cond"
    assert codes == {0, 1, 2} and inverses >= 20


EXACT_ORDERS = (1, 2, 3, 4, 12)
#: Decimal exponents of the exact values: 10^0 .. 10^300 lie in the
#: float range, 10^400 lies past its maximum.
SPECTRUM_EXPONENTS = (0, 7, 12, 18, 100, 300, 400)
#: Decimal exponents of the large numerators and denominators of exact rows.
RATIONAL_EXPONENTS = (18, 100, 300)
#: Share of the entries of one exact row or basis with large numerators
#: and denominators; the others are p/q with |p| < 10^6 and q < 100.
RATIONAL_SHARES = (0.1, 1.0)
#: The float edges and both sides of the 2^-500 .. 2^500 that
#: cocycle-verify accepts.
COCYCLE_EXTREMES = (2.0**500, -(2.0**-500), 2.0**501, 2.0**-501, 2.0**-250, *EXTREMES)


def exact_value(rng, exponent, ratio):
    """An integer of at most 10^exponent in magnitude, or with `ratio` a
    p/q of that size with q in 2 .. 10^6, as a document string."""
    p = int(rng.integers(-(10**6), 10**6 + 1)) * 10**exponent // 10**6
    if not ratio:
        return str(p)
    q = int(rng.integers(2, 10**6))
    return f"{p * q + 1}/{q}"


def rational_entry(rng, share):
    """A p/q string, zero a third of the time; with probability `share`
    p and q are about 10^e, e drawn from RATIONAL_EXPONENTS."""
    if rng.uniform() < share:
        p, q = (int(rng.integers(1, 10**6)) * 10 ** int(rng.choice(RATIONAL_EXPONENTS)) for _ in range(2))
    else:
        p, q = int(rng.integers(1, 10**6)), int(rng.integers(1, 100))
    return f"{p * int(rng.choice((-1, 0, 1)))}/{q}"


def spectrum_documents(rng):
    for n in EXACT_ORDERS:
        for exponent in SPECTRUM_EXPONENTS:
            for ratio in (False, True):
                for symmetric in (False, True):
                    values = [exact_value(rng, exponent, ratio) for _ in range(n)]
                    if symmetric:
                        values = [values[min(j, n - j)] for j in range(n)]
                    yield f"n={n} 10^{exponent} ratio={ratio}", {"kind": "spectrum", "n": n, "values": values}


def cocycle_documents(rng):
    for n in EXACT_ORDERS:
        for share in EXTREME_SHARES:
            table = [draw_row(rng, n, share, COCYCLE_EXTREMES) for _ in range(n)]
            yield f"table n={n} share={share}", {"kind": "cocycle", "n": n, "table": table}
            mu = draw_row(rng, n - 1, share, COCYCLE_EXTREMES)
            doc = {"kind": "mu_circulant", "n": n, "first_row": draw_row(rng, n, 0.0), "mu": mu}
            yield f"mu n={n} share={share}", doc


def rational_row(rng, n, share):
    return {"kind": "rational_circulant", "n": n, "first_row": [rational_entry(rng, share) for _ in range(n)]}


def exact_documents(rng):
    for n in EXACT_ORDERS:
        for share in RATIONAL_SHARES:
            for size in (1, 2, 3):
                where = f"n={n} share={share} set of {size}"
                yield "brandt-check", where, [rational_row(rng, n, share) for _ in range(size)]
            if n * n * share > 20:
                # lattice_new eliminates in integers, each row cleared by
                # the lcm of its n denominators, so its cost grows with
                # their size: at n = 12, share 1 one call still takes
                # about 1 s (3 to 4 s with one lcm of all n^2).
                continue
            grid = [[rational_entry(rng, share) for _ in range(n)] for _ in range(n)]
            member = {"kind": "rational_circulant", "n": n, "first_row": grid[0]}
            for basis, target, which in (
                (grid, rational_row(rng, n, share), "random"),
                (grid, member, "member"),
                ([grid[0]] * n, member, "dependent"),
            ):
                doc = [{"kind": "dense", "n": n, "entries": basis}, target]
                yield "lattice-solve", f"n={n} share={share} {which}", doc


def exact_census():
    """Every call of the four exact and table commands as (command, where,
    doc, code, out, err)."""
    rng = np.random.default_rng(SEED + 1)
    calls = [("spectrum-reconstruct", where, doc) for where, doc in spectrum_documents(rng)]
    calls += [("cocycle-verify", where, doc) for where, doc in cocycle_documents(rng)]
    calls += list(exact_documents(rng))
    for command, where, doc in calls:
        yield (command, where, doc, *run_in_process(command, json.dumps(doc)))


def test_exact_and_table_commands_stay_typed_at_extreme_values():
    codes = {}
    for command, where, doc, code, out, err in exact_census():
        where = f"{command} on {where}: exit {code}, stderr {err!r}"
        codes.setdefault(command, set()).add(code)
        assert_typed(where, code, out, err, verdicts=command != "spectrum-reconstruct")
        if command == "spectrum-reconstruct":
            values = [Fraction(v) for v in doc["values"]]
            if values[1:] == values[:0:-1] and max(map(abs, values)) <= sys.float_info.max:
                assert code == 0 and json.loads(out)["real"] is True, where
    assert codes == {
        "spectrum-reconstruct": {0, 2},
        "cocycle-verify": {0, 1, 2},
        "brandt-check": {0, 1},
        "lattice-solve": {0, 1},
    }


#: Parts that read as no finite float: "1e309" rounds to inf.
NON_FINITE_PARTS = ("nan", "-nan", "inf", "1e309")


def non_finite_documents(rng):
    """(where, doc): a document of normal draws with one part of one entry
    of one complex field replaced by a NON_FINITE_PARTS string, for every
    order, kind, field and part.  With `numbers`, another entry is written
    with JSON numbers for parts, which sends the field to the per-entry
    decoder instead of the one for string pairs."""
    for n in ORDERS:
        for kind in KINDS:
            sizes = {"dense": {"entries": n * n}, "mu_circulant": {"first_row": n, "mu": n - 1}}
            sizes = sizes.get(kind, {"first_row": n})
            for field, part, numbers in product(sizes, NON_FINITE_PARTS, (False, True)):
                doc = {"kind": kind, "n": n, **{name: draw_row(rng, size, 0.0) for name, size in sizes.items()}}
                items = doc[field]
                if not items:
                    continue
                k = int(rng.integers(len(items)))
                items[k] = [part, items[k][1]] if rng.uniform() < 0.5 else [items[k][0], part]
                if numbers and len(items) > 1:
                    other = (k + 1) % len(items)
                    items[other] = [float(x) for x in items[other]]
                if field == "entries":
                    doc[field] = [items[i * n:(i + 1) * n] for i in range(n)]
                yield f"{kind} n={n} {field} {part!r} numbers={numbers}", doc


#: Exact entries past the float maximum, integers and p/q.
PAST_FLOAT_RANGE = (str(10**400), str(-(10**309)), f"{10**400 + 1}/7", f"-{3 * 10**309 + 1}/3")


def test_non_finite_and_out_of_range_entries_exit_2():
    # The rule for a valid entry holds for every complex field of every
    # kind, dense grids included: each call exits 2 with one error line.
    rng = np.random.default_rng(SEED + 2)
    calls = [(command, where, doc) for where, doc in non_finite_documents(rng) for command in FLOAT_COMMANDS]
    for n in EXACT_ORDERS:
        for value in PAST_FLOAT_RANGE:
            entries = [[rational_entry(rng, 0.1) for _ in range(n)] for _ in range(n)]
            entries[int(rng.integers(n))][int(rng.integers(n))] = value
            calls.append(("factorize", f"exact n={n} {value[:12]}", {"kind": "dense", "n": n, "entries": entries}))
    for command, where, doc in calls:
        code, out, err = run_in_process(command, json.dumps(doc))
        where = f"{command} on {where}: exit {code}, stderr {err!r}"
        assert_typed(where, code, out, err)
        assert code == 2, where
