"""A bounded, seeded census of the float subcommands at extreme values.

Every float subcommand runs in process on circulant, skew, mu and dense
documents at a few orders, on rows that mix the edges of the float range
(+-1.7e308, 1e308, +-1e154, 1e-308, 5e-324, 0) with normal draws, under
RuntimeWarnings turned into errors.  Each call must end in a typed exit
(0, 1 or 2, never the internal-error 3), with no stderr on success, one
stderr line when it fails, and no "nan" or "inf" in any result document
(an error line may name the non-finite value a computation reached,
as in "non-finite entry (inf+1j) at index 0").  Every exit-0 ``inverse`` must also be a good inverse: the
coefficients of x * x^-1 - I, taken exactly in rationals (so no rescaling
of x can overflow or hide an error), stay within
INVERSE_RESIDUAL_BOUND * eps * cond, cond = max|lambda| / min|lambda|.
"""

import io
import json
import math
import sys
import warnings
from fractions import Fraction

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


def draw_parts(rng, count, share):
    normal = rng.standard_normal(count)
    extreme = rng.choice(EXTREMES, size=count)
    return np.where(rng.uniform(size=count) < share, extreme, normal)


def draw_row(rng, count, share):
    """`count` [re, im] string pairs, each part an extreme with
    probability `share`, else a normal draw; with share None, one real
    extreme repeated."""
    if share is None:
        return [[repr(float(rng.choice(EXTREMES))), "0.0"]] * count
    parts = draw_parts(rng, 2 * count, share).reshape(count, 2)
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


def test_float_commands_stay_typed_and_finite_at_extreme_values():
    inverses = 0
    codes = set()
    for command, n, kind, share, doc, code, out, err in census():
        where = f"{command} on {kind} n={n} share={share}: exit {code}, stderr {err!r}"
        codes.add(code)
        assert code in (0, 1, 2), where
        if out:
            # A result document; exit 1 only for a failed verification.
            assert err == "", where
            assert code == 0 or command == "hopf-verify", where
        else:
            assert code != 0 and err.startswith("error: ") and err.count("\n") == 1, where
        assert "nan" not in out.lower() and "inf" not in out.lower(), where
        if command == "inverse" and code == 0:
            inverses += 1
            ratio = inverse_residual_ratio(doc["first_row"], json.loads(out)["first_row"])
            assert ratio <= INVERSE_RESIDUAL_BOUND, f"{where}: residual {ratio:.2f} eps cond"
    assert codes == {0, 1, 2} and inverses >= 20
