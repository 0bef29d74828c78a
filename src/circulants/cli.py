"""Command-line front end.

Matrix documents (JSON) come from --input or stdin, results go to
--output or stdout.  Every handler returns its result and exit code, and
`main` writes the result in one place: nothing is written when the
handler raises.  Exit codes: 0 success, 1 domain failure (failed
verification, non-member target, or an error type that declares exit
status 1: singular matrix, dependent or non-integral basis, unassignable
roots, benchmark disagreement), 2 malformed input or usage error (every
other `CirculantError`, as each type declares through its ``exit_code``,
and any OSError), 3 internal error (any other exception: a defect in
this package, reported on one line of stderr rather than as a
traceback, so that it is never mistaken for a domain verdict).  `main`
sets no numpy error state: each layer quiets its own numpy work, so a
RuntimeWarning that a library call leaks is not hidden here.

Each subcommand loads the layers it runs, on first use, inside its
handler or the document converter it calls; importing this module loads
`core`, `errors`, `spectral`, `forms`, `fixtures` and `documents` only.
`eig`, `forms`, `charpoly`, `inverse` and `conjugate` on a circulant
document load nothing more; `forms` and `charpoly` on a
rational_circulant load `lattice`, and the other commands given a
rational_circulant load it for its float view.  A mu_circulant or
skew_circulant document loads `twisted` (and through it `hopf`), as do
`mu-eig`, `skew` and `cocycle-verify`.  The `hopf-*` commands and
`factorize` load `hopf`; `brandt-check`, `spectrum-reconstruct` and
`lattice-solve` load `lattice`.
`verify-all` imports `verify` (and through it `oracle` and every layer),
and `bench` imports `bench` (and through it every layer).  A process
does not compile or execute a module that its subcommand does not load.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from . import spectral
from .fixtures import DEFAULT_SEED
from .forms import char_poly, forms
from .forms import conjugate as conjugate_of
from .forms import inverse as inverse_of
from .documents import (
    DocumentError,
    MatrixDocument,
    circulant_to_obj,
    cocycle_from_obj,
    dump_block_circulant,
    dump_json,
    format_complex,
    format_complex_row,
    format_rational,
    load_json,
    mu_circulant_to_obj,
    parse_documents,
    spectrum_from_obj,
    spectrum_to_obj,
)
from .errors import CirculantError


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _input_documents(args) -> list[MatrixDocument]:
    return parse_documents(_read_text(args.input))


def _single_document(args) -> MatrixDocument:
    docs = _input_documents(args)
    if len(docs) != 1:
        raise DocumentError("document", f"expected exactly one document, got {len(docs)}")
    return docs[0]


def _untwisted(doc: MatrixDocument):
    """The circulant whose spectrum and forms are the document's: psi of a
    mu_circulant or skew_circulant, else the document's circulant."""
    if doc.kind in ("mu_circulant", "skew_circulant"):
        from . import twisted

        return twisted.psi(doc.to_mu_circulant())
    return doc.to_circulant()


def _cmd_eig(args) -> tuple[dict | list | str, int]:
    return spectrum_to_obj(spectral.eigenvalues(_untwisted(_single_document(args))).array), 0


def _cmd_forms(args) -> tuple[dict | list | str, int]:
    """Exact forms of a rational_circulant; otherwise `forms` of the
    untwisted circulant, real for a real row."""
    doc = _single_document(args)
    if doc.kind == "rational_circulant":
        from . import lattice

        encoded = list(map(format_rational, lattice.forms_exact(lattice.bounded_row(doc.first_row))))
    else:
        encoded = format_complex_row(forms(_untwisted(doc)).q)
    return {"kind": "forms", "n": doc.n, "q": encoded}, 0


def _cmd_charpoly(args) -> tuple[dict | list | str, int]:
    """Exact polynomial of a rational_circulant; otherwise `char_poly` of
    the untwisted circulant, real for a real row."""
    doc = _single_document(args)
    if doc.kind == "rational_circulant":
        from . import lattice

        encoded = list(map(format_rational, lattice.exact_char_poly(lattice.bounded_row(doc.first_row))))
    else:
        encoded = format_complex_row(char_poly(_untwisted(doc)))
    return {"kind": "charpoly", "n": doc.n, "monic_coefficients": encoded}, 0


def _cmd_inverse(args) -> tuple[dict | list | str, int]:
    c = _single_document(args).to_circulant()
    return circulant_to_obj(inverse_of(c, threshold=args.tol)), 0


def _cmd_conjugate(args) -> tuple[dict | list | str, int]:
    c = _single_document(args).to_circulant()
    return circulant_to_obj(conjugate_of(c)), 0


def _cmd_hopf_counit(args) -> tuple[dict | list | str, int]:
    from . import hopf

    c = _single_document(args).to_circulant()
    return {"kind": "scalar", "value": format_complex(hopf.counit(c))}, 0


def _cmd_hopf_delta(args) -> tuple[dict | list | str, int]:
    from . import hopf

    c = _single_document(args).to_circulant()
    return dump_block_circulant(hopf.comultiplication(c)), 0


def _cmd_hopf_antipode(args) -> tuple[dict | list | str, int]:
    from . import hopf

    c = _single_document(args).to_circulant()
    return circulant_to_obj(hopf.antipode(c)), 0


def _given_tol(args) -> dict:
    """--tol as the keyword ``tol`` when it is given, so that otherwise the
    library's default applies."""
    return {} if args.tol is None else {"tol": args.tol}


def _report_result(reports) -> tuple[dict | list | str, int]:
    payload = {
        "kind": "report",
        "checks": [
            {"name": r.axiom, "holds": r.holds, "residual": r.residual} for r in reports
        ],
    }
    return payload, 0 if all(r.holds for r in reports) else 1


def _cmd_hopf_verify(args) -> tuple[dict | list | str, int]:
    from . import hopf

    c = _single_document(args).to_circulant()
    checks = (hopf.verify_counit_axiom, hopf.verify_antipode_axiom, hopf.integral_check)
    return _report_result([check(c, **_given_tol(args)) for check in checks])


def _cmd_mu_eig(args) -> tuple[dict | list | str, int]:
    from . import twisted

    doc = _single_document(args)
    eig = twisted.mu_eigen(doc.to_mu_circulant())
    payload = {
        "kind": "eigen",
        "n": doc.n,
        "values": format_complex_row(eig.spectrum.array),
        "vectors": [format_complex_row(column) for column in eig.vectors.T],
    }
    return payload, 0


def _cmd_cocycle_verify(args) -> tuple[dict | list | str, int]:
    from . import twisted

    cocycle = cocycle_from_obj(load_json(_read_text(args.input)))
    return _report_result([twisted.verify_cocycle(cocycle, **_given_tol(args))])


def _cmd_skew(args) -> tuple[dict | list | str, int]:
    doc = _single_document(args)
    if doc.kind != "skew_circulant":
        raise DocumentError("kind", f"skew expects a skew_circulant document, got {doc.kind}")
    m = doc.to_mu_circulant()
    return mu_circulant_to_obj(m), 0


def _cmd_brandt_check(args) -> tuple[dict | list | str, int]:
    from . import lattice

    docs = _input_documents(args)
    elements = [d.to_rational_circulant() for d in docs]
    verdict = lattice.brandt_check(elements, mode=args.mode)
    payload: dict = {"kind": "brandt", "mode": args.mode, "holds": verdict.holds}
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        payload["counterexample"] = {
            "pair": list(ce.pair),
            "combination": ce.combination,
            "form_index": ce.form_index,
            "value": format_rational(ce.value),
        }
    return payload, 0 if verdict.holds else 1


def _cmd_spectrum_reconstruct(args) -> tuple[dict | list | str, int]:
    from . import lattice

    obj = load_json(_read_text(args.input))
    values = spectrum_from_obj(obj)
    if not all(isinstance(v, Fraction) for v in values):
        raise DocumentError("values", "reconstruction needs exact integer or 'p/q' values")
    result = lattice.reconstruct_from_spectrum(values)
    payload = {
        "kind": "reconstruction",
        "real": result.real,
        "circulant": circulant_to_obj(result.circulant),
    }
    return payload, 0


def _cmd_lattice_solve(args) -> tuple[dict | list | str, int]:
    from . import lattice

    docs = _input_documents(args)
    if len(docs) != 2:
        raise DocumentError(
            "document", "lattice-solve expects [basis dense document, rational_circulant target]"
        )
    basis_doc, target_doc = docs
    solution = lattice.bounded_solve(basis_doc.to_exact_grid(), target_doc.to_exact_row())
    payload = {
        "kind": "lattice_solution",
        "coefficients": [format_rational(a) for a in solution.coefficients],
        "member": solution.member,
    }
    return payload, 0 if solution.member else 1


def _cmd_factorize(args) -> tuple[dict | list | str, int]:
    from . import hopf

    doc = _single_document(args)
    grid = hopf.factorize_dense(doc.to_complex_grid())
    payload = {
        "kind": "factorization",
        "n": doc.n,
        "grid": [format_complex_row(row) for row in grid],
    }
    return payload, 0


def _cmd_verify_all(args) -> tuple[dict | list | str, int]:
    from .verify import run_all

    reports = run_all(seed=args.seed)
    lines = []
    for r in reports:
        status = "ok" if r.holds else "FAIL"
        lines.append(f"{status} {r.axiom} max_dev={r.residual:.3e}")
    passed = sum(1 for r in reports if r.holds)
    lines.append(f"{passed}/{len(reports)} invariant checks passed (seed {args.seed:#x})")
    return "\n".join(lines) + "\n", 0 if passed == len(reports) else 1


def _cmd_bench(args) -> tuple[dict | list | str, int]:
    from .bench import run_bench

    results = run_bench(args.sizes, args.reps, seed=args.seed)
    return "".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in results), 0


def _seed(text: str) -> int:
    seed = int(text, 0)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _sizes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: the parser keeps no state between calls,
    # and building it costs a hundred times more than a parse.
    parser = argparse.ArgumentParser(
        prog="circulants", description="Circulant-matrix algebra toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, tol: bool = False, reads: bool = True):
        p = sub.add_parser(name, help=help_text)
        if reads:
            p.add_argument("--input", default="-", help="input document path (default stdin)")
        p.add_argument("--output", default="-", help="output path (default stdout)")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="residual/singularity tolerance")
        p.set_defaults(handler=handler)
        return p

    add("eig", _cmd_eig, "eigenvalues of a circulant, mu-, or skew circulant")
    add("forms", _cmd_forms, "characteristic forms q_1..q_n (exact for rational input)")
    add("charpoly", _cmd_charpoly, "monic characteristic polynomial")
    add("inverse", _cmd_inverse, "inverse from the reciprocal spectrum 1/lambda_j", tol=True)
    add("conjugate", _cmd_conjugate, "adjugate-analogue conjugate element")
    add("hopf-counit", _cmd_hopf_counit, "counit (coefficient sum)")
    add("hopf-delta", _cmd_hopf_delta, "coproduct as block circulant with circulant blocks")
    add("hopf-antipode", _cmd_hopf_antipode, "antipode (transpose)")
    add("hopf-verify", _cmd_hopf_verify, "check counit/antipode/integral identities", tol=True)
    add("mu-eig", _cmd_mu_eig, "closed-form eigen decomposition of a twisted circulant")
    add("cocycle-verify", _cmd_cocycle_verify, "check the two-cocycle identity", tol=True)
    add("skew", _cmd_skew, "identify a skew circulant as a weighted circulant")
    brandt = add("brandt-check", _cmd_brandt_check, "integral/rational Brandt predicate")
    brandt.add_argument("--mode", choices=("integral", "rational"), default="integral")
    add("spectrum-reconstruct", _cmd_spectrum_reconstruct, "coefficients from an exact spectrum")
    add("lattice-solve", _cmd_lattice_solve, "decompose a target over a lattice basis")
    add("factorize", _cmd_factorize, "diagonal-times-circulant coefficients of a dense matrix")
    verify_all = add("verify-all", _cmd_verify_all, "run every module's invariant suite", reads=False)
    verify_all.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="RNG seed (hex ok)")
    bench = add("bench", _cmd_bench, "time each row of bench.ROWS after cross-checking it", reads=False)
    # 100 exercises the mixed-radix transform; it comes last so that the
    # default seed still draws the same inputs for 16, 64 and 256.
    bench.add_argument("--sizes", type=_sizes, default=[16, 64, 256, 100], help="comma-separated orders")
    bench.add_argument("--reps", type=int, default=5, help="repetitions per row (>= 3)")
    bench.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="RNG seed (hex ok)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``), write its
    result to --output and return its exit code: 0 success, 1 domain
    failure, 2 usage error or malformed input (a `CirculantError` exits
    with the status its type declares), 3 internal error.  Errors go to
    stderr as one line.  The argument parser is built on the first call
    and reused by every later call in the same process."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        result, code = args.handler(args)
        _write_text(args.output, result if isinstance(result, str) else dump_json(result))
        return code
    except CirculantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
