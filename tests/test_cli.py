import io
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from circulants import bench, documents
from circulants.cli import main
from circulants.errors import CirculantError


def run_cli(args, stdin_text="", capsys=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def circulant_doc(*row):
    return {
        "kind": "circulant",
        "n": len(row),
        "first_row": [[repr(float(x)), "0.0"] for x in row],
    }


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_eig_allones(tmp_path, capsys):
    path = write(tmp_path, "c.json", circulant_doc(1, 1, 1))
    code, out, _ = run_cli(["eig", "--input", path], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "spectrum" and doc["n"] == 3
    values = [complex(float(re), float(im)) for re, im in doc["values"]]
    assert values[0] == pytest.approx(3)
    assert abs(values[1]) <= 1e-12 and abs(values[2]) <= 1e-12


def test_eig_from_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["eig"], stdin_text=json.dumps(circulant_doc(0, 1)), capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert [float(re) for re, _ in doc["values"]] == pytest.approx([1, -1], abs=1e-12)


def test_inverse_success_and_singular(tmp_path, capsys):
    path = write(tmp_path, "c.json", circulant_doc(1, 2, 3))
    code, out, _ = run_cli(["inverse", "--input", path], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    values = [float(re) for re, _ in doc["first_row"]]
    assert values == pytest.approx([-5 / 18, 7 / 18, 1 / 18], abs=1e-12)

    path = write(tmp_path, "s.json", circulant_doc(1, 1, 0, 0))
    code, out, err = run_cli(["inverse", "--input", path], capsys=capsys)
    assert code == 1
    assert out == ""
    assert "j=3" in err  # witness root of unity is named

    # (x - 1)^10 + J at n = 64: every eigenvalue is nonzero (det = 64^11),
    # but |lambda_2| = |omega - 1|^10 falls under the float rule's threshold
    # 1e-10 * max |lambda_j| = 1e-10 * 2^10, and the message says so.
    n, k = 64, 10
    row = [1 + (math.comb(k, i) * (-1) ** (k - i) if i <= k else 0) for i in range(n)]
    doc = {"kind": "rational_circulant", "n": n, "first_row": [str(v) for v in row]}
    path = write(tmp_path, "near.json", doc)
    code, out, err = run_cli(["inverse", "--input", path], capsys=capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: numerically singular circulant: |lambda_j|=8.284e-11 <= 1.024e-07"
        " at root-of-unity slot j=2\n"
    )


def test_conjugate(tmp_path, capsys):
    path = write(tmp_path, "c.json", circulant_doc(1, 2, 3))
    code, out, _ = run_cli(["conjugate", "--input", path], capsys=capsys)
    assert code == 0
    values = [float(re) for re, _ in json.loads(out)["first_row"]]
    assert values == pytest.approx([-5, 7, 1], abs=1e-9)


def test_forms_and_charpoly_exact_for_rational_input(tmp_path, capsys):
    doc = {"kind": "rational_circulant", "n": 3, "first_row": ["2", "1", "1"]}
    path = write(tmp_path, "r.json", doc)
    code, out, _ = run_cli(["forms", "--input", path], capsys=capsys)
    assert code == 0
    assert json.loads(out)["q"] == ["6", "9", "4"]
    code, out, _ = run_cli(["charpoly", "--input", path], capsys=capsys)
    assert code == 0
    assert json.loads(out)["monic_coefficients"] == ["1", "-6", "9", "-4"]


@pytest.mark.parametrize(
    "command, row, field, want",
    (
        ("forms", (1.5, -2, 0.25, 3), "q", ["6.0", "37.375", "98.125", "54.78515625"]),
        ("charpoly", (-1.5, 2, 0.25), "monic_coefficients", ["1.0", "4.5", "5.25", "-6.890625"]),
    ),
)
def test_forms_and_charpoly_of_a_real_row_have_no_negative_zero(tmp_path, capsys, command, row, field, want):
    # The spectrum of a real row is closed under conjugation, so every
    # form and coefficient is real, written with the imaginary part "0.0".
    path = write(tmp_path, "c.json", circulant_doc(*row))
    code, out, _ = run_cli([command, "--input", path], capsys=capsys)
    assert code == 0
    assert json.loads(out)[field] == [[re, "0.0"] for re in want]


@pytest.mark.parametrize("command, field", (("forms", "q"), ("charpoly", "monic_coefficients")))
def test_forms_and_charpoly_of_a_real_row_are_real_at_a_composite_order(tmp_path, capsys, command, field):
    # At n = 24 numpy's transform of a real row is not closed under
    # conjugation to the last bit; the row itself says the forms are real.
    row = np.random.default_rng(24).uniform(-1.0, 1.0, 24)
    path = write(tmp_path, "c.json", circulant_doc(*row))
    code, out, _ = run_cli([command, "--input", path], capsys=capsys)
    assert code == 0
    pairs = json.loads(out)[field]
    assert len(pairs) == 24 + (command == "charpoly")
    assert {im for _, im in pairs} == {"0.0"}


def test_hopf_subcommands(tmp_path, capsys):
    path = write(tmp_path, "c.json", circulant_doc(1, 2, 3))
    code, out, _ = run_cli(["hopf-counit", "--input", path], capsys=capsys)
    assert code == 0 and float(json.loads(out)["value"][0]) == 6.0

    code, out, _ = run_cli(["hopf-antipode", "--input", path], capsys=capsys)
    assert code == 0
    assert [float(re) for re, _ in json.loads(out)["first_row"]] == [1, 3, 2]

    code, out, _ = run_cli(["hopf-delta", "--input", path], capsys=capsys)
    assert code == 0
    blocks = json.loads(out)["blocks"]
    assert [[float(re) for re, _ in block] for block in blocks] == [
        [1, 0, 0],
        [0, 2, 0],
        [0, 0, 3],
    ]

    code, out, _ = run_cli(["hopf-verify", "--input", path], capsys=capsys)
    assert code == 0
    assert all(check["holds"] for check in json.loads(out)["checks"])


def test_mu_eig_and_skew(tmp_path, capsys):
    skew_doc = {
        "kind": "skew_circulant",
        "n": 2,
        "first_row": [["1.0", "0.0"], ["1.0", "0.0"]],
    }
    path = write(tmp_path, "s.json", skew_doc)
    code, out, _ = run_cli(["mu-eig", "--input", path], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    values = sorted(
        (complex(float(re), float(im)) for re, im in doc["values"]),
        key=lambda z: z.imag,
    )
    assert values == pytest.approx([1 - 1j, 1 + 1j], abs=1e-12)

    code, out, _ = run_cli(["skew", "--input", path], capsys=capsys)
    assert code == 0
    converted = json.loads(out)
    assert converted["kind"] == "mu_circulant"
    mu = [complex(float(re), float(im)) for re, im in converted["mu"]]
    assert mu == pytest.approx([1j], abs=1e-12)  # sigma = i for n = 2


def test_cocycle_verify_table_and_failure(tmp_path, capsys):
    good = {
        "kind": "cocycle",
        "n": 2,
        "table": [[["1", "0"], ["1", "0"]], [["1", "0"], ["5", "0"]]],
    }
    path = write(tmp_path, "good.json", good)
    code, out, _ = run_cli(["cocycle-verify", "--input", path], capsys=capsys)
    assert code == 0

    one = ["1", "0"]
    bad = {
        "kind": "cocycle",
        "n": 3,
        "table": [[one, one, one], [one, ["1.1", "0"], one], [one, one, one]],
    }
    path = write(tmp_path, "bad.json", bad)
    code, out, _ = run_cli(["cocycle-verify", "--input", path], capsys=capsys)
    assert code == 1
    assert not json.loads(out)["checks"][0]["holds"]


def test_brandt_check_cli(tmp_path, capsys):
    docs = [
        {"kind": "rational_circulant", "n": 3, "first_row": ["2", "1", "1"]},
        {"kind": "rational_circulant", "n": 3, "first_row": ["1", "1", "1"]},
    ]
    path = write(tmp_path, "set.json", docs)
    code, out, _ = run_cli(["brandt-check", "--input", path], capsys=capsys)
    assert code == 0 and json.loads(out)["holds"]

    bad = [{"kind": "rational_circulant", "n": 3, "first_row": ["1/2", "0", "0"]}]
    path = write(tmp_path, "bad.json", bad)
    code, out, _ = run_cli(["brandt-check", "--input", path], capsys=capsys)
    assert code == 1
    payload = json.loads(out)
    assert not payload["holds"]
    assert payload["counterexample"]["form_index"] == 1
    assert payload["counterexample"]["value"] == "3/2"


@pytest.mark.parametrize(
    "rows",
    [
        [["2", "1", "1"], ["1", "1", "1"]],
        [["1/4", "1/4", "1/4", "1/4"], ["1/2", "0", "1/2", "0"], ["3", "-1", "0", "2"]],
        [["1/2", "0", "0"]],
        [["1", "2", "0", "-1"], ["1/3", "1/3", "1/3", "1/3"]],
        [["1/6"] * 6, ["1/2", "0", "0", "1/2", "0", "0"], ["1/3", "1/6", "0", "0", "0", "1/2"]],
    ],
    ids=["integer", "idempotents", "half", "thirds", "order-6"],
)
def test_brandt_check_cli_writes_the_oracle_verdict(tmp_path, capsys, rows):
    from fractions import Fraction

    from circulants.oracle import brandt_check_by_forms

    want = brandt_check_by_forms([[Fraction(x) for x in row] for row in rows])
    payload = {"kind": "brandt", "mode": "integral", "holds": want is None}
    if want is not None:
        pair, combination, form_index, value = want
        payload["counterexample"] = {
            "pair": list(pair),
            "combination": combination,
            "form_index": form_index,
            "value": str(value),
        }
    docs = [{"kind": "rational_circulant", "n": len(row), "first_row": row} for row in rows]
    code, out, err = run_cli(["brandt-check", "--input", write(tmp_path, "set.json", docs)], capsys=capsys)
    assert (code, err) == (0 if want is None else 1, "")
    assert out == json.dumps(payload, indent=2) + "\n"


def test_spectrum_reconstruct_cli(tmp_path, capsys):
    doc = {"kind": "spectrum", "n": 3, "values": ["4", "1", "1"]}
    path = write(tmp_path, "spec.json", doc)
    code, out, _ = run_cli(["spectrum-reconstruct", "--input", path], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["real"] is True
    values = [float(re) for re, _ in payload["circulant"]["first_row"]]
    assert values == pytest.approx([2, 1, 1], abs=1e-9)


def test_lattice_solve_cli(tmp_path, capsys):
    basis = {
        "kind": "dense",
        "n": 3,
        "entries": [["0", "-1", "1"], ["-1/3", "1/3", "1/3"], ["1/3", "2/3", "-1/3"]],
    }
    target = {"kind": "rational_circulant", "n": 3, "first_row": ["1", "0", "0"]}
    path = write(tmp_path, "problem.json", [basis, target])
    code, out, _ = run_cli(["lattice-solve", "--input", path], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["coefficients"] == ["1", "-1", "2"]

    non_member = {"kind": "rational_circulant", "n": 3, "first_row": ["1/2", "0", "0"]}
    identity_basis = {
        "kind": "dense",
        "n": 3,
        "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    path = write(tmp_path, "nm.json", [identity_basis, non_member])
    code, out, _ = run_cli(["lattice-solve", "--input", path], capsys=capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["coefficients"] == ["1/2", "0", "0"]


def test_factorize_cli(tmp_path, capsys):
    doc = {
        "kind": "dense",
        "n": 2,
        "entries": [[["1", "0"], ["2", "0"]], [["3", "0"], ["4", "0"]]],
    }
    path = write(tmp_path, "dense.json", doc)
    code, out, _ = run_cli(["factorize", "--input", path], capsys=capsys)
    assert code == 0
    grid = [[float(re) for re, _ in row] for row in json.loads(out)["grid"]]
    assert grid == [[1, 2], [4, 3]]


def test_output_file_and_roundtrip(tmp_path, capsys):
    in_path = write(tmp_path, "c.json", circulant_doc(1, 2, 3))
    out_path = str(tmp_path / "out.json")
    code, _, _ = run_cli(
        ["hopf-antipode", "--input", in_path, "--output", out_path], capsys=capsys
    )
    assert code == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["kind"] == "circulant"


def test_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, out, err = run_cli(["eig", "--input", str(path)], capsys=capsys)
    assert code == 2 and "document" in err

    path = tmp_path / "badkind.json"
    path.write_text(json.dumps({"kind": "toeplitz", "n": 1, "first_row": [["1", "0"]]}))
    code, _, err = run_cli(["eig", "--input", str(path)], capsys=capsys)
    assert code == 2 and "kind" in err


def test_dimension_mismatch_exits_2(tmp_path, capsys):
    basis = {"kind": "dense", "n": 2, "entries": [["1", "0"], ["0", "1"]]}
    target = {"kind": "rational_circulant", "n": 3, "first_row": ["1", "0", "0"]}
    path = write(tmp_path, "mismatch.json", [basis, target])
    code, _, err = run_cli(["lattice-solve", "--input", path], capsys=capsys)
    assert code == 2 and "order" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_bench_cli_and_preconditions(capsys):
    code, out, _ = run_cli(["bench", "--sizes", "2,4,8", "--reps", "3"], capsys=capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 54
    methods = {(rec["n"], rec["method"]) for rec in lines}
    assert (2, "dense") in methods and (4, "naive") in methods and (8, "spectral") in methods
    assert (2, "cli-eig") in methods and (8, "integer-spectrum") in methods and (4, "add") in methods
    assert (8, "block-mul") in methods and (2, "hopf-verify") in methods
    assert (4, "parse") in methods and (8, "encode") in methods and (2, "brandt") in methods
    assert (2, "mu-mul") in methods and (8, "mu-eig") in methods and (4, "forms") in methods
    assert (2, "inverse") in methods and (4, "verdict") in methods and (8, "verify-cocycle") in methods
    naive4 = next(r for r in lines if r["n"] == 4 and r["method"] == "naive")
    spectral4 = next(r for r in lines if r["n"] == 4 and r["method"] == "spectral")
    assert naive4["checksum"] == pytest.approx(spectral4["checksum"], rel=1e-9)

    code, _, err = run_cli(["bench", "--reps", "1"], capsys=capsys)
    assert code == 2 and err == "error: bench: need at least 3 repetitions, got 1\n"
    code, _, err = run_cli(["bench", "--sizes", "1,8", "--reps", "3"], capsys=capsys)
    assert code == 2 and err == "error: bench: every bench size must be >= 2\n"


@pytest.mark.parametrize(
    "sizes, reps, message",
    (
        ([], 3, "every bench size must be >= 2"),
        ([4], 2, "need at least 3 repetitions, got 2"),
        ([4097], 3, "every bench size must be <= 4096"),
        ([16, 100000000], 3, "every bench size must be <= 4096"),
    ),
    ids=("no-sizes", "reps-2", "4097", "10^8"),
)
def test_bench_preconditions_are_document_errors(sizes, reps, message):
    with pytest.raises(documents.DocumentError) as info:
        bench.run_bench(sizes, reps)
    assert str(info.value) == f"bench: {message}" and info.value.field == "bench"


def test_verify_all_cli(capsys):
    code, out, _ = run_cli(["verify-all", "--seed", "0x5EED"], capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert "passed" in lines[-1]


#: verify-all's output at seed 0x5EED.  It checks the package only, so no
#: check is named after the oracle; the deviations are pinned, so that a
#: change to any check's inputs or arithmetic shows here.
VERIFY_ALL_AT_0X5EED = """\
ok core.naive-product-matches-dense-product max_dev=3.580e-15
ok core.convolution-commutes max_dev=1.998e-15
ok core.transpose-matches-dense-transpose max_dev=0.000e+00
ok core.shift-powers-rebuild-circulant max_dev=0.000e+00
ok core.dense-first-row-is-verbatim max_dev=0.000e+00
ok spectral.spectrum-roundtrip max_dev=6.280e-16
ok spectral.transform-linearity max_dev=4.680e-15
ok spectral.eigen-residuals max_dev=4.851e-16
ok spectral.fast-product-matches-naive max_dev=5.607e-17
ok forms.element-satisfies-char-poly max_dev=2.032e-17
ok forms.trace-of-conjugate-is-q(n-1) max_dev=5.800e-16
ok forms.q2-sum-identity max_dev=1.188e-14
ok forms.closed-forms-n3-n4 max_dev=2.665e-15
ok forms.char-poly-matches-trace-recurrence max_dev=2.462e-17
ok hopf.axiom-residuals max_dev=1.337e-16
ok hopf.coproduct-is-algebra-map max_dev=9.155e-16
ok hopf.product-matches-convolution max_dev=1.443e-15
ok hopf.coassociativity-exact max_dev=0.000e+00
ok hopf.delta-spectrum-multiplicity-n max_dev=1.307e-14
ok hopf.factorization-roundtrip max_dev=0.000e+00
ok hopf.antipode-involution max_dev=0.000e+00
ok twisted.coboundary-satisfies-cocycle-identity max_dev=6.106e-16
ok twisted.product-transport-matches-dense max_dev=3.087e-16
ok twisted.eigen-residuals max_dev=7.427e-16
ok twisted.skew-is-sign-flipped-circulant max_dev=5.813e-16
ok twisted.skew-root-squares-to-omega max_dev=5.598e-15
ok lattice.reference-basis-inverse max_dev=0.000e+00
ok lattice.reference-decomposition max_dev=0.000e+00
ok lattice.integral-targets-decompose max_dev=0.000e+00
ok lattice.integer-spectra-and-brandt max_dev=0.000e+00
ok lattice.spectrum-reconstruction max_dev=0.000e+00
ok lattice.exact-char-poly-matches-oracle max_dev=0.000e+00
ok lattice.basis-det-and-unit-rows-match-oracle max_dev=0.000e+00
33/33 invariant checks passed (seed 0x5eed)
"""


def test_verify_all_checks_the_package_not_its_references(capsys):
    code, out, _ = run_cli(["verify-all", "--seed", "0x5EED"], capsys=capsys)
    names = [line.split()[1] for line in out.splitlines()[:-1]]
    assert code == 0 and not [name for name in names if name.startswith("oracle.")]
    assert out == VERIFY_ALL_AT_0X5EED


def test_seed_changes_bench_inputs(capsys):
    code, out1, _ = run_cli(["bench", "--sizes", "4", "--reps", "3", "--seed", "1"], capsys=capsys)
    assert code == 0
    code, out2, _ = run_cli(["bench", "--sizes", "4", "--reps", "3", "--seed", "2"], capsys=capsys)
    assert code == 0
    cs1 = json.loads(out1.strip().splitlines()[0])["checksum"]
    cs2 = json.loads(out2.strip().splitlines()[0])["checksum"]
    assert cs1 != cs2


@pytest.mark.parametrize(
    "args, message",
    (
        (["bench", "--sizes", "4097", "--reps", "3"], "error: bench: every bench size must be <= 4096\n"),
        (["bench", "--sizes", "4,x"], "argument --sizes: bad size list '4,x'"),
        (["verify-all", "--input", "no-such-file"], "unrecognized arguments: --input no-such-file"),
        (["bench", "--input", "no-such-file"], "unrecognized arguments: --input no-such-file"),
    ),
    ids=("size-4097", "bad-size-list", "verify-all-input", "bench-input"),
)
def test_bench_and_verify_all_usage_errors_exit_2(capsys, args, message):
    # verify-all and bench read no document, so they take no --input.
    code, out, err = run_cli(args, capsys=capsys)
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize(
    "args", (["verify-all", "--seed", "-1"], ["bench", "--seed", "-1", "--sizes", "4", "--reps", "3"])
)
def test_negative_seed_is_a_usage_error(capsys, args):
    code, out, err = run_cli(args, capsys=capsys)
    assert (code, out) == (2, "")
    assert "argument --seed: seed must be a non-negative integer, got '-1'" in err


def test_internal_error_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    def defect(c, threshold=None):
        raise RuntimeError("a\nb")

    monkeypatch.setattr("circulants.cli.inverse_of", defect)
    path = write(tmp_path, "c.json", circulant_doc(1, 2, 3))
    code, out, err = run_cli(["inverse", "--input", path], capsys=capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: RuntimeError")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_inverse_of_large_well_conditioned_document(tmp_path, capsys):
    # circ(200, 60, 0, ..., 0) at n = 128: eigenvalue moduli in [140, 260],
    # determinant about 1e294.
    row = (200, 60, *([0] * 126))
    path = write(tmp_path, "big.json", circulant_doc(*row))
    code, out, err = run_cli(["inverse", "--input", path], capsys=capsys)
    assert code == 0 and err == ""
    inv = [complex(float(re), float(im)) for re, im in json.loads(out)["first_row"]]
    product = np.fft.ifft(np.fft.fft(row) * np.fft.fft(inv))
    assert np.max(np.abs(product - np.eye(128)[0])) <= 1e-12


def test_rational_entry_beyond_float_range_exits_2(tmp_path, capsys):
    doc = {"kind": "rational_circulant", "n": 2, "first_row": ["1e400", "1"]}
    path = write(tmp_path, "huge.json", doc)
    code, out, err = run_cli(["eig", "--input", path], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "float range" in err


@pytest.mark.parametrize("command", ("forms", "charpoly"))
def test_forms_beyond_float_range_exit_2(tmp_path, capsys, command):
    # circ(300, 1, ..., 1) at n = 128: q_127 and q_128 are about 1e316.
    path = write(tmp_path, "big.json", circulant_doc(300, *([1] * 127)))
    code, out, err = run_cli([command, "--input", path], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "float range" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("tol", ("-1", "nan"))
def test_inverse_rejects_negative_or_nan_tol(tmp_path, capsys, tol):
    path = write(tmp_path, "c.json", circulant_doc(1, 1, 0, 0))
    code, out, err = run_cli(["inverse", "--tol", tol, "--input", path], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "threshold" in err
    assert len(err.strip().splitlines()) == 1


def _cocycle_doc(b):
    one, big = ["1", "0"], [repr(b), "0"]
    return {"kind": "cocycle", "n": 3, "table": [[one, one, one], [one, big, big], [one, big, big]]}


@pytest.mark.parametrize(
    "command, doc",
    (
        ("hopf-counit", circulant_doc(1e308, 1e308)),
        ("hopf-verify", circulant_doc(1e308, 1e308)),
        ("cocycle-verify", _cocycle_doc(1e200)),
        ("cocycle-verify", _cocycle_doc(1e-200)),
    ),
)
def test_hopf_and_cocycle_beyond_float_range_exit_2(tmp_path, capsys, command, doc):
    path = write(tmp_path, "doc.json", doc)
    code, out, err = run_cli([command, "--input", path], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "float range" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("tol", ("-1", "nan"))
@pytest.mark.parametrize(
    "command, doc",
    (("hopf-verify", circulant_doc(1, 2, 3)), ("cocycle-verify", _cocycle_doc(1.0))),
)
def test_verifiers_reject_negative_or_nan_tol(tmp_path, capsys, command, doc, tol):
    path = write(tmp_path, "doc.json", doc)
    code, out, err = run_cli([command, "--tol", tol, "--input", path], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "tolerance" in err
    assert len(err.strip().splitlines()) == 1


_ONE = ["1", "0"]
_LAYOUT_CASES = {
    "eig": circulant_doc(1, 2, 3, 4),
    "forms": circulant_doc(1, 2, 3, 4),
    "charpoly": {"kind": "rational_circulant", "n": 3, "first_row": ["2", "1/2", "-1"]},
    "inverse": circulant_doc(1, 2, 3),
    "conjugate": circulant_doc(1, 2, 3),
    "hopf-counit": circulant_doc(1, 2, 3),
    "hopf-delta": circulant_doc(1, 2, 3),
    "hopf-antipode": circulant_doc(1, 2, 3),
    "hopf-verify": circulant_doc(1, 2, 3),
    "mu-eig": {"kind": "mu_circulant", "n": 3, "first_row": [_ONE, ["2", "-1"], _ONE],
               "mu": [["0.5", "1"], ["-2", "0"]]},
    "cocycle-verify": {"kind": "cocycle", "n": 2, "table": [[_ONE, _ONE], [_ONE, ["5", "0"]]]},
    "skew": {"kind": "skew_circulant", "n": 3, "first_row": [_ONE, ["2", "0"], ["0", "-3"]]},
    "brandt-check": [{"kind": "rational_circulant", "n": 3, "first_row": ["1/2", "0", "0"]}],
    "spectrum-reconstruct": {"kind": "spectrum", "n": 3, "values": ["4", "1", "1"]},
    "lattice-solve": [
        {"kind": "dense", "n": 2, "entries": [["1", "0"], ["0", "1"]]},
        {"kind": "rational_circulant", "n": 2, "first_row": ["1/2", "3"]},
    ],
    "factorize": {"kind": "dense", "n": 2, "entries": [[_ONE, ["2", "0"]], [["3", "0"], ["4", "-1"]]]},
}


@pytest.mark.parametrize("command", sorted(_LAYOUT_CASES))
def test_result_documents_are_indent_2_json(tmp_path, capsys, command):
    path = write(tmp_path, "in.json", _LAYOUT_CASES[command])
    code, out, err = run_cli([command, "--input", path], capsys=capsys)
    assert code in (0, 1) and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_one_process_runs_help_errors_and_repeated_commands(capsys, monkeypatch):
    text = json.dumps(circulant_doc(1, 2, 3, 4, 5))
    assert main(["--help"]) == 0
    assert "eig" in capsys.readouterr().out
    assert main(["eig", "--no-such-option"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    first = run_cli(["eig"], text, capsys, monkeypatch)
    second = run_cli(["eig"], text, capsys, monkeypatch)
    assert first == second and first[0] == 0 and first[1]


@pytest.mark.parametrize(
    "command, doc",
    [
        ("cocycle-verify", {"kind": "cocycle", "n": 2, "table": [5, 6]}),
        ("cocycle-verify", {"kind": "cocycle", "n": 2, "table": [[_ONE], [_ONE, _ONE]]}),
        ("cocycle-verify", {"kind": "cocycle", "n": True, "table": [[_ONE]]}),
        ("eig", {"kind": "circulant", "n": 1, "first_row": [[True, False]]}),
        ("eig", {"kind": "circulant", "n": 1, "first_row": [["1", False]]}),
        ("mu-eig", {"kind": "mu_circulant", "n": 2, "first_row": [_ONE, _ONE], "mu": [[True, "0"]]}),
        ("spectrum-reconstruct", {"kind": "spectrum", "n": True, "values": ["4"]}),
    ],
)
def test_malformed_documents_past_the_decoder_exit_2(tmp_path, capsys, command, doc):
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run_cli([command, "--input", path], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_bench_cli_eig_row_checks_before_timing(monkeypatch):
    from circulants import bench

    rows = [r for r in bench.run_bench([8, 12], reps=3) if r.method == "cli-eig"]
    assert [r.n for r in rows] == [8, 12]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    def doubled(doc):
        return doc.to_circulant().scale(2)

    monkeypatch.setattr("circulants.cli._untwisted", doubled)
    with pytest.raises(bench.BenchDisagreementError, match="cli eig"):
        bench.run_bench([8], reps=3)


def test_bench_integer_spectrum_row_checks_before_timing(monkeypatch):
    from circulants import bench, integer_spectrum

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == "integer-spectrum"]
    assert [r.n for r in rows] == [4, 12]
    # circ(1, 4, 2, 4) has the spectrum (11, -1, -5, -1).
    assert rows[0].checksum == 18.0 and all(r.median_ns > 0 for r in rows)

    def shifted(c, mode="integral"):
        spectrum = integer_spectrum(c, mode)
        return type(spectrum)(spectrum.values[1:] + spectrum.values[:1])

    monkeypatch.setattr(bench, "integer_spectrum", shifted)
    with pytest.raises(bench.BenchDisagreementError, match="integer_spectrum"):
        bench.run_bench([4], reps=3)
    monkeypatch.setattr(bench, "integer_spectrum", lambda c, mode="integral": None)
    with pytest.raises(bench.BenchDisagreementError, match="integer_spectrum"):
        bench.run_bench([4], reps=3)


def test_bench_brandt_row_checks_before_timing(monkeypatch):
    from fractions import Fraction

    from circulants import bench, brandt_check
    from circulants.lattice import BrandtCounterexample, BrandtVerdict

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == "brandt"]
    assert [r.n for r in rows] == [4, 12]
    # (X - 1/2)^4 has q_1 = 2, q_2 = 3/2; (X - 1/2)^12 has q_1 = 6, q_2 = 33/2.
    assert [r.checksum for r in rows] == [1.5, 16.5] and all(r.median_ns > 0 for r in rows)

    def next_form(elements, mode="integral"):
        ce = brandt_check(elements, mode).counterexample
        if ce is None:
            return BrandtVerdict(True)
        shifted = BrandtCounterexample(ce.pair, ce.combination, ce.form_index + 1, ce.value)
        return BrandtVerdict(False, shifted)

    always_fails = BrandtVerdict(False, BrandtCounterexample((0, 0), "a", 2, Fraction(3, 2)))
    always_holds = BrandtVerdict(True)
    for wrong in (next_form, lambda e, mode="integral": always_holds, lambda e, mode="integral": always_fails):
        monkeypatch.setattr(bench, "brandt_check", wrong)
        with pytest.raises(bench.BenchDisagreementError, match="brandt_check"):
            bench.run_bench([4], reps=3)


def test_bench_exact_char_poly_row_checks_before_timing(monkeypatch):
    from circulants import bench, exact_char_poly

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == "exact-char-poly"]
    assert [r.n for r in rows] == [4, 12]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    def last_off_by_one(c):
        return (*exact_char_poly(c)[:-1], exact_char_poly(c)[-1] + 1)

    def off_by_one_past_2i_plus_p(c):
        return exact_char_poly(c) if c.coeffs[:2] == (2, 1) else last_off_by_one(c)

    for wrong, match in (
        (last_off_by_one, "2I \\+ P"),
        (off_by_one_past_2i_plus_p, "annihilate"),
    ):
        monkeypatch.setattr(bench, "exact_char_poly", wrong)
        with pytest.raises(bench.BenchDisagreementError, match=match):
            bench.run_bench([4], reps=3)
    monkeypatch.undo()
    # No record above the bound, and no call: the row is never built there.
    # Every -3..3 row of order 8 costs at most circ(3, ..., 3).
    from circulants import lattice

    monkeypatch.setattr(lattice, "_EXACT_MAX_COST", lattice._exact_cost(bench.rational_circ([3] * 8)))
    rows = bench.run_bench([8, 12], reps=3)
    assert [r.n for r in rows if r.method == "exact-char-poly"] == [8]
    assert {r.method for r in rows if r.n == 12} == {name for name, _ in bench.ROWS} - {"exact-char-poly"}


def test_bench_block_mul_row_checks_before_timing(monkeypatch):
    from circulants import bench

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == "block-mul"]
    assert [r.n for r in rows] == [4, 12]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    monkeypatch.setattr(bench, "block_mul", lambda a, b: a)
    with pytest.raises(bench.BenchDisagreementError, match="block_mul"):
        bench.run_bench([4], reps=3)


def test_bench_hopf_verify_row_checks_before_timing(monkeypatch):
    from circulants import bench
    from circulants.hopf import HopfReport

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == "hopf-verify"]
    assert [r.n for r in rows] == [4, 12]
    assert all(r.median_ns > 0 and r.checksum >= 0 for r in rows)

    # A residual that holds within tol but is not the exact 0.0 is refused.
    monkeypatch.setattr(bench, "verify_antipode_axiom", lambda c: HopfReport("antipode", True, 1e-17))
    with pytest.raises(bench.BenchDisagreementError, match="hopf-verify"):
        bench.run_bench([4], reps=3)
    monkeypatch.setattr(bench, "verify_antipode_axiom", lambda c: HopfReport("antipode", False, 0.0))
    with pytest.raises(bench.BenchDisagreementError, match="hopf-verify"):
        bench.run_bench([4], reps=3)


def test_bench_add_row_checks_before_timing(monkeypatch):
    from circulants import Circulant, bench

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == "add"]
    assert [r.n for r in rows] == [4, 12]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    monkeypatch.setattr(Circulant, "__add__", lambda x, y: Circulant(x.array - y.array))
    with pytest.raises(bench.BenchDisagreementError, match="tuple sum"):
        bench.run_bench([4], reps=3)


def test_bench_parse_row_checks_before_timing(monkeypatch):
    from circulants import Circulant, bench

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == "parse"]
    assert [r.n for r in rows] == [4, 12]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    # A row whose one zero imaginary part lost its sign still compares
    # equal as numbers; the bench compares bits.
    real = Circulant([-0.0, 1.0, 2.0, 3.0])
    assert bench._parse(real)[1] == 6.0
    decode = documents.parse_documents

    def unsigned(text):
        return decode(text.replace('"-0.0"', '"0.0"'))

    monkeypatch.setattr(bench, "parse_documents", unsigned)
    with pytest.raises(bench.BenchDisagreementError, match="decoded row"):
        bench._parse(real)


def test_bench_encode_row_checks_before_timing(monkeypatch):
    from circulants import bench

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == "encode"]
    assert [r.n for r in rows] == [4, 12]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    monkeypatch.setattr(bench, "dump_json", lambda obj: json.dumps(obj) + "\n")
    with pytest.raises(bench.BenchDisagreementError, match="dump_json"):
        bench.run_bench([4], reps=3)


def test_bench_twisted_rows_check_before_timing(monkeypatch):
    from circulants import bench, mu_eigen

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method in ("mu-mul", "mu-eig")]
    assert [(r.n, r.method) for r in rows] == [
        (4, "mu-mul"), (4, "mu-eig"), (12, "mu-mul"), (12, "mu-eig")
    ]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    monkeypatch.setattr(bench, "mu_mul", lambda x, y: x)
    with pytest.raises(bench.BenchDisagreementError, match="mu_mul"):
        bench.run_bench([4], reps=3)
    monkeypatch.undo()

    def shifted(m):
        eig = mu_eigen(m)
        return type(eig)(eig.spectrum, np.roll(eig.vectors, 1, axis=1))

    monkeypatch.setattr(bench, "mu_eigen", shifted)
    with pytest.raises(bench.BenchDisagreementError, match="mu_eigen"):
        bench.run_bench([4], reps=3)


def test_bench_forms_row_checks_before_timing(monkeypatch):
    from circulants import bench, circ, forms
    from circulants.forms import FormsVector

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == "forms"]
    assert [r.n for r in rows] == [4, 12]
    # 2I + P at n = 4: q = (8, 24, 32, 15), so sum_i |q_i| 2^-i = 4 + 6 + 4 + 15/16.
    assert rows[0].checksum == 14.9375 and all(r.median_ns > 0 for r in rows)
    # No record where the forms leave the float range.
    assert bench._forms(circ(*[0] * 649)) is not None and bench._forms(circ(*[0] * 650)) is None

    def last_off(c):
        q = forms(c).q
        return FormsVector(q[:-1] + (q[-1] * (1 + 1e-9),))

    monkeypatch.setattr(bench, "forms", last_off)
    with pytest.raises(bench.BenchDisagreementError, match="forms of 2I \\+ P"):
        bench.run_bench([12], reps=3)


def test_bench_inverse_row_checks_before_timing(monkeypatch):
    from circulants import bench, circ, inverse

    rows = [r for r in bench.run_bench([2, 12], reps=3) if r.method == "inverse"]
    assert [r.n for r in rows] == [2, 12]
    # The checksum is the deviation of c c^-1 from I, checked before timing.
    assert all(0.0 <= r.checksum <= 1e-9 and r.median_ns > 0 for r in rows)
    assert bench._inverse(circ(*[0] * 4096)) is not None

    def first_off(c):
        inv = inverse(c)
        return inv + circ(*([1e-8] + [0] * (c.n - 1)))

    monkeypatch.setattr(bench, "inverse", first_off)
    with pytest.raises(bench.BenchDisagreementError, match="2I \\+ P times its inverse"):
        bench.run_bench([12], reps=3)


def test_bench_verdict_row_checks_before_timing(monkeypatch):
    from circulants import bench, circ
    from circulants.forms import InvertibilityVerdict

    rows = [r for r in bench.run_bench([2, 12], reps=3) if r.method == "verdict"]
    assert [r.n for r in rows] == [2, 12]
    # The checksum is the threshold 1e-10 max |lambda_j| = 2e-10 at even n.
    assert all(r.checksum == 2e-10 and r.median_ns > 0 for r in rows)
    assert bench._verdict(circ(*[0] * 4096)) is not None

    def invertible(c):
        return InvertibilityVerdict(True, None, 0j, 0.0)

    monkeypatch.setattr(bench, "is_invertible", invertible)
    with pytest.raises(bench.BenchDisagreementError, match="I - P gets the verdict"):
        bench.run_bench([12], reps=3)


@pytest.mark.parametrize("holds", ((False, False), (True, True)))
def test_bench_verify_cocycle_row_checks_before_timing(monkeypatch, holds):
    from circulants import bench, circ
    from circulants.hopf import HopfReport

    rows = [r for r in bench.run_bench([2, 12], reps=3) if r.method == "verify-cocycle"]
    assert [r.n for r in rows] == [2, 12]
    assert all(0.0 <= r.checksum <= 1e-10 and r.median_ns > 0 for r in rows)
    assert bench._verify_cocycle(circ(*[0] * 128), None, 1) is not None
    assert bench._verify_cocycle(circ(*[0] * 129), None, 1) is None

    answers = iter(holds)
    monkeypatch.setattr(bench, "verify_cocycle", lambda f: HopfReport("cocycle", next(answers), 0.0))
    with pytest.raises(bench.BenchDisagreementError, match="verify_cocycle holds"):
        bench.run_bench([12], reps=3)


@pytest.mark.parametrize("index", range(len(bench.ROWS)), ids=[name for name, _ in bench.ROWS])
def test_every_bench_row_is_checked_before_any_row_is_timed(monkeypatch, index):
    name = bench.ROWS[index][0]

    def disagrees(x, y, seed):
        raise bench.BenchDisagreementError(f"n={x.n}: {name} disagrees")

    timed = []
    rows = list(bench.ROWS)
    rows[index] = (name, disagrees)
    monkeypatch.setattr(bench, "ROWS", tuple(rows))
    monkeypatch.setattr(bench, "_median_ns", lambda fn, reps: timed.append(fn) or 1)
    with pytest.raises(bench.BenchDisagreementError, match=f"n=4: {name} disagrees"):
        bench.run_bench([4], reps=3)
    assert timed == []


def test_bench_checksums_at_the_default_seed_stay_as_committed():
    # The seeded rows are built from the drawn arrays, and the twisted rows
    # draw from their own generator, so every earlier row keeps the
    # checksum of BENCH_16.json at n = 16, except `block-mul` and
    # `hopf-verify`, whose `*` takes the direct product there.
    committed = {
        "naive": 41.2894955246304,
        "spectral": 41.2894955246304,
        "dense": 41.2894955246304,
        "cli-eig": 44.47017689567819,
        "integer-spectrum": 326.0,
        "add": 14.48901967403918,
        "block-mul": 41.289495524630404,
        "hopf-verify": 5.182285993650705e-17,
        "parse": 11.118917872208826,
        "encode": 1147.0,
        "brandt": 113.75,
        "exact-char-poly": 419.0,
    }
    found = {r.method: r.checksum for r in bench.run_bench([16], reps=3)}
    assert {name: found[name] for name in committed} == committed


def test_bench_cross_checks_pass_at_a_padded_order():
    # fast_mul convolves at a zero-padded length at n = 97; run_bench
    # raises BenchDisagreementError before timing if any row disagrees.
    rows = bench.run_bench([97], reps=3)
    rows_after = ["cli-eig", "integer-spectrum", "add", "block-mul", "hopf-verify"]
    rows_after += ["parse", "encode", "brandt", "exact-char-poly", "mu-mul", "mu-eig", "forms", "inverse"]
    rows_after += ["verdict", "verify-cocycle"]
    assert [r.method for r in rows] == ["naive", "spectral", "dense", *rows_after]
    assert all(r.n == 97 and r.median_ns > 0 for r in rows)


_DOMAIN_ERROR_TYPES = {
    "SingularMatrixError",
    "DependentBasisError",
    "NotIntegralBasisError",
    "RootAssignmentError",
    "BenchDisagreementError",
}


def _error_types(cls=CirculantError) -> list[type]:
    return [cls] + [t for sub in cls.__subclasses__() for t in _error_types(sub)]


def test_every_error_type_declares_its_exit_status():
    # documents and bench define DocumentError and BenchDisagreementError.
    assert documents.DocumentError in _error_types() and bench.BenchDisagreementError in _error_types()
    found = {t.__name__: t.exit_code for t in _error_types()}
    assert found == {name: 1 if name in _DOMAIN_ERROR_TYPES else 2 for name in found}


@pytest.mark.parametrize("error_type", _error_types(), ids=lambda t: t.__name__)
def test_main_exits_with_the_status_the_error_type_declares(tmp_path, capsys, monkeypatch, error_type):
    def failing(c, threshold=None):
        raise error_type("field", "boom") if error_type is documents.DocumentError else error_type("boom")

    monkeypatch.setattr("circulants.cli.inverse_of", failing)
    path = write(tmp_path, "c.json", circulant_doc(1, 2, 3))
    code, out, err = run_cli(["inverse", "--input", path], capsys=capsys)
    assert code == error_type.exit_code and out == ""
    assert err.startswith("error:") and "boom" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "doc, expected", ((circulant_doc(1, 1, 0, 0), 1), ({"kind": "circulant", "n": 2}, 2))
)
def test_failing_command_creates_no_output_file(tmp_path, capsys, doc, expected):
    path = write(tmp_path, "in.json", doc)
    target = tmp_path / "out.json"
    code, out, err = run_cli(["inverse", "--input", path, "--output", str(target)], capsys=capsys)
    assert code == expected and out == "" and err.startswith("error:")
    assert not target.exists()


def test_failed_write_exits_2(tmp_path, capsys):
    path = write(tmp_path, "c.json", circulant_doc(1, 2, 3))
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(["eig", "--input", path, "--output", str(target)], capsys=capsys)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "command, doc",
    (
        # The spectrum (2e308, 0) leaves the float range in the transform.
        ("eig", circulant_doc(1e308, 1e308)),
        # The counit is 0, but the integral check's product overflows in fft.
        ("hopf-verify", circulant_doc(1e308, -1e308, *([0] * 10))),
    ),
)
def test_overflow_exits_2_with_one_stderr_line_and_no_warning(tmp_path, capsys, command, doc):
    path = write(tmp_path, "doc.json", doc)
    before = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli([command, "--input", path], capsys=capsys)
    assert caught == []
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert np.geterr() == before


def test_twisted_eig_builds_no_n_by_n_matrix(capsys, monkeypatch):
    # The eigenvector matrix of a skew circulant takes 64 MB at n = 2048;
    # its spectrum needs only the untwisted row.
    n = 2048
    row = np.random.default_rng(7).standard_normal(n)
    doc = {"kind": "skew_circulant", "n": n, "first_row": [[repr(float(x)), "0.0"] for x in row]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    tracemalloc.start()
    try:
        code = main(["eig"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(json.loads(capsys.readouterr().out)["values"]) == n
    assert peak < 4e6


def complex_doc(kind, *row):
    return {
        "kind": kind,
        "n": len(row),
        "first_row": [[repr(complex(z).real), repr(complex(z).imag)] for z in row],
    }


@pytest.mark.parametrize(
    "command, doc",
    (
        # Skew eigenvalues with finite parts but a modulus near 2.7e308.
        ("forms", complex_doc("skew_circulant", 1e308, 1e308, 1e308)),
        ("charpoly", complex_doc("skew_circulant", 1e308, 1e308, 1e308)),
        # |h_1| is about 1.97e308, so the norm of h leaves the float range.
        # (1.8e308 itself is beyond the float maximum and parses as inf.)
        ("hopf-verify", complex_doc("circulant", 1e308 + 1.7e308j, 1, 2, 0)),
    ),
)
def test_modulus_beyond_float_range_exits_2(tmp_path, capsys, command, doc):
    path = write(tmp_path, "doc.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli([command, "--input", path], capsys=capsys)
    assert caught == []
    assert code == 2 and out == ""
    assert err.startswith("error:") and "float range" in err
    assert len(err.strip().splitlines()) == 1


def test_inverse_of_eigenvalues_beyond_the_reciprocal_range(tmp_path, capsys):
    # Eigenvalues 1e308 (1 + i) and 1e308 (1 - i): a plain complex
    # reciprocal overflows its denominator and returns 0.
    row = (1e308, 1e308j)
    path = write(tmp_path, "doc.json", complex_doc("circulant", *row))
    code, out, err = run_cli(["inverse", "--input", path], capsys=capsys)
    assert code == 0 and err == ""
    inv = [complex(float(re), float(im)) for re, im in json.loads(out)["first_row"]]
    assert inv == pytest.approx([5e-309, -5e-309j], rel=1e-12)



def rational_doc(row):
    return json.dumps({"kind": "rational_circulant", "n": len(row), "first_row": [str(v) for v in row]})


def exact_refusal():
    from circulants import lattice

    bound, model = lattice._EXACT_MAX_COST, lattice._EXACT_COST_MODEL
    return f"error: first_row: the cost of exact forms is more than {bound:.3g} ({model})\n"


@pytest.mark.parametrize("command", ("forms", "charpoly"))
def test_exact_documents_above_the_order_cap_exit_2(capsys, monkeypatch, command):
    # One bound, on the cost model of the stored cleared row rather than
    # on the order: order 256 with entries -3..3 is served, and order 64
    # with 1000-digit integers (18 s to compute) is refused at once.
    import time

    from circulants import lattice

    small = [int(v) for v in np.random.default_rng(0x5EED).integers(-3, 4, 256)]
    assert run_cli([command], rational_doc(small), capsys, monkeypatch)[0] == 0
    wide = [10**999 + k for k in range(64)]
    start = time.perf_counter()
    code, out, err = run_cli([command], rational_doc(wide), capsys, monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", exact_refusal())
    # The edge: a row whose cost equals the bound is served, one above not.
    row = [2, 1] + [0] * 126
    cost = lattice._exact_cost(lattice.rational_circ(row))
    monkeypatch.setattr(lattice, "_EXACT_MAX_COST", cost)
    assert run_cli([command], rational_doc(row), capsys, monkeypatch)[0] == 0
    monkeypatch.setattr(lattice, "_EXACT_MAX_COST", math.nextafter(cost, 0))
    assert run_cli([command], rational_doc(row), capsys, monkeypatch) == (2, "", exact_refusal())


@pytest.mark.parametrize("command", ("forms", "charpoly"))
def test_exact_documents_count_the_common_denominator(capsys, monkeypatch, command):
    # The forms of (1/D, 0, ..., 0) are C(n, i) / D^i: L c is the identity
    # row, but with D of 4299 digits the forms at order 256 would be about
    # 1.4e8 decimal digits.  Refused at once, and from the sizes of the
    # parts alone, before the row is cleared.
    import time

    from circulants import lattice

    def never(row):
        raise AssertionError("cleared a row the lower bound refuses")

    row = [f"1/{10**4298 + 1}"] + ["0"] * 255
    cost = lattice._exact_cost(lattice.RationalCirculant(row))
    assert max(lattice._least_exact_costs(lattice.RationalCirculant(row).coeffs)) == cost > 1e14
    monkeypatch.setattr(lattice, "RationalCirculant", never)
    start = time.perf_counter()
    assert run_cli([command], rational_doc(row), capsys, monkeypatch) == (2, "", exact_refusal())
    assert time.perf_counter() - start < 1.0
    # The same row at order 8 is served: its forms are C(8, i) / D^i.
    monkeypatch.undo()
    code, out, err = run_cli(["forms"], rational_doc(row[:8]), capsys, monkeypatch)
    assert (code, err) == (0, "")
    q = [documents.format_rational(Fraction(math.comb(8, i), (10**4298 + 1) ** i)) for i in range(1, 9)]
    assert json.loads(out)["q"] == q


def test_many_distinct_large_denominators_are_not_cleared_for_floats(capsys, monkeypatch):
    # The float commands convert a rational row entry by entry and never
    # clear it: clearing 128 distinct 4300-digit denominators took 13 s
    # and held a row of 128 integers of 1.8 Mbit each.  The exact commands
    # refuse that row from its parts.
    def never(row):
        raise AssertionError("cleared a rational row")

    from circulants import lattice

    rng = np.random.default_rng(7)
    row = [f"1/{10**4299 + int(rng.integers(1, 10**18))}" for _ in range(128)]
    monkeypatch.setattr(lattice, "RationalCirculant", never)
    code, out, err = run_cli(["eig"], rational_doc(row), capsys, monkeypatch)
    assert (code, err) == (0, "") and len(json.loads(out)["values"]) == 128
    code, out, err = run_cli(["charpoly"], rational_doc(row), capsys, monkeypatch)
    assert (code, out, err) == (2, "", exact_refusal())


def test_exact_results_past_4300_digits_are_written(tmp_path, capsys):
    # Python refuses to write an int of more than 4300 digits in decimal;
    # q_16 of this row has 4838.  charpoly exited 3 on it.
    from circulants import exact_char_poly, rational_circ

    row = [(k * k + 1) * 10**300 + k for k in range(16)]
    path = write(tmp_path, "doc.json", {"kind": "rational_circulant", "n": 16, "first_row": list(map(str, row))})
    code, out, err = run_cli(["charpoly", "--input", path], capsys=capsys)
    assert code == 0 and err == ""
    written = json.loads(out)["monic_coefficients"]
    assert max(map(len, written)) > 4300
    assert written == [documents.format_rational(c) for c in exact_char_poly(rational_circ(row))]


_HUGE = 10**400  # a JSON integer of 401 digits, past the float maximum


@pytest.mark.parametrize(
    "command, doc",
    (
        ("eig", {"kind": "circulant", "n": 2, "first_row": [[_HUGE, 0], [0, 0]]}),
        ("spectrum-reconstruct", {"kind": "spectrum", "n": 2, "values": [[_HUGE, 0], [0, 0]]}),
        ("cocycle-verify", {"kind": "cocycle", "n": 2, "table": [[[1, 0], [1, 0]], [[1, 0], [0, -_HUGE]]]}),
        ("spectrum-reconstruct", {"kind": "spectrum", "n": 2, "values": [str(_HUGE), "0"]}),
    ),
)
def test_integer_beyond_the_float_range_exits_2(tmp_path, capsys, command, doc):
    path = write(tmp_path, "doc.json", doc)
    code, out, err = run_cli([command, "--input", path], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "float range" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "command, text, message",
    (
        ("eig", "[" * 100000, "document: JSON nested too deeply"),
        (
            "forms",
            json.dumps({"kind": "rational_circulant", "n": 1, "first_row": ["1/" + "3" * 4400]}),
            "first_row: rational of more than 4300 digits",
        ),
        (
            "spectrum-reconstruct",
            '{"kind": "spectrum", "n": 2, "values": ["1", "1"], "note": "x"}',
            "note: field not allowed on kind spectrum",
        ),
        (
            "cocycle-verify",
            '{"kind": "cocycle", "n": 1, "table": [[["1", "0"]]], "note": "x"}',
            "note: field not allowed on kind cocycle",
        ),
        (
            "eig",
            json.dumps([circulant_doc(1, 2), circulant_doc(3)]),
            "document: expected exactly one document, got 2",
        ),
        (
            "spectrum-reconstruct",
            '{"kind": "spectrum", "n": 2, "values": [["1", "0"], ["2", "0"]]}',
            "values: reconstruction needs exact integer or 'p/q' values",
        ),
        (
            "spectrum-reconstruct",
            '{"kind": "spectrum", "n": 3, "values": ["1", "1"]}',
            "values: expected a list of 3 scalars",
        ),
        (
            "lattice-solve",
            json.dumps({"kind": "dense", "n": 1, "entries": [["1"]]}),
            "document: lattice-solve expects [basis dense document, rational_circulant target]",
        ),
        (
            "eig",
            json.dumps({"kind": "dense", "n": 1, "entries": [["1"]]}),
            "kind: cannot view a dense document as a circulant",
        ),
        (
            "mu-eig",
            json.dumps(circulant_doc(1, 2)),
            "kind: cannot view a circulant document as a mu-circulant",
        ),
    ),
    ids=(
        "deep-json", "long-rational", "spectrum-field", "cocycle-field",
        "eig-two-documents", "complex-spectrum", "short-spectrum", "lattice-one-document",
        "eig-dense", "mu-eig-circulant",
    ),
)
def test_refused_documents_exit_2_with_one_short_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run_cli([command, "--input", str(path)], capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_self_check_modules_load_only_for_verify_all_and_bench():
    # Each subcommand imports the layers it runs on first use: `hopf`,
    # `lattice` and `twisted` in the handlers and converters that call
    # them, `verify` (which imports `oracle`) and `bench` in theirs.
    # Importing the CLI loads none of them, and a float circulant through
    # eig, forms, charpoly or inverse needs none.  Fresh interpreters,
    # since this one has loaded them all; each line lists what is loaded
    # after its command.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import circulants

    script = (
        "import contextlib, io, json, sys\n"
        "import circulants.cli as cli\n"
        "names = ('hopf', 'lattice', 'twisted', 'verify', 'oracle', 'bench')\n"
        "loaded = lambda: [m for m in names if 'circulants.' + m in sys.modules]\n"
        "print(loaded())\n"
        "for argv, text in json.loads(sys.argv[1]):\n"
        "    sys.stdin = io.StringIO(text)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code, loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(circulants.__file__).resolve().parents[1]))

    def run(*steps):
        argv = [sys.executable, "-c", script, json.dumps(steps)]
        return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.splitlines()

    doc = json.dumps(circulant_doc(1, 2, 3))
    skew = json.dumps({**circulant_doc(1, 2, 3), "kind": "skew_circulant"})
    assert run(
        (["eig"], doc), (["forms"], doc), (["charpoly"], doc), (["inverse"], doc),
        (["charpoly"], rational_doc(["1", "1/2", "3"])),
        (["skew"], skew),
        (["verify-all"], ""),
        (["bench", "--sizes", "4", "--reps", "3"], ""),
    ) == [
        "[]",
        "eig 0 []",
        "forms 0 []",
        "charpoly 0 []",
        "inverse 0 []",
        "charpoly 0 ['lattice']",
        "skew 0 ['hopf', 'lattice', 'twisted']",
        "verify-all 0 ['hopf', 'lattice', 'twisted', 'verify', 'oracle']",
        "bench 0 ['hopf', 'lattice', 'twisted', 'verify', 'oracle', 'bench']",
    ]
    assert run((["hopf-verify"], doc)) == ["[]", "hopf-verify 0 ['hopf']"]


def test_distinct_large_denominators_are_refused_before_their_lcm(capsys, monkeypatch):
    # The lcm of 40 distinct 4300-digit denominators has about 570 000
    # bits, and building it took about 1.1 s before the row was refused.
    # L is now built one distinct denominator at a time and the row
    # refused once the cost read off it passes the bound: after two.
    import time

    from circulants import lattice

    rng = np.random.default_rng(7)
    row = [f"1/{10**4299 + int(rng.integers(1, 10**18))}" for _ in range(40)]
    text = rational_doc(row)
    start = time.perf_counter()
    code, out, err = run_cli(["charpoly"], text, capsys, monkeypatch)
    assert time.perf_counter() - start < 0.1
    assert (code, out, err) == (2, "", exact_refusal())


def solve_doc(grid, target):
    return json.dumps([
        {"kind": "dense", "n": len(grid), "entries": [[str(v) for v in row] for row in grid]},
        {"kind": "rational_circulant", "n": len(target), "first_row": [str(v) for v in target]},
    ])


def solve_refusal():
    from circulants import lattice

    bound, model = lattice._EXACT_MAX_COST, lattice._SOLVE_COST_MODEL
    return f"error: entries: the cost of exact elimination is more than {bound:.3g} ({model})\n"


def test_lattice_solve_refuses_a_grid_past_the_cost_bound(capsys, monkeypatch):
    # Random fractional grids (p/q, |p| < 100, q < 50) took 6 s to eliminate
    # at n = 64 and 20 s at n = 80; at n = 80 the lower bound read off the
    # parts refuses the grid before any row is cleared.
    import time

    from circulants import lattice

    rng = np.random.default_rng(0x5EED)
    grid = [[Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 50))) for _ in range(80)] for _ in range(80)]
    text = solve_doc(grid, [1] * 80)
    start = time.perf_counter()
    code, out, err = run_cli(["lattice-solve"], text, capsys, monkeypatch)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", solve_refusal())
    assert max(lattice._least_solve_costs(grid)) > lattice._EXACT_MAX_COST
    # A grid of the same kind at n = 16 is served.
    small = [row[:16] for row in grid[:16]]
    assert run_cli(["lattice-solve"], solve_doc(small, [1] * 16), capsys, monkeypatch)[0] in (0, 1)


def test_lattice_solve_serves_a_grid_at_the_cost_bound(capsys, monkeypatch):
    # On an integer grid the lower bound is the model itself: R sums the
    # bits of each row's largest entry, here 3 + 2 + 2.
    from circulants import lattice

    grid = [[5, 1, 0], [0, 2, 1], [1, 0, 3]]
    cost = lattice._solve_cost(3, 7)
    assert max(lattice._least_solve_costs([[Fraction(v) for v in row] for row in grid])) == cost
    monkeypatch.setattr(lattice, "_EXACT_MAX_COST", cost)
    code, out, err = run_cli(["lattice-solve"], solve_doc(grid, [5, 1, 0]), capsys, monkeypatch)
    assert (code, err) == (0, "") and json.loads(out)["coefficients"] == ["1", "0", "0"]
    monkeypatch.setattr(lattice, "_EXACT_MAX_COST", math.nextafter(cost, 0))
    assert run_cli(["lattice-solve"], solve_doc(grid, [5, 1, 0]), capsys, monkeypatch) == (2, "", solve_refusal())


def target_refusal():
    from circulants import lattice

    bound, model = lattice._EXACT_MAX_COST, lattice._TARGET_COST_MODEL
    return f"error: first_row: the cost of exact decomposition is more than {bound:.3g} ({model})\n"


def test_lattice_solve_refuses_a_target_past_the_cost_bound(capsys, monkeypatch):
    # Clearing a target of 128 distinct 4300-digit denominators and
    # decomposing it over the identity took about 25 s.  Its lower bound
    # read off the parts refuses it after a few of them, before the target
    # is cleared or the grid eliminated.
    import time

    from circulants import lattice

    def never(row):
        raise AssertionError("cleared a row the lower bound refuses")

    rng = np.random.default_rng(7)
    denominators = [10**4299 + int(rng.integers(1, 10**18)) for _ in range(128)]
    target = [f"1/{d}" for d in denominators]
    identity = [[int(i == j) for j in range(128)] for i in range(128)]
    text = solve_doc(identity, target)
    monkeypatch.setattr(lattice, "RationalCirculant", never)
    start = time.perf_counter()
    code, out, err = run_cli(["lattice-solve"], text, capsys, monkeypatch)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", target_refusal())
    # The same kind of target at n = 16 is served: its coefficients over
    # the identity are its entries.
    monkeypatch.undo()
    small = [row[:16] for row in identity[:16]]
    code, out, err = run_cli(["lattice-solve"], solve_doc(small, target[:16]), capsys, monkeypatch)
    assert (code, err) == (1, "") and json.loads(out)["coefficients"] == target[:16]


def test_lattice_solve_refuses_a_target_just_past_the_cost_bound(capsys, monkeypatch):
    # The target (1/2, 1/3, 0) clears by L_t = 6, of T = 3 bits.
    from circulants import lattice

    cost = 3 * 3**2 / 3
    assert max(lattice._least_target_costs([Fraction(1, 2), Fraction(1, 3), Fraction(0)])) == cost == 9
    text = solve_doc([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ["1/2", "1/3", "0"])
    assert run_cli(["lattice-solve"], text, capsys, monkeypatch)[:2] == (1, json.dumps({
        "kind": "lattice_solution", "coefficients": ["1/2", "1/3", "0"], "member": False}, indent=2) + "\n")
    monkeypatch.setattr(lattice, "_EXACT_MAX_COST", math.nextafter(cost, 0))
    assert run_cli(["lattice-solve"], text, capsys, monkeypatch) == (2, "", target_refusal())
