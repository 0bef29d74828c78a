import io
import json
import tracemalloc
import warnings

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
    payload = json.loads(open(out_path).read())
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
    assert len(lines) == 21
    methods = {(rec["n"], rec["method"]) for rec in lines}
    assert (2, "dense") in methods and (4, "naive") in methods and (8, "spectral") in methods
    assert (2, "cli-eig") in methods and (8, "integer-spectrum") in methods and (4, "add") in methods
    assert (8, "block-mul") in methods
    naive4 = next(r for r in lines if r["n"] == 4 and r["method"] == "naive")
    spectral4 = next(r for r in lines if r["n"] == 4 and r["method"] == "spectral")
    assert naive4["checksum"] == pytest.approx(spectral4["checksum"], rel=1e-9)

    code, _, err = run_cli(["bench", "--reps", "1"], capsys=capsys)
    assert code == 2
    code, _, err = run_cli(["bench", "--sizes", "1,8", "--reps", "3"], capsys=capsys)
    assert code == 2


def test_verify_all_cli(capsys):
    code, out, _ = run_cli(["verify-all", "--seed", "0x5EED"], capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert "passed" in lines[-1]


def test_seed_changes_bench_inputs(capsys):
    code, out1, _ = run_cli(["bench", "--sizes", "4", "--reps", "3", "--seed", "1"], capsys=capsys)
    assert code == 0
    code, out2, _ = run_cli(["bench", "--sizes", "4", "--reps", "3", "--seed", "2"], capsys=capsys)
    assert code == 0
    cs1 = json.loads(out1.strip().splitlines()[0])["checksum"]
    cs2 = json.loads(out2.strip().splitlines()[0])["checksum"]
    assert cs1 != cs2


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
    from circulants import bench, eigenvalues

    rows = [r for r in bench.run_bench([8, 12], reps=3) if r.method == bench.CLI_EIG]
    assert [r.n for r in rows] == [8, 12]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    def doubled(doc):
        return eigenvalues(doc.to_circulant().scale(2))

    monkeypatch.setattr("circulants.cli._spectrum_of", doubled)
    with pytest.raises(bench.BenchDisagreementError, match="cli eig"):
        bench.run_bench([8], reps=3)


def test_bench_integer_spectrum_row_checks_before_timing(monkeypatch):
    from circulants import bench, integer_spectrum

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == bench.INTEGER_SPECTRUM]
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


def test_bench_block_mul_row_checks_before_timing(monkeypatch):
    from circulants import bench

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == bench.BLOCK_MUL]
    assert [r.n for r in rows] == [4, 12]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    monkeypatch.setattr(bench, "block_mul", lambda a, b: a)
    with pytest.raises(bench.BenchDisagreementError, match="block_mul"):
        bench.run_bench([4], reps=3)


def test_bench_add_row_checks_before_timing(monkeypatch):
    from circulants import Circulant, bench

    rows = [r for r in bench.run_bench([4, 12], reps=3) if r.method == bench.ADD]
    assert [r.n for r in rows] == [4, 12]
    assert all(r.median_ns > 0 and r.checksum > 0 for r in rows)

    monkeypatch.setattr(Circulant, "__add__", lambda x, y: Circulant(x.array - y.array))
    with pytest.raises(bench.BenchDisagreementError, match="tuple sum"):
        bench.run_bench([4], reps=3)


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
