import json
from fractions import Fraction as F

import numpy as np
import pytest

from circulants import (
    BlockCirculant,
    Circulant,
    TwoCocycle,
    circ,
    cocycle_from_mu,
    comultiplication,
    mu_circ,
    rational_circ,
    skew_circ,
)
from circulants.documents import (
    DocumentError,
    MatrixDocument,
    circulant_to_obj,
    cocycle_from_obj,
    document_from_obj,
    dump_block_circulant,
    dump_json,
    format_complex,
    format_complex_row,
    format_rational,
    mu_circulant_to_obj,
    parse_complex,
    parse_documents,
    spectrum_from_obj,
    spectrum_to_obj,
)

# Documents of the kinds that no encoder writes, as literals.
SKEW_OBJ = {"kind": "skew_circulant", "n": 3, "first_row": [["1.0", "0.0"], ["2.0", "0.0"], ["3.0", "0.0"]]}
RATIONAL_OBJ = {
    "kind": "rational_circulant",
    "n": 3,
    "first_row": ["-7/3", "2", "10000000000000000000000000000000000000000/9"],
}
COMPLEX_DENSE_OBJ = {
    "kind": "dense",
    "n": 2,
    "entries": [[["1.0", "2.0"], ["0.25", "0.0"]], [["-1.0", "0.0"], ["0.0", "3e-09"]]],
}
EXACT_DENSE_OBJ = {"kind": "dense", "n": 2, "entries": [["1/3", "2"], ["0", "-5/7"]]}


def roundtrip(obj: dict) -> MatrixDocument:
    return document_from_obj(json.loads(json.dumps(obj)))


def test_circulant_roundtrip_is_exact():
    c = circ(1.25, -2 + 0.1j, 3e-17)
    doc = roundtrip(circulant_to_obj(c))
    assert doc == MatrixDocument(kind="circulant", n=3, first_row=c.coeffs)
    assert doc.to_circulant() == c


def test_mu_circulant_roundtrip_is_exact():
    m = mu_circ((1, 2.5, -3j), (0.5 + 1j, 4))
    doc = roundtrip(mu_circulant_to_obj(m))
    assert doc == MatrixDocument(kind="mu_circulant", n=3, first_row=m.coeffs, mu=m.weights.mu[1:])
    assert doc.to_mu_circulant() == m


def test_skew_circulant_roundtrip():
    doc = roundtrip(SKEW_OBJ)
    assert doc == MatrixDocument(kind="skew_circulant", n=3, first_row=(1 + 0j, 2 + 0j, 3 + 0j))
    assert doc.to_mu_circulant().coeffs == skew_circ((1, 2, 3)).coeffs
    assert format_complex_row(doc.first_row) == SKEW_OBJ["first_row"]


def test_rational_circulant_roundtrip_is_exact():
    doc = roundtrip(RATIONAL_OBJ)
    assert doc.to_rational_circulant() == rational_circ(F(-7, 3), 2, F(10**40, 9))
    assert doc.to_rational_circulant().coeffs == (F(-7, 3), F(2), F(10**40, 9))
    assert [format_rational(x) for x in doc.first_row] == RATIONAL_OBJ["first_row"]


def test_dense_roundtrips_both_flavors():
    complex_doc = roundtrip(COMPLEX_DENSE_OBJ)
    grid = complex_doc.to_complex_grid()
    assert np.array_equal(grid, np.array([[1 + 2j, 0.25], [-1.0, 3e-9j]]))
    assert [format_complex_row(row) for row in grid] == COMPLEX_DENSE_OBJ["entries"]
    exact_doc = roundtrip(EXACT_DENSE_OBJ)
    assert exact_doc.to_exact_grid() == ((F(1, 3), F(2)), (F(0), F(-5, 7)))
    assert [[format_rational(x) for x in row] for row in exact_doc.entries] == EXACT_DENSE_OBJ["entries"]


def test_spectrum_roundtrip():
    exact = {"kind": "spectrum", "n": 3, "values": ["4", "1", "1/2"]}
    assert spectrum_from_obj(json.loads(json.dumps(exact))) == (F(4), F(1), F(1, 2))
    cvalues = (1 + 2j, -0.5 + 0j)
    assert spectrum_from_obj(json.loads(json.dumps(spectrum_to_obj(cvalues)))) == cvalues


def test_unknown_kind_rejected():
    with pytest.raises(DocumentError, match="kind"):
        document_from_obj({"kind": "toeplitz", "n": 2, "first_row": [["1", "0"], ["2", "0"]]})


def test_bad_order_rejected():
    with pytest.raises(DocumentError, match="n"):
        document_from_obj({"kind": "circulant", "n": 0, "first_row": []})
    with pytest.raises(DocumentError, match="n"):
        document_from_obj({"kind": "circulant", "first_row": [["1", "0"]]})


def test_row_length_must_match_order():
    with pytest.raises(DocumentError, match="first_row"):
        document_from_obj({"kind": "circulant", "n": 3, "first_row": [["1", "0"]]})


def test_kind_dependent_fields_enforced():
    with pytest.raises(DocumentError, match="mu"):
        document_from_obj(
            {"kind": "circulant", "n": 2, "first_row": [["1", "0"], ["2", "0"]], "mu": [["1", "0"]]}
        )
    with pytest.raises(DocumentError, match="mu"):
        document_from_obj({"kind": "mu_circulant", "n": 2, "first_row": [["1", "0"], ["2", "0"]]})
    with pytest.raises(DocumentError, match="entries"):
        document_from_obj({"kind": "dense", "n": 2, "entries": [[["1", "0"]]]})


def test_bad_scalars_rejected():
    with pytest.raises(DocumentError, match="first_row"):
        document_from_obj({"kind": "circulant", "n": 1, "first_row": ["1"]})
    with pytest.raises(DocumentError, match="first_row"):
        document_from_obj({"kind": "rational_circulant", "n": 1, "first_row": ["0.5.5"]})
    with pytest.raises(DocumentError, match="first_row"):
        document_from_obj({"kind": "rational_circulant", "n": 1, "first_row": [["1", "0"]]})


def test_decimal_strings_parse_exactly():
    doc = document_from_obj(
        {"kind": "circulant", "n": 1, "first_row": [["0.1", "-2.5e-17"]]}
    )
    assert doc.first_row == (complex(0.1, -2.5e-17),)
    exact = document_from_obj(
        {"kind": "rational_circulant", "n": 1, "first_row": ["0.5"]}
    )
    assert exact.first_row == (F(1, 2),)


def test_parse_documents_array_form():
    payload = json.dumps(
        [
            circulant_to_obj(circ(1, 2)),
            {"kind": "rational_circulant", "n": 2, "first_row": ["1", "0"]},
        ]
    )
    docs = parse_documents(payload)
    assert [d.kind for d in docs] == ["circulant", "rational_circulant"]


def test_parse_documents_bad_json():
    with pytest.raises(DocumentError, match="document"):
        parse_documents("{not json")


def test_exact_grid_refuses_floating_entries():
    doc = roundtrip(COMPLEX_DENSE_OBJ)
    with pytest.raises(DocumentError, match="entries"):
        doc.to_exact_grid()


_PAIRS = [["1.0", "-0.0"], ["2.5e-17", "nan"]]
_EDGE_PAYLOADS = [
    [],
    {},
    [[]],
    [{}],
    {"a": [], "b": {}, "c": [[], {}], "d": {"e": {"f": []}}},
    [[], [], []],
    ("x", ("y", "z"), ()),
    (("1", "2"), ["3", "4"]),
    ["quote \" backslash \\ newline \n tab \t", "\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001f600"],
    {"caf\u00e9": "\u2603", "tab\tkey": ["\n"]},
    [float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 1e308, 5e-324],
    [True, False, None, 0, -7, 10**30],
    {"t": True, "f": False, "none": None, "x": 1.5},
    [["a", "b"], ["c"], ["d", "e"]],
    [["a", 1], ["b", 2]],
    [["a", ["b"]], ["c", ["d"]]],
    [["a", "b"], "c"],
    ["a", 1, None, ["b"], {"k": "v"}],
    {"kind": "spectrum", "n": 2, "values": _PAIRS, "nested": [_PAIRS, _PAIRS]},
    {7: "int key", 2.5: [["a", "b"]], None: {}, True: [], "s": "str key"},
    "bare",
    3.25,
    None,
]


@pytest.mark.parametrize("payload", _EDGE_PAYLOADS)
def test_dump_json_matches_the_standard_indent_2_layout(payload):
    assert dump_json(payload) == json.dumps(payload, indent=2) + "\n"


def test_format_complex_row_matches_per_entry_pairs():
    rng = np.random.default_rng(1)
    values = [1, -0.0, 2.5, complex(0.1, -0.0), float("inf"), complex(3e-310, float("nan"))]
    values += list(rng.standard_normal(50) + 1j * rng.standard_normal(50))
    want = [[repr(float(complex(z).real)), repr(float(complex(z).imag))] for z in values]
    assert format_complex_row(values) == want
    assert format_complex_row(np.asarray(values)) == want
    assert [format_complex(z) for z in values] == want
    assert format_complex_row(()) == []


@pytest.mark.parametrize("part", (True, False))
def test_booleans_are_not_numbers(part):
    with pytest.raises(DocumentError, match="first_row"):
        parse_complex([part, "0"], "first_row")
    with pytest.raises(DocumentError, match="first_row"):
        document_from_obj({"kind": "circulant", "n": 1, "first_row": [["0", part]]})
    with pytest.raises(DocumentError, match="values"):
        spectrum_from_obj({"kind": "spectrum", "n": part, "values": ["1"] * int(part)})
    assert parse_complex([1, 2.5], "x") == complex(1, 2.5)


def dense_block_circulant_text(x) -> str:
    """The hopf-delta document from the dense coefficient tensor, through
    the standard library's encoder."""
    payload = {
        "kind": "block_circulant",
        "n": x.n,
        "blocks": [format_complex_row(row) for row in x.coefficient_tensor()],
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("n", (1, 2, 8, 128, 256))
def test_block_circulant_text_is_the_dense_indent_2_document(n):
    rng = np.random.default_rng(n)
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # Signed zeros and zero entries, which must not read as the zero cell.
    row[0] = complex(-0.0, -0.0)
    row[n // 2] = 0
    row[-1] = complex(0.0, -0.0) if n > 2 else row[-1]
    for x in (comultiplication(Circulant(row)), comultiplication(circ(*([0] * n)))):
        assert dump_block_circulant(x) == dense_block_circulant_text(x)
    if n <= 8:
        full = BlockCirculant(tuple(Circulant(np.roll(row, k)) for k in range(n)))
        assert dump_block_circulant(full) == dense_block_circulant_text(full)


def test_result_objects_from_the_arrays():
    c = circ(1.25, -0.0, complex(3e-17, -0.0))
    assert circulant_to_obj(c) == {
        "kind": "circulant",
        "n": 3,
        "first_row": [["1.25", "0.0"], ["-0.0", "0.0"], ["3e-17", "-0.0"]],
    }
    m = mu_circ((1, 2.5, -3j), (0.5 + 1j, 4))
    assert mu_circulant_to_obj(m) == {
        "kind": "mu_circulant",
        "n": 3,
        "first_row": [["1.0", "0.0"], ["2.5", "0.0"], ["-0.0", "-3.0"]],
        "mu": [["0.5", "1.0"], ["4.0", "0.0"]],
    }
    values = np.array([1, -0.0, complex(0.5, -2)])
    assert spectrum_to_obj(values) == spectrum_to_obj(tuple(values.tolist()))


@pytest.mark.parametrize("part", (10**400, -(10**309)), ids=("10^400", "-10^309"))
def test_integer_component_beyond_the_float_range_is_a_document_error(part):
    with pytest.raises(DocumentError, match="float range"):
        parse_complex([part, 0], "first_row")
    with pytest.raises(DocumentError, match="first_row"):
        document_from_obj({"kind": "circulant", "n": 1, "first_row": [[0, part]]})


def test_cocycle_documents_decode_to_their_cocycle():
    table = {"kind": "cocycle", "n": 2, "table": [[["1", "0"], [1, 0]], [["1.0", "-0.0"], ["0.5", "2"]]]}
    assert cocycle_from_obj(table) == TwoCocycle(((1, 1), (1, 0.5 + 2j)))
    m = mu_circ((1, 2.5, -3j), (0.5 + 1j, 4))
    assert cocycle_from_obj(mu_circulant_to_obj(m)) == cocycle_from_mu(m.weights)
    assert cocycle_from_obj(SKEW_OBJ) == cocycle_from_mu(skew_circ((1, 2, 3)).weights)
    for bad in ({**table, "n": 3}, {**table, "table": [[["1", "0"]], [["1", "0"]]]}):
        with pytest.raises(DocumentError, match="table: expected an n x n grid"):
            cocycle_from_obj(bad)
    with pytest.raises(DocumentError, match="table"):
        cocycle_from_obj({**table, "table": [[["1", "0"], ["x", "0"]], [["1", "0"], ["1", "0"]]]})
    with pytest.raises(DocumentError, match="kind: cocycle-verify expects"):
        cocycle_from_obj(circulant_to_obj(circ(1, 2)))
