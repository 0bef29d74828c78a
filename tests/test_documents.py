import json
import pickle
import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import numpy as np
import pytest

from circulants import (
    BlockCirculant,
    Circulant,
    MuCirculant,
    MuWeights,
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
    parse_rational,
    spectrum_from_obj,
    spectrum_to_obj,
)
from circulants.cli import main
from circulants.errors import CirculantError, DimensionMismatchError, InvalidScalarError

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


def lifted_str(x):
    """str(x) with Python's limit on int-to-decimal digits lifted."""
    import sys

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_of_any_length_is_written_as_str_writes_it():
    # Python refuses to write an int of more than 4300 digits in decimal.
    rng = np.random.default_rng(0x5EED)
    values = [0, 10**600, -(10**600), 10**600 - 1, 10**5000, 7**20000, F(-(3**9000), 10**4301 + 1)]
    for digits in (1, 599, 600, 601, 4299, 4300, 4301, 9000):
        low = int.from_bytes(rng.bytes(digits), "big") % 10 ** (digits - 1)
        p = (10 ** (digits - 1) + low) * int(rng.choice((-1, 1)))
        values += [p, F(p, int(rng.integers(1, 10**6))), F(1, abs(p) + 1)]
    for x in values:
        assert format_rational(x) == lifted_str(F(x))


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


def _spoiled(obj: dict, grid: str | None = None) -> tuple:
    """(field, document) pairs, each spoiling one field of obj: the field
    is not a list, or one entry short, or, for the grid field, its first
    row is one entry short."""
    fields = [name for name in obj if name not in ("kind", "n")]
    out = [(name, {**obj, name: bad}) for name in fields for bad in ("x", obj[name][:-1])]
    if grid:
        out.append((grid, {**obj, grid: [obj[grid][0][:-1], *obj[grid][1:]]}))
    return tuple(out)


_MU_OBJ = mu_circulant_to_obj(mu_circ((1, 2), (3,)))
_SPECTRUM_OBJ = {"kind": "spectrum", "n": 2, "values": ["1", "1"]}
_COCYCLE_OBJ = {"kind": "cocycle", "n": 1, "table": [[["1", "0"]]]}

# One document of each of the seven kinds, with the parser that reads it
# and the documents that spoil one of its fields.
KIND_DOCUMENTS = (
    (document_from_obj, circulant_to_obj(circ(1, 2)), _spoiled(circulant_to_obj(circ(1, 2)))),
    (document_from_obj, _MU_OBJ, _spoiled(_MU_OBJ)),
    (document_from_obj, SKEW_OBJ, _spoiled(SKEW_OBJ)),
    (document_from_obj, COMPLEX_DENSE_OBJ, _spoiled(COMPLEX_DENSE_OBJ, "entries")),
    (document_from_obj, RATIONAL_OBJ, _spoiled(RATIONAL_OBJ)),
    (spectrum_from_obj, _SPECTRUM_OBJ, _spoiled(_SPECTRUM_OBJ)),
    (cocycle_from_obj, _COCYCLE_OBJ, _spoiled(_COCYCLE_OBJ, "table")),
)


@pytest.mark.parametrize("parse, obj, spoiled", KIND_DOCUMENTS, ids=[obj["kind"] for _, obj, _ in KIND_DOCUMENTS])
def test_every_kind_refuses_other_fields_and_a_bad_order(parse, obj, spoiled):
    parse(obj)
    for field, bad in spoiled:
        with pytest.raises(DocumentError) as info:
            parse(bad)
        assert info.value.field == field
    with pytest.raises(DocumentError, match=f"^note: field not allowed on kind {obj['kind']}$"):
        parse({**obj, "note": "x"})
    for n in (0, -1, True, 2.0, "2", None):
        message = f"^n: order must be a positive integer, got {re.escape(repr(n))}$"
        with pytest.raises(DocumentError, match=message):
            parse({**obj, "n": n})


_CIRCULANT_DOC = document_from_obj(circulant_to_obj(circ(1, 2)))


@pytest.mark.parametrize(
    "call, message",
    (
        (lambda: document_from_obj([]), "document: expected a JSON object"),
        (
            lambda: document_from_obj({"kind": "dense", "n": 2, "entries": [["1", "0"], ["1"]]}),
            "entries: row 2 must have 2 entries",
        ),
        (_CIRCULANT_DOC.to_mu_circulant, "kind: cannot view a circulant document as a mu-circulant"),
        (_CIRCULANT_DOC.to_rational_circulant, "kind: expected rational_circulant, got circulant"),
        (_CIRCULANT_DOC.to_exact_grid, "kind: expected dense, got circulant"),
        (lambda: spectrum_from_obj(circulant_to_obj(circ(1, 2))), "kind: expected a spectrum document"),
        (lambda: spectrum_from_obj([1, 2]), "document: expected a JSON object"),
        (
            lambda: spectrum_from_obj({"kind": "spectrum", "n": 3, "values": ["1", "2"]}),
            "values: expected a list of 3 scalars",
        ),
    ),
    ids=(
        "not-an-object", "short-dense-row", "circulant-as-mu", "circulant-as-rational",
        "circulant-as-grid", "spectrum-of-circulant", "spectrum-not-an-object", "short-spectrum",
    ),
)
def test_refused_shapes_and_kinds_name_their_field(call, message):
    with pytest.raises(DocumentError) as info:
        call()
    assert str(info.value) == message


def test_json_integers_are_exact_rationals():
    assert parse_rational(7, "values") == F(7)
    assert spectrum_from_obj({"kind": "spectrum", "n": 2, "values": [4, -1]}) == (F(4), F(-1))


def test_deeply_nested_json_is_a_document_error():
    with pytest.raises(DocumentError, match="^document: JSON nested too deeply$"):
        parse_documents("[" * 100000)


def test_rational_past_the_digit_limit_is_named_not_printed():
    # Python reads no int of more than 4300 digits; the error line names
    # the limit instead of echoing the string.
    limit = sys.get_int_max_str_digits()
    with pytest.raises(DocumentError) as info:
        parse_rational("1/" + "3" * (limit + 100), "first_row")
    assert str(info.value) == f"first_row: rational of more than {limit} digits"
    assert parse_rational("1/" + "3" * limit, "first_row") == F(1, int("3" * limit))


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
    with pytest.raises(DocumentError, match="n: order must be a positive integer"):
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
    for bad, message in (
        ({**table, "n": 3}, "table: expected 3 rows"),
        ({**table, "table": [[["1", "0"]], [["1", "0"]]]}, "table: row 1 must have 2 entries"),
    ):
        with pytest.raises(DocumentError, match=f"^{message}$"):
            cocycle_from_obj(bad)
    with pytest.raises(DocumentError, match=r"^table\[1\]: bad decimal string 'x'$"):
        cocycle_from_obj({**table, "table": [[["1", "0"], ["x", "0"]], [["1", "0"], ["1", "0"]]]})
    # Every other kind is refused with the command's own message.
    dense = {"kind": "dense", "n": 1, "entries": [["1"]]}
    refused = "^kind: cocycle-verify expects a cocycle table or a mu/skew document$"
    for other in (circulant_to_obj(circ(1, 2)), spectrum_to_obj([1]), dense, {"kind": "x", "n": 1}):
        with pytest.raises(DocumentError, match=refused):
            cocycle_from_obj(other)
    with pytest.raises(DocumentError, match="^document: expected a JSON object$"):
        cocycle_from_obj([table])
    with pytest.raises(DocumentError, match="^mu: expected a list of 1 weights$"):
        cocycle_from_obj({"kind": "mu_circulant", "n": 2, "first_row": [["1", "0"], ["2", "0"]], "mu": []})


# -- the row decoder against the per-entry path ------------------------------

# Each case is one item of a list of complex pairs, placed among random
# pairs in every complex field.  The decoder must give the bits, or the
# error, that `parse_complex` gives entry by entry.
_EDGE_STRINGS = ("-0.0", "5e-324", "1.7e308", "1.8e308", "nan", " 1.5 ", "1_0", "١")
_MALFORMED_ITEMS = {
    "short-pair": ["1.5"],
    "long-pair": ["1.5", "0", "2"],
    "number-item": 1.5,
    "string-item": "x",
    "object-pair": {"re": "1.5", "im": "0"},
    "bool-part": [True, "0"],
    "null": None,
    "null-part": ["0", None],
    "integer-past-float-max": [10**400, 0],
    "bad-decimal": ["1.5x", "0"],
    "empty-string": ["", "0"],
}
_DECODER_CASES = {
    "random": None,
    **{f"edge-{s.strip() or 'space'}": [s, "0.5"] for s in _EDGE_STRINGS},
    "edge-imaginary-minus-zero": ["0.5", "-0.0"],
    "mixed-string-number": ["1.5", 2],
    "numbers": [0.25, -3],
    **_MALFORMED_ITEMS,
}


def _per_entry(value, field):
    """One entry of a dense grid or a spectrum, decoded alone."""
    if isinstance(value, (list, tuple)):
        return parse_complex(value, field)
    return parse_rational(value, field)


def _pairs(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return [[repr(v.real), repr(v.imag)] for v in z.tolist()]


def _items(case, count: int) -> list:
    items = _pairs(count, count)
    if case != "random":
        items[count // 2] = _DECODER_CASES[case]
    return json.loads(json.dumps(items))


def _grid(items: list, n: int) -> list:
    return [items[i * n:(i + 1) * n] for i in range(n)]


def _decoder_legs(field: str, case):
    """(document, [(decoded, per-entry reference)]) for one field and case;
    each leg is a pair of calls that must agree."""
    if field == "first_row":
        items = _items(case, 5)
        doc = {"kind": "circulant", "n": 5, "first_row": items}
        row = lambda: tuple(parse_complex(x, "first_row") for x in items)  # noqa: E731
        return doc, [
            (lambda: document_from_obj(doc).first_row, row),
            (lambda: document_from_obj(doc).to_circulant().array, lambda: Circulant(row()).array),
        ]
    if field == "mu":
        items = _items(case, 4)
        first_row = _pairs(1, 5)
        doc = {"kind": "mu_circulant", "n": 5, "first_row": first_row, "mu": items}
        mu = lambda: tuple(parse_complex(x, "mu") for x in items)  # noqa: E731
        coeffs = [parse_complex(x, "first_row") for x in first_row]
        return doc, [
            (lambda: document_from_obj(doc).mu, mu),
            (
                lambda: document_from_obj(doc).to_mu_circulant().weights.array,
                lambda: MuCirculant(coeffs, MuWeights.from_tail(mu())).weights.array,
            ),
        ]
    if field == "table":
        items = _items(case, 9)
        doc = {"kind": "cocycle", "n": 3, "table": _grid(items, 3)}
        table = lambda: [  # noqa: E731
            [parse_complex(x, f"table[{i + 1}]") for x in row] for i, row in enumerate(_grid(items, 3))
        ]
        return doc, [(lambda: cocycle_from_obj(doc).array, lambda: TwoCocycle(table()).array)]
    if field == "entries":
        items = _items(case, 9)
        doc = {"kind": "dense", "n": 3, "entries": _grid(items, 3)}

        def grid():
            return tuple(
                tuple(_per_entry(x, f"entries[{i + 1}]") for x in row)
                for i, row in enumerate(_grid(items, 3))
            )

        # The complex grid meets the entry rule of every value, as the row
        # of a circulant does.
        return doc, [
            (lambda: document_from_obj(doc).entries, grid),
            (
                lambda: document_from_obj(doc).to_complex_grid(),
                lambda: Circulant([x for row in grid() for x in row]).array.reshape(3, 3),
            ),
        ]
    items = _items(case, 5)
    doc = {"kind": "spectrum", "n": 5, "values": items}
    return doc, [(lambda: spectrum_from_obj(doc), lambda: tuple(_per_entry(v, "values") for v in items))]


def _outcome(call):
    """("ok", the bits of the complex result) or (error type, field, message)."""
    try:
        value = call()
    except CirculantError as exc:
        return type(exc), getattr(exc, "field", None), str(exc)
    return "ok", np.asarray(value, dtype=complex).view(np.uint64)


_DECODED_FIELDS = ("first_row", "mu", "table", "entries", "values")


@pytest.mark.parametrize("case", _DECODER_CASES)
@pytest.mark.parametrize("field", _DECODED_FIELDS)
def test_decoder_matches_the_per_entry_path(field, case):
    _doc, legs = _decoder_legs(field, case)
    for decoded, reference in legs:
        got, want = _outcome(decoded), _outcome(reference)
        if want[0] == "ok":
            assert got[0] == "ok" and np.array_equal(got[1], want[1])
        else:
            assert got == want


def test_decoded_rows_keep_their_tuples_and_arrays():
    doc = document_from_obj({"kind": "circulant", "n": 2, "first_row": [["-0.0", "1_0"], [" 2 ", "١"]]})
    assert doc.first_row == (complex(-0.0, 10), complex(2, 1)) == tuple(doc.to_circulant().array.tolist())
    assert str(doc.first_row[0].real) == "-0.0"
    assert doc == MatrixDocument("circulant", 2, first_row=doc.first_row) and hash(doc) == hash(
        MatrixDocument("circulant", 2, first_row=doc.first_row)
    )
    c = doc.to_circulant()
    assert not c.array.flags.writeable and c == Circulant(doc.first_row)
    assert repr(doc).startswith("MatrixDocument(kind='circulant', n=2, first_row=((-0+10j), (2+1j)), mu=None")
    assert pickle.loads(pickle.dumps(doc)) == doc
    with pytest.raises(FrozenInstanceError):
        doc.n = 3


# One command per field; every malformed item must exit 2 with the one
# stderr line that the per-entry path's DocumentError gives.
_FIELD_COMMANDS = {
    "first_row": "eig",
    "mu": "mu-eig",
    "table": "cocycle-verify",
    "entries": "factorize",
    "values": "spectrum-reconstruct",
}


@pytest.mark.parametrize("case", _MALFORMED_ITEMS)
@pytest.mark.parametrize("field", _DECODED_FIELDS)
def test_malformed_items_exit_2_with_the_per_entry_error_line(tmp_path, capsys, field, case):
    doc, legs = _decoder_legs(field, case)
    error = _outcome(legs[0][1])
    assert error[0] is DocumentError
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([_FIELD_COMMANDS[field], "--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {error[2]}\n")


@pytest.mark.parametrize("digits", (4301, 5000))
@pytest.mark.parametrize("where", ("pair-part", "rational-entry"))
def test_integer_literals_past_the_digit_limit_exit_2(tmp_path, capsys, where, digits):
    # json.loads reads a JSON integer with int(), which refuses more than
    # sys.get_int_max_str_digits() digits (4300 by default).
    big = "7" * digits
    if where == "pair-part":
        command, text = "eig", f'{{"kind": "circulant", "n": 2, "first_row": [[{big}, "0"], ["1", "0"]]}}'
    else:
        command, text = "charpoly", f'{{"kind": "rational_circulant", "n": 2, "first_row": [{big}, "1"]}}'
    limit = sys.get_int_max_str_digits()
    with pytest.raises(DocumentError, match=f"integer literal of more than {limit} digits") as info:
        parse_documents(text)
    assert info.value.field == "document"
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([command, "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: document: integer literal of more than {limit} digits\n")


def test_each_field_has_one_stored_form_however_the_document_was_built():
    c = circ(1.25, -2 + 0.1j, 3e-17)
    row = np.array(c.array)
    decoded = roundtrip(circulant_to_obj(c))
    built = MatrixDocument("circulant", 3, first_row=c.coeffs)
    from_array = MatrixDocument("circulant", 3, first_row=row)
    row[0] = 99  # the document keeps an array of its own
    for doc in (decoded, built, from_array, pickle.loads(pickle.dumps(decoded))):
        x, y = doc.to_circulant(), doc.to_circulant()
        assert x == c and np.shares_memory(x.array, y.array) and not x.array.flags.writeable
        assert doc == decoded and doc.first_row == tuple(x.array.tolist())
    # A built document meets the entry rule where a decoded one does.
    nan_doc = MatrixDocument("mu_circulant", 2, first_row=(1, 2), mu=(complex("nan"),))
    with pytest.raises(InvalidScalarError, match="non-finite"):
        nan_doc.to_mu_circulant()
    # The constructor holds each complex field to the shape of its order.
    with pytest.raises(DimensionMismatchError):
        MatrixDocument("mu_circulant", 3, first_row=(1, 2, 3), mu=(2,))
    assert MatrixDocument("mu_circulant", 1, first_row=(5,)).to_mu_circulant() == mu_circ((5,), ())
    # A grid of Fractions only is exact; any other grid, mixed ones
    # included, is complex.
    mixed = roundtrip({"kind": "dense", "n": 2, "entries": [[["1", "0"], "1/3"], ["2", ["0", "1"]]]})
    assert mixed.entries == ((1, complex(F(1, 3))), (2, 1j))
    assert np.array_equal(mixed.to_complex_grid(), [[1, 1 / 3], [2, 1j]])
    with pytest.raises(DocumentError, match="entries: grid holds floating entries"):
        mixed.to_exact_grid()
    exact = MatrixDocument("dense", 2, entries=[[F(1, 3), F(2)], [F(0), F(-5, 7)]])
    assert exact == roundtrip(EXACT_DENSE_OBJ) and exact.to_exact_grid() == exact.entries


@pytest.mark.parametrize("value", (str(10**400), str(-(10**309)), f"{10**400}/3"))
def test_exact_grids_past_the_float_range_meet_the_entry_rule(value):
    doc = roundtrip({"kind": "dense", "n": 2, "entries": [["1", value], ["0", "1/3"]]})
    assert doc.to_exact_grid()[0][1] == F(value)
    with pytest.raises(InvalidScalarError, match="entry beyond the float range"):
        doc.to_complex_grid()
    # In a grid that reads as complex, the entry cannot be stored at all.
    with pytest.raises(InvalidScalarError, match="entry beyond the float range"):
        roundtrip({"kind": "dense", "n": 2, "entries": [[["1", "0"], value], ["0", "1/3"]]})
