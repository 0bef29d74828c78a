"""JSON matrix documents: the wire format of the command line.

One structured-text object per matrix.  Scalar encodings are chosen to
round-trip bit-exactly:

* complex numbers: two-element arrays ``[re, im]`` of decimal strings
  (shortest round-trip repr),
* rationals: ``"p/q"`` strings with optional sign,
* integers: bare decimal strings.

Kinds: circulant, mu_circulant, skew_circulant, dense, rational_circulant;
spectrum documents carry eigenvalue lists (complex on output, exact
rationals when used as reconstruction input), and cocycle documents an
n x n table of complex pairs.

Every document, of any of these seven kinds, is read through one field
table, `_FIELDS`: each field's name, its shape and the parser of its
entries.  One reader, `_read`, checks the object, kind, order and fields
against it and decodes each field.

Each field of a decoded document has one stored form, a read-only
complex array or a tuple of Fractions; every complex row or grid meets
the entry rule of `core` on its way to a value.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain, starmap
from typing import TYPE_CHECKING

import numpy as np

from .core import Circulant, _entries, _Frozen, _result, _view
from .errors import DimensionMismatchError, DocumentError, InvalidScalarError

if TYPE_CHECKING:  # `hopf`, `lattice` and `twisted` load in the converters that use them
    from .hopf import BlockCirculant
    from .lattice import RationalCirculant
    from .twisted import MuCirculant, TwoCocycle

KINDS = ("circulant", "mu_circulant", "skew_circulant", "dense", "rational_circulant")

def format_complex_row(values) -> list[list[str]]:
    """The ``[re, im]`` pairs of a row of complex numbers (or anything
    numpy reads as complex), each part the shortest round-trip repr of a
    float.  One array conversion, then C-level loops: no Python frame
    runs per entry."""
    z = np.asarray(values, dtype=complex)
    return list(map(list, zip(map(repr, z.real.tolist()), map(repr, z.imag.tolist()))))


def format_complex(z: complex) -> list[str]:
    return format_complex_row((z,))[0]


def parse_complex(value, field: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        parts = []
        for part in value:
            if not isinstance(part, (str, int, float)) or isinstance(part, bool):
                raise DocumentError(field, f"bad component {part!r} in complex pair")
            try:
                parts.append(float(part))
            except ValueError:  # a string that is not a decimal
                raise DocumentError(field, f"bad decimal string {part!r}") from None
            except OverflowError:  # a JSON integer past the float maximum
                raise DocumentError(field, "component beyond the float range") from None
        return complex(parts[0], parts[1])
    raise DocumentError(field, f"expected a [re, im] pair, got {value!r}")


#: Python writes an int of more than 4300 decimal digits only when the
#: process lifts its limit (``sys.set_int_max_str_digits``), which may
#: be set as low as 640; longer ones are written in parts below that.
_SPLIT = 10**600


def _decimal(v: int) -> str:
    """``str(v)`` for an int of any length."""
    if -_SPLIT < v < _SPLIT:
        return str(v)
    if v < 0:
        return "-" + _decimal(-v)
    k = v.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(v, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rational(x: Fraction) -> str:
    """``str(Fraction(x))``, "p/q" or "p", at any length."""
    x = Fraction(x)
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def parse_rational(value, field: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            limit = sys.get_int_max_str_digits()
            if 0 < limit < len(value):
                raise DocumentError(field, f"rational of more than {limit} digits") from None
            raise DocumentError(field, f"bad rational {value!r}") from None
    raise DocumentError(field, f"expected an exact 'p/q' or integer string, got {value!r}")


def _parse_entry(value, field: str):
    # Dense grids may be complex (pairs) or exact (strings); spectra too.
    if isinstance(value, (list, tuple)):
        return parse_complex(value, field)
    return parse_rational(value, field)


def _pairs_array(items: list) -> np.ndarray | None:
    """The complex array of a list of ``[re, im]`` pairs of decimal
    strings, or None when some item is not a two-element list of strings
    or some string is not a decimal.

    Each string goes through ``float``, as in `parse_complex`, so the
    bits are the same; but the checks are one set of types or lengths per
    pass and the strings are parsed by ``map``, so no Python frame runs
    per entry."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = list(chain.from_iterable(items))
    if set(map(type, flat)) != {str}:
        return None
    try:
        parts = np.array(list(map(float, flat)))
    except ValueError:
        return None
    return parts.view(complex)


#: The shapes of a field, as its refusal words them: n entries, the n - 1
#: weights mu_2..mu_n behind mu_1 = 1, or an n x n grid of n rows.
_ROW, _WEIGHTS, _GRID = "a list of {} scalars", "a list of {} weights", "{} rows"

#: The one table of what each kind of document carries besides "kind" and
#: "n": its fields in the order they are read, each with its shape and the
#: parser of its entries.  `_read` follows it and refuses any other field.
_FIELDS = dict.fromkeys(KINDS, (("first_row", _ROW, parse_complex),)) | {
    "mu_circulant": (("first_row", _ROW, parse_complex), ("mu", _WEIGHTS, parse_complex)),
    "dense": (("entries", _GRID, _parse_entry),),
    "rational_circulant": (("first_row", _ROW, parse_rational),),
    "spectrum": (("values", _ROW, _parse_entry),),
    "cocycle": (("table", _GRID, parse_complex),),
}


def _read(obj, kinds: tuple, refusal: str) -> tuple[str, int, dict]:
    """(kind, n, fields) of a document of one of these kinds: a JSON object
    with a positive integer order n and exactly the fields `_FIELDS` gives
    its kind.  Raises DocumentError naming the field at fault; a kind not
    in kinds is refused with ``refusal.format(kind)``.

    A field of pairs of decimal strings only is one complex array, read
    by `_pairs_array` (a grid's of shape (n, n)).  Any other field is the
    list, a grid the list of rows, of its parser's values entry by entry,
    so the first bad entry raises its own error; a grid names its entries
    by row, ``field[i]``.  `MatrixDocument` decides the stored form."""
    if not isinstance(obj, dict):
        raise DocumentError("document", "expected a JSON object")
    kind = obj.get("kind")
    if kind not in kinds:
        raise DocumentError("kind", refusal.format(kind))
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError("n", f"order must be a positive integer, got {n!r}")
    extra = obj.keys() - {"kind", "n", *(name for name, _, _ in _FIELDS[kind])}
    if extra:
        raise DocumentError(sorted(extra)[0], f"field not allowed on kind {kind}")
    fields = {}
    for name, shape, parse in _FIELDS[kind]:
        raw, size = obj.get(name), n - (shape == _WEIGHTS)
        if not isinstance(raw, list) or len(raw) != size:
            raise DocumentError(name, "expected " + shape.format(size))
        items = raw
        if shape == _GRID:
            for i, row in enumerate(raw, start=1):
                if not isinstance(row, list) or len(row) != n:
                    raise DocumentError(name, f"row {i} must have {n} entries")
            items = list(chain.from_iterable(raw))
        z = None if parse is parse_rational else _pairs_array(items)
        if z is not None:
            fields[name] = z.reshape(n, n) if shape == _GRID else z
        elif shape == _GRID:
            fields[name] = [[parse(x, f"{name}[{i}]") for x in row] for i, row in enumerate(raw, start=1)]
        else:
            fields[name] = [parse(x, name) for x in raw]
    return kind, n, fields


def _stored_complex(value, shape: tuple) -> np.ndarray:
    """A complex field of this shape as a document stores it, a read-only
    array of its own.  Raises DimensionMismatchError on another shape, and
    InvalidScalarError on an exact entry past the float range."""
    try:
        z = np.array(value, dtype=complex)
    except OverflowError:
        raise InvalidScalarError("entry beyond the float range") from None
    if z.shape != shape:
        raise DimensionMismatchError(f"expected {shape} entries, got {z.shape}")
    z.setflags(False)
    return z


class MatrixDocument(_Frozen):
    """One decoded matrix document.

    ``first_row`` and ``mu`` are tuples (of Python complex numbers, of
    Fractions on a rational_circulant) and ``entries`` a tuple of row
    tuples, or None where the kind has no such field.  Each field has one
    stored form.  A complex field is a read-only array, made once by the
    constructor and written by nothing, which the converters hand to their
    values after the finiteness test of the entry rule; its tuple is the
    `core._view` built on each read, read only by `==`, `hash`, `repr` and
    pickling.  An exact field (a rational first row, a grid of Fractions
    only) is its tuple.  A document is immutable and equals (and hashes
    like) a document with the same kind, order and fields.
    """

    __slots__ = ("kind", "n", "_first_row", "_mu", "_entries")

    def __init__(self, kind: str, n: int, first_row=None, mu=None, entries=None):
        if first_row is not None:
            first_row = tuple(first_row) if kind == "rational_circulant" else _stored_complex(first_row, (n,))
        if mu is not None or kind == "mu_circulant":
            mu = _stored_complex(() if mu is None else mu, (n - 1,))
        if entries is not None:
            exact = all(isinstance(x, Fraction) for row in entries for x in row)
            entries = tuple(map(tuple, entries)) if exact else _stored_complex(entries, (n, n))
        for setter, value in zip(_SETTERS, (kind, n, first_row, mu, entries)):
            setter(self, value)

    def _field(self, name: str):
        value = getattr(self, "_" + name)
        return _view(value) if isinstance(value, np.ndarray) else value

    first_row = property(lambda self: self._field("first_row"))
    mu = property(lambda self: self._field("mu"))
    entries = property(lambda self: self._field("entries"))

    def _key(self) -> tuple:
        return self.kind, self.n, self.first_row, self.mu, self.entries

    def __repr__(self) -> str:
        kind, n, first_row, mu, entries = self._key()
        return (
            f"MatrixDocument(kind={kind!r}, n={n!r}, first_row={first_row!r},"
            f" mu={mu!r}, entries={entries!r})"
        )

    def __reduce__(self):
        return type(self), self._key()

    # -- converters to library objects --------------------------------------
    def to_circulant(self) -> Circulant:
        if self.kind == "circulant":
            return _result(Circulant, self._first_row)
        if self.kind == "rational_circulant":
            from .lattice import _rational_row

            # The floats need no cleared row: one lcm of many distinct large
            # denominators would cost more than the whole float call.
            return _result(Circulant, _entries(_rational_row(self.first_row)))
        raise DocumentError("kind", f"cannot view a {self.kind} document as a circulant")

    def to_mu_circulant(self) -> MuCirculant:
        """The twisted value of a mu_circulant or skew_circulant document.
        Like `to_circulant`, it shares the stored row; the weights are
        copied once, behind the leading 1."""
        from .twisted import MuWeights, _mu_result, _skew_weights

        row = self._first_row
        if self.kind == "mu_circulant":
            return _mu_result(row, _result(MuWeights, np.concatenate(((1.0,), self._mu))))
        if self.kind == "skew_circulant":
            return _mu_result(row, _skew_weights(row.size))
        raise DocumentError("kind", f"cannot view a {self.kind} document as a mu-circulant")

    def to_exact_row(self) -> tuple[Fraction, ...]:
        if self.kind != "rational_circulant":
            raise DocumentError("kind", f"expected rational_circulant, got {self.kind}")
        return self.first_row

    def to_rational_circulant(self) -> RationalCirculant:
        from .lattice import RationalCirculant

        return RationalCirculant(self.to_exact_row())

    def to_complex_grid(self) -> np.ndarray:
        """The grid as a fresh complex array, exact ones included, under the
        entry rule: InvalidScalarError on a non-finite or too large entry."""
        if self.kind != "dense":
            raise DocumentError("kind", f"expected dense, got {self.kind}")
        return _entries(self._entries, 2).copy()

    def to_exact_grid(self) -> tuple[tuple[Fraction, ...], ...]:
        if self.kind != "dense":
            raise DocumentError("kind", f"expected dense, got {self.kind}")
        if not isinstance(self._entries, tuple):
            raise DocumentError("entries", "grid holds floating entries, exact ones required")
        return self._entries


# The slots' own setters, unguarded by the frozen __setattr__: half the cost of object.__setattr__.
_SETTERS = tuple(getattr(MatrixDocument, name).__set__ for name in MatrixDocument.__slots__)


def document_from_obj(obj) -> MatrixDocument:
    kind, n, fields = _read(obj, KINDS, f"unknown kind {{!r}}, expected one of {', '.join(KINDS)}")
    return MatrixDocument(kind, n, **fields)


def circulant_to_obj(c: Circulant) -> dict:
    """The circulant document of c, formatted from ``c.array`` without
    building the coefficient tuple."""
    return {"kind": "circulant", "n": c.n, "first_row": format_complex_row(c.array)}


def mu_circulant_to_obj(m: MuCirculant) -> dict:
    """The mu_circulant document of m, formatted from the arrays without
    building the coefficient or weight tuples."""
    return {
        "kind": "mu_circulant",
        "n": m.n,
        "first_row": format_complex_row(m.array),
        "mu": format_complex_row(m.weights.array[1:]),
    }


def cocycle_from_obj(obj) -> TwoCocycle:
    """The cocycle of a ``cocycle-verify`` input: the n x n table of ``[re,
    im]`` pairs of ``{"kind": "cocycle", "n": n, "table": rows}``, or the
    coboundary of the weights of a mu_circulant or skew_circulant document."""
    from .twisted import TwoCocycle, cocycle_from_mu

    kinds = ("cocycle", "mu_circulant", "skew_circulant")
    kind, n, fields = _read(obj, kinds, "cocycle-verify expects a cocycle table or a mu/skew document")
    if kind == "cocycle":
        return _result(TwoCocycle, np.asarray(fields["table"], dtype=complex))
    return cocycle_from_mu(MatrixDocument(kind, n, **fields).to_mu_circulant().weights)


def load_json(text: str):
    """Decode JSON text; DocumentError when it is malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("document", f"invalid JSON ({exc.msg} at line {exc.lineno})") from None
    except ValueError:  # an integer literal past Python's limit on decimal digits
        limit = sys.get_int_max_str_digits()
        raise DocumentError("document", f"integer literal of more than {limit} digits") from None
    except RecursionError:
        raise DocumentError("document", "JSON nested too deeply") from None


def parse_documents(text: str) -> list[MatrixDocument]:
    """Parse one document or a JSON array of documents."""
    payload = load_json(text)
    items = payload if isinstance(payload, list) else [payload]
    return [document_from_obj(item) for item in items]


_encode_string = json.encoder.encode_basestring_ascii


def _encode(value, newline: str) -> str:
    """``value`` laid out as ``json.dumps(..., indent=2)`` lays it out
    when it sits on a line that starts with ``newline`` (a line break and
    the indentation of that line)."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            # json converts non-string keys; let it, and shift its layout.
            return json.dumps(value, indent=2).replace("\n", newline)
        inner = newline + "  "
        items = [f"{_encode_string(key)}: {_encode(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {str}:
            return "[" + inner + ("," + inner).join(map(_encode_string, value)) + newline + "]"
        if kinds <= {list, tuple}:
            widths = set(map(len, value))
            width = widths.pop() if len(widths) == 1 else 0
            if width and isinstance(value[0][0], str):
                # Equal-length rows (the [re, im] pairs): one whitespace-only
                # template per row, filled by C-level loops.  The encoder
                # takes only strings; a TypeError sends any other cell to
                # the general path below.
                template = _row_template(width, inner)
                cells = map(_encode_string, chain.from_iterable(value))
                rows = starmap(template.format, zip(*[cells] * width))
                try:
                    return "[" + inner + ("," + inner).join(rows) + newline + "]"
                except TypeError:
                    pass
        items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)


def _row_template(width: int, newline: str) -> str:
    """A ``str.format`` template for a list of ``width`` encoded strings
    laid out as ``_encode`` lays it out on a line starting with ``newline``."""
    cell = newline + "  "
    return "[" + cell + ("," + cell).join(["{}"] * width) + newline + "]"


def dump_json(obj) -> str:
    r"""``json.dumps(obj, indent=2) + "\n"``, byte for byte, without the
    pure-Python encoder that ``indent`` forces on the standard library.

    Dicts and mixed lists recurse; a list of strings, or a list of
    equal-length lists of strings, is written in one ``str.join`` with no
    Python frame per entry; scalars go through ``json.dumps``."""
    return _encode(obj, "\n") + "\n"


def dump_block_circulant(x: BlockCirculant) -> str:
    r"""The ``hopf-delta`` document of x, written from its support: byte for
    byte ``dump_json({"kind": "block_circulant", "n": n, "blocks": rows})``,
    where rows[a][b] is the ``[re, im]`` pair of the coefficient T[a, b].

    The wire format stays dense, but only the support's cells are
    formatted: the zero cell is encoded once and repeated by list
    repetition, so no Python work runs per zero cell.  Each cell carries
    the text before it, so that one join writes the whole document."""
    n = x.n
    head = f'{{\n  "kind": "block_circulant",\n  "n": {n},\n  "blocks": [\n    [\n      '
    within, between = ",\n      ", "\n    ],\n    [\n      "
    cell = _row_template(2, "\n      ")
    zero = cell.format('"0.0"', '"0.0"')
    parts = [within + zero] * (n * n)
    parts[::n] = [between + zero] * n
    parts[0] = head + zero
    for k, (re, im) in zip((x.a * n + x.b).tolist(), format_complex_row(x.values)):
        before = within if k % n else between if k else head
        parts[k] = before + cell.format(_encode_string(re), _encode_string(im))
    parts.append("\n    ]\n  ]\n}\n")
    return "".join(parts)


# -- spectrum documents ------------------------------------------------------

def spectrum_to_obj(values) -> dict:
    """A spectrum document of a complex array, or of a sequence of complex
    numbers.  (Exact spectra are only read, by ``spectrum_from_obj``.)"""
    pairs = format_complex_row(values)
    return {"kind": "spectrum", "n": len(pairs), "values": pairs}


def spectrum_from_obj(obj) -> tuple:
    _, _, fields = _read(obj, ("spectrum",), "expected a spectrum document")
    values = fields["values"]
    return tuple(values.tolist() if isinstance(values, np.ndarray) else values)
