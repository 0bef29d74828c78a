"""Circulants, spectra and twisted values store one thing: their
validated row as a read-only ndarray `array`.  The tuple of Python
complex numbers (`coeffs`, `values`, `mu`) is a view, built from the
array on every read and never stored; within the value layer only `repr`
and `hash` read it.  The array is private to the value and invisible to
`repr`; `==` compares arrays entrywise and `hash` follows the tuple, so
both agree on signed zeros; values are immutable and pickle through
their constructors.  The spectral layer computes from the array with
results equal to those built from the tuple, and builds no Python object
per entry."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from circulants import (
    Circulant,
    MuCirculant,
    MuWeights,
    Spectrum,
    TwoCocycle,
    eigenvalues,
    fast_mul,
    from_spectrum,
)
from circulants.core import _RowValue
from circulants.documents import MatrixDocument
from circulants.fixtures import random_circulant
from circulants.spectral import _product_length

SEED = 0x5EED


def _row(n, seed=SEED):
    rng = np.random.default_rng(seed + n)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _pair(n):
    rng = np.random.default_rng(SEED + n)
    return random_circulant(rng, n), random_circulant(rng, n)


# Each builder makes a value from a complex ndarray; `row` names the
# field that holds the tuple.
BUILDERS = {
    "Circulant": (lambda a: Circulant(a), "coeffs"),
    "Spectrum": (lambda a: Spectrum(a), "values"),
    "MuWeights": (lambda a: MuWeights(np.r_[1, a[1:]]), "mu"),
    "MuCirculant": (lambda a: MuCirculant(a, MuWeights((1,) * a.size)), "coeffs"),
    "eigenvalues": (lambda a: eigenvalues(Circulant(a)), "values"),
    "from_spectrum": (lambda a: from_spectrum(a), "coeffs"),
    "fast_mul": (lambda a: fast_mul(Circulant(a), Circulant(a[::-1])), "coeffs"),
    "add": (lambda a: Circulant(a) + Circulant(a[::-1]), "coeffs"),
    "sub": (lambda a: Circulant(a) - Circulant(a[::-1]), "coeffs"),
    "neg": (lambda a: -Circulant(a), "coeffs"),
}


@pytest.mark.parametrize("builder", BUILDERS)
def test_array_is_read_only_and_holds_the_row(builder):
    build, row = BUILDERS[builder]
    value = build(_row(16))
    assert value.array.dtype == complex and not value.array.flags.writeable
    assert tuple(value.array.tolist()) == getattr(value, row)
    with pytest.raises(ValueError):
        value.array[0] = 0


@pytest.mark.parametrize("builder", ("Circulant", "Spectrum", "MuWeights", "MuCirculant"))
@pytest.mark.parametrize("view", ("whole", "strided"))
def test_mutating_the_callers_array_leaves_the_value_unchanged(builder, view):
    build, row = BUILDERS[builder]
    base = _row(16)
    given = base if view == "whole" else base[::2]
    value = build(given)
    before = getattr(value, row)
    base[:] = 7 + 7j
    assert getattr(value, row) == before
    assert tuple(value.array.tolist()) == before


@pytest.mark.parametrize("builder", BUILDERS)
def test_array_is_outside_equality_hash_and_repr(builder):
    # The array object is no part of a value's identity: a twin built
    # from the same row holds its own array, yet it is ==, hashes alike
    # and has the same repr, which shows the row and not the array.
    build, row = BUILDERS[builder]
    value = build(_row(8))
    assert "array" not in repr(value)
    twin = build(_row(8))
    assert twin.array is not value.array
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


@pytest.mark.parametrize("builder", BUILDERS)
def test_pickle_and_replace_round_trip(builder):
    # copy.copy and copy.deepcopy rebuild the value through its
    # constructor, as pickle does.
    build, row = BUILDERS[builder]
    value = build(_row(12))
    for dup in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert dup == value and hash(dup) == hash(value)
        assert tuple(dup.array.tolist()) == getattr(value, row)
        assert dup.array.tobytes() == value.array.tobytes()
        assert not dup.array.flags.writeable


@pytest.mark.parametrize("builder", BUILDERS)
def test_row_tuple_is_a_view_of_the_array(builder):
    build, row = BUILDERS[builder]
    value = build(_row(16))
    first = getattr(value, row)
    assert getattr(value, row) == tuple(value.array.tolist())
    assert all(type(z) is complex for z in first)
    assert np.array(first).tobytes() == value.array.tobytes()
    assert value.n == len(first) == 16


def test_repr_shows_the_row_tuple():
    a = np.array([1.5, 2j])
    weights = MuWeights((1, 1j))
    assert repr(Circulant(a)) == "circ(1.5, 2j)"
    assert repr(Spectrum(a)) == "Spectrum(values=((1.5+0j), 2j))"
    assert repr(weights) == "MuWeights(values=((1+0j), 1j))"
    assert repr(MuCirculant(a, weights)) == (
        "MuCirculant(coeffs=((1.5+0j), 2j), weights=MuWeights(values=((1+0j), 1j)))"
    )


def test_repr_evaluates_back_to_an_equal_value():
    names = {cls.__name__: cls for cls in (Spectrum, TwoCocycle, MuWeights, MuCirculant)}
    weights = MuWeights((1, 1j, -0.5 + 2j))
    values = (
        Spectrum(np.array([1.5, 2j, -0.0])),
        TwoCocycle([[1, 2j], [-3.5, 1e-300 + 1j]]),
        weights,
        MuCirculant(np.array([1.5, -2j, 0.0]), weights),
    )
    for value in values:
        assert eval(repr(value), names) == value


@pytest.mark.parametrize("builder", ("Circulant", "Spectrum", "MuWeights", "MuCirculant"))
def test_equality_and_hash_agree_on_signed_zeros(builder):
    build, row = BUILDERS[builder]
    # Weights must be nonzero, so the zeros sit in one part of an entry.
    plus = build(np.array([1.0, complex(0.0, 3.0), complex(2.0, 0.0), complex(0.0, -5.0)]))
    minus = build(np.array([complex(1.0, -0.0), complex(-0.0, 3.0), complex(2.0, -0.0), -5j]))
    assert plus.array.tobytes() != minus.array.tobytes()
    assert getattr(plus, row) == getattr(minus, row)
    assert plus == minus and hash(plus) == hash(minus)
    assert build(np.array([1.0, 3j, 2.5, -5j])) != plus
    assert build(np.array([1.0, 3j, 2.0])) != plus


def test_equality_needs_the_same_class_and_weights():
    row = np.array([1.0, 2.0, 3.0])
    assert Circulant(row) != Spectrum(row) and Spectrum(row) != Circulant(row)
    same = MuCirculant(row, MuWeights((1, 1, 1)))
    assert same == MuCirculant(row.copy(), MuWeights([1.0, 1.0, 1.0]))
    assert hash(same) == hash(MuCirculant(row.copy(), MuWeights([1.0, 1.0, 1.0])))
    assert same != MuCirculant(row, MuWeights((1, 1, -1)))


@pytest.mark.parametrize("builder", ("Circulant", "Spectrum", "MuWeights", "MuCirculant"))
def test_values_are_immutable(builder):
    build, row = BUILDERS[builder]
    value = build(_row(4))
    before = value.array.tobytes()
    for name in ("array", row, "_row", "n", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, np.zeros(4))
    for name in ("array", row, "_row"):
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert value.array.tobytes() == before


def test_values_and_documents_store_no_tuple():
    # The tuples are views: a value's one slot is its array, and a
    # document keeps its fields in their stored forms only.
    assert _RowValue.__slots__ == ("array",)
    assert "_tuples" not in MatrixDocument.__slots__


#: Order at which a tuple of Python complex (40 bytes and one traced
#: block per entry) stands far above the result's own 1 MB array.
LARGE = 65536


@pytest.mark.parametrize("call", ("eigenvalues", "fast_mul", "from_spectrum"))
def test_transforms_build_no_python_object_per_entry(call):
    x, y = Circulant(_row(LARGE)), Circulant(_row(LARGE, SEED + 1))
    lam = _row(LARGE, SEED + 2)
    run = {
        "eigenvalues": lambda: eigenvalues(x),
        "fast_mul": lambda: fast_mul(x, y),
        "from_spectrum": lambda: from_spectrum(lam),
    }[call]
    run()  # numpy's FFT plan cache is filled outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        retained = tracemalloc.get_traced_memory()[0] - base
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    blocks = sum(stat.count_diff for stat in after.compare_to(before, "filename"))
    assert blocks < LARGE // 64
    assert retained < result.array.nbytes + LARGE


def test_as_array_and_to_dense_return_fresh_writable_arrays():
    x = Circulant(_row(8))
    spectrum = eigenvalues(x)
    out = spectrum.as_array()
    out[0] = 99
    assert out.flags.writeable and spectrum.values[0] != 99
    dense = x.to_dense()
    dense[0, 0] = 99
    assert dense.flags.writeable and x.coeffs[0] != 99


ORDERS = (1, 2, 12, 97, 1024, 4096)


def _parent_array(row):
    """The array the spectral layer once rebuilt from the tuple."""
    return np.asarray(row, dtype=complex)


def _same(got, want):
    """Equal, and equal in every bit (== cannot tell signed zeros apart)."""
    return got == want and got.array.tobytes() == want.array.tobytes()


@pytest.mark.parametrize("n", ORDERS)
def test_spectral_layer_equals_the_tuple_built_reference(n):
    x, y = _pair(n)
    spectrum = eigenvalues(x)
    assert _same(spectrum, Spectrum(np.fft.ifft(_parent_array(x.coeffs), norm="forward")))
    assert _same(
        from_spectrum(spectrum),
        Circulant(np.fft.fft(_parent_array(spectrum.values), norm="forward")),
    )
    assert _same(fast_mul(x, y), _product_reference(_parent_array(x.coeffs), _parent_array(y.coeffs)))


def _product_reference(a, b):
    """The product of the rows a and b along the path fast_mul takes at
    their order: the length-n transform, or at 97 of ORDERS the
    zero-padded convolution, folded mod n."""
    n, m = a.size, _product_length(a.size)
    if m == n:
        return Circulant(np.fft.ifft(np.fft.fft(a) * np.fft.fft(b)))
    r = np.fft.ifft(np.fft.fft(a, m) * np.fft.fft(b, m))
    return Circulant(np.r_[r[: n - 1] + r[n : 2 * n - 1], r[n - 1]])


@pytest.mark.parametrize("n", ORDERS)
def test_add_sub_neg_equal_the_tuple_loops(n):
    x, y = _pair(n)
    assert _same(x + y, Circulant(tuple(a + b for a, b in zip(x.coeffs, y.coeffs))))
    assert _same(x - y, Circulant(tuple(a - b for a, b in zip(x.coeffs, y.coeffs))))
    assert _same(-x, Circulant(tuple(-c for c in x.coeffs)))


def test_add_sub_neg_keep_the_sign_of_zero():
    z = Circulant([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0)])
    w = Circulant([-0.0, -0.0, complex(-0.0, -0.0), complex(0.0, 0.0)])
    for got, want in (
        (-z, tuple(-c for c in z.coeffs)),
        (z + w, tuple(a + b for a, b in zip(z.coeffs, w.coeffs))),
        (z - w, tuple(a - b for a, b in zip(z.coeffs, w.coeffs))),
    ):
        assert _same(got, Circulant(want))
