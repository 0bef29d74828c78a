"""Circulants, spectra and twisted values keep their validated row twice:
as the tuple of Python complex numbers and as a read-only ndarray
`array`.  The array is private to the value, invisible to `==`, `hash`
and `repr`, and the spectral layer computes from it with results equal
to those built from the tuple."""

import dataclasses
import pickle

import numpy as np
import pytest

from circulants import (
    Circulant,
    MuCirculant,
    MuWeights,
    Spectrum,
    eigenvalues,
    fast_mul,
    from_spectrum,
)
from circulants.fixtures import random_circulant

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
    build, row = BUILDERS[builder]
    value = build(_row(8))
    field = next(f for f in dataclasses.fields(value) if f.name == "array")
    assert not (field.init or field.repr or field.compare)
    assert "array" not in repr(value)
    twin = build(_row(8))
    object.__setattr__(twin, "array", np.zeros(1))
    assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


@pytest.mark.parametrize("builder", BUILDERS)
def test_pickle_and_replace_round_trip(builder):
    build, row = BUILDERS[builder]
    value = build(_row(12))
    for copy in (pickle.loads(pickle.dumps(value)), dataclasses.replace(value)):
        assert copy == value and hash(copy) == hash(value)
        assert tuple(copy.array.tolist()) == getattr(value, row)
        assert not copy.array.flags.writeable


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
    assert _same(
        fast_mul(x, y),
        Circulant(
            np.fft.ifft(np.fft.fft(_parent_array(x.coeffs)) * np.fft.fft(_parent_array(y.coeffs)))
        ),
    )


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
