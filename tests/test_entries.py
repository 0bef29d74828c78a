"""Every value type takes its entries through one rule: the same rows are
rejected with the same error type, and accepted rows are stored as
complex(v), whichever constructor receives them."""

import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from circulants import (
    Circulant,
    InvalidOrderError,
    InvalidScalarError,
    MuCirculant,
    MuWeights,
    Spectrum,
    TwoCocycle,
    factorize_dense,
    from_spectrum,
    reconstruct_factorization,
)


def _table_with_first_row(row):
    n = len(row)
    return (row,) + ((1,) * n,) * (n - 1) if n else ()


# Each builder returns the row as the value stored it.  The twisted
# builders put the row where it is validated: weights (mu_1 = 1 leads
# every accepted row), coefficients over unit weights, and the first row
# of a cocycle table whose other rows are ones.  The dense factorization
# helpers take that table too, and keep its first row as row 0.
BUILDERS = {
    "Circulant": lambda row: Circulant(row).coeffs,
    "Spectrum": lambda row: Spectrum(row).values,
    "from_spectrum": lambda row: from_spectrum(row).coeffs,
    "MuWeights": lambda row: MuWeights(row).mu,
    "MuCirculant": lambda row: MuCirculant(row, MuWeights((1,) * len(row))).coeffs,
    "TwoCocycle": lambda row: TwoCocycle(_table_with_first_row(row)).table[0],
    "factorize_dense": lambda row: tuple(factorize_dense(_table_with_first_row(row))[0].tolist()),
    "reconstruct_factorization": lambda row: tuple(
        reconstruct_factorization(_table_with_first_row(row))[0].tolist()
    ),
}

REJECTED = {
    "fraction-and-string": ([Fraction(1, 3), "2"], InvalidScalarError),
    "none": ([None, 1], InvalidScalarError),
    "nested": ([[1, 2], [3, 4]], InvalidScalarError),
    "ragged": ([[1, 2], [3]], InvalidScalarError),
    "beyond-float-range": ([1, 10**400], InvalidScalarError),
    "signaling-nan": ([1, Decimal("sNaN")], InvalidScalarError),
    "long-double-beyond-float-range": (np.array([1, np.longdouble("1e400")]), InvalidScalarError),
    "datetime": (np.array(["2020-01-01"], dtype="datetime64[ns]"), InvalidScalarError),
    "nan-last-of-4096": ([1.0] * 4095 + [float("nan")], InvalidScalarError),
    "empty": ((), InvalidOrderError),
}

ACCEPTED = {
    "bool": [True, True],
    "fraction": [1, Fraction(1, 3), Fraction(-7, 2)],
    "decimal": [1, Decimal("0.1"), Decimal("-2.5")],
    "int-beyond-int64": [1, 10**30, -(2**70)],
    "numpy-scalars": [np.float64(1), np.float32(0.1), np.int64(-3), np.complex64(2 - 1j)],
    "numpy-array": np.array([1, 0.5, -2j]),
}


@pytest.mark.parametrize("row_name", REJECTED)
@pytest.mark.parametrize("builder", BUILDERS)
def test_every_constructor_rejects_the_same_rows(builder, row_name):
    row, error = REJECTED[row_name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            BUILDERS[builder](row)


@pytest.mark.parametrize("row_name", ACCEPTED)
@pytest.mark.parametrize("builder", BUILDERS)
def test_every_constructor_stores_complex_of_each_entry(builder, row_name):
    row = ACCEPTED[row_name]
    want = tuple(complex(v) for v in row)
    if builder == "from_spectrum":
        want = from_spectrum(want).coeffs
    got = BUILDERS[builder](row)
    assert got == want
    assert all(type(z) is complex for z in got)
