"""Coboundary-twisted circulants, including skew circulants.

Pick weights mu_1 = 1, mu_2, ..., mu_n (all nonzero).  They induce the
two-cocycle F(e_i, e_j) = mu_i mu_j / mu_{i+j-1} on the cyclic group,
and the twisted algebra embeds into matrices as

    circ(c_1, ..., c_n; mu_2, ..., mu_n)

with first row (c_1, ..., c_n), diagonal c_1, and entry
c_{j-i+1} * mu_i * mu_{j-i+1} / mu_j elsewhere.  Rescaling coefficients
by the weights,

    Psi: circ(c; mu) -> circ(c_1, c_2 mu_2, ..., c_n mu_n),

is an algebra isomorphism onto ordinary circulants, which transports
products and the eigen decomposition: with
p(X) = c_1 + c_2 mu_2 X + ... + c_n mu_n X^(n-1) the eigenvalues are
lambda_j = p(omega^(j-1)) and the eigenvector of lambda_j is
(1, mu_2 omega^(j-1), mu_3 omega^(2(j-1)), ...).

Skew circulants (sign flipped below the diagonal) are the special case
mu_i = sigma^(i-1) for sigma = cos(pi/n) + i sin(pi/n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Circulant, _entries
from .errors import (
    DimensionMismatchError,
    IncompatibleAlgebrasError,
    InvalidCocycleError,
    InvalidOrderError,
    InvalidScalarError,
    InvalidWeightsError,
)
from .forms import FormsVector, forms_of_spectrum
from .hopf import HopfReport, _check_tol
from .spectral import Spectrum, eigenvalues, eigenvector_matrix

_WEIGHT_MATCH_TOL = 1e-12
#: verify_cocycle takes tables whose entries have max(|re|, |im|) in this
#: range: then each product of two entries, and the difference of two
#: such products, is a finite normal float with full relative precision.
_COCYCLE_ENTRY_RANGE = (2.0**-500, 2.0**500)


@dataclass(frozen=True)
class MuWeights:
    """Full weight vector (mu_1, ..., mu_n) with mu_1 = 1, all nonzero,
    also held as the read-only array `array`."""

    mu: tuple[complex, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu, arr = _entries(self.mu)
        if mu[0] != 1:
            raise InvalidWeightsError(f"mu_1 must be exactly 1, got {mu[0]!r}")
        if any(m == 0 for m in mu):
            raise InvalidWeightsError("weights must be nonzero")
        self.__dict__["mu"], self.__dict__["array"] = mu, arr

    def __reduce__(self):
        return type(self), (self.mu,)

    @classmethod
    def from_tail(cls, tail) -> "MuWeights":
        """Build from (mu_2, ..., mu_n); the leading 1 is implied."""
        return cls((1.0 + 0.0j,) + tuple(tail))

    @property
    def n(self) -> int:
        return len(self.mu)

    def matches(self, other: "MuWeights") -> bool:
        return self.n == other.n and all(
            abs(a - b) <= _WEIGHT_MATCH_TOL for a, b in zip(self.mu, other.mu)
        )


@dataclass(frozen=True)
class TwoCocycle:
    """Explicit table F[i][j] = F(e_{i+1}, e_{j+1}), all entries nonzero."""

    table: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        n = len(self.table)
        if n == 0:
            raise InvalidOrderError("empty cocycle table")
        rows = []
        for row in self.table:
            if len(row) != n:
                raise InvalidCocycleError("cocycle table must be square")
            entries, _ = _entries(row)
            if any(x == 0 for x in entries):
                raise InvalidCocycleError("cocycle values must be nonzero")
            rows.append(entries)
        object.__setattr__(self, "table", tuple(rows))

    @property
    def n(self) -> int:
        return len(self.table)


@dataclass(frozen=True)
class MuCirculant:
    """circ(c_1, ..., c_n; mu_2, ..., mu_n); the coefficients are also
    held as the read-only array `array`."""

    coeffs: tuple[complex, ...]
    weights: MuWeights
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.__dict__["coeffs"], self.__dict__["array"] = _entries(self.coeffs)
        if len(self.coeffs) != self.weights.n:
            raise DimensionMismatchError(
                f"{len(self.coeffs)} coefficients but {self.weights.n} weights"
            )

    def __reduce__(self):
        return type(self), (self.coeffs, self.weights)

    @property
    def n(self) -> int:
        return len(self.coeffs)


def mu_circ(coeffs, mu_tail) -> MuCirculant:
    """Build circ(c_1, ..., c_n; mu_2, ..., mu_n) from the two lists."""
    return MuCirculant(tuple(coeffs), MuWeights.from_tail(mu_tail))


def skew_root(n: int) -> complex:
    """sigma = cos(pi/n) + i sin(pi/n); sigma^2 = omega and sigma^n = -1."""
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    return complex(np.exp(1j * np.pi / n))


def cocycle_from_mu(weights: MuWeights) -> TwoCocycle:
    """Coboundary cocycle F(e_i, e_j) = mu_i mu_j / mu_{i+j-1 mod n}.

    Entries on the first row and column are exactly 1 (mu_1 = 1), so they
    are not routed through floating division.
    """
    n = weights.n
    mu = weights.mu
    table = tuple(
        tuple(
            1.0 + 0.0j if i == 0 or j == 0 else mu[i] * mu[j] / mu[(i + j) % n]
            for j in range(n)
        )
        for i in range(n)
    )
    return TwoCocycle(table)


def verify_cocycle(f: TwoCocycle, tol: float = 1e-10) -> HopfReport:
    """Check normalization and the cocycle identity
    F(x,y) F(xy,z) = F(y,z) F(x,yz) over all n^3 triples; the reported
    residual is the worst relative deviation.

    Raises InvalidScalarError on a negative or NaN tol, and on a table with
    an entry outside 2^-500 .. 2^500 in magnitude, whose products could
    overflow or underflow and so give no verdict."""
    _check_tol(tol)
    n = f.n
    t = f.table
    lo, hi = _COCYCLE_ENTRY_RANGE
    mags = [max(abs(z.real), abs(z.imag)) for row in t for z in row]
    if min(mags) < lo or max(mags) > hi:
        raise InvalidScalarError(
            "cocycle entries must lie within 2^-500 .. 2^500 in magnitude,"
            " so that their products stay in the float range"
        )
    worst = 0.0
    for i in range(n):
        worst = max(worst, abs(t[0][i] - 1.0), abs(t[i][0] - 1.0))
    for x in range(n):
        for y in range(n):
            xy = (x + y) % n
            f_xy = t[x][y]
            for z in range(n):
                lhs = f_xy * t[xy][z]
                rhs = t[y][z] * t[x][(y + z) % n]
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return HopfReport("cocycle", worst <= tol, worst)


def mu_to_dense(m: MuCirculant) -> np.ndarray:
    """Dense expansion: entry (i, j) = c_{j-i+1} mu_i mu_{j-i+1} / mu_j.

    On the first row and the main diagonal the weight factor is
    identically 1, so those entries carry c_j and c_1 verbatim rather
    than going through floating division.
    """
    n = m.n
    c = m.array
    mu = m.weights.array
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    shift = (j - i) % n
    factor = mu[i] * mu[shift] / mu[j]
    factor[0, :] = 1.0
    np.fill_diagonal(factor, 1.0)
    return c[shift] * factor


def psi(m: MuCirculant) -> Circulant:
    """The untwisting isomorphism: coefficients rescaled by the weights."""
    return Circulant(tuple(c * w for c, w in zip(m.coeffs, m.weights.mu)))


def psi_inv(c: Circulant, weights: MuWeights) -> MuCirculant:
    """Inverse of :func:`psi`: divide coefficients by the weights."""
    if c.n != weights.n:
        raise DimensionMismatchError(f"order {c.n} vs {weights.n} weights")
    return MuCirculant(tuple(x / w for x, w in zip(c.coeffs, weights.mu)), weights)


def mu_mul(x: MuCirculant, y: MuCirculant) -> MuCirculant:
    """Product inside one twisted algebra, transported through psi: the
    circulant product psi(x) * psi(y), with its dispatch by order."""
    if not x.weights.matches(y.weights):
        raise IncompatibleAlgebrasError("operands have different twist weights")
    return psi_inv(psi(x) * psi(y), x.weights)


@dataclass(frozen=True)
class MuEigenDecomposition:
    """Spectrum in slot order plus the matrix whose j-th column is the
    eigenvector (1, mu_2 omega^(j-1), mu_3 omega^(2(j-1)), ...)."""

    spectrum: Spectrum
    vectors: np.ndarray


def mu_eigen(m: MuCirculant) -> MuEigenDecomposition:
    """Closed-form eigen decomposition read off the entries."""
    spectrum = eigenvalues(psi(m))
    vectors = m.weights.array[:, None] * eigenvector_matrix(m.n)
    return MuEigenDecomposition(spectrum=spectrum, vectors=vectors)


def skew_circ(coeffs) -> MuCirculant:
    """scirc(c_1, ..., c_n): a circulant with every entry below the main
    diagonal negated, realized as circ(c; sigma, sigma^2, ..., sigma^(n-1))."""
    coeffs = tuple(coeffs)
    n = len(coeffs)
    mu = np.exp(1j * np.pi * np.arange(n) / n)
    return MuCirculant(coeffs, MuWeights(tuple(mu.tolist())))


def mu_forms(m: MuCirculant) -> FormsVector:
    """Forms q_i = s_i(lambda_1, ..., lambda_n) of a twisted element;
    q_1 = n c_1 is still the trace and q_n the determinant."""
    return forms_of_spectrum(eigenvalues(psi(m)))
