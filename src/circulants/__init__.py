"""Circulant-matrix algebra toolkit.

Core objects: :class:`Circulant` (a matrix identified with its first
row), spectral diagonalization and the fast multiplication path,
characteristic forms with conjugate/inverse, the transferred Hopf
structure (counit, block-circulant coproduct, transpose antipode),
coboundary-twisted mu- and skew circulants, and exact rational Brandt
and lattice analysis.

Importing the package loads `errors` only, and no numpy.  Every layer,
`core` and `spectral` included, loads on first use: the first read of
one of its names (``circulants.Circulant``, ``circulants.brandt_check``,
``from circulants import MuCirculant``, ``circulants.hopf``) imports the
module behind it, so a process that never reads one does not compile or
execute it.  The exact layer `lattice` rests on the numpy-free `base`,
and loads numpy, `core` and `spectral` only for its float views, so a
process that computes only exactly never imports numpy.
"""

from .errors import (
    CirculantError,
    DependentBasisError,
    DimensionMismatchError,
    IncompatibleAlgebrasError,
    InvalidCocycleError,
    InvalidModeError,
    InvalidOrderError,
    InvalidScalarError,
    InvalidVectorError,
    InvalidWeightsError,
    NotIntegralBasisError,
    RootAssignmentError,
    SingularMatrixError,
)

#: The submodule behind each name that loads on first use; a submodule's
#: own name maps to itself.
_LAZY = {
    **dict.fromkeys(
        ("core", "Circulant", "circ", "fundamental", "identity", "linear_combine", "mul_naive"),
        "core",
    ),
    **dict.fromkeys(
        (
            "spectral",
            "FormsVector",
            "FourierContext",
            "InvertibilityVerdict",
            "Spectrum",
            "SymmetricTables",
            "char_poly",
            "conjugate",
            "eigenvalues",
            "eigenvector",
            "eigenvector_matrix",
            "fast_mul",
            "forms",
            "fourier_context",
            "from_spectrum",
            "inverse",
            "is_invertible",
            "symmetric_tables",
            "to_diagonal",
        ),
        "spectral",
    ),
    **dict.fromkeys(
        (
            "hopf",
            "BlockCirculant",
            "HopfReport",
            "antipode",
            "block_mul",
            "comultiplication",
            "counit",
            "delta_spectrum",
            "factorize_dense",
            "integral_check",
            "reconstruct_factorization",
            "verify_antipode_axiom",
            "verify_counit_axiom",
        ),
        "hopf",
    ),
    **dict.fromkeys(
        (
            "lattice",
            "BrandtVerdict",
            "IntegerSpectrum",
            "LatticeBasis",
            "LatticeSolution",
            "RationalCirculant",
            "SpectrumReconstruction",
            "basis_inverse_integral",
            "brandt_check",
            "delta_lattice_decompose",
            "exact_char_poly",
            "forms_exact",
            "integer_spectrum",
            "lattice_decompose",
            "lattice_new",
            "rational_circ",
            "reconstruct_from_spectrum",
        ),
        "lattice",
    ),
    **dict.fromkeys(
        (
            "twisted",
            "MuCirculant",
            "MuEigenDecomposition",
            "MuWeights",
            "TwoCocycle",
            "cocycle_from_mu",
            "mu_circ",
            "mu_eigen",
            "mu_forms",
            "mu_mul",
            "mu_to_dense",
            "psi",
            "psi_inv",
            "skew_circ",
            "skew_root",
            "verify_cocycle",
        ),
        "twisted",
    ),
}

__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    """A name of a layer (`core`, `spectral`, `hopf`, `lattice` or
    `twisted`), or the submodule itself, imported on its first read and
    kept in the package's globals, so that later reads do not come here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
