"""Circulant-matrix algebra toolkit.

Core objects: :class:`Circulant` (a matrix identified with its first
row), spectral diagonalization and the fast multiplication path,
characteristic forms with conjugate/inverse, the transferred Hopf
structure (counit, block-circulant coproduct, transpose antipode),
coboundary-twisted mu- and skew circulants, and exact rational Brandt
and lattice analysis.

The group algebra itself (`core`, `errors`, `spectral`, `forms`) loads
with the package.  The layers built on it, `hopf`, `lattice` and
`twisted`, load on first use: the first read of one of their names
(``circulants.brandt_check``, ``from circulants import MuCirculant``,
``circulants.hopf``) imports the module behind it, so a process that
never reads one does not compile or execute them.

``circulants.forms`` is the function `forms.forms`, not the submodule
of that name: the package binds the function over the submodule when
it loads, and ``import circulants.forms`` leaves that binding as it is.
The module is ``sys.modules["circulants.forms"]``.
"""

from .core import Circulant, circ, fundamental, identity, linear_combine, mul_naive
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
from .forms import (
    FormsVector,
    InvertibilityVerdict,
    SymmetricTables,
    char_poly,
    conjugate,
    forms,
    inverse,
    is_invertible,
    symmetric_tables,
)
from .spectral import (
    FourierContext,
    Spectrum,
    eigenvalues,
    eigenvector,
    eigenvector_matrix,
    fast_mul,
    fourier_context,
    from_spectrum,
    to_diagonal,
)

#: The submodule behind each name that loads on first use; a submodule's
#: own name maps to itself.
_LAZY = {
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
    """A name of `hopf`, `lattice` or `twisted`, or the submodule itself,
    imported on its first read and kept in the package's globals, so that
    later reads do not come here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
