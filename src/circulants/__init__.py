"""Circulant-matrix algebra toolkit.

Core objects: :class:`Circulant` (a matrix identified with its first
row), spectral diagonalization and the fast multiplication path,
characteristic forms with conjugate/inverse, the transferred Hopf
structure (counit, block-circulant coproduct, transpose antipode),
coboundary-twisted mu- and skew circulants, and exact rational Brandt
and lattice analysis.
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
from .hopf import (
    BlockCirculant,
    HopfReport,
    antipode,
    block_mul,
    comultiplication,
    counit,
    delta_spectrum,
    factorize_dense,
    integral_check,
    reconstruct_factorization,
    verify_antipode_axiom,
    verify_counit_axiom,
)
from .lattice import (
    BrandtVerdict,
    IntegerSpectrum,
    LatticeBasis,
    LatticeSolution,
    RationalCirculant,
    SpectrumReconstruction,
    basis_inverse_integral,
    brandt_check,
    delta_lattice_decompose,
    exact_char_poly,
    forms_exact,
    integer_spectrum,
    lattice_decompose,
    lattice_new,
    rational_circ,
    reconstruct_from_spectrum,
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
from .twisted import (
    MuCirculant,
    MuEigenDecomposition,
    MuWeights,
    TwoCocycle,
    cocycle_from_mu,
    mu_circ,
    mu_eigen,
    mu_forms,
    mu_mul,
    mu_to_dense,
    psi,
    psi_inv,
    skew_circ,
    skew_root,
    verify_cocycle,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
