"""Exception types shared across the package.

Each type declares the exit status that `circulants` returns when it
escapes a command, as the class attribute ``exit_code``: 2 (malformed
input or usage error) unless the type overrides it with 1 (a domain
failure: the input is well formed but has no answer, such as a singular
matrix or a dependent basis).
"""


class CirculantError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InvalidOrderError(CirculantError, ValueError):
    """Matrix order is empty, zero or negative."""


class InvalidScalarError(CirculantError, ValueError):
    """A scalar entry is NaN, infinite, or of an unsupported type."""


class DimensionMismatchError(CirculantError, ValueError):
    """Operands have incompatible orders."""


class InvalidVectorError(CirculantError, ValueError):
    """A vector argument is empty or identically zero."""


class SingularMatrixError(CirculantError, ArithmeticError):
    """Inverse requested for a (numerically) singular matrix.

    ``witness`` is the 1-based eigenvalue slot j at which the representer
    polynomial vanishes at the n-th root of unity omega^(j-1), when known.
    """

    exit_code = 1

    def __init__(self, message: str, witness: int | None = None):
        super().__init__(message)
        self.witness = witness


class InvalidWeightsError(CirculantError, ValueError):
    """Twist weights must start with 1 and contain no zeros."""


class InvalidCocycleError(CirculantError, ValueError):
    """A two-cocycle table contains a zero entry or is malformed."""


class IncompatibleAlgebrasError(CirculantError, ValueError):
    """Operands live in twisted algebras with different weights."""


class DependentBasisError(CirculantError, ValueError):
    """Proposed lattice basis rows are linearly dependent."""

    exit_code = 1


class NotIntegralBasisError(CirculantError, ValueError):
    """Operation requires a basis whose exact inverse is integral."""

    exit_code = 1


class RootAssignmentError(CirculantError, ArithmeticError):
    """Exact roots could not be unambiguously matched to eigenvalue slots."""

    exit_code = 1
