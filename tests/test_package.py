"""The package's public names, whichever layers have loaded.

`hopf`, `lattice` and `twisted` load on the first read of one of their
names, so these tests run fresh interpreters: in this one every layer
has loaded already.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import circulants

PUBLIC_NAMES = [
    "BlockCirculant", "BrandtVerdict", "Circulant", "CirculantError", "DependentBasisError",
    "DimensionMismatchError", "FormsVector", "FourierContext", "HopfReport",
    "IncompatibleAlgebrasError", "IntegerSpectrum", "InvalidCocycleError", "InvalidModeError",
    "InvalidOrderError", "InvalidScalarError", "InvalidVectorError", "InvalidWeightsError",
    "InvertibilityVerdict", "LatticeBasis", "LatticeSolution", "MuCirculant",
    "MuEigenDecomposition", "MuWeights", "NotIntegralBasisError", "RationalCirculant",
    "RootAssignmentError", "SingularMatrixError", "Spectrum", "SpectrumReconstruction",
    "SymmetricTables", "TwoCocycle", "antipode", "basis_inverse_integral", "block_mul",
    "brandt_check", "char_poly", "circ", "cocycle_from_mu", "comultiplication", "conjugate", "core",
    "counit", "delta_lattice_decompose", "delta_spectrum", "eigenvalues", "eigenvector",
    "eigenvector_matrix", "errors", "exact_char_poly", "factorize_dense", "fast_mul", "forms",
    "forms_exact", "fourier_context", "from_spectrum", "fundamental", "hopf", "identity",
    "integer_spectrum", "integral_check", "inverse", "is_invertible", "lattice", "lattice_decompose",
    "lattice_new", "linear_combine", "mu_circ", "mu_eigen", "mu_forms", "mu_mul", "mu_to_dense",
    "mul_naive", "psi", "psi_inv", "rational_circ", "reconstruct_factorization",
    "reconstruct_from_spectrum", "skew_circ", "skew_root", "spectral", "symmetric_tables",
    "to_diagonal", "twisted", "verify_antipode_axiom", "verify_cocycle", "verify_counit_axiom",
]

ENV = dict(os.environ, PYTHONPATH=str(Path(circulants.__file__).resolve().parents[1]))


def fresh(script: str, *args: str) -> list[str]:
    """The lines a fresh interpreter prints running script, warnings as errors."""
    argv = [sys.executable, "-W", "error", "-c", script, *args]
    return subprocess.run(argv, env=ENV, capture_output=True, text=True, check=True).stdout.splitlines()


def test_public_names_are_those_of_before_and_come_from_their_modules():
    # The 86 names of the package when it loaded every layer eagerly.  A
    # name of a layer resolves to that module's own object, a submodule's
    # name to the submodule; `dir` lists every name before any is read,
    # and a star import resolves them all.
    assert len(PUBLIC_NAMES) == 86
    assert sorted(circulants.__all__) == PUBLIC_NAMES
    script = (
        "import sys, types\n"
        "import circulants\n"
        "print(sorted(set(circulants.__all__) - set(dir(circulants))))\n"
        "namespace = {}\n"
        "exec('from circulants import *', namespace)\n"
        "print(sorted(namespace.keys() - {'__builtins__'}) == sorted(circulants.__all__))\n"
        "def home(name, value):\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        return value is sys.modules['circulants.' + name] and 'circulants.' + name\n"
        "    return getattr(sys.modules[value.__module__], name) is value and value.__module__\n"
        "print(sorted({home(name, value) for name, value in namespace.items() if name != '__builtins__'}))\n"
    )
    modules = [f"circulants.{m}" for m in ("core", "errors", "forms", "hopf", "lattice", "spectral", "twisted")]
    assert fresh(script) == ["[]", "True", str(modules)]


def test_the_name_forms_is_the_function_after_the_submodule_is_imported():
    # The function `forms` shares its submodule's name; the package binds
    # the function, and importing the submodule or the CLI, or loading the
    # layers that import `forms`, leaves it bound.
    script = (
        "import sys\n"
        "import circulants.forms\n"
        "import circulants\n"
        "function = sys.modules['circulants.forms'].forms\n"
        "print(circulants.forms is function)\n"
        "import circulants.cli\n"
        "print(circulants.forms is function)\n"
        "circulants.twisted, circulants.lattice\n"
        "print(circulants.forms is function)\n"
    )
    assert fresh(script) == ["True"] * 3


def test_a_pickled_rational_circulant_loads_after_only_the_package_import():
    # Unpickling imports `circulants.lattice` by name, though the package
    # import has not loaded it.
    value = circulants.rational_circ(["1/3", "-2", "5/7"])
    script = (
        "import pickle, sys\n"
        "import circulants\n"
        "print('circulants.lattice' in sys.modules)\n"
        "print(repr(pickle.loads(bytes.fromhex(sys.argv[1]))))\n"
    )
    assert fresh(script, pickle.dumps(value).hex()) == ["False", repr(value)]
