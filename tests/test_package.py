"""The package's public names, whichever layers have loaded.

Every layer, `core` and `spectral` included, loads on the first read of
one of its names, so these tests run fresh interpreters: in this one
every layer has loaded already.
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
    modules = [f"circulants.{m}" for m in ("core", "errors", "hopf", "lattice", "spectral", "twisted")]
    assert fresh(script) == ["[]", "True", str(modules)]


def test_the_package_import_loads_no_numpy_and_each_name_resolves_from_it():
    # `import circulants` loads `errors` alone.  Then each of the 86 names,
    # read first after a fresh import of the package (its modules dropped
    # from sys.modules; numpy, once loaded, stays), loads its module and
    # is that module's own object.
    script = (
        "import sys, types\n"
        "import circulants\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('circulants')))\n"
        "wrong = []\n"
        "for name in sys.argv[1:]:\n"
        "    for m in [m for m in sys.modules if m.split('.')[0] == 'circulants']:\n"
        "        del sys.modules[m]\n"
        "    import circulants\n"
        "    value = getattr(circulants, name)\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        ok = value is sys.modules['circulants.' + name]\n"
        "    else:\n"
        "        ok = getattr(sys.modules[value.__module__], name) is value\n"
        "    if not ok:\n"
        "        wrong.append(name)\n"
        "print(wrong)\n"
    )
    assert fresh(script, *PUBLIC_NAMES) == ["False ['circulants', 'circulants.errors']", "[]"]


def test_the_name_forms_is_the_function_and_not_a_submodule():
    # `forms` is a function of `spectral`, and no submodule shares its
    # name: importing the CLI or loading the layers leaves the function
    # bound, and importing `circulants.forms` as a module fails.
    script = (
        "import circulants\n"
        "import circulants.cli\n"
        "print(circulants.forms is circulants.spectral.forms)\n"
        "circulants.hopf, circulants.lattice, circulants.twisted\n"
        "print(circulants.forms is circulants.spectral.forms)\n"
        "try:\n"
        "    import circulants.forms\n"
        "except ModuleNotFoundError:\n"
        "    print('ModuleNotFoundError')\n"
    )
    assert fresh(script) == ["True", "True", "ModuleNotFoundError"]


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
