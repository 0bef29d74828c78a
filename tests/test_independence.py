"""The oracles stay independent of what they check: only `verify`, which
runs them against production code, imports `oracle`, and `oracle`
computes with nothing from the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circulants"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def package_imports(name: str) -> set[str]:
    """Modules of the package that module `name` imports anywhere in its
    body, relatively (`from .x import`, `from . import x`) or absolutely
    (`import circulants.x`, `from circulants import x`)."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "circulants":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "circulants" and len(parts) > 1:
                    found.add(parts[1])
    return found & MODULES


def test_only_verify_imports_the_oracle():
    assert "oracle" in MODULES and "lattice" in MODULES and "bench" in MODULES
    importers = {name for name in MODULES if "oracle" in package_imports(name)}
    assert importers == {"verify"}


def test_oracle_imports_no_circulant_module():
    # The shared exception types are the one thing it may take.
    assert package_imports("oracle") <= {"errors"}


def array_rebuilds(source: str) -> list[int]:
    """Lines where this source calls np.asarray or np.array (or the
    numpy. spelling) with a `.coeffs`, `.values` or `.mu` attribute as the row."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("asarray", "array")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and node.args
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr in ("coeffs", "values", "mu")
    ]


def test_values_are_not_rebuilt_from_their_tuples():
    # Every value carries its validated row as the read-only `.array`;
    # only the oracles, which stay independent of it, may rebuild one.
    sample = "a = np.asarray(c.coeffs, dtype=complex)\nb = numpy.array(s.values)\nd = np.asarray(c.array)\n"
    assert array_rebuilds(sample) == [1, 2]
    found = {
        name: array_rebuilds((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for name in sorted(MODULES - {"oracle"})
    }
    assert found == {name: [] for name in found}
