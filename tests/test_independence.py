"""The oracles stay independent of what they check: only the modules
that run them against production code import `oracle`, and `oracle`
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


def test_only_verify_and_bench_import_the_oracle():
    assert "oracle" in MODULES and "lattice" in MODULES
    importers = {name for name in MODULES if "oracle" in package_imports(name)}
    assert importers == {"verify", "bench"}


def test_oracle_imports_no_circulant_module():
    # The shared exception types are the one thing it may take.
    assert package_imports("oracle") <= {"errors"}
