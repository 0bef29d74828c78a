"""The oracles stay independent of what they check: only `verify`, which
runs them against production code, imports `oracle`, and `oracle`
computes with nothing from the package.  Shared rules stay in one place:
values are not rebuilt from their tuples, and only `core` takes moduli
with np.hypot, sets numpy's error state, raises FrozenInstanceError and
runs the class invariants."""

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


def tuple_reads(source: str) -> list[int]:
    """Lines where this source reads a `.coeffs`, `.values` or `.mu`
    attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in ("coeffs", "values", "mu")
    )


def test_spectral_and_forms_read_no_row_tuple():
    # The transforms and the forms compute from `.array` alone, so a
    # value that only passes through them never builds its tuple (a
    # Spectrum's repr still does, through the private `_tuple`).
    sample = "a = c.coeffs\nb = s.values[0]\nd = w.mu\nc.array\nx.coeffs = 1\n"
    assert tuple_reads(sample) == [1, 2, 3]
    found = {
        name: tuple_reads((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for name in ("spectral", "forms")
    }
    assert found == {"spectral": [], "forms": []}


def function_sources(module: str) -> dict[str, str]:
    """The source of every function and method of a package module, by
    qualified name (`Class.method` for a method)."""
    text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    found = {}
    for node in ast.parse(text).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for member in members:
            if isinstance(member, ast.FunctionDef):
                found[prefix + member.name] = ast.get_source_segment(text, member)
    return found


def test_exact_algorithms_read_the_cleared_row():
    # A rational value stores its cleared integers once; the Fractions of
    # `coeffs` are a view for the API edge, never an input to the exact
    # algorithms.  The exact entry rule `_as_rational` takes a circulant
    # row in `_rational_row` only, which the one constructor calls (and a
    # spectrum's values in `reconstruct_from_spectrum`).
    functions = function_sources("lattice")
    exact = (
        "RationalCirculant.__add__", "RationalCirculant.__mul__", "RationalCirculant.to_float",
        "_forms", "_exact_cost",
        "integer_spectrum", "_has_integral_forms", "_gauss_jordan", "lattice_new",
        "lattice_decompose", "delta_lattice_decompose",
    )
    assert {name: tuple_reads(functions[name]) for name in exact} == {name: [] for name in exact}
    users = {name for name, source in functions.items() if "_as_rational" in names_read(source)}
    assert users == {"_rational_row", "reconstruct_from_spectrum"}
    doors = {name for name, source in functions.items() if "_rational_row" in names_read(source)}
    assert doors == {"RationalCirculant.__init__"}
    for name in MODULES - {"lattice"}:
        assert "_as_rational" not in (PACKAGE / f"{name}.py").read_text(encoding="utf-8")


#: The names of the exact cost policy of `lattice`: its bound, its models
#: and the lower bounds read off an input's parts, each lower bound under
#: its singular name too.
COST_NAMES = {
    "_EXACT_MAX_COST", "_EXACT_COST_MODEL", "_SOLVE_COST_MODEL", "_TARGET_COST_MODEL",
    "_exact_cost", "_solve_cost",
    "_least_exact_cost", "_least_solve_cost",
    "_least_exact_costs", "_least_solve_costs", "_least_target_costs",
}


def identifiers(source: str) -> set[str]:
    """Every name this source reads bare or as an attribute, or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_the_exact_cost_policy_lives_behind_the_lattice_doors():
    # One bound decides which exact inputs the commands serve, and only
    # `lattice` knows it: `cli` and `bench` ask its doors, `bounded_row`
    # and `bounded_solve`.  In `lattice`, one function compares a cost with
    # the bound and words the refusal.
    readers = {
        name for name in MODULES
        if identifiers((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) & COST_NAMES
    }
    assert readers == {"lattice"}
    assert "_exact_row" not in function_sources("cli")
    functions = function_sources("lattice")
    for policy in ("_EXACT_MAX_COST", "DocumentError"):
        assert {name for name, source in functions.items() if policy in names_read(source)} == {"_refuse_past"}


def names_read(source: str) -> set[str]:
    """The bare names this source reads."""
    return {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def numpy_calls(source: str, function: str) -> list[int]:
    """Lines where this source calls np.<function> (or numpy.<function>)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == function
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]


def calls_outside_core(calls) -> dict[str, list]:
    """calls(source) for each module of the package but `core`."""
    return {
        name: calls((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for name in sorted(MODULES - {"core"})
    }


def test_only_core_takes_moduli_with_hypot():
    # One rule for a reported modulus, `core._moduli`: np.hypot, which
    # rounds like Python's abs(complex), without an overflow warning.
    sample = "a = np.hypot(x, y)\nb = numpy.hypot(x, y)\nc = math.hypot(x, y)\nd = _moduli(z)\n"
    assert numpy_calls(sample, "hypot") == [1, 2]
    found = calls_outside_core(lambda source: numpy_calls(source, "hypot"))
    assert found == {name: [] for name in found}
    assert numpy_calls((PACKAGE / "core.py").read_text(encoding="utf-8"), "hypot")


def test_only_core_sets_the_error_state():
    # One error state, `core._quiet`: every other module wraps its numpy
    # work in it, so no overflow reaches the caller as a warning.
    sample = "a = np.errstate(over='ignore')\nwith numpy.errstate():\n    pass\n@_quiet\ndef f(): pass\n"
    assert numpy_calls(sample, "errstate") == [1, 2]
    found = calls_outside_core(lambda source: numpy_calls(source, "errstate"))
    assert found == {name: [] for name in found}
    assert len(numpy_calls((PACKAGE / "core.py").read_text(encoding="utf-8"), "errstate")) == 1


def frozen_raises(source: str) -> list[int]:
    """Lines where this source raises FrozenInstanceError (called or not,
    bare or as an attribute)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and any(
            getattr(part, "id", getattr(part, "attr", None)) == "FrozenInstanceError"
            for part in ast.walk(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        )
    ]


def test_only_core_raises_frozen_instance_error():
    # One frozen base, `core._Frozen`, for every immutable slotted class.
    sample = (
        "raise FrozenInstanceError('x')\nraise dataclasses.FrozenInstanceError\n"
        "raise ValueError(FrozenInstanceError)\n"
    )
    assert frozen_raises(sample) == [1, 2]
    found = calls_outside_core(frozen_raises)
    assert found == {name: [] for name in found}
    assert len(frozen_raises((PACKAGE / "core.py").read_text(encoding="utf-8"))) == 2


#: The functions that may read the tuple views: the text and hash of a value.
TUPLE_READERS = {"__repr__", "__hash__"}


def tuple_reads_outside(source: str, allowed=TUPLE_READERS) -> list[tuple[int, str]]:
    """(line, function) for each read of a `.coeffs`, `.mu` or `.table`
    attribute that lies in no function named in `allowed`; "" names the
    module or class body."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in ("coeffs", "mu", "table")
            and function not in allowed
        ):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return sorted(found)


def test_computed_values_never_read_the_cached_tuples():
    # Every computed value is built from arrays through `core._result`, so
    # the tuples are read only where the text or the hash needs Python
    # numbers.
    sample = (
        "def psi(m):\n    return m.coeffs\n"
        "class V:\n    def __repr__(self):\n        return str(self.coeffs)\n"
        "    def f(self):\n        return [w.mu for w in self.table]\n"
        "x = y.array\n"
    )
    assert tuple_reads_outside(sample) == [(2, "psi"), (7, "f"), (7, "f")]
    found = {
        name: tuple_reads_outside((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for name in ("core", "spectral", "forms", "hopf", "twisted")
    }
    assert found == {name: [] for name in found}


#: The public constructors and builders that check outside input.  A
#: document holds its decoded fields as arrays, so it builds its complex
#: values through `_result` and `_mu_result` alone: one construction
#: path, with the entry rule's finiteness test and the class invariants.
CHECKING_CONSTRUCTORS = {"Circulant", "MuCirculant", "MuWeights", "skew_circ", "TwoCocycle"}


def checking_constructor_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) for each call whose callee names one of
    CHECKING_CONSTRUCTORS, alone or in an attribute chain
    (`MuWeights.from_tail(...)`, `core.Circulant(...)`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            for part in ast.walk(node.func):
                name = part.id if isinstance(part, ast.Name) else getattr(part, "attr", None)
                if name in CHECKING_CONSTRUCTORS:
                    found.append((node.lineno, name))
    return sorted(found)


def test_documents_build_complex_values_only_from_arrays():
    sample = (
        "a = Circulant(row)\nb = _result(Circulant, z)\nc = MuWeights.from_tail(t)\n"
        "d = core.skew_circ(r)\ne = _mu_result(z, _weights_result(w))\nf = TwoCocycle\n"
    )
    assert checking_constructor_calls(sample) == [(1, "Circulant"), (3, "MuWeights"), (4, "skew_circ")]
    source = (PACKAGE / "documents.py").read_text(encoding="utf-8")
    assert checking_constructor_calls(source) == []
    assert all(f"{name}(" in source for name in ("_result", "_mu_result"))


def invariant_calls(source: str) -> list[int]:
    """Lines where this source calls a class invariant, `_check`, bare or
    as an attribute (`self._check(arr)`, `cls._check(arr)`)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_check"
    ]


def test_only_core_runs_the_class_invariants():
    # One door per source of a value: `_RowValue.__init__` for outside
    # input and `_result` for computed arrays, both in `core`; the row
    # classes themselves define no constructor.
    from circulants import Circulant, MuWeights, Spectrum

    sample = "self._check(a)\ncls._check(a)\n_check(a)\nf = cls._check\n_check_tol(t)\n"
    assert invariant_calls(sample) == [1, 2, 3]
    found = calls_outside_core(invariant_calls)
    assert found == {name: [] for name in found}
    assert len(invariant_calls((PACKAGE / "core.py").read_text(encoding="utf-8"))) == 2
    assert not any("__init__" in vars(cls) for cls in (Circulant, Spectrum, MuWeights))


def equality_definers(source: str) -> list[str]:
    """Names of the classes of this source whose body defines or assigns
    `__eq__` or `__hash__`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        names = set()
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(member.name)
            elif isinstance(member, (ast.Assign, ast.AnnAssign)):
                targets = member.targets if isinstance(member, ast.Assign) else [member.target]
                names.update(target.id for target in targets if isinstance(target, ast.Name))
        if names & {"__eq__", "__hash__"}:
            found.append(node.name)
    return found


def test_one_equality_rule_for_the_frozen_values():
    # `core._Frozen` compares and hashes every frozen value by its `_key()`;
    # the others define only `_key`.  `_RowValue` compares its arrays
    # without building the tuples and keeps the key's hash; `MuCirculant`
    # also compares its weights.
    sample = (
        "class A:\n    def __eq__(self, o): pass\n"
        "class B:\n    __hash__ = None\n"
        "class C:\n    def _key(self): pass\n"
        "class D:\n    __hash__: object = None\n"
    )
    assert equality_definers(sample) == ["A", "B", "D"]
    found = {
        (name, cls)
        for name in MODULES
        for cls in equality_definers((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    }
    assert found == {("core", "_Frozen"), ("core", "_RowValue"), ("twisted", "MuCirculant")}
