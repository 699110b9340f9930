"""Guards on the library source itself, read with ast rather than imported."""
import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "pseudoherm"


def _imported_modules(tree):
    """Every module an import statement names, nested imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_library_imports_nothing_from_scipy_integrate(path):
    # every integral the library prints is a closed form or a fixed rule;
    # the adaptive quad and solve_ivp serve the tests only, as oracles
    tree = ast.parse(path.read_text(), filename=str(path))
    adaptive = [
        name for name in _imported_modules(tree)
        if name == "scipy.integrate" or name.startswith("scipy.integrate.")
    ]
    assert adaptive == []


def _identifiers(tree):
    """Every name, attribute, import alias and definition in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from (node.name, node.asname)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(SOURCE.glob("*.py")) if path.name not in ("dynamics.py", "__init__.py")],
    ids=lambda path: path.name,
)
def test_no_library_path_runs_crank_nicolson(path):
    # Crank-Nicolson is the tests' oracle: dynamics defines it and the
    # package exports it (the benchmark tracer counts its steps), and no
    # other module may call it
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "crank_nicolson_propagate" not in set(_identifiers(tree))
