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
