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


# SciPy modules and names the library does not import, each with why
BANNED_SCIPY = (
    # every integral the library prints is a closed form or a fixed rule;
    # the adaptive quad and solve_ivp serve the tests only, as oracles
    "scipy.integrate",
    # metric-solve's least-squares fit is a short numpy Levenberg-Marquardt;
    # importing scipy.optimize for it more than doubled the symbolic cold start
    "scipy.optimize",
    # numpy.fft gives the same bits for the strong-field transforms, and
    # importing scipy.fft cost every cold start of the strong-field step 35-105 ms
    "scipy.fft",
    # the Floquet power diagonalizes the period's operator with numpy's eig
    # and qr; the Schur form would load scipy.linalg for a run that jumps
    "scipy.linalg.schur",
)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
@pytest.mark.parametrize("banned", BANNED_SCIPY)
def test_library_imports_no_banned_scipy(banned, path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        name for name in _imported_modules(tree)
        if name == banned or name.startswith(f"{banned}.")
    ]
    assert found == []


def test_only_dynamics_imports_scipy_special():
    # wofz (the gaussian pulse's Faddeeva primitive) is the one special
    # function the library takes from scipy; the spiked elements use a
    # numpy Jacobi matrix, so spiked and transition load no scipy at all
    users = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(
            name == "scipy.special" or name.startswith("scipy.special.")
            for name in _imported_modules(tree)
        ):
            users.add(path.name)
    assert users == {"dynamics.py"}


@pytest.mark.parametrize("name", ["weyl.py", "metric.py"])
def test_symbol_modules_import_no_scipy(name):
    # the symbol path's cold start is numpy alone: symbol requests start in
    # about half the time of those that load scipy.linalg, so the Moyal
    # kernels take their matrix products from np.matmul, not scipy.linalg.blas
    tree = ast.parse((SOURCE / name).read_text(), filename=name)
    scipy = [module for module in _imported_modules(tree) if module.split(".")[0] == "scipy"]
    assert scipy == []


def test_no_module_imports_argparse():
    # the CLI reads its flags in one pass over the Param tables; argparse
    # once cost a help or usage error its import and a parser per subcommand
    users = [
        path.name for path in sorted(SOURCE.glob("*.py"))
        if "argparse" in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert users == []


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


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(SOURCE.glob("*.py")) if path.name != "weyl.py"],
    ids=lambda path: path.name,
)
def test_only_weyl_reaches_inside_a_symbol(path):
    # the symbol invariant (finite, trimmed, degrees at most MAX_DEGREE)
    # lives in one module: every coefficient array becomes a symbol through
    # its one gate, so no other module may import a private weyl name or
    # read a symbol's array or its unchecked _wrap
    tree = ast.parse(path.read_text(), filename=str(path))
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("weyl", "pseudoherm.weyl"):
            reached += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in ("_c", "_wrap"):
            reached.append(node.attr)
    assert reached == []


def test_models_take_only_the_pair_type_from_metric():
    # the Swanson and -x^4 pairs are closed forms; the BCH ladder and the
    # metric residual that check them run in verify-all, not per request
    tree = ast.parse((SOURCE / "models.py").read_text(), filename="models.py")
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "metric":
            taken += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # the module itself: import pseudoherm.metric, from . import metric
            taken += [alias.name for alias in node.names if alias.name.split(".")[-1] == "metric"]
    assert taken == ["SimilarityPair"]


def test_the_propagation_kernel_names_no_grid():
    # eigenbasis_propagate takes level energies and a coupling in whatever
    # basis the caller holds, so a closed-form basis calls it as the grid
    # path does: neither it nor a module function it reaches names a grid
    tree = ast.parse((SOURCE / "dynamics.py").read_text(), filename="dynamics.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, pending = set(), ["eigenbasis_propagate"]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += [
                node.id for node in ast.walk(functions[name])
                if isinstance(node, ast.Name) and node.id in functions
            ]
    assert {"_segment_operators", "_tree_product", "_period_cuts"} <= reached
    named = sorted(
        (name, ast.unparse(node)) for name in reached for node in ast.walk(functions[name])
        if (isinstance(node, ast.Name) and node.id == "GridSpec")
        or (isinstance(node, ast.Attribute) and node.attr in ("step", "coordinates"))
    )
    assert named == []


def test_verify_all_solves_no_grid():
    # the eigenbasis rows run the kernel on the closed-form spiked levels
    # and their exact <k|x|l>: no identity names the grid path
    tree = ast.parse((SOURCE / "identities.py").read_text(), filename="identities.py")
    assert {"propagate_level", "hermitian_spectrum"} & set(_identifiers(tree)) == set()
