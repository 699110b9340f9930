"""Every function of the library is entered by some request, or says why not.

A fresh interpreter calls sys.setprofile before it imports pseudoherm, so
that what runs at import counts, and then runs REQUESTS through cli.run
and the strong-field calls of STRONG_FIELD_PULSES: each subcommand at its
defaults (required flags set), the command's and a subcommand's help, a
unique flag prefix, a config file, a table written to --out, two symbol
files the parser refuses, and the library call the benchmark makes
directly.  Every top-level function and method of src/pseudoherm
that no call enters must stand in UNREACHED with the reason it stays; one
that is missing fails the test until a request reaches it, it is listed,
or it is deleted.  An entry that is reached, or names no function, fails
too.

Code objects are matched to definitions by file, name and first line (the
`def` line, or the first decorator's): co_qualname exists only from
Python 3.11.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "pseudoherm"

# Top-level functions and methods that no request enters, with why each stays.
UNREACHED = {
    "cli.main": "console entry: the pseudoherm script calls it, the requests call cli.run",
    "dynamics.crank_nicolson_propagate": "test oracle kept for the benchmark tracer, "
    "which reads its arguments",
    "metric.MetricConvergenceError.__init__": "error path: metric-solve finds no fit",
    "metric.TerminationError.__init__": "error path: a commutator chain that must end does not",
    "models._symbol_grid_parts": "the symbol branch of banded_hamiltonian: since spectrum "
    "left the grid only the tests and crank_nicolson_propagate put a symbol on it",
    "models.refined_eigenvalues": "test oracle kept for the benchmark, whose per_layer "
    "report (perfbench/run.py) reads models.refined_eigenvalues.self_ms",
    "weyl.WeylSymbol.__repr__": "repr text: no request prints a symbol object",
    "weyl.WeylSymbol.__str__": "str text: no request prints a symbol object",
}

INPUT_FILES = {
    "f": "1 0 1 0\n0 2 0.5 0\n",
    "g": "0 1 1 0\n2 1 0 0.25\n",
    # 7x7 boxes: past MAX_MAP, so the product takes the tensor kernel
    "dense": "".join(f"{a} {b} 0.5 -0.25\n" for a in range(7) for b in range(7)),
    "q": "2 0 0.2 0\n",
    "h": "0 2 0.5 0\n1 1 0 -0.2\n2 0 0.25 0\n",  # swanson --n 2 --m 2 --alpha 0.5 --g 0.2
    "nan": "1 0 nan 0\n",
    "malformed": "1 0 1\n",
    "config": "N = 4  # potential exponent\n",
}

# (argv, exit code); {name} stands for the path of INPUT_FILES[name], and
# {out} for a file the requests may write
REQUESTS = [
    (["wedges", "--N", "4"], 0),
    (["contour", "--kind", "z1", "--N", "4"], 0),
    (["contour", "--k=z2", "--N", "3"], 0),  # a unique prefix of --kind
    (["star", "--f", "{f}", "--g", "{g}"], 0),
    (["star", "--f", "{f}", "--g", "{g}", "--op", "commutator"], 0),
    (["star", "--f", "{dense}", "--g", "{dense}"], 0),
    (["kappa", "--upto", "9"], 0),
    (["bch", "--generator", "{q}", "--operand", "{h}"], 0),
    (["metric-verify", "--hamiltonian", "{h}", "--exponent", "{q}"], 0),
    (["metric-solve", "--hamiltonian", "{h}", "--monomials", "2,0"], 0),
    (["swanson", "--n", "2", "--m", "2", "--alpha", "0.5", "--g", "0.2"], 0),
    (["spiked", "--n", "0", "--m", "1"], 0),
    (["x4", "--alpha", "1", "--g", "0.1", "--which", "eta2_exponent"], 0),
    (["spectrum", "--model", "x4h", "--grid", "-8,8,400", "--levels", "3", "--refine", "1"], 0),
    (["spectrum", "--model", "xt4", "--grid", "-8,8,400", "--levels", "3"], 0),
    (["spectrum", "--model", "spiked", "--grid", "0,14,400", "--levels", "3"], 0),
    (["spectrum", "--model", "spiked", "--params", "alpha=0.5", "--levels", "3"], 0),  # no --grid
    (["transition"], 0),
    (["propagate"], 0),
    (["verify-all"], 0),
    (["-h"], 0),
    (["star", "-h"], 0),
    (["contour", "--kind", "z1", "--N", "4", "--out", "{out}"], 0),  # the bytes of request 1
    (["wedges", "--config", "{config}"], 0),
    (["star", "--f", "{nan}", "--g", "{g}"], 1),
    (["star", "--f", "{malformed}", "--g", "{g}"], 1),
]

# dynamics.first_order_strong_field, which no subcommand exposes
STRONG_FIELD_PULSES = [
    {"E0": 0.2, "omega": 1.0, "tau": 2.0},
    {"E0": 0.2, "omega": 1.0, "tau": 2.0, "envelope": "gaussian", "center": 1.0, "width": 0.4},
]

_PROFILE = """
import contextlib, io, json, os, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
import numpy as np
import pseudoherm
from pseudoherm import cli, dynamics, models

job = json.loads(sys.argv[1])
codes, stdouts = [], []
for argv in job["requests"]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.run(argv))
    stdouts.append(stdout.getvalue())
grid = models.GridSpec(x_min=-20.0, x_max=20.0, points=256)
x = grid.coordinates()
psi0, potential = np.exp(-0.5 * x * x) + 0j, 0.01 * x * x
for pulse in job["pulses"]:
    dynamics.first_order_strong_field(psi0, potential, dynamics.Pulse(**pulse), grid, 1.0, n_quad=16)
sys.setprofile(None)

package = os.path.dirname(pseudoherm.__file__)
reached = [
    (os.path.basename(code.co_filename), code.co_firstlineno, code.co_name)
    for code in entered
    if os.path.dirname(code.co_filename) == package
]
json.dump({"package": package, "codes": codes, "stdouts": stdouts, "reached": reached}, sys.stdout)
"""


def _definitions():
    """{'module.qualname': (file name, function name, first-line candidates)}
    for every top-level function and method of the package."""
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(node, "") for node in tree.body]
        scopes += [
            (sub, f"{node.name}.")
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for sub in node.body
        ]
        for node, prefix in scopes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = {node.lineno} | {d.lineno for d in node.decorator_list}
                found[f"{path.stem}.{prefix}{node.name}"] = (path.name, node.name, lines)
    return found


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    """(exit codes of REQUESTS, their stdout texts, the --out file's text,
    definitions no call entered)."""
    work = tmp_path_factory.mktemp("reach")
    paths = {}
    for name, text in INPUT_FILES.items():
        paths[name] = str(work / f"{name}.txt")
        Path(paths[name]).write_text(text)
    paths["out"] = str(work / "out.csv")
    requests = [[arg.format(**paths) for arg in argv] for argv, _ in REQUESTS]
    job = json.dumps({"requests": requests, "pulses": STRONG_FIELD_PULSES})
    path = os.pathsep.join([str(SOURCE.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", _PROFILE, job], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert Path(out["package"]).resolve() == SOURCE.resolve()
    reached = {tuple(key) for key in out["reached"]}
    unreached = {
        qualname
        for qualname, (file, name, lines) in _definitions().items()
        if not any((file, line, name) in reached for line in lines)
    }
    return out["codes"], out["stdouts"], Path(paths["out"]).read_text(), unreached


def test_every_request_exits_as_expected(profile):
    codes, _, _, _ = profile
    assert codes == [code for _, code in REQUESTS]


def test_out_holds_the_bytes_of_stdout(profile):
    _, stdouts, written, _ = profile
    out = next(i for i, (argv, _) in enumerate(REQUESTS) if "--out" in argv)
    assert stdouts[out] == ""
    assert written == stdouts[1] and written.startswith("# command=contour\n")


def test_every_function_is_reached_or_has_a_reason(profile):
    _, _, _, unreached = profile
    missing = sorted(unreached - UNREACHED.keys())
    assert not missing, f"no request enters {', '.join(missing)}: reach, list or delete each"


def test_every_allowlist_entry_is_a_function_no_request_reaches(profile):
    _, _, _, unreached = profile
    gone = sorted(UNREACHED.keys() - _definitions().keys())
    assert not gone, f"UNREACHED names no function: {', '.join(gone)}"
    reached = sorted(UNREACHED.keys() - unreached - set(gone))
    assert not reached, f"UNREACHED names functions a request enters: {', '.join(reached)}"
