"""Wall times of the pseudoherm command line and of the kernels behind its
transition and symbol tables, written to one JSON file.

    python bench.py --out BENCH.json         # about ten seconds
    python bench.py --out b.json --tiny      # three repeats of each, a few seconds

Run it from any directory; the program is imported from the src/ next to
this file.  Every figure is timed in-process with time.perf_counter over
repeated calls, after one untimed call, and reported as the median and the
quartiles q1 and q3 of the repeats:

- `subcommands`: each subcommand at its defaults (required flags set, on
  small symbol files written to a temporary directory), and `propagate`
  at a scaled-up 20000 snapshots, in seconds from the call of `cli.run`
  to its return, the last byte written to an in-memory stdout;
- `kernels`: the transition sweep per (omega, xi) point at 200 x 3 (the
  `transition` defaults) and 20000 x 8, the float formatter `_float_cells`
  per value at 3, 800 and 9555 values, and the row writer `_csv_blocks`
  per row of the default `transition` table, all in nanoseconds; the star
  product of two dense symbols of total degree 2 (the map kernel) and 10
  (the tensor kernel), in microseconds, and the table entry `_table` per
  row of the products of two dense symbols of degree 6 and 10 (91 and 231
  rows, below `_WRITER_ROWS`: one `%` per row) and 12 (325 rows, the row
  writer), in nanoseconds;
- `machine` and `commit`: CPU count, Python and numpy versions, numpy's
  SIMD baseline, dispatch targets and the features found on this CPU, the
  BLAS build numpy was configured with and any `OPENBLAS_CORETYPE`, the
  BLAS and OpenMP thread variables as the environment has them, and the
  git commit of the tree (with a flag for uncommitted changes).

The script sets no thread variable and imports nothing from perfbench/.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pseudoherm import cli, dynamics, weyl  # noqa: E402
from pseudoherm.models import SpikedHOModel  # noqa: E402

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SYMBOLS = {
    "f": "1 0 1 0\n0 2 0.5 0\n",
    "g": "0 1 1 0\n2 1 0 0.25\n",
    "q": "2 0 0.2 0\n",
    "h": "0 2 0.5 0\n1 1 0 -0.2\n2 0 0.25 0\n",  # swanson --n 2 --m 2 --alpha 0.5 --g 0.2
}

# each subcommand at its defaults, and propagate scaled up; {name} is the path of SYMBOLS[name]
SUBCOMMANDS = {
    "wedges": ["wedges", "--N", "4"],
    "contour": ["contour", "--kind", "z1", "--N", "4"],
    "star": ["star", "--f", "{f}", "--g", "{g}"],
    "kappa": ["kappa", "--upto", "9"],
    "bch": ["bch", "--generator", "{q}", "--operand", "{h}"],
    "metric-verify": ["metric-verify", "--hamiltonian", "{h}", "--exponent", "{q}"],
    "metric-solve": ["metric-solve", "--hamiltonian", "{h}", "--monomials", "2,0"],
    "swanson": ["swanson", "--n", "2", "--m", "2", "--alpha", "0.5", "--g", "0.2"],
    "spiked": ["spiked", "--n", "2", "--m", "3"],
    "x4": ["x4", "--alpha", "1", "--g", "0.1"],
    "spectrum": ["spectrum", "--model", "x4h", "--levels", "3"],
    "transition": ["transition"],
    "propagate": ["propagate"],
    "propagate --snapshots 20000": ["propagate", "--snapshots", "20000"],
    "verify-all": ["verify-all"],
}


def _figure(call, unit, per, tiny):
    """Median and quartiles of call's time over `per` units of work, after
    one untimed call: 3 repeats when tiny, else enough to fill about half a
    second, 7 to 2000."""
    start = time.perf_counter()
    call()
    first = time.perf_counter() - start
    repeats = 3 if tiny else int(min(2000, max(7, 0.5 / max(first, 1e-6))))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    scale = {"ns": 1e9, "us": 1e6}.get(unit[:2], 1.0) / per
    q1, median, q3 = (float(t) * scale for t in np.percentile(times, [25, 50, 75]))
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "repeats": repeats}


def _run_cli(argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return call


def subcommand_figures(tiny):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in SYMBOLS.items():
            paths[name] = str(Path(tmp) / f"{name}.sym")
            Path(paths[name]).write_text(text)
        out = {}
        for name, argv in SUBCOMMANDS.items():
            argv = [token.format(**paths) for token in argv]
            out[name] = {"argv": argv, **_figure(_run_cli(argv), "s", 1, tiny)}
        return out


def kernel_figures(tiny):
    model, tau = SpikedHOModel(lam=0.5, alpha=0.2), 20.0 * math.pi
    out = {}
    for steps, width in ((200, 3), (20000, 8)):
        xis = list(np.linspace(0.0, 1.0, width))
        call = lambda: dynamics.transition_sweep(model, 2, 3, 0.005, 1.5, 2.5, steps, tau, xis)  # noqa: E731
        out[f"transition_sweep_{steps}x{width}"] = _figure(call, "ns/point", steps * width, tiny)
    omegas, probabilities = dynamics.transition_sweep(model, 2, 3, 0.005, 1.5, 2.5, 200, tau, [0.0, 0.5, 1.0])
    # the values of the default table, and those of the first row block of a 5000 x 6 one
    values = np.concatenate([omegas, probabilities.T.ravel()])
    big_omegas, big = dynamics.transition_sweep(model, 2, 3, 0.005, 1.5, 2.5, 5000, tau, list(np.linspace(0.0, 1.0, 6)))
    rows = cli._ROW_BLOCK // 6
    block = np.concatenate([big_omegas[:rows], big.T[:rows].ravel()])
    for sample in (values[:3], values, block):
        out[f"float_cells_{sample.size}"] = _figure(lambda: cli._float_cells(sample), "ns/value", sample.size, tiny)
    xi_cells = np.array([b"0", b"0.5", b"1"], dtype="S").view(np.uint8).reshape(1, 3, -1)
    fields = [omegas[:, None], xi_cells, probabilities.T]
    call = lambda: list(cli._csv_blocks(fields, 200, 3))  # noqa: E731
    out["csv_blocks_200x3"] = _figure(call, "ns/row", 600, tiny)
    # dense symbols of total degree 2 and 10: the map and the tensor kernel
    rng = np.random.default_rng(2006)
    for degree in (2, 10):
        f, g = (_dense_symbol(rng, degree) for _ in range(2))
        out[f"star_deg{degree}"] = _figure(lambda: weyl.star(f, g), "us/product", 1, tiny)
    # symbol tables on either side of _WRITER_ROWS: products of degree 12, 20 and 24
    for degree in (6, 10, 12):
        dx, dp, c = weyl.star(*(_dense_symbol(rng, degree) for _ in range(2))).arrays()
        call = lambda: list(cli._table("ddgg", dx, dp, c.real, c.imag))  # noqa: E731
        out[f"table_{dx.size}"] = _figure(call, "ns/row", dx.size, tiny)
    return out


def _dense_symbol(rng, degree):
    """Every monomial of total degree <= degree, with complex normal coefficients."""
    keys = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    return weyl.WeylSymbol(zip(keys, rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))))


def machine():
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(__cpu_baseline__),
        "simd_dispatch": list(__cpu_dispatch__),
        "cpu_features": sorted(name for name, found in __cpu_features__.items() if found),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def commit():
    def git(*args):
        result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return result.stdout.strip() if result.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--tiny", action="store_true", help="three repeats of each figure")
    args = parser.parse_args(argv)
    record = {
        "commit": commit(),
        "machine": machine(),
        "subcommands": subcommand_figures(args.tiny),
        "kernels": kernel_figures(args.tiny),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
