"""Property tests of the `propagate`, `spectrum`, `spiked`, `transition`,
`contour` and `wedges` command lines, the symbol subcommands (`star`, `bch`,
`metric-verify`, `metric-solve`, `swanson`, `x4`, `kappa`) and `verify-all`.

Uses Hypothesis (MacIver et al., "Hypothesis: A new approach to
property-based testing", JOSS 4 (2019) 1891) with a derandomized, fixed
example budget.  Derandomized does not mean frozen: Hypothesis 6.155.2
also draws, with probability 0.05 per choice, one of the literals of every
loaded module outside site-packages
(hypothesis/internal/conjecture/providers.py, _get_local_constants), so a
new literal anywhere in src/ or tests/ can change what these tests draw.
Each fault a draw has found is therefore pinned as an @example, which runs
on every pass whatever the draws.  Each parameter is left
at its default or drawn from the edges of its kind: 0, +-1e-300, +-1e300,
negative numbers and huge integers; `transition`'s omega and tau
also reach 1e308 and the largest double.  T stays at or below 0.05, accepted
grids at or below 200 points and accepted sweeps at or below 40
frequencies, so an accepted run is short.  Whatever the draw, `cli.run`
returns 0, 1 or 2 without raising (numpy warnings are errors under the
test configuration); an error prints nothing on stdout; exit 0 prints only
finite numbers (for `propagate` every population and for `transition`
every probability in [0, 1], for `spectrum` one ascending energy per
level), and `propagate`'s last time is the T its head echoes; and the
same argv prints the same bytes twice.  Every number of a
`transition` or `contour` table, which the array formatter prints, reads
back to the same string through `cli._fmt`.  Symbol files are drawn into a
temporary directory: up to four terms of degree <= 3 with ordinary or
overflowing coefficients, and at times a NaN, inf, degree-171 or malformed
line; `kappa --upto` is drawn up to its bound 401 and beyond it.
"""
import argparse
import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import cli
from pseudoherm.weyl import WeylSymbol

EDGE_FLOATS = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "-1", "-0.5")
EDGE_INTS = ("0", "-1", "-3", str(10**20), str(2**63))
FINAL_TIMES = ("0.05", "0.02", "0", "1e-300", "-1e-300", "-1", "-1e300")
GRID_ENDS = ("0", "14", "1e-300", "-1e-300", "1e300", "-1e300", "-1")
GRID_POINTS = ("16", "64", "200", "15", "0", "-1")
# transition's omega and tau reach the top of the double range, where the
# carrier phase (omega + |E_n - E_m|) tau overflows
DOUBLE_TOP = ("1e308", "1.7976931348623157e308")
SWEEP_ENDS = ("1.5", "2.5") + EDGE_FLOATS + DOUBLE_TOP
SWEEP_STEPS = ("2", "3", "40", "1", "0", "-1", str(10**20), str(2**63))
# accepted matrix-element levels, or edges
LEVEL_INTS = st.one_of(st.sampled_from(("0", "1", "2", "3", "7")), st.sampled_from(EDGE_INTS))


def _flag(kind, choices=()):
    if kind == "float":
        return st.sampled_from(EDGE_FLOATS)
    if kind == "int":
        return st.sampled_from(EDGE_INTS)
    if kind == "choice":
        return st.sampled_from(tuple(choices) + ("none",))
    if kind == "floatlist":
        return st.one_of(
            st.sampled_from(("0,0.5,1", "0")),
            st.lists(st.sampled_from(EDGE_FLOATS), min_size=1, max_size=3).map(",".join),
        )
    if kind == "range":
        return st.one_of(
            st.sampled_from(("1.5:2.5:40", "1.9:2.1:3")),
            st.builds(
                lambda lo, hi, steps: f"{lo}:{hi}:{steps}",
                st.sampled_from(SWEEP_ENDS), st.sampled_from(SWEEP_ENDS),
                st.sampled_from(SWEEP_STEPS),
            ),
        )
    assert kind == "grid", kind
    edges = st.builds(
        lambda lo, hi, points: f"{lo},{hi},{points}",
        st.sampled_from(GRID_ENDS), st.sampled_from(GRID_ENDS), st.sampled_from(GRID_POINTS),
    )
    return st.one_of(st.sampled_from(("0,14,64", "0,8,200", "0,14,16")), edges)


def _edge_flags(draw, params, names):
    argv = []
    for name in names:
        # propagate's final time keeps to FINAL_TIMES, so an accepted run is short
        flag = st.sampled_from(FINAL_TIMES) if name == "T" else _flag(params[name].kind, params[name].choices)
        argv += [f"--{name}", draw(flag)]
    return argv


PARAMS = {p.name: p for p in cli._SUBCOMMANDS["propagate"].params}
# half the --levels and --refine draws are accepted values, half edges
LEVELS = st.one_of(st.sampled_from(("1", "3", "6")), st.sampled_from(EDGE_INTS))
REFINE = st.one_of(st.sampled_from(("1", "2")), st.sampled_from(EDGE_INTS))


@st.composite
def propagate_argvs(draw):
    # T and the grid are always set (their defaults are a long run); up to
    # three other flags take an edge value and the rest keep their defaults,
    # so that some draws pass every check and the accepted edges (E0 = 1e300,
    # dt = 1e300, lambda = 1e-300, ...) reach the propagator
    others = sorted(set(PARAMS) - {"T", "grid"})
    names = ["T", "grid"] + draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
    return ["propagate"] + _edge_flags(draw, PARAMS, names)


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(propagate_argvs())
# accepted edges, each run on every pass
@example(["propagate", "--T", "0.05", "--grid", "0,14,64", "--E0", "1e300"])
@example(["propagate", "--T", "0.05", "--grid", "0,8,200", "--dt", "1e300", "--lambda", "1e-300",
          "--E0", "0"])
@example(["propagate", "--T", "1e-300", "--grid", "0,14,16", "--alpha", "0", "--omega", "1e300",
          "--E0", "0"])
# zero snapshot intervals are a usage error: they printed only t = 0 under the echoed T
@example(["propagate", "--T", "0.02", "--grid", "1e-300,14,64", "--tau", "1e-300",
          "--snapshots", "0"])
# a driven run whose step cannot resolve the carrier (omega dt >= pi) exits 1
@example(["propagate", "--T", "0.05", "--grid", "0,8,200", "--dt", "1e300", "--lambda", "1e-300"])
@example(["propagate", "--T", "1e-300", "--grid", "0,14,16", "--alpha", "0", "--omega", "1e300"])
def test_propagate_never_raises_and_prints_only_valid_rows(argv):
    code, out = _invoke(argv)
    assert code in (0, 1, 2)
    assert _invoke(argv) == (code, out)
    if code != 0:
        assert out == ""
        return
    assert "nan" not in out and "inf" not in out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "t,norm,population_n"
    # the last row is the final time the head echoes
    assert lines[-1].split(",")[0] == out.split("# T=", 1)[1].split("\n", 1)[0]
    for row in lines[1:]:
        t, norm, population = (float(cell) for cell in row.split(","))
        assert math.isfinite(t) and math.isfinite(norm)
        assert 0.0 <= population <= 1.0


@st.composite
def spectrum_argvs(draw):
    # model and levels are required and a grid is always drawn; --refine and
    # one --params entry (a known key, or an unknown one) are drawn or left
    # at their defaults
    model = draw(st.sampled_from(sorted(cli._SPECTRUM_DEFAULTS)))
    accepted = ("0,14,64", "0,8,200", "0,14,16") if model == "spiked" else (
        "-6,6,64", "-8,8,200", "-5,5,16")
    grid = draw(st.one_of(st.sampled_from(accepted), _flag("grid")))
    argv = ["spectrum", "--model", model, "--grid", grid,
            "--levels", draw(LEVELS)]
    if draw(st.booleans()):
        argv += ["--refine", draw(REFINE)]
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(cli._SPECTRUM_DEFAULTS[model]) + ["omega"]))
        argv += ["--params", f"{key}={draw(st.sampled_from(EDGE_FLOATS))}"]
    return argv


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(spectrum_argvs())
# accepted runs of every model, each run on every pass
@example(["spectrum", "--model", "spiked", "--grid", "0,14,200", "--levels", "6",
          "--refine", "2"])
@example(["spectrum", "--model", "x4h", "--grid", "-8,8,200", "--levels", "3",
          "--refine", "1", "--params", "g=1e-300"])
@example(["spectrum", "--model", "xt4", "--grid", "-5,5,16", "--levels", "1",
          "--params", "g=1e-300"])
# the chain at alpha = 1e-300, whose grid refinement once put the levels out of
# order, is refused: its oscillator scale (p^4/x^2 = 2.5e297/1e-300) overflows
@example(["spectrum", "--model", "x4h", "--grid", "-6,6,64", "--levels", "3",
          "--refine", "1", "--params", "alpha=1e-300"])
def test_spectrum_never_raises_and_prints_ascending_levels(argv):
    code, out = _invoke(argv)
    assert code in (0, 1, 2)
    assert _invoke(argv) == (code, out)
    if code != 0:
        assert out == ""
        return
    assert "nan" not in out and "inf" not in out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "n,energy"
    levels = int(argv[argv.index("--levels") + 1])
    assert [row.split(",")[0] for row in lines[1:]] == [str(n) for n in range(levels)]
    energies = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(math.isfinite(value) for value in energies)
    assert energies == sorted(energies)


SPIKED = {p.name: p for p in cli._SUBCOMMANDS["spiked"].params}
TRANSITION = {p.name: p for p in cli._SUBCOMMANDS["transition"].params}


@st.composite
def spiked_argvs(draw):
    # the levels are required; up to three other flags take an edge value
    others = sorted(set(SPIKED) - {"n", "m"})
    argv = ["spiked", "--n", draw(LEVEL_INTS), "--m", draw(LEVEL_INTS)]
    names = draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
    return argv + _edge_flags(draw, SPIKED, names)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(spiked_argvs())
# accepted edges, each run on every pass
@example(["spiked", "--n", "7", "--m", "0", "--alpha", "0", "--variant", "p_shift"])
@example(["spiked", "--n", "3", "--m", "3", "--xi", "1e300"])
def test_spiked_never_raises_and_prints_finite_elements(argv):
    code, out = _invoke(argv)
    assert code in (0, 1, 2)
    assert _invoke(argv) == (code, out)
    if code != 0:
        assert out == ""
        return
    assert "nan" not in out and "inf" not in out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "op_kind,re,im"
    assert [row.split(",")[0] for row in lines[1:]] == ["position", "momentum", "mapped_position"]
    for row in lines[1:]:
        assert all(math.isfinite(float(cell)) for cell in row.split(",")[1:])


@st.composite
def transition_argvs(draw):
    # every flag has a default (a 200 x 3 sweep); up to three take an edge
    # value, tau one up to the top of the double range
    names = draw(st.lists(st.sampled_from(sorted(TRANSITION)), unique=True, max_size=3))
    argv = ["transition"] + _edge_flags(draw, TRANSITION, [n for n in names if n != "tau"])
    if "tau" in names:
        argv += ["--tau", draw(st.sampled_from(EDGE_FLOATS + DOUBLE_TOP))]
    return argv


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(transition_argvs())
# accepted edges, each run on every pass
@example(["transition", "--E0", "0", "--omega", "1e-300:1e300:3"])
@example(["transition", "--n", "3", "--m", "2", "--xi", "-1e300", "--tau", "1e-300"])
# a sweep too large to hold is refused before anything is allocated
@example(["transition", "--omega", f"1.5:2.5:{2**63}"])
# on the diagonal first order prints survival probabilities above 1: refused
@example(["transition", "--n", "0", "--m", "0"])
# a carrier phase past the double range, once a RuntimeWarning from sin
@example(["transition", "--omega", "1:1e308:3", "--tau", "40"])
@example(["transition", "--tau", "1.7976931348623157e308"])
def test_transition_never_raises_and_prints_probabilities(argv):
    code, out = _invoke(argv)
    assert code in (0, 1, 2)
    assert _invoke(argv) == (code, out)
    if code != 0:
        assert out == ""
        return
    assert "nan" not in out and "inf" not in out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "omega,xi,probability"
    for row in lines[1:]:
        omega, xi, probability = (float(cell) for cell in row.split(","))
        assert math.isfinite(omega) and math.isfinite(xi)
        assert 0.0 <= probability <= 1.0


def _assert_canonical(rows):
    # a 12-digit %g string reads back to itself, whatever printed it
    for row in rows:
        for cell in row.split(","):
            assert cli._fmt(float(cell)) == cell, row


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(transition_argvs())
@example(["transition", "--E0", "0", "--omega", "1e-300:1e300:3"])
@example(["transition", "--n", "3", "--m", "2", "--xi", "-1e300", "--tau", "1e-300"])
def test_transition_prints_canonical_cells(argv):
    code, out = _invoke(argv)
    assert code in (0, 1, 2)
    if code == 0:
        _assert_canonical([line for line in out.splitlines() if not line.startswith("#")][1:])


CONTOUR = {p.name: p for p in cli._SUBCOMMANDS["contour"].params}
# accepted potential exponents and sample counts, or edges
ORDERS = st.one_of(st.sampled_from(("2", "3", "4", "12")), st.sampled_from(EDGE_INTS))
SAMPLES = st.one_of(st.sampled_from(("1", "2", "201")), st.sampled_from(EDGE_INTS))


@st.composite
def contour_argvs(draw):
    # kind and N are required; up to three other flags take an edge value
    argv = ["contour", "--kind", draw(_flag("choice", ("z1", "z2"))), "--N", draw(ORDERS)]
    for name in draw(st.lists(st.sampled_from(("a", "samples", "xspan")), unique=True,
                              max_size=3)):
        argv += [f"--{name}", draw(SAMPLES if name == "samples" else _flag(CONTOUR[name].kind))]
    return argv


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(contour_argvs())
# the parameter and the scale at 1e300, where sqrt(a^2 + x^2) once overflowed
@example(["contour", "--kind", "z1", "--N", "4", "--a", "1", "--xspan", "1e300", "--samples", "3"])
@example(["contour", "--kind", "z1", "--N", "4", "--a", "1e300"])
def test_contour_never_raises_and_prints_finite_points(argv):
    code, out = _invoke(argv)
    assert code in (0, 1, 2)
    assert _invoke(argv) == (code, out)
    if code != 0:
        assert out == ""
        return
    assert "nan" not in out and "inf" not in out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "x,re_z,im_z"
    samples = argv[argv.index("--samples") + 1] if "--samples" in argv else "201"
    assert len(lines) - 1 == int(samples)
    for row in lines[1:]:
        assert all(math.isfinite(float(cell)) for cell in row.split(","))
    _assert_canonical(lines[1:])


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(st.builds(lambda N: ["wedges", "--N", N], ORDERS))
def test_wedges_never_raises_and_prints_finite_angles(argv):
    code, out = _invoke(argv)
    assert code in (0, 1, 2)
    assert _invoke(argv) == (code, out)
    if code != 0:
        assert out == ""
        return
    assert "nan" not in out and "inf" not in out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "side,theta_lo,theta_hi,theta_anti_stokes"
    assert [row.split(",")[0] for row in lines[1:]] == ["left", "right"]
    for row in lines[1:]:
        assert all(math.isfinite(float(cell)) for cell in row.split(",")[1:])


# -- symbol subcommands and verify-all ---------------------------------------


@dataclass(frozen=True)
class SymbolFile:
    """A symbol file argument: the text is written out when the test runs."""

    text: str


# ordinary coefficients, or edges whose products underflow or overflow
COEFFICIENTS = st.one_of(
    st.sampled_from(("1", "-0.5", "2.5", "0")),
    st.sampled_from(("1e-300", "1e200", "-1e250", "1e308", "1.5e308")),
)
DEGREES = st.sampled_from(("0", "1", "2", "3"))
TERM_LINES = st.builds("{} {} {} {}".format, DEGREES, DEGREES, COEFFICIENTS, COEFFICIENTS)
# NaN and inf, degree-171 terms (above weyl.MAX_DEGREE), malformed lines,
# and lines the reader skips
ODD_LINES = st.sampled_from((
    "1 1 nan 0", "0 0 1 inf", "171 0 1 0", "0 171 1 0", "1 2 3", "x 0 1 0", "1.5 0 1 0",
    "-1 0 1 0", "1 1 1 0 0", "deg_x,deg_p,re,im", "# comment", "",
))
# up to four terms, and in one file of three an odd line
SYMBOL_FILES = st.builds(
    lambda terms, odd: SymbolFile("\n".join(terms + odd) + "\n"),
    st.lists(TERM_LINES, max_size=4),
    st.one_of(st.just([]), st.just([]), st.lists(ODD_LINES, min_size=1, max_size=1)),
)
# coefficients 1e200 to 1e308, whose products overflow inside the kernels
HUGE = SymbolFile("0 2 1e300 0\n2 0 1e308 0\n1 1 1e200 1e250\n")
HUGE_CUBIC = SymbolFile("3 0 1e300 0\n1 1 1e300 0\n")
HUGE_COUPLING = SymbolFile("0 2 1 0\n2 0 1 0\n1 1 0 1e200\n")
# finite parts whose modulus 2.1e308 is not a double
HUGE_MODULUS = SymbolFile("0 2 1.5e308 1.5e308\n0 0 1 0\n")
ORDERS_BCH = st.one_of(st.sampled_from(("0", "1", "8")),
                      st.sampled_from(("-1", "-3", "171", str(10**20))))
MONOMIALS = st.sampled_from(("0,1;1,0", "2,0", "1,1", "0,2;2,0", "0,0", "171,0", "-1,0", ""))
UPTO = st.sampled_from(("1", "2", "3", "201", "401", "0", "-1", "-3", "403", str(10**20)))
PARAM_FLOATS = st.one_of(st.sampled_from(("0.5", "1", "-2")), st.sampled_from(EDGE_FLOATS))
PARAM_INTS = st.one_of(st.sampled_from(("1", "2", "3", "6")), st.sampled_from(EDGE_INTS))
TOLERANCES = st.sampled_from(("1e-10", "1e-3", "0", "-1", "1e300"))


@st.composite
def symbol_argvs(draw):
    command = draw(st.sampled_from(
        ("star", "bch", "metric-verify", "metric-solve", "swanson", "x4", "kappa")))
    if command == "star":
        argv = ["star", "--f", draw(SYMBOL_FILES), "--g", draw(SYMBOL_FILES)]
        return argv + ["--op", draw(st.sampled_from(("star", "commutator")))]
    if command == "bch":
        return ["bch", "--generator", draw(SYMBOL_FILES), "--operand", draw(SYMBOL_FILES),
                "--max_order", draw(ORDERS_BCH)]
    if command == "metric-verify":
        return ["metric-verify", "--hamiltonian", draw(SYMBOL_FILES),
                "--exponent", draw(SYMBOL_FILES), "--tol", draw(TOLERANCES)]
    if command == "metric-solve":
        return ["metric-solve", "--hamiltonian", draw(SYMBOL_FILES),
                "--monomials", draw(MONOMIALS), "--tol", draw(TOLERANCES)]
    if command == "swanson":
        return ["swanson", "--n", draw(PARAM_INTS), "--m", draw(PARAM_INTS),
                "--alpha", draw(PARAM_FLOATS), "--g", draw(PARAM_FLOATS),
                "--which", draw(st.sampled_from(("h", "H", "q")))]
    if command == "x4":
        return ["x4", "--alpha", draw(PARAM_FLOATS), "--g", draw(PARAM_FLOATS),
                "--which", draw(st.sampled_from(("h", "H", "q", "eta2_exponent")))]
    return ["kappa", "--upto", draw(UPTO)]


HEADERS = {
    "star": "deg_x,deg_p,re,im",
    "bch": "deg_x,deg_p,re,im",
    "swanson": "deg_x,deg_p,re,im",
    "x4": "deg_x,deg_p,re,im",
    "metric-verify": "term,deg_x,deg_p,re,im",
    "metric-solve": "deg_x,deg_p,coefficient",
    "kappa": "n,kappa",
}


@pytest.fixture(scope="module")
def symbol_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("symbols")


def _written(argv, directory):
    """argv with each SymbolFile written into directory and replaced by its path."""
    out = []
    for arg in argv:
        if isinstance(arg, SymbolFile):
            path = directory / f"{hashlib.sha256(arg.text.encode()).hexdigest()[:16]}.txt"
            path.write_text(arg.text)
            arg = str(path)
        out.append(arg)
    return out


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(argv=symbol_argvs())
# kernel overflows, refused with one error line instead of numpy warnings
@example(argv=["star", "--f", HUGE, "--g", HUGE, "--op", "star"])
@example(argv=["star", "--f", HUGE, "--g", HUGE_CUBIC, "--op", "commutator"])
@example(argv=["bch", "--generator", HUGE_CUBIC, "--operand", HUGE, "--max_order", "8"])
@example(argv=["metric-verify", "--hamiltonian", HUGE, "--exponent", HUGE_CUBIC,
               "--tol", "1e-10"])
@example(argv=["metric-solve", "--hamiltonian", HUGE, "--monomials", "0,1;1,0",
               "--tol", "1e-10"])
@example(argv=["metric-solve", "--hamiltonian", HUGE_COUPLING, "--monomials", "0,1;1,0",
               "--tol", "1e-10"])
@example(argv=["swanson", "--n", "2", "--m", "2", "--alpha", "1e300", "--g", "1e300",
               "--which", "H"])
# a series that never terminates, summed past 1/170!: it raised OverflowError
@example(argv=["bch", "--generator", SymbolFile("1 1 1 0\n"), "--operand", SymbolFile("1 0 1 0\n"),
               "--max_order", "171"])
# a term whose modulus overflows, once dropped from the product without a word
@example(argv=["star", "--f", HUGE_MODULUS, "--g", SymbolFile("0 0 1 0\n"), "--op", "star"])
# products past MAX_DEGREE, refused so that every printed symbol parses back
@example(argv=["star", "--f", SymbolFile("0 170 1 0\n"), "--g", SymbolFile("0 170 1 0\n"),
               "--op", "star"])
@example(argv=["bch", "--generator", SymbolFile("1 3 1 0\n"), "--operand",
               SymbolFile("0 168 1 0\n"), "--max_order", "8"])
# accepted runs
@example(argv=["star", "--f", SymbolFile("0 170 1 0\n"), "--g", SymbolFile("2 0 1 0\n"),
               "--op", "commutator"])
@example(argv=["x4", "--alpha", "1", "--g", "0.5", "--which", "eta2_exponent"])
@example(argv=["kappa", "--upto", "401"])
# beyond the bound, once unbounded work (each odd n recomputed its secant numbers)
@example(argv=["kappa", "--upto", "403"])
def test_symbol_commands_never_raise_and_print_finite_rows(symbol_dir, argv):
    argv = _written(argv, symbol_dir)
    code, out = _invoke(argv)
    assert code in (0, 1, 2)
    assert _invoke(argv) == (code, out)
    # metric-verify prints its residual and exits 1 when the candidate fails
    if code != 0 and not (argv[0] == "metric-verify" and "# passed=false" in out):
        assert out == ""
        return
    lines = out.splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    assert rows[0] == HEADERS[argv[0]]
    for line in lines:
        if line.startswith("# residual"):
            assert math.isfinite(float(line.split("=", 1)[1]))
    for row in rows[1:]:
        if argv[0] == "kappa":
            n, kappa = row.split(",")
            assert int(n) % 2 == 1 and Fraction(kappa) != 0
        else:
            assert all(math.isfinite(float(cell)) for cell in row.split(","))
    if HEADERS[argv[0]] == "deg_x,deg_p,re,im":
        WeylSymbol.from_text(out)  # a printed symbol parses back


@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(st.builds(lambda seed: ["verify-all", "--seed", seed], st.sampled_from(("0", "1", "7"))))
@example(["verify-all"])
def test_verify_all_passes_every_check_for_any_seed(argv):
    code, out = _invoke(argv)
    assert _invoke(argv) == (code, out)
    assert code == 0
    assert "nan" not in out and "inf" not in out
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "check,status,detail"
    assert len(rows) > 1 and all(row.split(",")[1] == "PASS" for row in rows[1:])


# -- the one-pass flag parser against argparse --------------------------------

# values with '=' inside, a leading '-' or '--', empty, '--' itself (which
# argparse turns into an empty list), flag names, and arbitrary text
FLAG_VALUES = st.one_of(
    st.sampled_from(("", "-", "--", "---", "-1", "-1e300", "--f", "--help", "-h", "a=b", "=",
                     "--seed=3", "==", " ", "-0,14,64", "1.5:2.5:3", "x y")),
    st.text(max_size=6),
)


@st.composite
def flag_pair_lines(draw):
    """A subcommand and `--name value` / `--name=value` pairs of its flags,
    each name whole or cut to a prefix (which may be ambiguous) and repeated
    at will, with the values drawn; and the (name, value) pairs."""
    name = draw(st.sampled_from(sorted(cli._FLAGS)))
    argv, pairs = [name], []
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(cli._FLAGS[name]))
        flag, value = flag[:draw(st.integers(1, len(flag)))], draw(FLAG_VALUES)
        argv += [f"--{flag}={value}"] if draw(st.booleans()) else [f"--{flag}", value]
        pairs.append((flag, value))
    return argv, pairs


def _argparse_flags(name, argv):
    """The flag dict argparse returns for the flags of subcommand `name`,
    or the code it exits with."""
    parser = argparse.ArgumentParser(prog=f"pseudoherm {name}", allow_abbrev=True)
    for flag in cli._FLAGS[name]:
        parser.add_argument(f"--{flag}")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(flag_pair_lines())
@example((["star", "--f", "--g", "--g", "-x"], [("f", "--g"), ("g", "-x")]))
@example((["star", "--f=a=b", "--f", "=", "--op="], [("f", "a=b"), ("f", "="), ("op", "")]))
@example((["wedges", "--N", "--"], [("N", "--")]))
@example((["bch", "--generator", "--", "--generator", ""], [("generator", "--"), ("generator", "")]))
@example((["verify-all", "--seed", "-1", "--out=", "--config", "--config"],
          [("seed", "-1"), ("out", ""), ("config", "--config")]))
@example((["spiked", "--lam", "0.75", "--n=1"], [("lam", "0.75"), ("n", "1")]))
# ambiguous prefixes: argparse exits 2 on both
@example((["star", "--o", "x"], [("o", "x")]))
@example((["transition", "--o=x"], [("o", "x")]))
def test_flag_pairs_return_the_argparse_flag_dict(line):
    # argparse reads each pair joined as --name=value, so that it takes every
    # value as given; it then differs only on a value of '--', which it turns
    # into an empty list and the one-pass parser refuses
    argv, pairs = line
    expected = _argparse_flags(argv[0], [f"--{flag}={value}" for flag, value in pairs])
    try:
        got = cli._flag_pairs(argv)
    except cli.CliUsageError:
        got = 2
    if any(value == "--" for _, value in pairs):
        assert got == 2
    else:
        assert got == (expected if expected == 2 else (argv[0], expected))
