"""Property tests of the `propagate`, `spectrum`, `spiked`, `transition`,
`contour` and `wedges` command lines.

Uses Hypothesis (MacIver et al., "Hypothesis: A new approach to
property-based testing", JOSS 4 (2019) 1891) with a derandomized, fixed
example budget, so every run draws the same argvs.  Each parameter is left
at its default or drawn from the edges of its kind: 0, +-1e-300, +-1e300,
negative numbers and huge integers.  T stays at or below 0.05, accepted
grids at or below 200 points and accepted sweeps at or below 40
frequencies, so an accepted run is short.  Whatever the draw, `cli.run`
returns 0, 1 or 2 without raising (numpy warnings are errors under the
test configuration); an error prints nothing on stdout; exit 0 prints only
finite numbers (for `propagate` every population and for `transition`
every probability in [0, 1], for `spectrum` one ascending energy per
level); and the same argv prints the same bytes twice.  Every number of a
`transition` or `contour` table, which the array formatter prints, reads
back to the same string through `cli._fmt`.
"""
import contextlib
import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import cli

EDGE_FLOATS = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "-1", "-0.5")
EDGE_INTS = ("0", "-1", "-3", str(10**20), str(2**63))
FINAL_TIMES = ("0.05", "0.02", "0", "1e-300", "-1e-300", "-1", "-1e300")
GRID_ENDS = ("0", "14", "1e-300", "-1e-300", "1e300", "-1e300", "-1")
GRID_POINTS = ("16", "64", "200", "15", "0", "-1")
SWEEP_ENDS = ("1.5", "2.5") + EDGE_FLOATS
SWEEP_STEPS = ("2", "3", "40", "1", "0", "-1", str(10**20), str(2**63))
# accepted matrix-element levels, or edges
LEVEL_INTS = st.one_of(st.sampled_from(("0", "1", "2", "3", "7")), st.sampled_from(EDGE_INTS))


def _flag(kind, choices=()):
    if kind == "float":
        return st.sampled_from(EDGE_FLOATS)
    if kind == "int":
        return st.sampled_from(EDGE_INTS)
    if kind == "optfloat":
        return st.sampled_from(FINAL_TIMES)
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
        argv += [f"--{name}", draw(_flag(params[name].kind, params[name].choices))]
    return argv


PARAMS = {p.name: p for p in cli._SUBCOMMANDS["propagate"].params + cli._COMMON}
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
@example(["propagate", "--T", "0.05", "--grid", "0,8,200", "--dt", "1e300", "--lambda", "1e-300"])
@example(["propagate", "--T", "1e-300", "--grid", "0,14,16", "--alpha", "0", "--omega", "1e300"])
@example(["propagate", "--T", "0.02", "--grid", "1e-300,14,64", "--tau", "1e-300",
          "--snapshots", "0"])
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
    for row in lines[1:]:
        t, norm, population = (float(cell) for cell in row.split(","))
        assert math.isfinite(t) and math.isfinite(norm)
        assert 0.0 <= population <= 1.0


@st.composite
def spectrum_argvs(draw):
    # model, grid and levels are required; --refine and one --params entry
    # (a known key, or an unknown one) are drawn or left at their defaults
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
# accepted runs of every model, two refined, each run on every pass
@example(["spectrum", "--model", "spiked", "--grid", "0,14,200", "--levels", "6",
          "--refine", "2"])
@example(["spectrum", "--model", "x4h", "--grid", "-8,8,200", "--levels", "3",
          "--refine", "1", "--params", "g=1e-300"])
@example(["spectrum", "--model", "xt4", "--grid", "-5,5,16", "--levels", "1",
          "--params", "g=1e-300"])
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


SPIKED = {p.name: p for p in cli._SUBCOMMANDS["spiked"].params + cli._COMMON}
TRANSITION = {p.name: p for p in cli._SUBCOMMANDS["transition"].params + cli._COMMON}


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
    # every flag has a default (a 200 x 3 sweep); up to three take an edge value
    names = draw(st.lists(st.sampled_from(sorted(TRANSITION)), unique=True, max_size=3))
    return ["transition"] + _edge_flags(draw, TRANSITION, names)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(transition_argvs())
# accepted edges, each run on every pass
@example(["transition", "--E0", "0", "--omega", "1e-300:1e300:3"])
@example(["transition", "--n", "3", "--m", "3", "--xi", "-1e300", "--tau", "1e-300"])
# a sweep too large to hold is refused before anything is allocated
@example(["transition", "--omega", f"1.5:2.5:{2**63}"])
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
@example(["transition", "--n", "3", "--m", "3", "--xi", "-1e300", "--tau", "1e-300"])
def test_transition_prints_canonical_cells(argv):
    code, out = _invoke(argv)
    assert code in (0, 1, 2)
    if code == 0:
        _assert_canonical([line for line in out.splitlines() if not line.startswith("#")][1:])


CONTOUR = {p.name: p for p in cli._SUBCOMMANDS["contour"].params + cli._COMMON}
# accepted potential exponents and sample counts, or edges
ORDERS = st.one_of(st.sampled_from(("2", "3", "4", "12")), st.sampled_from(EDGE_INTS))
SAMPLES = st.one_of(st.sampled_from(("1", "2", "201")), st.sampled_from(EDGE_INTS))


@st.composite
def contour_argvs(draw):
    # kind and N are required; up to three other flags take an edge value
    argv = ["contour", "--kind", draw(_flag("choice", ("z1", "z2"))), "--N", draw(ORDERS)]
    for name in draw(st.lists(st.sampled_from(("a", "samples", "xspan", "seed")), unique=True,
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
