"""Command-line runner: exit codes, CSV shape, determinism, config merging.

Output values are cross-checked against the library calls the runner
wraps, plus a few frozen rows (exact rational coefficients, the
harmonic wedge, a star product computed three independent ways in the
algebra tests).
"""
import math
import os
from fractions import Fraction
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pseudoherm import cli, dynamics, identities, metric, models
from pseudoherm.cli import run
from pseudoherm.models import SpikedHOModel
from pseudoherm.weyl import WeylSymbol


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0], lines[1:]


def comment_map(text):
    out = {}
    for ln in text.splitlines():
        if ln.startswith("# ") and "=" in ln:
            key, _, val = ln[2:].partition("=")
            out[key] = val
    return out


def write_symbol(path, terms):
    path.write_text(WeylSymbol(terms).to_text())
    return str(path)


# -- exit codes and argument handling --------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = invoke(capsys, [])
    assert code == 2


def test_importing_the_cli_loads_no_scipy():
    # scipy submodules are imported lazily by the commands that need them,
    # so a new kernel cannot silently lengthen start-up
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, pseudoherm.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def _modules_after(argvs):
    """What a fresh interpreter holds after cli.run of each argv (each must
    exit 0): its scipy modules as a printed list, whether it has imported
    argparse, and the stdout of the runs.

    Every subcommand but one is probed for both.  `propagate` loads
    scipy.linalg, whose array-API shim imports numpy.testing, and with it
    unittest and argparse, so neither probe can tell anything about the
    CLI there."""
    probe = (
        "import io, sys, contextlib\n"
        "from pseudoherm import cli\n"
        "out = io.StringIO()\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.run(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print('argparse' in sys.modules)\n"
        "print(out.getvalue(), end='')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    scipy_modules, argparse_loaded, out = result.stdout.split("\n", 2)
    return scipy_modules, argparse_loaded == "True", out


def test_symbol_commands_load_no_scipy(tmp_path):
    # one fresh interpreter runs every symbol subcommand: none of them may
    # import scipy, whose optimize package alone once doubled metric-solve's cold start;
    # and as every command line is made of exact flag pairs, none imports argparse
    pair = models.swanson_pair(2, 2, 1.3, 0.4)
    ham = tmp_path / "H.sym"
    ham.write_text(pair.H.to_text())
    exponent = write_symbol(tmp_path / "eta.sym", {(2, 0): 0.4})
    f = write_symbol(tmp_path / "f.sym", {(2, 1): 1.0, (0, 0): 0.5j})
    g = write_symbol(tmp_path / "g.sym", {(1, 2): 1.0})
    argvs = [
        ["star", "--f", f, "--g", g],
        ["star", f"--f={f}", "--g", g, "--op", "commutator"],
        ["bch", "--generator", exponent, "--operand", g],
        ["metric-verify", "--hamiltonian", str(ham), "--exponent", exponent],
        ["metric-solve", "--hamiltonian", str(ham), "--monomials", "2,0"],
        ["swanson", "--n", "2", "--m", "3", "--alpha", "0.9", "--g", "0.25"],
        ["x4", "--alpha", "1.2", "--g", "0.3"],
        ["kappa", "--upto", "9"],
        ["wedges", "--N", "4"],
        ["contour", "--kind", "z1", "--N", "4"],
    ]
    assert _modules_after(argvs)[:2] == ("[]", False)


def test_spiked_and_transition_load_no_scipy():
    # the matrix elements come from a Jacobi matrix in numpy; scipy.special's
    # Gauss-Laguerre nodes once cost a one-shot transition about 340 ms of import.
    # spectrum's levels are closed forms or numpy eigvalsh values: its banded
    # grid solve once loaded scipy.linalg on every request, and so did
    # verify-all's eigenbasis rows before they took the closed-form levels
    argvs = [["spiked", "--n", "2", "--m", "3"], ["transition"], ["transition", "--tau=40"], ["verify-all"]]
    argvs += [
        ["spectrum", "--model", model, "--grid", "-6,6,200", "--levels", "3", "--refine", "1"]
        for model in ("spiked", "x4h", "xt4")
    ]
    assert _modules_after(argvs)[:2] == ("[]", False)


def test_help_loads_neither_argparse_nor_scipy():
    # help is built from the Param tables; its usage lines keep argparse's form
    scipy_modules, argparse_loaded, out = _modules_after([["star", "--help"], ["spiked", "-h"], ["--help"]])
    assert (scipy_modules, argparse_loaded) == ("[]", False)
    star, spiked, top = out.split("usage: ")[1:]
    assert star.startswith("pseudoherm star [-h] [--f F] [--g G] [--op OP] [--out OUT] [--config CONFIG]\n")
    assert "star product or star commutator of two symbol files" in star
    assert "--op OP          one of star, commutator; default star" in star
    assert "--n N" in spiked and "required" in spiked and "default p_squared" in spiked
    assert top.startswith("pseudoherm [-h] subcommand")
    assert all(name in top for name in cli._SUBCOMMANDS)


@pytest.mark.parametrize(
    ("argv", "same_as"),
    [
        (["spiked", "--n", "1", "--m", "2", "--lam", "0.75"],
         ["spiked", "--n", "1", "--m", "2", "--lambda", "0.75"]),
        (["spiked", "--n", "1", "--m", "2", "--lam=0.75"],
         ["spiked", "--n", "1", "--m", "2", "--lambda", "0.75"]),
        # a repeated flag keeps its last value
        (["wedges", "--N", "3", "--N", "4"], ["wedges", "--N", "4"]),
    ],
)
def test_unique_prefixes_and_repeated_flags(capsys, argv, same_as):
    assert cli._flag_pairs(argv) == cli._flag_pairs(same_as)
    outcome = invoke(capsys, argv)
    assert outcome == invoke(capsys, same_as) and outcome[0] == 0


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["star", "--f", "--", "--g", "g.sym"], "--f"),  # a path
        (["star", "--f", "f.sym", "--g", "g.sym", "--op", "--"], "--op"),  # a choice
        (["wedges", "--N", "--"], "--N"),  # an int
        (["wedges", "--N=--"], "--N"),
    ],
)
def test_a_dash_dash_value_is_no_value(capsys, argv, flag):
    assert invoke(capsys, argv) == (2, "", f"usage error: {flag} needs a value\n")


@pytest.mark.parametrize(
    ("argv", "code", "needle"),
    [
        (["spiked", "-h"], 0, "usage: pseudoherm spiked [-h]"),
        (["spiked", "--help"], 0, "usage: pseudoherm spiked [-h]"),
        (["spiked", "--he"], 0, "usage: pseudoherm spiked [-h]"),
        (["spiked", "--n", "1", "--m", "2", "--bogus", "1"], 2,
         "usage error: unknown flag --bogus for spiked"),
        (["spiked", "--n", "1", "--m"], 2, "usage error: --m needs a value"),
        (["spiked", "1"], 2, "usage error: unexpected argument '1' for spiked"),
        (["star", "--o", "x"], 2, "usage error: ambiguous flag --o for star (--op, --out)"),
        (["transition", "--o=x"], 2,
         "usage error: ambiguous flag --o for transition (--omega, --out)"),
        (["transition", "--model", "spiked"], 2, "usage error: unknown flag --model for transition"),
        (["metric-verify", "--h"], 2,
         "usage error: ambiguous flag --h for metric-verify (--hamiltonian, --help)"),
        (["--help"], 0, "usage: pseudoherm [-h] subcommand"),
    ],
)
def test_help_and_usage_errors(capsys, argv, code, needle):
    got, out, err = invoke(capsys, argv)
    assert got == code
    assert (out if code == 0 else err).startswith(needle)
    assert (err if code == 0 else out) == ""


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = invoke(capsys, ["eigenzap"])
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = invoke(capsys, ["wedges", "--N", "4", "--bogus", "1"])
    assert (code, out, err) == (2, "", "usage error: unknown flag --bogus for wedges\n")


def test_missing_required_parameter(capsys):
    code, _, err = invoke(capsys, ["wedges"])
    assert code == 2
    assert "--N" in err


def test_bad_parameter_value(capsys):
    code, _, err = invoke(capsys, ["wedges", "--N", "four"])
    assert code == 2
    assert "invalid value" in err


# edge texts of each parameter kind, accepted and refused; a choice flag
# also takes each of its choices
KIND_TEXTS = {
    "int": ["0", "-3", " 7 ", "+12", "1_000", str(10**20), "1.5", "x", "1" * 5000],
    "float": ["0", "-0", "1e-300", "-1e300", " 2.5 ", "1_0.5", "1e400", "nan", "-inf", "x"],
    "path": ["a.txt", " ", "dir/", "-"],
    "choice": ["none", " "],
    "floatlist": ["0,0.5,1", ",-0,", "1,,2", ",", "1,nan", "1;2"],
    "range": ["1.5:2.5:200", "-1e-300:1e300:-1", "1:2", "1:2:3:4", "1:2:x", "1:inf:3"],
    "grid": ["0,14,1400", "5,-5,0", "0,14", "0,14,1.5", "0,1e400,3"],
    "pairs": ["2,0", "2,0;0,2;", ";1,1", "1,1;1,1", "1", ";"],
    "kv": ["alpha=0.5,g=1", ",g=-0,", "alpha", "a=1,a=2", "a=nan", ","],
}
PARAMS = [(name, p) for name, spec in cli._SUBCOMMANDS.items() for p in spec.params]
EMPTY_DEFAULTS = {("propagate", "T"), ("spectrum", "grid"), ("spectrum", "params")}


def test_every_kind_of_the_table_has_a_flag_and_edge_texts():
    assert {p.kind for _, p in PARAMS} == set(cli._KINDS) == set(KIND_TEXTS)
    assert {(name, p.name) for name, p in PARAMS if p.default == ""} == EMPTY_DEFAULTS
    # an unknown kind fails when the table is built, never in a request
    with pytest.raises(ValueError, match="unknown parameter kind 'optfloat'"):
        cli.Param("T", "optfloat", "")


@pytest.mark.parametrize("name, param", PARAMS, ids=[f"{n}-{p.name}" for n, p in PARAMS])
def test_every_echo_parses_back_to_itself(name, param):
    texts = KIND_TEXTS[param.kind] + list(param.choices)
    if param.default is not None:
        texts.append(param.default)
    accepted = 0
    for text in texts:
        try:
            value, echo = cli._value(param, text)
        except cli.CliUsageError as exc:
            assert str(exc).startswith(f"invalid value for --{param.name}: {text!r} (")
            continue
        accepted += 1
        assert cli._value(param, echo)[1] == echo, text
        assert (value is None) == (text == "" == param.default), text
    assert accepted, "no text of the kind is accepted"


@pytest.mark.parametrize("name, param", PARAMS, ids=[f"{n}-{p.name}" for n, p in PARAMS])
def test_an_empty_value_is_none_only_where_the_default_is_empty(name, param):
    if (name, param.name) in EMPTY_DEFAULTS:
        assert cli._value(param, "") == (None, "")
    else:
        with pytest.raises(cli.CliUsageError, match=f"^invalid value for --{param.name}: '' "):
            cli._value(param, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["propagate", "--grid", ""], "invalid value for --grid: '' "
         "(not enough values to unpack (expected 3, got 1))"),
        (["transition", "--xi", ""], "invalid value for --xi: '' (empty list)"),
        (["spiked", "--n", "1", "--m", ""], "invalid value for --m: '' "),
        (["star", "--f", "", "--g", "g"], "invalid value for --f: '' (empty value)"),
        (["contour", "--kind", "", "--N", "4"], "invalid value for --kind: '' (must be one of z1, z2)"),
    ],
)
def test_an_empty_value_of_a_flag_with_a_default_or_none_is_a_usage_error(capsys, argv, message):
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {message}")


def test_empty_params_and_grid_read_as_left_out(capsys, tmp_path):
    argv = ["spectrum", "--model", "x4h", "--levels", "2"]
    code, plain, _ = invoke(capsys, argv)
    assert code == 0 and "# grid=\n" in plain and "# params=alpha=1,g=0.1\n" in plain
    assert invoke(capsys, argv + ["--params", "", "--grid", ""]) == (0, plain, "")
    config = tmp_path / "spectrum.cfg"
    config.write_text("params =\ngrid=\n")
    assert invoke(capsys, argv + ["--config", str(config)]) == (0, plain, "")


HUGE = "1" + "0" * 400  # 10**400, past the largest float


@pytest.mark.parametrize(
    "argv",
    [
        ["wedges", "--N", HUGE],
        ["contour", "--kind", "z1", "--N", HUGE],
        ["contour", "--kind", "z2", "--N", HUGE],
        ["spiked", "--n", HUGE, "--m", "0"],
        ["transition", "--n", HUGE],
    ],
    ids=["wedges", "contour_z1", "contour_z2", "spiked", "transition"],
)
def test_an_integer_past_the_largest_float_is_a_numeric_failure(argv):
    # each once ended in an uncaught OverflowError converting the int to a float
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "pseudoherm.cli", *argv], env=env, capture_output=True, text=True
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


def test_format_csv_only(capsys, tmp_path):
    # csv is the only output, so neither a flag nor a config key selects it
    code, out, err = invoke(capsys, ["wedges", "--N", "4", "--format", "csv"])
    assert (code, out) == (2, "")
    assert "unknown flag --format for wedges" in err
    config = tmp_path / "run.cfg"
    config.write_text("N=4\nformat=csv\n")
    code, out, err = invoke(capsys, ["wedges", "--config", str(config)])
    assert (code, out) == (2, "")
    assert "unknown config key 'format'" in err


def test_domain_error_exit_code(capsys):
    # wedges need N >= 2, a domain error rather than a usage error
    code, _, err = invoke(capsys, ["wedges", "--N", "1"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "error",
    [
        np.linalg.LinAlgError("singular"),  # a ValueError
        metric.TerminationError("chain did not end", order=3),  # a RuntimeError
        metric.MetricConvergenceError("no fit", best_residual=1.0),  # a RuntimeError
    ],
    ids=type,
)
def test_numeric_failures_of_a_runner_exit_1(capsys, monkeypatch, error):
    def fail(values, canon):
        raise error

    monkeypatch.setitem(cli._SUBCOMMANDS, "wedges", replace(cli._SUBCOMMANDS["wedges"], run=fail))
    assert invoke(capsys, ["wedges", "--N", "4"]) == (1, "", f"error: {error}\n")


# -- config files ----------------------------------------------------------


def test_config_file_supplies_parameters(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nN = 2\n")
    code, out, _ = invoke(capsys, ["wedges", "--config", str(cfg)])
    assert code == 0
    assert comment_map(out)["N"] == "2"


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=2\n")
    code, out, _ = invoke(capsys, ["wedges", "--config", str(cfg), "--N", "4"])
    assert code == 0
    assert comment_map(out)["N"] == "4"


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=2\nzeta=7\n")
    code, _, err = invoke(capsys, ["wedges", "--config", str(cfg)])
    assert code == 2
    assert "zeta" in err


def test_malformed_config_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N 2\n")
    code, _, _ = invoke(capsys, ["wedges", "--config", str(cfg)])
    assert code == 2


def test_missing_config_file(capsys, tmp_path):
    code, _, _ = invoke(capsys, ["wedges", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_a_config_file_that_is_not_utf8_exits_1(capsys, tmp_path):
    # it once escaped cli.run as an uncaught UnicodeDecodeError
    config = tmp_path / "binary.cfg"
    config.write_bytes(b"N = 4\n\xd0\x00\n")
    code, out, err = invoke(capsys, ["wedges", "--config", str(config)])
    assert (code, out) == (1, "")
    assert err.startswith("error: 'utf-8' codec can't decode")


# -- output plumbing -------------------------------------------------------


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, _ = invoke(capsys, ["kappa", "--upto", "5"])
    assert code == 0
    target = tmp_path / "kappa.csv"
    code2 = run(["kappa", "--upto", "5", "--out", str(target)])
    capsys.readouterr()
    assert code2 == 0
    assert target.read_text() == out


def test_out_file_of_several_row_blocks_matches_stdout(capsys, tmp_path):
    argv = ["contour", "--kind", "z2", "--N", "4", "--samples", str(2 * cli._ROW_BLOCK + 1)]
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    target = tmp_path / "contour.csv"
    assert run(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == out


def test_unwritable_out_file_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "contour.csv"
    with pytest.raises(OSError) as refused:
        target.write_text("")
    code, out, err = invoke(capsys, ["contour", "--kind", "z2", "--N", "4", "--out", str(target)])
    assert (code, out, err) == (1, "", f"error: cannot write {target}: {refused.value}\n")


def test_large_out_file_is_written_a_block_at_a_time(tmp_path):
    # 10^6 contour rows, 44 MB: the rows go to the file as they are built,
    # so a fresh interpreter's peak RSS grows by less than twice the file
    # (joining the table into one text first took three times it)
    target = tmp_path / "contour.csv"
    argv = ["contour", "--kind", "z1", "--N", "4", "--samples", "1000000", "--out", str(target)]
    probe = (
        "import resource\n"
        "from pseudoherm import cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"assert cli.run({argv!r}) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    # Linux carries a process's peak RSS across exec, so the probe starts
    # from a small interpreter, not straight from this one
    launch = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {probe!r}], check=True)"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", launch], env=env, capture_output=True, text=True, check=True
    )
    growth = int(result.stdout) * 1024  # ru_maxrss counts KiB on Linux
    size = target.stat().st_size
    assert size > 40e6
    assert growth < 2 * size


def test_config_echo_block(capsys):
    code, out, _ = invoke(capsys, ["wedges", "--N", "4"])
    assert code == 0
    assert out.startswith("# command=wedges\n")
    cm = comment_map(out)
    assert cm == {"command": "wedges", "N": "4"}


def test_byte_determinism(capsys):
    _, first, _ = invoke(capsys, ["contour", "--kind", "z2", "--N", "4"])
    _, second, _ = invoke(capsys, ["contour", "--kind", "z2", "--N", "4"])
    assert first == second


def test_transition_byte_determinism(capsys):
    argv = ["transition", "--omega", "1.9:2.1:5", "--xi", "0,1", "--tau", "30"]
    code, first, _ = invoke(capsys, argv)
    assert code == 0
    _, second, _ = invoke(capsys, argv)
    assert first == second
    # the xi list is sorted before the sweep, so its order never shows
    _, reordered, _ = invoke(capsys, argv[:4] + ["1,0"] + argv[5:])
    assert reordered == first


@pytest.mark.parametrize(
    "argv",
    [
        ["transition", "--E0", "nan"],
        ["transition", "--tau", "inf"],
        ["transition", "--omega", "1.5:inf:20"],
        ["transition", "--xi", "0,-inf"],
        ["spectrum", "--model", "xt4", "--params", "g=inf", "--grid", "-6,6,200", "--levels", "2"],
        ["spectrum", "--model", "xt4", "--grid", "-6,nan,200", "--levels", "2"],
        ["swanson", "--n", "2", "--m", "2", "--alpha", "nan", "--g", "0.5"],
        ["swanson", "--n", "2", "--m", "2", "--alpha", "1", "--g", "inf"],
        ["x4", "--alpha", "1", "--g", "nan"],
        ["contour", "--kind", "z1", "--N", "4", "--a", "inf"],
        ["propagate", "--T", "1e400"],
    ],
)
def test_non_finite_values_are_usage_errors(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert "not a finite number" in err


# -- frozen subcommand values ----------------------------------------------


def test_wedges_harmonic_and_quartic(capsys):
    code, out, _ = invoke(capsys, ["wedges", "--N", "2"])
    assert code == 0
    header, rows = data_rows(out)
    assert header == "side,theta_lo,theta_hi,theta_anti_stokes"
    # values pass through the 12-significant-digit textual contract
    right = rows[1].split(",")
    assert right[0] == "right"
    assert float(right[1]) == pytest.approx(-math.pi / 4, abs=1e-9)
    assert float(right[2]) == pytest.approx(math.pi / 4, abs=1e-9)
    assert float(right[3]) == pytest.approx(0.0, abs=1e-9)

    _, out4, _ = invoke(capsys, ["wedges", "--N", "4"])
    _, rows4 = data_rows(out4)
    right4 = rows4[1].split(",")
    assert float(right4[1]) == pytest.approx(-math.pi / 3, abs=1e-9)
    assert float(right4[2]) == pytest.approx(0.0, abs=1e-9)
    left4 = rows4[0].split(",")
    assert float(left4[1]) == pytest.approx(-math.pi, abs=1e-9)
    assert float(left4[2]) == pytest.approx(-2 * math.pi / 3, abs=1e-9)


def test_kappa_exact_rational_rows(capsys):
    code, out, _ = invoke(capsys, ["kappa", "--upto", "7"])
    assert code == 0
    header, rows = data_rows(out)
    assert header == "n,kappa"
    assert rows == ["1,1/2", "3,-1/4", "5,1/2", "7,-17/8"]
    for bad in ("0", "403"):
        code, out, _ = invoke(capsys, ["kappa", "--upto", bad])
        assert code == 2 and out == ""


def test_star_subcommand(capsys, tmp_path):
    f = write_symbol(tmp_path / "f.sym", {(2, 1): 1.0})
    g = write_symbol(tmp_path / "g.sym", {(1, 2): 1.0})
    code, out, _ = invoke(capsys, ["star", "--f", f, "--g", g])
    assert code == 0
    header, rows = data_rows(out)
    assert header == "deg_x,deg_p,re,im"
    assert rows == ["0,0,0,0.25", "1,1,0.5,0", "2,2,0,1.5", "3,3,1,0"]


def test_star_commutator_subcommand(capsys, tmp_path):
    f = write_symbol(tmp_path / "x.sym", {(1, 0): 1.0})
    g = write_symbol(tmp_path / "p.sym", {(0, 1): 1.0})
    code, out, _ = invoke(
        capsys, ["star", "--f", f, "--g", g, "--op", "commutator"]
    )
    assert code == 0
    _, rows = data_rows(out)
    assert rows == ["0,0,0,1"]


def test_star_missing_file(capsys, tmp_path):
    f = write_symbol(tmp_path / "x.sym", {(1, 0): 1.0})
    code, _, _ = invoke(capsys, ["star", "--f", f, "--g", str(tmp_path / "nope")])
    assert code == 1


def test_symbol_file_paths_read_as_pathlib_reads_them(capsys, tmp_path):
    # a plain open() reads the file; on a failure pathlib reads it again, so
    # a trailing slash after a file name is still dropped and a missing
    # file is still named by its normalized path
    f = write_symbol(tmp_path / "x.sym", {(1, 0): 1.0})
    expected = invoke(capsys, ["star", "--f", f, "--g", f])
    assert expected[0] == 0
    assert invoke(capsys, ["star", "--f", f + "/", "--g", f])[1:] == (
        expected[1].replace(f"# f={f}\n", f"# f={f}/\n"), "")
    missing = f"{tmp_path}/./nope"
    code, out, err = invoke(capsys, ["star", "--f", f, "--g", missing])
    assert (code, out) == (1, "")
    assert err == (f"error: cannot read symbol file {missing}: [Errno 2] No such file or "
                   f"directory: '{tmp_path / 'nope'}'\n")
    code, _, err = invoke(capsys, ["wedges", "--config", missing])
    assert code == 2 and err.endswith(f"directory: '{tmp_path / 'nope'}'\n")


def test_products_past_max_degree_exit_1(capsys, tmp_path):
    # a printed symbol must parse back, so neither a product nor a BCH chain
    # may return a degree above MAX_DEGREE = 170
    top = write_symbol(tmp_path / "p170.sym", {(0, 170): 1.0})
    code, out, err = invoke(capsys, ["star", "--f", top, "--g", top])
    assert (code, out) == (1, "")
    assert err == "error: result degrees up to (0, 340) exceed MAX_DEGREE = 170\n"
    generator = write_symbol(tmp_path / "xp3.sym", {(1, 3): 1.0})  # {x p^3, p^k} = k p^(k+2)
    operand = write_symbol(tmp_path / "p168.sym", {(0, 168): 1.0})
    code, out, err = invoke(capsys, ["bch", "--generator", generator, "--operand", operand])
    assert (code, out) == (1, "")
    assert err == "error: result degrees up to (0, 172) exceed MAX_DEGREE = 170\n"
    code, out, _ = invoke(capsys, ["bch", "--generator", generator, "--operand", operand,
                                   "--max_order", "0"])
    assert code == 0 and out.endswith("\n0,168,1,0\n")


def test_metric_verify_refuses_a_derivative_table_past_max_degree(capsys, tmp_path):
    # the table of exp(x^100/2) reaches degree 198 at d_x^2, which p^2 needs;
    # it once overflowed in a factorial table and printed a traceback
    H = write_symbol(tmp_path / "H.sym", {(0, 2): 0.5, (4, 0): 0.5})
    exponent = write_symbol(tmp_path / "E.sym", {(100, 0): 0.5})
    code, out, err = invoke(capsys, ["metric-verify", "--hamiltonian", H, "--exponent", exponent])
    assert (code, out) == (1, "")
    assert err == "error: result degrees up to (198, 0) exceed MAX_DEGREE = 170\n"


def test_star_non_finite_coefficient_exits_1(capsys, tmp_path):
    # a NaN behind the first term must not be dropped, leaving 1 * p^2
    f = tmp_path / "f.sym"
    f.write_text("0 0 1 0\n1 0 nan 0\n")
    g = write_symbol(tmp_path / "g.sym", {(0, 2): 1.0})
    code, out, err = invoke(capsys, ["star", "--f", str(f), "--g", g])
    assert code == 1
    assert out == ""
    assert "non-finite" in err


def test_bch_terminating_conjugation(capsys, tmp_path):
    gen = write_symbol(tmp_path / "q.sym", {(2, 0): 0.45})
    op = write_symbol(tmp_path / "p.sym", {(0, 1): 1.0})
    code, out, _ = invoke(capsys, ["bch", "--generator", gen, "--operand", op])
    assert code == 0
    cm = comment_map(out)
    assert cm["terminated"] == "true" and cm["order"] == "1"
    _, rows = data_rows(out)
    assert rows == ["0,1,1,0", "1,0,0,0.9"]


def test_metric_verify_pass_and_fail(capsys, tmp_path):
    alpha, g = 1.3, 0.4
    pair = models.swanson_pair(2, 2, alpha, g)
    ham = tmp_path / "H.sym"
    ham.write_text(pair.H.to_text())
    good = write_symbol(tmp_path / "good.sym", {(2, 0): g})
    code, out, _ = invoke(
        capsys, ["metric-verify", "--hamiltonian", str(ham), "--exponent", good]
    )
    assert code == 0
    assert comment_map(out)["passed"] == "true"
    bad = write_symbol(tmp_path / "bad.sym", {(2, 0): 2 * g})
    code, out, _ = invoke(
        capsys, ["metric-verify", "--hamiltonian", str(ham), "--exponent", bad]
    )
    assert code == 1
    assert comment_map(out)["passed"] == "false"


def test_metric_solve_recovers_gaussian(capsys, tmp_path):
    pair = models.swanson_pair(2, 2, 1.3, 0.4)
    ham = tmp_path / "H.sym"
    ham.write_text(pair.H.to_text())
    code, out, _ = invoke(
        capsys, ["metric-solve", "--hamiltonian", str(ham), "--monomials", "2,0"]
    )
    assert code == 0
    header, rows = data_rows(out)
    assert header == "deg_x,deg_p,coefficient"
    dx, dp, coeff = rows[0].split(",")
    assert (dx, dp) == ("2", "0")
    assert float(coeff) == pytest.approx(0.4, abs=1e-8)
    assert float(comment_map(out)["residual_norm"]) < 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ["metric-solve", "--monomials", "2,0", "--tol", "-1"],
        ["metric-verify", "--exponent", "H.sym", "--tol", "-1"],
        ["metric-solve", "--monomials", "2,0;2,0"],
        ["metric-solve", "--monomials", "2,0; 2 ,0;0,2"],
    ],
)
def test_metric_commands_refuse_negative_tol_and_repeated_monomials(capsys, tmp_path, argv, monkeypatch):
    # a negative tolerance once failed every candidate (exit 1), and a
    # repeated monomial silently kept only its last coefficient
    monkeypatch.chdir(tmp_path)
    (tmp_path / "H.sym").write_text(models.swanson_pair(2, 2, 1.3, 0.4).H.to_text())
    code, out, err = invoke(capsys, argv + ["--hamiltonian", "H.sym"])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")



@pytest.mark.parametrize("params", ["lambda=1,lambda=2", "lambda=1, lambda =1"])
def test_params_refuse_a_repeated_key(capsys, params):
    # a repeated key once solved the model at its last value and exited 0
    argv = ["spectrum", "--model", "spiked", "--params", params, "--grid", "0,10,200", "--levels", "2"]
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "repeated key lambda" in err

def test_swanson_subcommand(capsys):
    code, out, _ = invoke(
        capsys,
        ["swanson", "--n", "2", "--m", "3", "--alpha", "0.9", "--g", "0.25",
         "--which", "q"],
    )
    assert code == 0
    _, rows = data_rows(out)
    dx, dp, re, im = rows[0].split(",")
    assert (dx, dp) == ("3", "0")
    assert float(re) == pytest.approx(2 * 0.25 / 3, rel=1e-11)
    assert float(im) == 0.0


def test_x4_subcommand_exponent(capsys):
    code, out, _ = invoke(
        capsys, ["x4", "--alpha", "1.2", "--g", "0.3", "--which", "eta2_exponent"]
    )
    assert code == 0
    _, rows = data_rows(out)
    parsed = {}
    for row in rows:
        dx, dp, re, im = row.split(",")
        parsed[(int(dx), int(dp))] = complex(float(re), float(im))
    assert parsed[(0, 1)] == pytest.approx(-0.6, rel=1e-11)
    assert parsed[(0, 3)] == pytest.approx(0.3 / 3.6, rel=1e-11)
    # the isospectral quartic partner needs nonzero coupling
    code, _, _ = invoke(
        capsys,
        ["spectrum", "--model", "xt4", "--params", "g=0", "--grid", "-6,6,200",
         "--levels", "2"],
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["swanson", "--n", "2", "--m", "2", "--alpha", "1"], ["0,2,0.5,0", "2,0,5e+205,0"]),
        (["x4", "--alpha", "1"],
         ["0,0,1e+206,0", "0,1,-0.5,0", "0,2,-1e+206,0", "0,4,2.5e+205,0", "2,0,1,0"]),
    ],
    ids=["swanson", "x4"],
)
def test_large_coupling_prints_the_closed_forms(capsys, argv, rows):
    # the symbols are closed forms: at g = 1e103 every coefficient is
    # finite, where summing the BCH ladder once overflowed in its
    # termination check [q, c2] (from g ~ 3.6e102) and exited 1
    code, out, err = invoke(capsys, argv + ["--g", "1e103", "--which", "h"])
    assert (code, err) == (0, "")
    assert data_rows(out) == ("deg_x,deg_p,re,im", rows)
    # at g = 1e155, g^2/2 overflows and the symbol constructor refuses it
    code, out, err = invoke(capsys, argv + ["--g", "1e155", "--which", "h"])
    assert (code, out) == (1, "")
    assert err.startswith("error: non-finite coefficient")


def test_spiked_subcommand(capsys):
    code, out, _ = invoke(capsys, ["spiked", "--n", "2", "--m", "3", "--xi", "0.5"])
    assert code == 0
    cm = comment_map(out)
    assert cm["energy_n"] == "5.2" and cm["energy_m"] == "7.2"
    header, rows = data_rows(out)
    assert header == "op_kind,re,im"
    table = {}
    for row in rows:
        kind, re, im = row.split(",")
        table[kind] = complex(float(re), float(im))
    x23 = models.spiked_matrix_element(SpikedHOModel(0.5, 0.2), "position", 2, 3)
    assert table["position"] == pytest.approx(x23, rel=1e-10)
    assert table["momentum"] == pytest.approx(-1j * x23.real, rel=1e-10)
    assert table["mapped_position"] == pytest.approx(2.0 * x23.real, rel=1e-10)


def test_spiked_subcommand_momentum_domain(capsys):
    code, out, err = invoke(capsys, ["spiked", "--n", "0", "--m", "1", "--alpha", "-0.7"])
    assert code == 1
    assert out == ""
    assert "diverges" in err and "quadrature" not in err
    # the momentum diagonal prints as an exact zero
    code, out, _ = invoke(capsys, ["spiked", "--n", "2", "--m", "2"])
    assert code == 0
    assert "momentum,0,0" in data_rows(out)[1]


@pytest.mark.parametrize("xi", ["1e308", "-1e308"])
def test_spiked_dressed_element_overflow_exits_1(capsys, xi):
    # x + 2i xi p leaves double precision: one error naming xi, no row, and
    # no numpy warning (the suite turns RuntimeWarning into an error)
    code, out, err = invoke(capsys, ["spiked", "--n", "2", "--m", "3", "--xi", xi])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"xi={float(xi):g}" in err
    assert len(err.splitlines()) == 1
    # p vanishes on the diagonal, so there the dressed element is x itself
    code, out, _ = invoke(capsys, ["spiked", "--n", "2", "--m", "2", "--xi", xi])
    assert code == 0
    rows = dict(row.split(",", 1) for row in data_rows(out)[1])
    assert rows["mapped_position"] == rows["position"]


def test_transition_dressed_element_overflow_exits_1(capsys):
    code, out, err = invoke(capsys, ["transition", "--xi", "0,1e308"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "xi=1e+308" in err
    assert len(err.splitlines()) == 1


def test_spectrum_subcommand(capsys):
    code, out, _ = invoke(
        capsys,
        ["spectrum", "--model", "spiked", "--grid", "0,12,400", "--levels", "3",
         "--refine", "1"],
    )
    assert code == 0
    header, rows = data_rows(out)
    assert header == "n,energy"
    # the defaults lambda = 0.5, alpha = 0.2 in closed form, lam(4n + 2 alpha + 2)
    assert rows == ["0,1.2", "1,3.2", "2,5.2"]
    code, _, err = invoke(
        capsys,
        ["spectrum", "--model", "spiked", "--grid", "0,12,400", "--levels", "3",
         "--params", "omega=2"],
    )
    assert code == 2
    assert "omega" in err


def test_spectrum_spiked_negative_alpha_is_rejected(capsys):
    # the model's domain is alpha > -1
    for alpha in ("-1", "-1.5"):
        code, out, err = invoke(
            capsys,
            ["spectrum", "--model", "spiked", "--params", f"lambda=1,alpha={alpha}",
             "--grid", "0,10,400", "--levels", "3"],
        )
        assert (code, out) == (1, "")
        assert "alpha must exceed -1" in err


def test_spectrum_spiked_prints_the_closed_form_levels(capsys):
    # at alpha = 0 the grid converged like 1/log N and printed 2.14032 for
    # the ground level 2; at alpha = -0.7 it refused, though the levels
    # lam(4n + 2 alpha + 2) of the x^(alpha + 1/2) branch exist
    argv = ["spectrum", "--model", "spiked", "--params", "lambda=1,alpha=0",
            "--grid", "0,10,400", "--levels", "2"]
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    assert data_rows(out) == ("n,energy", ["0,2", "1,6"])
    code, out, _ = invoke(
        capsys,
        ["spectrum", "--model", "spiked", "--params", "lambda=1.3,alpha=-0.7",
         "--grid", "0,10,400", "--levels", "4"],
    )
    assert code == 0
    energies = [float(row.split(",")[1]) for row in data_rows(out)[1]]
    exact = [Fraction("1.3") * (4 * n + 2 * Fraction("-0.7") + 2) for n in range(4)]
    # 12 printed digits: within 5e-12 relative
    assert energies == pytest.approx([float(e) for e in exact], rel=5e-12, abs=0)


def test_propagate_negative_alpha_is_rejected(capsys):
    code, out, err = invoke(
        capsys,
        ["propagate", "--alpha", "-0.3", "--grid", "0,12,300", "--dt", "0.01",
         "--T", "0.1", "--snapshots", "1"],
    )
    assert code == 1
    assert out == ""
    assert "alpha >= 0" in err
    code, out, _ = invoke(
        capsys,
        ["propagate", "--alpha", "0", "--grid", "0,12,300", "--dt", "0.01",
         "--T", "0.1", "--snapshots", "1"],
    )
    assert code == 0
    _, rows = data_rows(out)
    assert len(rows) == 2


def test_spectrum_model_parameter_override(capsys):
    code, out, _ = invoke(
        capsys,
        ["spectrum", "--model", "spiked", "--params", "lambda=1,alpha=0.5",
         "--grid", "0,10,400", "--levels", "2", "--refine", "1"],
    )
    assert code == 0
    assert comment_map(out)["params"] == "alpha=0.5,lambda=1"
    _, rows = data_rows(out)
    energies = [float(r.split(",")[1]) for r in rows]
    # lam(4n + 2 alpha + 2) = 3, 7
    assert energies == [3.0, 7.0]


def test_transition_subcommand_ordering_and_values(capsys):
    code, out, _ = invoke(
        capsys,
        ["transition", "--omega", "1.9:2.1:5", "--xi", "1,0", "--tau", "30"],
    )
    assert code == 0
    assert comment_map(out)["xi"] == "0,1" and "model" not in comment_map(out)
    header, rows = data_rows(out)
    assert header == "omega,xi,probability"
    assert len(rows) == 10
    cells = [row.split(",") for row in rows]
    omegas = [float(c[0]) for c in cells]
    xis = [float(c[1]) for c in cells]
    # omega-major ordering with xi ascending inside each block
    assert omegas == sorted(omegas)
    assert xis[0::2] == [0.0] * 5 and xis[1::2] == [1.0] * 5
    model = SpikedHOModel(lam=0.5, alpha=0.2, xi=1.0)
    pulse = dynamics.Pulse(E0=0.005, omega=1.9, tau=30.0)
    expected = dynamics.first_order_transition(
        model, 2, 3, pulse, 30.0, coupling="raw_x_via_eta"
    )
    assert float(cells[1][2]) == pytest.approx(expected, rel=1e-10)


def test_propagate_subcommand(capsys):
    code, out, _ = invoke(
        capsys,
        ["propagate", "--grid", "0,12,300", "--dt", "0.01", "--T", "0.5",
         "--snapshots", "2"],
    )
    assert code == 0
    header, rows = data_rows(out)
    assert header == "t,norm,population_n"
    assert len(rows) == 3
    for row in rows:
        t, norm, pop = (float(tok) for tok in row.split(","))
        assert abs(norm - 1.0) < 1e-8
        assert 0.0 <= pop <= 1.0
    assert float(rows[0].split(",")[0]) == 0.0
    assert float(rows[-1].split(",")[0]) == 0.5


def test_propagate_starts_from_the_exact_level(capsys):
    code, out, _ = invoke(
        capsys, ["propagate", "--grid", "0,12,300", "--T", "0.5", "--snapshots", "1"]
    )
    assert code == 0
    _, rows = data_rows(out)
    assert rows[0] == "0,1,0"


@pytest.mark.parametrize("flag", ["--n", "--m", "--snapshots"])
def test_propagate_negative_counts_are_usage_errors(capsys, flag):
    # a negative level index would read another level (or the truncation
    # probe) from the end of the coefficient vector
    code, out, err = invoke(
        capsys, ["propagate", "--grid", "0,12,300", "--T", "0.1", flag, "-1"]
    )
    assert code == 2
    assert out == ""
    assert f"{flag} must be non-negative" in err


def test_propagate_needs_one_snapshot_interval(capsys):
    # zero intervals printed the initial state alone under the echoed T
    argv = ["propagate", "--grid", "0,12,300", "--T", "0.5", "--snapshots", "0"]
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--snapshots must be at least 1" in err


def test_propagate_refuses_a_snapshot_table_above_max_points(capsys):
    # levels 2 and 3 start at K = 8: MAX_POINTS // 8 intervals make a table
    # of 8 entries more than MAX_POINTS, refused before it is allocated
    argv = ["propagate", "--grid", "0,12,300", "--T", "0.05",
            "--snapshots", str(models.MAX_POINTS // 8)]
    code, out, err = invoke(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"more than {models.MAX_POINTS} entries" in err


def test_propagate_zero_step_is_rejected_before_rounding(capsys):
    code, out, err = invoke(capsys, ["propagate", "--dt", "0", "--T", "0.1"])
    assert code == 1
    assert out == ""
    assert "dt > 0" in err


def test_propagate_refuses_a_carrier_the_step_cannot_resolve(capsys):
    # omega dt >= pi leaves fewer than two Strang steps per field period
    argv = ["propagate", "--grid", "0,12,300", "--T", "0.1", "--dt", "0.001"]
    code, out, err = invoke(capsys, argv + ["--omega", "3142"])
    assert code == 1
    assert out == ""
    assert "omega dt = 3.142 >= pi" in err
    code, out, _ = invoke(capsys, argv + ["--omega", "3141"])
    assert code == 0
    _, rows = data_rows(out)
    assert all(0.0 <= float(row.split(",")[2]) <= 1.0 for row in rows)
    # without a field there is no carrier to resolve
    code, _, _ = invoke(capsys, argv + ["--omega", "3142", "--E0", "0"])
    assert code == 0


@pytest.mark.parametrize("E0", ["1e12", "1e300"])
def test_propagate_refuses_a_coupling_the_step_cannot_resolve(capsys, E0):
    # a coupling phase dt E0 max|xi| >= pi per step fills the top level with
    # noise; growing the basis to the whole default grid took over a minute and
    # printed noise populations, so the run is refused at its first basis
    code, out, err = invoke(capsys, ["propagate", "--T", "0.05", "--E0", E0])
    assert code == 1
    assert out == ""
    assert "coupling phase dt E0 max|xi|" in err and ">= pi" in err


def test_only_verify_all_builds_the_random_generator(capsys, monkeypatch, tmp_path):
    f = write_symbol(tmp_path / "f.sym", {(2, 1): 1.0, (0, 0): 0.5j})
    g = write_symbol(tmp_path / "g.sym", {(1, 2): 1.0})

    def refuse(*args, **kwargs):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for argv in (["star", "--f", f, "--g", g], ["propagate", "--grid", "0,12,300", "--T", "0.1"]):
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert "# seed=" not in out
    with pytest.raises(AssertionError, match="default_rng called"):
        run(["verify-all"])


def test_only_verify_all_takes_a_seed(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("N=4\nseed=3\n")
    assert invoke(capsys, ["wedges", "--N", "4", "--seed", "3"]) == (
        2, "", "usage error: unknown flag --seed for wedges\n")
    assert invoke(capsys, ["wedges", "--config", str(config)]) == (
        2, "", "usage error: unknown config key 'seed' for subcommand wedges\n")
    assert invoke(capsys, ["verify-all", "--seed", "-1"]) == (
        2, "", "usage error: --seed must be non-negative\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spiked", "--n", "2", "--m", "3", "--lambda", "1e-300"],
         "normalization leaves double precision at lam=1e-300"),
        (["spiked", "--n", "2", "--m", "3", "--alpha", "1e6"],
         "normalization leaves double precision at lam=0.5, alpha=1e+06"),
        (["spiked", "--n", "400", "--m", "3"], "level 400 is above 170"),
        (["spectrum", "--model", "x4h", "--params", "alpha=0", "--grid", "-6,6,400",
          "--levels", "2"], "alpha must be positive"),
    ],
)
def test_unrepresentable_model_parameters_exit_1(capsys, argv, message):
    code, out, err = invoke(capsys, argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "model, grid, refine",
    [("spiked", "0,14,1000000000000", "0"), ("xt4", "-6,6,200", str(10**20)),
     ("x4h", "5,-5,3", "2"), ("xt4", None, "0")],
)
def test_spectrum_grid_and_refine_change_no_number(capsys, model, grid, refine):
    # the levels come from no grid: a grid of 1e12 points, 1e20 refinements,
    # a reversed 3-point grid (each refused while the grid was solved) or
    # no --grid at all print the rows of an ordinary grid, and only the
    # echo differs
    argv = ["spectrum", "--model", model, "--levels", "4"]
    flags = [] if grid is None else ["--grid", grid]
    code, out, _ = invoke(capsys, argv + flags + ["--refine", refine])
    assert code == 0
    assert (comment_map(out)["grid"], comment_map(out)["refine"]) == (grid or "", refine)
    code, plain, _ = invoke(capsys, argv + ["--grid", "-8,8,1000", "--refine", "0"])
    assert code == 0
    assert data_rows(out) == data_rows(plain)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--model", "spiked", "--levels", "0"], "--levels must lie in [1, 1024], got 0"),
        (["--model", "x4h", "--levels", "-3"], "--levels must lie in [1, 1024], got -3"),
        (["--model", "xt4", "--levels", str(10**20)], f"got {10**20}"),
        (["--model", "spiked", "--levels", str(2**63)], f"got {2**63}"),
        (["--model", "x4h", "--levels", "1024"], "basis of 2048 states, above MAX_BASIS"),
        # p^4/x^2 = 2.5e297/1e-300 overflows: the chain spans more than a double
        (["--model", "x4h", "--params", "alpha=1e-300"], "leaves double precision"),
        # 4 g^2 x^4 underflows to 0, which leaves p^2 - 2 g x
        (["--model", "xt4", "--params", "g=1e-300"], "not bounded below"),
        (["--model", "spiked", "--params", "lambda=1e300,alpha=1e300"],
         "the levels leave double precision"),
    ],
)
def test_spectrum_refusals_exit_1(capsys, argv, message):
    argv = ["spectrum", "--grid", "-6,6,200"] + argv
    if "--levels" not in argv:
        argv += ["--levels", "3"]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


def test_spectrum_negative_refine_is_usage_error(capsys):
    code, out, err = invoke(
        capsys,
        ["spectrum", "--model", "spiked", "--grid", "0,10,200", "--levels", "2",
         "--refine", "-1"],
    )
    assert code == 2
    assert out == ""
    assert "--refine must be non-negative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["propagate", "--grid", f"0,14,{10**12}", "--T", "0.1"],
        ["propagate", "--grid", f"0,14,{models.MAX_POINTS + 1}", "--T", "0.1"],
        # a count past int64 is refused by the same bound, not by numpy
        ["propagate", "--grid", f"-1,14,{2**63}", "--T", "0.1"],
    ],
)
def test_grid_above_max_points_exits_1(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 1
    assert out == ""
    assert "MAX_POINTS" in err


def test_transition_phase_overflow_exits_1(capsys):
    # (omega + |E_n - E_m|) tau overflows: refused by name, before numpy's
    # sin sees an infinite phase (a RuntimeWarning, an error under pytest)
    code, out, err = invoke(capsys, ["transition", "--omega", "1:1e308:3", "--tau", "40"])
    assert (code, out) == (1, "")
    assert err == ("error: the carrier phase (omega + |E_n - E_m|) tau overflows at "
                   "omega_hi = 1e+308, tau = 40; lower omega_hi or tau\n")
    assert "Warning" not in err
    code, _, _ = invoke(capsys, ["transition", "--omega", "1:1e306:3", "--tau", "40"])
    assert code == 0


def test_transition_beyond_first_order_exits_1(capsys):
    code, out, err = invoke(
        capsys, ["transition", "--E0", "5", "--omega", "1.9:2.1:3", "--xi", "0"]
    )
    assert code == 1
    assert out == ""
    assert "27771.5" in err and "P <= 1" in err
    code, _, _ = invoke(capsys, ["transition", "--omega", "1.9:2.1:3", "--xi", "0"])
    assert code == 0


def test_verify_all_passes(capsys):
    code, out, _ = invoke(capsys, ["verify-all"])
    assert code == 0
    header, rows = data_rows(out)
    assert header == "check,status,detail"
    assert [row.split(",")[0] for row in rows] == [name for name, _ in identities.CHECKS]
    statuses = {row.split(",")[1] for row in rows}
    assert statuses == {"PASS"}


def test_verify_all_reports_failing_and_crashing_checks(capsys, monkeypatch):
    def crash(rng):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(
        identities,
        "CHECKS",
        [
            ("fails", lambda rng: (False, "max_err=1")),
            ("crashes", crash),
            ("passes", lambda rng: (True, "max_err=0")),
        ],
    )
    code, out, _ = invoke(capsys, ["verify-all"])
    assert code == 1
    _, rows = data_rows(out)
    assert rows == [
        "fails,FAIL,max_err=1",
        "crashes,FAIL,raised ZeroDivisionError: division by zero",
        "passes,PASS,max_err=0",
    ]


@pytest.mark.parametrize(
    "factor, failing",
    [
        (1.0 + 1e-9, {"eigenbasis_norm", "eigenbasis_stationary_state"}),
        (complex(math.cos(1e-9), math.sin(1e-9)), {"eigenbasis_stationary_state"}),
    ],
    ids=["norm", "phase"],
)
def test_verify_all_eigenbasis_rows_catch_a_drifting_propagator(capsys, monkeypatch, factor, failing):
    # a propagator whose norm or phase is off by 1e-9 per step: the norm row
    # sees a growing norm, the stationary row any drift from exp(-i E_0 T)
    exact = dynamics.eigenbasis_propagate

    def drifting(energies, coupling, pulse, c0, dt, times):
        out = exact(energies, coupling, pulse, c0, dt, times)
        steps = [round((t - times[0]) / dt) for t in times]
        return out * np.power(factor, steps)[:, None]

    monkeypatch.setattr(dynamics, "eigenbasis_propagate", drifting)
    code, out, _ = invoke(capsys, ["verify-all"])
    assert code == 1
    _, rows = data_rows(out)
    assert {row.split(",")[0] for row in rows if row.split(",")[1] == "FAIL"} == failing


def test_contour_subcommand(capsys):
    code, out, _ = invoke(
        capsys,
        ["contour", "--kind", "z2", "--N", "4", "--samples", "5", "--xspan", "2"],
    )
    assert code == 0
    assert comment_map(out)["admissible"] == "true"
    header, rows = data_rows(out)
    assert header == "x,re_z,im_z"
    assert len(rows) == 5
    mid = rows[2].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == pytest.approx(0.0, abs=1e-12)
    assert float(mid[2]) == pytest.approx(-2.0, abs=1e-12)
    code, out, _ = invoke(
        capsys,
        ["contour", "--kind", "z2", "--N", "10", "--samples", "5", "--xspan", "2"],
    )
    assert code == 0
    assert comment_map(out)["admissible"] == "false"


def test_contour_refuses_bad_sample_counts_and_overflowing_points(capsys):
    for samples in ("0", "-1", str(10**7 + 1)):
        code, out, err = invoke(capsys, ["contour", "--kind", "z2", "--N", "4", "--samples", samples])
        assert code == 2 and out == "" and "--samples" in err
    # sqrt(a^2 + x^2) stays finite where a^2 alone overflows
    code, out, _ = invoke(capsys, ["contour", "--kind", "z1", "--N", "4", "--a", "1e300",
                                   "--samples", "3"])
    assert code == 0
    _, rows = data_rows(out)
    assert [row.split(",")[0] for row in rows] == ["-10", "0", "10"]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))
    # a point whose modulus overflows is refused
    code, out, err = invoke(capsys, ["contour", "--kind", "z1", "--N", "4", "--a", "1.5e308",
                                     "--xspan", "1e308", "--samples", "3"])
    assert code == 1 and out == "" and "not finite" in err


def test_negative_flag_values_parse(capsys):
    code, out, _ = invoke(
        capsys,
        ["spectrum", "--model", "xt4", "--grid", "-6,6,200", "--levels", "2"],
    )
    assert code == 0
    _, rows = data_rows(out)
    assert len(rows) == 2


def test_contour_refuses_a_non_positive_xspan(capsys):
    for xspan in ("-3", "0", "-0", "-1e-300"):
        code, out, err = invoke(capsys, ["contour", "--kind", "z2", "--N", "4", "--xspan", xspan])
        assert code == 2 and out == "" and "--xspan" in err
    code, out, _ = invoke(capsys, ["contour", "--kind", "z2", "--N", "4", "--samples", "3",
                                   "--xspan", "1e-300"])
    assert code == 0
    assert [row.split(",")[0] for row in data_rows(out)[1]] == ["-1e-300", "0", "1e-300"]


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("0 0 1 0\nx 0 1 1\n", "line 2: invalid literal for int() with base 10: 'x'"),
        ("1 0 abc 0\n", "line 1: could not convert string to float: 'abc'"),
        ("0 0 1 0\n\n171 0 1 0\n", "line 3: degree key (171, 0) exceeds"),
    ],
)
def test_symbol_file_refusals_name_the_file_and_the_line(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.sym"
    bad.write_text(text)
    good = write_symbol(tmp_path / "good.sym", {(1, 0): 1.0})
    code, out, err = invoke(capsys, ["star", "--f", good, "--g", str(bad)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: symbol file {bad}: {message}")
