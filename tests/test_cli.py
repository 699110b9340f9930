"""Command-line runner: exit codes, CSV shape, determinism, config merging.

Output values are cross-checked against the library calls the runner
wraps, plus a few frozen rows (exact rational coefficients, the
harmonic wedge, a star product computed three independent ways in the
algebra tests).
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pseudoherm import cli, dynamics, identities, models
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


def test_parser_is_built_once_and_reused(capsys, tmp_path):
    # a usage error, --help and a valid star in one process give the bytes
    # and exit codes of a freshly built parser, in any order and repeated
    f = write_symbol(tmp_path / "f.sym", {(2, 1): 1.0, (0, 0): 0.5j})
    g = write_symbol(tmp_path / "g.sym", {(1, 2): 1.0})
    argvs = [
        ["wedges", "--N", "4", "--bogus", "1"],
        ["star", "--help"],
        ["star", "--f", f, "--g", g],
    ]

    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert "usage:" in fresh[0][2] and "--op" in fresh[1][1]
    for argv, expected in list(zip(argvs, fresh)) * 2 + list(zip(argvs, fresh))[::-1]:
        assert outcome(argv) == expected
    assert cli._build_parser.cache_info().currsize == 1


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


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = invoke(capsys, ["eigenzap"])
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = invoke(capsys, ["wedges", "--N", "4", "--bogus", "1"])
    assert code == 2


def test_missing_required_parameter(capsys):
    code, _, err = invoke(capsys, ["wedges"])
    assert code == 2
    assert "--N" in err


def test_bad_parameter_value(capsys):
    code, _, err = invoke(capsys, ["wedges", "--N", "four"])
    assert code == 2
    assert "invalid value" in err


def test_format_csv_only(capsys, tmp_path):
    # csv is the only output, so neither a flag nor a config key selects it
    code, out, err = invoke(capsys, ["wedges", "--N", "4", "--format", "csv"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format" in err
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


# -- output plumbing -------------------------------------------------------


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, _ = invoke(capsys, ["kappa", "--upto", "5"])
    assert code == 0
    target = tmp_path / "kappa.csv"
    code2 = run(["kappa", "--upto", "5", "--out", str(target)])
    capsys.readouterr()
    assert code2 == 0
    assert target.read_text() == out


def test_config_echo_block(capsys):
    code, out, _ = invoke(capsys, ["wedges", "--N", "4"])
    assert code == 0
    assert out.startswith("# command=wedges\n")
    cm = comment_map(out)
    assert cm["N"] == "4" and cm["seed"] == "12345"


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


def test_spectrum_subcommand(capsys):
    code, out, _ = invoke(
        capsys,
        ["spectrum", "--model", "spiked", "--grid", "0,12,400", "--levels", "3",
         "--refine", "1"],
    )
    assert code == 0
    header, rows = data_rows(out)
    assert header == "n,energy"
    energies = [float(r.split(",")[1]) for r in rows]
    assert energies == pytest.approx([1.2, 3.2, 5.2], abs=5e-2)
    code, _, err = invoke(
        capsys,
        ["spectrum", "--model", "spiked", "--grid", "0,12,400", "--levels", "3",
         "--params", "omega=2"],
    )
    assert code == 2
    assert "omega" in err


def test_spectrum_spiked_negative_alpha_is_rejected(capsys):
    # the grid would print the alpha = 0.7 levels for alpha = -0.7
    code, out, err = invoke(
        capsys,
        ["spectrum", "--model", "spiked", "--params", "lambda=1,alpha=-0.7",
         "--grid", "0,10,400", "--levels", "3"],
    )
    assert code == 1
    assert out == ""
    assert "alpha >= 0" in err
    code, out, _ = invoke(
        capsys,
        ["spectrum", "--model", "spiked", "--params", "lambda=1,alpha=0",
         "--grid", "0,10,400", "--levels", "3"],
    )
    assert code == 0
    _, rows = data_rows(out)
    assert len(rows) == 3


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
    assert energies == pytest.approx([3.0, 7.0], abs=1e-1)


def test_transition_subcommand_ordering_and_values(capsys):
    code, out, _ = invoke(
        capsys,
        ["transition", "--omega", "1.9:2.1:5", "--xi", "1,0", "--tau", "30"],
    )
    assert code == 0
    assert comment_map(out)["xi"] == "0,1"
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


@pytest.mark.parametrize("flag", ["--n", "--m", "--snapshots", "--seed"])
def test_propagate_negative_counts_are_usage_errors(capsys, flag):
    # a negative level index would read another level (or the truncation
    # probe) from the end of the coefficient vector
    code, out, err = invoke(
        capsys, ["propagate", "--grid", "0,12,300", "--T", "0.1", flag, "-1"]
    )
    assert code == 2
    assert out == ""
    assert f"{flag} must be non-negative" in err


def test_propagate_zero_step_is_rejected_before_rounding(capsys):
    code, out, err = invoke(capsys, ["propagate", "--dt", "0", "--T", "0.1"])
    assert code == 1
    assert out == ""
    assert "dt > 0" in err


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
        ["spectrum", "--model", "spiked", "--grid", f"0,14,{10**12}", "--levels", "3"],
        ["spectrum", "--model", "xt4", "--grid", "-6,6,200", "--levels", "2",
         "--refine", str(10**20)],
        ["propagate", "--grid", f"0,14,{10**12}", "--T", "0.1"],
    ],
)
def test_grid_above_max_points_exits_1(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 1
    assert out == ""
    assert "MAX_POINTS" in err


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

    def drifting(system, pulse, c0, dt, times):
        out = exact(system, pulse, c0, dt, times)
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
