"""Reproducible command-line runner emitting CSV.

Every subcommand writes a `# key=value` block with the fully resolved
configuration, a header row, then data rows with floats at 12
significant digits, so identical invocations produce identical bytes.
Parameters may come from a `key=value` config file (`--config`), with
command-line flags taking precedence; unknown keys are rejected.

`verify-all` runs the ordered identity checks of `pseudoherm.identities`
(the table the test suite also runs) and prints one PASS/FAIL row each.

Exit codes: 0 on success (and all checks passing), 1 on numeric or
verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, identities, metric, models, stokes, weyl
from .metric import MetricConvergenceError, TerminationError
from .models import GridSpec, SpikedHOModel
from .weyl import ExpPolySymbol, WeylSymbol


class CliUsageError(Exception):
    """Bad parameter value or unknown configuration key."""


def _fmt(value):
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0
    return f"{value:.12g}"


# -- parameter table -------------------------------------------------------


@dataclass(frozen=True)
class Param:
    name: str
    kind: str
    default: str | None = None  # None means required
    choices: tuple = ()
    help: str = ""


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_value(param, raw):
    kind = param.kind
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(raw)
        if kind == "optfloat":
            return None if raw == "" else _finite(raw)
        if kind in ("str", "path"):
            if raw == "":
                raise ValueError("empty value")
            return raw
        if kind == "choice":
            if raw not in param.choices:
                raise ValueError(f"must be one of {', '.join(param.choices)}")
            return raw
        if kind == "floatlist":
            vals = [_finite(tok) for tok in raw.split(",") if tok.strip() != ""]
            if not vals:
                raise ValueError("empty list")
            return vals
        if kind == "range":
            lo_s, hi_s, n_s = raw.split(":")
            return (_finite(lo_s), _finite(hi_s), int(n_s))
        if kind == "grid":
            lo_s, hi_s, n_s = raw.split(",")
            return (_finite(lo_s), _finite(hi_s), int(n_s))
        if kind == "pairs":
            pairs = []
            for chunk in raw.split(";"):
                if chunk.strip() == "":
                    continue
                dx_s, dp_s = chunk.split(",")
                pairs.append((int(dx_s), int(dp_s)))
            if not pairs:
                raise ValueError("empty pair list")
            return pairs
        if kind == "kv":
            out = {}
            for chunk in raw.split(","):
                if chunk.strip() == "":
                    continue
                key, _, val = chunk.partition("=")
                if not _:
                    raise ValueError(f"expected key=value, got {chunk!r}")
                out[key.strip()] = _finite(val)
            return out
    except CliUsageError:
        raise
    except Exception as exc:
        raise CliUsageError(f"invalid value for --{param.name}: {raw!r} ({exc})") from None
    raise CliUsageError(f"unknown parameter kind {kind!r}")


def _canonical(param, value):
    kind = param.kind
    if kind == "int":
        return str(value)
    if kind == "float":
        return _fmt(value)
    if kind == "optfloat":
        return "" if value is None else _fmt(value)
    if kind in ("str", "path", "choice"):
        return value
    if kind == "floatlist":
        return ",".join(_fmt(v) for v in value)
    if kind == "range":
        return f"{_fmt(value[0])}:{_fmt(value[1])}:{value[2]}"
    if kind == "grid":
        return f"{_fmt(value[0])},{_fmt(value[1])},{value[2]}"
    if kind == "pairs":
        return ";".join(f"{dx},{dp}" for dx, dp in value)
    if kind == "kv":
        return ",".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
    raise CliUsageError(f"unknown parameter kind {kind!r}")


_COMMON = [
    Param("seed", "int", "12345", help="seed for randomized property sampling"),
]


def _read_symbol(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise RuntimeError(f"cannot read symbol file {path}: {exc}") from None
    return WeylSymbol.from_text(text)


def _symbol_rows(sym):
    return [
        f"{dx},{dp},{_fmt(c.real)},{_fmt(c.imag)}"
        for (dx, dp), c in sorted(sym.items())
    ]


# -- subcommand runners ----------------------------------------------------


def _run_wedges(v, canon, rng):
    pair = stokes.wedges(v["N"])
    anti = stokes.anti_stokes(v["N"])
    rows = [
        f"left,{_fmt(pair.left.theta_lo)},{_fmt(pair.left.theta_hi)},{_fmt(anti.left)}",
        f"right,{_fmt(pair.right.theta_lo)},{_fmt(pair.right.theta_hi)},{_fmt(anti.right)}",
    ]
    return [], "side,theta_lo,theta_hi,theta_anti_stokes", rows, 0


def _run_contour(v, canon, rng):
    if v["kind"] == "z1":
        contour = stokes.Contour.hyperbola(a=v["a"], N=v["N"])
    else:
        contour = stokes.Contour.sqrt_bend()
    xs = np.linspace(-v["xspan"], v["xspan"], v["samples"])
    zs = stokes.contour_point(contour, xs)
    admissible = stokes.contour_admissible(contour, v["N"])
    extra = [f"# admissible={'true' if admissible else 'false'}"]
    rows = [f"{_fmt(x)},{_fmt(z.real)},{_fmt(z.imag)}" for x, z in zip(xs, zs)]
    return extra, "x,re_z,im_z", rows, 0


def _run_star(v, canon, rng):
    f_sym = _read_symbol(v["f"])
    g_sym = _read_symbol(v["g"])
    if v["op"] == "star":
        out = weyl.star(f_sym, g_sym)
    else:
        out = weyl.star_commutator(f_sym, g_sym)
    return [], "deg_x,deg_p,re,im", _symbol_rows(out), 0


def _run_kappa(v, canon, rng):
    if v["upto"] < 1:
        raise CliUsageError("--upto must be at least 1")
    rows = [f"{n},{metric.kappa(n)}" for n in range(1, v["upto"] + 1, 2)]
    return [], "n,kappa", rows, 0


def _run_bch(v, canon, rng):
    q = _read_symbol(v["generator"])
    operand = _read_symbol(v["operand"])
    series = metric.conjugate_by_exp(q, operand, v["max_order"])
    extra = [
        f"# terminated={'true' if series.terminated else 'false'}",
        f"# order={series.order}",
    ]
    return extra, "deg_x,deg_p,re,im", _symbol_rows(series.value), 0


def _run_metric_verify(v, canon, rng):
    H = _read_symbol(v["hamiltonian"])
    exponent = _read_symbol(v["exponent"])
    residual = metric.metric_residual(H, ExpPolySymbol.exp(exponent))
    worst = residual.max_abs_coeff()
    scale = max(1.0, H.max_abs())
    passed = worst <= v["tol"] * scale
    extra = [
        f"# residual_max_abs={_fmt(worst)}",
        f"# passed={'true' if passed else 'false'}",
    ]
    rows = []
    for idx, (prefactor, _) in enumerate(residual.terms):
        for (dx, dp), c in sorted(prefactor.items()):
            rows.append(f"{idx},{dx},{dp},{_fmt(c.real)},{_fmt(c.imag)}")
    return extra, "term,deg_x,deg_p,re,im", rows, 0 if passed else 1


def _run_metric_solve(v, canon, rng):
    H = _read_symbol(v["hamiltonian"])
    solution = metric.solve_metric_ansatz(H, v["monomials"], tol=v["tol"])
    extra = [f"# residual_norm={_fmt(solution.residual_norm)}"]
    rows = [
        f"{dx},{dp},{_fmt(solution.coefficients[(dx, dp)])}"
        for dx, dp in sorted(solution.coefficients)
    ]
    return extra, "deg_x,deg_p,coefficient", rows, 0


def _run_swanson(v, canon, rng):
    pair = models.swanson_pair(v["n"], v["m"], v["alpha"], v["g"])
    sym = {"h": pair.h, "H": pair.H, "q": pair.q}[v["which"]]
    return [], "deg_x,deg_p,re,im", _symbol_rows(sym), 0


def _run_x4(v, canon, rng):
    chain = models.minus_x4_chain(v["alpha"], v["g"])
    if v["which"] == "eta2_exponent":
        sym = chain.eta_squared.terms[0][1]
    else:
        sym = {"h": chain.pair.h, "H": chain.pair.H, "q": chain.pair.q}[v["which"]]
    return [], "deg_x,deg_p,re,im", _symbol_rows(sym), 0


def _run_spiked(v, canon, rng):
    model = SpikedHOModel(
        lam=v["lambda"], alpha=v["alpha"], xi=v["xi"], variant=v["variant"]
    )
    extra = [
        f"# energy_n={_fmt(models.spiked_energy(model, v['n']))}",
        f"# energy_m={_fmt(models.spiked_energy(model, v['m']))}",
    ]
    rows = []
    for op_kind in ("position", "momentum", "mapped_position"):
        val = models.spiked_matrix_element(model, op_kind, v["n"], v["m"])
        rows.append(f"{op_kind},{_fmt(val.real)},{_fmt(val.imag)}")
    return extra, "op_kind,re,im", rows, 0


_SPECTRUM_DEFAULTS = {
    "spiked": {"lambda": 0.5, "alpha": 0.2},
    "x4h": {"alpha": 1.0, "g": 0.1},
    "xt4": {"g": 0.5},
}


def _run_spectrum(v, canon, rng):
    if v["refine"] < 0:
        raise CliUsageError("--refine must be non-negative")
    defaults = dict(_SPECTRUM_DEFAULTS[v["model"]])
    for key in v["params"]:
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise CliUsageError(
                f"unknown model parameter {key!r} for {v['model']} (known: {known})"
            )
    defaults.update(v["params"])
    v = dict(v, params=defaults)
    canon["params"] = ",".join(f"{k}={_fmt(val)}" for k, val in sorted(defaults.items()))
    if v["model"] == "spiked":
        hamiltonian = SpikedHOModel(lam=defaults["lambda"], alpha=defaults["alpha"])
    elif v["model"] == "x4h":
        # the swapped form has even momentum content, same spectrum
        hamiltonian = weyl.fourier_swap(
            models.x4_hermitian_symbol(defaults["alpha"], defaults["g"])
        )
    else:
        hamiltonian = models.x4_isospectral_quartic(defaults["g"])
    grid = GridSpec(x_min=v["grid"][0], x_max=v["grid"][1], points=v["grid"][2])
    if v["refine"] > 0:
        values = models.refined_eigenvalues(
            hamiltonian, grid, v["levels"], refinements=v["refine"]
        )
    else:
        values = models.hermitian_spectrum(hamiltonian, grid, v["levels"]).eigenvalues
    rows = [f"{n},{_fmt(val)}" for n, val in enumerate(values)]
    return [], "n,energy", rows, 0


def _run_transition(v, canon, rng):
    model = SpikedHOModel(lam=v["lambda"], alpha=v["alpha"])
    lo, hi, steps = v["omega"]
    xi_sorted = sorted(v["xi"])
    canon["xi"] = ",".join(_fmt(x) for x in xi_sorted)
    curves = dynamics.transition_sweep(
        model, v["n"], v["m"], v["E0"], lo, hi, steps, v["tau"], xi_sorted
    )
    # omega and xi repeat across rows; format each value once
    omegas = [_fmt(w) for w in curves[0].omega.tolist()]
    columns = [(f",{_fmt(curve.xi)},", curve.probability.tolist()) for curve in curves]
    rows = [
        omegas[i] + prefix + _fmt(probs[i])
        for i in range(steps)
        for prefix, probs in columns
    ]
    return [], "omega,xi,probability", rows, 0


def _run_propagate(v, canon, rng):
    for name in ("m", "n", "snapshots"):
        if v[name] < 0:
            raise CliUsageError(f"--{name} must be non-negative")
    model = SpikedHOModel(lam=v["lambda"], alpha=v["alpha"])
    grid = GridSpec(x_min=v["grid"][0], x_max=v["grid"][1], points=v["grid"][2])
    pulse = dynamics.Pulse(E0=v["E0"], omega=v["omega"], tau=v["tau"])
    T = v["T"] if v["T"] is not None else v["tau"]
    canon["T"] = _fmt(T)
    times, coefficients = dynamics.propagate_level(
        model, pulse, grid, v["m"], v["n"], v["dt"], T, v["snapshots"]
    )
    norms = np.linalg.norm(coefficients, axis=1)
    populations = np.abs(coefficients[:, v["n"]]) ** 2
    rows = [
        f"{_fmt(t)},{_fmt(norm)},{_fmt(population)}"
        for t, norm, population in zip(times.tolist(), norms.tolist(), populations.tolist())
    ]
    return [], "t,norm,population_n", rows, 0


def _run_verify_all(v, canon, rng):
    rows = []
    failures = 0
    for name, fn in identities.CHECKS:
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crashed check is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not ok:
            failures += 1
        rows.append(f"{name},{'PASS' if ok else 'FAIL'},{detail}")
    return [], "check,status,detail", rows, 0 if failures == 0 else 1


# -- dispatch table --------------------------------------------------------


@dataclass(frozen=True)
class Subcommand:
    params: list
    run: object
    help: str


_TAU_DEFAULT = _fmt(20.0 * math.pi)  # twenty cycles of the resonant carrier
_TAU_OFFRES = _fmt(20.0 * 2.0 * math.pi / 1.8)

_SUBCOMMANDS = {
    "wedges": Subcommand(
        params=[Param("N", "int", help="potential exponent")],
        run=_run_wedges,
        help="Stokes wedge boundaries and anti-Stokes angles",
    ),
    "contour": Subcommand(
        params=[
            Param("kind", "choice", choices=("z1", "z2"), help="contour family"),
            Param("N", "int", help="potential exponent"),
            Param("a", "float", "1", help="hyperbola scale (z1 only)"),
            Param("samples", "int", "201", help="number of sample points"),
            Param("xspan", "float", "10", help="parameter range half-width"),
        ],
        run=_run_contour,
        help="sample a complex contour between the wedges",
    ),
    "star": Subcommand(
        params=[
            Param("f", "path", help="left symbol file"),
            Param("g", "path", help="right symbol file"),
            Param("op", "choice", "star", choices=("star", "commutator")),
        ],
        run=_run_star,
        help="star product or star commutator of two symbol files",
    ),
    "kappa": Subcommand(
        params=[Param("upto", "int", help="largest odd order")],
        run=_run_kappa,
        help="exact odd-order series coefficients",
    ),
    "bch": Subcommand(
        params=[
            Param("generator", "path", help="generator symbol file"),
            Param("operand", "path", help="operand symbol file"),
            Param("max_order", "int", "32"),
        ],
        run=_run_bch,
        help="conjugation series exp(q) O exp(-q)",
    ),
    "metric-verify": Subcommand(
        params=[
            Param("hamiltonian", "path"),
            Param("exponent", "path", help="exponent of the candidate metric"),
            Param("tol", "float", "1e-10"),
        ],
        run=_run_metric_verify,
        help="residual of a candidate exponential metric",
    ),
    "metric-solve": Subcommand(
        params=[
            Param("hamiltonian", "path"),
            Param("monomials", "pairs", help="ansatz exponent monomials deg_x,deg_p;..."),
            Param("tol", "float", "1e-10"),
        ],
        run=_run_metric_solve,
        help="solve for exponential-metric coefficients",
    ),
    "swanson": Subcommand(
        params=[
            Param("n", "int", help="potential power"),
            Param("m", "int", help="generator power"),
            Param("alpha", "float"),
            Param("g", "float"),
            Param("which", "choice", "H", choices=("h", "H", "q")),
        ],
        run=_run_swanson,
        help="oscillator family symbols",
    ),
    "spiked": Subcommand(
        params=[
            Param("lambda", "float", "0.5"),
            Param(
                "alpha",
                "float",
                "0.2",
                help="x needs alpha > -1; p (and p_squared mapped_position) alpha > -1/2",
            ),
            Param("n", "int"),
            Param("m", "int"),
            Param("xi", "float", "0"),
            Param("variant", "choice", "p_squared", choices=("p_squared", "p_shift")),
        ],
        run=_run_spiked,
        help="spiked-oscillator matrix elements by exact Gauss-Laguerre sums "
        "((n+m)//2+1 nodes for x, (n+m+1)//2+1 for p)",
    ),
    "x4": Subcommand(
        params=[
            Param("alpha", "float"),
            Param("g", "float"),
            Param("which", "choice", "H", choices=("h", "H", "q", "eta2_exponent")),
        ],
        run=_run_x4,
        help="quartic chain symbols",
    ),
    "spectrum": Subcommand(
        params=[
            Param("model", "choice", choices=("spiked", "x4h", "xt4")),
            Param("params", "kv", "", help="model parameters k=v,..."),
            Param("grid", "grid", help="xmin,xmax,points"),
            Param("levels", "int"),
            Param("refine", "int", "0", help="extra grid halvings for extrapolation"),
        ],
        run=_run_spectrum,
        help="lowest eigenvalues on a finite-difference grid",
    ),
    "transition": Subcommand(
        params=[
            Param("model", "choice", "spiked", choices=("spiked",)),
            Param("n", "int", "2"),
            Param("m", "int", "3"),
            Param("lambda", "float", "0.5"),
            Param("alpha", "float", "0.2"),
            Param("E0", "float", "0.005"),
            Param("omega", "range", "1.5:2.5:200", help="lo:hi:steps sweep"),
            Param("xi", "floatlist", "0,0.5,1"),
            Param("tau", "float", _TAU_DEFAULT),
        ],
        run=_run_transition,
        help="first-order transition-probability sweep",
    ),
    "propagate": Subcommand(
        params=[
            Param("lambda", "float", "0.5"),
            Param("alpha", "float", "0.2", help="the grid needs alpha >= 0"),
            Param("m", "int", "2", help="initial level"),
            Param("n", "int", "3", help="monitored level"),
            Param("E0", "float", "0.005"),
            Param("omega", "float", "1.8"),
            Param("tau", "float", _TAU_OFFRES),
            Param("grid", "grid", "0,14,1400"),
            Param("dt", "float", "0.001", help="Strang step"),
            Param("T", "optfloat", "", help="final time (defaults to tau)"),
            Param("snapshots", "int", "50"),
        ],
        run=_run_propagate,
        help="driven grid propagation with norm and population tracking: Strang "
        "steps in the grid's lowest K levels (exact level phases, field phases in "
        "the eigenbasis of the x coupling); K = max(n, m) + 1 + margin, margin = "
        "4, 8, 16, ... up to the grid size, until the top level's population stays "
        "<= 1e-10 at every snapshot",
    ),
    "verify-all": Subcommand(
        params=[],
        run=_run_verify_all,
        help="run every identity check of pseudoherm.identities and report PASS/FAIL",
    ),
}


@functools.cache
def _build_parser():
    """The argparse tree for every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pseudoherm",
        description="metric operators and laser-driven dynamics, as reproducible CSV",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help, description=spec.help)
        for param in spec.params + _COMMON:
            p.add_argument(f"--{param.name}", dest=param.name, help=param.help)
        p.add_argument("--out", dest="out", help="output file (default stdout)")
        p.add_argument("--config", dest="config", help="key=value parameter file")
        p.add_argument(
            "--format", dest="format", help="output format (csv is the only choice)"
        )
    return parser


def _read_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliUsageError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise CliUsageError(f"config line {lineno}: expected key=value, got {line!r}")
        out[key.strip()] = value.strip()
    return out


def _fold_flag_values(argv):
    """Join known `--flag value` pairs into `--flag=value`.

    Lets values with a leading dash (negative grid bounds, symbol files
    named -foo) pass through the parser unambiguously.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return argv
    names = {p.name for p in _SUBCOMMANDS[argv[0]].params + _COMMON}
    names |= {"out", "config", "format"}
    folded = [argv[0]]
    i = 1
    while i < len(argv):
        tok = argv[i]
        if (
            tok.startswith("--")
            and "=" not in tok
            and tok[2:] in names
            and i + 1 < len(argv)
        ):
            folded.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            folded.append(tok)
            i += 1
    return folded


def run(argv=None):
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        ns = parser.parse_args(_fold_flag_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    flags = vars(ns)
    name = flags.pop("command")
    spec = _SUBCOMMANDS[name]
    params = spec.params + _COMMON

    try:
        config = _read_config(flags["config"]) if flags.get("config") else {}
        known = {p.name for p in params} | {"out", "format"}
        for key in config:
            if key not in known:
                raise CliUsageError(f"unknown config key {key!r} for subcommand {name}")
        fmt_choice = flags.get("format") or config.get("format") or "csv"
        if fmt_choice != "csv":
            raise CliUsageError(f"unsupported format {fmt_choice!r}; csv is the only choice")
        out_path = flags.get("out") or config.get("out")

        values = {}
        canon = {}
        for param in params:
            raw = flags.get(param.name)
            if raw is None:
                raw = config.get(param.name)
            if raw is None:
                raw = param.default
            if raw is None:
                raise CliUsageError(f"missing required parameter --{param.name}")
            values[param.name] = _parse_value(param, raw)
            canon[param.name] = _canonical(param, values[param.name])
        if values["seed"] < 0:
            raise CliUsageError("--seed must be non-negative")
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(values["seed"])
    try:
        extra, header, rows, code = spec.run(values, canon, rng)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        ValueError,
        TypeError,
        RuntimeError,
        TerminationError,
        MetricConvergenceError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = [f"# command={name}"]
    lines += [f"# {key}={canon[key]}" for key in sorted(canon)]
    lines += extra
    lines.append(header)
    lines += rows
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
