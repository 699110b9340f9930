"""Reproducible command-line runner emitting CSV.

Every subcommand writes a `# key=value` block with the fully resolved
configuration, a header row, then data rows with floats at 12
significant digits, so identical invocations produce identical bytes.
Parameters may come from a `key=value` config file (`--config`), with
command-line flags taking precedence; unknown keys are rejected.

Exit codes: 0 on success (and all checks passing), 1 on numeric or
verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, metric, models, stokes, weyl
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
    model = SpikedHOModel(lam=v["lambda"], alpha=v["alpha"])
    grid = GridSpec(x_min=v["grid"][0], x_max=v["grid"][1], points=v["grid"][2])
    pulse = dynamics.Pulse(E0=v["E0"], omega=v["omega"], tau=v["tau"])
    T = v["T"] if v["T"] is not None else v["tau"]
    canon["T"] = _fmt(T)
    n_level, m_level = v["n"], v["m"]
    system = models.hermitian_spectrum(model, grid, max(n_level, m_level) + 1)
    h = grid.step
    monitor = system.eigenvectors[:, n_level]
    psi = system.eigenvectors[:, m_level].astype(complex)
    times = np.linspace(0.0, T, v["snapshots"] + 1)

    def report(t):
        norm = math.sqrt(h * float(np.sum(np.abs(psi) ** 2)))
        population = abs(h * np.vdot(monitor, psi)) ** 2
        return f"{_fmt(t)},{_fmt(norm)},{_fmt(population)}"

    rows = [report(0.0)]
    for i in range(v["snapshots"]):
        span = times[i + 1] - times[i]
        psi = dynamics.crank_nicolson_propagate(
            model, pulse, grid, psi, v["dt"], span, t0=times[i]
        )
        rows.append(report(times[i + 1]))
    return [], "t,norm,population_n", rows, 0


def _run_verify_all(v, canon, rng):
    rows = []
    failures = 0
    for name, fn in _CHECKS:
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crashed check is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not ok:
            failures += 1
        rows.append(f"{name},{'PASS' if ok else 'FAIL'},{detail}")
    return [], "check,status,detail", rows, 0 if failures == 0 else 1


# -- verify-all check suite ------------------------------------------------


def _max_coeff_diff(a, b):
    return (a - b).max_abs()


def _random_symbol(rng, degree=2, complex_coeffs=True):
    terms = {}
    for dx in range(degree + 1):
        for dp in range(degree + 1 - dx):
            c = rng.standard_normal()
            if complex_coeffs:
                c = c + 1j * rng.standard_normal()
            terms[(dx, dp)] = c
    return WeylSymbol(terms)


def _chk_canonical_commutator(rng):
    err = _max_coeff_diff(
        weyl.star_commutator(WeylSymbol.x(), WeylSymbol.p()), WeylSymbol.constant(1j)
    )
    return err <= 1e-15, f"max_err={err:.3g}"


def _chk_quadratic_commutator(rng):
    x2 = WeylSymbol.monomial(2, 0)
    p2 = WeylSymbol.monomial(0, 2)
    expected = WeylSymbol({(1, 1): 4j})
    err = _max_coeff_diff(weyl.star_commutator(x2, p2), expected)
    return err <= 1e-14, f"max_err={err:.3g}"


def _chk_star_associativity(rng):
    worst = 0.0
    for _ in range(3):
        f, g, k = (_random_symbol(rng) for _ in range(3))
        left = weyl.star(weyl.star(f, g), k)
        right = weyl.star(f, weyl.star(g, k))
        worst = max(worst, _max_coeff_diff(left, right))
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_conjugation_antihomomorphism(rng):
    f, g = _random_symbol(rng), _random_symbol(rng)
    left = weyl.hermitian_conjugate(weyl.star(f, g))
    right = weyl.star(weyl.hermitian_conjugate(g), weyl.hermitian_conjugate(f))
    err = _max_coeff_diff(left, right)
    return err <= 1e-12, f"max_err={err:.3g}"


def _chk_identity_substitution(rng):
    poly = _random_symbol(rng)
    err = _max_coeff_diff(
        weyl.compose_weyl(poly, WeylSymbol.x(), WeylSymbol.p()), poly
    )
    return err <= 1e-12, f"max_err={err:.3g}"


def _chk_euler_numbers(rng):
    ok = metric.euler_numbers(5) == [1, 5, 61, 1385, 50521]
    return ok, "exact-integer comparison"


def _chk_kappa_values(rng):
    from fractions import Fraction

    expected = {
        1: Fraction(1, 2),
        3: Fraction(-1, 4),
        5: Fraction(1, 2),
        7: Fraction(-17, 8),
    }
    ok = all(metric.kappa(n) == v for n, v in expected.items())
    return ok, "exact-rational comparison"


def _swanson_draw(rng):
    return rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)


def _chk_swanson_ladder(rng):
    worst = 0.0
    for n, m in ((2, 2), (3, 4)):
        alpha, g = _swanson_draw(rng)
        h0 = models.swanson_seed(n, alpha)
        q = models.swanson_generator(m, g)
        c1 = metric.nfold_commutator(q, h0, 1)
        c2 = metric.nfold_commutator(q, h0, 2)
        c3 = metric.nfold_commutator(q, h0, 3)
        worst = max(worst, _max_coeff_diff(c1, WeylSymbol({(m - 1, 1): 2j * g})))
        worst = max(worst, _max_coeff_diff(c2, WeylSymbol({(2 * m - 2, 0): -4 * g * g})))
        worst = max(worst, c3.max_abs())
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_swanson_closed_forms(rng):
    worst = 0.0
    for n, m in ((2, 2), (4, 2), (2, 3)):
        alpha, g = _swanson_draw(rng)
        pair = models.swanson_pair(n, m, alpha, g)
        h0 = models.swanson_seed(n, alpha)
        h_expected = h0 + WeylSymbol({(2 * m - 2, 0): 0.5 * g * g})
        H_expected = h0 + WeylSymbol({(m - 1, 1): -1j * g})
        worst = max(worst, _max_coeff_diff(pair.h, h_expected))
        worst = max(worst, _max_coeff_diff(pair.H, H_expected))
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_swanson_compose(rng):
    worst = 0.0
    for n, m in ((2, 2), (2, 3)):
        alpha, g = _swanson_draw(rng)
        pair = models.swanson_pair(n, m, alpha, g)
        P = WeylSymbol.p() + WeylSymbol({(m - 1, 0): -1j * g})
        worst = max(
            worst,
            _max_coeff_diff(weyl.compose_weyl(pair.h, WeylSymbol.x(), P), pair.H),
        )
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_swanson_metric_position(rng):
    alpha, g = _swanson_draw(rng)
    pair = models.swanson_pair(2, 2, alpha, g)
    residual = metric.metric_residual(pair.H, ExpPolySymbol.exp(WeylSymbol({(2, 0): g})))
    err = residual.max_abs_coeff()
    return err <= 1e-10 * max(1.0, pair.H.max_abs()), f"max_err={err:.3g}"


def _chk_swanson_metric_momentum(rng):
    alpha, g = _swanson_draw(rng)
    pair = models.swanson_pair(2, 2, alpha, g)
    residual = metric.metric_residual(
        pair.H, ExpPolySymbol.exp(WeylSymbol({(0, 2): -g / alpha}))
    )
    err = residual.max_abs_coeff()
    return err <= 1e-10 * max(1.0, pair.H.max_abs()), f"max_err={err:.3g}"


def _chk_swanson_observables(rng):
    worst = 0.0
    for m in (2, 3):
        alpha, g = _swanson_draw(rng)
        q = models.swanson_generator(m, g)
        X = metric.observable_map(WeylSymbol.x(), q)
        P = metric.observable_map(WeylSymbol.p(), q)
        worst = max(worst, _max_coeff_diff(X, WeylSymbol.x()))
        worst = max(
            worst,
            _max_coeff_diff(P, WeylSymbol.p() + WeylSymbol({(m - 1, 0): -1j * g})),
        )
        worst = max(
            worst,
            _max_coeff_diff(weyl.star_commutator(X, P), WeylSymbol.constant(1j)),
        )
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_quartic_chain(rng):
    worst = 0.0
    for _ in range(2):
        alpha, g = _swanson_draw(rng)
        chain = models.minus_x4_chain(alpha, g)
        worst = max(
            worst,
            _max_coeff_diff(chain.pair.H, models.x4_nonhermitian_symbol(alpha, g)),
        )
        worst = max(
            worst,
            _max_coeff_diff(chain.pair.h, models.x4_hermitian_symbol(alpha, g)),
        )
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_quartic_observable(rng):
    alpha, g = _swanson_draw(rng)
    q = models.x4_generator(alpha, g)
    X = metric.observable_map(WeylSymbol.x(), q)
    expected = WeylSymbol({(1, 0): 1.0, (0, 2): 0.5j * g / alpha, (0, 0): -1j * g})
    err = _max_coeff_diff(X, expected)
    P = metric.observable_map(WeylSymbol.p(), q)
    err = max(err, _max_coeff_diff(P, WeylSymbol.p()))
    err = max(
        err, _max_coeff_diff(weyl.star_commutator(X, P), WeylSymbol.constant(1j))
    )
    return err <= 1e-12, f"max_err={err:.3g}"


def _chk_pt_classification(rng):
    even = models.swanson_pair(2, 2, 0.7, 0.3).H
    odd = models.swanson_pair(2, 3, 0.7, 0.3).H
    sym = _random_symbol(rng)
    involution = _max_coeff_diff(weyl.pt_transform(weyl.pt_transform(sym)), sym)
    ok = weyl.is_pt_symmetric(even) and not weyl.is_pt_symmetric(odd)
    return ok and involution <= 1e-15, f"involution_err={involution:.3g}"


def _chk_serialization(rng):
    sym = _random_symbol(rng)
    ok = WeylSymbol.from_text(sym.to_text()) == sym
    return ok, "exact round-trip"


def _chk_wedges_harmonic(rng):
    pair = stokes.wedges(2)
    err = max(
        abs(pair.right.theta_lo + math.pi / 4), abs(pair.right.theta_hi - math.pi / 4)
    )
    return err <= 1e-15, f"max_err={err:.3g}"


def _chk_wedge_widths(rng):
    err = max(
        abs(stokes.wedges(N).right.width - 2 * math.pi / (N + 2)) for N in range(2, 13)
    )
    return err <= 1e-15, f"max_err={err:.3g}"


def _chk_sqrt_bend_asymptotes(rng):
    z_plus = stokes.contour_point(stokes.Contour.sqrt_bend(), 1e9)
    z_minus = stokes.contour_point(stokes.Contour.sqrt_bend(), -1e9)
    err = max(
        abs(np.angle(z_plus) + math.pi / 4), abs(np.angle(z_minus) + 3 * math.pi / 4)
    )
    return err <= 1e-4, f"max_err={err:.3g}"


def _chk_sqrt_bend_range(rng):
    bend = stokes.Contour.sqrt_bend()
    good = {N for N in range(2, 13) if stokes.contour_admissible(bend, N)}
    return good == set(range(3, 10)), f"admissible={sorted(good)}"


def _chk_hyperbola_always(rng):
    ok = all(
        stokes.contour_admissible(stokes.Contour.hyperbola(1.0, N), N)
        for N in range(2, 13)
    )
    return ok, "N=2..12"


def _chk_decay_vs_wedges(rng):
    for N in (2, 4, 6):
        pair = stokes.wedges(N)
        for wedge in pair:
            width = wedge.width
            inner = wedge.theta_lo + (0.02 + 0.96 * rng.uniform(size=17)) * width
            for theta in inner:
                if not stokes.decay_condition(N, theta):
                    return False, f"decay false inside wedge N={N}"
            outer = wedge.theta_hi + (0.02 + 0.96 * rng.uniform(size=17)) * width
            for theta in outer:
                if stokes.decay_condition(N, theta):
                    return False, f"decay true in anti-wedge N={N}"
    return True, "102 angles per N"


def _chk_exponent_scale_invariance(rng):
    for _ in range(10):
        theta = rng.uniform(-math.pi, math.pi)
        signs = {
            np.sign(stokes.asymptotic_exponent(4, g, r * np.exp(1j * theta)).real)
            for r in (0.5, 2.0, 7.0)
            for g in (0.3, 1.5)
        }
        if len(signs) != 1:
            return False, f"sign flips at theta={theta:.3g}"
    return True, "10 random rays"


def _chk_field_integral_start(rng):
    pulse = dynamics.Pulse(E0=0.7, omega=1.3, tau=4.0)
    zero = dynamics.field_integrals(pulse, 0.0)
    off = dynamics.field_integrals(
        dynamics.Pulse(E0=0.0, omega=1.3, tau=4.0), float(rng.uniform(0.5, 6.0))
    )
    err = max(abs(v) for v in (zero.b, zero.c, zero.d, off.b, off.c, off.d))
    return err == 0.0, f"max_err={err:.3g}"


def _chk_gauge_residuals(rng):
    pulse = dynamics.Pulse(E0=0.8, omega=1.7, tau=5.0)
    harmonic = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5})
    quartic = WeylSymbol({(0, 2): 0.5, (4, 0): 1.0})
    worst = 0.0
    for _ in range(10):
        t = float(rng.uniform(0.0, 10.0))
        c = dynamics.field_integrals(pulse, t).c
        for h0 in (harmonic, quartic):
            res_v, res_k = dynamics.gauge_residual(h0, pulse, t)
            # the translated quartic carries coefficients up to c^4
            scale = max(1.0, h0.shift_x(c).max_abs())
            worst = max(worst, res_v.max_abs_coeff() / scale, res_k.max_abs_coeff() / scale)
    return worst <= 1e-12, f"max_rel_err={worst:.3g}"


def _chk_first_order_zero_field(rng):
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    pulse = dynamics.Pulse(E0=0.0, omega=2.0, tau=10.0)
    p23 = dynamics.first_order_transition(model, 2, 3, pulse, 10.0)
    return p23 == 0.0, f"P={p23:.3g}"


def _chk_transition_peak(rng):
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    curves = dynamics.transition_sweep(
        model, 2, 3, 0.005, 1.8, 2.2, 21, 20 * math.pi, [0.0]
    )
    curve = curves[0]
    peak = curve.omega[int(np.argmax(curve.probability))]
    step = curve.omega[1] - curve.omega[0]
    ok = abs(peak - 2.0) <= step + 1e-12 and float(np.max(curve.probability)) <= 1.0
    return ok, f"peak_omega={peak:.6g} max_P={float(np.max(curve.probability)):.3g}"


def _chk_crank_nicolson_norm(rng):
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    grid = GridSpec(x_min=0.0, x_max=12.0, points=300)
    system = models.hermitian_spectrum(model, grid, 1)
    psi0 = system.eigenvectors[:, 0].astype(complex)
    pulse = dynamics.Pulse(E0=0.01, omega=2.0, tau=3.0)
    psi = dynamics.crank_nicolson_propagate(model, pulse, grid, psi0, 0.01, 3.0)
    norm = math.sqrt(grid.step * float(np.sum(np.abs(psi) ** 2)))
    return abs(norm - 1.0) <= 1e-10, f"norm_drift={abs(norm - 1.0):.3g}"


def _chk_stationary_state(rng):
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    grid = GridSpec(x_min=0.0, x_max=12.0, points=300)
    system = models.hermitian_spectrum(model, grid, 1)
    psi0 = system.eigenvectors[:, 0].astype(complex)
    pulse = dynamics.Pulse(E0=0.0, omega=2.0, tau=3.0)
    psi = dynamics.crank_nicolson_propagate(model, pulse, grid, psi0, 0.005, 2.0)
    overlap = abs(grid.step * np.vdot(psi0, psi))
    return abs(overlap - 1.0) <= 1e-8, f"overlap_drift={abs(overlap - 1.0):.3g}"


def _gaussian_state(grid, center, sigma):
    x = grid.coordinates()
    psi = np.exp(-((x - center) ** 2) / (4.0 * sigma ** 2)).astype(complex)
    psi /= math.sqrt(grid.step * float(np.sum(np.abs(psi) ** 2)))
    return psi


def _chk_gordon_volkov_identity(rng):
    grid = GridSpec(x_min=-20.0, x_max=20.0, points=128)
    psi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    pulse = dynamics.Pulse(E0=0.5, omega=1.3, tau=5.0)
    out = dynamics.gordon_volkov_propagate(psi, pulse, grid, 0.7, 0.7)
    err = float(np.max(np.abs(out - psi)))
    return err <= 1e-12 * float(np.max(np.abs(psi))), f"max_err={err:.3g}"


def _chk_gordon_volkov_norm(rng):
    pulse = dynamics.Pulse(E0=0.5, omega=1.3, tau=5.0)
    full = GridSpec(x_min=-20.0, x_max=20.0, points=256)
    half = GridSpec(x_min=0.0, x_max=30.0, points=256)
    worst = 0.0
    for grid, center in ((full, 0.0), (half, 12.0)):
        psi = _gaussian_state(grid, center, 1.2)
        out = dynamics.gordon_volkov_propagate(psi, pulse, grid, 2.5, 0.0)
        norm = math.sqrt(grid.step * float(np.sum(np.abs(out) ** 2)))
        worst = max(worst, abs(norm - 1.0))
    return worst <= 1e-10, f"norm_drift={worst:.3g}"


def _chk_free_spreading(rng):
    grid = GridSpec(x_min=-40.0, x_max=40.0, points=512)
    sigma0, t = 1.5, 2.0
    psi = _gaussian_state(grid, 0.0, sigma0)
    pulse = dynamics.Pulse(E0=0.0, omega=1.0, tau=1.0)
    out = dynamics.gordon_volkov_propagate(psi, pulse, grid, t, 0.0)
    x = grid.coordinates()
    density = np.abs(out) ** 2 * grid.step
    var = float(np.sum(x ** 2 * density) - np.sum(x * density) ** 2)
    expected = sigma0 ** 2 + t ** 2 / (4.0 * sigma0 ** 2)
    return abs(var - expected) <= 1e-6, f"var_err={abs(var - expected):.3g}"


def _chk_strong_field_zero_potential(rng):
    grid = GridSpec(x_min=-20.0, x_max=20.0, points=128)
    psi = _gaussian_state(grid, 1.0, 1.3)
    pulse = dynamics.Pulse(E0=0.4, omega=1.1, tau=4.0)
    direct = dynamics.gordon_volkov_propagate(psi, pulse, grid, 3.0, 0.0)
    perturbed = dynamics.first_order_strong_field(
        psi, np.zeros(128), pulse, grid, 3.0, n_quad=8
    )
    err = float(np.max(np.abs(direct - perturbed)))
    return err <= 1e-12, f"max_err={err:.3g}"


def _chk_spiked_energy_gap(rng):
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    gap = models.spiked_energy(model, 3) - models.spiked_energy(model, 2)
    return abs(gap - 2.0) <= 1e-15, f"gap={gap:.12g}"


def _chk_spiked_orthonormality(rng):
    from scipy.integrate import quad

    model = SpikedHOModel(lam=0.5, alpha=0.2)
    worst = 0.0
    for n in range(3):
        for m in range(n, 3):
            val = quad(
                lambda x: models.spiked_wavefunction(model, n, x)
                * models.spiked_wavefunction(model, m, x),
                0.0,
                np.inf,
                epsabs=1e-12,
                epsrel=1e-12,
            )[0]
            worst = max(worst, abs(val - (1.0 if n == m else 0.0)))
    return worst <= 1e-8, f"max_err={worst:.3g}"


def _chk_spiked_variant_equivalence(rng):
    base = SpikedHOModel(lam=0.5, alpha=0.2)
    shift = SpikedHOModel(lam=0.5, alpha=0.2, xi=0.8, variant="p_shift")
    zero_xi = SpikedHOModel(lam=0.5, alpha=0.2, xi=0.0, variant="p_squared")
    pos = models.spiked_matrix_element(base, "position", 2, 3)
    err = abs(models.spiked_matrix_element(shift, "mapped_position", 2, 3) - pos)
    err = max(
        err, abs(models.spiked_matrix_element(zero_xi, "mapped_position", 2, 3) - pos)
    )
    return err <= 1e-10, f"max_err={err:.3g}"


_CHECKS = [
    ("canonical_commutator", _chk_canonical_commutator),
    ("quadratic_commutator", _chk_quadratic_commutator),
    ("star_associativity", _chk_star_associativity),
    ("conjugation_antihomomorphism", _chk_conjugation_antihomomorphism),
    ("identity_substitution", _chk_identity_substitution),
    ("euler_numbers", _chk_euler_numbers),
    ("kappa_values", _chk_kappa_values),
    ("oscillator_commutator_ladder", _chk_swanson_ladder),
    ("oscillator_pair_closed_forms", _chk_swanson_closed_forms),
    ("oscillator_compose_round_trip", _chk_swanson_compose),
    ("oscillator_metric_position_gaussian", _chk_swanson_metric_position),
    ("oscillator_metric_momentum_gaussian", _chk_swanson_metric_momentum),
    ("oscillator_observable_maps", _chk_swanson_observables),
    ("quartic_chain_closed_forms", _chk_quartic_chain),
    ("quartic_observable_map", _chk_quartic_observable),
    ("parity_time_classification", _chk_pt_classification),
    ("symbol_serialization_round_trip", _chk_serialization),
    ("wedges_harmonic_case", _chk_wedges_harmonic),
    ("wedge_widths", _chk_wedge_widths),
    ("sqrt_bend_asymptotes", _chk_sqrt_bend_asymptotes),
    ("sqrt_bend_admissible_range", _chk_sqrt_bend_range),
    ("hyperbola_admissible_all", _chk_hyperbola_always),
    ("decay_condition_matches_wedges", _chk_decay_vs_wedges),
    ("exponent_scale_invariance", _chk_exponent_scale_invariance),
    ("field_integrals_vanish_at_start", _chk_field_integral_start),
    ("gauge_residuals_vanish", _chk_gauge_residuals),
    ("first_order_zero_field", _chk_first_order_zero_field),
    ("transition_peak_and_bound", _chk_transition_peak),
    ("crank_nicolson_norm", _chk_crank_nicolson_norm),
    ("crank_nicolson_stationary_state", _chk_stationary_state),
    ("gordon_volkov_identity", _chk_gordon_volkov_identity),
    ("gordon_volkov_norm", _chk_gordon_volkov_norm),
    ("free_packet_spreading", _chk_free_spreading),
    ("strong_field_zero_potential", _chk_strong_field_zero_potential),
    ("spiked_energy_gap", _chk_spiked_energy_gap),
    ("spiked_orthonormality", _chk_spiked_orthonormality),
    ("spiked_variant_equivalence", _chk_spiked_variant_equivalence),
]


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
            Param("dt", "float", "0.001"),
            Param("T", "optfloat", "", help="final time (defaults to tau)"),
            Param("snapshots", "int", "50"),
        ],
        run=_run_propagate,
        help="driven grid propagation with norm and population tracking",
    ),
    "verify-all": Subcommand(
        params=[],
        run=_run_verify_all,
        help="run every identity check and report PASS/FAIL",
    ),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pseudoherm",
        description="metric operators and laser-driven dynamics, as reproducible CSV",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
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
