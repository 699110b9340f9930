"""Seeded request lists for the three benchmark workloads, and how to run one request.

Each workload is a fixed list of requests built from the seed. Sizes follow a
fixed schedule per request class (how many star products of each degree, how
many transition sweeps of each size, ...); the seed draws the symbol
coefficients, the physical parameters and the order. The work in one pass is
therefore nearly the same for every seed, while the inputs differ.

The program receives only the generated argv and symbol files. Library
requests (`first_order_strong_field`, which no subcommand exposes) receive
only the generated arrays and pulse.

This module imports nothing but the standard library and numpy, so the
set-up child process can use it without paying for the reference checks.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("symbolic", "spectral", "propagation")

# Expected outcomes. "ok": exit 0 and output matching the reference.
# "reject": out-of-domain input whose correct outcome is exit 1 or 2.
# "verify_fail": a metric candidate that is wrong, so metric-verify must
# report passed=false and exit 1.
OK, REJECT, VERIFY_FAIL = "ok", "reject", "verify_fail"


@dataclass
class Request:
    rid: str
    cls: str
    expect: str
    argv: list | None = None
    call: dict | None = None
    ref: dict = field(default_factory=dict)

    def describe(self):
        if self.argv is not None:
            return " ".join(self.argv)
        spec = {k: v for k, v in self.call.items() if k not in ("psi0", "potential")}
        return f"first_order_strong_field {spec}"


# -- running one request ----------------------------------------------------


def execute(req, lib):
    """Run one request; return (seconds, exit code or None, output bytes, error text).

    `lib` holds the imported `cli`, `dynamics` and `models` modules. The
    clock runs from the call to the last byte of output. A request that
    raises returns code None and the exception text.
    """
    if req.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                t0 = time.perf_counter()
                code = lib.cli.run(list(req.argv))
                t1 = time.perf_counter()
        except Exception as exc:  # a raising request is a failed request
            return 0.0, None, b"", f"raised {type(exc).__name__}: {exc}"
        return t1 - t0, code, out.getvalue().encode(), err.getvalue()
    c = req.call
    grid = lib.models.GridSpec(x_min=c["x_min"], x_max=c["x_max"], points=c["points"])
    pulse = lib.dynamics.Pulse(**c["pulse"])
    try:
        t0 = time.perf_counter()
        psi = lib.dynamics.first_order_strong_field(
            c["psi0"], c["potential"], pulse, grid, c["t"], n_quad=c["n_quad"]
        )
        t1 = time.perf_counter()
    except Exception as exc:
        return 0.0, None, b"", f"raised {type(exc).__name__}: {exc}"
    return t1 - t0, 0, np.ascontiguousarray(psi, dtype=complex).tobytes(), ""


# -- helpers ----------------------------------------------------------------


def _num(x):
    """Shortest text that reads back as the same float."""
    return repr(float(x))


class _Builder:
    def __init__(self, workload, seed, workdir):
        salt = WORKLOADS.index(workload)
        self.rng = np.random.default_rng([seed, salt])
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.requests = []
        self.counter = 0

    def add(self, cls, expect, argv=None, call=None, **ref):
        self.requests.append(
            Request(rid=f"{cls}-{len(self.requests):03d}", cls=cls, expect=expect,
                    argv=argv, call=call, ref=ref)
        )

    def symbol_file(self, terms):
        """Write a symbol file ('deg_x deg_p re im' per line) and return its path."""
        self.counter += 1
        path = self.workdir / f"sym{self.counter:04d}.txt"
        lines = [
            f"{dx} {dp} {_num(c.real)} {_num(c.imag)}" for (dx, dp), c in sorted(terms.items())
        ]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def dense_symbol(self, degree):
        """All monomials of total degree <= degree, with complex normal coefficients."""
        terms = {}
        for dx in range(degree + 1):
            for dp in range(degree + 1 - dx):
                re = self.rng.standard_normal()
                terms[(dx, dp)] = complex(re, self.rng.standard_normal())
        return terms

    def uniform(self, lo, hi):
        return float(self.rng.uniform(lo, hi))

    def integer(self, lo, hi):
        """Integer in [lo, hi]."""
        return int(self.rng.integers(lo, hi + 1))

    def shuffled(self):
        order = self.rng.permutation(len(self.requests))
        return [self.requests[i] for i in order]


# -- symbolic ---------------------------------------------------------------

# Degree schedules: many small products (per-call overhead sets p50) beside a
# tail of dense ones (per-term cost sets p90 and throughput). The twenty
# degree-10 products form one block of equal cost that holds the 90th
# percentile; only the seven products above it are dearer.
_STAR_DEGREES = [2] * 42 + [3] * 24 + [4] * 16 + [6] * 10 + [8] * 6 + [10] * 20 + [14] * 2 + [16] * 3
_COMMUTATOR_DEGREES = [2] * 10 + [3] * 5 + [4] * 3 + [12] * 1 + [16] * 1


def _swanson_terms(n, m, alpha, g, which):
    """Closed forms of the generalized Swanson family (seed p^2/2 + alpha x^n/2)."""
    seed = {(0, 2): 0.5 + 0j}
    seed[(n, 0)] = seed.get((n, 0), 0j) + 0.5 * alpha
    if which == "q":
        return {(m, 0): complex(2.0 * g / m)}
    extra = {(2 * m - 2, 0): 0.5 * g * g} if which == "h" else {(m - 1, 1): -1j * g}
    out = dict(seed)
    for k, v in extra.items():
        out[k] = out.get(k, 0j) + v
    return out


def _x4_terms(alpha, g, which):
    """Closed forms of the -x^4 chain: seed p^2 - p/2 + alpha(x^2 - 1)."""
    seed = {(0, 2): 1.0 + 0j, (0, 1): -0.5 + 0j, (2, 0): alpha + 0j, (0, 0): -alpha + 0j}
    if which in ("q", "eta2_exponent"):
        return {(0, 3): complex(g / (3.0 * alpha)), (0, 1): complex(-2.0 * g)}
    out = dict(seed)
    if which == "H":
        extra = {(1, 2): 1j * g, (1, 0): -2j * alpha * g}
    else:
        c = g * g / (4.0 * alpha)
        extra = {(0, 4): c, (0, 2): -g * g, (0, 0): g * g * alpha}
    for k, v in extra.items():
        out[k] = out.get(k, 0j) + v
    return out


def _symbolic(b):
    for d in _STAR_DEGREES:
        f, g = b.dense_symbol(d), b.dense_symbol(d)
        b.add("star", OK, ["star", "--f", b.symbol_file(f), "--g", b.symbol_file(g)], f=f, g=g, op="star")
    for d in _COMMUTATOR_DEGREES:
        f, g = b.dense_symbol(d), b.dense_symbol(d)
        b.add("commutator", OK,
              ["star", "--f", b.symbol_file(f), "--g", b.symbol_file(g), "--op", "commutator"],
              f=f, g=g, op="commutator")
    for i in range(10):
        kind = i % 4
        if kind == 0:
            m = b.integer(1, 3)
            q = {(m, 0): complex(2.0 * b.uniform(0.1, 2.0) / m)}
            operand = b.dense_symbol(b.integer(2, 4))
        elif kind == 1:
            q = _x4_terms(b.uniform(0.2, 3.0), b.uniform(0.05, 2.0), "q")
            operand = b.dense_symbol(b.integer(2, 4))
        elif kind == 2:
            q = {(b.integer(1, 3), 0): complex(b.rng.standard_normal())}
            operand = _x4_terms(b.uniform(0.2, 3.0), 0.0, "h")
        else:
            q = {(k, 0): complex(b.rng.standard_normal()) for k in range(1, b.integer(1, 3) + 1)}
            operand = b.dense_symbol(3)
        b.add("bch", OK,
              ["bch", "--generator", b.symbol_file(q), "--operand", b.symbol_file(operand)],
              q=q, operand=operand)
    # metric-verify: the closed-form metric exp((2g/m) x^m) of the Swanson
    # family, the momentum metric exp(-g p^2/alpha) for n = m = 2, and a
    # wrong candidate (twice the exponent) that must be rejected.
    for i in range(8):
        alpha, g = b.uniform(0.1, 2.0), b.uniform(0.1, 2.0)
        if i % 4 == 3:
            n, m = 2, 2
            exponent = {(0, 2): complex(-g / alpha)}
        else:
            n, m = b.integer(2, 4), b.integer(2, 3)
            exponent = {(m, 0): complex(2.0 * g / m)}
        expect = OK
        if i in (2, 5):
            exponent = {k: 2.0 * v for k, v in exponent.items()}
            expect = VERIFY_FAIL
        H = _swanson_terms(n, m, alpha, g, "H")
        b.add("metric-verify", expect,
              ["metric-verify", "--hamiltonian", b.symbol_file(H), "--exponent", b.symbol_file(exponent)],
              H=H)
    # metric-solve: one-monomial ansatz whose closed-form coefficient is known.
    for i in range(8):
        alpha, g = b.uniform(0.1, 2.0), b.uniform(0.1, 2.0)
        if i % 4 == 1:
            n, m, mono, coeff = 2, 2, (0, 2), -g / alpha
        else:
            n, m = b.integer(2, 4), 2 + (i % 4 == 2)
            mono, coeff = (m, 0), 2.0 * g / m
        H = _swanson_terms(n, m, alpha, g, "H")
        b.add("metric-solve", OK,
              ["metric-solve", "--hamiltonian", b.symbol_file(H), "--monomials", f"{mono[0]},{mono[1]}"],
              H=H, mono=mono, coeff=coeff)
    for i in range(10):
        n, m = b.integer(1, 4), b.integer(1, 3)
        alpha, g = b.uniform(0.1, 2.0), b.uniform(0.1, 2.0)
        which = ("h", "H", "q")[i % 3]
        b.add("swanson", OK,
              ["swanson", "--n", str(n), "--m", str(m), "--alpha", _num(alpha), "--g", _num(g), "--which", which],
              terms=_swanson_terms(n, m, alpha, g, which))
    for i in range(8):
        alpha, g = b.uniform(0.2, 3.0), b.uniform(0.05, 2.0)
        which = ("h", "H", "q", "eta2_exponent")[i % 4]
        b.add("x4", OK, ["x4", "--alpha", _num(alpha), "--g", _num(g), "--which", which],
              terms=_x4_terms(alpha, g, which))
    for upto in (9, 17, 25, 33, 41):
        b.add("kappa", OK, ["kappa", "--upto", str(upto)], upto=upto)
    for _ in range(5):
        N = b.integer(2, 16)
        b.add("wedges", OK, ["wedges", "--N", str(N)], N=N)
    for i, samples in enumerate((201, 401, 801, 1201, 1601, 2001)):
        N = b.integer(2, 12)
        xspan = b.uniform(2.0, 20.0)
        argv = ["contour", "--N", str(N), "--samples", str(samples), "--xspan", _num(xspan)]
        if i % 2:
            b.add("contour", OK, argv + ["--kind", "z2"], kind="z2", N=N, samples=samples, xspan=xspan)
        else:
            a = b.uniform(0.5, 3.0)
            b.add("contour", OK, argv + ["--kind", "z1", "--a", _num(a)],
                  kind="z1", N=N, a=a, samples=samples, xspan=xspan)
    alpha, g = _num(b.uniform(0.1, 2.0)), _num(b.uniform(0.1, 2.0))
    n, m = str(b.integer(1, 4)), str(b.integer(1, 3))
    missing = str(b.workdir / "missing-symbol.txt")
    for argv in (
        ["swanson", "--n", n, "--m", m, "--alpha", "nan", "--g", g],
        ["swanson", "--n", n, "--m", m, "--alpha", alpha, "--g", "inf"],
        ["x4", "--alpha", "-" + alpha, "--g", g],
        ["x4", "--alpha", alpha, "--g", "nan"],
        ["kappa", "--upto", "0"],
        ["wedges", "--N", "1"],
        ["contour", "--kind", "z1", "--N", n, "--a", "inf"],
        ["star", "--f", missing, "--g", missing],
    ):
        b.add("out-of-domain", REJECT, argv)


# -- spectral ---------------------------------------------------------------

# (omega steps, xi count): from the defaults up to 20000 x 8. The block of
# default sweeps holds the median; the 5000 x 6 block holds the 90th
# percentile, with only verify-all and the 20000 x 8 sweep above it.
_TRANSITION_SIZES = [(200, 3)] * 28 + [(1000, 4)] * 2 + [(5000, 6)] * 8 + [(20000, 8)]
# (n, m) per slot, so the seed moves the physics but not the quadrature work.
_LEVEL_PAIRS = [(2, 3), (0, 1), (5, 5), (1, 4), (3, 0), (4, 2), (2, 2), (5, 1), (0, 0), (3, 4),
                (1, 1), (4, 5), (2, 0), (3, 3)]
# (points, refine) per model. The finest grid stays at or below 4003 points:
# the banded eigensolve allocates a dense points x points eigenvector
# workspace, so 14000 points would need 1.5 GiB.
_SPECTRUM_SIZES = [(1000, 0), (2000, 0), (4000, 0), (1000, 1), (2000, 1), (1000, 2)]


def _spiked_levels_grid(lam, alpha, levels):
    """Half-line box wide enough that the highest requested level has decayed."""
    top = lam * (4 * (levels - 1) + 2 * alpha + 2)
    return math.sqrt(top) / lam + 8.0 / math.sqrt(lam)


def _spectral(b):
    # alpha is stratified over the model's domain (-1, 1]; below -1/2 the
    # momentum element diverges, so the correct outcome is an error exit.
    strata = 14
    for i in range(strata):
        lo = -1.0 + 2.0 * i / strata
        alpha = b.uniform(lo, lo + 2.0 / strata)
        n, m = _LEVEL_PAIRS[i]
        lam, xi = b.uniform(0.3, 1.5), b.uniform(0.0, 2.0)
        variant = ("p_squared", "p_shift")[i % 2]
        b.add("spiked", OK if alpha > -0.5 else REJECT,
              ["spiked", "--lambda", _num(lam), "--alpha", _num(alpha), "--n", str(n), "--m", str(m),
               "--xi", _num(xi), "--variant", variant],
              lam=lam, alpha=alpha, n=n, m=m, xi=xi, variant=variant)
    for i, (steps, nxi) in enumerate(_TRANSITION_SIZES):
        n, m = ((2, 3), (0, 1), (1, 3), (4, 2))[i % 4]
        lam, alpha = b.uniform(0.3, 1.0), b.uniform(0.0, 1.0)
        if steps >= 5000:
            # the large sweeps share the default model and level pair, so
            # their matrix-element quadratures cost the same
            n, m, lam, alpha = 2, 3, 0.5, 0.2
        # E0 tau |<n|x + 2 i xi p|m>| stays well below 1, where first order holds
        E0, tau = b.uniform(0.001, 0.003), b.uniform(10.0, 40.0)
        gap = 4.0 * lam * abs(n - m)
        lo, hi = gap * b.uniform(0.6, 0.9), gap * b.uniform(1.1, 1.4)
        xis = sorted({round(b.uniform(0.0, 3.5), 6) for _ in range(nxi)})
        while len(xis) < nxi:
            xis = sorted(set(xis) | {round(b.uniform(0.0, 3.5), 6)})
        b.add("transition", OK,
              ["transition", "--n", str(n), "--m", str(m), "--lambda", _num(lam), "--alpha", _num(alpha),
               "--E0", _num(E0), "--omega", f"{_num(lo)}:{_num(hi)}:{steps}",
               "--xi", ",".join(_num(x) for x in xis), "--tau", _num(tau)],
              n=n, m=m, lam=lam, alpha=alpha, E0=E0, lo=lo, hi=hi, steps=steps, xis=xis, tau=tau)
    for model in ("spiked", "x4h", "xt4"):
        for i, (points, refine) in enumerate(_SPECTRUM_SIZES):
            levels = 3 + i
            if model == "spiked":
                lam, alpha = b.uniform(0.3, 1.0), b.uniform(0.0, 1.0)
                params = {"lambda": lam, "alpha": alpha}
                lo, hi = 0.0, _spiked_levels_grid(lam, alpha, levels)
            elif model == "x4h":
                params = {"alpha": b.uniform(0.5, 2.0), "g": b.uniform(0.05, 0.5)}
                lo, hi = -8.0, 8.0
            else:
                params = {"g": b.uniform(0.2, 1.0)}
                lo, hi = -6.0, 6.0
            b.add("spectrum", OK,
                  ["spectrum", "--model", model,
                   "--params", ",".join(f"{k}={_num(v)}" for k, v in params.items()),
                   "--grid", f"{_num(lo)},{_num(hi)},{points}", "--levels", str(levels),
                   "--refine", str(refine)],
                  model=model, params=params, lo=lo, hi=hi, points=points, levels=levels, refine=refine)
    b.add("verify-all", OK, ["verify-all"])
    lam = _num(b.uniform(0.3, 1.0))
    for argv in (
        ["transition", "--E0", "nan", "--lambda", lam],
        ["transition", "--tau", "inf", "--lambda", lam],
        ["transition", "--omega", "2.5:1.5:200", "--lambda", lam],
        ["spectrum", "--model", "xt4", "--params", "g=inf", "--grid", "-6,6,1000", "--levels", "3"],
        ["spectrum", "--model", "spiked", "--grid", "0,14,1000", "--levels", "0"],
    ):
        b.add("out-of-domain", REJECT, argv)


# -- propagation ------------------------------------------------------------

# Crank-Nicolson step counts on 1400 points: at about 140 us per step they
# outweigh the 13 ms eigensolve. The 300-step block holds the median and the
# 600-step block the 90th percentile; two requests on 4000 points and the
# gaussian strong-field step sit above it.
_PROPAGATE_STEPS = [200] * 8 + [300] * 12 + [400] * 8 + [600] * 9
_PROPAGATE_LARGE = [200] * 2


def _gaussian_packet(x, x0, sigma, k0, h):
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2) + 1j * k0 * x)
    return psi / math.sqrt(h * float(np.sum(np.abs(psi) ** 2)))


def _propagation(b):
    for points, schedule in ((1400, _PROPAGATE_STEPS), (4000, _PROPAGATE_LARGE)):
        for i, steps in enumerate(schedule):
            m, n = ((2, 3), (0, 1), (1, 3), (4, 2))[i % 4]
            lam, alpha = b.uniform(0.3, 1.0), b.uniform(0.0, 1.0)
            dt = (0.001, 0.002)[b.integer(0, 1)]
            T = steps * dt
            gap = 4.0 * lam * abs(n - m)
            omega, E0 = gap * b.uniform(0.8, 1.2), b.uniform(0.001, 0.005)
            snapshots = 10
            L = 14.0 * math.sqrt(0.5 / lam)
            b.add("propagate", OK,
                  ["propagate", "--lambda", _num(lam), "--alpha", _num(alpha), "--m", str(m), "--n", str(n),
                   "--E0", _num(E0), "--omega", _num(omega), "--grid", f"0,{_num(L)},{points}",
                   "--dt", _num(dt), "--T", _num(T), "--snapshots", str(snapshots)],
                  lam=lam, alpha=alpha, n=n, m=m, E0=E0, omega=omega, T=T, snapshots=snapshots,
                  L=L, points=points)
    # Strong-field step with a constant potential v0: the exact first-order
    # result is (1 - i v0 t) U_GV(t, 0) psi0. Rectangular pulses use the
    # closed-form field integrals; gaussian ones integrate them numerically.
    for envelope, count, points, n_quad in (("rectangular", 8, 1024, 32), ("gaussian", 1, 512, 8)):
        for _ in range(count):
            L = 40.0
            h = 2.0 * L / (points + 1)
            x = -L + h * np.arange(1, points + 1)
            x0, sigma, k0 = b.uniform(-3.0, 3.0), b.uniform(1.0, 2.0), b.uniform(-0.5, 0.5)
            t, v0 = b.uniform(1.0, 3.0), b.uniform(-0.05, 0.05)
            pulse = {"E0": b.uniform(0.05, 0.5), "omega": b.uniform(0.5, 2.0), "tau": b.uniform(1.0, 4.0),
                     "phase_kind": ("sine", "cosine")[b.integer(0, 1)], "envelope": envelope}
            if envelope == "gaussian":
                pulse["center"] = pulse["tau"] / 2.0
                pulse["width"] = pulse["tau"] / 6.0
            call = {"x_min": -L, "x_max": L, "points": points, "t": t, "n_quad": n_quad,
                    "pulse": pulse, "psi0": _gaussian_packet(x, x0, sigma, k0, h),
                    "potential": np.full(points, v0)}
            b.add("strong-field", OK, call=call, x0=x0, sigma=sigma, k0=k0, v0=v0)
    lam = _num(b.uniform(0.3, 1.0))
    for argv in (
        ["propagate", "--E0", "nan", "--T", "0.1", "--lambda", lam],
        ["propagate", "--dt", "0", "--T", "0.1", "--lambda", lam],
        ["propagate", "--grid", "-1,14,1400", "--T", "0.1", "--lambda", lam],
        ["propagate", "--lambda", "nan", "--T", "0.1"],
    ):
        b.add("out-of-domain", REJECT, argv)


_GENERATORS = {"symbolic": _symbolic, "spectral": _spectral, "propagation": _propagation}


def build(workload, seed, workdir):
    """The workload's request list for this seed, in its seeded order."""
    b = _Builder(workload, seed, workdir)
    _GENERATORS[workload](b)
    return b.shuffled()


def warmup(workload, workdir):
    """One smallest request of each class, untimed, run before measuring.

    They do not depend on the seed, so every run pays the same set-up.
    """
    b = _Builder(workload, 0, Path(workdir) / "warmup")
    _GENERATORS[workload](b)
    smallest = {}
    for req in b.requests:
        if req.expect != OK:
            continue
        key = req.cls
        size = _size(req)
        if key not in smallest or size < smallest[key][0]:
            smallest[key] = (size, req)
    return [req for _, req in smallest.values()]


def _size(req):
    r = req.ref
    if "f" in r:
        return len(r["f"]) * len(r["g"])
    if "steps" in r:
        return r["steps"] * len(r["xis"])
    if "points" in r and "refine" in r:
        return r["points"] * 2 ** r["refine"]
    if "T" in r:
        return r["T"] * r["points"]
    if req.call is not None:
        return req.call["n_quad"] * req.call["points"]
    if "xi" in r:
        return r["n"] + r["m"]
    return 0
