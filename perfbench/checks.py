"""Independent references for every benchmark request, and the check itself.

Each check runs after the request's clock has stopped. It returns a status:

    ok            the outcome is the expected one and the output matches
    wrong         exit 0 on a valid input, but the output fails its reference
    precision     the output matches the reference to the norm-wise accuracy
                  the program documents (coefficients below 1e-12 of the
                  largest may be dropped), but not coefficient by coefficient
    exit          a valid input ended with a non-zero exit code
    not_rejected  an out-of-domain input exited 0 instead of 1 or 2
    raised        an exception escaped the program

Every status but "ok" counts as a failed request. Only "wrong" (and output
that changes between passes of the same run) makes the run incorrect.

The references never call the program:

* symbols: a dense-array Moyal product, f*g = sum_s (-i/2)^s/s! sum_t
  (-1)^t C(s,t) (d_x^t d_p^(s-t) f)(d_x^(s-t) d_p^t g), built on 2-D
  convolutions; closed forms for the Swanson and -x^4 symbols; exact
  tanh(x/2) series for kappa; Bender-Boettcher wedge angles.
* spiked oscillator: levels lam(4n + 2 alpha + 2); matrix elements as
  finite sums of gamma functions in mpmath at 30 digits (Laguerre
  polynomials expanded in monomials, u = lam x^2).
* spectra of the quartic models: a dense harmonic-oscillator basis.
* transitions and propagation: the rectangular-pulse first-order amplitude.
* strong-field step: Ehrenfest moments and the free spreading of a gaussian.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.signal import convolve2d

from workloads import REJECT, VERIFY_FAIL

# -- tolerances ---------------------------------------------------------------
# Symbol coefficients: strict, per coefficient, against the summed magnitude
# of the products that fed it (float error) plus the 12-digit CSV rounding.
SYM_MAG_TOL = 1e-12
CSV_REL_TOL = 1e-11
# Norm-wise fallback: the program's documented storage floor drops terms
# below 1e-12 of the largest coefficient.
SYM_NORM_TOL = 2e-12
# Spiked matrix elements: the program accepts a quadrature whose error
# estimate is below 1e-8 * max(1, |value|).
SPIKED_TOL = 1e-8
# Metric residuals: the CLI default tolerance, scaled by max(1, max |H|).
METRIC_TOL = 1e-10
# Metric-solve coefficients against their closed forms.
METRIC_COEFF_TOL = 1e-8
# Transition probabilities are quadratic in the matrix element: twice its
# relative tolerance, plus margin.
TRANSITION_REL_TOL = 3e-8
# Angles and contour points printed at 12 significant digits.
ANGLE_TOL = 1e-10
# Crank-Nicolson norm drift, and the time-step share of the first-order
# population check (the perturbative share is derived in _check_propagate).
CN_NORM_TOL = 1e-9
POPULATION_REL_TOL = 1e-3
# Strong-field moments: norm, mean position and momentum, position variance.
GV_NORM_TOL = 1e-9
GV_MOMENT_TOL = 1e-9


# -- parsing ------------------------------------------------------------------


def parse_csv(data):
    """(comments, header, rows) from the CLI's CSV bytes."""
    comments, lines = {}, []
    for line in data.decode().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        elif line:
            lines.append(line)
    if not lines:
        return comments, "", []
    return comments, lines[0], [ln.split(",") for ln in lines[1:]]


def _symbol_rows(rows):
    return {(int(r[0]), int(r[1])): complex(float(r[2]), float(r[3])) for r in rows}


# -- symbol algebra -----------------------------------------------------------


def to_array(terms):
    nx = max(dx for dx, _ in terms) + 1
    npow = max(dp for _, dp in terms) + 1
    out = np.zeros((nx, npow), dtype=complex)
    for (dx, dp), c in terms.items():
        out[dx, dp] += c
    return out


def _total_degree(arr):
    idx = np.argwhere(arr != 0)
    return int(idx.sum(axis=1).max()) if len(idx) else 0


def _derivative(arr, a, b):
    """d_x^a d_p^b of a coefficient array, or None when it vanishes."""
    nx, npow = arr.shape
    if a >= nx or b >= npow:
        return None
    fx = np.array([math.perm(i, a) for i in range(a, nx)], dtype=float)
    fp = np.array([math.perm(j, b) for j in range(b, npow)], dtype=float)
    return arr[a:, b:] * fx[:, None] * fp[None, :]


def _add_into(out, block):
    out[: block.shape[0], : block.shape[1]] += block


def moyal(F, G):
    """Moyal product of coefficient arrays, with the summed magnitude per coefficient."""
    shape = (F.shape[0] + G.shape[0] - 1, F.shape[1] + G.shape[1] - 1)
    out = np.zeros(shape, dtype=complex)
    mag = np.zeros(shape)
    for s in range(min(_total_degree(F), _total_degree(G)) + 1):
        base = (-0.5j) ** s / math.factorial(s)
        for t in range(s + 1):
            dF, dG = _derivative(F, t, s - t), _derivative(G, s - t, t)
            if dF is None or dG is None:
                continue
            w = base * (-1) ** t * math.comb(s, t)
            _add_into(out, w * convolve2d(dF, dG))
            _add_into(mag, abs(w) * convolve2d(np.abs(dF), np.abs(dG)))
    return out, mag


def _pad(a, shape):
    out = np.zeros(shape, dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def commutator(F, G):
    a, ma = moyal(F, G)
    b, mb = moyal(G, F)
    shape = (max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1]))
    return _pad(a, shape) - _pad(b, shape), _pad(ma, shape) + _pad(mb, shape)


def compare_symbols(got, ref, mag):
    """Status and detail for CLI symbol rows against a reference array."""
    shape = (
        max(ref.shape[0], max((k[0] for k in got), default=0) + 1),
        max(ref.shape[1], max((k[1] for k in got), default=0) + 1),
    )
    ref, mag = _pad(ref, shape), _pad(mag, shape)
    g = np.zeros(shape, dtype=complex)
    for (dx, dp), c in got.items():
        g[dx, dp] = c
    err = np.abs(g - ref)
    strict = SYM_MAG_TOL * mag + CSV_REL_TOL * np.abs(ref)
    normwise = strict + SYM_NORM_TOL * float(np.abs(ref).max(initial=0.0))
    worst = float((err / np.maximum(strict, 1e-300)).max(initial=0.0))
    if np.all(err <= strict):
        return "ok", f"max_err/tol={worst:.2g}"
    if np.all(err <= normwise):
        missing = int(np.sum((g == 0) & (err > strict)))
        return "precision", f"{int(np.sum(err > strict))} coefficients off ({missing} dropped)"
    return "wrong", f"max_err/tol={worst:.3g}"


def _closed_form_symbol(rows, terms):
    # the program sums commensurate chain terms, so its float error scales
    # with the largest coefficient
    ref = to_array(terms)
    return compare_symbols(_symbol_rows(rows), ref, np.full(ref.shape, np.abs(ref).max()))


def _check_star(req, comments, rows):
    F, G = to_array(req.ref["f"]), to_array(req.ref["g"])
    ref, mag = moyal(F, G) if req.ref["op"] == "star" else commutator(F, G)
    return compare_symbols(_symbol_rows(rows), ref, mag)


def _check_bch(req, comments, rows):
    Q, term = to_array(req.ref["q"]), to_array(req.ref["operand"])
    total, total_mag = term.copy(), np.abs(term)
    order = None
    for n in range(1, 33):
        term, mag = commutator(Q, term)
        if np.abs(term).max() <= 1e-10 * mag.max():
            order = n - 1
            break
        shape = (max(total.shape[0], term.shape[0]), max(total.shape[1], term.shape[1]))
        total = _pad(total, shape) + _pad(term, shape) / math.factorial(n)
        total_mag = _pad(total_mag, shape) + _pad(mag, shape) / math.factorial(n)
    status, detail = compare_symbols(_symbol_rows(rows), total, total_mag)
    if comments.get("terminated") != "true" or not comments.get("order", "").isdigit():
        return "wrong", f"terminated={comments.get('terminated')} order={comments.get('order')}"
    got_order = int(comments["order"])
    if got_order < order:
        return "wrong", f"order {got_order}, expected {order}"
    if got_order > order and status != "wrong":
        # the series is exact through `order`; later chain entries held only
        # cancellation residue that the program kept as nonzero terms
        return "precision", f"order {got_order}, expected {order}: cancellation residue kept"
    return status, detail


def _scale(H):
    return max(1.0, max(abs(c) for c in H.values()))


def _check_metric_verify(req, comments, rows):
    bound = METRIC_TOL * _scale(req.ref["H"])
    worst = max((abs(complex(float(r[3]), float(r[4]))) for r in rows), default=0.0)
    if comments.get("passed") != "true" or float(comments["residual_max_abs"]) > bound or worst > bound:
        return "wrong", f"residual {comments.get('residual_max_abs')} for the closed-form metric"
    return "ok", f"residual={comments['residual_max_abs']}"


def _check_metric_solve(req, comments, rows):
    mono = tuple(req.ref["mono"])
    got = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    ref = req.ref["coeff"]
    err = abs(got.get(mono, math.inf) - ref)
    if err > METRIC_COEFF_TOL * max(1.0, abs(ref)):
        return "wrong", f"coefficient {got.get(mono)} != {ref!r}"
    if float(comments["residual_norm"]) > METRIC_TOL * _scale(req.ref["H"]):
        return "wrong", f"residual_norm={comments['residual_norm']}"
    return "ok", f"coeff_err={err:.2g}"


def _check_swanson_x4(req, comments, rows):
    return _closed_form_symbol(rows, req.ref["terms"])


@lru_cache(maxsize=None)
def kappa_reference(upto):
    """kappa_n = n! [x^n] tanh(x/2), from the exact series sinh(x/2)/cosh(x/2)."""
    sinh = [Fraction(0)] * (upto + 1)
    cosh = [Fraction(0)] * (upto + 1)
    for k in range(upto + 1):
        term = Fraction(1, 2 ** k * math.factorial(k))
        (sinh if k % 2 else cosh)[k] = term
    tanh = [Fraction(0)] * (upto + 1)
    for k in range(upto + 1):
        tanh[k] = sinh[k] - sum(tanh[j] * cosh[k - j] for j in range(k))
    return {n: tanh[n] * math.factorial(n) for n in range(1, upto + 1, 2)}


def _check_kappa(req, comments, rows):
    ref = kappa_reference(req.ref["upto"])
    got = {int(r[0]): Fraction(r[1]) for r in rows}
    if got != ref:
        bad = sorted(n for n in ref if got.get(n) != ref[n])[:3]
        return "wrong", f"kappa differs at n={bad or 'row set'}"
    return "ok", "exact"


def _wedge_reference(N):
    """Bender-Boettcher wedges: centres -pi + (N-2)pi/(2(N+2)) and -(N-2)pi/(2(N+2))."""
    half = math.pi / (N + 2)
    right = -(N - 2) * math.pi / (2 * (N + 2))
    left = -math.pi + (N - 2) * math.pi / (2 * (N + 2))
    return {"left": (left - half, left + half, left), "right": (right - half, right + half, right)}


def _check_wedges(req, comments, rows):
    ref = _wedge_reference(req.ref["N"])
    got = {r[0]: tuple(float(v) for v in r[1:]) for r in rows}
    if set(got) != set(ref):
        return "wrong", f"sides {sorted(got)}"
    err = max(abs(a - b) for side in ref for a, b in zip(got[side], ref[side]))
    if err > ANGLE_TOL:
        return "wrong", f"max_err={err:.3g}"
    return "ok", f"max_err={err:.2g}"


def _check_contour(req, comments, rows):
    r = req.ref
    x = np.linspace(-r["xspan"], r["xspan"], r["samples"])
    N = r["N"]
    if r["kind"] == "z1":
        theta = -(N - 2) * math.pi / (2 * (N + 2))
        z = x * math.cos(theta) + 1j * math.sin(theta) * np.sqrt(r["a"] ** 2 + x ** 2)
        admissible = True
    else:
        z = -2j * np.sqrt(1.0 + 1j * x)
        # asymptotes at -pi/4 and -3pi/4 lie strictly inside the wedges iff 2 < N < 10
        admissible = 2 < N < 10
    got = np.array([[float(v) for v in row] for row in rows])
    if got.shape != (len(x), 3):
        return "wrong", f"{got.shape[0]} rows, expected {len(x)}"
    err = np.abs(got[:, 1] + 1j * got[:, 2] - z) + np.abs(got[:, 0] - x)
    if np.any(err > ANGLE_TOL * np.maximum(1.0, np.abs(z))):
        return "wrong", f"max_err={float(err.max()):.3g}"
    if comments.get("admissible") != ("true" if admissible else "false"):
        return "wrong", f"admissible={comments.get('admissible')}"
    return "ok", f"max_err={float(err.max()):.2g}"


# -- spiked oscillator --------------------------------------------------------


def spiked_energy(lam, alpha, n):
    return lam * (4 * n + 2 * alpha + 2)


@lru_cache(maxsize=None)
def spiked_elements(n, m, alpha, lam):
    """<n|x|m> and <n|p|m> (p = -i d/dx) of the spiked oscillator in mpmath.

    With u = lam x^2 the integrands are u^(a-1) or u^a times e^(-u) times
    polynomials in u, a = alpha + 1/2, so each is a finite sum of gamma
    functions. The momentum element exists only for alpha > -1/2; it is
    None otherwise.
    """
    with mpmath.workdps(30):
        al, lm = mpmath.mpf(alpha), mpmath.mpf(lam)
        a = al + mpmath.mpf(1) / 2

        def laguerre(k):
            return [
                (-1) ** i * mpmath.gamma(k + al + 1)
                / (mpmath.gamma(k - i + 1) * mpmath.gamma(al + i + 1) * mpmath.factorial(i))
                for i in range(k + 1)
            ]

        def norm(k):
            return mpmath.sqrt(2 * lm ** (al + 1) * mpmath.factorial(k) / mpmath.gamma(al + k + 1))

        ln, lmm = laguerre(n), laguerre(m)
        pref = (-1) ** (n + m) * norm(n) * norm(m)
        pairs = [(i, j) for i in range(n + 1) for j in range(m + 1)]
        pos = pref * lm ** (-a - 1) / 2 * mpmath.fsum(ln[i] * lmm[j] * mpmath.gamma(a + 1 + i + j) for i, j in pairs)
        mom = None
        if alpha > -0.5:
            s1 = mpmath.fsum(ln[i] * lmm[j] * mpmath.gamma(a + i + j) for i, j in pairs)
            s2 = mpmath.fsum(ln[i] * lmm[j] * mpmath.gamma(a + 1 + i + j) for i, j in pairs)
            s3 = mpmath.fsum(ln[i] * j * lmm[j] * mpmath.gamma(a + i + j) for i, j in pairs if j)
            mom = -1j * complex(pref * lm ** (-a) / 2 * (a * s1 - s2 + 2 * s3))
        return complex(pos), mom


def _check_spiked(req, comments, rows):
    r = req.ref
    worst = 0.0
    for key, level in (("energy_n", r["n"]), ("energy_m", r["m"])):
        ref = spiked_energy(r["lam"], r["alpha"], level)
        err = abs(float(comments[key]) - ref)
        if err > CSV_REL_TOL * max(1.0, abs(ref)):
            return "wrong", f"{key}={comments[key]}, expected {ref!r}"
    pos, mom = spiked_elements(r["n"], r["m"], r["alpha"], r["lam"])
    if r["variant"] == "p_shift":
        mapped = pos + 1j * r["xi"] * (1.0 if r["n"] == r["m"] else 0.0)
    else:
        mapped = pos + 2j * r["xi"] * mom
    ref = {"position": pos, "momentum": mom, "mapped_position": mapped}
    got = {row[0]: complex(float(row[1]), float(row[2])) for row in rows}
    if set(got) != set(ref):
        return "wrong", f"rows {sorted(got)}"
    for key, val in ref.items():
        err = abs(got[key] - val) / max(1.0, abs(val))
        worst = max(worst, err)
        if err > SPIKED_TOL:
            return "wrong", f"{key}={got[key]}, expected {val!r}"
    return "ok", f"max_rel_err={worst:.2g}"


def first_order_integral(E0, omega, delta, t):
    """int_0^t E0 sin(omega s) exp(i delta s) ds for a rectangular pulse (t <= tau)."""

    def phase(mu):
        # (exp(i mu t) - 1)/(i mu), continuous through mu = 0
        return t * np.exp(0.5j * mu * t) * np.sinc(mu * t / (2 * np.pi))

    return E0 / 2j * (phase(delta + omega) - phase(delta - omega))


def _check_transition(req, comments, rows):
    r = req.ref
    data = np.array(rows, dtype=float)
    nxi, steps = len(r["xis"]), r["steps"]
    if data.shape != (steps * nxi, 3):
        return "wrong", f"shape {data.shape}, expected {(steps * nxi, 3)}"
    omega = np.linspace(r["lo"], r["hi"], steps)
    if np.abs(data[:, 0].reshape(steps, nxi) - omega[:, None]).max() > CSV_REL_TOL * abs(r["hi"]):
        return "wrong", "omega grid"
    if np.abs(data[:, 1].reshape(steps, nxi) - np.array(r["xis"])[None, :]).max() > CSV_REL_TOL * 4:
        return "wrong", "xi column"
    pos, mom = spiked_elements(r["n"], r["m"], r["alpha"], r["lam"])
    delta = spiked_energy(r["lam"], r["alpha"], r["n"]) - spiked_energy(r["lam"], r["alpha"], r["m"])
    integral = first_order_integral(r["E0"], omega, delta, r["tau"])
    element = pos + 2j * np.array(r["xis"]) * mom
    ref = np.abs(-1j * element[None, :] * integral[:, None]) ** 2
    got = data[:, 2].reshape(steps, nxi)
    tol = TRANSITION_REL_TOL * ref + 1e-12 * ref.max(axis=0, keepdims=True)
    err = np.abs(got - ref)
    if not np.all(err <= tol) or got.min() < 0.0 or got.max() > 1.0:
        return "wrong", f"max_err/tol={float((err / tol).max()):.3g} P in [{got.min():.3g}, {got.max():.3g}]"
    return "ok", f"max_err/tol={float((err / tol).max()):.2g}"


# -- spectra ------------------------------------------------------------------


def _oscillator_basis_levels(kinetic, potential, levels, size):
    """Lowest eigenvalues of kinetic p^2 + sum_j potential[j] x^j in an oscillator basis.

    Powers of x are formed in a basis four states larger, so the kept block
    is exact.
    """
    lengths = []
    if potential.get(4, 0.0) > 0:
        lengths.append((kinetic / potential[4]) ** (1 / 6))
    if potential.get(2, 0.0) > 0:
        lengths.append((kinetic / potential[2]) ** 0.25)
    s = min(lengths)
    big = size + 4
    lower = np.diag(np.sqrt(np.arange(1, big)), 1)
    X = s * (lower + lower.T) / math.sqrt(2.0)
    D = lower - lower.T
    H = -kinetic * (D @ D) / (2.0 * s * s)
    power = np.eye(big)
    for j in range(5):
        if j:
            power = power @ X
        if potential.get(j, 0.0):
            H = H + potential[j] * power
    return np.linalg.eigvalsh(H[:size, :size])[:levels]


@lru_cache(maxsize=None)
def quartic_levels(model, params, levels):
    """Exact levels of the x4h or xt4 grid Hamiltonian, as (kinetic, levels)."""
    p = dict(params)
    if model == "x4h":
        # fourier_swap of the -x^4 partner: alpha p^2 + g^2 x^4/(4 alpha) + (1 - g^2) x^2 - x/2 + alpha (g^2 - 1)
        al, g = p["alpha"], p["g"]
        kinetic = al
        potential = {4: g * g / (4 * al), 2: 1 - g * g, 1: -0.5, 0: al * (g * g - 1)}
    else:
        g = p["g"]
        kinetic = 1.0
        potential = {4: 4 * g * g, 1: -2 * g}
    fine = _oscillator_basis_levels(kinetic, potential, levels, 200)
    coarse = _oscillator_basis_levels(kinetic, potential, levels, 150)
    if np.abs(fine - coarse).max() > 1e-8 * max(1.0, float(np.abs(fine).max())):
        raise RuntimeError(f"oscillator-basis reference for {model} {p} did not converge")
    return kinetic, fine


def _check_spectrum(req, comments, rows):
    r = req.ref
    got = np.array([float(row[1]) for row in rows])
    if len(got) != r["levels"]:
        return "wrong", f"{len(got)} levels, expected {r['levels']}"
    if r["model"] == "spiked":
        kinetic, order = 1.0, min(2.0, 2.0 * r["params"]["alpha"])
        ref = spiked_energy(r["params"]["lambda"], r["params"]["alpha"], np.arange(r["levels"]))
    else:
        order = 2.0
        kinetic, ref = quartic_levels(r["model"], tuple(sorted(r["params"].items())), r["levels"])
    # Leading finite-difference error on the finest grid, h^p (1 + |E|)^2 / (4 kinetic):
    # p = 2 for smooth potentials; eigenfunctions x^(alpha + 1/2) at the origin
    # limit second-order differences to p = 2 alpha for the spiked model.
    h = (r["hi"] - r["lo"]) / (r["points"] + 1) / 2 ** r["refine"]
    tol = h ** order * (1.0 + np.abs(ref)) ** 2 / (4.0 * kinetic)
    err = np.abs(got - ref)
    if np.any(err > tol):
        return "wrong", f"max_err/tol={float((err / tol).max()):.3g}"
    return "ok", f"max_err/tol={float((err / tol).max()):.2g}"


def _check_verify_all(req, comments, rows):
    failed = [row[0] for row in rows if row[1] != "PASS"]
    if not rows or failed:
        return "wrong", f"failing checks {failed}"
    return "ok", f"{len(rows)} checks"


# -- dynamics -----------------------------------------------------------------


@lru_cache(maxsize=None)
def grid_transition_data(lam, alpha, L, points, n, m):
    """<n|x|m>, E_n - E_m and max <x^2> of the spiked model's finite-difference matrix.

    The same second-order Dirichlet discretization on (0, L) that the
    propagation uses, diagonalized here with a tridiagonal solver, so the
    first-order reference carries the grid's own levels and states.
    """
    from scipy.linalg import eigh_tridiagonal

    h = L / (points + 1)
    x = h * np.arange(1, points + 1)
    diag = 2.0 / h ** 2 + lam ** 2 * x ** 2 + (alpha ** 2 - 0.25) / x ** 2
    off = np.full(points - 1, -1.0 / h ** 2)
    top = max(n, m)
    values, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, top))
    element = float(vectors[:, n] @ (x * vectors[:, m]))
    spread = max(float(vectors[:, k] @ (x * x * vectors[:, k])) for k in (n, m))
    return element, float(values[n] - values[m]), spread


def _check_propagate(req, comments, rows):
    r = req.ref
    data = np.array(rows, dtype=float)
    times = np.linspace(0.0, r["T"], r["snapshots"] + 1)
    if data.shape != (len(times), 3):
        return "wrong", f"shape {data.shape}"
    if np.abs(data[:, 0] - times).max() > CSV_REL_TOL * r["T"]:
        return "wrong", "snapshot times"
    drift = float(np.abs(data[:, 1] - 1.0).max())
    if drift > CN_NORM_TOL:
        return "wrong", f"norm drift {drift:.3g}"
    pop = data[:, 2]
    if pop.min() < 0.0 or pop.max() > 1.0:
        return "wrong", f"population outside [0, 1]: {pop.min():.3g}..{pop.max():.3g}"
    pos, delta, spread = grid_transition_data(r["lam"], r["alpha"], r["L"], r["points"], r["n"], r["m"])
    ref = np.abs(pos * first_order_integral(r["E0"], r["omega"], delta, times)) ** 2
    # Amplitude beyond first order, bounded by (E0 t)^2 max <x^2> (twice the
    # second-order Dyson bound, to cover higher orders), plus the time step.
    beyond = (r["E0"] * times) ** 2 * spread
    tol = 2.0 * np.sqrt(ref) * beyond + beyond ** 2 + POPULATION_REL_TOL * ref + 1e-15
    err = np.abs(pop - ref)
    if np.any(err > tol):
        return "wrong", f"population max_err/tol={float((err / tol).max()):.3g}"
    return "ok", f"norm_drift={drift:.2g} pop max_err/tol={float((err / tol).max()):.2g}"


def _field(pulse, s):
    carrier = math.sin if pulse["phase_kind"] == "sine" else math.cos
    env = 1.0
    if pulse["envelope"] == "gaussian":
        env = math.exp(-0.5 * ((s - pulse["center"]) / pulse["width"]) ** 2)
    return pulse["E0"] * carrier(pulse["omega"] * s) * env


def _field_moments(pulse, t):
    """b(t) = int_0^t E, c(t) = int_0^t (t - s) E(s) ds, with E = 0 past tau."""
    end = min(t, pulse["tau"])
    b = quad(lambda s: _field(pulse, s), 0.0, end, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    c = quad(lambda s: (t - s) * _field(pulse, s), 0.0, end, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    return b, c


def _check_strong_field(req, data):
    """Constant potential v0: psi = (1 - i v0 t) U_GV(t, 0) psi0 exactly at first order.

    U_GV moves a gaussian packet like a classical particle in the field:
    <x> = x0 + k0 t - c(t), <p> = k0 - b(t), and its width grows as in free
    space, sigma^2 + t^2 / (4 sigma^2).
    """
    c, r = req.call, req.ref
    psi = np.frombuffer(data, dtype=complex) / (1.0 - 1j * r["v0"] * c["t"])
    if psi.shape != (c["points"],):
        return "wrong", f"shape {psi.shape}"
    h = (c["x_max"] - c["x_min"]) / (c["points"] + 1)
    x = c["x_min"] + h * np.arange(1, c["points"] + 1)
    density = h * np.abs(psi) ** 2
    norm = float(density.sum())
    if abs(norm - 1.0) > GV_NORM_TOL:
        return "wrong", f"norm {norm!r}"
    k = 2 * np.pi * np.fft.fftfreq(c["points"], d=h)
    spectrum = np.abs(np.fft.fft(psi)) ** 2
    mean_x = float((x * density).sum())
    mean_p = float((k * spectrum).sum() / spectrum.sum())
    var_x = float((x * x * density).sum()) - mean_x ** 2
    b, cc = _field_moments(c["pulse"], c["t"])
    t = c["t"]
    expected = {
        "mean_x": r["x0"] + r["k0"] * t - cc,
        "mean_p": r["k0"] - b,
        "var_x": r["sigma"] ** 2 + t * t / (4 * r["sigma"] ** 2),
    }
    got = {"mean_x": mean_x, "mean_p": mean_p, "var_x": var_x}
    err = max(abs(got[k] - expected[k]) for k in expected)
    if err > GV_MOMENT_TOL:
        return "wrong", f"moments {got} expected {expected}"
    return "ok", f"moment_err={err:.2g}"


_CLI_CHECKS = {
    "star": _check_star,
    "commutator": _check_star,
    "bch": _check_bch,
    "metric-verify": _check_metric_verify,
    "metric-solve": _check_metric_solve,
    "swanson": _check_swanson_x4,
    "x4": _check_swanson_x4,
    "kappa": _check_kappa,
    "wedges": _check_wedges,
    "contour": _check_contour,
    "spiked": _check_spiked,
    "transition": _check_transition,
    "spectrum": _check_spectrum,
    "verify-all": _check_verify_all,
    "propagate": _check_propagate,
}


def check(req, code, data):
    """Status and detail of one request's outcome; see the module docstring."""
    if code is None:
        return "raised", "exception escaped the program"
    if req.expect == REJECT:
        if code in (1, 2):
            return "ok", f"exit {code}"
        return "not_rejected", f"exit {code} on out-of-domain input"
    if req.call is not None:
        return _check_strong_field(req, data)
    comments, _, rows = parse_csv(data)
    if req.expect == VERIFY_FAIL:
        if code == 1 and comments.get("passed") == "false":
            return "ok", f"rejected, residual={comments.get('residual_max_abs')}"
        if code == 0:
            return "wrong", "accepted a wrong metric"
        return "exit", f"exit {code}"
    if code != 0:
        return "exit", f"exit {code}"
    try:
        return _CLI_CHECKS[req.cls](req, comments, rows)
    except (ValueError, KeyError, IndexError) as exc:
        return "wrong", f"unparseable output: {type(exc).__name__}: {exc}"
