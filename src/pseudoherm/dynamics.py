"""Laser-driven dynamics: pulses, gauge bookkeeping and propagators.

A pulse is a carrier (sine or cosine) under a rectangular or gaussian
envelope, switched on over [0, tau].  The running field integrals

    b(t) = int E,   c(t) = int b,   d(t) = (1/2) int b^2

connect the length, velocity and Kramers-Henneberger frames; the same
factors assemble the Gordon-Volkov propagator used by the strong-field
first-order step.  Transition probabilities for the spiked oscillator
come from the first-order amplitude with either the canonical dressed
position coupling or the raw-x coupling mediated by the metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    SpikedHOModel,
    banded_hamiltonian,
    spiked_energy,
    spiked_matrix_element,
)
from .weyl import ExpPolySymbol, WeylSymbol, star


@dataclass(frozen=True)
class Pulse:
    """Carrier E0 trig(omega t) under an envelope, supported on [0, tau]."""

    E0: float
    omega: float
    tau: float
    phase_kind: str = "sine"
    envelope: str = "rectangular"
    center: float | None = None
    width: float | None = None

    def __post_init__(self):
        values = (self.E0, self.omega, self.tau, self.center, self.width)
        if not all(v is None or math.isfinite(v) for v in values):
            raise ValueError("pulse parameters must be finite")
        if self.E0 < 0:
            raise ValueError("E0 must be non-negative")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.phase_kind not in ("sine", "cosine"):
            raise ValueError(f"unknown phase_kind {self.phase_kind!r}")
        if self.envelope == "gaussian":
            if self.center is None or self.width is None or self.width <= 0:
                raise ValueError("gaussian envelope needs center and positive width")
        elif self.envelope != "rectangular":
            raise ValueError(f"unknown envelope {self.envelope!r}")


@dataclass(frozen=True)
class FieldIntegrals:
    b: float
    c: float
    d: float


def field_value(pulse, t):
    """Field at time t (scalar or array); zero outside [0, tau]."""
    t_arr = np.asarray(t, dtype=float)
    phase = pulse.omega * t_arr
    carrier = np.sin(phase) if pulse.phase_kind == "sine" else np.cos(phase)
    if pulse.envelope == "gaussian":
        env = np.exp(-0.5 * ((t_arr - pulse.center) / pulse.width) ** 2)
    else:
        env = 1.0
    window = (t_arr >= 0.0) & (t_arr <= pulse.tau)
    out = pulse.E0 * carrier * env * window
    if np.ndim(t) == 0:
        return float(out)
    return out


def _rectangular_integrals(pulse, t):
    E0, w = pulse.E0, pulse.omega
    tc = min(t, pulse.tau)
    if pulse.phase_kind == "sine":
        b = E0 * (1.0 - math.cos(w * tc)) / w
        c = E0 * (tc - math.sin(w * tc) / w) / w
        d = 0.5 * (E0 / w) ** 2 * (
            1.5 * tc - 2.0 * math.sin(w * tc) / w + math.sin(2.0 * w * tc) / (4.0 * w)
        )
    else:
        b = E0 * math.sin(w * tc) / w
        c = E0 * (1.0 - math.cos(w * tc)) / w ** 2
        d = 0.5 * (E0 / w) ** 2 * (0.5 * tc - math.sin(2.0 * w * tc) / (4.0 * w))
    if t > pulse.tau:
        rest = t - pulse.tau
        c += b * rest
        d += 0.5 * b * b * rest
    return FieldIntegrals(b=b, c=c, d=d)


def field_integrals(pulse, t):
    """Running integrals (b, c, d) of the field up to time t >= 0.

    Rectangular envelopes use closed forms (with the free continuation
    past tau); other envelopes integrate the cascade numerically.
    """
    if t < 0:
        raise ValueError("field integrals are defined for t >= 0")
    if t == 0:
        return FieldIntegrals(b=0.0, c=0.0, d=0.0)
    if pulse.envelope == "rectangular":
        return _rectangular_integrals(pulse, t)
    b, c, d = _cascade(pulse, t)[:, -1]
    return FieldIntegrals(b=float(b), c=float(c), d=float(d))


def _cascade(pulse, t_end, t_eval=None):
    """(b, c, d) rows from one DOP853 solve of the cascade over [0, t_end]."""
    from scipy.integrate import solve_ivp

    def rhs(s, y):
        e = field_value(pulse, s)
        return [e, y[0], 0.5 * y[0] ** 2]

    sol = solve_ivp(
        rhs, (0.0, t_end), [0.0, 0.0, 0.0], method="DOP853", t_eval=t_eval,
        rtol=1e-12, atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"field integral integration failed: {sol.message}")
    return sol.y


def _field_integral_table(pulse, times):
    """field_integrals at each time >= 0, in the given order.

    Rectangular envelopes evaluate the closed form per time; other
    envelopes take all times from one cascade solve (t_eval at the
    distinct times, read off its dense output).
    """
    times = np.asarray(times, dtype=float)
    if pulse.envelope == "rectangular":
        return [field_integrals(pulse, s) for s in times.tolist()]
    if np.any(times < 0):
        raise ValueError("field integrals are defined for t >= 0")
    distinct, where = np.unique(times, return_inverse=True)
    rows = _cascade(pulse, distinct[-1], t_eval=distinct).T[where]
    return [FieldIntegrals(b=b, c=c, d=d) for b, c, d in rows.tolist()]


def gauge_residual(h0, pulse, t):
    """Residuals of the two gauge intertwining identities at time t.

    With b = b(t) and c = c(t) from field_integrals, the operators
    exp(i b x) and exp(-i c p) translate momentum and position:

        h0 * exp(i b x)  = exp(i b x)  * h0(x, p + b),
        h0 * exp(-i c p) = exp(-i c p) * h0(x + c, p),

    which carry the length-frame Hamiltonian into the velocity and
    Kramers-Henneberger frames.  Each side is an independent Moyal
    product (polynomial times exponential against exponential times
    polynomial), so the returned ExpPolySymbol differences vanish only
    if the translations have the right sign and size.
    """
    ints = field_integrals(pulse, t)
    velocity_gauge = ExpPolySymbol.exp(WeylSymbol.monomial(1, 0, 1j * ints.b))
    kramers_gauge = ExpPolySymbol.exp(WeylSymbol.monomial(0, 1, -1j * ints.c))
    res_velocity = star(h0, velocity_gauge) - star(velocity_gauge, h0.shift_p(ints.b))
    res_kramers = star(h0, kramers_gauge) - star(kramers_gauge, h0.shift_x(ints.c))
    return res_velocity, res_kramers


def _phase_integral_flat(mu, tc):
    """int_0^tc exp(i mu s) ds for scalar or array mu, continuous through mu = 0."""
    half = 0.5 * np.asarray(mu, dtype=float) * tc
    return tc * np.exp(1j * half) * np.sinc(half / math.pi)


def _rectangular_field_integral(E0, omega, phase_kind, delta, tc):
    """int_0^tc exp(i delta s) E0 trig(omega s) ds; omega may be an array."""
    plus = _phase_integral_flat(delta + omega, tc)
    minus = _phase_integral_flat(delta - omega, tc)
    if phase_kind == "sine":
        return E0 / 2j * (plus - minus)
    return 0.5 * E0 * (plus + minus)


def _oscillatory_field_integral(pulse, delta, t):
    """int_0^min(t,tau) exp(i delta s) E(s) ds."""
    tc = min(t, pulse.tau)
    if tc <= 0:
        return 0j
    if pulse.envelope == "rectangular":
        return _rectangular_field_integral(pulse.E0, pulse.omega, pulse.phase_kind, delta, tc)
    from scipy.integrate import quad

    re = quad(lambda s: field_value(pulse, s) * math.cos(delta * s), 0.0, tc, limit=400)[0]
    im = quad(lambda s: field_value(pulse, s) * math.sin(delta * s), 0.0, tc, limit=400)[0]
    return complex(re, im)


def _first_order_probability(diagonal, element, integral):
    """|delta_nm - i <n|X|m> int exp(i delta s) E(s) ds|^2, broadcasting."""
    return np.abs((1.0 if diagonal else 0.0) - 1j * element * integral) ** 2


def first_order_transition(model, n, m, pulse, t, coupling="canonical_X"):
    """First-order probability of the m -> n transition at time t.

    coupling "canonical_X" uses the dressed position element (equal to
    the bare one between dressed states), "raw_x_via_eta" the metric
    conjugated raw-x element of the model variant.
    """
    if coupling == "canonical_X":
        element = spiked_matrix_element(model, "position", n, m)
    elif coupling == "raw_x_via_eta":
        element = spiked_matrix_element(model, "mapped_position", n, m)
    else:
        raise ValueError(f"unknown coupling {coupling!r}")
    delta = spiked_energy(model, n) - spiked_energy(model, m)
    integral = _oscillatory_field_integral(pulse, delta, t)
    return float(_first_order_probability(n == m, element, integral))


@dataclass(frozen=True)
class TransitionCurve:
    omega: np.ndarray
    probability: np.ndarray
    n: int
    m: int
    xi: float
    E0: float
    tau: float
    lam: float
    alpha: float


def transition_sweep(model, n, m, E0, omega_lo, omega_hi, steps, tau, xi_list):
    """Frequency sweep of the raw-x first-order probability per xi.

    A rectangular sine pulse of amplitude E0 and duration tau is swept
    over steps ascending frequencies in [omega_lo, omega_hi].  The
    xi-independent position and momentum elements are computed once (so
    alpha > -1/2, see spiked_matrix_element), the closed-form field
    integral once over the frequency grid, and P(omega, xi) for all
    curves as one numpy broadcast over (len(xi_list), steps) through the
    p_squared dressing x + 2 i xi p.  The sweep runs in the calling
    thread and is deterministic.  Output order follows xi_list.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not omega_lo < omega_hi or not math.isfinite(omega_hi):
        raise ValueError("need omega_lo < omega_hi, both finite")
    Pulse(E0=E0, omega=omega_lo, tau=tau)  # E0 >= 0, tau > 0, omega_lo > 0, all finite
    xis = np.asarray(xi_list, dtype=float)
    if not np.all(np.isfinite(xis)):
        raise ValueError("xi values must be finite")
    omegas = np.linspace(omega_lo, omega_hi, steps)
    delta = spiked_energy(model, n) - spiked_energy(model, m)
    position = spiked_matrix_element(model, "position", n, m)
    momentum = spiked_matrix_element(model, "momentum", n, m)
    integral = _rectangular_field_integral(E0, omegas, "sine", delta, tau)
    element = position + 2j * xis[:, None] * momentum
    probs = _first_order_probability(n == m, element, integral)
    return [
        TransitionCurve(
            omega=omegas.copy(),
            probability=row,
            n=n,
            m=m,
            xi=float(xi),
            E0=E0,
            tau=tau,
            lam=model.lam,
            alpha=model.alpha,
        )
        for xi, row in zip(xis, probs)
    ]


# -- grid propagators ------------------------------------------------------


def crank_nicolson_propagate(h0_spec, pulse, grid, psi0, dt, T, t0=0.0):
    """Implicit-midpoint evolution of h0 + x E(t) on the Dirichlet grid.

    T is divided into round(T/dt) uniform steps with the field sampled
    at midpoints (one field_value call for all of them).  t0 offsets the
    pulse clock, so a long run can be split into segments.  Returns
    psi(t0 + T); the grid norm is conserved.

    Each step solves (1 + i dt/2 H) psi' = (1 - i dt/2 H) psi with LAPACK
    directly: gtsv for a tridiagonal band, gbsv for a pentadiagonal one
    (p^4 term).  The constant off-diagonals are built once; the diagonal
    and the right-hand side are written in place into two state buffers
    that swap roles each step, so the loop allocates nothing per step.
    """
    from scipy.linalg import LinAlgError, get_lapack_funcs

    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != (grid.points,):
        raise ValueError(f"psi0 must have shape ({grid.points},)")
    if T == 0:
        return psi
    if T < 0 or dt <= 0:
        raise ValueError("need T > 0 and dt > 0")
    coords = grid.coordinates()
    band = banded_hamiltonian(h0_spec, grid)
    u = band.shape[0] - 1
    n_steps = max(1, round(T / dt))
    step = T / n_steps
    half = 0.5j * step
    fields = field_value(pulse, t0 + (np.arange(n_steps) + 0.5) * step)

    n = grid.points
    # i dt/2 times the r-th off-diagonal, shared by both sides of the step
    offs = [half * band[u - r, r:] for r in range(1, u + 1)]
    lhs_diag = np.empty(n, dtype=complex)
    if u == 1:
        gtsv, = get_lapack_funcs(("gtsv",), (psi,))

        def solve(rhs):
            # overwrites lhs_diag (rewritten every step) and solves in place
            return gtsv(offs[0], lhs_diag, offs[0], rhs, overwrite_d=1, overwrite_b=1)[3:]
    else:
        gbsv, = get_lapack_funcs(("gbsv",), (psi,))
        # gbsv layout: u rows of LU fill-in above the band, diagonal in row 2u
        lhs_template = np.zeros((3 * u + 1, n), dtype=complex)
        for r, off in enumerate(offs, start=1):
            lhs_template[2 * u - r, r:] = off
            lhs_template[2 * u + r, : n - r] = off
        lhs = np.empty_like(lhs_template)

        def solve(rhs):
            # the factorization overwrites lhs, so restore the band first
            np.copyto(lhs, lhs_template)
            lhs[2 * u] = lhs_diag
            return gbsv(u, u, lhs, rhs, overwrite_ab=1, overwrite_b=1)[2:]

    diag = np.empty(n)
    half_diag = np.empty(n, dtype=complex)
    coupled = np.empty(n, dtype=complex)
    rhs = np.empty(n, dtype=complex)
    for field in fields:
        np.multiply(coords, field, out=diag)
        np.add(band[u], diag, out=diag)
        np.multiply(half, diag, out=half_diag)
        np.add(1.0, half_diag, out=lhs_diag)
        np.subtract(1.0, half_diag, out=rhs)
        np.multiply(rhs, psi, out=rhs)
        for r, off in enumerate(offs, start=1):
            # the r-th off-diagonal is one constant, so psi_j couples to
            # both neighbours j -+ r through the same product
            np.multiply(off[0], psi, out=coupled)
            np.subtract(rhs[: n - r], coupled[r:], out=rhs[: n - r])
            np.subtract(rhs[r:], coupled[: n - r], out=rhs[r:])
        solved, info = solve(rhs)
        if info != 0:
            raise LinAlgError(f"Crank-Nicolson step: LAPACK info={info}")
        psi, rhs = solved, psi
    return psi


def _fourier_modes(grid):
    from scipy import fft as sfft

    return 2.0 * math.pi * sfft.fftfreq(grid.points, d=grid.step)


def _periodic_shift(values, amount, k):
    from scipy import fft as sfft

    if amount == 0.0:
        return values
    return sfft.ifft(sfft.fft(values) * np.exp(1j * k * amount))


def _halfline_shift(values, amount, grid):
    # displacement in the odd periodic extension; accurate while the
    # wavepacket stays away from both ends
    from scipy import fft as sfft

    if amount == 0.0:
        return values
    n = grid.points
    ext = np.zeros(2 * (n + 1), dtype=complex)
    ext[1 : n + 1] = values
    ext[n + 2 :] = -values[::-1]
    k = 2.0 * math.pi * sfft.fftfreq(ext.size, d=grid.step)
    ext = sfft.ifft(sfft.fft(ext) * np.exp(1j * k * amount))
    return ext[1 : n + 1]


def gordon_volkov_propagate(psi, pulse, grid, t, t_prime):
    """Exact laser-only propagator from t_prime to t in the length frame.

    Enter the velocity frame with exp(i b(t') x); there the Hamiltonian
    is (p - b(s))^2 / 2, diagonal in momentum, giving free evolution
    exp(-i p^2 (t - t_prime)/2) followed by the displacement by
    -(c(t) - c(t')) and the accumulated phase -(d(t) - d(t')); exit with
    exp(-i b(t) x).  Full-line grids (x_min < 0) use the periodic
    Fourier basis; half-line grids use Dirichlet sine modes with
    displacements in the odd periodic extension.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (grid.points,):
        raise ValueError(f"psi must have shape ({grid.points},)")
    at_start = field_integrals(pulse, t_prime)
    at_end = field_integrals(pulse, t)
    return _gordon_volkov(psi, grid, t - t_prime, at_start, at_end)


def _gordon_volkov(psi, grid, elapsed, at_start, at_end):
    """Gordon-Volkov step over elapsed time between two tabulated
    FieldIntegrals; see gordon_volkov_propagate."""
    from scipy import fft as sfft

    coords = grid.coordinates()
    halfline = grid.x_min >= 0

    out = psi * np.exp(1j * at_start.b * coords)

    if halfline:
        modes = math.pi * np.arange(1, grid.points + 1) / (grid.step * (grid.points + 1))
        coeffs = sfft.dst(out, type=1)
        coeffs = coeffs * np.exp(-0.5j * modes ** 2 * elapsed)
        out = sfft.idst(coeffs, type=1)
    else:
        k = _fourier_modes(grid)
        out = sfft.ifft(sfft.fft(out) * np.exp(-0.5j * k ** 2 * elapsed))

    shift = at_end.c - at_start.c
    if halfline:
        out = _halfline_shift(out, shift, grid)
    else:
        out = _periodic_shift(out, shift, k)
    phase = at_end.d - at_start.d
    return out * np.exp(-1j * (phase + at_end.b * coords))


def first_order_strong_field(psi0, potential_on_grid, pulse, grid, t, n_quad=128):
    """Laser-exact, potential-first-order propagation to time t.

    psi(t) = U_GV(t,0) psi0 - i int_0^t U_GV(t,s) V U_GV(s,0) psi0 ds
    with the time integral by composite Simpson on n_quad intervals
    (rounded up to even).  The field integrals (b, c, d) are tabulated
    once at the n_quad + 1 nodes and at t: closed forms for a
    rectangular envelope, one DOP853 cascade solve with t_eval at the
    nodes otherwise, so a gaussian pulse costs one solve_ivp per call
    instead of one per propagator.  Every U_GV is one Gordon-Volkov step
    between two table entries, 2 (n_quad + 1) + 1 in all.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    potential = np.asarray(potential_on_grid, dtype=float)
    if potential.shape != (grid.points,):
        raise ValueError(f"potential must have shape ({grid.points},)")
    if psi0.shape != (grid.points,):
        raise ValueError(f"psi0 must have shape ({grid.points},)")
    if t == 0:
        return psi0.copy()
    if n_quad % 2:
        n_quad += 1
    ds = t / n_quad
    nodes = [j * ds for j in range(n_quad + 1)]
    *at_nodes, at_t = _field_integral_table(pulse, nodes + [t])
    start = at_nodes[0]
    base = _gordon_volkov(psi0, grid, t, start, at_t)
    acc = np.zeros_like(psi0)
    for j, (s, at_s) in enumerate(zip(nodes, at_nodes)):
        weight = 1.0 if j in (0, n_quad) else (4.0 if j % 2 else 2.0)
        inner = _gordon_volkov(psi0, grid, s, start, at_s)
        acc = acc + weight * _gordon_volkov(potential * inner, grid, t - s, at_s, at_t)
    return base - 1j * (ds / 3.0) * acc
