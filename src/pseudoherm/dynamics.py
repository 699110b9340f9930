"""Laser-driven dynamics: pulses, gauge bookkeeping and propagators.

A pulse is a carrier (sine or cosine) under a rectangular or gaussian
envelope, switched on over [0, tau].  The running field integrals

    b(t) = int E,   c(t) = int b,   d(t) = (1/2) int b^2

connect the length, velocity and Kramers-Henneberger frames; the same
factors assemble the Gordon-Volkov propagator used by the strong-field
first-order step.  Transition probabilities for the spiked oscillator
come from the first-order amplitude with either the canonical dressed
position coupling or the raw-x coupling mediated by the metric; a
frequency sweep returns them as one (xi, omega) array.  Driven
propagation runs Strang steps with exact level phases on plain arrays:
eigenbasis_propagate takes the K level energies and the K x K real
symmetric coupling between the levels, in any basis, and reads no grid;
propagate_level forms both from the grid Hamiltonian's lowest levels and
grows K.  The steps of each segment of the run are multiplied into one
operator by a pairwise tree, whole field periods are jumped by powers of
the period's operator (Floquet), taken on its orthonormalized
eigenvectors, and after the pulse the levels only turn by their phases.
No command runs crank_nicolson_propagate: it is the tests' independent
second method, and it stays public because the benchmark tracer counts
its steps.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .models import (
    MAX_POINTS,
    _dressed_position,
    banded_hamiltonian,
    hermitian_spectrum,
    spiked_energy,
    spiked_matrix_element,
)
from .weyl import WeylSymbol, intertwining_residual


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


def _rectangular_integrals(pulse, times):
    """(b, c, d) rows of the rectangular pulse at the times, in float64: an overflow is inf."""
    E0, w = np.float64(pulse.E0), np.float64(pulse.omega)
    tc = np.minimum(times, pulse.tau)
    if pulse.phase_kind == "sine":
        b = E0 * (1.0 - np.cos(w * tc)) / w
        c = E0 * (tc - np.sin(w * tc) / w) / w
        d = 0.5 * (E0 / w) ** 2 * (
            1.5 * tc - 2.0 * np.sin(w * tc) / w + np.sin(2.0 * w * tc) / (4.0 * w)
        )
    else:
        b = E0 * np.sin(w * tc) / w
        c = E0 * (1.0 - np.cos(w * tc)) / w ** 2
        d = 0.5 * (E0 / w) ** 2 * (0.5 * tc - np.sin(2.0 * w * tc) / (4.0 * w))
    rest = np.maximum(times - pulse.tau, 0.0)
    return np.array([b, c + b * rest, d + 0.5 * b * b * rest])


def field_integrals(pulse, t):
    """Running integrals (b, c, d) of the field up to time t >= 0."""
    return FieldIntegrals(*_field_integral_table(pulse, [t])[:, 0].tolist())


_MAX_PANELS, _PANEL_BLOCK = 2**16, 2**12  # gaussian c, d panels: refused above, run per block


@functools.cache
def _gauss_panel():
    """16-node Gauss-Legendre rule; on a panel of width h exact for exp(i k s) while k h <= 12."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(16)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf and NaN are refused below
def _field_integral_table(pulse, times):
    """(b, c, d) rows at each of the finite times >= 0, in the given order.

    Closed forms, but a gaussian envelope's c and d take _gauss_panel on b, b^2
    over the window of [0, tau] within 8.5 widths of the center (env > eps; b
    is constant outside it), (omega/6 + 1/width) panels per unit time."""
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0) & (times < math.inf)):
        raise ValueError("field integrals are defined for finite t >= 0")
    if pulse.envelope == "rectangular":
        table = _rectangular_integrals(pulse, times)
    else:
        def b_at(s):  # env is real, so the wavenumbers +-omega give conjugate integrals
            area = pulse.E0 * _gaussian_phase_integral(pulse, pulse.omega, s)
            return area.imag if pulse.phase_kind == "sine" else area.real
        b = b_at(np.minimum(times, pulse.tau))
        lo, hi = np.clip(pulse.center + 8.5 * pulse.width * np.array([-1.0, 1.0]), 0.0, pulse.tau)
        panels = (hi - lo) * (pulse.omega / 6.0 + 1.0 / pulse.width)
        if not panels <= _MAX_PANELS:
            raise ValueError(f"the gaussian pulse needs more than {_MAX_PANELS} quadrature panels")
        inside = np.clip(times, lo, hi)
        edges = np.sort(np.concatenate([np.linspace(lo, hi, math.ceil(panels) + 1), inside]))
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        nodes, weights = _gauss_panel()
        sums = np.zeros((2, edges.size))
        for i in range(0, mid.size, _PANEL_BLOCK):
            part = slice(i, i + _PANEL_BLOCK)
            at = b_at(mid[part, None] + half[part, None] * nodes)
            sums[:, 1:][:, part] = half[part] * (np.stack([at, at * at]) @ weights)
        c, twice_d = np.cumsum(sums, axis=1)[:, np.searchsorted(edges, inside)]
        after = np.maximum(times - hi, 0.0)
        table = np.array([b, c + b * after, 0.5 * (twice_d + b * b * after)])
    return _check_finite("field integrals", table)


def gauge_residual(h0, pulse, t):
    """Residuals of the two gauge intertwining identities at time t.

    With b = b(t) and c = c(t) from field_integrals, the operators
    exp(i b x) and exp(-i c p) translate momentum and position:

        h0 * exp(i b x)  = exp(i b x)  * h0(x, p + b),
        h0 * exp(-i c p) = exp(-i c p) * h0(x + c, p),

    which carry the length-frame Hamiltonian into the velocity and
    Kramers-Henneberger frames.  Each side is an independent Moyal
    product (polynomial times exponential against exponential times
    polynomial).  The residuals are the two polynomials R with
    h0 * e^E - e^E * h0' = R e^E (weyl.intertwining_residual), h0' the
    translated h0; they vanish only if the translations have the right
    sign and size.
    """
    ints = field_integrals(pulse, t)
    velocity_exponent = WeylSymbol.monomial(1, 0, 1j * ints.b)
    kramers_exponent = WeylSymbol.monomial(0, 1, -1j * ints.c)
    res_velocity = intertwining_residual(h0, velocity_exponent, h0.shift_p(ints.b))
    res_kramers = intertwining_residual(h0, kramers_exponent, h0.shift_x(ints.c))
    return res_velocity, res_kramers


def _phase_integral_flat(mu, tc):
    """int_0^tc exp(i mu s) ds for scalar or array mu, continuous through mu = 0."""
    half = 0.5 * np.asarray(mu, dtype=float) * tc
    return tc * np.exp(1j * half) * np.sinc(half / math.pi)


def _carrier_field_integral(E0, omega, phase_kind, delta, tc, envelope=_phase_integral_flat):
    """int_0^tc exp(i delta s) E(s) ds from envelope(mu, tc) = int_0^tc exp(i mu s) env(s) ds."""
    plus = envelope(delta + omega, tc)
    minus = envelope(delta - omega, tc)
    if phase_kind == "sine":
        return E0 / 2j * (plus - minus)
    return 0.5 * E0 * (plus + minus)


def _gaussian_phase_integral(pulse, kappa, s):
    """int_0^s exp(i kappa u) env(u) du under the gaussian envelope, s in [0, tau].

    -sqrt(pi/2) width exp(i kappa u) env(u) w(y + i x) is an antiderivative
    (x = (u - center)/(sqrt2 width), y = kappa width/sqrt2, w the Faddeeva
    function); w(z) = 2 exp(-z^2) - w(-z) keeps every term bounded for x < 0
    (Poppe and Wijers, ACM TOMS 16 (1990) 38).  env(u) is 0 where |x| >= 40."""
    from scipy.special import wofz
    y, u = kappa * pulse.width / math.sqrt(2.0), np.append(0.0, s)
    x = np.clip((u - pulse.center) / (math.sqrt(2.0) * pulse.width), -40.0, 40.0)
    sign = np.where(x < 0.0, -1.0, 1.0)
    edge = np.exp(1j * kappa * u - x * x) * wofz(sign * (y + 1j * x))
    T = (1.0 - sign) * np.exp(1j * kappa * pulse.center - y * y) + sign * edge
    return (math.sqrt(0.5 * math.pi) * pulse.width * (T[0] - T[1:])).reshape(np.shape(s))


def _oscillatory_field_integral(pulse, delta, t):
    """int_0^min(t,tau) exp(i delta s) E(s) ds."""
    tc = min(t, pulse.tau)
    if tc <= 0:
        return 0j
    gaussian = functools.partial(_gaussian_phase_integral, pulse)
    envelope = gaussian if pulse.envelope == "gaussian" else _phase_integral_flat
    return _carrier_field_integral(pulse.E0, pulse.omega, pulse.phase_kind, delta, tc, envelope)


def _first_order_probability(diagonal, element, integral):
    """|delta_nm - i <n|X|m> int exp(i delta s) E(s) ds|^2, broadcasting."""
    return np.abs((1.0 if diagonal else 0.0) - 1j * element * integral) ** 2


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
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
    probability = float(_first_order_probability(n == m, element, integral))
    return _check_finite("the first-order probability", probability)


def transition_sweep(model, n, m, E0, omega_lo, omega_hi, steps, tau, xi_list):
    """Frequency sweep of the raw-x first-order probability per xi.

    A rectangular sine pulse of amplitude E0 and duration tau is swept
    over steps ascending frequencies in [omega_lo, omega_hi].  There is
    one integral, <n|x|m> (see spiked_matrix_element); the commutator
    [H, x] = -2ip gives <n|p|m> = 2i lam (n - m) <n|x|m>, so every curve's
    p_squared dressed element <n|x + 2i xi p|m> = (1 - 4 lam (n - m) xi)
    <n|x|m> follows from it, for alpha > -1/2 only.  The closed-form field
    integral is taken once over the frequency grid, and P(omega, xi) for
    all curves as one numpy broadcast.  Returns (omegas, probabilities):
    the frequencies, and the probabilities shaped (len(xi_list), steps),
    one row per xi in xi_list order.  A probability
    |<n|X|m> int exp(i delta s) E(s) ds|^2 above 1 anywhere (or not finite)
    is outside perturbation theory and raises ValueError, as do n == m
    (on the diagonal first order gives a survival probability, which can
    exceed 1; first_order_transition returns it), a dressed element that
    leaves double precision, a carrier phase (omega_hi + |E_n - E_m|) tau
    that does, and more than MAX_POINTS (omega, xi) points.
    """
    if n == m:
        raise ValueError(f"the sweep needs two distinct levels, got n = m = {n}")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not omega_lo < omega_hi or not math.isfinite(omega_hi):
        raise ValueError("need omega_lo < omega_hi, both finite")
    Pulse(E0=E0, omega=omega_lo, tau=tau)  # E0 >= 0, tau > 0, omega_lo > 0, all finite
    xis = np.asarray(xi_list, dtype=float)
    if not np.all(np.isfinite(xis)):
        raise ValueError("xi values must be finite")
    if steps * xis.size > MAX_POINTS:
        raise ValueError(f"the sweep holds more than {MAX_POINTS} (omega, xi) points")
    omegas = np.linspace(omega_lo, omega_hi, steps)
    delta = spiked_energy(model, n) - spiked_energy(model, m)
    position = spiked_matrix_element(model, "position", n, m).real
    element = _dressed_position(model, n, m, position, xis[:, None])
    if not math.isfinite((omega_hi + abs(delta)) * tau):
        raise ValueError(
            f"the carrier phase (omega + |E_n - E_m|) tau overflows at omega_hi = "
            f"{omega_hi:.6g}, tau = {tau:.6g}; lower omega_hi or tau"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        integral = _carrier_field_integral(E0, omegas, "sine", delta, tau)
        probs = _first_order_probability(False, element, integral)
        worst = float(np.max(probs))
    if not worst <= 1.0:
        raise ValueError(
            f"first-order probability {worst:.6g} breaks the perturbative bound P <= 1; "
            "lower E0 or tau"
        )
    return omegas, probs


# -- grid propagators ------------------------------------------------------


# Truncation rule of propagate_level: the basis holds levels 0..max(n, m)
# plus a margin of 4, 8, 16, ... levels (capped at the grid size) until the
# top kept level's population stays at or below this at every snapshot.
TRUNCATION_POPULATION = 1e-10
# Step matrices are multiplied in blocks of at most this many entries (1 MiB).
_TREE_ENTRIES = 2**16
# A period's segment matrices are held for its powers up to this many entries.
_HELD_ENTRIES = 2**20
# Runs of more steps (or snapshots) than this are rejected up front.
MAX_STEPS = 10**8


def crank_nicolson_propagate(h0_spec, pulse, grid, psi0, dt, T):
    """Implicit-midpoint evolution of h0 + x E(t) on the Dirichlet grid.

    T is divided into round(T/dt) uniform steps with the field sampled
    at the step midpoints; returns psi(T).  Each step solves the
    tridiagonal (1 + i s/2 H) psi' = (1 - i s/2 H) psi with LAPACK gtsv,
    so the grid norm is conserved.  ValueError for a non-finite psi0, T
    or dt, for T < 0 or dt <= 0, and for more than MAX_STEPS steps.
    """
    from scipy.linalg import LinAlgError, get_lapack_funcs

    psi = np.array(psi0, dtype=complex)
    if psi.shape != (grid.points,):
        raise ValueError(f"psi0 must have shape ({grid.points},)")
    _check_finite("psi0", psi)
    if not (math.isfinite(T) and T >= 0 and math.isfinite(dt) and dt > 0):
        raise ValueError("need a finite T >= 0 and a finite dt > 0")
    if T / dt > MAX_STEPS:
        raise ValueError(f"more than {MAX_STEPS} steps; raise dt or shorten the run")
    if T == 0:
        return psi
    coords = grid.coordinates()
    band = banded_hamiltonian(h0_spec, grid)
    n_steps = max(1, round(T / dt))
    step = T / n_steps
    half = 0.5j * step
    off = half * band[0, 1:]
    gtsv, = get_lapack_funcs(("gtsv",), (psi,))
    for field in field_value(pulse, (np.arange(n_steps) + 0.5) * step):
        diag = half * (band[1] + coords * field)
        rhs = (1.0 - diag) * psi
        rhs[:-1] -= off * psi[1:]
        rhs[1:] -= off * psi[:-1]
        psi, info = gtsv(off, 1.0 + diag, off, rhs)[3:]
        if info != 0:
            raise LinAlgError(f"Crank-Nicolson step: LAPACK info={info}")
    return psi


def _tree_product(mats, spare):
    """mats[..., -1, :, :] @ ... @ mats[..., 0, :, :] as a pairwise tree, one
    batched product per level; the levels overwrite mats and spare (of the same shape)."""
    size, source, target = mats.shape[-3], mats, spare
    while size > 1:
        pairs = size // 2
        np.matmul(source[..., 1 : 2 * pairs : 2, :, :], source[..., 0 : 2 * pairs : 2, :, :],
                  out=target[..., :pairs, :, :])
        if size % 2:
            target[..., pairs, :, :] = source[..., size - 1, :, :]
        size, source, target = pairs + size % 2, target, source
    return source[..., 0, :, :]


def _segment_operators(energies, Q, xi, pulse, starts, lengths, counts):
    """Each segment's Strang steps as one matrix on the level coefficients, shape (segments, K, K).

    Segment i takes n = counts[i] steps of size s = lengths[i]/n from
    starts[i], with the field phases D_j = diag(exp(-i s E(t_j) xi)) at the
    step midpoints t_j.  With G = Q^T diag(exp(-i E s)) Q and h =
    diag(exp(-i E s/2)) the n steps are h Q B Q^T h = h Q (B G) Q^T h*, where

        B G = D_(n-1) G ... D_1 G D_0 G = (D_(n-1) G) W_(k-1) ... W_0

    (the first factor only for odd n) and W_i = (D_(2i+1) G D_(2i)) G: the W
    of a chunk of steps are one product of their stacked left factors with
    G, and _tree_product multiplies them.  A segment's steps are cut into
    chunks of at most _TREE_ENTRIES matrix entries, counted from its own
    start, and the chunks are packed in order into blocks of at most that
    size; the chunks of one size in a block are multiplied as one batch.  So
    a segment's matrix does not depend on the other segments.
    """
    K = energies.size
    steps = lengths / counts
    half = np.exp(-0.5j * np.multiply.outer(steps, energies))
    G = (Q.T * (half * half)[:, None, :]) @ Q
    block = max(2, _TREE_ENTRIES // (K * K))
    packed, filled = [[]], 0
    for i, n in enumerate(counts.tolist()):
        for first in range(0, n, block):
            size = min(block, n - first)
            if filled + size > block:
                packed.append([])
                filled = 0
            packed[-1].append((i, first, size))
            filled += size
    work = np.empty((2, block // 2, K, K), dtype=complex)
    BG = np.empty_like(G)
    for chunks in packed:
        ids, firsts, sizes = np.array(chunks).T
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        segment = np.repeat(ids, sizes)
        local = np.arange(offsets[-1]) + np.repeat(firsts - offsets[:-1], sizes)
        midpoints = starts[segment] + (local + 0.5) * steps[segment]
        phases = _unit_phase(-steps[segment, None] * np.multiply.outer(field_value(pulse, midpoints), xi))
        groups = np.flatnonzero(np.concatenate(([True], sizes[1:] != sizes[:-1], [True])))
        for g0, g1 in zip(groups[:-1].tolist(), groups[1:].tolist()):
            size, count, run = int(sizes[g0]), g1 - g0, ids[g0:g1]
            p = phases[offsets[g0] : offsets[g1]].reshape(count, size, K)
            k = size // 2
            if k:
                left = work[0, : count * k].reshape(count, k, K, K)
                np.multiply(p[:, 1 : 2 * k : 2, :, None], G[run, None], out=left)
                left *= p[:, 0 : 2 * k : 2, None, :]
                W = work[1, : count * k].reshape(count, k, K, K)
                np.matmul(left.reshape(count, k * K, K), G[run], out=W.reshape(count, k * K, K))
                part = _tree_product(W, left)
            if size % 2:
                last = p[:, -1, :, None] * G[run]
                part = last @ part if k else last
            if g0 == 0 and firsts[0] > 0:  # only a block's first chunk can continue its segment
                part[0] = part[0] @ BG[run[0]]
            BG[run] = part
    S = (half[:, :, None] * Q) @ BG @ (Q.T * half.conj()[:, None, :])
    # one Newton-Schulz step to the nearest unitary: the rounding the tree
    # leaves, about n eps, would otherwise build up in the norm
    return S @ (1.5 * np.eye(K) - 0.5 * (S.conj().transpose(0, 2, 1) @ S))


def _period_cuts(ends, period):
    """Where a run over the ascending ends is cut when its field repeats with the period.

    Returns (whole, index, bounds): end k lies whole[k] periods and
    index[k] segments past ends[0], and bounds are the segments' ends in the
    first period: every end's phase (t - ends[0]) mod period, and the
    period's end once some end lies past it.  The ends of the first period
    are taken as they are; period = inf cuts at the ends alone.
    """
    start = ends[0]
    whole, phase = np.divmod(ends - start, period)
    cuts = np.where(whole > 0, start + phase, ends)
    wrap = cuts == start + period  # a phase that rounds up to the period starts the next one
    whole += wrap
    bounds = np.unique(np.append(cuts, start + period) if whole[-1] > 0 else cuts)
    return whole, np.where(wrap, 0, np.searchsorted(bounds, cuts)), bounds


def eigenbasis_propagate(energies, coupling, pulse, c0, dt, times):
    """Strang steps of diag(E) + X E(t) on the coefficients of K levels.

    energies are the K level energies E_k and coupling the K x K real
    symmetric matrix X of the field's operator between the levels, in
    whatever basis the caller holds (propagate_level forms it on a grid).
    The state is carried as its K level coefficients c, starting from c0
    at times[0] (which also offsets the pulse clock), and the coefficients
    are returned at every entry of the ascending times, one row each.

    X is diagonalized once, X = Q diag(xi) Q^T, and a step of size s is
    the Strang product

        exp(-i E s/2) Q exp(-i s E(t_mid) xi) Q^T exp(-i E s/2)

    with the field at the step midpoint: the level phases are exact, and
    the splitting error is O(s^2) and vanishes with the field (it comes
    from commutators of diag(E) with E(t) X).

    The steps are multiplied into step operators.  The field is off from
    tau on (from times[0] if E0 = 0), and there the state only turns by
    the exact level phases exp(-i E (t - tau)).  Up to tau the run is cut
    into segments, each of max(1, round(length/dt)) steps, whose products
    _segment_operators forms.  A rectangular pulse repeats with the period
    P = 2 pi / omega (Floquet; Shirley, Phys. Rev. 138 (1965) B979), so the
    cuts lie in its first period: at every time's phase (t - times[0]) mod
    P, at tau, and at P once the run is longer than that.  The segments of
    that period serve every period, and whole periods are jumped with the
    power U_P^q of their product.  At the first jump the eigenvectors of U_P
    (np.linalg.eig) are made orthonormal by a QR factorization, Z; U_P is
    unitary, so Z^H U_P Z is diagonal to rounding, and U_P^q = Z diag(exp(i
    q theta_k)) Z^H with theta_k = arg (Z^H U_P Z)_kk, in which the phase
    of each column of Z cancels.  That pays while the period holds at least
    two steps per segment and its segment matrices fit in _HELD_ENTRIES;
    otherwise, and for a gaussian envelope, P = inf: the cuts are the times
    and tau, and each segment is used once.  The segments are formed a
    batch at a time, in order; a periodic run holds them and cycles through
    them.  The state is advanced segment by segment, so a run within its
    first period takes the steps of one span per pair of times and differs
    from stepping them one by one only by rounding.  The norm |c| is
    conserved to rounding (each segment is put back on the unitary group).

    ValueError for energies that are not 1-D, a coupling that is not K x K,
    not finite or not symmetric (to 1e-12 of its largest entry), a c0 of
    the wrong shape or not finite, times that are empty, not finite,
    negative or descending, dt <= 0, more than MAX_STEPS steps, phases
    that overflow, and, with E0 > 0, omega dt >= pi (fewer than two steps
    per field period), in that order.
    """
    energies = np.asarray(energies, dtype=float)
    coupling = np.asarray(coupling, dtype=float)
    K = energies.size
    if energies.ndim != 1 or coupling.shape != (K, K):
        raise ValueError(f"need 1-D energies and a ({K}, {K}) coupling")
    _check_finite("coupling", coupling)
    # h V^T diag(x) V is symmetric only to a few ulps
    if np.any(np.abs(coupling - coupling.T) > 1e-12 * np.max(np.abs(coupling))):
        raise ValueError("coupling must be symmetric")
    c = np.array(c0, dtype=complex)
    if c.shape != (K,):
        raise ValueError(f"c0 must have shape ({K},)")
    _check_finite("c0", c)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if not np.all(np.isfinite(times)) or times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be finite, non-negative and ascending")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("need dt > 0")
    spans = np.diff(times)
    if float(spans.sum()) / dt + spans.size > MAX_STEPS:
        raise ValueError(f"more than {MAX_STEPS} steps; raise dt or shorten the run")
    xi, Q = np.linalg.eigh(coupling)

    start = times[0]
    stop = min(max(pulse.tau if pulse.E0 > 0 else 0.0, start), times[-1])
    driven = times[times <= stop]
    ends = driven if driven[-1] == stop else np.append(driven, stop)
    period = 2.0 * math.pi / pulse.omega if pulse.envelope == "rectangular" else math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # too many periods or an overflow are refused below
        whole, index, bounds = _period_cuts(ends, period)
        counts = np.maximum(1.0, np.round(np.diff(bounds) / dt))
        # jumping whole periods pays while the period holds at least two steps
        # per segment (past that, walking its segments costs more than
        # stepping) and its segment matrices fit in _HELD_ENTRIES
        n_segments = bounds.size - 1
        if whole[-1] > 0 and (2 * n_segments > counts.sum() or n_segments * K * K > _HELD_ENTRIES):
            whole, index, bounds = _period_cuts(ends, math.inf)
            counts = np.maximum(1.0, np.round(np.diff(bounds) / dt))
        lengths = np.diff(bounds)
        # the segments' steps and the free tail are the phases formed; the
        # steps of one span per pair of times keep the refusals of that rule
        spans = spans[spans > 0]
        sizes = np.concatenate([spans / np.maximum(1.0, np.round(spans / dt)), lengths / counts])
        # |E_k| + |E(t) xi_k| stays below this, since |E(t)| <= E0
        rate = float(np.max(np.abs(energies))) + float(np.max(np.abs(xi))) * pulse.E0
        tail = (times[-1] - stop) * float(np.max(np.abs(energies)))
        if not (math.isfinite(tail) and np.all(np.isfinite(sizes * rate))):
            raise ValueError("the step phases dt (E_k + E(t) xi_k) overflow double precision")
    if pulse.E0 > 0 and not pulse.omega * dt < math.pi:
        raise ValueError(
            f"omega dt = {pulse.omega * dt:.6g} >= pi: fewer than two steps per field period; lower dt"
        )

    build = functools.partial(_segment_operators, energies, Q, xi, pulse)
    batch = max(1, _TREE_ENTRIES // (K * K))
    stream = itertools.chain.from_iterable(
        build(bounds[i : i + batch], lengths[i : i + batch], counts[i : i + batch].astype(int))
        for i in range(0, lengths.size, batch)
    )
    if whole[-1] > 0:  # every period reuses the segments: hold them all
        segments = list(stream)
        stream = itertools.cycle(segments)

    out = np.empty((times.size, K), dtype=complex)
    at_period, at_cut = 0, 0  # c is the state after at_period periods and at_cut segments
    Z = None
    for row, (q, j) in enumerate(zip(whole.astype(int).tolist(), index.tolist())):
        if q > at_period and at_cut > 0:
            for S in itertools.islice(stream, lengths.size - at_cut):
                c = S @ c
            at_period, at_cut = at_period + 1, 0
        if q > at_period:
            if Z is None:  # the first jump: the period's product on orthonormal eigenvectors
                period_product = functools.reduce(lambda acc, S: S @ acc, segments)
                Z = np.linalg.qr(np.linalg.eig(period_product)[1])[0]
                angles = np.angle(np.diag(Z.conj().T @ period_product @ Z))
            c = Z @ (np.exp(1j * (q - at_period) * angles) * (Z.conj().T @ c))
            at_period = q
        for S in itertools.islice(stream, j - at_cut):
            c = S @ c
        at_cut = j
        if row < driven.size:
            out[row] = c
    out[driven.size :] = np.exp(-1j * np.multiply.outer(times[driven.size :] - stop, energies)) * c
    return out


def propagate_level(h0_spec, pulse, grid, m, n, dt, T, snapshots=1):
    """Drive level m of the grid Hamiltonian over [0, T], watching level n.

    Returns (times, coefficients): the snapshots + 1 uniform times in
    [0, T] and the level coefficients there from eigenbasis_propagate,
    whose dt is the Strang step; it multiplies the steps of one field
    period into step operators, takes powers of the period's product and
    turns the state by the exact level phases once the pulse is over.  The
    basis size K follows one rule:
    K = max(n, m) + 1 + margin with margin = 4, 8, 16, ... (capped at
    the grid size), grown until the top kept level's population
    |c_(K-1)|^2 is at most TRUNCATION_POPULATION at every snapshot.  At
    the grid size the basis is the whole grid and the run is accepted.
    A larger basis keeps the levels already solved and adds the new ones.
    The levels' energies and grid vectors V come from hermitian_spectrum,
    and their coupling is X = h V^T diag(x) V.

    The rule bounds the top level, not the watched one: on resonance the
    population of level n holds only to about 1e-7 relative (1.5e-7 seen
    at omega = 2 on 400 points over T = 5, against a Crank-Nicolson
    Richardson limit).

    Before K grows, ValueError when the coupling phase of one step,
    dt E0 max|xi_k|, is at least pi: such steps cannot resolve the
    coupling, and a larger K would only fill with noise.
    """
    if not (math.isfinite(T) and T >= 0):
        raise ValueError("need a finite T >= 0")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("need dt > 0")
    if snapshots < 0 or m < 0 or n < 0:
        raise ValueError("snapshots and levels must be non-negative")
    if max(m, n) >= grid.points:
        raise ValueError(f"levels {m} and {n} must lie below the grid size {grid.points}")
    if snapshots + T / dt > MAX_STEPS:
        raise ValueError(f"more than {MAX_STEPS} steps; raise dt or shorten the run")
    times = np.linspace(0.0, T, snapshots + 1)
    need = max(m, n) + 1
    margin = 4
    K = min(need + margin, grid.points)
    energies, vectors = hermitian_spectrum(h0_spec, grid, K)
    while True:
        coupling = grid.step * (vectors.T * grid.coordinates()) @ vectors
        c0 = np.zeros(K, dtype=complex)
        c0[m] = 1.0
        coefficients = eigenbasis_propagate(energies, coupling, pulse, c0, dt, times)
        top = float(np.max(np.abs(coefficients[:, -1]) ** 2))
        if top <= TRUNCATION_POPULATION or K == grid.points:
            return times, coefficients
        phase = dt * pulse.E0 * float(np.max(np.abs(np.linalg.eigvalsh(coupling))))
        if not phase < math.pi:
            raise ValueError(
                f"the coupling phase dt E0 max|xi| = {phase:.6g} of one step is >= pi: "
                "the steps cannot resolve the field's coupling; lower dt or E0"
            )
        margin *= 2
        kept, K = K, min(need + margin, grid.points)
        more_energies, more_vectors = hermitian_spectrum(h0_spec, grid, K, first=kept)
        # each solve is orthonormal within itself (its Rayleigh-Ritz step),
        # but the new vectors are orthogonal to the kept ones only to the
        # residual over the gap, about eps |H| / gap (1e-13 at 1400 points
        # and 6e-11 at 4000 on [0, 14]), far inside the truncation error
        energies = np.concatenate([energies, more_energies])
        vectors = np.hstack([vectors, more_vectors])


def _to_k(values, grid):
    """FFT on the last axis: of the values on a full-line grid (x_min < 0),
    of their odd extension of size 2 (n + 1), i.e. DST-I, on the half line."""
    if grid.x_min >= 0:
        zero = np.zeros(values.shape[:-1] + (1,))
        values = np.concatenate([zero, values, zero, -values[..., ::-1]], axis=-1)
    return np.fft.fft(values, axis=-1)


def _from_k(coeffs, grid):
    start = int(grid.x_min >= 0)
    return np.fft.ifft(coeffs, axis=-1)[..., start : start + grid.points]


def _unit_phase(angle):
    # exp(i angle) as cos and sin in place: cheaper than a complex exp
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _volkov_phase(grid, elapsed, shift, scalar=0.0):
    """exp(-i k^2 elapsed/2 + i k shift - i scalar) on the wavenumbers of
    _to_k: free evolution, displacement by -shift and a scalar phase."""
    size = grid.points if grid.x_min < 0 else 2 * (grid.points + 1)
    k = 2.0 * math.pi * np.fft.fftfreq(size, d=grid.step)
    return _unit_phase(k * (shift - 0.5 * elapsed * k) - scalar)


def _check_finite(name, values):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


# The strong-field node table is formed in blocks of at most this many
# entries (16 MiB of phases), which bounds its memory on large grids.
_NODE_BLOCK_ENTRIES = 2**20


def gordon_volkov_propagate(psi, pulse, grid, t, t_prime):
    """Exact laser-only propagator from t_prime to t in the length frame.

    Enter the velocity frame with exp(i b(t') x); there the Hamiltonian
    is (p - b(s))^2 / 2, so the free evolution exp(-i p^2 (t - t')/2),
    the displacement by -(c(t) - c(t')) and the phase -(d(t) - d(t'))
    are one multiplier in k space; exit with exp(-i b(t) x).  The k
    representation is the FFT on a full-line grid (x_min < 0) and the FFT
    of the odd extension on a half-line grid (Dirichlet sine modes), where
    the displacement holds while the packet stays away from both ends.
    ValueError for non-finite t, t_prime or psi, and for t or t' below 0.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (grid.points,):
        raise ValueError(f"psi must have shape ({grid.points},)")
    if not (math.isfinite(t) and math.isfinite(t_prime)):
        raise ValueError("t and t_prime must be finite")
    _check_finite("psi", psi)
    at_start = field_integrals(pulse, t_prime)
    at_end = field_integrals(pulse, t)
    coords = grid.coordinates()
    coeffs = _to_k(psi * _unit_phase(at_start.b * coords), grid)
    coeffs *= _volkov_phase(grid, t - t_prime, at_end.c - at_start.c, at_end.d - at_start.d)
    return _from_k(coeffs, grid) * _unit_phase(-at_end.b * coords)


def first_order_strong_field(psi0, potential_on_grid, pulse, grid, t, n_quad=128):
    """Laser-exact, potential-first-order propagation to time t.

    psi(t) = U_GV(t,0) psi0 - i int_0^t U_GV(t,s) V U_GV(s,0) psi0 ds
    with the time integral by composite Simpson on n_quad intervals
    (rounded up to even), weights w_j.  The field integrals are tabulated
    once, at the nodes and t, by _field_integral_table.
    In the k representation of gordon_volkov_propagate, b, c and d vanish
    at 0, so U_GV(s_j,0) is exp(-i b_j x - i d_j) F^-1 Q_j F with
    Q_j = exp(-i k^2 s_j/2 + i k c_j), and U_GV(t,s_j) is
    exp(-i b_t x) F^-1 P_t conj(Q_j) F exp(i b_j x + i d_j) with
    P_t = exp(-i k^2 t/2 + i k c_t - i d_t).  The b_j phases cancel around
    V and the d_j cancel too, so one table Q serves both steps:

        psi(t) = e^{-i b_t x} F^-1 P_t (F psi0 - i (ds/3) sum_j w_j conj(Q_j) F V F^-1 Q_j F psi0)

    One forward transform, one batched inverse and one batched forward
    transform over the nodes, taken in blocks of at most
    _NODE_BLOCK_ENTRIES table entries, and one inverse transform.
    ValueError for non-finite t, psi0 or potential, t < 0 and n_quad < 1.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    potential = np.asarray(potential_on_grid, dtype=float)
    if potential.shape != (grid.points,):
        raise ValueError(f"potential must have shape ({grid.points},)")
    if psi0.shape != (grid.points,):
        raise ValueError(f"psi0 must have shape ({grid.points},)")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if n_quad < 1:
        raise ValueError("n_quad must be at least 1")
    _check_finite("psi0", psi0)
    _check_finite("potential", potential)
    if t == 0:
        return psi0.copy()
    n_quad += n_quad % 2
    ds = t / n_quad
    nodes = ds * np.arange(n_quad + 1)
    b, c, d = _field_integral_table(pulse, np.append(nodes, t))
    shifts = c[:-1]
    weights = np.where(np.arange(n_quad + 1) % 2, 4.0, 2.0)
    weights[[0, -1]] = 1.0
    initial = _to_k(psi0, grid)
    acc = np.zeros_like(initial)
    block = max(1, _NODE_BLOCK_ENTRIES // initial.size)
    for j in range(0, n_quad + 1, block):
        table = _volkov_phase(grid, nodes[j : j + block, None], shifts[j : j + block, None])
        scattered = _to_k(potential * _from_k(table * initial, grid), grid)
        acc += weights[j : j + block] @ (scattered * np.conj(table, out=table))
    coeffs = (initial - 1j * (ds / 3.0) * acc) * _volkov_phase(grid, t, c[-1], d[-1])
    return _from_k(coeffs, grid) * _unit_phase(-b[-1] * grid.coordinates())
