"""Driven dynamics: field bookkeeping, perturbative amplitudes, propagators.

Oracles: scipy.quad cascades for the running field integrals, mpmath.quad
at 30 digits for the gaussian ones (and the pulse-area limit of a narrow
pulse), an independently assembled dense free propagator with Gauss-Legendre time
quadrature for the first Born term, closed-form Gaussian spreading, and
Ehrenfest relations for the laser-only propagator.  The implicit
midpoint grid propagator is played against the spectral laser propagator,
which pins the dynamical phase, and against a Strang split-step
propagator in a driven harmonic well.  The eigenbasis propagator is
checked against the Crank-Nicolson Richardson limit, the first-order
amplitude on the grid's own levels, exact zero-field level phases, and
its own Strang steps taken one at a time (direct_loop): on the old step
grid within a period and over many periods, and on the cuts it documents
(cut_times) for drawn pulses, snapshots and switch-off times, on grid
levels and on seeded random energies and couplings that no grid gave; its
whole-period jumps against explicit products of the period operator,
also where two quasi-energies nearly coincide.
"""
import bisect
import functools
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad, solve_ivp

from pseudoherm import dynamics, models
from pseudoherm.dynamics import (
    TRUNCATION_POPULATION,
    Pulse,
    crank_nicolson_propagate,
    eigenbasis_propagate,
    field_integrals,
    field_value,
    first_order_strong_field,
    first_order_transition,
    gauge_residual,
    gordon_volkov_propagate,
    propagate_level,
    transition_sweep,
)
from pseudoherm.models import GridSpec, SpikedHOModel
from pseudoherm.weyl import WeylSymbol, intertwining_residual


def quad_cascade(pulse, t):
    """Field integral cascade by adaptive quadrature, split at tau."""
    pieces = [s for s in (pulse.tau,) if 0.0 < s < t]
    points = [0.0] + pieces + [t]

    def integrate(f):
        total = 0.0
        for lo, hi in zip(points[:-1], points[1:]):
            total += quad(f, lo, hi, limit=400)[0]
        return total

    b = integrate(lambda s: field_value(pulse, s))

    def b_of(s):
        segs = [u for u in (pulse.tau,) if 0.0 < u < s]
        eff = [0.0] + segs + [s]
        return sum(
            quad(lambda u: field_value(pulse, u), lo, hi, limit=400)[0]
            for lo, hi in zip(eff[:-1], eff[1:])
        )

    c = integrate(b_of)
    d = integrate(lambda s: 0.5 * b_of(s) ** 2)
    return b, c, d


def gaussian_packet(xs, sigma, x0, p0):
    out = (2.0 * math.pi * sigma**2) ** (-0.25) * np.exp(
        -((xs - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * xs
    )
    return out.astype(complex)


def grid_norm(psi, grid):
    return float(np.sum(np.abs(psi) ** 2) * grid.step)


# -- pulses and field integrals -------------------------------------------


def test_pulse_validation():
    with pytest.raises(ValueError):
        Pulse(E0=-0.1, omega=1.0, tau=1.0)
    with pytest.raises(ValueError):
        Pulse(E0=0.1, omega=0.0, tau=1.0)
    with pytest.raises(ValueError):
        Pulse(E0=0.1, omega=1.0, tau=-2.0)
    with pytest.raises(ValueError):
        Pulse(E0=0.1, omega=1.0, tau=1.0, phase_kind="square")
    with pytest.raises(ValueError):
        Pulse(E0=0.1, omega=1.0, tau=1.0, envelope="gaussian")
    with pytest.raises(ValueError):
        Pulse(E0=0.1, omega=1.0, tau=1.0, envelope="gaussian", center=0.5, width=0.0)
    with pytest.raises(ValueError):
        Pulse(E0=0.1, omega=1.0, tau=1.0, envelope="sech")
    for bad in (
        {"E0": math.nan},
        {"omega": math.inf},
        {"tau": math.inf},
        {"envelope": "gaussian", "center": math.nan, "width": 1.0},
        {"envelope": "gaussian", "center": 0.5, "width": math.inf},
    ):
        with pytest.raises(ValueError, match="finite"):
            Pulse(**{"E0": 0.1, "omega": 1.0, "tau": 1.0, **bad})


def test_field_value_windowing():
    pulse = Pulse(E0=0.5, omega=2.0, tau=3.0)
    assert field_value(pulse, -0.1) == 0.0
    assert field_value(pulse, 3.1) == 0.0
    assert field_value(pulse, 0.0) == 0.0
    assert field_value(pulse, 1.1) == pytest.approx(0.5 * math.sin(2.2), abs=1e-15)
    cosine = Pulse(E0=0.5, omega=2.0, tau=3.0, phase_kind="cosine")
    assert field_value(cosine, 0.0) == pytest.approx(0.5)
    arr = field_value(pulse, np.array([-1.0, 1.0, 4.0]))
    assert arr.shape == (3,)
    assert arr[0] == 0.0 and arr[2] == 0.0
    gauss = Pulse(
        E0=0.5, omega=2.0, tau=6.0, phase_kind="cosine",
        envelope="gaussian", center=3.0, width=1.0,
    )
    assert field_value(gauss, 3.0) == pytest.approx(0.5 * math.cos(6.0), abs=1e-15)


def test_field_integrals_match_quadrature():
    cases = [
        (Pulse(E0=0.7, omega=1.3, tau=8.0), 3.7),
        (Pulse(E0=0.7, omega=1.3, tau=8.0, phase_kind="cosine"), 3.7),
        (Pulse(E0=0.4, omega=2.1, tau=5.0), 9.0),
        (Pulse(E0=0.4, omega=2.1, tau=5.0, phase_kind="cosine"), 12.0),
    ]
    for pulse, t in cases:
        assert np.max(np.abs(field_integrals(pulse, t) - quad_cascade(pulse, t))) <= 1e-9


def test_field_integrals_gaussian_envelope():
    pulse = Pulse(
        E0=0.5, omega=2.0, tau=10.0, envelope="gaussian", center=5.0, width=1.5
    )
    got = field_integrals(pulse, 7.0)
    assert got.shape == (3,)

    def rhs(s, y):
        e = field_value(pulse, s)
        return [e, y[0], 0.5 * y[0] ** 2]

    sol = solve_ivp(rhs, (0.0, 7.0), [0.0, 0.0, 0.0], method="Radau",
                    rtol=1e-11, atol=1e-13)
    assert np.max(np.abs(got - sol.y[:, -1])) <= 1e-8


def test_field_integrals_edge_cases():
    pulse = Pulse(E0=0.5, omega=2.0, tau=3.0)
    assert field_integrals(pulse, 0.0).tolist() == [0.0, 0.0, 0.0]
    for t in (-0.5, [1.0, -0.5]):
        with pytest.raises(ValueError):
            field_integrals(pulse, t)
    # after the pulse b freezes while c and d keep growing linearly
    (b, b_later), (c, c_later), (d, d_later) = field_integrals(pulse, [3.0, 5.0])
    assert b_later == pytest.approx(b, abs=1e-14)
    assert c_later == pytest.approx(c + 2.0 * b, abs=1e-12)
    assert d_later == pytest.approx(d + 0.5 * b**2 * 2.0, abs=1e-12)


def _mp_field_integrals(pulse, times, delta):
    """(b, c, d) at each time and int_0^min(t,tau) exp(i delta s) E ds, by
    Gauss-Legendre mpmath.quad at 30 digits, cut at center +- k widths and
    at each min(t, tau); each quad must report an error below 1e-25.

    b, c and the phase integral integrate the field itself.  d integrates
    the square of b in erf form at complex argument, checked against b."""
    with mpmath.workdps(30):
        E0, omega, tau, center, width = (
            mpmath.mpf(v) for v in (pulse.E0, pulse.omega, pulse.tau, pulse.center, pulse.width)
        )
        trig = mpmath.sin if pulse.phase_kind == "sine" else mpmath.cos

        def field(s):
            return E0 * trig(omega * s) * mpmath.exp(-((s - center) / width) ** 2 / 2)

        # int_0^s exp(i omega u) env(u) du = weight (erf(s/scale - z) - erf(-z)); the
        # carrier takes its imaginary (sine) or real (cosine) part
        scale = mpmath.sqrt(2) * width
        z = (center + 1j * omega * width**2) / scale
        weight = scale * mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(1j * omega * center - (omega * width) ** 2 / 2)
        at_zero = mpmath.erf(-z)

        def b_erf(s):
            value = E0 * weight * (mpmath.erf(s / scale - z) - at_zero)
            return value.imag if pulse.phase_kind == "sine" else value.real

        def integral(f, lo, hi):
            inner = {center + k * width for k in (-12, -6, -3, 0, 3, 6, 12)}
            cuts = sorted({lo, hi} | {v for v in inner if lo < v < hi})
            value, error = mpmath.quad(f, cuts, method="gauss-legendre", error=True)
            assert error < 1e-25
            return value

        ends = sorted({min(mpmath.mpf(t), tau) for t in times})
        totals = [mpmath.mpf(0)] * 3 + [mpmath.mpc(0)]
        at_end = {mpmath.mpf(0): list(totals)}
        for lo, hi in zip([mpmath.mpf(0)] + ends, ends):
            pieces = (field, lambda s: s * field(s), lambda s: b_erf(s) ** 2,
                      lambda s: mpmath.exp(1j * delta * s) * field(s))
            totals = [total + integral(f, lo, hi) for total, f in zip(totals, pieces)]
            at_end[hi] = list(totals)
        rows = []
        for t in times:
            t = mpmath.mpf(t)
            tc = min(t, tau)
            b, moment, b_squared, phase = at_end[tc]
            assert abs(b - b_erf(tc)) <= 1e-25 * (abs(b) + E0 * width)
            d = b_squared / 2 + b**2 * (t - tc) / 2
            rows.append((float(b), float(t * b - moment), float(d), complex(phase)))
        return rows


def _oracle_bound(pulse):
    return 1e-14 * pulse.E0 * max(pulse.width, 1.0 / pulse.omega)


GAUSSIAN_MODEL = SpikedHOModel(lam=0.5, alpha=0.2)
GAUSSIAN_GRID = GridSpec(-20.0, 20.0, 64)


def _check_first_order_3_2(pulse, t, phase, bound):
    """P(2 -> 3) = |<3|X|2> I|^2 against the oracle I = phase: an error of at
    most bound in I moves P by at most 2 |<3|X|2>|^2 |I| bound + (|<3|X|2>| bound)^2."""
    element = models.spiked_matrix_element(GAUSSIAN_MODEL, "position", 3, 2)
    allowed = 2.0 * abs(element) ** 2 * abs(phase) * bound + (abs(element) * bound) ** 2
    probability = first_order_transition(GAUSSIAN_MODEL, 3, 2, pulse, t)
    assert abs(probability - abs(element * phase) ** 2) <= allowed
    return probability


def _delta_3_2():
    return models.spiked_energy(GAUSSIAN_MODEL, 3) - models.spiked_energy(GAUSSIAN_MODEL, 2)


@pytest.mark.parametrize(
    "phase_kind, center, width",
    [
        ("sine", 1.5, 3e-6),        # narrow, centre inside [0, tau]
        ("cosine", 1.5, 0.9),
        ("sine", -0.9, 0.9),        # centre before the switch-on
        ("cosine", 3.6, 0.9),       # centre after the switch-off
        ("sine", 3.6, 30.0),        # ten times wider than the window
        ("cosine", -0.9, 30.0),
        ("sine", 1.5, 0.15),
        ("cosine", -0.9, 3e-6),     # entirely outside: every integral is 0
    ],
)
def test_gaussian_field_integrals_match_mpmath(phase_kind, center, width):
    pulse = Pulse(E0=0.3, omega=1.2, tau=3.0, phase_kind=phase_kind,
                  envelope="gaussian", center=center, width=width)
    bound = _oracle_bound(pulse)
    times = (2.1, 4.8)  # below and above tau
    for t, (b, c, d, phase) in zip(times, _mp_field_integrals(pulse, times, _delta_3_2())):
        assert np.max(np.abs(field_integrals(pulse, t) - [b, c, d])) <= bound
        _check_first_order_3_2(pulse, t, phase, bound)


@pytest.mark.parametrize("envelope", ["rectangular", "gaussian"])
def test_field_integrals_over_an_array_match_each_time(envelope):
    # one call over many times gives each time's values: the rectangular
    # closed forms bit for bit, the gaussian panels (cut at every time) to rounding
    shape = {"envelope": "gaussian", "center": 2.0, "width": 0.7} if envelope == "gaussian" else {}
    pulse = Pulse(E0=0.4, omega=1.3, tau=4.0, phase_kind="cosine", **shape)
    times = np.array([[0.0, 0.3, 1.9], [2.0, 4.0, 6.5]])
    table = field_integrals(pulse, times)
    assert table.shape == (3, 2, 3)
    each = np.stack([field_integrals(pulse, t) for t in times.ravel()], axis=1).reshape(table.shape)
    if envelope == "rectangular":
        assert np.array_equal(table, each)
    else:
        assert np.max(np.abs(table - each)) <= 1e-15 * np.max(np.abs(table))


@pytest.mark.parametrize("width", [0.05, 0.005, 1e-4, 1e-6])
def test_narrow_gaussian_pulse_keeps_its_area(width):
    # a pulse much narrower than its distance from 0 and tau transfers its
    # full-line area E0 sin(omega center) width sqrt(2 pi) exp(-(omega width)^2/2);
    # an adaptive step can stride over it and return b = 0
    pulse = Pulse(E0=0.3, omega=1.2, tau=3.0, envelope="gaussian", center=1.5, width=width)
    area = 0.3 * math.sin(1.2 * 1.5) * width * math.sqrt(2.0 * math.pi) * math.exp(-((1.2 * width) ** 2) / 2)
    bound = _oracle_bound(pulse)
    times = (2.0, 4.0)
    for t, (b, c, d, phase) in zip(times, _mp_field_integrals(pulse, times, _delta_3_2())):
        assert np.max(np.abs(field_integrals(pulse, t) - [area, c, d])) <= bound
        assert _check_first_order_3_2(pulse, t, phase, bound) > 0.0


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    envelope=st.sampled_from(("rectangular", "gaussian")),
    phase_kind=st.sampled_from(("sine", "cosine")),
    E0=st.sampled_from((0.3, 0.0, 1e-300, 1e300)),
    omega=st.sampled_from((1.2, 1e-300, 1e300, 1e6 / 3.0)),
    tau=st.sampled_from((3.0, 1e-300, 1e300)),
    center=st.sampled_from((1.5, 0.0, -2.0, -1e300, 1e300)),
    width=st.sampled_from((0.5, 1e-6, 30.0, 1e-300, 1e300)),
    t=st.sampled_from((2.0, 0.0, 4.0, 1e6, 1e300)),
)
@example(envelope="gaussian", phase_kind="sine", E0=0.3, omega=1.2, tau=3.0, center=1.5, width=1e-300, t=2.0)
@example(envelope="gaussian", phase_kind="cosine", E0=0.3, omega=1.2, tau=3.0, center=1e300, width=0.5, t=2.0)
@example(envelope="gaussian", phase_kind="sine", E0=0.3, omega=1.2, tau=3.0, center=-1e300, width=0.5, t=4.0)
@example(envelope="gaussian", phase_kind="sine", E0=0.3, omega=1e6 / 3.0, tau=3.0, center=1.5, width=0.5, t=2.0)
@example(envelope="gaussian", phase_kind="cosine", E0=0.3, omega=100.0, tau=1e4, center=5e3, width=0.5, t=6e3)
@example(envelope="gaussian", phase_kind="sine", E0=0.3, omega=1.2, tau=3.0, center=1.5, width=0.5, t=1e300)
# (E0 / omega)^2 overflows, or omega^2 underflows to 0: refused, never OverflowError or ZeroDivisionError
@example(envelope="rectangular", phase_kind="sine", E0=1e300, omega=1.2, tau=3.0, center=1.5, width=0.5, t=2.0)
@example(envelope="rectangular", phase_kind="cosine", E0=1e200, omega=1e-10, tau=1.0, center=1.5, width=0.5, t=0.5)
@example(envelope="rectangular", phase_kind="cosine", E0=1e300, omega=1e-300, tau=3.0, center=1.5, width=0.5, t=2.0)
def test_pulse_results_are_finite_or_refused(envelope, phase_kind, E0, omega, tau, center, width, t):
    # whatever the pulse, each entry point returns finite numbers or raises
    # ValueError: never NaN, an OverflowError, a MemoryError or a numpy warning
    shape = {"envelope": "gaussian", "center": center, "width": width} if envelope == "gaussian" else {}
    pulse = Pulse(E0=E0, omega=omega, tau=tau, phase_kind=phase_kind, **shape)
    xs = GAUSSIAN_GRID.coordinates()
    psi = gaussian_packet(xs, 1.5, 0.0, 0.3)
    calls = (
        lambda: field_integrals(pulse, t),
        lambda: first_order_transition(GAUSSIAN_MODEL, 3, 2, pulse, t),
        lambda: gordon_volkov_propagate(psi, pulse, GAUSSIAN_GRID, t, 0.5 * t),
        lambda: first_order_strong_field(psi, 0.1 * xs**2, pulse, GAUSSIAN_GRID, t, n_quad=4),
    )
    for call in calls:
        try:
            result = call()
        except ValueError:
            continue
        assert np.all(np.isfinite(result))


def _gauge_scale(h0, pulse, t):
    # the translated symbols carry coefficients up to c(t)^deg
    return max(1.0, h0.shift_x(float(field_integrals(pulse, t)[1])).max_abs())


def test_gauge_residuals_vanish():
    rng = np.random.default_rng(7)
    pulses = (
        Pulse(E0=0.6, omega=1.7, tau=12.0),
        Pulse(E0=0.6, omega=1.7, tau=12.0, phase_kind="cosine",
              envelope="gaussian", center=5.0, width=2.0),
    )
    harmonic = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.8
    quartic = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(4) * 0.3 + WeylSymbol.x(1) * 0.1
    for pulse, t, h0 in itertools.product(pulses, rng.uniform(0.0, 15.0, 10), (harmonic, quartic)):
        scale = _gauge_scale(h0, pulse, float(t))
        res_v, res_k = gauge_residual(h0, pulse, float(t))
        assert res_v.max_abs() < 1e-12 * scale
        assert res_k.max_abs() < 1e-12 * scale


def test_gauge_identity_fails_with_flipped_translation():
    # the same two Moyal products with the translation sign flipped must
    # leave a residual of the size of the translation, so the check can fail
    pulse = Pulse(E0=0.6, omega=1.7, tau=12.0)
    t = 9.0
    b, c, _ = field_integrals(pulse, t).tolist()
    assert abs(b) > 0.1 and abs(c) > 1.0
    quartic = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(4) * 0.3 + WeylSymbol.x(1) * 0.1
    velocity = WeylSymbol.monomial(1, 0, 1j * b)
    kramers = WeylSymbol.monomial(0, 1, -1j * c)
    flipped_v = intertwining_residual(quartic, velocity, quartic.shift_p(-b))
    flipped_k = intertwining_residual(quartic, kramers, quartic.shift_x(-c))
    scale = _gauge_scale(quartic, pulse, t)
    assert flipped_v.max_abs() > 1e-3 * scale
    assert flipped_k.max_abs() > 1e-3 * scale
    # h0(x, p + b) - h0(x, p - b) = 2 b p, so the flipped velocity residual
    # is exp(i b x) * 2 b p = exp(i b x) (2 b p + O(b^2)): largest coefficient 2|b|
    assert flipped_v.max_abs() == pytest.approx(2.0 * abs(b), rel=1e-12)
    res_v, res_k = gauge_residual(quartic, pulse, t)
    assert res_v.max_abs() < 1e-12 * scale
    assert res_k.max_abs() < 1e-12 * scale


# -- first-order amplitudes -----------------------------------------------


def test_first_order_matches_quadrature():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    pulse = Pulse(E0=0.02, omega=1.9, tau=40.0)
    element = models.spiked_matrix_element(model, "position", 3, 2)
    delta = models.spiked_energy(model, 3) - models.spiked_energy(model, 2)
    re = quad(lambda s: field_value(pulse, s) * math.cos(delta * s), 0, 40.0, limit=400)[0]
    im = quad(lambda s: field_value(pulse, s) * math.sin(delta * s), 0, 40.0, limit=400)[0]
    expected = abs(-1j * element * complex(re, im)) ** 2
    got = first_order_transition(model, 3, 2, pulse, 40.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.036343040115615455, rel=1e-9)


def test_first_order_zero_field():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    off = Pulse(E0=0.0, omega=1.5, tau=10.0)
    assert first_order_transition(model, 2, 2, off, 5.0) == 1.0
    assert first_order_transition(model, 3, 2, off, 5.0) == 0.0


@pytest.mark.parametrize("t", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("n", [2, 3])
def test_first_order_refuses_a_time_that_is_not_finite_and_non_negative(n, t):
    # min(nan, tau) is nan and a negative t skips the integral: both used to
    # return the zero-field probability, 1 on the diagonal and 0 off it
    pulse = Pulse(E0=0.01, omega=2.0, tau=10.0)
    with pytest.raises(ValueError, match="finite t >= 0"):
        first_order_transition(SpikedHOModel(lam=0.5, alpha=0.2), n, 2, pulse, t)


def test_first_order_quadratic_field_scaling():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    weak = Pulse(E0=0.004, omega=1.9, tau=25.0)
    strong = Pulse(E0=0.008, omega=1.9, tau=25.0)
    p1 = first_order_transition(model, 3, 2, weak, 25.0)
    p2 = first_order_transition(model, 3, 2, strong, 25.0)
    assert p2 == pytest.approx(4.0 * p1, rel=1e-12)


def test_first_order_coupling_variants():
    pulse = Pulse(E0=0.01, omega=2.1, tau=20.0)
    base = SpikedHOModel(lam=0.5, alpha=0.2)
    dressed = SpikedHOModel(lam=0.5, alpha=0.2, xi=0.0)
    p_can = first_order_transition(base, 3, 2, pulse, 20.0)
    p_raw = first_order_transition(dressed, 3, 2, pulse, 20.0, coupling="raw_x_via_eta")
    assert p_raw == pytest.approx(p_can, rel=1e-13)
    # the momentum-shift dressing changes nothing off the diagonal
    shifted = SpikedHOModel(lam=0.5, alpha=0.2, xi=0.9, variant="p_shift")
    p_shift = first_order_transition(shifted, 3, 2, pulse, 20.0, coupling="raw_x_via_eta")
    assert p_shift == p_can
    with pytest.raises(ValueError):
        first_order_transition(base, 3, 2, pulse, 20.0, coupling="dipole")


def test_sweep_matches_pointwise_amplitudes():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    omegas, probabilities = transition_sweep(model, 3, 2, 0.01, 1.7, 2.3, 7, 30.0, [0.0, 0.7])
    assert probabilities.shape == (2, 7)
    assert np.all(np.diff(omegas) > 0)
    for xi, row in zip([0.0, 0.7], probabilities):
        pointwise_model = SpikedHOModel(lam=0.5, alpha=0.2, xi=xi)
        for w, prob in zip(omegas, row):
            pulse = Pulse(E0=0.01, omega=float(w), tau=30.0)
            ref = first_order_transition(
                pointwise_model, 3, 2, pulse, 30.0, coupling="raw_x_via_eta"
            )
            assert prob == pytest.approx(ref, rel=1e-12)


def test_sweep_output_order_and_metadata():
    # one row per xi, in xi_list order, over the ascending frequencies
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    omegas, probabilities = transition_sweep(model, 3, 2, 0.01, 1.7, 2.3, 5, 30.0, [0.7, 0.0])
    assert np.array_equal(omegas, np.linspace(1.7, 2.3, 5))
    _, reversed_rows = transition_sweep(model, 3, 2, 0.01, 1.7, 2.3, 5, 30.0, [0.0, 0.7])
    assert np.array_equal(probabilities, reversed_rows[::-1])
    assert not np.array_equal(probabilities[0], probabilities[1])


@pytest.mark.parametrize("n, m", [(3, 2), (2, 3)])
def test_sweep_resonant_point_matches_pointwise(n, m):
    # the grid holds omega = |E_n - E_m| = 2 exactly, where delta -+ omega = 0
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    omegas, probabilities = transition_sweep(model, n, m, 0.01, 1.0, 3.0, 5, 30.0, [0.0, 0.6])
    assert 2.0 in omegas
    for xi, row in zip([0.0, 0.6], probabilities):
        pointwise_model = SpikedHOModel(lam=0.5, alpha=0.2, xi=xi)
        for w, prob in zip(omegas, row):
            pulse = Pulse(E0=0.01, omega=float(w), tau=30.0)
            ref = first_order_transition(
                pointwise_model, n, m, pulse, 30.0, coupling="raw_x_via_eta"
            )
            assert prob == pytest.approx(ref, rel=1e-12)
    # on resonance int_0^tau exp(+-i w s) sin(w s) ds has the modulus of
    # ((exp(2 i w tau) - 1)/(2 i w) - tau)/(2 i)
    w, tau = 2.0, 30.0
    integral = 0.01 * ((np.exp(2j * w * tau) - 1.0) / (2j * w) - tau) / 2j
    x = models.spiked_matrix_element(model, "position", n, m)
    resonant = probabilities[0, list(omegas).index(2.0)]
    assert resonant == pytest.approx(abs(x * integral) ** 2, rel=1e-12)


def test_sweep_validation():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    with pytest.raises(ValueError):
        transition_sweep(model, 3, 2, 0.01, 1.7, 2.3, 1, 30.0, [0.0])
    with pytest.raises(ValueError):
        transition_sweep(model, 3, 2, 0.01, 2.3, 1.7, 5, 30.0, [0.0])
    # the pulse parameters are validated once for the whole sweep
    for E0, lo, hi, tau, match in (
        (-0.01, 1.7, 2.3, 30.0, "E0"),
        (math.nan, 1.7, 2.3, 30.0, "finite"),
        (0.01, 1.7, 2.3, math.inf, "finite"),
        (0.01, 1.7, 2.3, 0.0, "tau"),
        (0.01, 0.0, 2.3, 30.0, "omega"),
        (0.01, 1.7, math.inf, 30.0, "finite"),
    ):
        with pytest.raises(ValueError, match=match):
            transition_sweep(model, 3, 2, E0, lo, hi, 5, tau, [0.0])
    with pytest.raises(ValueError, match="finite"):
        transition_sweep(model, 3, 2, 0.01, 1.7, 2.3, 5, 30.0, [0.0, math.nan])
    for xi_list in ([], 0.5, [[0.0, 0.7]]):
        with pytest.raises(ValueError, match="xi_list must be a 1-D list of at least one xi"):
            transition_sweep(model, 3, 2, 0.01, 1.7, 2.3, 5, 30.0, xi_list)
    below_half = SpikedHOModel(lam=0.5, alpha=-0.7)
    with pytest.raises(ValueError, match="alpha > -1/2"):
        transition_sweep(below_half, 3, 2, 0.01, 1.7, 2.3, 5, 30.0, [0.0])
    # a dressed element x + 2i xi p that overflows is refused by its xi,
    # before any probability is formed (and warns of nothing)
    with pytest.raises(ValueError, match=r"x \+ 2i xi p .* xi=-1e\+308"):
        transition_sweep(model, 3, 2, 0.01, 1.7, 2.3, 5, 30.0, [-1e308, 0.0, 1e308])


def test_sweep_rejects_results_beyond_first_order():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    # on resonance the first-order "probability" reaches 27771 at E0 = 5
    for E0 in (5.0, 1e200):
        with pytest.raises(ValueError, match="P <= 1"):
            transition_sweep(model, 2, 3, E0, 1.9, 2.1, 3, 20.0 * math.pi, [0.0])
    # on the diagonal first order gives the survival probability
    # |1 - i term|^2, above 1 here: the sweep refuses the level pair, and
    # first_order_transition still returns it
    for E0 in (0.005, 5.0):
        with pytest.raises(ValueError, match="distinct levels"):
            transition_sweep(model, 2, 2, E0, 1.0, 1.5, 3, 30.0, [0.0])
    survival = first_order_transition(model, 2, 2, Pulse(E0=0.005, omega=1.0, tau=30.0), 30.0)
    assert survival > 1.0


# -- implicit midpoint grid propagation -----------------------------------


def test_crank_nicolson_stationary_phase():
    grid = GridSpec(-8.0, 8.0, 400)
    ho = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.5
    energies, vectors = models.hermitian_spectrum(ho, grid, 1)
    psi0 = vectors[:, 0].astype(complex)
    off = Pulse(E0=0.0, omega=1.0, tau=1.0)
    T = 2.0
    psi = crank_nicolson_propagate(ho, off, grid, psi0, 1e-3, T)
    expect = psi0 * np.exp(-1j * energies[0] * T)
    assert np.max(np.abs(psi - expect)) < 1e-6
    assert grid_norm(psi, grid) == pytest.approx(grid_norm(psi0, grid), abs=1e-12)


def test_crank_nicolson_second_order_in_dt():
    grid = GridSpec(-8.0, 8.0, 400)
    ho = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.5
    energies, vectors = models.hermitian_spectrum(ho, grid, 1)
    psi0 = vectors[:, 0].astype(complex)
    off = Pulse(E0=0.0, omega=1.0, tau=1.0)
    expect = psi0 * np.exp(-1j * energies[0] * 2.0)
    coarse = np.max(np.abs(crank_nicolson_propagate(ho, off, grid, psi0, 1e-3, 2.0) - expect))
    fine = np.max(np.abs(crank_nicolson_propagate(ho, off, grid, psi0, 5e-4, 2.0) - expect))
    assert 3.5 < coarse / fine < 4.5


def test_crank_nicolson_driven_norm_and_edges():
    grid = GridSpec(-10.0, 10.0, 300)
    ho = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.5
    xs = grid.coordinates()
    psi0 = gaussian_packet(xs, 1.0, 0.0, 0.0)
    psi0 /= math.sqrt(grid_norm(psi0, grid))
    pulse = Pulse(E0=0.2, omega=1.3, tau=5.0)
    psi = crank_nicolson_propagate(ho, pulse, grid, psi0, 1e-3, 3.0)
    assert grid_norm(psi, grid) == pytest.approx(1.0, abs=1e-12)
    frozen = crank_nicolson_propagate(ho, pulse, grid, psi0, 1e-3, 0.0)
    assert np.array_equal(frozen, psi0) and frozen is not psi0
    with pytest.raises(ValueError):
        crank_nicolson_propagate(ho, pulse, grid, psi0[:-1], 1e-3, 1.0)
    with pytest.raises(ValueError):
        crank_nicolson_propagate(ho, pulse, grid, psi0, -1e-3, 1.0)
    with pytest.raises(ValueError):
        crank_nicolson_propagate(ho, pulse, grid, psi0, 1e-3, -1.0)
    # non-finite input and more than MAX_STEPS steps are refused before
    # any step array is built
    for dt, T, match in ((1e-3, math.inf, "finite T"), (math.nan, 1.0, "finite dt"),
                         (1e-3, math.nan, "finite T"), (1e-300, 1.0, "steps")):
        with pytest.raises(ValueError, match=match):
            crank_nicolson_propagate(ho, pulse, grid, psi0, dt, T)
    with pytest.raises(ValueError, match="psi0 must be finite"):
        crank_nicolson_propagate(ho, pulse, grid, np.where(xs > 0, psi0, math.nan), 1e-3, 1.0)


def test_crank_nicolson_eigenvectors_pick_up_the_cayley_factor():
    # an eigenvector of the grid matrix picks up exactly the Cayley factor
    # ((1 - i E dt/2) / (1 + i E dt/2))^steps per level
    grid = GridSpec(-8.0, 8.0, 400)
    h0 = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.5
    energies, vectors = models.hermitian_spectrum(h0, grid, 2)
    off = Pulse(E0=0.0, omega=1.0, tau=1.0)
    dt, steps = 1e-3, 1500
    for level in range(2):
        psi0 = vectors[:, level].astype(complex)
        energy = energies[level]
        psi = crank_nicolson_propagate(h0, off, grid, psi0, dt, dt * steps)
        cayley = ((1.0 - 0.5j * energy * dt) / (1.0 + 0.5j * energy * dt)) ** steps
        assert np.max(np.abs(psi - cayley * psi0)) < 1e-10
        # the Cayley phase is within O(E^3 dt^2 T) of exp(-i E T)
        assert abs(cayley - np.exp(-1j * energy * dt * steps)) < 1e-5
    # the band is tridiagonal: a p^4 term is refused
    quartic = h0 + WeylSymbol.p(4) * 0.02
    with pytest.raises(ValueError, match="oscillator_levels"):
        crank_nicolson_propagate(quartic, off, grid, vectors[:, 0], dt, dt)


def strang_split_step(psi0, lam, pulse, grid, dt, T):
    """Strang splitting of p^2/2 + lam x^2 + x E(t) with the exact FFT kinetic step.

    The potential half steps use the field at each step midpoint, which
    keeps the splitting second order in dt.
    """
    xs = grid.coordinates()
    k = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.step)
    n_steps = max(1, round(T / dt))
    step = T / n_steps
    kinetic = np.exp(-0.5j * k * k * step)
    psi = np.array(psi0, dtype=complex)
    for j in range(n_steps):
        field = field_value(pulse, (j + 0.5) * step)
        half = np.exp(-0.5j * step * (lam * xs**2 + xs * field))
        psi = half * np.fft.ifft(kinetic * np.fft.fft(half * psi))
    return psi


def test_crank_nicolson_matches_strang_split_step():
    # the split step differs only by its spectral kinetic term, so the gap
    # is the O(h^2) finite-difference error: fourfold smaller per halving
    lam, T, dt = 0.2, 1.5, 1e-3
    h0 = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * lam
    pulse = Pulse(E0=0.3, omega=1.0, tau=10.0)
    diffs = []
    for points in (512, 1024):
        grid = GridSpec(-40.0, 40.0, points)
        psi0 = gaussian_packet(grid.coordinates(), 2.0, 0.5, 0.3)
        stepped = crank_nicolson_propagate(h0, pulse, grid, psi0, dt, T)
        split = strang_split_step(psi0, lam, pulse, grid, dt, T)
        diffs.append(math.sqrt(grid_norm(stepped - split, grid)))
    assert diffs[1] < 2e-3
    assert 3.8 < diffs[0] / diffs[1] < 4.2


# -- eigenbasis propagation ------------------------------------------------

SPIKED = SpikedHOModel(lam=0.5, alpha=0.2)
ORACLE_GRID = GridSpec(0.0, 14.0, 400)


@functools.lru_cache(maxsize=None)
def cn_richardson(E0, omega, T, m=2, n=3):
    """Crank-Nicolson population of level n after driving level m.

    Runs dt = 0.002, 0.001 and 0.0005 on ORACLE_GRID and returns the
    Richardson limit of the two finest with the ratio of successive
    differences (4 for a second-order method).
    """
    _, vectors = models.hermitian_spectrum(SPIKED, ORACLE_GRID, max(m, n) + 1)
    pulse = Pulse(E0=E0, omega=omega, tau=T)
    start = vectors[:, m].astype(complex)
    pops = []
    for dt in (0.002, 0.001, 0.0005):
        psi = crank_nicolson_propagate(SPIKED, pulse, ORACLE_GRID, start, dt, T)
        pops.append(abs(ORACLE_GRID.step * np.vdot(vectors[:, n], psi)) ** 2)
    ratio = (pops[0] - pops[1]) / (pops[1] - pops[2])
    return pops[2] + (pops[2] - pops[1]) / 3.0, ratio


@pytest.mark.parametrize("omega, bound", [(1.8, 1e-7), (2.0, 2e-7)])
def test_eigenbasis_matches_crank_nicolson_richardson_limit(omega, bound):
    # the propagate defaults' weak field, off resonance (omega = 1.8) and on
    # it.  Most of the gap is truncation: the rule's top level at <= 1e-10
    # leaves the monitored population about 1e-7 off (K = 12 here)
    limit, ratio = cn_richardson(0.005, omega, 5.0)
    assert abs(ratio - 4.0) < 0.01
    pulse = Pulse(E0=0.005, omega=omega, tau=5.0)
    _, c = propagate_level(SPIKED, pulse, ORACLE_GRID, 2, 3, 0.001, 5.0)
    assert abs(abs(c[-1, 3]) ** 2 - limit) <= bound * limit


def test_truncation_rule_grows_the_basis_under_a_strong_field():
    limit, ratio = cn_richardson(1.0, 1.8, 5.0)
    assert abs(ratio - 4.0) < 0.01
    pulse = Pulse(E0=1.0, omega=1.8, tau=5.0)
    _, c = propagate_level(SPIKED, pulse, ORACLE_GRID, 2, 3, 0.001, 5.0)
    assert c.shape[1] > 8
    assert np.max(np.abs(c[:, -1]) ** 2) <= TRUNCATION_POPULATION
    assert abs(abs(c[-1, 3]) ** 2 - limit) <= 1e-6 * limit
    # the rule's first try, a fixed max(n, m) + 5 levels, misses the same
    # bound, and its top level shows it
    fixed = eigenbasis_propagate(*grid_levels(SPIKED, ORACLE_GRID, 8), pulse, np.eye(8)[2], 0.001, [0.0, 5.0])
    assert np.max(np.abs(fixed[:, -1]) ** 2) > TRUNCATION_POPULATION
    assert abs(abs(fixed[-1, 3]) ** 2 - limit) > 1e-6 * limit


def test_eigenbasis_weak_field_matches_first_order_on_grid_levels():
    # c_n(T) = -i exp(-i E_n T) <n|x|m> int_0^T exp(i delta s) E(s) ds to
    # first order, with the grid's own levels and element; the remainder
    # is first order in E0 relative (the diagonal elements shift phases)
    E0, omega, T = 1e-5, 1.8, 5.0
    energies, vectors = models.hermitian_spectrum(SPIKED, ORACLE_GRID, 4)
    x = ORACLE_GRID.step * vectors[:, 3] @ (ORACLE_GRID.coordinates() * vectors[:, 2])
    delta = energies[3] - energies[2]
    plus = (np.exp(1j * (delta + omega) * T) - 1.0) / (1j * (delta + omega))
    minus = (np.exp(1j * (delta - omega) * T) - 1.0) / (1j * (delta - omega))
    expected = -1j * x * E0 * (plus - minus) / 2j
    _, c = propagate_level(SPIKED, Pulse(E0=E0, omega=omega, tau=T), ORACLE_GRID, 2, 3, 0.001, T)
    assert abs(c[-1, 3] * np.exp(1j * energies[3] * T) - expected) <= 1e-4 * abs(expected)
    assert abs(abs(c[-1, 3]) ** 2 - abs(expected) ** 2) <= 1e-6 * abs(expected) ** 2
    assert abs(c[-1, 2] * np.exp(1j * energies[2] * T) - 1.0) <= 1e-4


def test_eigenbasis_zero_field_keeps_exact_level_phases():
    energies, coupling = grid_levels(SPIKED, ORACLE_GRID, 6)
    off = Pulse(E0=0.0, omega=1.0, tau=1.0)
    c0 = (np.arange(6) + 1.0) * np.exp(0.3j * np.arange(6))
    c0 /= np.linalg.norm(c0)
    times = np.array([0.0, 0.7, 5.0])
    c = eigenbasis_propagate(energies, coupling, off, c0, 1e-3, times)
    expected = c0 * np.exp(-1j * np.outer(times, energies))
    assert np.max(np.abs(c - expected)) < 1e-12


def test_eigenbasis_split_clock_matches_one_run():
    # the pulse ends inside the run, and the second leg starts its clock
    # at times[0] = 1.2
    pulse = Pulse(E0=0.05, omega=1.9, tau=1.5)
    levels = grid_levels(SPIKED, ORACLE_GRID, 10)
    c0 = np.eye(10)[2]
    whole = eigenbasis_propagate(*levels, pulse, c0, 1e-3, [0.0, 2.0])
    first = eigenbasis_propagate(*levels, pulse, c0, 1e-3, [0.0, 1.2])
    second = eigenbasis_propagate(*levels, pulse, first[-1], 1e-3, [1.2, 2.0])
    snapshots = eigenbasis_propagate(*levels, pulse, c0, 1e-3, [0.0, 1.2, 2.0])
    assert np.array_equal(snapshots[1:], np.vstack([first[-1], second[-1]]))
    assert np.max(np.abs(whole[-1] - second[-1])) < 1e-12
    assert abs(whole[-1, 3]) > 1e-3


def test_eigenbasis_norm_drift_on_the_default_grid():
    grid = GridSpec(0.0, 14.0, 1400)
    pulse = Pulse(E0=0.005, omega=1.8, tau=20.0 * 2.0 * math.pi / 1.8)
    times, c = propagate_level(SPIKED, pulse, grid, 2, 3, 0.001, 20.0, 50)
    assert times[-1] == 20.0 and len(times) == 51
    assert c[0, 3] == 0.0 and np.linalg.norm(c[0]) == 1.0
    assert np.max(np.abs(np.linalg.norm(c, axis=1) - 1.0)) <= 1e-10


def test_floquet_power_keeps_the_norm_over_many_periods():
    # tau = T = 99000 at omega = 1.8 is about 2.8e4 field periods, jumped by
    # powers U_P^q of one period's product; on U_P's eigenvectors made
    # orthonormal by QR the norm stays within 1e-13 (3.6e-15 seen), where
    # binary powering (repeated squaring) drifts to 1.6e-12 and walking the
    # periods' segments to 8.4e-13
    grid = GridSpec(0.0, 14.0, 1400)
    pulse = Pulse(E0=0.005, omega=1.8, tau=99000.0)
    times, c = propagate_level(SPIKED, pulse, grid, 2, 3, 0.001, 99000.0, 3)
    assert times.tolist() == [0.0, 33000.0, 66000.0, 99000.0]
    assert np.max(np.abs(np.linalg.norm(c, axis=1) - 1.0)) <= 1e-13


def test_a_run_that_jumps_no_period_forms_no_schur_form(monkeypatch):
    # 20 time units at omega = 1.8 hold the segments of one period P = 3.49,
    # but snapshots 0.4 apart are each reached by walking segments, so no
    # whole period is jumped and U_P is never diagonalized (np.linalg.eig
    # serves only that: the run's other eigensolves are symmetric)
    def refuse(*args, **kwargs):
        raise AssertionError("U_P was diagonalized without a jump")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    grid = GridSpec(0.0, 14.0, 400)
    pulse = Pulse(E0=0.005, omega=1.8, tau=20.0)
    times, c = propagate_level(SPIKED, pulse, grid, 2, 3, 0.001, 20.0, 50)
    assert len(times) == 51 and abs(c[-1, 3]) > 0.0
    assert np.max(np.abs(np.linalg.norm(c, axis=1) - 1.0)) <= 1e-10


def test_eigenbasis_validation():
    grid = GridSpec(0.0, 14.0, 100)
    levels = grid_levels(SPIKED, grid, 6)
    pulse = Pulse(E0=0.01, omega=2.0, tau=1.0)
    c0 = np.eye(6)[0]
    for dt in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="dt > 0"):
            eigenbasis_propagate(*levels, pulse, c0, dt, [0.0, 1.0])
        with pytest.raises(ValueError, match="dt > 0"):
            propagate_level(SPIKED, pulse, grid, 0, 1, dt, 0.1)
    for times in ([1.0, 0.5], [-1.0, 0.0], [0.0, math.inf], []):
        with pytest.raises(ValueError, match="times"):
            eigenbasis_propagate(*levels, pulse, c0, 1e-3, times)
    with pytest.raises(ValueError, match="shape"):
        eigenbasis_propagate(*levels, pulse, c0[:-1], 1e-3, [0.0, 1.0])
    with pytest.raises(ValueError, match="c0 must be finite"):
        eigenbasis_propagate(*levels, pulse, np.full(6, math.nan), 1e-3, [0.0, 1.0])
    with pytest.raises(ValueError, match="steps"):
        eigenbasis_propagate(*levels, pulse, c0, 1e-12, [0.0, 1e3])
    for T in (-1.0, math.inf):
        with pytest.raises(ValueError, match="T >= 0"):
            propagate_level(SPIKED, pulse, grid, 0, 1, 1e-3, T)
    with pytest.raises(ValueError, match="non-negative"):
        propagate_level(SPIKED, pulse, grid, 0, -1, 1e-3, 0.1)
    with pytest.raises(ValueError, match="grid size"):
        propagate_level(SPIKED, pulse, grid, 100, 1, 1e-3, 0.1)
    for dt, snapshots in ((1e-300, 1), (1e-3, 10**20)):
        with pytest.raises(ValueError, match="steps"):
            propagate_level(SPIKED, pulse, grid, 0, 1, dt, 0.1, snapshots)
    with pytest.raises(ValueError, match="at least 1 snapshot"):
        propagate_level(SPIKED, pulse, grid, 0, 1, 1e-3, 0.1, 0)
    huge = Pulse(E0=1e300, omega=2.0, tau=1.0)
    with pytest.raises(ValueError, match="overflow"):
        propagate_level(SPIKED, huge, grid, 0, 1, 1e300, 1e300)
    # a zero-length run leaves every snapshot at the initial level
    times, c = propagate_level(SPIKED, pulse, grid, 0, 1, 1e-3, 0.0, 3)
    assert np.array_equal(times, np.zeros(4)) and np.array_equal(c, np.tile(np.eye(6)[0], (4, 1)))


def test_a_snapshot_table_above_max_points_is_refused_before_allocation():
    # one time past the bound: with K = 6 the table would hold
    # (MAX_POINTS // 6 + 1) x 6 entries, 160 MB of complex values
    grid = GridSpec(0.0, 14.0, 100)
    levels = grid_levels(SPIKED, grid, 6)
    pulse = Pulse(E0=0.01, omega=2.0, tau=1.0)
    times = np.linspace(0.0, 1.0, models.MAX_POINTS // 6 + 1)
    with pytest.raises(ValueError, match=f"more than {models.MAX_POINTS} entries"):
        eigenbasis_propagate(*levels, pulse, np.eye(6)[0], 1e-3, times)
    # levels 0 and 1 start at K = 6; the refusal comes before the times
    # (13 MB) and the first levels are built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"more than {models.MAX_POINTS} entries"):
            propagate_level(SPIKED, pulse, grid, 0, 1, 1e-3, 0.1, models.MAX_POINTS // 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_propagate_level_refuses_a_coupling_phase_the_steps_cannot_resolve(monkeypatch):
    # E0 = 1e12 at dt = 1e-3 turns each step's coupling phase dt E0 max|xi|
    # to about 7e9: the top level fills with noise, and growing K took the
    # whole grid into noise (over a minute on 1400 points).  The kernel
    # refuses on the first basis, without a second solve
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return models.hermitian_spectrum(*args, **kwargs)

    monkeypatch.setattr(dynamics, "hermitian_spectrum", counted)
    for E0 in (1e12, 1e300):
        solves.clear()
        with pytest.raises(ValueError, match=r"coupling phase dt E0 max\|xi\| = \S+ of one step is >= pi"):
            propagate_level(SPIKED, Pulse(E0=E0, omega=1.8, tau=0.05), ORACLE_GRID, 2, 3, 1e-3, 0.05)
        assert len(solves) == 1


def test_propagate_level_refuses_a_coupling_phase_that_a_grown_basis_reaches(monkeypatch):
    # max|xi| grows with K (the eigenvalues of X interlace): the first basis,
    # K = 8, steps a coupling phase below pi and fills its top level, and
    # the grown one, K = 12, reaches pi and is refused
    dt = 0.01
    coupling = grid_levels(SPIKED, ORACLE_GRID, 12)[1]
    first, grown = (np.max(np.abs(np.linalg.eigvalsh(coupling[:k, :k]))) for k in (8, 12))
    E0 = math.pi / (dt * math.sqrt(first * grown))
    assert dt * E0 * first < math.pi <= dt * E0 * grown
    runs = []

    def counted(energies, *args):
        runs.append(len(energies))
        return eigenbasis_propagate(energies, *args)

    monkeypatch.setattr(dynamics, "eigenbasis_propagate", counted)
    with pytest.raises(ValueError, match=r"coupling phase dt E0 max\|xi\| = \S+ of one step is >= pi"):
        propagate_level(SPIKED, Pulse(E0=E0, omega=1.8, tau=1.0), ORACLE_GRID, 2, 3, dt, 1.0)
    assert runs == [8, 12]


def test_the_kernel_refuses_a_coupling_phase_of_pi_or_more():
    # dt E0 max|xi| just above pi is refused by eigenbasis_propagate itself,
    # whoever calls it; just below pi the steps run
    energies, coupling = oracle_levels(6)
    dt = 0.01
    at_pi = math.pi / (dt * np.max(np.abs(np.linalg.eigvalsh(coupling))))
    c0 = np.eye(6)[2]
    above = Pulse(E0=at_pi * (1.0 + 1e-9), omega=1.8, tau=0.1)
    with pytest.raises(ValueError, match=r"coupling phase dt E0 max\|xi\| = 3.14159 of one step is >= pi"):
        eigenbasis_propagate(energies, coupling, above, c0, dt, [0.0, 0.1])
    below = Pulse(E0=at_pi * (1.0 - 1e-9), omega=1.8, tau=0.1)
    c = eigenbasis_propagate(energies, coupling, below, c0, dt, [0.0, 0.1])
    assert np.max(np.abs(np.linalg.norm(c, axis=1) - 1.0)) <= 1e-12


def test_propagate_level_takes_no_eigensolve_of_its_own(monkeypatch):
    # the levels come from hermitian_spectrum and xi from the kernel's one
    # eigh: growing K runs no eigvalsh of the coupling
    def refuse(*args, **kwargs):
        raise AssertionError("propagate_level ran eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    pulse = Pulse(E0=1.0, omega=1.8, tau=1.0)
    _, c = propagate_level(SPIKED, pulse, GridSpec(0.0, 14.0, 400), 2, 3, 0.001, 1.0)
    assert c.shape[1] > 8


def grid_levels(h0, grid, K):
    """The lowest K levels of h0 on the grid and their coupling X = h V^T diag(x) V."""
    energies, vectors = models.hermitian_spectrum(h0, grid, K)
    return energies, grid.step * (vectors.T * grid.coordinates()) @ vectors


def direct_loop(energies, coupling, pulse, c0, dt, times, steps=None):
    """Oracle of eigenbasis_propagate: its Strang steps taken one at a time.

    steps[i] steps over the span from times[i] to times[i + 1] (by default
    max(1, round(span/dt))), with the field at the step midpoints; in the frame d = Q^T exp(-i E s/2) c each step is
    one elementwise field phase and one product with G = Q^T exp(-i E s) Q,
    X = Q diag(xi) Q^T.  This is the kernel as it ran before it multiplied
    step operators.
    """
    xi, Q = np.linalg.eigh(coupling)
    c = np.array(c0, dtype=complex)
    out = [c]
    if steps is None:
        steps = [max(1, round(span / dt)) for span in np.diff(times)]
    for start, span, n_steps in zip(times[:-1], np.diff(times), steps):
        if span > 0:
            step = span / n_steps
            half = np.exp(-0.5j * step * energies)
            G = (Q.T * (half * half)) @ Q
            G = G @ (1.5 * np.eye(len(c)) - 0.5 * (G.conj().T @ G))
            d = Q.T @ (half * c)
            for field in field_value(pulse, start + (np.arange(n_steps) + 0.5) * step):
                d = G @ (np.exp(-1j * step * field * xi) * d)
            c = half.conj() * (Q @ d)
        out.append(c)
    return np.array(out)


def cut_times(pulse, times, dt):
    """Where eigenbasis_propagate cuts the run between the times, and the steps of each cut.

    Returns (cuts, steps): the times and the cuts, ascending, and the
    number of steps over each span between them.  The field ends at stop =
    tau (clipped to the run).  Before it, a rectangular pulse of period P
    is cut in every period at each time's phase (t - t0) mod P and at the
    period's start, if the run passes its first period and the cuts leave
    that period at least two steps of about dt per segment; otherwise the
    run is cut at the times and stop alone.  (The kernel also drops the
    period when its segment matrices would not fit in _HELD_ENTRIES, which
    no run here comes near.)  A span takes max(1, round(length/dt)) steps,
    and in a periodic run a span before stop takes the steps of its segment
    of the first period, as the kernel does in every period: a later
    period's span can round to the other side of a half step.
    """
    start = times[0]
    stop = min(max(pulse.tau if pulse.E0 > 0 else 0.0, start), times[-1])
    period = 2.0 * math.pi / pulse.omega if pulse.envelope == "rectangular" else math.inf
    driven = [t for t in times if t <= stop] + [stop]
    phases = sorted({(t - start) % period for t in driven} | {0.0})
    periodic = stop - start >= period
    if periodic:
        edges = [start + phase for phase in phases] + [start + period]
        counts = [max(1, round((b - a) / dt)) for a, b in zip(edges, edges[1:])]
        periodic = 2 * len(counts) <= sum(counts)
    if not periodic:
        period = math.inf
    cuts = set(times) | {stop}
    q = 0
    while start + q * period < stop:
        cuts |= {start + q * period + phase for phase in phases if start + q * period + phase < stop}
        q += 1
    cuts = sorted(cuts)
    steps = []
    for a, b in zip(cuts, cuts[1:]):
        if periodic and b <= stop:
            phase = (0.5 * (a + b) - start) % period
            steps.append(counts[bisect.bisect_right(phases, phase) - 1])
        else:
            steps.append(max(1, round((b - a) / dt)))
    return cuts, steps


@functools.lru_cache(maxsize=None)
def oracle_levels(K):
    """The lowest K levels on ORACLE_GRID and their coupling, cut from one solve of twelve."""
    energies, coupling = grid_levels(SPIKED, ORACLE_GRID, 12)
    return energies[:K], coupling[:K, :K]


def test_eigenbasis_matches_the_direct_loop_within_the_first_period():
    # no time lies past the first period, so the kernel takes the loop's
    # steps, pulse on throughout, and only the rounding differs
    pulse = Pulse(E0=0.05, omega=1.8, tau=100.0)
    c0 = np.eye(8)[2]
    times = np.linspace(0.3, 0.3 + 0.95 * 2.0 * math.pi / 1.8, 11)
    c = eigenbasis_propagate(*oracle_levels(8), pulse, c0, 1e-3, times)
    assert np.max(np.abs(c - direct_loop(*oracle_levels(8), pulse, c0, 1e-3, times))) <= 1e-12


@pytest.mark.parametrize("periods, tau_periods", [(20.0, 20.0), (12.5, 20.0), (12.5, 7.3)])
def test_eigenbasis_populations_match_the_direct_loop_over_many_periods(periods, tau_periods):
    # the propagate defaults (tau = T = 20 periods, 50 snapshots on the
    # default grid), a run that stops mid-period and a pulse that ends
    # mid-run; the loop's own step grid differs, so only the O(s^2)
    # splitting error of the cuts separates the two
    grid = GridSpec(0.0, 14.0, 1400)
    levels = grid_levels(SPIKED, grid, 12)
    period = 2.0 * math.pi / 1.8
    pulse = Pulse(E0=0.005, omega=1.8, tau=tau_periods * period)
    times = np.linspace(0.0, periods * period, 51)
    c0 = np.eye(12)[2]
    got = np.abs(eigenbasis_propagate(*levels, pulse, c0, 1e-3, times)[1:, 3]) ** 2
    loop_times = np.unique(np.append(times, min(pulse.tau, times[-1])))
    loop = direct_loop(*levels, pulse, c0, 1e-3, loop_times)[np.searchsorted(loop_times, times[1:])]
    expected = np.abs(loop[:, 3]) ** 2
    assert np.max(np.abs(got - expected) / expected) <= 1e-9


def test_eigenbasis_period_power_is_unitary():
    # a run of whole periods takes the power of the period operator U_P; a
    # run with a time at half a period (the same steps) multiplies the two
    # halves, and a run of three periods is U_P cubed
    pulse = Pulse(E0=0.3, omega=2.0, tau=100.0)
    period = 2.0 * math.pi / 2.0
    levels = oracle_levels(8)

    def propagator(times):
        return np.array([eigenbasis_propagate(*levels, pulse, e, 1e-3, times)[-1] for e in np.eye(8)]).T

    U = propagator([0.0, period])
    assert np.max(np.abs(U.conj().T @ U - np.eye(8))) <= 1e-12
    assert np.max(np.abs(U - propagator([0.0, 0.5 * period, period]))) <= 1e-12
    assert np.max(np.abs(propagator([0.0, 3.0 * period]) - U @ U @ U)) <= 1e-12
    assert np.max(np.abs(U - np.diag(np.diag(U)))) > 1e-2  # the field mixes the levels


def test_floquet_power_survives_nearly_degenerate_quasi_energies():
    # two levels in resonance (E1 - E0 = omega) make the field-free U_P a
    # multiple of the identity, and a field of 1e-9 splits its eigenphases
    # by about 1e-9: eigenvectors from np.linalg.eig are then far from
    # orthonormal, while the whole-period jump must stay the q-th power of
    # U_P and keep the norm
    omega = 2.0
    period = 2.0 * math.pi / omega
    grid = GridSpec(-1.0, 1.0, 16)
    x = grid.coordinates()
    vectors = np.column_stack([np.ones_like(x), x])
    vectors /= np.sqrt(grid.step * np.sum(vectors**2, axis=0))
    levels = np.array([0.0, omega]), grid.step * (vectors.T * x) @ vectors
    pulse = Pulse(E0=1e-9, omega=omega, tau=1e6)
    dt = period / 50.0

    U = np.array([eigenbasis_propagate(*levels, pulse, e, dt, [0.0, period])[-1] for e in np.eye(2)]).T
    phases = np.angle(np.linalg.eigvals(U))
    assert 0.0 < abs(phases[1] - phases[0]) < 1e-8
    assert np.max(np.abs(U - np.diag(np.diag(U)))) > 1e-11  # the field couples the levels

    # the explicit products gather rounding of about q eps (5e-13 at q = 1000)
    counts = [1, 2, 7, 100, 1000]
    c0 = np.array([0.6, 0.8j])
    got = eigenbasis_propagate(*levels, pulse, c0, dt, period * np.array([0] + counts))[1:]
    c, done, expected = c0.astype(complex), 0, []
    for q in counts:
        for _ in range(q - done):
            c = U @ c
        done = q
        expected.append(c)
    assert np.max(np.abs(got - np.array(expected))) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(got, axis=1) - 1.0)) <= 1e-13


def test_eigenbasis_free_tail_is_the_exact_level_phases():
    pulse = Pulse(E0=0.2, omega=1.9, tau=1.3)
    energies, coupling = oracle_levels(10)
    times = np.array([0.0, 0.4, 1.3, 1.7, 4.0, 60.0])
    c = eigenbasis_propagate(energies, coupling, pulse, np.eye(10)[2], 1e-3, times)
    phases = np.exp(-1j * np.outer(times[3:] - 1.3, energies))
    assert np.max(np.abs(c[3:] - phases * c[2])) <= 1e-15
    assert abs(c[2, 3]) > 1e-3
    # a tail whose phases E_k (t - tau) overflow is refused, though its
    # steps of dt would not overflow
    with pytest.raises(ValueError, match="overflow"):
        eigenbasis_propagate(energies, coupling, Pulse(E0=0.0, omega=1.9, tau=1.3), np.eye(10)[2], 1.1e300,
                             [0.0, 1e308])


@pytest.mark.parametrize("periods", [0.9, 2.6])
def test_eigenbasis_small_blocks_and_batches_keep_the_result(monkeypatch, periods):
    # blocks of two step matrices and batches of two segments: each segment
    # runs over many blocks, and a run within its first period over many
    # batches; only the order of the rounding changes
    monkeypatch.setattr(dynamics, "_TREE_ENTRIES", 2 * 5 * 5)
    pulse = Pulse(E0=0.3, omega=1.8, tau=100.0)
    levels, c0 = oracle_levels(5), np.eye(5)[1]
    times = np.linspace(0.0, periods * 2.0 * math.pi / 1.8, 12).tolist()
    cuts, steps = cut_times(pulse, times, 0.01)
    expected = direct_loop(*levels, pulse, c0, 0.01, cuts, steps)[np.searchsorted(cuts, times)]
    assert np.max(np.abs(eigenbasis_propagate(*levels, pulse, c0, 0.01, times) - expected)) <= 1e-12


def test_eigenbasis_drops_the_period_when_its_segments_would_not_fit(monkeypatch):
    # with no room to hold a segment matrix, a run over several periods is
    # cut at its times alone and takes the direct loop's steps
    pulse = Pulse(E0=0.3, omega=2.0, tau=100.0)
    levels, c0 = oracle_levels(6), np.eye(6)[1]
    times = [0.0, 0.7 * math.pi, 2.3 * math.pi]
    periodic = eigenbasis_propagate(*levels, pulse, c0, 0.01, times)
    monkeypatch.setattr(dynamics, "_HELD_ENTRIES", 0)
    plain = eigenbasis_propagate(*levels, pulse, c0, 0.01, times)
    assert np.max(np.abs(plain - direct_loop(*levels, pulse, c0, 0.01, times))) <= 1e-12
    # the period's cuts give another step grid
    assert np.max(np.abs(periodic - plain)) > 1e-9


def random_levels(seed, K=6):
    """Seeded level energies in [0, 8) and a real symmetric coupling with
    normal entries: a basis that no grid gave."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((K, K))
    return 8.0 * rng.random(K), 0.5 * (A + A.T)


_P18 = 2.0 * math.pi / 1.8  # the period at omega = 1.8


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "times, tau, jumps",
    [
        (np.linspace(0.3, 0.3 + 0.9 * _P18, 7).tolist(), 100.0, False),  # within the first period
        ([0.0, 1.1, 2.5 * _P18, 4.0 * _P18], 3.2 * _P18, True),  # the pulse ends mid-run
        ([0.0, 0.4 * _P18, 3.4 * _P18, 9.4 * _P18], 100.0, True),  # whole periods jumped
    ],
    ids=["first-period", "pulse-ends", "floquet"],
)
def test_eigenbasis_matches_the_direct_loop_on_a_basis_that_is_not_a_grid(
    monkeypatch, seed, times, tau, jumps
):
    # the kernel reads only energies and a coupling: a dense random X has a
    # Q with no structure a grid basis would lend it, and the direct loop
    # on the kernel's cuts must agree to rounding
    eig_calls = []
    eig = np.linalg.eig

    def counted(matrix):
        eig_calls.append(matrix.shape)
        return eig(matrix)

    monkeypatch.setattr(np.linalg, "eig", counted)
    levels = random_levels(seed)
    pulse = Pulse(E0=0.3, omega=1.8, tau=tau, phase_kind="cosine")
    c0 = np.exp(0.7j * np.arange(6)) / math.sqrt(6.0)
    got = eigenbasis_propagate(*levels, pulse, c0, 0.01, times)
    assert len(eig_calls) == int(jumps)  # U_P is diagonalized once when whole periods are jumped
    cuts, steps = cut_times(pulse, times, 0.01)
    expected = direct_loop(*levels, pulse, c0, 0.01, cuts, steps)[np.searchsorted(cuts, times)]
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert np.max(np.abs(np.abs(got[-1]) - np.abs(c0))) > 1e-2  # the field moves the populations


def test_eigenbasis_refuses_a_coupling_that_is_not_real_symmetric():
    energies, coupling = random_levels(1)
    pulse = Pulse(E0=0.3, omega=1.8, tau=1.0)
    asymmetric = coupling.copy()
    asymmetric[0, 1] += 1e-6
    cases = [
        (energies, coupling[:, :5], r"\(6, 6\) coupling"),
        (energies, coupling[:5, :5], r"\(6, 6\) coupling"),
        (energies.reshape(2, 3), coupling, "1-D energies"),
        (energies, asymmetric, "coupling must be symmetric"),
    ]
    for bad in (math.nan, math.inf):
        broken = coupling.copy()
        broken[2, 3] = broken[3, 2] = bad
        cases.append((energies, broken, "coupling must be finite"))
    for E, X, match in cases:
        with pytest.raises(ValueError, match=match):
            eigenbasis_propagate(E, X, pulse, np.eye(6)[0], 0.01, [0.0, 1.0])
    # no level at all is refused by name, not by numpy's empty reduction
    with pytest.raises(ValueError, match=r"non-empty 1-D energies and a \(0, 0\) coupling"):
        eigenbasis_propagate(np.zeros(0), np.zeros((0, 0)), pulse, np.zeros(0), 0.01, [0.0, 1.0])
    # rounding-level asymmetry, as a grid product h V^T diag(x) V leaves, is accepted
    rounded = coupling.copy()
    rounded[0, 1] *= 1.0 + 4.0 * np.finfo(float).eps
    eigenbasis_propagate(energies, rounded, pulse, np.eye(6)[0], 0.01, [0.0, 1.0])


@st.composite
def driven_runs(draw):
    """A rectangular pulse's omega, tau and Strang step with 2 to 9 times over 0 to 5 periods."""
    omega = draw(st.floats(0.5, 4.0))
    period = 2.0 * math.pi / omega
    start = draw(st.floats(0.0, 2.0 * period))
    span = period * (draw(st.integers(0, 4)) + draw(st.floats(0.0, 1.0)))
    times = np.linspace(start, start + span, draw(st.integers(1, 8)) + 1).tolist()
    where = draw(st.sampled_from(["before", "inside", "after"]))
    if where == "before":
        tau = draw(st.floats(0.0, start))
    elif where == "inside":
        tau = start + draw(st.floats(0.0, 1.0)) * span
    else:
        tau = start + span + draw(st.floats(0.0, period))
    return {"omega": omega, "tau": max(tau, 1e-3), "dt": period / draw(st.floats(2.2, 80.0)),
            "times": times}


_P1 = 2.0 * math.pi  # the period at omega = 1
_P2 = 2.0  # the period at omega = pi
_NEXT_BELOW_P2 = math.nextafter(_P2, 0.0)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    phase_kind=st.sampled_from(["sine", "cosine"]),
    K=st.integers(2, 12),
    E0=st.floats(0.01, 0.5),
    run=driven_runs(),
)
# 3.5 periods, the pulse ending between two times
@example(phase_kind="sine", K=8, E0=0.3, run={"omega": 1.8, "tau": 9.0, "dt": 0.01,
                                               "times": np.linspace(0.0, 3.5 * 2.0 * math.pi / 1.8, 5).tolist()})
# a time exactly at tau, which is also a period's end
@example(phase_kind="cosine", K=6, E0=0.3, run={"omega": math.pi, "tau": 2.0 * _P2, "dt": 0.01,
                                                 "times": [0.0, 1.0, 2.0 * _P2, 5.5, 3.0 * _P2]})
# a phase one ulp below P, then two whole periods
@example(phase_kind="sine", K=8, E0=0.3, run={"omega": math.pi, "tau": 50.0, "dt": 0.01,
                                               "times": [0.0, _NEXT_BELOW_P2, 2.0 * _P2]})
# a phase two ulps below P in the second period, whose cut t0 + phase rounds up to t0 + P
@example(phase_kind="cosine", K=8, E0=0.3, run={"omega": 1.8, "tau": 50.0, "dt": 0.01,
                                                 "times": [4.966651753267135, 11.947968761244452, 13.0]})
# eight phases in a period of three steps: cut at the times alone
@example(phase_kind="sine", K=6, E0=0.3, run={"omega": 1.8, "tau": 100.0, "dt": 2.0 * math.pi / 1.8 / 3.0,
                                               "times": np.linspace(0.2, 0.2 + 3.7 * 2.0 * math.pi / 1.8, 9).tolist()})
# fewer than two steps per field period: refused
@example(phase_kind="sine", K=4, E0=0.3, run={"omega": 1.8, "tau": 9.0, "dt": 2.0, "times": [0.0, 5.0]})
# segments of a step and a half: the third period's spans measure
# 1.4999999999999984 and 1.5000000000000018 steps, and take the first
# period's two steps each
@example(phase_kind="sine", K=2, E0=0.5, run={"omega": 1.0, "tau": 3.5 * _P1, "dt": _P1 / 6.0,
                                               "times": [0.0, 1.75 * _P1, 3.5 * _P1]})
def test_eigenbasis_matches_the_direct_loop_on_its_cuts(phase_kind, K, E0, run):
    # the direct loop stepped over the kernel's cuts takes the same steps in
    # every period, so the Floquet powers, the segment products and the
    # free tail must reproduce it to rounding
    pulse = Pulse(E0=E0, omega=run["omega"], tau=run["tau"], phase_kind=phase_kind)
    levels, times, dt = oracle_levels(K), run["times"], run["dt"]
    c0 = np.full(K, 1.0 / math.sqrt(K))
    if run["omega"] * dt >= math.pi:
        with pytest.raises(ValueError, match="fewer than two steps per field period"):
            eigenbasis_propagate(*levels, pulse, c0, dt, times)
        return
    if dt * E0 * np.max(np.abs(np.linalg.eigvalsh(levels[1]))) >= math.pi:
        with pytest.raises(ValueError, match="coupling phase"):
            eigenbasis_propagate(*levels, pulse, c0, dt, times)
        return
    got = eigenbasis_propagate(*levels, pulse, c0, dt, times)
    cuts, steps = cut_times(pulse, times, dt)
    expected = direct_loop(*levels, pulse, c0, dt, cuts, steps)[np.searchsorted(cuts, times)]
    assert np.max(np.abs(got - expected)) <= 1e-12


# -- laser-only spectral propagation --------------------------------------


def test_gordon_volkov_identity_and_norm():
    grid = GridSpec(-40.0, 40.0, 1024)
    xs = grid.coordinates()
    psi0 = gaussian_packet(xs, 2.0, -5.0, 1.3)
    pulse = Pulse(E0=0.4, omega=1.1, tau=30.0, phase_kind="cosine")
    same = gordon_volkov_propagate(psi0, pulse, grid, 1.0, 1.0)
    assert np.max(np.abs(same - psi0)) < 1e-13
    moved = gordon_volkov_propagate(psi0, pulse, grid, 2.7, 0.0)
    assert grid_norm(moved, grid) == pytest.approx(grid_norm(psi0, grid), abs=1e-12)
    with pytest.raises(ValueError):
        gordon_volkov_propagate(psi0[:-3], pulse, grid, 1.0, 0.0)


def test_gordon_volkov_group_property():
    grid = GridSpec(-40.0, 40.0, 1024)
    xs = grid.coordinates()
    psi0 = gaussian_packet(xs, 2.0, -5.0, 1.3)
    pulse = Pulse(E0=0.4, omega=1.1, tau=30.0, phase_kind="cosine")
    direct = gordon_volkov_propagate(psi0, pulse, grid, 2.7, 0.0)
    mid = gordon_volkov_propagate(psi0, pulse, grid, 1.4, 0.0)
    stacked = gordon_volkov_propagate(mid, pulse, grid, 2.7, 1.4)
    assert np.max(np.abs(stacked - direct)) < 1e-13
    back = gordon_volkov_propagate(direct, pulse, grid, 0.0, 2.7)
    assert np.max(np.abs(back - psi0)) < 1e-13


def test_gordon_volkov_ehrenfest():
    grid = GridSpec(-40.0, 40.0, 1024)
    xs = grid.coordinates()
    sigma, x0, p0 = 2.0, -5.0, 1.3
    psi0 = gaussian_packet(xs, sigma, x0, p0)
    pulse = Pulse(E0=0.4, omega=1.1, tau=30.0, phase_kind="cosine")
    t = 2.7
    psi = gordon_volkov_propagate(psi0, pulse, grid, t, 0.0)
    b, c, _ = field_integrals(pulse, t).tolist()
    k = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.step)
    ft = np.fft.fft(psi)
    p_mean = np.real(np.sum(np.conj(ft) * k * ft) / np.sum(np.abs(ft) ** 2))
    assert p_mean == pytest.approx(p0 - b, abs=1e-12)
    x_mean = np.real(np.sum(np.conj(psi) * xs * psi) * grid.step)
    assert x_mean == pytest.approx(x0 + p0 * t - c, abs=1e-12)


def test_gordon_volkov_free_packet_spreading():
    grid = GridSpec(-40.0, 40.0, 1024)
    xs = grid.coordinates()
    sigma, p0 = 2.0, 1.0
    psi0 = gaussian_packet(xs, sigma, 0.0, p0)
    off = Pulse(E0=0.0, omega=1.0, tau=100.0)
    t = 3.0
    psi = gordon_volkov_propagate(psi0, off, grid, t, 0.0)
    gam = 1.0 + 1j * t / (2.0 * sigma**2)
    exact = (
        (2.0 * math.pi * sigma**2) ** (-0.25)
        / np.sqrt(gam)
        * np.exp(
            -((xs - p0 * t) ** 2) / (4.0 * sigma**2 * gam)
            + 1j * p0 * xs
            - 0.5j * p0**2 * t
        )
    )
    assert np.max(np.abs(psi - exact)) < 1e-12


def test_gordon_volkov_matches_grid_propagator():
    # implicit midpoint at small dt carries the true dynamical phase, so
    # this also pins the accumulated-phase bookkeeping with the field on
    grid = GridSpec(-40.0, 40.0, 2048)
    xs = grid.coordinates()
    psi0 = gaussian_packet(xs, 2.0, 0.0, 0.0)
    psi0 /= math.sqrt(grid_norm(psi0, grid))
    pulse = Pulse(E0=0.3, omega=1.0, tau=10.0)
    t = 1.5
    spectral = gordon_volkov_propagate(psi0, pulse, grid, t, 0.0)
    kinetic = WeylSymbol.p(2) * 0.5
    stepped = crank_nicolson_propagate(kinetic, pulse, grid, psi0, 2.5e-4, t)
    diff = np.sqrt(np.sum(np.abs(stepped - spectral) ** 2) * grid.step)
    assert diff < 1e-4


def test_gordon_volkov_halfline_matches_fullline():
    # identical step sizes make the half-line nodes a subset of the
    # full-line nodes; a packet far from both walls must evolve the same
    L, n = 30.0, 511
    full = GridSpec(-L, L, 2 * n + 1)
    half = GridSpec(0.0, L, n)
    assert full.step == half.step
    xs_full = full.coordinates()
    packet = gaussian_packet(xs_full, 1.5, 15.0, 1.0)
    packet /= math.sqrt(grid_norm(packet, full))
    on_half = packet[n + 1 :].copy()
    pulse = Pulse(E0=0.3, omega=1.2, tau=10.0)
    out_full = gordon_volkov_propagate(packet, pulse, full, 2.0, 0.0)
    out_half = gordon_volkov_propagate(on_half, pulse, half, 2.0, 0.0)
    assert np.max(np.abs(out_full[n + 1 :] - out_half)) < 1e-6
    assert grid_norm(out_half, half) == pytest.approx(1.0, abs=1e-10)


# -- potential-first-order strong field propagation ------------------------


def test_strong_field_zero_potential_reduces_to_laser_only():
    grid = GridSpec(-30.0, 30.0, 512)
    xs = grid.coordinates()
    psi0 = gaussian_packet(xs, 1.5, 0.0, 0.5)
    pulse = Pulse(E0=0.3, omega=1.4, tau=8.0)
    t = 1.2
    base = gordon_volkov_propagate(psi0, pulse, grid, t, 0.0)
    got = first_order_strong_field(psi0, np.zeros(grid.points), pulse, grid, t)
    assert np.max(np.abs(got - base)) < 1e-14
    frozen = first_order_strong_field(psi0, np.zeros(grid.points), pulse, grid, 0.0)
    assert np.array_equal(frozen, psi0) and frozen is not psi0
    with pytest.raises(ValueError):
        first_order_strong_field(psi0, np.zeros(grid.points - 1), pulse, grid, t)
    # odd quadrature counts are rounded up instead of failing
    small = first_order_strong_field(psi0, np.zeros(grid.points), pulse, grid, t, n_quad=3)
    assert np.max(np.abs(small - base)) < 1e-14


def test_gordon_volkov_takes_both_ends_from_one_field_integral_call(monkeypatch):
    calls = []

    def counted(pulse, t):
        calls.append(np.shape(t))
        return field_integrals(pulse, t)

    monkeypatch.setattr(dynamics, "field_integrals", counted)
    grid = GridSpec(-20.0, 20.0, 128)
    psi = gaussian_packet(grid.coordinates(), 1.5, 0.0, 0.3)
    for envelope in ({}, {"envelope": "gaussian", "center": 1.5, "width": 0.5}):
        calls.clear()
        pulse = Pulse(E0=0.3, omega=1.2, tau=3.0, **envelope)
        gordon_volkov_propagate(psi, pulse, grid, 2.0, 0.5)
        assert calls == [(2,)]


def test_strong_field_refuses_a_node_table_past_max_points_before_allocation():
    # n_quad = MAX_POINTS, or MAX_POINTS - 1 rounded up to even, asks for
    # MAX_POINTS + 1 nodes, each a row of the node, weight and field tables:
    # refused before any of them is made
    grid = GridSpec(-20.0, 20.0, 128)
    psi = gaussian_packet(grid.coordinates(), 1.5, 0.0, 0.3)
    potential = np.zeros(grid.points)
    pulse = Pulse(E0=0.3, omega=1.2, tau=3.0)
    tracemalloc.start()
    try:
        for n_quad in (models.MAX_POINTS, models.MAX_POINTS - 1):
            with pytest.raises(ValueError, match=f"more than {models.MAX_POINTS} quadrature nodes"):
                first_order_strong_field(psi, potential, pulse, grid, 1.0, n_quad=n_quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_strong_field_matches_dense_dyson_oracle():
    # zero field, so U_GV is free evolution: dense Fourier matrices on a
    # full-line grid, dense Dirichlet sine modes (from np.sin) on a
    # half-line grid, with Gauss-Legendre in time.  The half-line state
    # x exp(-x^2/4.5) sits against the wall at 0 and is smooth only when
    # continued as an odd function, so the wall condition matters
    off = Pulse(E0=0.0, omega=1.0, tau=10.0)
    t = 1.5
    for grid in (GridSpec(-40.0, 40.0, 512), GridSpec(0.0, 40.0, 511)):
        n = grid.points
        xs = grid.coordinates()
        psi0 = np.exp(-(xs**2) / (2.0 * 1.5**2)).astype(complex)
        if grid.x_min >= 0:
            psi0 *= xs
        psi0 /= math.sqrt(grid_norm(psi0, grid))
        potential = -0.5 * np.exp(-(xs**2) / 4.0)
        got = first_order_strong_field(psi0, potential, off, grid, t, n_quad=256)

        if grid.x_min < 0:
            k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.step)
            fwd = np.fft.fft(np.eye(n), axis=0)
            inv = np.conj(fwd).T / n
        else:
            modes = np.arange(1, n + 1)
            k = math.pi * modes / (grid.step * (n + 1))
            fwd = inv = math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * np.outer(modes, modes) / (n + 1))

        def free(dt):
            return inv @ (np.exp(-0.5j * k * k * dt)[:, None] * fwd)

        nodes, weights = leggauss(48)
        correction = np.zeros_like(psi0)
        for node, weight in zip(nodes, weights):
            s = 0.5 * t * (node + 1.0)
            w = 0.5 * t * weight
            correction += w * (free(t - s) @ (potential * (free(s) @ psi0)))
        oracle = free(t) @ psi0 - 1j * correction
        err = np.sqrt(np.sum(np.abs(got - oracle) ** 2) * grid.step)
        assert err < 1e-8


def test_strong_field_gaussian_matches_simpson_over_public_propagator():
    # the batched k-space pass (one node table for the inner and outer
    # steps, the b_j and d_j phases cancelled) against the same Simpson sum
    # assembled from gordon_volkov_propagate, one call per step, which
    # takes the field integrals afresh for every endpoint (one table per
    # call instead of one for all nodes); both envelopes, both phase kinds,
    # full-line and half-line grids
    grids = ((GridSpec(-40.0, 40.0, 512), 1.0), (GridSpec(0.0, 40.0, 511), 20.0))
    for (grid, center), envelope, phase_kind in itertools.product(
        grids, ("rectangular", "gaussian"), ("sine", "cosine")
    ):
        xs = grid.coordinates()
        psi0 = gaussian_packet(xs, 1.5, center, 0.3)
        potential = 0.03 - 0.2 * np.exp(-((xs - center) ** 2) / 4.0)
        shape = {"center": 1.5, "width": 0.5} if envelope == "gaussian" else {}
        pulse = Pulse(E0=0.3, omega=1.2, tau=3.0, phase_kind=phase_kind,
                      envelope=envelope, **shape)
        t, n_quad = 3.7, 8
        got = first_order_strong_field(psi0, potential, pulse, grid, t, n_quad=n_quad)
        ds = t / n_quad
        acc = np.zeros_like(psi0)
        for j in range(n_quad + 1):
            s = j * ds
            weight = 1.0 if j in (0, n_quad) else (4.0 if j % 2 else 2.0)
            inner = gordon_volkov_propagate(psi0, pulse, grid, s, 0.0)
            acc += weight * gordon_volkov_propagate(potential * inner, pulse, grid, t, s)
        oracle = gordon_volkov_propagate(psi0, pulse, grid, t, 0.0) - 1j * ds / 3.0 * acc
        assert np.max(np.abs(got - oracle)) < 1e-12


def test_strong_field_transform_count_does_not_grow_with_the_nodes(monkeypatch):
    # one transform of psi0, one batched inverse and one batched forward
    # transform over all nodes, one inverse: a loop over the nodes (or
    # over per-node propagator calls) would scale with n_quad
    calls = []

    def counted(real):
        def transform(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return transform

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    grid = GridSpec(-30.0, 30.0, 512)
    xs = grid.coordinates()
    psi0 = gaussian_packet(xs, 1.5, 0.0, 0.5)
    potential = -0.2 * np.exp(-(xs**2) / 4.0)
    pulse = Pulse(E0=0.3, omega=1.4, tau=8.0)
    counts = []
    for n_quad in (8, 64):
        calls.clear()
        first_order_strong_field(psi0, potential, pulse, grid, 1.2, n_quad=n_quad)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize(
    "entry, change, message",
    [
        ("strong", {"t": math.nan}, "t must be finite"),
        ("strong", {"t": math.inf}, "t must be finite"),
        ("strong", {"t": -0.5}, "t >= 0"),
        ("strong", {"n_quad": 0}, "n_quad"),
        ("strong", {"n_quad": -4}, "n_quad"),
        ("strong", {"psi": math.inf}, "psi0 must be finite"),
        ("strong", {"psi": complex(0.0, math.nan)}, "psi0 must be finite"),
        ("strong", {"potential": math.nan}, "potential must be finite"),
        ("volkov", {"t": math.nan}, "t and t_prime must be finite"),
        ("volkov", {"t_prime": -math.inf}, "t and t_prime must be finite"),
        ("volkov", {"t": -0.5}, "t >= 0"),
        ("volkov", {"t_prime": -0.5}, "t >= 0"),
        ("volkov", {"psi": math.nan}, "psi must be finite"),
    ],
)
def test_strong_field_entry_points_refuse_inputs_outside_their_domain(entry, change, message):
    change = dict(change)
    grid = GridSpec(-20.0, 20.0, 128)
    xs = grid.coordinates()
    psi = gaussian_packet(xs, 1.5, 0.0, 0.3)
    psi[5] += change.pop("psi", 0.0)
    potential = -0.2 * np.exp(-(xs**2) / 4.0)
    potential[7] += change.pop("potential", 0.0)
    pulse = Pulse(E0=0.3, omega=1.2, tau=3.0)
    with pytest.raises(ValueError, match=message):
        if entry == "strong":
            first_order_strong_field(psi, potential, pulse, grid, **{"t": 1.0, "n_quad": 8, **change})
        else:
            gordon_volkov_propagate(psi, pulse, grid, **{"t": 1.0, "t_prime": 0.0, **change})


def test_strong_field_agrees_with_grid_propagator_to_second_order():
    # the difference against the full propagation is the second Born
    # term, so it must shrink quadratically with the potential strength
    grid = GridSpec(-40.0, 40.0, 2048)
    xs = grid.coordinates()
    psi0 = np.exp(-(xs**2) / (2.0 * 2.0**2)).astype(complex)
    psi0 /= math.sqrt(grid_norm(psi0, grid))
    pulse = Pulse(E0=0.3, omega=1.0, tau=10.0)
    t = 1.5
    diffs = []
    for lam in (0.05, 0.025, 0.0125):
        h0 = WeylSymbol.p(2) * 0.5 - WeylSymbol.x(2) * lam
        full = crank_nicolson_propagate(h0, pulse, grid, psi0, 1.5e-3, t)
        born = first_order_strong_field(psi0, -lam * xs**2, pulse, grid, t, n_quad=128)
        diffs.append(np.sqrt(np.sum(np.abs(full - born) ** 2) * grid.step))
    orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
    assert orders[1] > orders[0] - 0.05
    assert orders[1] > 1.95
    assert 2.0 * orders[1] - orders[0] > 2.0
