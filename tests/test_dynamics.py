"""Driven dynamics: field bookkeeping, perturbative amplitudes, propagators.

Oracles: scipy.quad cascades for the running field integrals, an
independently assembled dense free propagator with Gauss-Legendre time
quadrature for the first Born term, closed-form Gaussian spreading, and
Ehrenfest relations for the laser-only propagator.  The implicit
midpoint grid propagator and the spectral laser propagator are also
played against each other, which pins the dynamical phase.
"""
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad, solve_ivp

from pseudoherm import dynamics, models
from pseudoherm.dynamics import (
    Pulse,
    crank_nicolson_propagate,
    field_integrals,
    field_value,
    first_order_strong_field,
    first_order_transition,
    gauge_residual,
    gordon_volkov_propagate,
    transition_sweep,
)
from pseudoherm.models import GridSpec, SpikedHOModel
from pseudoherm.weyl import ExpPolySymbol, WeylSymbol, star


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
        got = field_integrals(pulse, t)
        b, c, d = quad_cascade(pulse, t)
        assert got.b == pytest.approx(b, abs=1e-9)
        assert got.c == pytest.approx(c, abs=1e-9)
        assert got.d == pytest.approx(d, abs=1e-9)


def test_field_integrals_gaussian_envelope():
    pulse = Pulse(
        E0=0.5, omega=2.0, tau=10.0, envelope="gaussian", center=5.0, width=1.5
    )
    got = field_integrals(pulse, 7.0)

    def rhs(s, y):
        e = field_value(pulse, s)
        return [e, y[0], 0.5 * y[0] ** 2]

    sol = solve_ivp(rhs, (0.0, 7.0), [0.0, 0.0, 0.0], method="Radau",
                    rtol=1e-11, atol=1e-13)
    assert got.b == pytest.approx(sol.y[0, -1], abs=1e-8)
    assert got.c == pytest.approx(sol.y[1, -1], abs=1e-8)
    assert got.d == pytest.approx(sol.y[2, -1], abs=1e-8)


def test_field_integrals_edge_cases():
    pulse = Pulse(E0=0.5, omega=2.0, tau=3.0)
    zero = field_integrals(pulse, 0.0)
    assert (zero.b, zero.c, zero.d) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        field_integrals(pulse, -0.5)
    # after the pulse b freezes while c and d keep growing linearly
    end = field_integrals(pulse, 3.0)
    later = field_integrals(pulse, 5.0)
    assert later.b == pytest.approx(end.b, abs=1e-14)
    assert later.c == pytest.approx(end.c + 2.0 * end.b, abs=1e-12)
    assert later.d == pytest.approx(end.d + 0.5 * end.b**2 * 2.0, abs=1e-12)


def _gauge_scale(h0, pulse, t):
    # the translated symbols carry coefficients up to c(t)^deg
    return max(1.0, h0.shift_x(field_integrals(pulse, t).c).max_abs())


def test_gauge_residuals_vanish():
    rng = np.random.default_rng(7)
    pulse = Pulse(E0=0.6, omega=1.7, tau=12.0)
    harmonic = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.8
    quartic = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(4) * 0.3 + WeylSymbol.x(1) * 0.1
    for t in rng.uniform(0.0, 15.0, 10):
        for h0 in (harmonic, quartic):
            scale = _gauge_scale(h0, pulse, float(t))
            res_v, res_k = gauge_residual(h0, pulse, float(t))
            assert res_v.max_abs_coeff() < 1e-12 * scale
            assert res_k.max_abs_coeff() < 1e-12 * scale


def test_gauge_identity_fails_with_flipped_translation():
    # the same two Moyal products with the translation sign flipped must
    # leave a residual of the size of the translation, so the check can fail
    pulse = Pulse(E0=0.6, omega=1.7, tau=12.0)
    t = 9.0
    ints = field_integrals(pulse, t)
    assert abs(ints.b) > 0.1 and abs(ints.c) > 1.0
    quartic = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(4) * 0.3 + WeylSymbol.x(1) * 0.1
    velocity = ExpPolySymbol.exp(WeylSymbol.monomial(1, 0, 1j * ints.b))
    kramers = ExpPolySymbol.exp(WeylSymbol.monomial(0, 1, -1j * ints.c))
    flipped_v = star(quartic, velocity) - star(velocity, quartic.shift_p(-ints.b))
    flipped_k = star(quartic, kramers) - star(kramers, quartic.shift_x(-ints.c))
    scale = _gauge_scale(quartic, pulse, t)
    assert flipped_v.max_abs_coeff() > 1e-3 * scale
    assert flipped_k.max_abs_coeff() > 1e-3 * scale
    # h0(x, p + b) - h0(x, p - b) = 2 b p, so the flipped velocity residual
    # is exp(i b x) * 2 b p = exp(i b x) (2 b p + O(b^2)): largest coefficient 2|b|
    assert flipped_v.max_abs_coeff() == pytest.approx(2.0 * abs(ints.b), rel=1e-12)
    res_v, res_k = gauge_residual(quartic, pulse, t)
    assert res_v.max_abs_coeff() < 1e-12 * scale
    assert res_k.max_abs_coeff() < 1e-12 * scale


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
    curves = transition_sweep(model, 3, 2, 0.01, 1.7, 2.3, 7, 30.0, [0.0, 0.7])
    assert len(curves) == 2
    for curve in curves:
        assert np.all(np.diff(curve.omega) > 0)
        pointwise_model = SpikedHOModel(lam=0.5, alpha=0.2, xi=curve.xi)
        for w, prob in zip(curve.omega, curve.probability):
            pulse = Pulse(E0=0.01, omega=float(w), tau=30.0)
            ref = first_order_transition(
                pointwise_model, 3, 2, pulse, 30.0, coupling="raw_x_via_eta"
            )
            assert prob == pytest.approx(ref, rel=1e-12)


def test_sweep_output_order_and_metadata():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    curves = transition_sweep(model, 3, 2, 0.01, 1.7, 2.3, 5, 30.0, [1.0, 0.0])
    assert [c.xi for c in curves] == [1.0, 0.0]
    assert curves[0].n == 3 and curves[0].m == 2
    assert curves[0].E0 == 0.01 and curves[0].tau == 30.0
    assert curves[0].lam == 0.5 and curves[0].alpha == 0.2


@pytest.mark.parametrize("n, m", [(3, 2), (2, 3)])
def test_sweep_resonant_point_matches_pointwise(n, m):
    # the grid holds omega = |E_n - E_m| = 2 exactly, where delta -+ omega = 0
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    curves = transition_sweep(model, n, m, 0.01, 1.0, 3.0, 5, 30.0, [0.0, 0.6])
    assert 2.0 in curves[0].omega
    for curve in curves:
        pointwise_model = SpikedHOModel(lam=0.5, alpha=0.2, xi=curve.xi)
        for w, prob in zip(curve.omega, curve.probability):
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
    resonant = curves[0].probability[list(curves[0].omega).index(2.0)]
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
    below_half = SpikedHOModel(lam=0.5, alpha=-0.7)
    with pytest.raises(ValueError, match="alpha > -1/2"):
        transition_sweep(below_half, 3, 2, 0.01, 1.7, 2.3, 5, 30.0, [0.0])


# -- implicit midpoint grid propagation -----------------------------------


def test_crank_nicolson_stationary_phase():
    grid = GridSpec(-8.0, 8.0, 400)
    ho = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.5
    es = models.hermitian_spectrum(ho, grid, 1)
    psi0 = es.eigenvectors[:, 0].astype(complex)
    off = Pulse(E0=0.0, omega=1.0, tau=1.0)
    T = 2.0
    psi = crank_nicolson_propagate(ho, off, grid, psi0, 1e-3, T)
    expect = psi0 * np.exp(-1j * es.eigenvalues[0] * T)
    assert np.max(np.abs(psi - expect)) < 1e-6
    assert grid_norm(psi, grid) == pytest.approx(grid_norm(psi0, grid), abs=1e-12)


def test_crank_nicolson_second_order_in_dt():
    grid = GridSpec(-8.0, 8.0, 400)
    ho = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.5
    es = models.hermitian_spectrum(ho, grid, 1)
    psi0 = es.eigenvectors[:, 0].astype(complex)
    off = Pulse(E0=0.0, omega=1.0, tau=1.0)
    expect = psi0 * np.exp(-1j * es.eigenvalues[0] * 2.0)
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


def test_crank_nicolson_segmented_clock():
    grid = GridSpec(-10.0, 10.0, 300)
    ho = WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.5
    xs = grid.coordinates()
    psi0 = gaussian_packet(xs, 1.0, 0.0, 0.0)
    pulse = Pulse(E0=0.2, omega=1.3, tau=5.0)
    whole = crank_nicolson_propagate(ho, pulse, grid, psi0, 1e-3, 2.0)
    first = crank_nicolson_propagate(ho, pulse, grid, psi0, 1e-3, 1.2)
    second = crank_nicolson_propagate(ho, pulse, grid, first, 1e-3, 0.8, t0=1.2)
    assert np.max(np.abs(whole - second)) < 1e-12


def reference_crank_nicolson(h0, pulse, grid, psi0, dt, T, t0=0.0):
    """Implicit midpoint through scipy.linalg.solve_banded, one step at a time."""
    from scipy.linalg import solve_banded

    band = models.banded_hamiltonian(h0, grid)
    u = band.shape[0] - 1
    n = grid.points
    n_steps = max(1, round(T / dt))
    step = T / n_steps
    half = 0.5j * step
    coords = grid.coordinates()
    ab = np.zeros((2 * u + 1, n), dtype=complex)
    for r in range(1, u + 1):
        ab[u - r, r:] = half * band[u - r, r:]
        ab[u + r, : n - r] = half * band[u - r, r:]
    psi = np.array(psi0, dtype=complex)
    for j in range(n_steps):
        diag = band[u] + coords * field_value(pulse, t0 + (j + 0.5) * step)
        ab[u] = 1.0 + half * diag
        rhs = (1.0 - half * diag) * psi
        for r in range(1, u + 1):
            rhs[: n - r] -= half * band[u - r, r:] * psi[r:]
            rhs[r:] -= half * band[u - r, r:] * psi[: n - r]
        psi = solve_banded((u, u), ab, rhs)
    return psi


@pytest.mark.parametrize(
    "h0, grid",
    [
        (SpikedHOModel(lam=0.6, alpha=0.4), GridSpec(0.0, 14.0, 1400)),
        (WeylSymbol.p(2) * 0.5 + WeylSymbol.x(2) * 0.5, GridSpec(-10.0, 10.0, 300)),
        (WeylSymbol.p(2) * 0.5 + WeylSymbol.p(4) * 0.01 + WeylSymbol.x(2) * 0.5,
         GridSpec(-8.0, 8.0, 400)),
    ],
)
def test_crank_nicolson_matches_solve_banded_reference(h0, grid):
    xs = grid.coordinates()
    psi0 = gaussian_packet(xs, 1.0, 0.5 * (xs[0] + xs[-1]) + 0.7, 0.4)
    pulse = Pulse(E0=0.05, omega=1.9, tau=0.25)
    # steps straddle the end of the pulse, and t0 offsets its clock
    got = crank_nicolson_propagate(h0, pulse, grid, psi0, 2e-3, 0.3, t0=0.02)
    ref = reference_crank_nicolson(h0, pulse, grid, psi0, 2e-3, 0.3, t0=0.02)
    assert np.array_equal(got, ref)


def test_crank_nicolson_pentadiagonal_norm_and_stationary_phase():
    # p^4 term: the loop solves the five-band system with gbsv.  An
    # eigenvector of the grid matrix picks up exactly the Cayley factor
    # ((1 - i E dt/2) / (1 + i E dt/2))^steps per level
    grid = GridSpec(-8.0, 8.0, 400)
    h0 = WeylSymbol.p(2) * 0.5 + WeylSymbol.p(4) * 0.02 + WeylSymbol.x(2) * 0.5
    assert models.banded_hamiltonian(h0, grid).shape[0] == 3
    es = models.hermitian_spectrum(h0, grid, 2)
    off = Pulse(E0=0.0, omega=1.0, tau=1.0)
    dt, steps = 1e-3, 1500
    for level in range(2):
        psi0 = es.eigenvectors[:, level].astype(complex)
        energy = es.eigenvalues[level]
        psi = crank_nicolson_propagate(h0, off, grid, psi0, dt, dt * steps)
        cayley = ((1.0 - 0.5j * energy * dt) / (1.0 + 0.5j * energy * dt)) ** steps
        assert np.max(np.abs(psi - cayley * psi0)) < 1e-10
        # the Cayley phase is within O(E^3 dt^2 T) of exp(-i E T)
        assert abs(cayley - np.exp(-1j * energy * dt * steps)) < 1e-5
    xs = grid.coordinates()
    packet = gaussian_packet(xs, 1.0, 0.5, 0.3)
    packet /= math.sqrt(grid_norm(packet, grid))
    driven = crank_nicolson_propagate(h0, Pulse(E0=0.3, omega=1.3, tau=2.0), grid, packet, 1e-3, 1.5)
    assert grid_norm(driven, grid) == pytest.approx(1.0, abs=1e-12)


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
    ints = field_integrals(pulse, t)
    k = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.step)
    ft = np.fft.fft(psi)
    p_mean = np.real(np.sum(np.conj(ft) * k * ft) / np.sum(np.abs(ft) ** 2))
    assert p_mean == pytest.approx(p0 - ints.b, abs=1e-12)
    x_mean = np.real(np.sum(np.conj(psi) * xs * psi) * grid.step)
    assert x_mean == pytest.approx(x0 + p0 * t - ints.c, abs=1e-12)


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


def test_strong_field_matches_dense_dyson_oracle():
    grid = GridSpec(-40.0, 40.0, 512)
    xs = grid.coordinates()
    psi0 = np.exp(-(xs**2) / (2.0 * 1.5**2)).astype(complex)
    psi0 /= math.sqrt(grid_norm(psi0, grid))
    potential = -0.5 * np.exp(-(xs**2) / 4.0)
    off = Pulse(E0=0.0, omega=1.0, tau=10.0)
    t = 1.5
    got = first_order_strong_field(psi0, potential, off, grid, t, n_quad=256)

    k = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.step)
    fwd = np.fft.fft(np.eye(grid.points), axis=0)
    inv = np.conj(fwd).T / grid.points

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
    # the tabulated field integrals (one cascade solve) against the same
    # Simpson sum assembled from gordon_volkov_propagate, which solves the
    # cascade afresh for every endpoint
    grid = GridSpec(-40.0, 40.0, 512)
    xs = grid.coordinates()
    psi0 = gaussian_packet(xs, 1.5, 1.0, 0.3)
    potential = 0.03 - 0.2 * np.exp(-(xs**2) / 4.0)
    for phase_kind in ("sine", "cosine"):
        pulse = Pulse(E0=0.3, omega=1.2, tau=3.0, phase_kind=phase_kind,
                      envelope="gaussian", center=1.5, width=0.5)
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
