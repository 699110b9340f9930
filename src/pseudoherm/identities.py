"""The identities `verify-all` checks, one function each, in report order.

Each check takes a seeded numpy Generator, draws whatever random inputs it
needs from it, and returns ``(ok, detail)``: whether the identity holds
within its bound, and a short text (usually the worst error seen) that the
report prints.  ``CHECKS`` is the ordered ``(name, check)`` table;
``pseudoherm verify-all`` runs it with ``--seed`` and the test suite runs
it over several seeds, so each identity is implemented once.

Layer functions are called through their modules (``weyl.star``), never
bound by name, so whatever a module attribute holds at call time is what
runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import dynamics, metric, models, stokes, weyl
from .models import GridSpec, SpikedHOModel
from .weyl import WeylSymbol


def _random_symbol(rng):
    """A quadratic symbol with complex normal coefficients, drawn real part
    then imaginary part, term by term in (deg_x, deg_p) order."""
    terms = {}
    for dx in range(3):
        for dp in range(3 - dx):
            terms[(dx, dp)] = rng.standard_normal() + 1j * rng.standard_normal()
    return WeylSymbol(terms)


def _chk_canonical_commutator(rng):
    err = weyl.star_commutator(WeylSymbol.x(), WeylSymbol.p()).distance(WeylSymbol.constant(1j))
    return err == 0.0, f"max_err={err:.3g}"


def _chk_quadratic_commutator(rng):
    x2 = WeylSymbol.monomial(2, 0)
    p2 = WeylSymbol.monomial(0, 2)
    expected = WeylSymbol({(1, 1): 4j})
    err = weyl.star_commutator(x2, p2).distance(expected)
    return err < 1e-15, f"max_err={err:.3g}"


def _chk_star_associativity(rng):
    worst = 0.0
    for _ in range(3):
        f, g, k = (_random_symbol(rng) for _ in range(3))
        left = weyl.star(weyl.star(f, g), k)
        right = weyl.star(f, weyl.star(g, k))
        worst = max(worst, left.distance(right))
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_conjugation_antihomomorphism(rng):
    f, g = _random_symbol(rng), _random_symbol(rng)
    left = weyl.star(f, g).conjugate()
    right = weyl.star(g.conjugate(), f.conjugate())
    err = left.distance(right)
    return err <= 1e-12, f"max_err={err:.3g}"


def _chk_identity_substitution(rng):
    poly = _random_symbol(rng)
    err = weyl.compose_weyl(poly, WeylSymbol.x(), WeylSymbol.p()).distance(poly)
    return err <= 1e-12, f"max_err={err:.3g}"


def _chk_euler_numbers(rng):
    ok = metric.euler_numbers(5) == [1, 5, 61, 1385, 50521]
    return ok, "exact-integer comparison"


def _chk_kappa_values(rng):
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
        worst = max(worst, c1.distance(WeylSymbol({(m - 1, 1): 2j * g})))
        worst = max(worst, c2.distance(WeylSymbol({(2 * m - 2, 0): -4 * g * g})))
        worst = max(worst, c3.max_abs())
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _matches_closed_form(got, expected, seed):
    """Coefficientwise |got - expected| <= 1e-12 max(|got|, |expected|, |seed|).

    Each coefficient is held to its own size and that of the seed term
    it corrects, never to the largest coefficient, so a genuine term
    far below the others (g^2 p^4/(4 alpha) at g = 1e-7) must be there.
    """
    keys = {k for k, _ in got.items()} | {k for k, _ in expected.items()}
    for key in keys:
        a, b = got.coefficient(*key), expected.coefficient(*key)
        if abs(a - b) > 1e-12 * max(abs(a), abs(b), abs(seed.coefficient(*key))):
            return False
    return True


def _bch_against_closed_form(h0, closed):
    """(largest coefficient distance, coefficientwise match) of the BCH pair
    that the generator closed.q builds on the seed h0, against the
    closed-form pair the models module returns."""
    bch = metric.hermitian_pair_from_q(h0, closed.q, closed.ell)
    sides = ((bch.h, closed.h), (bch.H, closed.H))
    err = max(got.distance(expected) for got, expected in sides)
    return err, all(_matches_closed_form(got, expected, h0) for got, expected in sides)


def _chk_swanson_closed_forms(rng):
    worst, ok = 0.0, True
    for n, m in ((2, 2), (4, 2), (2, 3)):
        alpha, g = _swanson_draw(rng)
        err, matches = _bch_against_closed_form(
            models.swanson_seed(n, alpha), models.swanson_pair(n, m, alpha, g)
        )
        worst, ok = max(worst, err), ok and matches
    return ok and worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_swanson_compose(rng):
    worst = 0.0
    for n, m in ((2, 2), (2, 3)):
        alpha, g = _swanson_draw(rng)
        pair = models.swanson_pair(n, m, alpha, g)
        P = WeylSymbol.p() + WeylSymbol({(m - 1, 0): -1j * g})
        worst = max(worst, weyl.compose_weyl(pair.h, WeylSymbol.x(), P).distance(pair.H))
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_swanson_metric_position(rng):
    alpha, g = _swanson_draw(rng)
    pair = models.swanson_pair(2, 2, alpha, g)
    err = metric.metric_residual(pair.H, WeylSymbol({(2, 0): g})).max_abs()
    return err <= 1e-10 * max(1.0, pair.H.max_abs()), f"max_err={err:.3g}"


def _chk_swanson_metric_momentum(rng):
    alpha, g = _swanson_draw(rng)
    pair = models.swanson_pair(2, 2, alpha, g)
    err = metric.metric_residual(pair.H, WeylSymbol({(0, 2): -g / alpha})).max_abs()
    return err <= 1e-10 * max(1.0, pair.H.max_abs()), f"max_err={err:.3g}"


def _chk_swanson_observables(rng):
    worst = 0.0
    for m in (2, 3):
        alpha, g = _swanson_draw(rng)
        q = models.swanson_generator(m, g)
        X = metric.observable_map(WeylSymbol.x(), q)
        P = metric.observable_map(WeylSymbol.p(), q)
        worst = max(worst, X.distance(WeylSymbol.x()))
        worst = max(worst, P.distance(WeylSymbol.p() + WeylSymbol({(m - 1, 0): -1j * g})))
        worst = max(worst, weyl.star_commutator(X, P).distance(WeylSymbol.constant(1j)))
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_quartic_chain(rng):
    # the closed forms against the BCH ladder, and eta^2 = exp(q) as their metric
    worst, ok = 0.0, True
    for _ in range(2):
        alpha, g = _swanson_draw(rng)
        closed = models.minus_x4_chain(alpha, g)
        err, matches = _bch_against_closed_form(models.x4_seed(alpha), closed)
        residual = metric.metric_residual(closed.H, closed.q).max_abs()
        worst = max(worst, err)
        ok = ok and matches and residual <= 1e-10 * max(1.0, closed.H.max_abs())
    return ok and worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_quartic_observable(rng):
    alpha, g = _swanson_draw(rng)
    q = models.x4_generator(alpha, g)
    X = metric.observable_map(WeylSymbol.x(), q)
    expected = WeylSymbol({(1, 0): 1.0, (0, 2): 0.5j * g / alpha, (0, 0): -1j * g})
    err = X.distance(expected)
    P = metric.observable_map(WeylSymbol.p(), q)
    err = max(err, P.distance(WeylSymbol.p()))
    err = max(err, weyl.star_commutator(X, P).distance(WeylSymbol.constant(1j)))
    return err <= 1e-12, f"max_err={err:.3g}"


def _chk_pt_classification(rng):
    even = models.swanson_pair(2, 2, 0.7, 0.3).H
    odd = models.swanson_pair(2, 3, 0.7, 0.3).H
    sym = _random_symbol(rng)
    involution = weyl.pt_transform(weyl.pt_transform(sym)).distance(sym)
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
    err = float(np.max(np.abs([zero, off])))
    return err == 0.0, f"max_err={err:.3g}"


def _chk_gauge_residuals(rng):
    pulse = dynamics.Pulse(E0=0.8, omega=1.7, tau=5.0)
    harmonic = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5})
    quartic = WeylSymbol({(0, 2): 0.5, (4, 0): 1.0})
    worst = 0.0
    for _ in range(10):
        t = float(rng.uniform(0.0, 10.0))
        c = float(dynamics.field_integrals(pulse, t)[1])
        for h0 in (harmonic, quartic):
            res_v, res_k = dynamics.gauge_residual(h0, pulse, t)
            # the translated quartic carries coefficients up to c^4
            scale = max(1.0, h0.shift_x(c).max_abs())
            worst = max(worst, res_v.max_abs() / scale, res_k.max_abs() / scale)
    return worst <= 1e-12, f"max_rel_err={worst:.3g}"


def _chk_first_order_zero_field(rng):
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    pulse = dynamics.Pulse(E0=0.0, omega=2.0, tau=10.0)
    p23 = dynamics.first_order_transition(model, 2, 3, pulse, 10.0)
    return p23 == 0.0, f"P={p23:.3g}"


def _chk_transition_peak(rng):
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    omegas, (probability,) = dynamics.transition_sweep(
        model, 2, 3, 0.005, 1.8, 2.2, 21, 20 * math.pi, [0.0]
    )
    peak = omegas[int(np.argmax(probability))]
    step = omegas[1] - omegas[0]
    ok = abs(peak - 2.0) <= step + 1e-12 and float(np.max(probability)) <= 1.0
    return ok, f"peak_omega={peak:.6g} max_P={float(np.max(probability)):.3g}"


def _chk_eigenbasis_norm(rng):
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    pulse = dynamics.Pulse(E0=0.01, omega=2.0, tau=3.0)
    c = dynamics.eigenbasis_propagate(*models.spiked_basis(model, 5), pulse, np.eye(5)[0], 0.01, [0.0, 3.0])
    drift = float(np.max(np.abs(np.linalg.norm(c, axis=1) - 1.0)))
    return drift <= 1e-10, f"norm_drift={drift:.3g}"


def _chk_eigenbasis_stationary_state(rng):
    # without a field the ground level only turns by its exact phase exp(-i E_0 T)
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    pulse = dynamics.Pulse(E0=0.0, omega=2.0, tau=3.0)
    c = dynamics.eigenbasis_propagate(*models.spiked_basis(model, 5), pulse, np.eye(5)[0], 0.005, [0.0, 2.0])
    err = float(abs(c[-1, 0] - np.exp(-1j * models.spiked_energy(model, 0) * 2.0)))
    return err <= 1e-8, f"phase_err={err:.3g}"


def _chk_eigenbasis_first_order(rng):
    # a weak field drives level 2 of the closed-form basis; each other level's
    # amplitude, with its phase exp(-i E_n T) taken off, is the complex first
    # order -i <n|x|2> int_0^T exp(i delta s) E(s) ds, <n|x|2> from
    # spiked_matrix_element.  The gap is the second order and the Strang
    # error, 1.2e-4 E0 here, so the bound is 1e-2 E0; a wrong block (Phi'
    # Phi for Phi Phi', or D without its signs) is off by 0.086 E0 or more
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    E0, T = 1e-4, 3.0
    pulse = dynamics.Pulse(E0=E0, omega=2.0, tau=T)
    energies, coupling = models.spiked_basis(model, 5)
    c = dynamics.eigenbasis_propagate(energies, coupling, pulse, np.eye(5)[2], 0.05, [0.0, T])[-1]
    worst = 0.0
    for n in (0, 1, 3, 4):
        delta = models.spiked_energy(model, n) - models.spiked_energy(model, 2)
        integral = dynamics._carrier_field_integral(E0, pulse.omega, pulse.phase_kind, delta, T)
        first = -1j * models.spiked_matrix_element(model, "position", n, 2) * integral
        worst = max(worst, abs(np.exp(1j * energies[n] * T) * c[n] - first))
    return worst <= 1e-2 * E0, f"max_amplitude_gap={worst:.3g}"


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
    # with u = lam x^2 the overlap is the integral of u^alpha e^-u times a
    # polynomial of degree n + m <= 4, so three Gauss-Laguerre nodes are exact;
    # they and their weights come from the eigenpairs of the rule's Jacobi matrix
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    d, e = models._laguerre_jacobi(3, model.alpha)
    u, vectors = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    w = math.gamma(model.alpha + 1.0) * vectors[0] ** 2
    x = np.sqrt(u / model.lam)
    weights = w * np.exp(u) * u ** (-model.alpha - 0.5) / (2.0 * math.sqrt(model.lam))
    levels = [models.spiked_wavefunction(model, n, x) for n in range(3)]
    worst = 0.0
    for n in range(3):
        for m in range(n, 3):
            val = float(np.sum(weights * levels[n] * levels[m]))
            worst = max(worst, abs(val - (1.0 if n == m else 0.0)))
    return worst <= 1e-12, f"max_err={worst:.3g}"


def _chk_spiked_variant_equivalence(rng):
    base = SpikedHOModel(lam=0.5, alpha=0.2)
    shift = SpikedHOModel(lam=0.5, alpha=0.2, xi=0.8, variant="p_shift")
    zero_xi = SpikedHOModel(lam=0.5, alpha=0.2, xi=0.0, variant="p_squared")
    # one integral: both dressings are derived from the same <2|x|3>
    pos = models.spiked_matrix_element(base, "position", 2, 3)
    err = max(
        abs(models.spiked_matrix_element(variant, "mapped_position", 2, 3, pos) - pos)
        for variant in (shift, zero_xi)
    )
    return err <= 1e-10, f"max_err={err:.3g}"


CHECKS = [
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
    ("eigenbasis_norm", _chk_eigenbasis_norm),
    ("eigenbasis_stationary_state", _chk_eigenbasis_stationary_state),
    ("eigenbasis_first_order", _chk_eigenbasis_first_order),
    ("gordon_volkov_identity", _chk_gordon_volkov_identity),
    ("gordon_volkov_norm", _chk_gordon_volkov_norm),
    ("free_packet_spreading", _chk_free_spreading),
    ("strong_field_zero_potential", _chk_strong_field_zero_potential),
    ("spiked_energy_gap", _chk_spiked_energy_gap),
    ("spiked_orthonormality", _chk_spiked_orthonormality),
    ("spiked_variant_equivalence", _chk_spiked_variant_equivalence),
]
