"""Model families: closed-form ladders, half-line oscillator, grid spectra.

Wavefunction oracles come from the scipy Laguerre evaluator and direct
quadrature; matrix elements from 40-digit mpmath gamma sums of the
levels expanded in monomials of x, from 30-digit mpmath quadrature of
phi_n phi_m' for the momentum, and from scipy's Gauss-Laguerre nodes and
weights at high levels; grid eigensolvers are cross-checked against dense matrices
assembled independently in this file, and against scipy's band-storage
driver eig_banded and full-precision bisection to a few eps times the
band norm.
"""
import functools
import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre

from pseudoherm import identities, metric, models
from pseudoherm.models import GridSpec, SpikedHOModel
from pseudoherm.weyl import WeylSymbol, compose_weyl, is_pt_symmetric, oscillator_matrix


def fourier_swap(f):
    """Relabel (x, p) -> (-p, x): the symbol of the Fourier-transformed
    operator, isospectral with f, and for a symbol polynomial in p plus
    c x^2 a form c p^2 + V(x) that the tridiagonal grid takes."""
    return WeylSymbol({(dp, dx): c * (-1) ** dx for (dx, dp), c in f.items()})


def reference_wavefunction(model, n, x):
    """Closed-form level from the scipy Laguerre evaluator.

    The (-1)^n phase keeps the tail positive, which is the convention the
    odd Hermite functions follow through H_{2n+1}(y) = (-1)^n 2^(2n+1) n!
    y L_n^(1/2)(y^2).
    """
    lam, alpha = model.lam, model.alpha
    log_c2 = (
        math.log(2.0) + (alpha + 1) * math.log(lam) + gammaln(n + 1) - gammaln(alpha + n + 1)
    )
    c = (-1.0) ** n * math.exp(0.5 * log_c2)
    u = lam * x * x
    return c * x ** (alpha + 0.5) * np.exp(-0.5 * u) * eval_genlaguerre(n, alpha, u)


# -- gauged oscillator family ---------------------------------------------


def bch_swanson(n, m, alpha, g):
    """The Swanson pair summed from its BCH ladder, which models returns in closed form."""
    return metric.hermitian_pair_from_q(models.swanson_seed(n, alpha), models.swanson_generator(m, g), 2)


def bch_x4(alpha, g):
    """The -x^4 pair summed from its BCH ladder, which models returns in closed form."""
    return metric.hermitian_pair_from_q(models.x4_seed(alpha), models.x4_generator(alpha, g), 2)


def test_swanson_pair_quadratic_closed_form():
    alpha, g = 1.3, 0.4
    expect_h = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5 * alpha + 0.5 * g * g})
    expect_H = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5 * alpha, (1, 1): -1j * g})
    for pair in (bch_swanson(2, 2, alpha, g), models.swanson_pair(2, 2, alpha, g)):
        assert pair.h.isclose(expect_h, tol=1e-13)
        assert pair.H.isclose(expect_H, tol=1e-13)
        assert pair.ell == 2


def test_swanson_pair_cubic_generator():
    alpha, g = 0.9, 0.25
    expect_h = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5 * alpha, (4, 0): 0.5 * g * g})
    expect_H = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5 * alpha, (2, 1): -1j * g})
    for pair in (bch_swanson(2, 3, alpha, g), models.swanson_pair(2, 3, alpha, g)):
        assert pair.h.isclose(expect_h, tol=1e-13)
        assert pair.H.isclose(expect_H, tol=1e-13)


def test_swanson_pair_general_shape():
    rng = np.random.default_rng(41)
    for n, m in [(2, 2), (2, 3), (4, 2), (3, 4), (6, 5)]:
        alpha = float(rng.uniform(0.2, 2.0))
        g = float(rng.uniform(0.05, 0.8))
        expect_h = models.swanson_seed(n, alpha) + WeylSymbol(
            {(2 * m - 2, 0): 0.5 * g * g}
        )
        expect_H = models.swanson_seed(n, alpha) + WeylSymbol({(m - 1, 1): -1j * g})
        closed = models.swanson_pair(n, m, alpha, g)
        for pair in (bch_swanson(n, m, alpha, g), closed):
            assert pair.h.isclose(expect_h, tol=1e-12)
            assert pair.H.isclose(expect_H, tol=1e-12)
        assert closed.q.distance(models.swanson_generator(m, g)) == 0.0
        # both the real x^n seed and the i g x^(m-1) p term survive the
        # combined parity flip and conjugation only at even powers
        assert is_pt_symmetric(closed.H) == (n % 2 == 0 and m % 2 == 0)


def test_swanson_zero_coupling_collapses():
    for pair in (bch_swanson(2, 2, 1.1, 0.0), models.swanson_pair(2, 2, 1.1, 0.0)):
        assert pair.h.isclose(models.swanson_seed(2, 1.1), tol=0.0)
        assert pair.H.isclose(models.swanson_seed(2, 1.1), tol=0.0)


def test_swanson_substitution_routes():
    # substituting the dressed pair (x, p - i g x^(m-1)) into h gives H,
    # and into the conjugate of H gives h back
    for n, m, alpha, g in [(2, 2, 1.3, 0.4), (2, 3, 0.8, 0.3)]:
        pair = models.swanson_pair(n, m, alpha, g)
        X = WeylSymbol.x()
        P = WeylSymbol.p() - WeylSymbol.monomial(m - 1, 0, 1j * g)
        assert compose_weyl(pair.h, X, P).isclose(pair.H, tol=1e-12)
        assert compose_weyl(pair.H.conjugate(), X, P).isclose(pair.h, tol=1e-12)


def test_swanson_dressed_momentum():
    m, g = 3, 0.35
    pair = models.swanson_pair(2, m, 1.0, g)
    mapped = metric.observable_map(WeylSymbol.p(), pair.q)
    expect = WeylSymbol.p() - WeylSymbol.monomial(m - 1, 0, 1j * g)
    assert mapped.isclose(expect, tol=1e-13)


def test_swanson_validation():
    with pytest.raises(ValueError):
        models.swanson_seed(0, 1.0)
    with pytest.raises(ValueError):
        models.swanson_generator(0, 0.1)


# -- quartic chain ---------------------------------------------------------


def test_x4_chain_closed_forms():
    alpha, g = 1.0, 0.1
    closed = models.minus_x4_chain(alpha, g)
    for pair in (bch_x4(alpha, g), closed):
        H = pair.H
        assert H.coefficient(1, 2) == pytest.approx(1j * g, abs=1e-14)
        assert H.coefficient(1, 0) == pytest.approx(-2j * alpha * g, abs=1e-14)
        h = pair.h
        assert h.coefficient(0, 4) == pytest.approx(g * g / (4 * alpha), abs=1e-14)
        assert h.coefficient(0, 2) == pytest.approx(1.0 - g * g, abs=1e-14)
        assert h.coefficient(0, 0) == pytest.approx(-alpha + g * g * alpha, abs=1e-14)
    # the metric is eta^2 = exp(q), with q the generator itself
    assert closed.q.distance(models.x4_generator(alpha, g)) == 0.0
    assert metric.metric_residual(closed.H, closed.q).max_abs() <= 1e-14


def _relative_floor(sym, rel=1e-12):
    """A symbol without its terms below rel times its largest coefficient."""
    return WeylSymbol({k: c for k, c in sym.items() if abs(c) > rel * sym.max_abs()})


def test_small_coupling_keeps_the_induced_terms(monkeypatch):
    # at g = 1e-7 the induced g^2 terms sit 1e-14 below the O(1) seed
    h = models.x4_hermitian_symbol(1.0, 1e-7)
    assert h.coefficient(0, 4) == pytest.approx(2.5e-15, rel=1e-15)
    assert h.coefficient(0, 2) == pytest.approx(1.0 - 1e-14, rel=1e-15)
    assert h.coefficient(0, 0) == pytest.approx(-1.0 + 1e-14, rel=1e-15)
    assert bch_x4(1.0, 1e-7).h.coefficient(0, 4) == pytest.approx(2.5e-15, rel=1e-14)
    assert bch_swanson(2, 3, 0.5, 1e-7).h.coefficient(4, 0) == pytest.approx(5e-15, rel=1e-14)
    assert models.swanson_pair(2, 3, 0.5, 1e-7).h.coefficient(4, 0) == pytest.approx(5e-15, rel=1e-15)
    x4_case = (models.x4_seed(1.0), models.minus_x4_chain(1.0, 1e-7))
    swanson_case = (models.swanson_seed(2, 0.5), models.swanson_pair(2, 3, 0.5, 1e-7))
    for seed, closed in (x4_case, swanson_case):
        assert identities._bch_against_closed_form(seed, closed)[1]
    # a ladder that lost them (a storage floor relative to the largest
    # coefficient did) no longer passes verify-all's coefficientwise check,
    # though its largest coefficient distance is far below that check's 1e-12
    bch = metric.hermitian_pair_from_q

    def floored(h0, q, ell):
        pair = bch(h0, q, ell)
        return metric.SimilarityPair(h=_relative_floor(pair.h), H=pair.H, q=q, ell=ell)

    assert _relative_floor(bch_x4(1.0, 1e-7).h).coefficient(0, 4) == 0
    monkeypatch.setattr(metric, "hermitian_pair_from_q", floored)
    for seed, closed in (x4_case, swanson_case):
        err, matches = identities._bch_against_closed_form(seed, closed)
        assert err <= 1e-14 and not matches


def test_x4_zero_coupling():
    for pair in (bch_x4(1.3, 0.0), models.minus_x4_chain(1.3, 0.0)):
        assert pair.h.isclose(models.x4_seed(1.3), tol=0.0)
        assert pair.H.isclose(models.x4_seed(1.3), tol=0.0)


def test_x4_dressed_position():
    alpha, g = 1.2, 0.3
    mapped = metric.observable_map(WeylSymbol.x(), models.minus_x4_chain(alpha, g).q)
    expect = WeylSymbol(
        {(1, 0): 1.0, (0, 2): 0.5j * g / alpha, (0, 0): -1j * g}
    )
    assert mapped.isclose(expect, tol=1e-13)


def test_x4_partner_symbol():
    g = 0.5
    sym = models.x4_isospectral_quartic(g)
    expect = WeylSymbol({(0, 2): 1.0, (4, 0): 4 * g * g, (1, 0): -2 * g})
    assert sym.distance(expect) < 1e-15
    with pytest.raises(ValueError):
        models.x4_isospectral_quartic(0.0)


# -- half-line oscillator --------------------------------------------------


def test_spiked_energy_ladder():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    energies = [models.spiked_energy(model, n) for n in range(5)]
    assert energies == pytest.approx([1.2, 3.2, 5.2, 7.2, 9.2], abs=1e-14)
    # constant gap 4 lam between neighbours
    gaps = np.diff(energies)
    assert gaps == pytest.approx([2.0] * 4, abs=1e-14)


def test_spiked_energy_cross_parameter_identity():
    # lam(4n - 2a + 2) = lam(4(n - a/2)... the two signs of the centrifugal
    # parameter give the same value at index shifted by alpha
    lam, a = 0.7, 0.5
    minus = SpikedHOModel(lam=lam, alpha=-a)
    plus = SpikedHOModel(lam=lam, alpha=a)
    for n in (1, 2, 5):
        assert models.spiked_energy(minus, n) == pytest.approx(
            models.spiked_energy(plus, n - a), abs=1e-13
        )


def test_spiked_model_validation():
    with pytest.raises(ValueError):
        SpikedHOModel(lam=0.0, alpha=0.2)
    with pytest.raises(ValueError):
        SpikedHOModel(lam=1.0, alpha=-1.0)
    with pytest.raises(ValueError):
        SpikedHOModel(lam=1.0, alpha=0.2, variant="q_shift")
    for bad in ({"lam": math.inf}, {"alpha": math.nan}, {"xi": -math.inf}):
        with pytest.raises(ValueError, match="finite"):
            SpikedHOModel(**{"lam": 1.0, "alpha": 0.2, **bad})
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    with pytest.raises(ValueError):
        models.spiked_energy(model, -1)
    with pytest.raises(ValueError):
        models.spiked_wavefunction(model, 0, -0.5)
    with pytest.raises(ValueError):
        models.spiked_matrix_element(model, "position", -1, 0)


def test_spiked_wavefunction_matches_reference():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    xs = np.linspace(0.05, 6.0, 77)
    for n in range(6):
        mine = models.spiked_wavefunction(model, n, xs)
        ref = reference_wavefunction(model, n, xs)
        assert np.max(np.abs(mine - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_spiked_wavefunction_orthonormal():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    for n in range(4):
        for m in range(n, 4):
            val, _ = quad(
                lambda x: models.spiked_wavefunction(model, n, x)
                * models.spiked_wavefunction(model, m, x),
                0.0,
                np.inf,
            )
            assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-9)


def test_spiked_wavefunction_solves_eigenproblem():
    # fourth-order finite differences on the closed-form level
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    h = 1e-3
    xs = np.linspace(0.2, 7.0, 250)
    for n in range(4):
        phi = lambda x: models.spiked_wavefunction(model, n, x)
        d2 = (
            -phi(xs + 2 * h)
            + 16 * phi(xs + h)
            - 30 * phi(xs)
            + 16 * phi(xs - h)
            - phi(xs - 2 * h)
        ) / (12 * h * h)
        v = model.lam**2 * xs**2 + (model.alpha**2 - 0.25) / xs**2
        resid = -d2 + v * phi(xs) - models.spiked_energy(model, n) * phi(xs)
        assert np.max(np.abs(resid)) < 1e-6


def _mp_laguerre(n, a, u):
    """L_n^a(u) by the upward recurrence, in whatever arithmetic u carries."""
    if n == 0:
        return mpmath.mpf(1)
    prev, cur = 1, 1 + a - u
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + a - u) * cur - (k + a) * prev) / (k + 1)
    return cur


def spiked_wavefunction_derivative(lam, alpha, top):
    """x -> (phi_0..phi_top, phi_0'..phi_top') at x, in mpmath.

    The product rule on phi_n = (-1)^n N_n x^(a+1/2) e^(-u/2) L_n^a(u),
    u = lam x^2, with d/du L_n^a = -L_(n-1)^(a+1).  The library computes no
    derivative: <n|p|m> comes from [H, x] = -2ip, and this is its oracle.
    Values are cached by x, so every integrand on one node set evaluates
    the levels once.
    """
    lam, a = mpmath.mpf(lam), mpmath.mpf(alpha)
    half = mpmath.mpf(1) / 2
    norms = [
        (-1) ** n * mpmath.sqrt(2 * lam ** (a + 1) * mpmath.factorial(n) / mpmath.gamma(a + n + 1))
        for n in range(top + 1)
    ]

    @functools.cache
    def at(x):
        u = lam * x * x
        base = x ** (a + half) * mpmath.exp(-u / 2)
        phi = [c * base * _mp_laguerre(n, a, u) for n, c in enumerate(norms)]
        slope = [
            ((a + half) / x - lam * x) * phi[n]
            - (2 * lam * x * c * base * _mp_laguerre(n - 1, a + 1, u) if n else 0)
            for n, c in enumerate(norms)
        ]
        return phi, slope

    return at


def test_spiked_wavefunction_derivative():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    at = spiked_wavefunction_derivative(model.lam, model.alpha, 3)
    xs = np.linspace(0.3, 5.0, 33)
    eps = 1e-6
    for n in (0, 2, 3):
        num = (
            models.spiked_wavefunction(model, n, xs + eps)
            - models.spiked_wavefunction(model, n, xs - eps)
        ) / (2 * eps)
        mine = np.array([float(at(mpmath.mpf(x))[1][n]) for x in xs])
        assert np.max(np.abs(mine - num)) < 1e-8
        phi = np.array([float(at(mpmath.mpf(x))[0][n]) for x in xs])
        assert np.max(np.abs(phi - models.spiked_wavefunction(model, n, xs))) < 1e-13


@pytest.mark.parametrize("alpha", [-0.45, 0.0, 0.2, 1.0])
def test_spiked_momentum_matches_quadrature_of_the_derivative(alpha):
    # <n|p|m> = -i int phi_n phi_m' dx at 30 digits; x = t^4 tames the
    # x^(2 alpha) endpoint singularity of alpha < 0
    lam = 0.7
    model = SpikedHOModel(lam=lam, alpha=alpha)
    with mpmath.workdps(30):
        at = spiked_wavefunction_derivative(lam, alpha, 4)
        for n in range(5):
            for m in range(5):
                if n == m:
                    continue

                def integrand(t):
                    phi, slope = at(t ** 4)
                    return phi[n] * slope[m] * 4 * t ** 3

                ref = complex(0.0, -float(mpmath.quad(integrand, [0, 1, 3, mpmath.inf])))
                got = models.spiked_matrix_element(model, "momentum", n, m)
                assert abs(got - ref) <= 1e-12 * abs(ref), (n, m)


def test_spiked_node_counts():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    xs = np.linspace(0.05, 8.0, 2000)
    ground = models.spiked_wavefunction(model, 0, xs)
    assert np.all(ground > 0.0)
    excited = models.spiked_wavefunction(model, 2, xs)
    assert int(np.sum(np.diff(np.sign(excited)) != 0)) == 2


def test_spiked_matrix_elements_frozen():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    x23 = models.spiked_matrix_element(model, "position", 2, 3)
    assert x23.real == pytest.approx(1.060912736626578, abs=1e-10)
    assert abs(x23.imag) < 1e-12
    i23 = models.spiked_matrix_element(model, "momentum", 2, 3)
    assert i23 == pytest.approx(-1j * x23.real, abs=1e-10)
    # hermiticity of both observables
    x32 = models.spiked_matrix_element(model, "position", 3, 2)
    assert x32 == pytest.approx(x23, abs=1e-10)
    i32 = models.spiked_matrix_element(model, "momentum", 3, 2)
    assert i32 == pytest.approx(np.conj(i23), abs=1e-10)
    # momentum diagonal vanishes for real bound states
    i22 = models.spiked_matrix_element(model, "momentum", 2, 2)
    assert i22 == 0j


def test_spiked_mapped_elements():
    x23 = models.spiked_matrix_element(SpikedHOModel(0.5, 0.2), "position", 2, 3).real
    for xi in (0.0, 0.5, 2.0):
        model = SpikedHOModel(lam=0.5, alpha=0.2, xi=xi)
        up = models.spiked_matrix_element(model, "mapped_position", 2, 3)
        down = models.spiked_matrix_element(model, "mapped_position", 3, 2)
        assert up == pytest.approx((1 + 2 * xi) * x23, abs=1e-9)
        assert down == pytest.approx((1 - 2 * xi) * x23, abs=1e-9)
    shift = SpikedHOModel(lam=0.5, alpha=0.2, xi=0.7, variant="p_shift")
    off = models.spiked_matrix_element(shift, "mapped_position", 2, 3)
    assert off == pytest.approx(x23, abs=1e-9)
    diag = models.spiked_matrix_element(shift, "mapped_position", 2, 2)
    plain = models.spiked_matrix_element(shift, "position", 2, 2)
    assert diag == pytest.approx(plain + 0.7j, abs=1e-9)
    with pytest.raises(ValueError):
        models.spiked_matrix_element(shift, "charge", 0, 0)


@pytest.mark.parametrize("xi", [1e308, -1e308, 1.7e308])
def test_spiked_mapped_element_overflow_names_xi(xi):
    model = SpikedHOModel(lam=0.5, alpha=0.2, xi=xi)
    message = re.escape(f"x + 2i xi p leaves double precision at xi={xi:g}")
    with pytest.raises(ValueError, match=message):
        models.spiked_matrix_element(model, "mapped_position", 2, 3)
    # <2|p|2> = 0 exactly, so the diagonal keeps x
    diag = models.spiked_matrix_element(model, "mapped_position", 2, 2)
    assert diag == models.spiked_matrix_element(model, "position", 2, 2)


def mp_spiked_elements(lam, alpha, n, m):
    """<n|x|m> and <n|p|m> as 40-digit gamma sums.

    Each level is expanded in monomials, phi_k = (-1)^k N_k sum_i c_ki
    lam^i x^(2i + alpha + 1/2) e^(-lam x^2/2), differentiated term by
    term, and every product integrated with int_0^inf x^q e^(-lam x^2) dx
    = Gamma((q+1)/2) / (2 lam^((q+1)/2)).  The momentum sum is the
    integral only for alpha > -1/2 (None otherwise).
    """
    with mpmath.workdps(40):
        lam, a = mpmath.mpf(lam), mpmath.mpf(alpha)
        half = mpmath.mpf(1) / 2

        def coeffs(k):
            return [
                (-1) ** i * mpmath.binomial(k + a, k - i) / mpmath.factorial(i)
                for i in range(k + 1)
            ]

        def norm(k):
            return mpmath.sqrt(2 * lam ** (a + 1) * mpmath.factorial(k) / mpmath.gamma(a + k + 1))

        def moment(q):
            return mpmath.gamma((q + 1) / 2) / (2 * lam ** ((q + 1) / 2))

        pref = (-1) ** (n + m) * norm(n) * norm(m)
        pos = mom = mpmath.mpf(0)
        for i, ci in enumerate(coeffs(n)):
            for j, cj in enumerate(coeffs(m)):
                c = pref * ci * cj * lam ** (i + j)
                q = 2 * i + 2 * j + 2 * a
                pos += c * moment(q + 2)
                mom += c * ((2 * j + a + half) * moment(q) - lam * moment(q + 2))
        return complex(pos), (-1j * complex(mom) if alpha > -0.5 else None)


@pytest.mark.parametrize("alpha", [-0.99, -0.7, -0.49, 0.0, 0.2, 1.0, 5.0])
def test_spiked_matrix_elements_match_gamma_sums(alpha):
    for lam in (0.3, 1.5):
        model = SpikedHOModel(lam=lam, alpha=alpha)
        block = models.spiked_basis(model, 8)[1]
        for n in range(8):
            for m in range(8):
                pos, mom = mp_spiked_elements(lam, alpha, n, m)
                got = models.spiked_matrix_element(model, "position", n, m)
                assert abs(got - pos) <= 3e-13 * abs(pos), (lam, n, m)
                assert abs(block[n, m] - pos) <= 3e-13 * abs(pos), (lam, n, m)
                if mom is None:
                    continue
                got = models.spiked_matrix_element(model, "momentum", n, m)
                if n == m:
                    # exactly zero: the levels are real
                    assert got == 0j and abs(mom) < 1e-25
                    continue
                assert abs(got - mom) <= 3e-13 * abs(mom), (lam, n, m)
                # second oracle: [H, x] = -2i p gives <n|p|m> = 2i lam (n - m) <n|x|m>
                assert mom == pytest.approx(2j * lam * (n - m) * pos, rel=1e-14)


@pytest.mark.parametrize("a", [-0.7, -0.3, 0.0, 0.2, 1.0, 5.0])
def test_laguerre_jacobi_rule_is_orthogonal(a):
    # int u^a e^-u L_n^a L_m^a du = delta_nm Gamma(n + a + 1)/n!, each
    # product by its own (n+m)//2 + 1 point rule, held to the norms
    for n in range(31):
        for m in range(31):
            norms = math.exp(
                0.5 * (gammaln(n + a + 1) - gammaln(n + 1) + gammaln(m + a + 1) - gammaln(m + 1))
            )
            rows = models._laguerre_rows((n + m) // 2 + 1, max(n, m) + 1, a, a)
            got = math.gamma(a + 1) * float(rows[n] @ rows[m])
            assert abs(got / norms - (1.0 if n == m else 0.0)) <= 1e-13, (n, m)


def scipy_gauss_laguerre_position(lam, alpha, n, m):
    """<n|x|m> by the rule the library used to run: (n+m)//2 + 1 nodes and
    weights of u^(alpha+1/2) e^-u from scipy, Laguerre values from scipy."""
    nodes, weights = roots_genlaguerre((n + m) // 2 + 1, alpha + 0.5)
    total = weights @ (eval_genlaguerre(n, alpha, nodes) * eval_genlaguerre(m, alpha, nodes))

    def log_norm(k):
        return 0.5 * (math.log(2.0) + (alpha + 1) * math.log(lam) + gammaln(k + 1) - gammaln(alpha + k + 1))

    sign = (-1.0) ** (n + m)
    return sign * 0.5 * math.exp(log_norm(n) + log_norm(m)) * total / lam ** (alpha + 1.5)


@pytest.mark.parametrize(
    "lam, alpha, pairs",
    [
        (0.5, 0.2, [(0, 1), (7, 11), (40, 41), (120, 121), (3, 170), (100, 160), (169, 170), (170, 170)]),
        (1.3, -0.45, [(2, 3), (40, 41), (120, 121), (169, 170), (170, 170)]),
        (0.3, 3.0, [(2, 3), (40, 41), (120, 121)]),
    ],
)
def test_spiked_position_matches_the_scipy_rule_at_high_levels(lam, alpha, pairs):
    # |<n|x|m>| <= sqrt(<x^2>_n <x^2>_m), with <x^2>_n = (2n + alpha + 1)/lam
    # the block of max(pair) + 1 levels, one recurrence pass, is held to the same bound
    model = SpikedHOModel(lam=lam, alpha=alpha)
    block = models.spiked_basis(model, max(max(pair) for pair in pairs) + 1)[1]
    for n, m in pairs:
        got = models.spiked_matrix_element(model, "position", n, m)
        ref = scipy_gauss_laguerre_position(lam, alpha, n, m)
        bound = 1e-13 * math.sqrt((2 * n + alpha + 1) * (2 * m + alpha + 1)) / lam
        assert abs(got - ref) <= bound, (n, m)
        assert abs(block[n, m] - ref) <= bound, (n, m)


@pytest.mark.parametrize("alpha", [0.2, -0.5, -0.9, 1.3])
def test_spiked_basis_matches_the_elements(alpha):
    # in full at K = 1, 2 and 40, and sampled at K = 171 where the level
    # norms stay in double precision (alpha = 1.3 leaves it at level 170)
    model = SpikedHOModel(lam=0.5, alpha=alpha)
    blocks = [(K, [(k, l) for k in range(K) for l in range(K)]) for K in (1, 2, 40)]
    if alpha < 1:
        blocks.append((171, [(170, 3), (0, 170), (100, 101), (85, 86), (170, 170)]))
    for K, entries in blocks:
        energies, block = models.spiked_basis(model, K)
        assert energies.tolist() == [models.spiked_energy(model, k) for k in range(K)]
        assert block.shape == (K, K) and (block == block.T).all()
        scale = np.max(np.abs(block))
        for k, l in entries:
            element = models.spiked_matrix_element(model, "position", k, l).real
            assert abs(block[k, l] - element) <= 1e-15 * scale, (K, k, l)


@pytest.mark.parametrize(
    "alpha, K, message",
    [
        (0.2, 0, "1 to 171 levels, got 0"),
        (0.2, 172, "1 to 171 levels, got 172"),
        # 166! / Gamma(172) overflows: the level norms keep their own refusal
        (5.0, 171, "level-166 normalization"),
    ],
)
def test_spiked_basis_refusals(alpha, K, message):
    with pytest.raises(ValueError, match=message):
        models.spiked_basis(SpikedHOModel(lam=0.5, alpha=alpha), K)


@pytest.mark.parametrize("alpha", [-0.5, -0.7])
def test_spiked_momentum_rejects_alpha_at_or_below_minus_half(alpha):
    model = SpikedHOModel(lam=0.5, alpha=alpha, xi=0.3)
    with pytest.raises(ValueError, match="alpha > -1/2"):
        models.spiked_matrix_element(model, "momentum", 0, 1)
    with pytest.raises(ValueError, match="alpha > -1/2"):
        models.spiked_matrix_element(model, "mapped_position", 0, 1)


def test_spiked_p_shift_mapped_position_below_minus_half():
    # the p_shift dressing x + i xi never needs the momentum element
    model = SpikedHOModel(lam=0.5, alpha=-0.7, xi=0.4, variant="p_shift")
    pos, _ = mp_spiked_elements(0.5, -0.7, 0, 1)
    off = models.spiked_matrix_element(model, "mapped_position", 0, 1)
    assert off == pytest.approx(pos, rel=1e-13)
    diag = models.spiked_matrix_element(model, "mapped_position", 1, 1)
    assert diag == pytest.approx(mp_spiked_elements(0.5, -0.7, 1, 1)[0] + 0.4j, rel=1e-13)


# -- grid spectra ----------------------------------------------------------


def test_grid_spec_interior_nodes():
    grid = GridSpec(-2.0, 2.0, 31)
    xs = grid.coordinates()
    assert len(xs) == 31
    assert xs[0] == pytest.approx(-2.0 + grid.step)
    assert xs[-1] == pytest.approx(2.0 - grid.step)
    assert np.allclose(np.diff(xs), grid.step)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 100)


@pytest.mark.parametrize(
    "x_min, x_max, points",
    [(-math.inf, 1.0, 100), (0.0, math.inf, 100), (math.nan, 1.0, 100), (0.0, 1.0, 100.5),
     (0.0, 1.0, 100.0), (0.0, 1.0, "100"), (0.0, 1.0, True)],
)
def test_grid_spec_rejects_non_finite_ends_and_non_integral_points(x_min, x_max, points):
    with pytest.raises(ValueError):
        GridSpec(x_min, x_max, points)


def test_grid_spec_accepts_numpy_integer_points():
    assert GridSpec(0.0, 1.0, np.int64(100)).coordinates().size == 100


def test_grid_spec_refuses_points_above_max_points(monkeypatch):
    # refused in the constructor, before coordinates() builds any array
    with pytest.raises(ValueError, match="MAX_POINTS"):
        GridSpec(0.0, 14.0, 10**12)
    with pytest.raises(ValueError, match="MAX_POINTS"):
        GridSpec(0.0, 14.0, models.MAX_POINTS + 1)
    assert GridSpec(0.0, 14.0, models.MAX_POINTS).points == models.MAX_POINTS
    # a refinement whose finest grid is too large solves nothing
    solves = []
    monkeypatch.setattr(models, "hermitian_spectrum", lambda *args: solves.append(args))
    for refinements in (30, 10**20):
        with pytest.raises(ValueError, match="MAX_POINTS"):
            models.refined_eigenvalues(WeylSymbol.p(2), GridSpec(0.0, 14.0, 200), 2, refinements)
    assert solves == []


def test_banded_matches_dense_tridiagonal():
    grid = GridSpec(-6.0, 6.0, 160)
    ho = WeylSymbol.p(2) + WeylSymbol.x(2)
    xs = grid.coordinates()
    h = grid.step
    n = grid.points
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = 2.0 / h**2 + xs[i] ** 2
        if i + 1 < n:
            dense[i, i + 1] = dense[i + 1, i] = -1.0 / h**2
    ref = np.linalg.eigvalsh(dense)[:5]
    got, _ = models.hermitian_spectrum(ho, grid, 5)
    assert np.max(np.abs(ref - got)) < 1e-8


def test_harmonic_levels_and_refinement():
    grid = GridSpec(-8.0, 8.0, 600)
    ho = WeylSymbol.p(2) + WeylSymbol.x(2)
    energies, vectors = models.hermitian_spectrum(ho, grid, 6)
    exact = 2.0 * np.arange(6) + 1.0
    assert np.max(np.abs(energies - exact)) < 1e-2
    refined = models.refined_eigenvalues(ho, grid, 6, refinements=2)
    assert np.max(np.abs(refined - exact)) < 1e-6
    # eigenvectors come back orthonormal in the grid inner product
    gram = vectors.T @ vectors * grid.step
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_harmonic_convergence_order():
    ho = WeylSymbol.p(2) + WeylSymbol.x(2)
    errs = []
    for pts in (300, 601, 1203):
        gg = GridSpec(-8.0, 8.0, pts)
        (e0,), _ = models.hermitian_spectrum(ho, gg, 1)
        errs.append(abs(e0 - 1.0))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.1)


def test_spiked_grid_spectrum():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    grid = GridSpec(0.0, 12.0, 700)
    refined = models.refined_eigenvalues(model, grid, 5, refinements=2)
    exact = np.array([models.spiked_energy(model, n) for n in range(5)])
    assert np.max(np.abs(refined - exact)) < 5e-3
    with pytest.raises(ValueError):
        models.banded_hamiltonian(model, GridSpec(-1.0, 12.0, 100))


def test_spiked_grid_rejects_negative_alpha():
    # the grid potential depends on alpha^2 only, so alpha < 0 would
    # silently give the levels of -alpha
    grid = GridSpec(0.0, 10.0, 400)
    with pytest.raises(ValueError, match="alpha >= 0"):
        models.banded_hamiltonian(SpikedHOModel(lam=1.0, alpha=-0.7), grid)
    with pytest.raises(ValueError, match="alpha >= 0"):
        models.hermitian_spectrum(SpikedHOModel(lam=1.0, alpha=-1e-9), grid, 3)
    # alpha = 0 (potential -1/(4 x^2)) still solves; the x^(1/2) edge
    # behaviour converges slowly, but the level spacing 4 lam is sharp
    zero = SpikedHOModel(lam=1.0, alpha=0.0)
    levels, _ = models.hermitian_spectrum(zero, GridSpec(0.0, 10.0, 800), 3)
    exact = [models.spiked_energy(zero, n) for n in range(3)]
    assert levels == pytest.approx(exact, abs=0.35)
    assert np.diff(levels) == pytest.approx([4.0, 4.0], abs=0.05)


def tridiagonal_residuals(d, e, values, vectors):
    """|T v_j - theta_j v_j| per column, T with diagonal d and off-diagonal e."""
    from scipy.sparse import diags

    T = diags([e, d, e], [-1, 0, 1])
    return np.linalg.norm(T @ vectors - vectors * values, axis=0)


@pytest.mark.parametrize(
    "hamiltonian, grid, k",
    [
        (SpikedHOModel(lam=0.7, alpha=0.3), GridSpec(0.0, 14.0, 1400), 4),
        (SpikedHOModel(lam=0.4, alpha=0.0), GridSpec(0.0, 20.0, 4000), 5),
        (SpikedHOModel(lam=1.0, alpha=0.9), GridSpec(0.0, 8.0, 4003), 10),
        (models.x4_isospectral_quartic(0.6), GridSpec(-6.0, 6.0, 4000), 6),
        (models.x4_isospectral_quartic(1.3), GridSpec(-5.0, 5.0, 1000), 10),
        (fourier_swap(models.x4_hermitian_symbol(1.0, 0.3)), GridSpec(-8.0, 8.0, 600), 5),
    ],
)
def test_hermitian_spectrum_matches_eig_banded_bitwise(hamiltonian, grid, k):
    # Two second methods: scipy's band-storage expert driver (sbevx, the
    # absolute tolerance eig_banded picks for a selected range) and
    # bisection to full precision.  The bounds are in units of eps |T|,
    # |T| the largest absolute row sum of the band: the eigenvalues agree
    # to 2 (measured <= 0.13), every residual meets the 16 of the solver's
    # gate (measured <= 3; sbevx's own pairs read up to 1.7), the grid
    # Gram matrix is the identity to 64 eps (measured <= 16.5 eps) and
    # each vector has sbevx's sign and lies within 0.1 eps |T| / gap of it
    # (measured <= 0.016), gap the smallest level spacing.
    from scipy.linalg import eig_banded, eigvalsh_tridiagonal, lapack

    band = models.banded_hamiltonian(hamiltonian, grid)
    assert band.shape[0] == 2
    d, e = band[1], band[0, 1:]
    rows = np.abs(d)
    rows[:-1] += np.abs(e)
    rows[1:] += np.abs(e)
    unit = np.finfo(float).eps * np.max(rows)
    values, vectors = eig_banded(band, lower=False, select="i", select_range=(0, k - 1))
    bisected = eigvalsh_tridiagonal(
        d, e, select="i", select_range=(0, k - 1), tol=2.0 * lapack.dlamch("S")
    )
    energies, grid_vectors = models.hermitian_spectrum(hamiltonian, grid, k)
    assert np.max(np.abs(energies - values)) <= 2.0 * unit
    assert np.max(np.abs(energies - bisected)) <= 2.0 * unit
    unit_vectors = grid_vectors * math.sqrt(grid.step)
    residuals = tridiagonal_residuals(d, e, energies, unit_vectors)
    assert np.max(residuals) <= models.RESIDUAL_ULPS * unit
    gram = grid.step * grid_vectors.T @ grid_vectors
    assert np.max(np.abs(gram - np.eye(k))) <= 64 * np.finfo(float).eps
    gap = np.min(np.diff(bisected))
    assert np.max(np.abs(unit_vectors - vectors)) <= 0.1 * unit / gap


def test_tridiagonal_solve_falls_back_to_full_bisection_for_close_levels():
    # six levels 1.25e-5 apart under a norm of 1e10: bisection to 1e-8 |T|
    # cannot tell them apart (the coarse pass leaves a residual of about
    # 650 eps |T| and levels 2.3e-3 off), so the gate must send the solve
    # to LAPACK's own tolerance, which agrees with full-precision
    # bisection to 3e-13
    from scipy.linalg import eigvalsh_tridiagonal, lapack

    n, k = 200, 6
    d = 2e-3 + 1e-8 * np.arange(n) ** 2.0
    d[-1] = 1e10
    e = np.full(n - 1, -1e-3)
    norm = 1e10 + 1e-3
    exact = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
                                 tol=2.0 * lapack.dlamch("S"))
    coarse = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, k - 1), tol=1e-8 * norm)
    assert np.max(np.abs(coarse - exact)) > 1e-4
    values, vectors = models._tridiagonal_eigenpairs(d, e, 0, k)
    assert np.max(np.abs(values - exact)) <= 1e-12
    residuals = tridiagonal_residuals(d, e, values, vectors)
    assert np.max(residuals) <= models.RESIDUAL_ULPS * np.finfo(float).eps * norm
    assert np.max(np.abs(vectors.T @ vectors - np.eye(k))) <= 64 * np.finfo(float).eps


def test_tridiagonal_residual_gate_can_refuse(monkeypatch):
    # with no tolerance at all the full-precision pass misses the gate as
    # well, and the solve raises instead of returning its pairs
    model, grid = SpikedHOModel(lam=0.5, alpha=0.2), GridSpec(0.0, 14.0, 400)
    assert models.hermitian_spectrum(model, grid, 5)[0].size == 5
    monkeypatch.setattr(models, "RESIDUAL_ULPS", 0)
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        models.hermitian_spectrum(model, grid, 5)


def test_refined_eigenvalues_refuse_levels_put_out_of_order():
    # at alpha = 1e-300 the kinetic term of the swapped x4h form is below
    # rounding on the grid, each level sits on one grid point of the
    # 2.5e297 x^4 wall, and extrapolating between grids whose points differ
    # reorders them (it printed -6.05e292, 1.82e293, -4.66e294)
    h = fourier_swap(models.x4_hermitian_symbol(1e-300, 0.1))
    grid = GridSpec(-6.0, 6.0, 64)
    assert np.all(np.diff(models.hermitian_spectrum(h, grid, 3)[0]) > 0)
    with pytest.raises(ValueError, match="out of order"):
        models.refined_eigenvalues(h, grid, 3, refinements=1)


def test_fourier_swap_preserves_spectrum():
    # anisotropic oscillator and its momentum-space relabeling
    grid = GridSpec(-8.0, 8.0, 600)
    aniso = WeylSymbol.p(2) + WeylSymbol.x(2) * 4.0
    swapped = fourier_swap(aniso)
    assert swapped.isclose(WeylSymbol.p(2) * 4.0 + WeylSymbol.x(2), tol=0.0)
    a = models.refined_eigenvalues(aniso, grid, 4, refinements=2)
    b = models.refined_eigenvalues(swapped, grid, 4, refinements=2)
    assert np.max(np.abs(a - b)) < 1e-6
    assert a == pytest.approx(4.0 * np.arange(4) + 2.0, abs=1e-6)


def test_grid_hamiltonian_validation():
    grid = GridSpec(-4.0, 4.0, 100)
    with pytest.raises(ValueError):
        models.hermitian_spectrum(WeylSymbol.p(3) + WeylSymbol.x(2), grid, 2)
    with pytest.raises(ValueError):
        models.hermitian_spectrum(WeylSymbol.monomial(1, 1) + WeylSymbol.p(2), grid, 2)
    with pytest.raises(ValueError):
        models.hermitian_spectrum(WeylSymbol.monomial(2, 0, 1j) + WeylSymbol.p(2), grid, 2)
    with pytest.raises(ValueError):
        models.hermitian_spectrum(WeylSymbol.p(2), grid, 0)
    with pytest.raises(ValueError):
        models.hermitian_spectrum(WeylSymbol.p(2), grid, 101)
    with pytest.raises(ValueError):
        models.refined_eigenvalues(WeylSymbol.p(2), grid, 2, refinements=0)


@pytest.mark.parametrize(
    "symbol, message",
    [
        (WeylSymbol.p(4) + WeylSymbol.x(2), "oscillator_levels"),
        (WeylSymbol.p(2) * 0.5 + WeylSymbol.p(4) * 0.02 + WeylSymbol.x(2) * 0.5, "oscillator_levels"),
        (WeylSymbol.p(6) + WeylSymbol.p(2), "oscillator_levels"),
        (WeylSymbol.x(2), "p\\^2 term"),
        (WeylSymbol.x(4) - WeylSymbol.x(1), "p\\^2 term"),
    ],
)
def test_grid_hamiltonian_takes_p_squared_and_a_potential_only(symbol, message):
    # the band is tridiagonal: any momentum power but p^2 is refused, and
    # so is a symbol without p^2 (no kinetic term is supplied for it)
    grid = GridSpec(-8.0, 8.0, 100)
    with pytest.raises(ValueError, match=message):
        models.banded_hamiltonian(symbol, grid)
    with pytest.raises(ValueError, match=message):
        models.hermitian_spectrum(symbol, grid, 2)


def test_quartic_momentum_symbol_solves_through_its_fourier_image():
    h = models.x4_hermitian_symbol(1.0, 0.3)
    grid = GridSpec(-8.0, 8.0, 400)
    with pytest.raises(ValueError, match="oscillator_levels"):
        models.hermitian_spectrum(h, grid, 3)
    levels, _ = models.hermitian_spectrum(fourier_swap(h), grid, 3)
    assert np.all(np.diff(levels) > 0)


@pytest.mark.parametrize(
    "hamiltonian, grid",
    [
        (SpikedHOModel(lam=0.7, alpha=0.3), GridSpec(0.0, 14.0, 1400)),
    ],
)
def test_hermitian_spectrum_upper_levels_match_the_full_solve(hamiltonian, grid):
    full_energies, full_vectors = models.hermitian_spectrum(hamiltonian, grid, 9)
    energies, vectors = models.hermitian_spectrum(hamiltonian, grid, 9, first=5)
    assert energies == pytest.approx(full_energies[5:], rel=1e-14)
    # the same vectors up to sign
    signs = np.sign(np.sum(vectors * full_vectors[:, 5:], axis=0))
    assert np.max(np.abs(vectors * signs - full_vectors[:, 5:])) < 1e-9
    for first in (-1, 9):
        with pytest.raises(ValueError, match="first"):
            models.hermitian_spectrum(hamiltonian, grid, 9, first=first)


@pytest.mark.parametrize(
    "model, grid",
    [
        (SpikedHOModel(lam=1e300, alpha=0.2), GridSpec(0.0, 14.0, 100)),
        (SpikedHOModel(lam=0.5, alpha=1e300), GridSpec(0.0, 14.0, 100)),
        (SpikedHOModel(lam=0.5, alpha=0.2), GridSpec(0.0, 1e300, 100)),
        (SpikedHOModel(lam=0.5, alpha=0.2), GridSpec(0.0, 1e-300, 100)),
        (WeylSymbol.p(2) + WeylSymbol.x(8), GridSpec(-1e50, 1e50, 100)),
    ],
)
def test_grid_hamiltonian_outside_double_precision_is_rejected(model, grid):
    with pytest.raises(ValueError, match="leaves double precision"):
        models.banded_hamiltonian(model, grid)


@pytest.mark.parametrize(
    "lam, alpha, n, message",
    [
        (1e-300, 0.2, 2, "level-2 normalization"),
        (1e-250, 0.2, 2, "lam\\^\\(alpha\\+3/2\\)"),
        (1e300, 0.2, 2, "level-2 normalization"),
        (0.5, 1e6, 2, "level-2 normalization"),
        (0.5, 0.2, 171, "above 170"),
    ],
)
def test_spiked_elements_outside_double_precision_are_rejected(lam, alpha, n, message):
    model = SpikedHOModel(lam=lam, alpha=alpha)
    with pytest.raises(ValueError, match=message):
        models.spiked_matrix_element(model, "position", n, 3)
    # the largest level whose factorial a double holds still works
    edge = models.spiked_matrix_element(SpikedHOModel(lam=0.5, alpha=0.2), "position", 170, 3)
    assert math.isfinite(edge.real) and edge.real != 0.0


# -- oscillator-basis levels ------------------------------------------------


CHAIN_PARAMS = [(1.0, 0.1), (0.7, 0.3), (1.5, 0.45), (0.5, 0.05)]


@pytest.mark.parametrize("alpha, g", CHAIN_PARAMS)
def test_oscillator_levels_are_the_eigenvalues_of_the_nonhermitian_chain(alpha, g):
    # the paper's H = eta^-1 h eta on the spectrum, with no metric computed:
    # eigvals of the map of the non-Hermitian H (80 states, scale 1) are
    # the Hermitian h's levels, real to rounding (1.2e-12 seen)
    levels = models.oscillator_levels(models.x4_hermitian_symbol(alpha, g), 6)
    values = np.linalg.eigvals(oscillator_matrix(models.x4_nonhermitian_symbol(alpha, g), 80))
    values = values[np.argsort(values.real)][:6]
    assert np.abs(values - levels).max() <= 1e-10


@pytest.mark.parametrize(
    "symbol",
    [models.x4_hermitian_symbol(a, g) for a, g in CHAIN_PARAMS]
    + [models.x4_isospectral_quartic(g) for g in (0.2, 0.5, 1.0)],
)
def test_oscillator_levels_match_a_300_state_solve(symbol):
    # the growth rule stops where two bases agree to LEVEL_TOL; a fixed
    # 300-state basis at scale 1 agrees to 5.5e-11 (xt4 at g = 1)
    levels = models.oscillator_levels(symbol, 8)
    reference = np.linalg.eigvalsh(oscillator_matrix(symbol, 300))[:8]
    assert np.all(np.abs(levels - reference) <= 10 * models.LEVEL_TOL * np.maximum(1.0, np.abs(reference)))


@pytest.mark.parametrize(
    "symbol, grid",
    [
        (fourier_swap(models.x4_hermitian_symbol(1.0, 0.1)), GridSpec(-8.0, 8.0, 1000)),
        (fourier_swap(models.x4_hermitian_symbol(1.5, 0.45)), GridSpec(-8.0, 8.0, 1000)),
        (models.x4_isospectral_quartic(0.3), GridSpec(-6.0, 6.0, 1000)),
        (models.x4_isospectral_quartic(0.8), GridSpec(-6.0, 6.0, 1000)),
    ],
)
def test_oscillator_levels_agree_with_the_refined_grid(symbol, grid):
    # a second method: the FD grid with Richardson over 1000, 2001 and 4003
    # points.  Its levels move from the finest grid by a correction of
    # 1e-6 to 4e-4 and land within 1e-3 of it on the oscillator levels
    # (1.1e-4 of it seen); the Fourier relabel of x4h is isospectral
    levels = models.oscillator_levels(symbol, 6)
    refined = models.refined_eigenvalues(symbol, grid, 6, refinements=2)
    finest = models.hermitian_spectrum(symbol, replace(grid, points=4 * grid.points + 3), 6)[0]
    assert np.all(np.abs(refined - levels) <= 1e-3 * np.abs(refined - finest))


def test_oscillator_levels_of_quadratic_symbols_are_exact():
    # p^2 + 4 x^2 and the Fourier-related 2.25 p^2 + x^2 - 3 x: levels
    # omega (2n + 1) + shift, the scale candidate is the exact oscillator
    # length, and the first basis already holds the levels to rounding
    levels = models.oscillator_levels(WeylSymbol.p(2) + WeylSymbol.x(2) * 4.0, 5)
    assert levels == pytest.approx(2.0 * (2 * np.arange(5) + 1), rel=1e-14, abs=0)
    shifted = WeylSymbol({(0, 2): 2.25, (2, 0): 1.0, (1, 0): -3.0})
    # 2.25 p^2 + (x - 3/2)^2 - 9/4
    levels = models.oscillator_levels(shifted, 5)
    assert levels == pytest.approx(1.5 * (2 * np.arange(5) + 1) - 2.25, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize(
    "symbol, k, message",
    [
        (models.x4_nonhermitian_symbol(1.0, 0.1), 3, "Hermitian symbol"),
        # no pure power of p, an odd top power, a negative top power, and
        # a mixed term x^2 p^2 that p^2 + x^4 does not outweigh (1/2 + 1 > 1)
        (WeylSymbol.x(2), 3, "not bounded below"),
        (WeylSymbol.p(2) + WeylSymbol.x(3), 3, "not bounded below"),
        (WeylSymbol.p(2) - WeylSymbol.x(4) + WeylSymbol.x(2), 3, "not bounded below"),
        (WeylSymbol.p(2) + WeylSymbol.x(4) + WeylSymbol.monomial(2, 2, 0.1), 3, "not bounded below"),
        (models.x4_isospectral_quartic(1e-300), 3, "not bounded below"),
        (WeylSymbol.p(2) + WeylSymbol.x(2), 0, "must be positive"),
        (WeylSymbol.p(2) + WeylSymbol.x(2), 10**20, "above MAX_BASIS"),
        (WeylSymbol.p(2) + WeylSymbol.x(2), 2**63, "above MAX_BASIS"),
        # p^4 / x^2 = 2.5e297 / 1e-300 overflows
        (models.x4_hermitian_symbol(1e-300, 0.1), 3, "leaves double precision"),
        (WeylSymbol.p(2) * 1e-300 + WeylSymbol.x(2) * 1e300, 3, "leaves double precision"),
    ],
)
def test_oscillator_levels_refusals(symbol, k, message):
    with pytest.raises(ValueError, match=message):
        models.oscillator_levels(symbol, k)


def test_oscillator_levels_refuse_levels_that_do_not_settle_below_the_cap(monkeypatch):
    # xt4 at g = 0.5 settles at 72 states; a cap of 60 stops the growth first
    symbol = models.x4_isospectral_quartic(0.5)
    assert models.oscillator_levels(symbol, 3).size == 3
    monkeypatch.setattr(models, "MAX_BASIS", 60)
    with pytest.raises(ValueError, match="do not settle"):
        models.oscillator_levels(symbol, 3)
