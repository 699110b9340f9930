"""Model families: closed-form ladders, half-line oscillator, grid spectra.

Wavefunction oracles come from the scipy Laguerre evaluator and direct
quadrature; matrix elements from 30-digit mpmath gamma sums of the
levels expanded in monomials of x; grid eigensolvers are cross-checked against dense matrices
assembled independently in this file, and bit for bit against scipy's
band-storage driver eig_banded.
"""
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln

from pseudoherm import metric, models
from pseudoherm.models import GridSpec, SpikedHOModel
from pseudoherm.weyl import WeylSymbol, compose_weyl, fourier_swap, is_pt_symmetric


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


def test_swanson_pair_quadratic_closed_form():
    alpha, g = 1.3, 0.4
    pair = models.swanson_pair(2, 2, alpha, g)
    expect_h = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5 * alpha + 0.5 * g * g})
    expect_H = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5 * alpha, (1, 1): -1j * g})
    assert pair.h.isclose(expect_h, tol=1e-13)
    assert pair.H.isclose(expect_H, tol=1e-13)
    assert pair.ell == 2


def test_swanson_pair_cubic_generator():
    alpha, g = 0.9, 0.25
    pair = models.swanson_pair(2, 3, alpha, g)
    expect_h = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5 * alpha, (4, 0): 0.5 * g * g})
    expect_H = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5 * alpha, (2, 1): -1j * g})
    assert pair.h.isclose(expect_h, tol=1e-13)
    assert pair.H.isclose(expect_H, tol=1e-13)


def test_swanson_pair_general_shape():
    rng = np.random.default_rng(41)
    for n, m in [(2, 2), (2, 3), (4, 2), (3, 4), (6, 5)]:
        alpha = float(rng.uniform(0.2, 2.0))
        g = float(rng.uniform(0.05, 0.8))
        pair = models.swanson_pair(n, m, alpha, g)
        expect_h = models.swanson_seed(n, alpha) + WeylSymbol(
            {(2 * m - 2, 0): 0.5 * g * g}
        )
        expect_H = models.swanson_seed(n, alpha) + WeylSymbol({(m - 1, 1): -1j * g})
        assert pair.h.isclose(expect_h, tol=1e-12)
        assert pair.H.isclose(expect_H, tol=1e-12)
        # both the real x^n seed and the i g x^(m-1) p term survive the
        # combined parity flip and conjugation only at even powers
        assert is_pt_symmetric(pair.H) == (n % 2 == 0 and m % 2 == 0)


def test_swanson_zero_coupling_collapses():
    pair = models.swanson_pair(2, 2, 1.1, 0.0)
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


def test_power_potential_symbols():
    sym = models.power_potential_symbol(4, 0.7)
    assert (sym - WeylSymbol({(0, 2): 1.0, (4, 0): -0.7})).max_abs() < 1e-15
    sym = models.power_potential_symbol(2, 0.7)
    assert (sym - WeylSymbol({(0, 2): 1.0, (2, 0): 0.7})).max_abs() < 1e-15
    for N in range(1, 7):
        assert is_pt_symmetric(models.power_potential_symbol(N, 0.5))
    with pytest.raises(ValueError):
        models.power_potential_symbol(0, 1.0)
    with pytest.raises(ValueError):
        models.power_potential_symbol(4, -1.0)


# -- quartic chain ---------------------------------------------------------


def test_x4_chain_closed_forms():
    alpha, g = 1.0, 0.1
    chain = models.minus_x4_chain(alpha, g)
    H = chain.pair.H
    assert H.coefficient(1, 2) == pytest.approx(1j * g, abs=1e-14)
    assert H.coefficient(1, 0) == pytest.approx(-2j * alpha * g, abs=1e-14)
    h = chain.pair.h
    assert h.coefficient(0, 4) == pytest.approx(g * g / (4 * alpha), abs=1e-14)
    assert h.coefficient(0, 2) == pytest.approx(1.0 - g * g, abs=1e-14)
    assert h.coefficient(0, 0) == pytest.approx(-alpha + g * g * alpha, abs=1e-14)
    # metric exponent is the generator itself
    pref, expo = chain.eta_squared.terms[0]
    assert (expo - chain.pair.q).max_abs() == 0.0
    assert (pref - WeylSymbol.one()).max_abs() == 0.0


def test_x4_zero_coupling():
    chain = models.minus_x4_chain(1.3, 0.0)
    assert chain.pair.h.isclose(models.x4_seed(1.3), tol=0.0)
    assert chain.pair.H.isclose(models.x4_seed(1.3), tol=0.0)


def test_x4_dressed_position():
    alpha, g = 1.2, 0.3
    chain = models.minus_x4_chain(alpha, g)
    mapped = metric.observable_map(WeylSymbol.x(), chain.pair.q)
    expect = WeylSymbol(
        {(1, 0): 1.0, (0, 2): 0.5j * g / alpha, (0, 0): -1j * g}
    )
    assert mapped.isclose(expect, tol=1e-13)


def test_x4_partner_symbol():
    g = 0.5
    sym = models.x4_isospectral_quartic(g)
    expect = WeylSymbol({(0, 2): 1.0, (4, 0): 4 * g * g, (1, 0): -2 * g})
    assert (sym - expect).max_abs() < 1e-15
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


def test_spiked_wavefunction_derivative():
    model = SpikedHOModel(lam=0.5, alpha=0.2)
    xs = np.linspace(0.3, 5.0, 33)
    eps = 1e-6
    for n in (0, 2, 3):
        num = (
            models.spiked_wavefunction(model, n, xs + eps)
            - models.spiked_wavefunction(model, n, xs - eps)
        ) / (2 * eps)
        assert np.max(
            np.abs(models.spiked_wavefunction_derivative(model, n, xs) - num)
        ) < 1e-8


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


def mp_spiked_elements(lam, alpha, n, m):
    """<n|x|m> and <n|p|m> as 30-digit gamma sums.

    Each level is expanded in monomials, phi_k = (-1)^k N_k sum_i c_ki
    lam^i x^(2i + alpha + 1/2) e^(-lam x^2/2), differentiated term by
    term, and every product integrated with int_0^inf x^q e^(-lam x^2) dx
    = Gamma((q+1)/2) / (2 lam^((q+1)/2)).  The momentum sum is the
    integral only for alpha > -1/2 (None otherwise).
    """
    with mpmath.workdps(30):
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


@pytest.mark.parametrize("alpha", [-0.99, -0.7, -0.49, 0.0, 0.2, 1.0])
def test_spiked_matrix_elements_match_gamma_sums(alpha):
    for lam in (0.3, 1.5):
        model = SpikedHOModel(lam=lam, alpha=alpha)
        for n in range(6):
            for m in range(6):
                pos, mom = mp_spiked_elements(lam, alpha, n, m)
                got = models.spiked_matrix_element(model, "position", n, m)
                assert abs(got - pos) <= 1e-13 * abs(pos), (lam, n, m)
                if mom is None:
                    continue
                got = models.spiked_matrix_element(model, "momentum", n, m)
                if n == m:
                    # exactly zero: the levels are real
                    assert got == 0j and abs(mom) < 1e-25
                    continue
                assert abs(got - mom) <= 1e-13 * abs(mom), (lam, n, m)
                # second oracle: [H, x] = -2i p gives <n|p|m> = 2i lam (n - m) <n|x|m>
                assert mom == pytest.approx(2j * lam * (n - m) * pos, rel=1e-14)


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
    got = models.hermitian_spectrum(ho, grid, 5).eigenvalues
    assert np.max(np.abs(ref - got)) < 1e-8


def test_banded_matches_dense_pentadiagonal():
    grid = GridSpec(-6.0, 6.0, 160)
    quart = WeylSymbol.p(4) + WeylSymbol.x(2)
    xs = grid.coordinates()
    h = grid.step
    n = grid.points
    c = 1.0 / h**4
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = 6.0 * c + xs[i] ** 2
        if i + 1 < n:
            dense[i, i + 1] = dense[i + 1, i] = -4.0 * c
        if i + 2 < n:
            dense[i, i + 2] = dense[i + 2, i] = c
    ref = np.linalg.eigvalsh(dense)[:4]
    got = models.hermitian_spectrum(quart, grid, 4).eigenvalues
    assert np.max(np.abs(ref - got)) < 1e-8


def test_harmonic_levels_and_refinement():
    grid = GridSpec(-8.0, 8.0, 600)
    ho = WeylSymbol.p(2) + WeylSymbol.x(2)
    es = models.hermitian_spectrum(ho, grid, 6)
    exact = 2.0 * np.arange(6) + 1.0
    assert np.max(np.abs(es.eigenvalues - exact)) < 1e-2
    refined = models.refined_eigenvalues(ho, grid, 6, refinements=2)
    assert np.max(np.abs(refined - exact)) < 1e-6
    # eigenvectors come back orthonormal in the grid inner product
    gram = es.eigenvectors.T @ es.eigenvectors * grid.step
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_harmonic_convergence_order():
    ho = WeylSymbol.p(2) + WeylSymbol.x(2)
    errs = []
    for pts in (300, 601, 1203):
        gg = GridSpec(-8.0, 8.0, pts)
        e0 = models.hermitian_spectrum(ho, gg, 1).eigenvalues[0]
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
    levels = models.hermitian_spectrum(zero, GridSpec(0.0, 10.0, 800), 3).eigenvalues
    exact = [models.spiked_energy(zero, n) for n in range(3)]
    assert levels == pytest.approx(exact, abs=0.35)
    assert np.diff(levels) == pytest.approx([4.0, 4.0], abs=0.05)


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
    # second method: the band-storage expert driver sbevx, with the
    # absolute tolerance eig_banded picks for a selected range
    from scipy.linalg import eig_banded

    band = models.banded_hamiltonian(hamiltonian, grid)
    values, vectors = eig_banded(band, lower=False, select="i", select_range=(0, k - 1))
    got = models.hermitian_spectrum(hamiltonian, grid, k)
    assert np.array_equal(got.eigenvalues, values)
    assert np.array_equal(got.eigenvectors, vectors / math.sqrt(grid.step))


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
