"""Similarity-transform layer: exact coefficient tables and BCH consistency.

Oracles: the Seidel boustrophedon triangle regenerates the secant numbers
by pure addition, and exact Fraction series division of sinh/cosh at half
argument regenerates the odd-order weights, since the two weight families
are the Taylor coefficients of tanh(t/2) and sech(t/2).  The deep
commutator chain p^5 with generator g x^2 exercises three odd and two
even weights at once and closes under conjugation round trips.
"""
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pseudoherm import metric, models
from pseudoherm.metric import (
    BchSeries,
    MetricConvergenceError,
    TerminationError,
    conjugate_by_exp,
    euler_numbers,
    hermitian_pair_from_q,
    kappa,
    metric_residual,
    nfold_commutator,
    observable_map,
    solve_metric_ansatz,
)
from pseudoherm.weyl import WeylSymbol, oscillator_matrix


def zigzag_secant(count):
    """Secant numbers via the boustrophedon transform of 1, 0, 0, ..."""
    row = [1]
    zigzag = [1]
    for n in range(1, 2 * count + 1):
        new = [0]
        for k in range(n):
            new.append(new[k] + row[n - 1 - k])
        row = new
        zigzag.append(row[-1])
    return [zigzag[2 * i] for i in range(1, count + 1)]


def half_argument_series(n_coeffs):
    """Exact Taylor coefficients of tanh(t/2) and sech(t/2) up to t^n_coeffs."""
    half = Fraction(1, 2)
    sinh = [
        half**k / math.factorial(k) if k % 2 == 1 else Fraction(0) for k in range(n_coeffs + 1)
    ]
    cosh = [
        half**k / math.factorial(k) if k % 2 == 0 else Fraction(0) for k in range(n_coeffs + 1)
    ]
    tanh = []
    for k in range(n_coeffs + 1):
        tanh.append(sinh[k] - sum(tanh[j] * cosh[k - j] for j in range(k)))
    sech = []
    for k in range(n_coeffs + 1):
        if k == 0:
            sech.append(Fraction(1))
        else:
            sech.append(-sum(sech[j] * cosh[k - j] for j in range(k)))
    return tanh, sech


def harmonic_case(gamma):
    """Free kinetic seed with the quadratic generator; everything closed form."""
    h0 = WeylSymbol.p(2) * 0.5
    q = WeylSymbol.monomial(2, 0, gamma)
    return h0, q


def test_euler_numbers_match_zigzag_triangle():
    assert euler_numbers(8) == zigzag_secant(8)


def test_euler_numbers_reference_values():
    # E_1..E_5 are the euler_numbers identity; these are the domain ends
    assert euler_numbers(0) == []
    with pytest.raises(ValueError):
        euler_numbers(-1)


def test_kappa_odd_only():
    for bad in (0, 2, -3, 4):
        with pytest.raises(ValueError):
            kappa(bad)


def test_weights_are_half_argument_taylor_coefficients():
    # kappa_n / n! is the t^n coefficient of tanh(t/2);
    # (-1)^n E_n / (4^n (2n)!) is the t^(2n) coefficient of sech(t/2)
    tanh, sech = half_argument_series(13)
    for n in range(1, 14, 2):
        assert kappa(n) / math.factorial(n) == tanh[n]
    eulers = euler_numbers(6)
    for n in range(1, 7):
        weight = Fraction((-1) ** n * eulers[n - 1], 4**n * math.factorial(2 * n))
        assert weight == sech[2 * n]


def test_commutator_ladder_closed_forms():
    gamma = 0.45
    h0, q = harmonic_case(gamma)
    c1 = nfold_commutator(q, h0, 1)
    assert c1.distance(WeylSymbol.monomial(1, 1, 2j * gamma)) < 1e-15
    c2 = nfold_commutator(q, h0, 2)
    assert c2.distance(WeylSymbol.monomial(2, 0, -4.0 * gamma * gamma)) < 1e-15
    assert nfold_commutator(q, h0, 3).is_zero()
    assert nfold_commutator(q, h0, 0) is h0


def test_hermitian_pair_quadratic_generator():
    gamma = 0.45
    h0, q = harmonic_case(gamma)
    pair = hermitian_pair_from_q(h0, q, ell=2)
    expect_h = h0 + WeylSymbol.monomial(2, 0, 0.5 * gamma * gamma)
    expect_H = h0 - WeylSymbol.monomial(1, 1, 1j * gamma)
    assert pair.h.distance(expect_h) < 1e-14
    assert pair.H.distance(expect_H) < 1e-14
    assert pair.h.conjugate().isclose(pair.h)
    assert not pair.H.conjugate().isclose(pair.H)


def test_hermitian_pair_deep_chain():
    # seed p^5 with generator g x^2 runs the chain to order five, using
    # three odd and two even weights; the closed forms below follow from
    # the exact ladder [x^2, f] = 2 i x d f / d p
    g = 0.37
    h0 = WeylSymbol.p(5)
    q = WeylSymbol.monomial(2, 0, g)
    pair = hermitian_pair_from_q(h0, q, ell=5)
    expect_h = WeylSymbol(
        {(0, 5): 1.0, (2, 3): 10.0 * g**2, (4, 1): 25.0 * g**4}
    )
    expect_H = WeylSymbol(
        {
            (0, 5): 1.0,
            (1, 4): -5j * g,
            (3, 2): -20j * g**3,
            (5, 0): -16j * g**5,
        }
    )
    assert pair.h.isclose(expect_h, tol=1e-12)
    assert pair.H.isclose(expect_H, tol=1e-12)


def test_pair_conjugation_round_trips():
    # eta H eta^-1 must rebuild h (generator q/2), and the reverse
    # conjugation rebuilds H; this ties every weight to the BCH sum
    for h0, q, ell in [
        (WeylSymbol.p(2) * 0.5, WeylSymbol.monomial(2, 0, 0.45), 2),
        (WeylSymbol.p(5), WeylSymbol.monomial(2, 0, 0.37), 5),
        (WeylSymbol.p(4), WeylSymbol.monomial(2, 0, -0.21), 4),
    ]:
        pair = hermitian_pair_from_q(h0, q, ell)
        fwd = conjugate_by_exp(0.5 * q, pair.H)
        assert fwd.terminated
        assert fwd.value.isclose(pair.h, tol=1e-12)
        back = conjugate_by_exp(-0.5 * q, pair.h)
        assert back.terminated
        assert back.value.isclose(pair.H, tol=1e-12)


def test_hermitian_pair_validation():
    h0, q = harmonic_case(0.3)
    with pytest.raises(ValueError):
        hermitian_pair_from_q(WeylSymbol.monomial(1, 1, 1j), q, 2)
    with pytest.raises(ValueError):
        hermitian_pair_from_q(h0, q, -1)


def test_hermitian_pair_termination_error():
    # the dilation-like generator x p never closes the chain
    h0 = WeylSymbol.p(2) * 0.5
    q = WeylSymbol.monomial(1, 1, 0.2)
    with pytest.raises(TerminationError) as info:
        hermitian_pair_from_q(h0, q, 2)
    assert info.value.order == 3


def test_conjugate_by_exp_momentum_shift():
    # exp(xi p) x exp(-xi p) = x - i xi, an order-one series
    xi = 0.8
    series = conjugate_by_exp(WeylSymbol.monomial(0, 1, xi), WeylSymbol.x())
    assert isinstance(series, BchSeries)
    assert series.terminated
    assert series.order == 1
    expect = WeylSymbol.x() - WeylSymbol.constant(1j * xi)
    assert series.value.distance(expect) < 1e-15


def test_conjugate_by_exp_unterminated():
    q = WeylSymbol.monomial(1, 1, 0.2)
    series = conjugate_by_exp(q, WeylSymbol.x(), max_order=6)
    assert not series.terminated
    assert series.order == 6
    with pytest.raises(ValueError):
        conjugate_by_exp(q, WeylSymbol.x(), max_order=-2)
    # 1/n! leaves double precision above order 170: order 171 raised OverflowError
    assert conjugate_by_exp(q, WeylSymbol.x(), max_order=170).order == 170
    with pytest.raises(ValueError, match="170"):
        conjugate_by_exp(q, WeylSymbol.x(), max_order=171)


def test_observable_map_examples():
    # q = -2 xi p dresses position into x - i xi
    xi = 0.35
    mapped = observable_map(WeylSymbol.x(), WeylSymbol.monomial(0, 1, -2.0 * xi))
    assert mapped.distance(WeylSymbol.x() - WeylSymbol.constant(1j * xi)) < 1e-15
    # q = gamma x^2 dresses momentum into p - i gamma x
    gamma = 0.6
    mapped = observable_map(WeylSymbol.p(), WeylSymbol.monomial(2, 0, gamma))
    assert mapped.distance(WeylSymbol.p() - WeylSymbol.monomial(1, 0, 1j * gamma)) < 1e-15


def test_observable_map_termination_error():
    with pytest.raises(TerminationError):
        observable_map(WeylSymbol.x(), WeylSymbol.monomial(1, 1, 2.0), max_order=8)


def _gauged_hamiltonian(alpha, g):
    # p^2/2 + alpha x^2 / 2 - i g x p, pseudo-Hermitian under exp(g x^2)
    return WeylSymbol({(0, 2): 0.5, (2, 0): 0.5 * alpha, (1, 1): -1j * g})


def test_metric_residual_vanishes_on_exact_metric():
    H = _gauged_hamiltonian(1.3, 0.4)
    assert metric_residual(H, WeylSymbol.monomial(2, 0, 0.4)).max_abs() <= 1e-14


def test_metric_residual_frozen_defect():
    # doubling the exponent leaves the single defect -2ig xp exp(2g x^2)
    alpha, g = 1.1, 0.4
    H = _gauged_hamiltonian(alpha, g)
    res = metric_residual(H, WeylSymbol.monomial(2, 0, 2 * g))
    assert res.distance(WeylSymbol.monomial(1, 1, -2j * g)) < 1e-14


def test_solve_metric_ansatz_recovers_position_gaussian():
    alpha, g = 1.3, 0.4
    H = _gauged_hamiltonian(alpha, g)
    sol = solve_metric_ansatz(H, [(2, 0)])
    assert abs(sol.coefficients[(2, 0)] - g) < 1e-10
    assert sol.residual_norm < 1e-10
    assert metric_residual(H, sol.exponent).max_abs() <= 1e-9


def test_solve_metric_ansatz_recovers_momentum_gaussian():
    alpha, g = 1.3, 0.4
    H = _gauged_hamiltonian(alpha, g)
    sol = solve_metric_ansatz(H, [(0, 2)])
    assert abs(sol.coefficients[(0, 2)] + g / alpha) < 1e-10


def test_solve_metric_ansatz_deterministic():
    H = _gauged_hamiltonian(0.9, 0.25)
    a = solve_metric_ansatz(H, [(2, 0)])
    b = solve_metric_ansatz(H, [(2, 0)])
    assert a.coefficients == b.coefficients


def test_solve_metric_ansatz_failure_reports_residual():
    H = _gauged_hamiltonian(1.0, 0.3)
    with pytest.raises(MetricConvergenceError) as info:
        solve_metric_ansatz(H, [(1, 0)], max_tries=2)
    assert info.value.best_residual is not None
    assert info.value.best_residual > 1e-6
    with pytest.raises(ValueError):
        solve_metric_ansatz(H, [])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": -1.0}, "tol"),
        ({"tol": float("nan")}, "tol"),
        ({"max_tries": 0}, "max_tries"),
        ({"exponent_monomials": [(2, 0), (2, 0)]}, "repeats"),
    ],
)
def test_solve_metric_ansatz_refuses_bad_arguments(kwargs, message):
    # each once ran on: a negative tol failed every attempt, max_tries = 0
    # raised TypeError, a repeated monomial kept its last value
    H = _gauged_hamiltonian(1.3, 0.4)
    kwargs = {"exponent_monomials": [(2, 0)], **kwargs}
    with pytest.raises(ValueError, match=message):
        solve_metric_ansatz(H, **kwargs)


@pytest.mark.parametrize(
    "keys",
    [[(-1, 0)], [(2, 0), (0, 171)], [(2.5, 0)], [(2, 0), (math.inf, 0)], [(0, math.nan)]],
)
def test_solve_metric_ansatz_refuses_keys_as_the_constructor_does(keys):
    # (2.5, 0) was once fitted as x^2, and a non-finite degree raised
    # OverflowError or a message that did not name the key
    with pytest.raises(ValueError) as info:
        WeylSymbol(dict.fromkeys(keys, 1.0))
    with pytest.raises(ValueError, match=re.escape(str(info.value))):
        solve_metric_ansatz(_gauged_hamiltonian(1.3, 0.4), keys)


def _counting(fun):
    """fun wrapped to record the arguments of each call, and the list they go to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fun(*args)

    return counted, calls


@pytest.fixture
def residual_calls(monkeypatch):
    """The metric_residual calls solve_metric_ansatz makes."""
    counted, calls = _counting(metric_residual)
    monkeypatch.setattr(metric, "metric_residual", counted)
    return calls


def _swanson_cases():
    rng = np.random.default_rng(2718)
    for n in (2, 3, 4):
        for m in (2, 3):
            alpha, g = rng.uniform(0.1, 2.0, size=2)
            yield n, m, float(alpha), float(g)


@pytest.mark.parametrize("n, m, alpha, g", list(_swanson_cases()))
def test_solve_metric_ansatz_recovers_swanson_closed_forms(n, m, alpha, g, residual_calls):
    # the position metric exp((2g/m) x^m) for every (n, m), the momentum
    # metric exp(-g p^2/alpha) at n = m = 2; at most 7 residual calls per
    # solve, the final coefficientwise check included
    H = models.swanson_pair(n, m, alpha, g).H
    cases = [((m, 0), 2.0 * g / m)] + ([((0, 2), -g / alpha)] if n == m == 2 else [])
    for monomial, expect in cases:
        residual_calls.clear()
        sol = solve_metric_ansatz(H, [monomial])
        assert sol.coefficients[monomial] == pytest.approx(expect, rel=1e-10, abs=1e-10)
        assert sol.residual_norm <= 1e-10 * max(1.0, H.max_abs())
        assert len(residual_calls) <= 7


def test_solve_metric_ansatz_two_monomials():
    # q = a x + b p on the oscillator closes at order two, and eta^2 = exp(q)
    # is the only metric of the ansatz exp(c1 x + c2 p)
    a, b = 0.7, -0.4
    h0 = WeylSymbol({(0, 2): 0.5, (2, 0): 0.5})
    pair = hermitian_pair_from_q(h0, WeylSymbol({(1, 0): a, (0, 1): b}), 2)
    sol = solve_metric_ansatz(pair.H, [(1, 0), (0, 1)])
    assert sol.coefficients[(1, 0)] == pytest.approx(a, abs=1e-10)
    assert sol.coefficients[(0, 1)] == pytest.approx(b, abs=1e-10)
    assert metric_residual(pair.H, sol.exponent).max_abs() <= 1e-10


def test_levenberg_marquardt_damps_a_diverging_gauss_newton_step():
    # plain Gauss-Newton on arctan from c = 3 overshoots further each step;
    # refusing every step that raises the cost brings it to the root
    fun, calls = _counting(np.arctan)
    c = metric._levenberg_marquardt(fun, np.array([3.0]), 40)
    assert abs(c[0]) < 1e-12
    assert len(calls) <= 40


def test_levenberg_marquardt_stops_at_its_evaluation_budget():
    # exp(-c) falls forever without a root; at the kink of |c| + 1 every
    # step is refused, down to the budget; a non-finite residual ends the
    # descent where it stands
    fun, calls = _counting(lambda c: np.exp(-c))
    c = metric._levenberg_marquardt(fun, np.zeros(1), 25)
    assert len(calls) <= 25 and c[0] > 5.0
    fun, calls = _counting(lambda c: np.abs(c) + 1.0)
    assert metric._levenberg_marquardt(fun, np.zeros(1), 10).tolist() == [0.0]
    assert len(calls) == 10
    fun, calls = _counting(lambda c: np.full(3, np.inf))
    assert metric._levenberg_marquardt(fun, np.ones(2), 25).tolist() == [1.0, 1.0]
    assert len(calls) == 1


def test_solve_metric_ansatz_overflow_ends_in_convergence_error(residual_calls):
    # the CLI property test's HUGE_COUPLING symbol: an anti-Hermitian x p
    # coupling of 1e200 overflows the sampled residual; each attempt ends
    # quietly within its budget of 20 (K + 1) evaluations plus the check
    huge = WeylSymbol.from_text("0 2 1 0\n2 0 1 0\n1 1 0 1e200\n")
    monomials = [(0, 1), (1, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricConvergenceError) as info:
            solve_metric_ansatz(huge, monomials)
    assert info.value.best_residual > 1e100
    assert set(info.value.best_coefficients) == set(monomials)
    assert len(residual_calls) <= 5 * (20 * (len(monomials) + 1) + 1)


# -- observable_map against biorthogonal eigenvectors, with no metric ---------


X4_CHAIN = models.minus_x4_chain(1.0, 0.1)
# q = g x^2 commutes with x, so x and x^2 map to themselves: p carries the test.
# h = p^2/2 + (1.09/2) x^2 is an oscillator of frequency sqrt(1.09)
SWANSON = models.swanson_pair(2, 2, 1.0, 0.3)


def _frames(pair, n):
    """A pair on n oscillator states of scale 1 (M = weyl.oscillator_matrix):
    the left and right eigenvectors L = R^-1 and R of M(H), columns by
    ascending level, and the eigenvectors psi of M(h)."""
    energies, R = np.linalg.eig(oscillator_matrix(pair.H, n))
    R = R[:, np.argsort(energies.real)]
    _, psi = np.linalg.eigh(oscillator_matrix(pair.h, n))
    return np.linalg.inv(R), R, psi


# (pair, o) by name: on the x4 chain (alpha = 1, g = 0.1) x^1, x^2 and 2xp,
# the Weyl symbol of xp + px; on the Swanson pair (2, 2) (alpha = 1, g = 0.3)
# p^2 and 2xp
OBSERVABLES = {
    1: (X4_CHAIN, WeylSymbol.x(1)),
    2: (X4_CHAIN, WeylSymbol.x(2)),
    "xp+px": (X4_CHAIN, WeylSymbol.monomial(1, 1, 2.0)),
    "swanson-p2": (SWANSON, WeylSymbol.p(2)),
    "swanson-xp+px": (SWANSON, WeylSymbol.monomial(1, 1, 2.0)),
}


@pytest.mark.parametrize("n", [40, 80])
@pytest.mark.parametrize(
    "name, lowest",
    # the lowest three <psi|M(o)|psi>: on the x4 chain frozen from a solve at
    # n = 200, on the Swanson pair the oscillator's (k + 1/2) sqrt(1.09) for p^2
    [
        (1, [0.0] * 3),
        (2, [0.499609, 1.502538, 2.512836]),
        ("xp+px", [0.0] * 3),
        ("swanson-p2", [(k + 0.5) * math.sqrt(1.09) for k in range(3)]),
        ("swanson-xp+px", [0.0] * 3),
    ],
)
def test_observable_map_matches_biorthogonal_expectations(n, name, lowest):
    # the metric expectations diag(L M(O) R) of O = observable_map(o, q) in
    # H's right eigenvectors R (L = R^-1) equal <psi|M(o)|psi> in h's
    # eigenvectors: no metric and no series enter the reference, and
    # q -> -q must miss it
    pair, o = OBSERVABLES[name]
    L, R, psi = _frames(pair, n)
    expected = np.einsum("in,ij,jn->n", psi.conj(), oscillator_matrix(o, n), psi)[:6]
    assert np.abs(expected[:3] - lowest).max() < 1e-6

    def metric_expectations(q):
        return np.diag(L @ oscillator_matrix(observable_map(o, q), n) @ R)[:6]

    # 4e-14 seen on the x4 chain, 1.8e-13 on the Swanson pair
    assert np.abs(metric_expectations(pair.q) - expected).max() <= 1e-11
    # 0.35, 0.28 and 0.68 seen for x, x^2 and xp + px on the x4 chain,
    # 1.90 and 6.32 for p^2 and xp + px on the Swanson pair
    assert np.abs(metric_expectations(-pair.q) - expected).max() > 0.1


# (pair, o) by family: the field couples through O = observable_map(o, q)
COUPLINGS = {"x4": (X4_CHAIN, WeylSymbol.x(1)), "swanson": (SWANSON, WeylSymbol.p(1))}


@pytest.mark.parametrize(
    "family, n",
    [("x4", 40), ("x4", 80), ("swanson", 40), ("swanson", 80)],
    ids=["40", "80", "swanson-40", "swanson-80"],
)
def test_observable_map_keeps_the_coupling_products(family, n):
    # a biorthogonal basis is free up to a diagonal similarity, whose
    # invariants are the diagonal and the products O_nm O_mn.  In the 8
    # lowest states the products of O = observable_map(o, q) in H's
    # eigenvectors equal o_nm o_mn in h's: H + E(t) O and h + E(t) o then
    # give the same populations for every field E(t).  The products reach
    # 3.6 here, and are not zero
    pair, o = COUPLINGS[family]
    L, R, psi = _frames(pair, n)
    o_h = (psi.conj().T @ oscillator_matrix(o, n) @ psi)[:8, :8]
    off = ~np.eye(8, dtype=bool)
    expected = (o_h * o_h.T)[off]
    assert np.abs(expected).max() > 1.0

    def products(op):
        O = (L @ oscillator_matrix(op, n) @ R)[:8, :8]
        return (O * O.T)[off]

    # 3.7e-14 seen on the x4 chain, 1.2e-13 on the Swanson pair
    assert np.abs(products(observable_map(o, pair.q)) - expected).max() <= 1e-11
    # the raw o is the wrong coupling: 0.025 seen for x on the x4 chain
    # (0.072 with the diagonal), 0.302 for p on the Swanson pair
    assert np.abs(products(o) - expected).max() > 0.01
