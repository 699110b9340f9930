"""Worked model families with real spectra and their grid spectra.

Three families are covered: the generalized Swanson models (x^n
oscillator seed with an x^m similarity generator), the spiked harmonic
oscillator on the half line with closed-form Laguerre eigenfunctions,
and the quartic chain that connects a shifted harmonic seed through a
p^3 generator to a Hamiltonian with a -x^4 interaction.  A banded
finite-difference eigensolver provides spectra for even-momentum
symbols and for the spiked 1/x^2 special form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .metric import SimilarityPair, hermitian_pair_from_q, metric_residual, nfold_commutator
from .weyl import ExpPolySymbol, WeylSymbol, star_commutator


def power_potential_symbol(N, g):
    """Symbol p^2 - g(ix)^N of the power-law family."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if g <= 0:
        raise ValueError("coupling g must be positive")
    return WeylSymbol({(0, 2): 1.0, (N, 0): -g * 1j ** N})


# -- generalized Swanson family -------------------------------------------


def swanson_seed(n, alpha):
    """Hermitian seed p^2/2 + (alpha/2) x^n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return WeylSymbol({(0, 2): 0.5, (n, 0): 0.5 * alpha})

def swanson_generator(m, g):
    """Similarity generator (2g/m) x^m."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return WeylSymbol({(m, 0): 2.0 * g / m})


@dataclass(frozen=True)
class SwansonFamily:
    n: int
    m: int
    alpha: float
    g: float


def swanson_pair(n, m, alpha, g):
    """Similarity pair for the generalized Swanson family.

    Verifies the closed commutator ladder before assembling the pair:
    the first commutator is 2ig p x^(m-1), the second -4g^2 x^(2m-2),
    and the third vanishes identically, so the series terminates at
    ell = 2 for every (n, m).
    """
    h0 = swanson_seed(n, alpha)
    q = swanson_generator(m, g)
    c1 = star_commutator(q, h0)
    c2 = star_commutator(q, c1)
    c3 = star_commutator(q, c2)
    expected_c1 = WeylSymbol({(m - 1, 1): 2j * g})
    expected_c2 = WeylSymbol({(2 * m - 2, 0): -4.0 * g * g}) if g != 0 else WeylSymbol.zero()
    if not c1.isclose(expected_c1) or not c2.isclose(expected_c2) or not c3.is_zero():
        raise RuntimeError("Swanson commutator ladder deviates from its closed form")
    return hermitian_pair_from_q(h0, q, 2)


# -- spiked harmonic oscillator -------------------------------------------


@dataclass(frozen=True)
class SpikedHOModel:
    """Half-line oscillator p^2 + lam^2 x^2 + (alpha^2 - 1/4)/x^2.

    xi parametrizes the non-Hermitian momentum coupling whose metric maps
    raw x to the dressed position observable; variant selects between the
    p^2 generator (dressed x = x + 2i xi p) and the linear-p shift
    (dressed x = x + i xi).
    """

    lam: float
    alpha: float
    xi: float = 0.0
    variant: str = "p_squared"

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lam, self.alpha, self.xi)):
            raise ValueError("lam, alpha and xi must be finite")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.alpha <= -1:
            raise ValueError("alpha must exceed -1")
        if self.variant not in ("p_squared", "p_shift"):
            raise ValueError(f"unknown variant {self.variant!r}")


def spiked_energy(model, n):
    """Closed-form level lam(4n + 2 alpha + 2)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return model.lam * (4 * n + 2 * model.alpha + 2)


def _genlaguerre(n, alpha, u):
    """Generalized Laguerre values by the stable upward recurrence."""
    u = np.asarray(u, dtype=float)
    prev = np.ones_like(u)
    if n == 0:
        return prev
    cur = 1.0 + alpha - u
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - u) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def _spiked_norm(model, n):
    return math.sqrt(
        2.0 * model.lam ** (model.alpha + 1) * math.factorial(n) / math.gamma(model.alpha + n + 1)
    )


def spiked_wavefunction(model, n, x):
    """Normalized eigenfunction on (0, inf); raises off the half line."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("spiked wavefunctions are defined for x > 0 only")
    u = model.lam * x_arr ** 2
    value = (
        (-1) ** n
        * _spiked_norm(model, n)
        * x_arr ** (model.alpha + 0.5)
        * np.exp(-0.5 * u)
        * _genlaguerre(n, model.alpha, u)
    )
    if np.ndim(x) == 0:
        return float(value)
    return value


def spiked_wavefunction_derivative(model, n, x):
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("spiked wavefunctions are defined for x > 0 only")
    u = model.lam * x_arr ** 2
    phi = spiked_wavefunction(model, n, x_arr)
    out = ((model.alpha + 0.5) / x_arr - model.lam * x_arr) * phi
    if n >= 1:
        # d/du L_n^a(u) = -L_(n-1)^(a+1)(u)
        tail = (
            (-1) ** n
            * _spiked_norm(model, n)
            * x_arr ** (model.alpha + 0.5)
            * np.exp(-0.5 * u)
            * (-2.0 * model.lam * x_arr)
            * _genlaguerre(n - 1, model.alpha + 1.0, u)
        )
        out = out + tail
    if np.ndim(x) == 0:
        return float(out)
    return out


def _gauss_laguerre(weight_exponent, degree, polynomial):
    """int_0^inf u^weight_exponent e^(-u) polynomial(u) du for a polynomial
    of the given degree, by the smallest exact Gauss-Laguerre rule.

    k nodes integrate degree <= 2k - 1 exactly, so degree//2 + 1 nodes
    reproduce the integral up to rounding.
    """
    from scipy.special import roots_genlaguerre

    nodes, weights = roots_genlaguerre(degree // 2 + 1, weight_exponent)
    return float(weights @ polynomial(nodes))


def spiked_matrix_element(model, op_kind, n, m):
    """Matrix element between closed-form levels n and m.

    op_kind "position" is plain x, "momentum" is -i d/dx, and
    "mapped_position" is the metric-dressed position observable of the
    model variant: x + 2i xi p for p_squared, x + i xi for p_shift.

    With u = lam x^2, a = alpha and N_k the level normalization,

        <n|x|m> = (-1)^(n+m) N_n N_m / (2 lam^(a+3/2))
                  int u^(a+1/2) e^(-u) L_n^a L_m^a du,
        <n|p|m> = -i (-1)^(n+m) N_n N_m / (2 lam^(a+1/2))
                  int u^(a-1/2) e^(-u) L_n^a [(a+1/2-u) L_m^a + 2u dL_m^a/du] du.

    The polynomial parts have degree n+m and n+m+1, so Gauss-Laguerre
    rules with (n+m)//2 + 1 and (n+m+1)//2 + 1 nodes are exact and the
    sums equal the integrals up to rounding.  The position element exists
    on the whole model domain alpha > -1.  The momentum element (and the
    p_squared mapped position) needs alpha > -1/2: below that the integral
    diverges at x = 0, and at alpha = -1/2 the boundary term
    phi_n(0) phi_m(0) keeps p from being Hermitian; ValueError otherwise.
    The momentum diagonal is exactly 0 because the levels are real.
    """
    if n < 0 or m < 0:
        raise ValueError("levels must be non-negative")
    a = model.alpha
    sign = -1.0 if (n + m) % 2 else 1.0
    scale = 0.5 * sign * _spiked_norm(model, n) * _spiked_norm(model, m)
    if op_kind == "position":
        total = _gauss_laguerre(
            a + 0.5, n + m, lambda u: _genlaguerre(n, a, u) * _genlaguerre(m, a, u)
        )
        return complex(scale * total / model.lam ** (a + 1.5))
    if op_kind == "momentum":
        if a <= -0.5:
            raise ValueError(
                f"the momentum element needs alpha > -1/2, got alpha={a:g}: the "
                "integral diverges at x = 0 below -1/2 and p is not Hermitian at -1/2"
            )
        if n == m:
            return 0j

        def polynomial(u):
            # d/du L_m^a(u) = -L_(m-1)^(a+1)(u)
            slope = -_genlaguerre(m - 1, a + 1.0, u) if m else 0.0
            bracket = (a + 0.5 - u) * _genlaguerre(m, a, u) + 2.0 * u * slope
            return _genlaguerre(n, a, u) * bracket

        total = _gauss_laguerre(a - 0.5, n + m + 1, polynomial)
        return complex(0.0, -scale * total / model.lam ** (a + 0.5))
    if op_kind == "mapped_position":
        position = spiked_matrix_element(model, "position", n, m)
        if model.variant == "p_shift":
            return position + 1j * model.xi * (1.0 if n == m else 0.0)
        momentum = spiked_matrix_element(model, "momentum", n, m)
        return position + 2j * model.xi * momentum
    raise ValueError(f"unknown op_kind {op_kind!r}")


# -- quartic (-x^4) chain --------------------------------------------------


def x4_seed(alpha):
    """Shifted harmonic seed p^2 - p/2 + alpha(x^2 - 1)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return WeylSymbol({(0, 2): 1.0, (0, 1): -0.5, (2, 0): alpha, (0, 0): -alpha})


def x4_generator(alpha, g):
    """Momentum-space generator g p^3/(3 alpha) - 2 g p."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return WeylSymbol({(0, 3): g / (3.0 * alpha), (0, 1): -2.0 * g})

def x4_nonhermitian_symbol(alpha, g):
    """Seed plus the imaginary coupling ig(x p^2 - 2 alpha x)."""
    return x4_seed(alpha) + WeylSymbol({(1, 2): 1j * g, (1, 0): -2j * alpha * g})


def x4_hermitian_symbol(alpha, g):
    """Seed plus the induced quartic momentum term g^2 (p^2-2 alpha)^2/(4 alpha)."""
    c = g * g / (4.0 * alpha)
    return x4_seed(alpha) + WeylSymbol(
        {(0, 4): c, (0, 2): -g * g, (0, 0): g * g * alpha}
    )


def x4_isospectral_quartic(g):
    """Position-space partner p^2 + 4 g^2 x^4 - 2 g x of the chain."""
    if g == 0:
        raise ValueError("coupling g must be nonzero")
    return WeylSymbol({(0, 2): 1.0, (4, 0): 4.0 * g * g, (1, 0): -2.0 * g})


@dataclass(frozen=True)
class X4Chain:
    pair: SimilarityPair
    eta_squared: ExpPolySymbol


def minus_x4_chain(alpha, g):
    """Full chain for the -x^4 family: similarity pair plus metric.

    Asserts that the BCH pair reproduces both closed-form symbols and
    that the exponential metric exp(q) annihilates the residual.
    """
    h0 = x4_seed(alpha)
    q = x4_generator(alpha, g)
    pair = hermitian_pair_from_q(h0, q, 2)
    if not pair.H.isclose(x4_nonhermitian_symbol(alpha, g)):
        raise RuntimeError("quartic chain: BCH non-Hermitian symbol deviates from closed form")
    if not pair.h.isclose(x4_hermitian_symbol(alpha, g)):
        raise RuntimeError("quartic chain: BCH Hermitian symbol deviates from closed form")
    eta_squared = ExpPolySymbol.exp(q)
    residual = metric_residual(pair.H, eta_squared)
    scale = max(1.0, pair.H.max_abs())
    if residual.max_abs_coeff() > 1e-10 * scale:
        raise RuntimeError("quartic chain: metric residual does not vanish")
    return X4Chain(pair=pair, eta_squared=eta_squared)


# -- finite-difference spectra --------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid of interior points.

    points nodes at x_min + j h, j = 1..points, with h = span/(points+1);
    the wavefunction vanishes at both ends.  kinetic_coefficient supplies
    the p^2 coefficient when the Hamiltonian itself carries no momentum
    terms (1 for p^2, 0.5 for p^2/2); symbols with explicit p^2 or p^4
    terms override it.
    """

    x_min: float
    x_max: float
    points: int
    kinetic_coefficient: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid ends must be finite")
        if isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral):
            raise ValueError(f"grid points must be an integer, got {self.points!r}")
        if self.points < 16:
            raise ValueError("grid needs at least 16 points")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")

    @property
    def step(self):
        return (self.x_max - self.x_min) / (self.points + 1)

    def coordinates(self):
        h = self.step
        return self.x_min + h * np.arange(1, self.points + 1)


@dataclass(frozen=True)
class EigenSystem:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid: GridSpec


def _symbol_grid_parts(hamiltonian, grid):
    """Split an even-momentum symbol into (c2, c4, V array)."""
    coords = grid.coordinates()
    c2 = 0.0
    c4 = 0.0
    potential = np.zeros_like(coords)
    saw_momentum = False
    for (dx, dp), coeff in hamiltonian.items():
        if abs(coeff.imag) > 1e-12 * max(1.0, abs(coeff)):
            raise ValueError("grid Hamiltonian symbols must have real coefficients")
        c = coeff.real
        if dp == 0:
            potential = potential + c * coords ** dx
        elif dx == 0 and dp == 2:
            c2 += c
            saw_momentum = True
        elif dx == 0 and dp == 4:
            c4 += c
            saw_momentum = True
        else:
            raise ValueError(
                "grid Hamiltonians support only x-polynomial terms plus even "
                f"momentum powers p^2 and p^4; got term x^{dx} p^{dp}"
            )
    if not saw_momentum:
        c2 = grid.kinetic_coefficient
    return c2, c4, potential


def banded_hamiltonian(hamiltonian, grid):
    """Upper-banded symmetric FD matrix for a symbol or spiked model.

    Returns an array of shape (2, N) (tridiagonal) or (3, N)
    (pentadiagonal, when a p^4 term is present) in the scipy upper-band
    layout whose last row is the main diagonal.

    The spiked potential depends on alpha^2 only and the Dirichlet end
    picks the regular solution x^(|alpha|+1/2), so a grid can represent
    the model only for alpha >= 0; ValueError for alpha < 0.
    """
    coords = grid.coordinates()
    if isinstance(hamiltonian, SpikedHOModel):
        if grid.x_min < 0:
            raise ValueError("the spiked model lives on the half line; use x_min >= 0")
        if hamiltonian.alpha < 0:
            raise ValueError(
                f"the grid spiked model needs alpha >= 0, got alpha={hamiltonian.alpha:g}: "
                "the Dirichlet grid solves the model at |alpha|"
            )
        c2 = grid.kinetic_coefficient
        c4 = 0.0
        potential = (
            hamiltonian.lam ** 2 * coords ** 2
            + (hamiltonian.alpha ** 2 - 0.25) / coords ** 2
        )
    else:
        c2, c4, potential = _symbol_grid_parts(hamiltonian, grid)
    h = grid.step
    n = grid.points
    if c4 != 0.0:
        band = np.zeros((3, n))
        band[2] = c2 * 2.0 / h ** 2 + c4 * 6.0 / h ** 4 + potential
        band[1, 1:] = -c2 / h ** 2 - c4 * 4.0 / h ** 4
        band[0, 2:] = c4 / h ** 4
    else:
        band = np.zeros((2, n))
        band[1] = c2 * 2.0 / h ** 2 + potential
        band[0, 1:] = -c2 / h ** 2
    return band


def hermitian_spectrum(hamiltonian, grid, k):
    """Lowest k Dirichlet eigenpairs of the discretized Hamiltonian.

    Accepts an even-momentum WeylSymbol (x-polynomial potential plus p^2
    and optionally p^4) or a SpikedHOModel for the 1/x^2 special form.
    Eigenvectors are normalized in the grid inner product h * sum(v^2).

    A tridiagonal band goes straight to bisection and inverse iteration
    (eigh_tridiagonal: stebz + stein) with the absolute tolerance that
    eig_banded passes to sbevx, so it needs O(n k) memory and no n x n
    workspace.  The result is bit for bit eig_banded's: sbevx runs the
    same pair, after a trivial reduction whose n x n orthogonal factor
    (the identity) it builds and multiplies into the eigenvectors at
    O(n^2 k) cost.  A pentadiagonal band (p^4 term) keeps eig_banded.
    """
    from scipy.linalg import eig_banded, eigh_tridiagonal, lapack

    if k < 1:
        raise ValueError("k must be positive")
    if k > grid.points:
        raise ValueError(f"requested {k} levels from a {grid.points}-point grid")
    band = banded_hamiltonian(hamiltonian, grid)
    if band.shape[0] == 2:
        values, vectors = eigh_tridiagonal(
            band[1], band[0, 1:], select="i", select_range=(0, k - 1),
            tol=2.0 * lapack.dlamch("S"),
        )
    else:
        values, vectors = eig_banded(band, lower=False, select="i", select_range=(0, k - 1))
    vectors = vectors / math.sqrt(grid.step)
    return EigenSystem(eigenvalues=values, eigenvectors=vectors, grid=grid)


def refined_eigenvalues(hamiltonian, grid, k, refinements=2):
    """Richardson-extrapolated eigenvalues from nested grid halvings.

    Solves on grids with step h, h/2, ... (refinements extra solves),
    estimates the observed convergence order per level, and extrapolates.
    """
    if refinements < 1:
        raise ValueError("refinements must be >= 1")
    levels = []
    spec = grid
    for _ in range(refinements + 1):
        levels.append(hermitian_spectrum(hamiltonian, spec, k).eigenvalues)
        spec = replace(spec, points=2 * spec.points + 1)
    if refinements == 1:
        coarse, fine = levels
        return fine + (fine - coarse) / 3.0
    coarse, mid, fine = levels[-3:]
    num = coarse - mid
    den = mid - fine
    out = np.array(fine, dtype=float)
    for i in range(k):
        if den[i] != 0 and num[i] / den[i] > 1.0:
            order = math.log2(num[i] / den[i])
            out[i] = fine[i] + (fine[i] - mid[i]) / (2 ** order - 1.0)
    return out
