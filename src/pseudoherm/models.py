"""Worked model families with real spectra, and their spectra.

Three families are covered: the generalized Swanson models (x^n
oscillator seed with an x^m similarity generator), the spiked harmonic
oscillator on the half line with closed-form Laguerre eigenfunctions,
and the quartic chain that connects a shifted harmonic seed through a
p^3 generator to a Hamiltonian with a -x^4 interaction.  The Swanson and
quartic pairs are returned in closed form; their BCH ladders terminate,
and verify-all checks the closed forms against them.  The spiked levels
are closed forms too; spiked_basis gives K of them and their K x K
position block from one Laguerre recurrence pass.  oscillator_levels
gives the levels of any Hermitian polynomial symbol that is bounded
below, from its exact matrix in a scaled oscillator basis.  A tridiagonal finite-difference
eigensolver gives the levels and grid vectors of symbols c p^2 + V(x)
and of the spiked 1/x^2 special form, which the grid propagation needs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .metric import SimilarityPair
from .weyl import WeylSymbol, oscillator_matrix


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


def swanson_pair(n, m, alpha, g):
    """Similarity pair of the generalized Swanson family, in closed form.

    The commutator ladder of q = (2g/m) x^m on the seed is closed: the
    first commutator is 2ig p x^(m-1), the second -4g^2 x^(2m-2), and the
    third vanishes identically, so the BCH series terminates at ell = 2
    for every (n, m) and sums to h = seed + (g^2/2) x^(2m-2) and
    H = seed - ig x^(m-1) p.  Those closed forms are returned; verify-all
    (oscillator_pair_closed_forms) checks them against the BCH ladder.
    """
    h0 = swanson_seed(n, alpha)
    q = swanson_generator(m, g)
    h = h0 + WeylSymbol({(2 * m - 2, 0): 0.5 * g * g})
    H = h0 + WeylSymbol({(m - 1, 1): -1j * g})
    return SimilarityPair(h=h, H=H, q=q, ell=2)


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


# 170! is the largest factorial a double holds
_MAX_LEVEL = 170


def _spiked_factor(model, what, compute):
    """compute() as a finite nonzero float.

    ValueError naming what when it leaves double precision (an extreme
    lam or alpha), instead of a 0 that later divides or an OverflowError.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not 0.0 < abs(value) < math.inf:
        raise ValueError(
            f"{what} leaves double precision at lam={model.lam:g}, alpha={model.alpha:g}"
        )
    return value


def _spiked_norm(model, n):
    if n > _MAX_LEVEL:
        raise ValueError(f"level {n} is above {_MAX_LEVEL}: n! overflows double precision")
    return math.sqrt(
        _spiked_factor(
            model,
            f"the level-{n} normalization",
            lambda: 2.0 * model.lam ** (model.alpha + 1) * math.factorial(n)
            / math.gamma(model.alpha + n + 1),
        )
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


def _laguerre_jacobi(k, weight_exponent):
    """Jacobi matrix of the weight u^b e^(-u) on (0, inf), b = weight_exponent.

    The k diagonal entries are 2j + b + 1 and the k - 1 off-diagonal entries
    sqrt(j (j + b)), j = 0, 1, ... and 1, 2, ...  Its eigenvalues are the
    k Gauss-Laguerre nodes and Gamma(b + 1) times the squared first
    components of its eigenvectors are the weights, so for a polynomial q of
    degree <= 2k - 1

        int_0^inf u^b e^(-u) q(u) du = Gamma(b + 1) e1' q(J) e1

    (Golub and Welsch, Math. Comp. 23 (1969) 221).
    """
    j = np.arange(k, dtype=float)
    return 2.0 * j + (weight_exponent + 1.0), np.sqrt(j[1:] * (j[1:] + weight_exponent))


def _laguerre_rows(size, count, a, weight_exponent):
    """The rows L_k^a(J) e1, k < count, on the size-point Jacobi matrix J of
    u^b e^(-u), b = weight_exponent, as a (count, size) array.

    They come from the three-term recurrence with tridiagonal
    matrix-vector products, so that e1' L_n^a(J) L_m^a(J) e1 = rows[n] @
    rows[m] is the Gauss rule of a degree n + m polynomial, exact while
    n + m <= 2 size - 1: no nodes, weights or eigensolve.
    """
    d, e = _laguerre_jacobi(size, weight_exponent)
    rows = np.zeros((count, size))
    rows[0, 0] = 1.0
    prev, cur = np.zeros(size), rows[0]
    for j in range(count - 1):
        # L_(j+1) = ((2j + 1 + a - u) L_j - (j + a) L_(j-1)) / (j + 1)
        applied = d * cur
        below, above = applied[:-1], applied[1:]  # views, added to in place
        below += e * cur[1:]
        above += e * cur[:-1]
        np.divide((2 * j + 1 + a) * cur - applied - (j + a) * prev, j + 1, out=rows[j + 1])
        prev, cur = cur, rows[j + 1]
    return rows


def _position_factors(model):
    """(Gamma(alpha + 3/2), lam^(alpha + 3/2)), the mass and the scale of
    every <n|x|m>; ValueError when either leaves double precision."""
    a = model.alpha
    mass = _spiked_factor(model, "Gamma(alpha+3/2)", lambda: math.gamma(a + 1.5))
    lam_power = _spiked_factor(model, "lam^(alpha+3/2)", lambda: model.lam ** (a + 1.5))
    return mass, lam_power


def _spiked_position(model, n, m):
    """<n|x|m> as a float, the one integral every spiked element comes from.

    With u = lam x^2, a = alpha and N_k the level normalization,

        <n|x|m> = (-1)^(n+m) N_n N_m / (2 lam^(a+3/2))
                  int u^(a+1/2) e^(-u) L_n^a L_m^a du,

    and the integral is Gamma(a + 3/2) times the product of the rows n and
    m of _laguerre_rows on the (n+m)//2 + 1 point rule of u^(a+1/2) e^(-u).
    """
    if n < 0 or m < 0:
        raise ValueError("levels must be non-negative")
    a = model.alpha
    sign = -1.0 if (n + m) % 2 else 1.0
    scale = 0.5 * sign * _spiked_norm(model, n) * _spiked_norm(model, m)
    mass, lam_power = _position_factors(model)
    rows = _laguerre_rows((n + m) // 2 + 1, max(n, m) + 1, a, a + 0.5)
    return scale * mass * float(rows[n] @ rows[m]) / lam_power


def spiked_basis(model, K):
    """(energies, coupling) of the K lowest closed-form levels: the
    lam(4k + 2 alpha + 2) and the real symmetric block of the <k|x|l>,

        X = 1/2 Gamma(alpha + 3/2) lam^-(alpha+3/2) D Phi Phi' D,

    with Phi the K rows of _laguerre_rows on the K-point rule of
    u^(alpha+1/2) e^(-u) and D = diag((-1)^k N_k).  It is exact: the rule
    integrates degree 2K - 1, the products have degree at most 2K - 2.
    ValueError for K outside [1, 171], before anything is built, and
    where a level norm or a factor of X leaves double precision.
    """
    if not 1 <= K <= _MAX_LEVEL + 1:
        raise ValueError(f"the basis needs 1 to {_MAX_LEVEL + 1} levels, got {K}")
    energies = np.array([spiked_energy(model, k) for k in range(K)])
    signed_norms = np.array([(-1) ** k * _spiked_norm(model, k) for k in range(K)])
    mass, lam_power = _position_factors(model)
    phi = signed_norms[:, None] * _laguerre_rows(K, K, model.alpha, model.alpha + 0.5)
    return energies, (0.5 * mass / lam_power) * (phi @ phi.T)


def _momentum_rate(model, n, m):
    """<n|p|m> / (i <n|x|m>) = 2 lam (n - m), from [H, x] = -2ip.

    Between levels, (E_n - E_m) <n|x|m> = <n|[H, x]|m> = -2i <n|p|m> with
    E_n - E_m = 4 lam (n - m).  That needs p Hermitian on the levels: for
    alpha <= -1/2 ValueError, since below -1/2 the integral diverges at
    x = 0 and at -1/2 the boundary term phi_n(0) phi_m(0) survives.
    """
    if model.alpha <= -0.5:
        raise ValueError(
            f"the momentum element needs alpha > -1/2, got alpha={model.alpha:g}: the "
            "integral diverges at x = 0 below -1/2 and p is not Hermitian at -1/2"
        )
    return 2.0 * model.lam * (n - m)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite element is refused below
def _dressed_position(model, n, m, position, xi):
    """The p_squared dressing <n|x + 2i xi p|m> = (1 - 4 lam (n - m) xi) <n|x|m>,
    real, for a float or an array of xi.  ValueError naming xi when it
    leaves double precision."""
    xi = np.asarray(xi, dtype=float)
    # <n|p|m> = 0 on the diagonal, so no xi can spoil x there
    element = position - (2.0 * _momentum_rate(model, n, m) * position) * xi
    finite = np.isfinite(element)
    if not finite.all():
        raise ValueError(
            f"the dressed element x + 2i xi p leaves double precision at xi={xi[~finite].flat[0]:g}"
        )
    return element


def spiked_matrix_element(model, op_kind, n, m, position=None):
    """Matrix element between closed-form levels n and m.

    op_kind "position" is plain x, "momentum" is -i d/dx, and
    "mapped_position" is the metric-dressed position observable of the
    model variant: x + 2i xi p for p_squared, x + i xi for p_shift.

    There is one integral, <n|x|m> (see _spiked_position), summed exactly
    by the Jacobi matrix of its Gauss-Laguerre rule; it exists on the whole
    model domain alpha > -1.  Everything else follows from it.  The
    commutator [H, x] = -2ip gives <n|p|m> = 2i lam (n - m) <n|x|m>, which
    is exactly 0 on the diagonal and holds for alpha > -1/2: below that the
    momentum integral diverges at x = 0, and at alpha = -1/2 the boundary
    term phi_n(0) phi_m(0) keeps p from being Hermitian, so the momentum
    element and the p_squared mapped position raise ValueError there.  A
    caller that already holds <n|x|m> passes it as position, and no
    integral is done.  spiked_basis gives the whole block of the K lowest
    levels from one pass, where K^2 calls would each run their own.
    """
    if op_kind not in ("position", "momentum", "mapped_position"):
        raise ValueError(f"unknown op_kind {op_kind!r}")
    if position is None:
        position = _spiked_position(model, n, m)
    position = complex(position).real
    if op_kind == "position":
        return complex(position)
    if op_kind == "momentum":
        return complex(0.0, _momentum_rate(model, n, m) * position)
    if model.variant == "p_shift":
        return complex(position, model.xi if n == m else 0.0)
    return complex(_dressed_position(model, n, m, position, model.xi))


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
    seed = x4_seed(alpha)  # checks alpha > 0 before it divides
    c = g * g / (4.0 * alpha)
    return seed + WeylSymbol(
        {(0, 4): c, (0, 2): -g * g, (0, 0): g * g * alpha}
    )


def x4_isospectral_quartic(g):
    """Position-space partner p^2 + 4 g^2 x^4 - 2 g x of the chain."""
    if g == 0:
        raise ValueError("coupling g must be nonzero")
    return WeylSymbol({(0, 2): 1.0, (4, 0): 4.0 * g * g, (1, 0): -2.0 * g})


def minus_x4_chain(alpha, g):
    """Similarity pair of the -x^4 chain, in closed form.

    The BCH series of q = x4_generator on the seed terminates at ell = 2
    and sums to x4_hermitian_symbol and x4_nonhermitian_symbol; the metric
    is eta^2 = exp(q).  verify-all (quartic_chain_closed_forms) checks the
    closed forms against the BCH ladder and the metric residual of exp(q).
    """
    H = x4_nonhermitian_symbol(alpha, g)  # its x4_seed refuses alpha <= 0 first
    q = x4_generator(alpha, g)
    return SimilarityPair(h=x4_hermitian_symbol(alpha, g), H=H, q=q, ell=2)


# -- oscillator-basis spectra ---------------------------------------------


# Bases of more states are refused before any matrix is built: a dense
# eigvalsh of this size takes about 0.3 s, and the chain's levels converge
# in 48 to 108 states.
MAX_BASIS = 1024
# Two successive bases agree on a level E to LEVEL_TOL max(1, |E|).
LEVEL_TOL = 1e-10
_BASIS_START = 32
_BASIS_GROWTH = 1.5


def _confining_powers(symbol):
    """The positive even pure powers of a Hermitian symbol that is bounded
    below, as the arrays (deg_x, c_x, deg_p, c_p): c_x x^deg_x, c_p p^deg_p.

    The test is sufficient, not necessary: the top pure powers c_x x^(2n)
    and c_p p^(2m) must be even with c_x, c_p > 0, and every other term
    x^a p^b must have a/(2n) + b/(2m) < 1, so that Young's inequality
    bounds it by a fraction of c_x x^(2n) + c_p p^(2m) plus a constant.
    """
    if not symbol.conjugate().isclose(symbol):
        raise ValueError("the oscillator-basis levels need a Hermitian symbol (real coefficients)")
    dx, dp, c = symbol.arrays()
    c = c.real
    pure_x, pure_p = (dp == 0) & (dx > 0), (dx == 0) & (dp > 0)
    if pure_x.any() and pure_p.any():
        top_x, top_p = dx[pure_x].max(), dp[pure_p].max()
        tops = (pure_x & (dx == top_x)) | (pure_p & (dp == top_p))
        weight = dx / top_x + dp / top_p
        even = (top_x % 2 == 0) and (top_p % 2 == 0)
        if even and (c[tops] > 0).all() and (weight[~tops] < 1).all():
            keep = (c > 0) & ((dx + dp) % 2 == 0)
            return dx[pure_x & keep], c[pure_x & keep], dp[pure_p & keep], c[pure_p & keep]
    raise ValueError(
        "the symbol is not bounded below: its top pure powers of x and p must be even with "
        "positive coefficients and outweigh every other term"
    )


def oscillator_levels(symbol, k):
    """The k lowest levels of the Weyl-ordered operator of a Hermitian,
    confining polynomial symbol, ascending.

    The levels are the eigvalsh values of weyl.oscillator_matrix, exact on
    its block.  The scale s is one of (c_p/c_x)^(1/(2m+2n)) over the
    positive even pure powers c_p p^(2m) and c_x x^(2n) of the symbol: the
    one whose first basis, of max(32, 2k) states, gives the lowest sum of
    the k lowest Ritz values, which bound the levels from above.  (The
    top pure powers alone give a scale that settles 8 levels of the x4h
    chain at alpha = 1 only at 546 states for g = 0.05, and 1228 for
    g = 0.01; this rule settles them at 48.)  The basis then grows by
    the factor 1.5 until two successive bases agree on every level E to
    LEVEL_TOL max(1, |E|).  ValueError for k < 1, a symbol that is not
    Hermitian or not bounded below (_confining_powers), a scale or an entry
    that leaves double precision, and a basis above MAX_BASIS states,
    refused before it is built.
    """
    if k < 1:
        raise ValueError("the number of levels must be positive")
    size = max(_BASIS_START, 2 * k)
    if size > MAX_BASIS:
        raise ValueError(f"{k} levels need a basis of {size} states, above MAX_BASIS = {MAX_BASIS}")
    x_deg, x_coeff, p_deg, p_coeff = _confining_powers(symbol)
    scales = set()
    for n, cx in zip(x_deg.tolist(), x_coeff.tolist()):
        for m, cp in zip(p_deg.tolist(), p_coeff.tolist()):
            scale = (cp / cx) ** (1.0 / (n + m))
            if not 0.0 < scale < math.inf:
                raise ValueError(
                    f"the oscillator scale of p^{m} and x^{n}, ({cp:g}/{cx:g})^(1/{n + m}), "
                    "leaves double precision"
                )
            scales.add(scale)

    def lowest(scale, size):
        matrix = oscillator_matrix(symbol, size, scale)
        if not matrix.imag.any():  # no odd power of p: the real solve is twice as fast
            matrix = matrix.real
        return np.linalg.eigvalsh(matrix)[:k]

    scale, previous = min(((s, lowest(s, size)) for s in sorted(scales)), key=lambda t: t[1].sum())
    while True:
        size = int(size * _BASIS_GROWTH)
        if size > MAX_BASIS:
            raise ValueError(
                f"the {k} lowest levels do not settle to {LEVEL_TOL:g} within "
                f"MAX_BASIS = {MAX_BASIS} oscillator states"
            )
        levels = lowest(scale, size)
        if (np.abs(levels - previous) <= LEVEL_TOL * np.maximum(1.0, np.abs(levels))).all():
            return levels
        previous = levels


# -- finite-difference spectra --------------------------------------------


# Grids of more points are refused before any array is built.  Each grid
# array holds 8 bytes a point, and a finer grid buys nothing in double
# precision: the rounding error eps |T| ~ 4 eps / h^2 of a level already
# exceeds the O(h^2) discretization error long before this size.
MAX_POINTS = 10**7


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid of interior points.

    points nodes at x_min + j h, j = 1..points, with h = span/(points+1);
    the wavefunction vanishes at both ends, and p^2 becomes the
    three-point second difference.  points must lie in [16, MAX_POINTS].
    """

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid ends must be finite")
        if isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral):
            raise ValueError(f"grid points must be an integer, got {self.points!r}")
        if self.points < 16:
            raise ValueError("grid needs at least 16 points")
        if self.points > MAX_POINTS:
            raise ValueError(
                f"grid of {self.points} points is above MAX_POINTS = {MAX_POINTS}: "
                "a finer grid gains nothing in double precision"
            )
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")

    @property
    def step(self):
        return (self.x_max - self.x_min) / (self.points + 1)

    def coordinates(self):
        h = self.step
        return self.x_min + h * np.arange(1, self.points + 1)


def _symbol_grid_parts(hamiltonian, grid):
    """Split a symbol c p^2 + V(x) into (c, V array)."""
    coords = grid.coordinates()
    c2 = 0.0
    potential = np.zeros_like(coords)
    for (dx, dp), coeff in hamiltonian.items():
        if abs(coeff.imag) > 1e-12 * max(1.0, abs(coeff)):
            raise ValueError("grid Hamiltonian symbols must have real coefficients")
        c = coeff.real
        if dp == 0:
            potential = potential + c * coords ** dx
        elif dx == 0 and dp == 2:
            c2 = c
        else:
            raise ValueError(
                "the grid is tridiagonal and takes x-polynomial terms plus p^2 only; "
                f"got term x^{dx} p^{dp} (models.oscillator_levels takes any "
                "confining polynomial symbol)"
            )
    if c2 == 0.0:
        raise ValueError("grid Hamiltonian symbols need a p^2 term")
    return c2, potential


def banded_hamiltonian(hamiltonian, grid):
    """Upper-banded symmetric tridiagonal FD matrix for a symbol or spiked
    model: shape (2, N) in the scipy upper-band layout, off-diagonal
    (constant) in row 0 from column 1, main diagonal in row 1.

    The spiked potential depends on alpha^2 only and the Dirichlet end
    picks the regular solution x^(|alpha|+1/2), so a grid can represent
    the model only for alpha >= 0; ValueError for alpha < 0.  ValueError
    also when an entry leaves double precision (a huge span, coupling or
    alpha, or a step so small that 1/h^2 overflows).
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
    # numpy scalars overflow to inf (checked below) where Python floats raise
    h = np.float64(grid.step)
    n = grid.points
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if isinstance(hamiltonian, SpikedHOModel):
            c2 = 1.0  # the model's kinetic term is p^2
            potential = (
                np.float64(hamiltonian.lam) ** 2 * coords ** 2
                + (np.float64(hamiltonian.alpha) ** 2 - 0.25) / coords ** 2
            )
        else:
            c2, potential = _symbol_grid_parts(hamiltonian, grid)
        band = np.zeros((2, n))
        band[1] = c2 * 2.0 / h ** 2 + potential
        band[0, 1:] = -c2 / h ** 2
    if not np.all(np.isfinite(band)):
        raise ValueError(
            f"the grid Hamiltonian on [{grid.x_min:g}, {grid.x_max:g}] with "
            f"{grid.points} points leaves double precision"
        )
    return band


def hermitian_spectrum(hamiltonian, grid, k, first=0):
    """Lowest k Dirichlet eigenpairs of the discretized Hamiltonian, or
    levels first..k-1 of them, as (energies, vectors): the ascending
    levels and, one column per level, their values on grid.coordinates().

    Accepts a WeylSymbol c p^2 + V(x) with an x-polynomial V, or a
    SpikedHOModel for the 1/x^2 special form (see banded_hamiltonian).
    Vectors are normalized in the grid inner product h * sum(v^2).
    The tridiagonal band is solved in O(n k) memory by
    _tridiagonal_eigenpairs, whose pairs meet a residual gate of
    RESIDUAL_ULPS * eps * |T|, the accuracy a backward-stable solver can
    promise (|T| is the largest absolute row sum), or raise LinAlgError.

    Its callers are dynamics.propagate_level, behind `propagate`, and
    refined_eigenvalues, which no subcommand calls; `spectrum` and
    `verify-all` solve no grid.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 <= first < k:
        raise ValueError("need 0 <= first < k")
    if k > grid.points:
        raise ValueError(f"requested {k} levels from a {grid.points}-point grid")
    band = banded_hamiltonian(hamiltonian, grid)
    values, vectors = _tridiagonal_eigenpairs(band[1], band[0, 1:], first, k)
    return values, vectors / math.sqrt(grid.step)


# Residual gate of the tridiagonal eigensolver, in units of eps * |T|.
RESIDUAL_ULPS = 16


def _band_norm(d, e):
    """Largest absolute row sum of the symmetric tridiagonal T = (d, e)."""
    rows = np.abs(d)
    rows[:-1] += np.abs(e)
    rows[1:] += np.abs(e)
    return float(np.max(rows))


def _rayleigh_ritz(d, e, vectors):
    """One Rayleigh-Ritz step of the symmetric tridiagonal T = (d, e) on
    the span of the orthonormal columns: the Ritz values, the Ritz
    vectors and the largest residual |T v - theta v|.  Each Ritz vector
    keeps the sign of the column it mostly comes from, so a level's
    vector does not depend on which other levels were solved with it."""
    applied = d[:, None] * vectors
    applied[:-1] += e[:, None] * vectors[1:]
    applied[1:] += e[:, None] * vectors[:-1]
    values, rotation = np.linalg.eigh(vectors.T @ applied)
    pivots = np.abs(rotation).argmax(axis=0)
    rotation *= np.sign(rotation[pivots, np.arange(values.size)])
    vectors = vectors @ rotation
    applied = applied @ rotation
    residual = float(np.max(np.linalg.norm(applied - vectors * values, axis=0)))
    return values, vectors, residual


def _tridiagonal_eigenpairs(d, e, first, k):
    """Levels first..k-1 of the symmetric tridiagonal T = (d, e), with
    unit 2-norm vectors as columns, at the accuracy eps * |T| allows.

    Bisection to 1e-8 |T| leaves each Ritz value off by far less than the
    level spacings of a grid Hamiltonian, and inverse iteration plus the
    Rayleigh-Ritz step on the k - first vectors brings the pairs to the
    rounding level.  Levels closer together than the coarse tolerance
    can leave a residual above the gate; then bisection runs to LAPACK's
    own tolerance (abstol 0 means ulp * |T|_1).  LinAlgError when stebz
    fails, or when stein does not converge or the residual stays above
    the gate at that tolerance.
    """
    from scipy.linalg import get_lapack_funcs

    stebz, stein = get_lapack_funcs(("stebz", "stein"), (d, e))
    norm = _band_norm(d, e)
    unit = np.finfo(float).eps * norm
    for tol in (1e-8 * norm, 0.0):
        m, w, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, first + 1, k, tol, "B")
        if info != 0:
            raise np.linalg.LinAlgError(f"stebz failed (info={info})")
        vectors, info = stein(d, e, w[:m], iblock, isplit)
        if info < 0:
            raise np.linalg.LinAlgError(f"stein: illegal argument {-info}")
        if info > 0:
            if tol == 0.0:
                raise np.linalg.LinAlgError(f"stein: {info} eigenvectors failed to converge")
            continue
        values, vectors, residual = _rayleigh_ritz(d, e, vectors)
        if residual <= RESIDUAL_ULPS * unit:
            return values, vectors
    raise np.linalg.LinAlgError(
        f"full-precision bisection left a residual of {residual / unit:.3g} eps |T| "
        f"(gate {RESIDUAL_ULPS}) on a band of norm {norm:.3g}"
    )


def refined_eigenvalues(hamiltonian, grid, k, refinements=2):
    """Richardson-extrapolated eigenvalues from nested grid halvings.

    Solves on grids with step h, h/2, ... (refinements extra solves),
    estimates the observed convergence order per level, and extrapolates.
    Every grid is built before the first solve, so a finest grid above
    MAX_POINTS is refused up front.  ValueError when the extrapolated
    levels are out of order: the grids do not resolve the levels.

    The extrapolation assumes an error that falls like a power of h.  The
    spiked grid at alpha -> 0 converges like 1/log N instead, and there
    the result is not extrapolated: lambda = 1, alpha = 0 on [0, 10] with
    refinements = 2 gives 2.14032, 2.12975 and 2.11976 for the ground
    level at N = 400, 800 and 1600 points, where the exact level is 2.

    No library path calls it: `spectrum` prints closed-form and
    oscillator-basis levels, and the tests keep it as the second method
    they are checked against.
    """
    if refinements < 1:
        raise ValueError("refinements must be >= 1")
    specs = [grid]
    for _ in range(refinements):
        specs.append(replace(specs[-1], points=2 * specs[-1].points + 1))
    levels = [hermitian_spectrum(hamiltonian, spec, k)[0] for spec in specs]
    if refinements == 1:
        coarse, fine = levels
        out = fine + (fine - coarse) / 3.0
    else:
        coarse, mid, fine = levels[-3:]
        num = coarse - mid
        den = mid - fine
        out = np.array(fine, dtype=float)
        for i in range(k):
            if den[i] != 0 and num[i] / den[i] > 1.0:
                order = math.log2(num[i] / den[i])
                out[i] = fine[i] + (fine[i] - mid[i]) / (2 ** order - 1.0)
    if np.any(np.diff(out) < 0):
        raise ValueError(
            f"Richardson extrapolation puts the levels out of order on {grid.points} to "
            f"{specs[-1].points} points: the grids do not resolve them"
        )
    return out
