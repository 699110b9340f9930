"""Metric operators and Hermitian counterparts from terminating BCH series.

Given a non-Hermitian symbol H related to a Hermitian h by a similarity
transformation with eta = exp(q/2), the nested star-commutator chain

    c_q^(n)(h0) = [q, [q, ... [q, h0]]]   (n factors of q)

terminates for the structured pairs treated here, and both partners are
finite linear combinations of the chain with universal rational
coefficients: secant ("Euler") numbers for the Hermitian side and the
kappa coefficients for the non-Hermitian side.  The kappa values are
exact fractions; the first few are 1/2, -1/4, 1/2, -17/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .weyl import WeylSymbol, intertwining_residual, star_commutator

class TerminationError(RuntimeError):
    """A commutator chain required to terminate did not."""

    def __init__(self, message, order=None):
        super().__init__(message)
        self.order = order


class MetricConvergenceError(RuntimeError):
    """Root finding on the metric ansatz did not reach a solution."""

    def __init__(self, message, best_residual=None, best_coefficients=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_coefficients = best_coefficients


def euler_numbers(k):
    """First k secant numbers 1, 5, 61, 1385, 50521, ...

    Generated exactly from the convolution identity sec * cos = 1:
    S_n = sum_{j=1..n} (-1)^(j+1) C(2n, 2j) S_{n-j}, S_0 = 1.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    series = [1]
    for n in range(1, k + 1):
        s = 0
        for j in range(1, n + 1):
            s += (-1) ** (j + 1) * math.comb(2 * n, 2 * j) * series[n - j]
        series.append(s)
    return series[1:]


def kappa(n):
    """Exact expansion coefficient kappa_n (odd n only), as a Fraction."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"kappa is defined for odd n >= 1, got {n}")
    return _kappa(n, euler_numbers((n + 1) // 2))


def _kappa(n, eulers):
    """kappa_n from the secant numbers S_1, S_2, ... (at least (n + 1)/2 of them)."""
    terms = enumerate(eulers[: (n + 1) // 2], start=1)
    return Fraction(sum((-1) ** (n + m) * math.comb(n, 2 * m - 1) * s for m, s in terms), 2 ** n)


def nfold_commutator(q, operator, n):
    """n-fold nested star commutator of q with the operator symbol."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = operator
    for _ in range(n):
        out = star_commutator(q, out)
    return out


@dataclass(frozen=True)
class SimilarityPair:
    """Hermitian h and non-Hermitian H sharing the generator q at order ell."""

    h: WeylSymbol
    H: WeylSymbol
    q: WeylSymbol
    ell: int


def hermitian_pair_from_q(h0, q, ell):
    """Build the (h, H) pair generated by q on the Hermitian seed h0.

    Requires the commutator chain to terminate: c_q^(ell+1)(h0) = 0.
    h collects the even chain entries with Euler-number weights, H the
    odd entries with kappa weights; eta = exp(q/2) intertwines them.
    """
    if not h0.isclose(h0.conjugate()):
        raise ValueError("h0 must be Hermitian (real coefficients)")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    chain = [h0]
    for _ in range(ell + 1):
        chain.append(star_commutator(q, chain[-1]))
    if not chain[ell + 1].is_zero():
        raise TerminationError(
            f"commutator chain does not terminate: order {ell + 1} is nonzero",
            order=ell + 1,
        )
    eulers = euler_numbers((ell + 1) // 2)  # once for every weight
    h = h0
    for n in range(1, ell // 2 + 1):
        weight = ((-1) ** n) * eulers[n - 1] / (4 ** n * math.factorial(2 * n))
        h = h + weight * chain[2 * n]
    H = h0
    for n in range(1, (ell + 1) // 2 + 1):
        weight = float(_kappa(2 * n - 1, eulers)) / math.factorial(2 * n - 1)
        H = H - weight * chain[2 * n - 1]
    return SimilarityPair(h=h, H=H, q=q, ell=ell)


class BchSeries(NamedTuple):
    value: WeylSymbol
    terminated: bool
    order: int


def conjugate_by_exp(q, operator, max_order=32):
    """Star-product conjugation exp(q) * operator * exp(-q) as a series.

    Sums c_q^(n)(operator)/n! until a chain entry vanishes identically
    (terminated=True) or max_order is reached (terminated=False).
    max_order lies in [0, 170]: 1/n! leaves double precision above 170.
    """
    if not 0 <= max_order <= 170:
        raise ValueError(f"max_order must lie in [0, 170], got {max_order}")
    total = operator
    term = operator
    for n in range(1, max_order + 1):
        term = star_commutator(q, term)
        if term.is_zero():
            return BchSeries(value=total, terminated=True, order=n - 1)
        total = total + (1.0 / math.factorial(n)) * term
    return BchSeries(value=total, terminated=False, order=max_order)


def observable_map(observable, q, max_order=32):
    """Map an observable o to eta^-1 o eta with eta = exp(q/2).

    The conjugation series must terminate within max_order; a
    non-terminating series raises TerminationError.
    """
    series = conjugate_by_exp(-0.5 * q, observable, max_order)
    if not series.terminated:
        raise TerminationError(
            f"observable conjugation series did not terminate within {max_order} orders",
            order=max_order,
        )
    return series.value


def metric_residual(H, q):
    """Pseudo-Hermiticity defect of the metric eta^2 = e^q: the polynomial R with

        star(H^dag, e^q) - star(e^q, H) = R e^q

    (weyl.intertwining_residual), which vanishes exactly when
    H^dag eta^2 = eta^2 H.  One residual builds one derivative table of e^q.
    """
    return intertwining_residual(H.conjugate(), q, H)


@dataclass(frozen=True)
class MetricAnsatzSolution:
    """A fitted metric eta^2 = e^exponent, its exponent's coefficients by
    monomial, and the largest coefficient of its metric_residual."""

    coefficients: dict
    exponent: WeylSymbol
    residual_norm: float


_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)


def _levenberg_marquardt(fun, c, max_evals):
    """Levenberg-Marquardt descent on |fun(c)|^2 from c; returns the last accepted point.

    A step solves (J^T J + mu diag(J^T J)) delta = -J^T r, as the least
    squares problem it is the normal equations of.  mu starts at 0 (a
    Gauss-Newton step), and a step is accepted only if the cost falls and
    stays finite; otherwise mu grows (to 1e-3, then tenfold) and the step
    is solved again.  An accepted step divides mu by ten.  The descent ends
    at an exactly zero cost, when the cost stops falling (an accepted step
    that lowers it by at most eps of itself, or a damped step too small to
    move c), at the first non-finite residual, or after max_evals calls of
    fun.
    """
    r = fun(c)
    cost = r @ r
    evals = 1
    mu = 0.0
    while math.isfinite(cost) and cost > 0 and evals + c.size < max_evals:
        # forward differences; sqrt(eps) max(1, |c_j|) balances truncation against rounding
        jac = np.empty((r.size, c.size))
        for j in range(c.size):
            shifted = c.copy()
            shifted[j] += _SQRT_EPS * max(1.0, abs(c[j]))
            jac[:, j] = (fun(shifted) - r) / (shifted[j] - c[j])
        evals += c.size
        col_norms = np.linalg.norm(jac, axis=0)  # sqrt(diag(J^T J))
        if not np.isfinite(col_norms).all():
            break
        rhs = np.concatenate([-r, np.zeros(c.size)])
        while True:
            system = np.vstack([jac, np.diag(math.sqrt(mu) * col_norms)])
            trial = c + np.linalg.lstsq(system, rhs, rcond=None)[0]
            if evals >= max_evals or np.array_equal(trial, c):
                return c
            r_trial = fun(trial)
            evals += 1
            cost_trial = r_trial @ r_trial
            if not math.isfinite(cost_trial):
                return c
            if cost_trial < cost:
                break
            mu = 10.0 * mu if mu else 1e-3
        falling = cost - cost_trial > _EPS * cost
        c, r, cost = trial, r_trial, cost_trial
        mu /= 10.0
        if not falling:
            break
    return c


def solve_metric_ansatz(H, exponent_monomials, tol=1e-10, max_tries=5):
    """Find real coefficients c_k with eta^2 = exp(sum c_k m_k) killing the residual.

    The polynomial R of metric_residual(H, sum c_k m_k) is evaluated on a
    fixed seeded set of sample points and driven to zero by
    Levenberg-Marquardt (Moré, LNM 630, 1978) with a forward-difference
    Jacobian, step sqrt(eps) max(1, |c_k|).  The first attempt starts at
    zero.  An attempt stops at an exactly zero sampled residual, when the
    cost stops falling, at a non-finite residual, or after 20 (K + 1)
    residual evaluations for K monomials.  Its end point is re-verified
    coefficientwise through metric_residual; a failed attempt restarts
    from a seeded normal draw, and after max_tries attempts
    MetricConvergenceError reports the best one.

    Every trial exponent is built by the WeylSymbol constructor, so a
    monomial is refused with its message before the fit starts (a degree
    that is negative, fractional, not finite or above MAX_DEGREE), and a
    trial coefficient that is not finite raises its ValueError.
    """
    keys = list(exponent_monomials)
    if not keys:
        raise ValueError("ansatz needs at least one exponent monomial")
    WeylSymbol([(key, 1.0) for key in keys])  # refuses a key before int() can round it
    keys = [(int(dx), int(dp)) for dx, dp in keys]
    if len(set(keys)) < len(keys):
        raise ValueError(f"ansatz repeats an exponent monomial: {keys}")
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    x0 = np.zeros(len(keys))

    rng = np.random.default_rng(20240817)
    n_pts = max(10, 3 * len(keys) + 6)
    pts = rng.uniform(-1.6, 1.6, size=(n_pts, 2))

    def build(c):
        return WeylSymbol(zip(keys, c))

    def resid_vec(c):
        residual = metric_residual(H, build(c))
        vals = np.asarray(residual.evaluate(pts[:, 0], pts[:, 1]), dtype=complex)
        return np.column_stack([vals.real, vals.imag]).ravel()

    scale = max(1.0, H.max_abs())
    max_evals = 20 * (len(keys) + 1)
    best = None
    for attempt in range(max_tries):
        # an overflowing residual ends the descent quietly; the check below refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            c = _levenberg_marquardt(resid_vec, x0, max_evals)
        residual = metric_residual(H, build(c))
        norm = residual.max_abs()
        if best is None or norm < best[0]:
            best = (norm, c)
        if norm <= tol * scale:
            coefficients = {k: float(v) for k, v in zip(keys, c)}
            return MetricAnsatzSolution(
                coefficients=coefficients, exponent=build(c), residual_norm=float(norm)
            )
        x0 = rng.normal(scale=0.5 + attempt, size=len(keys))
    raise MetricConvergenceError(
        f"metric ansatz did not converge: best residual {best[0]:.3e}",
        best_residual=float(best[0]),
        best_coefficients={k: float(v) for k, v in zip(keys, best[1])},
    )
