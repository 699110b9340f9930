"""Exact oracle for the exponential star: sympy derivatives of e^E.

The derivative table of an exponential e^E is

    T_ab = e^-E d_x^a d_p^b e^E,

a polynomial, and the Moyal series of a polynomial f against e^E is

    f * e^E = sum_uv (i/2)^u/u! (-i/2)^v/v! (d_x^u d_p^v f)(d_x^v d_p^u e^E),
    e^E * f = sum_uv (i/2)^u/u! (-i/2)^v/v! (d_x^u d_p^v e^E)(d_x^v d_p^u f),

each e^E times a polynomial.  sympy differentiates e^E itself, with
rational E and f, so neither the recursion of the table nor the
bookkeeping of the Moyal orders enters the reference.  The float kernel
must land within ULPS machine epsilons of the exact coefficients, scaled by
the largest exact coefficient of the entry or product compared.
"""
import functools
from unittest import mock

import numpy as np
import pytest
import sympy as sp

from pseudoherm import weyl
from pseudoherm.weyl import WeylSymbol

x, p = sp.symbols("x p")
R = sp.Rational
ULPS = 8
EPS = np.finfo(float).eps
ORDER = 6  # table entries a + b <= ORDER

EXPONENTS = {
    "x": R(2, 7) * x**3 - R(1, 3) * x,
    "p": R(1, 5) * p**2 + R(1, 2) * p,
    "both": x * p / 5 + p**3 / 10,
}
# rational f of degree <= 4, with an imaginary coefficient
F = R(1, 2) * p**2 + R(3, 4) * x**4 - sp.I * R(1, 3) * x * p + R(2, 5) * x**2 * p - 7


def to_symbol(expr):
    """The float WeylSymbol of a polynomial in x and p."""
    poly = sp.Poly(sp.expand(expr), x, p)
    return WeylSymbol({k: complex(v) for k, v in poly.terms()})


def coefficients(expr):
    """{(deg_x, deg_p): complex} of a polynomial in x and p, exactly then rounded."""
    poly = sp.Poly(sp.expand(expr), x, p)
    return {k: complex(v) for k, v in poly.terms() if v != 0}


@functools.lru_cache(maxsize=None)
def exact_derivative(kind, a, b):
    """e^-E d_x^a d_p^b e^E, a polynomial, from sympy's own derivative."""
    E = EXPONENTS[kind]
    return sp.expand(sp.diff(sp.exp(E), x, a, p, b) * sp.exp(-E))


def exact_star(kind, f, poly_left):
    """The polynomial R with f * e^E = R e^E (poly_left) or e^E * f = R e^E, from the Moyal series."""
    E = EXPONENTS[kind]
    G = sp.exp(E)
    top = sp.Poly(f, x, p).total_degree()
    total = 0
    for u in range(top + 1):
        for v in range(top + 1 - u):
            w = (sp.I / 2) ** u * (-sp.I / 2) ** v / (sp.factorial(u) * sp.factorial(v))
            if poly_left:
                total += w * sp.diff(f, x, u, p, v) * sp.diff(G, x, v, p, u)
            else:
                total += w * sp.diff(G, x, u, p, v) * sp.diff(f, x, v, p, u)
    return sp.expand(sp.expand(total) * sp.exp(-E))


def worst_ulps(got, exact):
    """Largest |got - exact| over the coefficients, in eps times the largest |exact|;
    an exact zero must come out as zero."""
    if not exact:
        return np.inf if got else 0.0
    scale = max(abs(c) for c in exact.values())
    keys = set(got) | set(exact)
    return max(abs(got.get(k, 0) - exact.get(k, 0)) for k in keys) / (EPS * scale)


def table_errors(kind):
    """worst_ulps of each entry of the kernel's table, every a + b <= ORDER."""
    heights = [ORDER + 1 - b for b in range(ORDER + 1)]
    table = weyl._exp_table(to_symbol(EXPONENTS[kind])._c, heights)
    entries = [(a, b) for b, h in enumerate(heights) for a in range(h)]  # the table's order
    assert len(table) == len(entries)
    return {
        (a, b): worst_ulps(dict(WeylSymbol._wrap(weyl._trim(t)).items()), coefficients(exact_derivative(kind, a, b)))
        for (a, b), t in zip(entries, table)
    }


@pytest.mark.parametrize("kind", sorted(EXPONENTS))
def test_derivative_table_matches_sympy(kind):
    errors = table_errors(kind)
    assert max(errors.values()) <= ULPS, errors


@pytest.mark.parametrize("kind", sorted(EXPONENTS))
@pytest.mark.parametrize("poly_left", [True, False])
def test_exponential_star_matches_the_moyal_series(kind, poly_left):
    product, = weyl._star_with_exp([(to_symbol(F), poly_left)], to_symbol(EXPONENTS[kind]))
    assert worst_ulps(dict(product.items()), coefficients(exact_star(kind, F, poly_left))) <= ULPS


def flipped_p_steps(step):
    """_exp_step with the sign of E_p flipped: a planted fault."""
    def faulty(q, w, ramp, out):
        return step(q, [(c, e, -w_ce) for c, e, w_ce in w] if ramp.ndim == 1 else w, ramp, out)
    return faulty


@pytest.mark.parametrize("kind", ["p", "both"])
def test_the_oracle_sees_a_flipped_sign_of_e_p(kind):
    with mock.patch.object(weyl, "_exp_step", flipped_p_steps(weyl._exp_step)):
        errors = table_errors(kind)
        product, = weyl._star_with_exp([(to_symbol(F), True)], to_symbol(EXPONENTS[kind]))
    assert max(errors.values()) > 1e10
    assert worst_ulps(dict(product.items()), coefficients(exact_star(kind, F, True))) > 1e10
