"""Exact-arithmetic oracles for the Moyal product and the terminating ladders.

The oracle multiplies Gaussian-rational symbols term by term, in integers
over one common denominator, straight from the double sum

    f * g = sum_(u, v) (i/2)^u/u! (-i/2)^v/v! (d_x^u d_p^v f)(d_x^v d_p^u g),

and records for every output coefficient the summed magnitude of the terms
that fed it, split by the parity of the order u + v.  The float kernel must
land within RESIDUE_ULPS machine epsilons of the exact value times that
magnitude, and must keep every coefficient that is exactly nonzero.
Inputs are dyadic rationals, so the float symbols hold them exactly.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from pseudoherm import metric, models
from pseudoherm.weyl import RESIDUE_ULPS, WeylSymbol, star, star_commutator

EPS = np.finfo(float).eps
TOL = RESIDUE_ULPS * EPS


def exact(sym):
    """Float symbol -> {(deg_x, deg_p): (Fraction re, Fraction im)}, exactly."""
    return {k: (Fraction(c.real), Fraction(c.imag)) for k, c in sym.items()}


def exact_moyal(f, g):
    """Exact f * g with per-coefficient summed magnitudes of the even and odd orders.

    Returns {key: (re, im, even_magnitude, odd_magnitude)}; re and im are
    Fractions, the magnitudes floats.
    """
    if not f or not g:
        return {}
    dens = [x.denominator for sym in (f, g) for pair in sym.values() for x in pair]
    den = math.lcm(*dens)
    fi = {k: (int(re * den), int(im * den)) for k, (re, im) in f.items()}
    gi = {k: (int(re * den), int(im * den)) for k, (re, im) in g.items()}
    S = min(max(a + b for a, b in f), max(c + d for c, d in g))
    fact = [math.factorial(k) for k in range(S + 1)]
    # (1/2)^u/u! over the common denominator 2^S S!
    half = [2 ** (S - u) * (fact[S] // fact[u]) for u in range(S + 1)]
    out = {}
    for (a, b), (fr, fm) in fi.items():
        for (c, d), (gr, gm) in gi.items():
            pr, pm = fr * gr - fm * gm, fr * gm + fm * gr
            turned = ((pr, pm), (-pm, pr), (-pr, -pm), (pm, -pr))  # times i^0..i^3
            size = math.hypot(fr, fm) * math.hypot(gr, gm)
            for u in range(min(a, d) + 1):
                wu = math.perm(a, u) * math.perm(d, u) * half[u]
                for v in range(min(b, c) + 1):
                    w = wu * math.perm(b, v) * math.perm(c, v) * half[v]
                    re, im = turned[(u - v) % 4]  # i^u (-i)^v
                    acc = out.setdefault((a + c - u - v, b + d - u - v), [0, 0, 0.0, 0.0])
                    acc[0] += w * re
                    acc[1] += w * im
                    acc[2 + (u + v) % 2] += w * size
    scale = den * den * 4**S * fact[S] ** 2
    return {
        k: (Fraction(re, scale), Fraction(im, scale), even / scale, odd / scale)
        for k, (re, im, even, odd) in out.items()
    }


def exact_product(f, g):
    return {k: (re, im) for k, (re, im, _, _) in exact_moyal(f, g).items() if re or im}


def combine(*weighted):
    """sum_k w_k s_k over (Fraction weight, exact symbol) pairs, zeros dropped."""
    out = {}
    for w, sym in weighted:
        for k, (re, im) in sym.items():
            acc = out.setdefault(k, [Fraction(0), Fraction(0)])
            acc[0] += w * re
            acc[1] += w * im
    return {k: (re, im) for k, (re, im) in out.items() if re or im}


def exact_commutator(f, g):
    return combine((1, exact_product(f, g)), (-1, exact_product(g, f)))


def to_complex(pair):
    return complex(float(pair[0]), float(pair[1]))


def dyadic_symbol(rng, deg_x, deg_p, total=None):
    """Dense symbol with dyadic complex coefficients (40-bit numerators over 2^30)."""
    terms = {}
    for a in range(deg_x + 1):
        for b in range(deg_p + 1):
            if total is None or a + b <= total:
                re, im = (int(rng.integers(-(2**40), 2**40)) / 2**30 for _ in range(2))
                terms[(a, b)] = complex(re, im)
    return WeylSymbol(terms)


def assert_matches(got, reference, magnitude):
    """|got - exact| <= TOL * magnitude per coefficient; no exact nonzero is missing."""
    keys = set(reference) | {k for k, _ in got.items()}
    for key in keys:
        value = to_complex(reference.get(key, (0, 0)))
        err = abs(got.coefficient(*key) - value)
        assert err <= TOL * magnitude.get(key, 0.0), (key, got.coefficient(*key), value)
        if value != 0:
            assert got.coefficient(*key) != 0, f"exact nonzero coefficient {key} dropped"


SHAPES = [
    (2, 2, 2), (3, 3, 3), (5, 5, 5), (8, 8, 8), (12, 12, 12), (16, 16, 16),  # dense total degree
    (4, 1, None), (1, 6, None), (6, 6, None),  # full boxes, lopsided and square
]


@pytest.mark.parametrize("deg_x,deg_p,total", SHAPES)
def test_star_matches_exact_oracle(deg_x, deg_p, total):
    rng = np.random.default_rng(1000 + 31 * deg_x + deg_p)
    f = dyadic_symbol(rng, deg_x, deg_p, total)
    g = dyadic_symbol(rng, deg_p, deg_x, total)
    ref = exact_moyal(exact(f), exact(g))
    assert_matches(
        star(f, g),
        {k: v[:2] for k, v in ref.items()},
        {k: v[2] + v[3] for k, v in ref.items()},
    )


@pytest.mark.parametrize("deg_x,deg_p,total", SHAPES)
def test_commutator_matches_exact_difference(deg_x, deg_p, total):
    # only the odd orders survive f * g - g * f; each appears twice
    rng = np.random.default_rng(2000 + 31 * deg_x + deg_p)
    f = dyadic_symbol(rng, deg_x, deg_p, total)
    g = dyadic_symbol(rng, deg_p, deg_x, total)
    fg = exact_moyal(exact(f), exact(g))
    assert_matches(
        star_commutator(f, g),
        exact_commutator(exact(f), exact(g)),
        {k: 2 * v[3] for k, v in fg.items()},
    )


def test_commutator_cancellations_end_at_exact_zero():
    rng = np.random.default_rng(7)
    f = dyadic_symbol(rng, 6, 6, 6)
    assert star_commutator(f, f).is_zero()
    x_only = dyadic_symbol(rng, 8, 0)
    assert star_commutator(x_only, dyadic_symbol(rng, 5, 0)).is_zero()
    # a chain that loses one p per commutator terminates exactly
    term = dyadic_symbol(rng, 3, 4)
    q = dyadic_symbol(rng, 2, 0)
    for _ in range(4):
        term = star_commutator(q, term)
    assert not term.is_zero()
    assert star_commutator(q, term).is_zero()


# -- terminating ladders ---------------------------------------------------


def exact_pair(h0, q, ell):
    """Exact chain c_n = [q, c_(n-1)] and the pair of hermitian_pair_from_q.

    Returns the chain, then h and H each with the per-coefficient summed
    magnitude of the weighted chain entries that feed it.
    """
    chain = [h0]
    for _ in range(ell + 1):
        chain.append(exact_commutator(q, chain[-1]))
    h_terms = [(Fraction(1), h0)] + [
        (Fraction((-1) ** n * metric.euler_numbers(n)[-1], 4**n * math.factorial(2 * n)), chain[2 * n])
        for n in range(1, ell // 2 + 1)
    ]
    H_terms = [(Fraction(1), h0)] + [
        (-metric.kappa(2 * n - 1) / math.factorial(2 * n - 1), chain[2 * n - 1])
        for n in range(1, (ell + 1) // 2 + 1)
    ]

    def magnitude(weighted):
        out = {}
        for w, entry in weighted:
            for k, v in entry.items():
                out[k] = out.get(k, 0.0) + abs(float(w) * to_complex(v))
        return out

    return chain, combine(*h_terms), combine(*H_terms), magnitude(h_terms), magnitude(H_terms)


def symbol(terms):
    """Exact symbol from {key: rational or (re, im)}."""
    return {
        k: (Fraction(v), Fraction(0)) if not isinstance(v, tuple) else (Fraction(v[0]), Fraction(v[1]))
        for k, v in terms.items()
        if v
    }


def assert_pair_matches(pair, h0):
    """The float BCH pair against the exact pair of its own (rounded) generator."""
    _, h, H, mag_h, mag_H = exact_pair(h0, exact(pair.q), pair.ell)
    assert_matches(pair.h, h, mag_h)
    assert_matches(pair.H, H, mag_H)


SMALL_AND_MODERATE = [(Fraction(3, 4), Fraction(5, 8)), (Fraction(1), Fraction(1, 2**23))]


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (4, 2), (3, 4)])
@pytest.mark.parametrize("alpha,g", SMALL_AND_MODERATE)
def test_swanson_ladder_exact(n, m, alpha, g):
    h0 = symbol({(0, 2): Fraction(1, 2), (n, 0): alpha / 2})
    q = symbol({(m, 0): 2 * g / m})
    chain, h, H, _, _ = exact_pair(h0, q, 2)
    assert chain[1] == symbol({(m - 1, 1): (0, 2 * g)})
    assert chain[2] == symbol({(2 * m - 2, 0): -4 * g * g})
    assert chain[3] == {}
    assert h == combine((1, h0), (1, symbol({(2 * m - 2, 0): g * g / 2})))
    assert H == combine((1, h0), (1, symbol({(m - 1, 1): (0, -g)})))
    assert_pair_matches(models.swanson_pair(n, m, float(alpha), float(g)), h0)


@pytest.mark.parametrize("alpha,g", SMALL_AND_MODERATE)
def test_x4_ladder_exact(alpha, g):
    h0 = symbol({(0, 2): 1, (0, 1): Fraction(-1, 2), (2, 0): alpha, (0, 0): -alpha})
    q = symbol({(0, 3): g / (3 * alpha), (0, 1): -2 * g})
    chain, h, H, _, _ = exact_pair(h0, q, 2)
    assert chain[3] == {}
    assert H == combine((1, h0), (1, symbol({(1, 2): (0, g), (1, 0): (0, -2 * alpha * g)})))
    induced = symbol({(0, 4): g * g / (4 * alpha), (0, 2): -g * g, (0, 0): g * g * alpha})
    assert h == combine((1, h0), (1, induced))
    chain_f = models.minus_x4_chain(float(alpha), float(g))
    assert_pair_matches(chain_f.pair, h0)
    # the induced quartic term is there at any coupling, to the rounding of q
    assert chain_f.pair.h.coefficient(0, 4) == pytest.approx(float(g * g / (4 * alpha)), rel=1e-14)
