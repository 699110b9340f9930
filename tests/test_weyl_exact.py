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
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pseudoherm import metric, models, weyl
from pseudoherm.weyl import MAX_MAP, RESIDUE_ULPS, WeylSymbol, star, star_commutator

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


@pytest.mark.parametrize("nb, nc", [(17, 17), (3, 9), (9, 3), (1, 17)])
@pytest.mark.parametrize("odd_only", [False, True])
def test_tensor_blocks_are_exact(nb, nc, odd_only):
    # blocks[k, r', r] = C(b, v) c!/(c - v)! 2^-v, doubled for odd_only, for
    # the shift by v = r - r' along the diagonal of cell (b, c) of class k
    blocks = weyl._moyal_blocks(nb, nc, odd_only)
    b, c = weyl._cells(nb, nc)
    n1, n2 = b.shape
    assert sorted(zip(b.ravel().tolist(), c.ravel().tolist())) == list(itertools.product(range(nb), range(nc)))
    assert ((b - c) % n1 == np.arange(n1)[:, None]).all()
    expected = np.zeros(blocks.shape)
    for k, r, target in itertools.product(range(n1), range(n2), range(n2)):
        v = r - target
        if 0 <= v <= min(b[k, r], c[k, r]):
            assert (b[k, target], c[k, target]) == (b[k, r] - v, c[k, r] - v)
            weight = Fraction(math.comb(b[k, r], v) * math.perm(c[k, r], v), 2**v)
            expected[k, target, r + odd_only * (v % 2) * n2] = float(weight * (1 + odd_only))
    assert blocks.tolist() == expected.tolist()


@pytest.mark.parametrize("scale", [1.0, 2.5, -3.0, 0.75j])
def test_tensor_products_with_a_constant_are_exact(scale):
    # past MAX_MAP order (0, 0) carries weight 1 and every phase is an exact
    # turn, so a product with a constant is the scaled symbol bit for bit
    rng = np.random.default_rng(17)
    f = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
    c = np.array([[scale]], dtype=complex)
    assert map_entries(17, 17, 1, 1) > MAX_MAP
    for values, mags in (weyl._moyal(f, c), weyl._moyal(c, f)):
        assert np.array_equal(values, f * scale)
        assert np.array_equal(mags, np.abs(f) * abs(scale))


def test_tensor_commutators_of_x_only_symbols_are_exactly_zero():
    # x-only symbols have no odd Moyal order: the commutator kernel must
    # give exact zeros, before any rounding floor
    rng = np.random.default_rng(33)
    for na, nc in ((33, 33), (41, 33), (7, 171)):
        assert map_entries(na, 1, nc, 1) > MAX_MAP
        f, g = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)) for n in (na, nc))
        values, mags = weyl._moyal(f, g, odd_only=True)
        assert values.shape == (na + nc - 1, 1)
        assert not values.any() and not mags.any()


def test_tensor_weights_stay_finite_where_the_terms_are():
    # p^n * x^n = sum_v (-i)^v C(n, v) P(n, v) / 2^v (x p)^(n - v): each term
    # is finite at n = 100, though P(n, v)^2 / v! passes the double range
    n = 100
    f, g = WeylSymbol.p(n), WeylSymbol.x(n)
    assert map_entries(1, n + 1, n + 1, 1) > MAX_MAP
    product, commutator = star(f, g), star_commutator(f, g)
    for v in range(n + 1):
        term = float(Fraction(math.comb(n, v) * math.perm(n, v), 2**v)) * (1, -1j, -1, 1j)[v % 4]
        assert product.coefficient(n - v, n - v) == pytest.approx(term, rel=1e-14)
        assert commutator.coefficient(n - v, n - v) == pytest.approx(2 * term * (v % 2), rel=1e-14)


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
    seed, q = models.swanson_seed(n, float(alpha)), models.swanson_generator(m, float(g))
    assert_pair_matches(metric.hermitian_pair_from_q(seed, q, 2), h0)


@pytest.mark.parametrize("alpha,g", SMALL_AND_MODERATE)
def test_x4_ladder_exact(alpha, g):
    h0 = symbol({(0, 2): 1, (0, 1): Fraction(-1, 2), (2, 0): alpha, (0, 0): -alpha})
    q = symbol({(0, 3): g / (3 * alpha), (0, 1): -2 * g})
    chain, h, H, _, _ = exact_pair(h0, q, 2)
    assert chain[3] == {}
    assert H == combine((1, h0), (1, symbol({(1, 2): (0, g), (1, 0): (0, -2 * alpha * g)})))
    induced = symbol({(0, 4): g * g / (4 * alpha), (0, 2): -g * g, (0, 0): g * g * alpha})
    assert h == combine((1, h0), (1, induced))
    pair = metric.hermitian_pair_from_q(
        models.x4_seed(float(alpha)), models.x4_generator(float(alpha), float(g)), 2
    )
    assert_pair_matches(pair, h0)
    # the induced quartic term is there at any coupling, to the rounding of q
    assert pair.h.coefficient(0, 4) == pytest.approx(float(g * g / (4 * alpha)), rel=1e-14)


# -- the small-product map -------------------------------------------------


def map_entries(na, nb, nc, nd):
    return na * nb * nc * nd * (na + nc - 1) * (nb + nd - 1)


def lopsided_shapes():
    """The corners of the map region, the products the CLI forms past 5x5
    boxes, and a seeded sample of the rest of the region."""
    shapes = [(1, 1, 1, 171), (171, 1, 1, 1), (1, 171, 1, 1), (1, 1, 171, 1), (16, 1, 1, 16),
              (1, 16, 16, 1), (4, 1, 7, 4), (4, 1, 9, 3), (1, 4, 3, 9), (2, 2, 2, 30)]
    rng = np.random.default_rng(19)
    while len(shapes) < 40:
        shape = tuple(int(n) for n in np.exp(rng.uniform(0, np.log(40), 4)).astype(int) + 1)
        if max(shape) > 5 and map_entries(*shape) <= MAX_MAP:
            shapes.append(shape)
    return shapes


MAP_SHAPES = list(itertools.product(range(1, 6), repeat=4)) + lopsided_shapes()


def test_map_shapes_lie_in_the_map_region():
    assert all(map_entries(*shape) <= MAX_MAP for shape in MAP_SHAPES)
    assert map_entries(5, 5, 5, 5) <= MAX_MAP < map_entries(5, 5, 5, 6)


@pytest.mark.parametrize("odd_only", [False, True])
def test_map_products_match_exact_oracle(odd_only):
    # every pair of boxes up to 5x5 * 5x5, and lopsided pairs across the region
    rng = np.random.default_rng(3000 + odd_only)
    for na, nb, nc, nd in MAP_SHAPES:
        f = dyadic_symbol(rng, na - 1, nb - 1)
        g = dyadic_symbol(rng, nc - 1, nd - 1)
        assert f._c.shape == (na, nb) and g._c.shape == (nc, nd)
        values, mags = weyl._moyal_by_map(f._c, g._c, odd_only)
        fg = exact_moyal(exact(f), exact(g))
        if odd_only:
            reference = exact_commutator(exact(f), exact(g))
            magnitude = {k: 2 * v[3] for k, v in fg.items()}
        else:
            reference = {k: v[:2] for k, v in fg.items()}
            magnitude = {k: v[2] + v[3] for k, v in fg.items()}
        for key in np.ndindex(values.shape):
            err = abs(values[key] - to_complex(reference.get(key, (0, 0))))
            assert err <= TOL * magnitude.get(key, 0.0), (na, nb, nc, nd, key)
            assert mags[key] == pytest.approx(magnitude.get(key, 0.0), rel=8 * EPS, abs=0.0)


def exact_map(na, nb, nc, nd, odd_only):
    """The real maps of weyl._moyal_map as Fractions, summed from the
    weights (i/2)^u/u! (-i/2)^v/v! of the double sum with the phase i^(u+v)
    taken out, which leaves (-1)^v."""
    h, w = na + nc - 1, nb + nd - 1
    values = [[Fraction(0)] * (na * nb * nc * nd) for _ in range(h * w)]
    mags = [[Fraction(0)] * (na * nb * nc * nd) for _ in range(h * w)]
    for j, (a, b, c, d) in enumerate(itertools.product(range(na), range(nb), range(nc), range(nd))):
        for u in range(min(a, d) + 1):
            for v in range(min(b, c) + 1):
                if odd_only and (u + v) % 2 == 0:
                    continue
                weight = Fraction(
                    math.perm(a, u) * math.perm(d, u) * math.perm(b, v) * math.perm(c, v),
                    2 ** (u + v) * math.factorial(u) * math.factorial(v),
                ) * (2 if odd_only else 1)
                k = (a + c - u - v) * w + b + d - u - v
                values[k][j] += (-1) ** v * weight
                mags[k][j] += weight
    return values, mags


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (2, 4, 5, 1), (16, 1, 1, 16), (1, 16, 16, 1), (5, 3, 2, 4)])
@pytest.mark.parametrize("odd_only", [False, True])
def test_map_is_exact(shape, odd_only):
    values, mags, turn_f, turn_g, turn_out = weyl._moyal_map(*shape, odd_only)
    exact_values, exact_mags = exact_map(*shape, odd_only)
    assert values.tolist() == [[float(x) for x in row] for row in exact_values]
    assert mags.tolist() == [[float(x) for x in row] for row in exact_mags]
    for turn, n in ((turn_f, shape[0]), (turn_g, shape[2])):
        assert turn.ravel().tolist() == [1j**k for k in range(n)]
    assert turn_out.ravel().tolist() == [(-1j) ** k for k in range(shape[0] + shape[2] - 1)]
