"""Symbol-algebra tests against an independent operator-ordering engine.

The oracle represents operators as normal-ordered dictionaries
(x powers to the left of p powers, [x, p] = i) and multiplies them with
the exact reordering identity.  Symbols are lowered to operators by
brute-force averaging over all distinct orderings, so every star-product
check compares two completely different algorithms.
"""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import weyl
from pseudoherm.weyl import (
    WeylSymbol,
    compose_weyl,
    is_pt_symmetric,
    pt_transform,
    star,
)


def op_mul(a, b):
    """Multiply normal-ordered operator dicts using p^b x^a reordering."""
    out = {}
    for (ax, ap), ca in a.items():
        for (bx, bp), cb in b.items():
            for k in range(min(ap, bx) + 1):
                coeff = (
                    ca * cb * math.factorial(k) * math.comb(bx, k) * math.comb(ap, k) * (-1j) ** k
                )
                key = (ax + bx - k, ap + bp - k)
                out[key] = out.get(key, 0j) + coeff
    return {k: v for k, v in out.items() if v != 0}


def word_average(n_x, n_p):
    """Equal-weight average of the distinct orderings of n_x x's and n_p p's."""
    total = {}
    count = 0
    for p_slots in itertools.combinations(range(n_x + n_p), n_p):
        pset = set(p_slots)
        word = {(0, 0): 1.0 + 0j}
        for i in range(n_x + n_p):
            letter = {(0, 1): 1.0 + 0j} if i in pset else {(1, 0): 1.0 + 0j}
            word = op_mul(word, letter)
        for k, v in word.items():
            total[k] = total.get(k, 0j) + v
        count += 1
    return {k: v / count for k, v in total.items() if v != 0}


def mccoy(n_x, n_p):
    """Second route to the symmetrized monomial: 2^-n sum_k C(n,k) x^k p^m x^(n-k)."""
    total = {}
    for k in range(n_x + 1):
        term = op_mul({(k, 0): 1.0 + 0j}, {(0, n_p): 1.0 + 0j})
        term = op_mul(term, {(n_x - k, 0): 1.0 + 0j})
        w = math.comb(n_x, k) / 2.0**n_x
        for key, v in term.items():
            total[key] = total.get(key, 0j) + w * v
    return {k: v for k, v in total.items() if v != 0}


def lower(sym):
    """Weyl symbol -> normal-ordered operator dict."""
    out = {}
    for (dx, dp), c in sym.items():
        for k, v in word_average(dx, dp).items():
            out[k] = out.get(k, 0j) + c * v
    return {k: v for k, v in out.items() if v != 0}


def op_close(a, b, tol=1e-13):
    keys = set(a) | set(b)
    scale = max([1.0] + [abs(v) for v in list(a.values()) + list(b.values())])
    return all(abs(a.get(k, 0j) - b.get(k, 0j)) <= tol * scale for k in keys)


def random_symbol(rng, max_deg=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        dx = int(rng.integers(0, max_deg + 1))
        dp = int(rng.integers(0, max_deg + 1 - dx))
        terms[(dx, dp)] = terms.get((dx, dp), 0j) + complex(rng.normal(), rng.normal())
    return WeylSymbol(terms)


def test_reordering_engine_px():
    # p x = x p - i is the whole content of the oracle engine
    assert op_mul({(0, 1): 1}, {(1, 0): 1}) == {(1, 1): 1 + 0j, (0, 0): -1j}


def test_word_average_matches_mccoy():
    for n_x in range(5):
        for n_p in range(5):
            assert op_close(word_average(n_x, n_p), mccoy(n_x, n_p))


def test_canonical_commutator():
    # [x, p] = i is the canonical_commutator identity; this is the
    # half-commutator convention that goes with it
    x = WeylSymbol.x()
    p = WeylSymbol.p()
    assert star(x, p).distance(WeylSymbol({(1, 1): 1.0, (0, 0): 0.5j})) == 0.0
    assert star(p, x).distance(WeylSymbol({(1, 1): 1.0, (0, 0): -0.5j})) == 0.0


def test_star_frozen_cubic_pair():
    # hand-checked against the operator engine
    fg = star(WeylSymbol.monomial(2, 1), WeylSymbol.monomial(1, 2))
    expect = WeylSymbol({(0, 0): 0.25j, (1, 1): 0.5, (2, 2): 1.5j, (3, 3): 1.0})
    assert fg.distance(expect) < 1e-15
    gf = star(WeylSymbol.monomial(1, 2), WeylSymbol.monomial(2, 1))
    expect = WeylSymbol({(0, 0): -0.25j, (1, 1): 0.5, (2, 2): -1.5j, (3, 3): 1.0})
    assert gf.distance(expect) < 1e-15


def test_star_matches_operator_product():
    rng = np.random.default_rng(7)
    for _ in range(15):
        f = random_symbol(rng)
        g = random_symbol(rng)
        assert op_close(lower(star(f, g)), op_mul(lower(f), lower(g)))


def test_star_with_constants_and_identity():
    rng = np.random.default_rng(3)
    f = random_symbol(rng)
    one = WeylSymbol.constant(1.0)
    assert star(f, one).isclose(f, tol=0.0)
    assert star(one, f).isclose(f, tol=0.0)
    assert star(f, WeylSymbol.constant(2.5)).isclose(f * 2.5, tol=0.0)


def test_star_associativity():
    rng = np.random.default_rng(21)
    for _ in range(8):
        f = random_symbol(rng)
        g = random_symbol(rng)
        h = random_symbol(rng)
        left = star(star(f, g), h)
        right = star(f, star(g, h))
        assert left.isclose(right, tol=1e-13)


def test_compose_identity_substitution():
    rng = np.random.default_rng(5)
    f = random_symbol(rng, max_deg=4, n_terms=5)
    back = compose_weyl(f, WeylSymbol.x(), WeylSymbol.p())
    assert back.isclose(f, tol=1e-14)


def test_compose_linear_momentum_shift():
    # substituting P = p - i g x into the mixed monomial picks up -i g x^2
    g = 0.4
    shifted = compose_weyl(
        WeylSymbol.monomial(1, 1),
        WeylSymbol.x(),
        WeylSymbol.p() - WeylSymbol.monomial(1, 0, 1j * g),
    )
    expect = WeylSymbol({(1, 1): 1.0, (2, 0): -1j * g})
    assert shifted.distance(expect) < 1e-15


def test_conjugation_antihomomorphism():
    rng = np.random.default_rng(11)
    for _ in range(6):
        f = random_symbol(rng)
        g = random_symbol(rng)
        lhs = star(f, g).conjugate()
        rhs = star(g.conjugate(), f.conjugate())
        assert lhs.isclose(rhs, tol=1e-13)


def test_hermiticity_predicates():
    hermitian = WeylSymbol({(2, 0): 1.0, (0, 2): 0.5})
    assert hermitian.conjugate().isclose(hermitian)
    skew = WeylSymbol({(1, 1): 1j})
    assert not skew.conjugate().isclose(skew)
    sym = WeylSymbol({(1, 1): 2.0})
    assert sym.conjugate().isclose(sym, tol=0.0)


def test_pt_transform():
    # x flips sign, i flips sign, p survives
    assert pt_transform(WeylSymbol.x()).isclose(-WeylSymbol.x(), tol=0.0)
    assert pt_transform(WeylSymbol.p()).isclose(WeylSymbol.p(), tol=0.0)
    assert is_pt_symmetric(WeylSymbol.monomial(1, 0, 1j))
    assert is_pt_symmetric(WeylSymbol.monomial(1, 1, 1j))
    assert not is_pt_symmetric(WeylSymbol.x())
    # involution
    rng = np.random.default_rng(13)
    f = random_symbol(rng)
    assert pt_transform(pt_transform(f)).isclose(f, tol=0.0)


def fourier_swap(f):
    """Relabel (x, p) -> (-p, x), the symbol action of the Fourier transform."""
    return WeylSymbol({(dp, dx): c * (-1) ** dx for (dx, dp), c in f.items()})


def test_fourier_swap_basics():
    assert fourier_swap(WeylSymbol.x()).isclose(-WeylSymbol.p(), tol=0.0)
    assert fourier_swap(WeylSymbol.p()).isclose(WeylSymbol.x(), tol=0.0)
    # double application is the parity map on both variables
    f = WeylSymbol({(2, 1): 1.5, (1, 0): -0.5, (0, 3): 2j})
    twice = fourier_swap(fourier_swap(f))
    parity = WeylSymbol({(dx, dp): ((-1) ** (dx + dp)) * c for (dx, dp), c in f.items()})
    assert twice.isclose(parity, tol=0.0)


def test_fourier_swap_star_covariance():
    # the relabeling is linear symplectic so it must commute with star
    rng = np.random.default_rng(17)
    for _ in range(6):
        f = random_symbol(rng)
        g = random_symbol(rng)
        lhs = fourier_swap(star(f, g))
        rhs = star(fourier_swap(f), fourier_swap(g))
        assert lhs.isclose(rhs, tol=1e-13)


def test_evaluate():
    f = WeylSymbol.monomial(1, 1)
    assert f.evaluate(2.0, 3.0) == 6.0
    assert WeylSymbol.zero().evaluate(1.0, 1.0) == 0.0
    g = WeylSymbol.p(2) + WeylSymbol.x(2)
    assert abs(g.evaluate(1.0, 1j)) == 0.0


def test_calculus_and_shifts():
    shifted = WeylSymbol.x(2).shift_x(1.0)
    assert shifted.distance(WeylSymbol({(2, 0): 1.0, (1, 0): 2.0, (0, 0): 1.0})) == 0.0
    shifted_p = WeylSymbol.p().shift_p(-2.5)
    assert shifted_p.distance(WeylSymbol({(0, 1): 1.0, (0, 0): -2.5})) == 0.0


def test_rounding_floor_is_per_coefficient():
    # constructors keep every nonzero coefficient, however small next to the rest
    sym = WeylSymbol({(0, 0): 1.0, (1, 0): 5e-13, (2, 0): 0.0})
    assert dict(sym.items()) == {(0, 0): 1.0 + 0j, (1, 0): 5e-13 + 0j}
    assert dict(WeylSymbol({(0, 0): 1e-30}).items()) == {(0, 0): 1e-30 + 0j}
    # a sum keeps a small genuine term beside a large one ...
    assert (WeylSymbol.constant(1.0) + WeylSymbol.x() * 1e-20).coefficient(1, 0) == 1e-20
    # ... and drops what is at most RESIDUE_ULPS eps of the magnitudes that fed it
    a = WeylSymbol({(0, 0): 0.1 + 0.2, (1, 0): 1.0})
    b = WeylSymbol({(0, 0): -0.3, (1, 0): 1e-14})
    assert dict((a + b).items()) == {(1, 0): 1.0 + 1e-14 + 0j}
    assert (a - a).is_zero()
    # distance() compares without the floor, so it still sees such residue
    tenths = WeylSymbol.constant(0.1 + 0.2)
    assert (tenths - WeylSymbol.constant(0.3)).is_zero()
    assert tenths.distance(WeylSymbol.constant(0.3)) == 0.1 + 0.2 - 0.3
    small = WeylSymbol({(0, 0): 0.3 + 1e-13})
    assert (small - WeylSymbol.constant(0.3)).coefficient(0, 0) != 0
    # the floor scales with each coefficient's own feeders, not with the largest
    big = WeylSymbol({(0, 0): 1e12, (1, 0): 1e-3})
    assert star(big, WeylSymbol.p()).coefficient(1, 1) == 1e-3
    # a NaN magnitude (0 * inf in a small product's matrix product) keeps its value
    kept = weyl._settle(np.array([[1.0 + 0j, 2.0]]), np.array([[np.nan, 1.0]]))
    assert dict(kept.items()) == {(0, 0): 1.0 + 0j, (0, 1): 2.0 + 0j}


def test_serialization_round_trip():
    rng = np.random.default_rng(19)
    f = random_symbol(rng, max_deg=4, n_terms=6)
    back = WeylSymbol.from_text(f.to_text())
    assert back.distance(f) == 0.0


def test_from_text_tolerates_csv():
    text = "deg_x,deg_p,re,im\n1,0,2.0,0.0\n0,1,0.0,-1.0\n# comment\n"
    sym = WeylSymbol.from_text(text)
    assert sym.distance(WeylSymbol({(1, 0): 2.0, (0, 1): -1j})) == 0.0
    with pytest.raises(ValueError):
        WeylSymbol.from_text("1 0 2.0\n")


def exp_star(poly, exponent, poly_left=True):
    """The polynomial R with poly * e^E = R e^E (poly_left) or e^E * poly = R e^E."""
    return weyl._star_with_exp([(poly, poly_left)], exponent)[0]


def test_exp_symbol_derivatives_match_numeric():
    # the derivative table's entries T[1, 0] and T[0, 1] are e^-E d_x e^E
    # and e^-E d_p e^E; heights [2, 1] lay them out as T[0, 0], T[1, 0], T[0, 1]
    exponent = WeylSymbol({(2, 0): 0.3, (1, 1): 0.2, (0, 3): -0.1})
    table = weyl._exp_table(exponent._c, [2, 1])
    d_x, d_p = (WeylSymbol._wrap(weyl._trim(t)) for t in table[1:])

    def value(x, p):
        return np.exp(exponent.evaluate(x, p))

    x0, p0 = 0.7, -1.1
    eps = 1e-6
    num_x = (value(x0 + eps, p0) - value(x0 - eps, p0)) / (2 * eps)
    num_p = (value(x0, p0 + eps) - value(x0, p0 - eps)) / (2 * eps)
    scale = np.exp(exponent.evaluate(x0, p0))
    assert abs(d_x.evaluate(x0, p0) * scale - num_x) < 1e-8
    assert abs(d_p.evaluate(x0, p0) * scale - num_p) < 1e-8


def test_exp_symbol_star_closed_forms():
    # hand-derived: only the first derivative survives against exp(g x^2)
    g = 0.3
    E = WeylSymbol.monomial(2, 0, g)
    x = WeylSymbol.x()
    p = WeylSymbol.p()

    assert exp_star(x, E).distance(x) < 1e-15
    assert exp_star(p, E).distance(p - WeylSymbol.monomial(1, 0, 1j * g)) < 1e-15
    assert exp_star(p, E, poly_left=False).distance(p + WeylSymbol.monomial(1, 0, 1j * g)) < 1e-15

    product = exp_star(WeylSymbol.p(2), E)
    expect = (
        WeylSymbol.p(2)
        - WeylSymbol.monomial(1, 1, 2j * g)
        - WeylSymbol.monomial(2, 0, g * g)
        - WeylSymbol.constant(0.5 * g)
    )
    assert product.distance(expect) < 1e-14


@pytest.mark.parametrize(
    "expression",
    [lambda: WeylSymbol.x() * WeylSymbol.p(), lambda: 1.0 - WeylSymbol.x()],
    ids=["symbol_times_symbol", "number_minus_symbol"],
)
def test_pointwise_product_and_reflected_subtraction_are_refused(expression):
    # x * p once gave the pointwise product x p, which is not the operator
    # product star(x, p) = x p + i/2; a symbol multiplies only by a scalar
    with pytest.raises(TypeError):
        expression()


def test_invalid_degree_keys():
    with pytest.raises(ValueError):
        WeylSymbol({(-1, 0): 1.0})


@pytest.mark.parametrize(
    "key", [(math.inf, 0), (0, math.nan), (np.float64(np.inf), 1), (np.float64(np.nan), 1)]
)
def test_degree_keys_that_are_not_finite_are_refused_by_name(key):
    # int() once ran first: inf raised OverflowError, nan a message without the key
    with pytest.raises(ValueError, match=re.escape(f"invalid degree key {key!r}")):
        WeylSymbol({key: 1.0})


@pytest.mark.parametrize(
    "derive",
    [
        # p * e^E reads d_x e^E = 170e307 x^169 e^E, and e^E * x reads d_p e^E
        lambda: exp_star(WeylSymbol.p(), WeylSymbol({(170, 0): 1e307})),
        lambda: exp_star(WeylSymbol.x(), WeylSymbol({(0, 170): 1e307}), poly_left=False),
    ],
    ids=["exp_diff_x", "exp_diff_p"],
)
def test_derivatives_refuse_a_coefficient_that_overflows(derive):
    # an overflowed derivative once came back as inf+nanj, which to_text
    # wrote and from_text then refused; the products reach d_x and d_p of
    # e^E through its derivative table
    with pytest.raises(ValueError, match="non-finite"):
        derive()


def test_an_exponential_star_whose_table_outgrows_max_degree_is_refused(monkeypatch):
    # p^2 * e^E reads e^-E d_x^2 e^E = E_x^2 + E_xx, of degree 198 for
    # E = x^100/2: the table once overflowed converting 171!/k! to a float
    H = WeylSymbol({(0, 2): 0.5, (4, 0): 0.5})
    E = WeylSymbol({(100, 0): 0.5})

    def step(*args):
        raise AssertionError("a table past MAX_DEGREE was built")

    monkeypatch.setattr(weyl, "_exp_step", step, raising=False)
    message = re.escape("result degrees up to (198, 0) exceed MAX_DEGREE = 170")
    for product in (lambda: exp_star(H, E), lambda: exp_star(H, E, poly_left=False),
                    lambda: weyl.intertwining_residual(H, E, H)):
        with pytest.raises(ValueError, match=message):
            product()


def test_the_table_holds_only_the_orders_the_polynomial_reaches():
    # x^6 + p pairs d_x e^E with its d_p and nothing else with d_x^a e^E,
    # a > 1, so the table stops at d_x e^E (degree 39), and the products are
    # the closed forms x^6 + p -+ 20i x^39; the whole triangle a + b <= 6
    # once reached degree 195 at d_x^5 e^E and overflowed differentiating it
    f = WeylSymbol({(6, 0): 1.0, (0, 1): 1.0})
    E = WeylSymbol({(40, 0): 1.0})
    left, right = exp_star(f, E), exp_star(f, E, poly_left=False)
    assert left == f + WeylSymbol({(39, 0): -20j})
    assert right == f + WeylSymbol({(39, 0): 20j})


DEGREES = st.tuples(st.sampled_from((0, 1, 2, -1, 171)), st.sampled_from((0, 1, 2)))
PARTS = st.sampled_from(
    (1.0, -2.5, 0.0, -0.0, 0.1, 1e308, -1e308, 1.5e308, 1e-320, math.inf, -math.inf, math.nan)
)


def _built(make):
    """(shape, bytes) of the coefficient array make() stores, or its ValueError text
    without the parser's 'line N: ' prefix."""
    try:
        c = make()._c
    except ValueError as exc:
        return re.sub(r"^line \d+: ", "", str(exc))
    return c.shape, c.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(DEGREES, PARTS, PARTS), max_size=6))
@example([((2, 0), -0.0, -0.0), ((2, 0), -0.0, 0.0), ((0, 1), 1.0, -0.0)])  # sums at -0 and +0
@example([((1, 1), 1e308, 0.0), ((1, 1), 1e308, 0.0)])  # the sum overflows
@example([((0, 2), 1.5e308, 1.5e308), ((0, 0), 1.0, 0.0)])  # the modulus overflows
@example([((1, 0), 1.0, math.nan), ((0, 1), math.inf, 0.0)])
@example([((1, 0), math.inf, 0.0), ((1, 0), -math.inf, 0.0)])  # inf - inf sums to nan
@example([((0, 0), 1.0, 0.0), ((171, 0), 1.0, 0.0), ((-1, 0), 1.0, 0.0)])
@example([])
def test_constructor_and_parser_store_the_same_bits(terms):
    # WeylSymbol(pairs) and WeylSymbol.from_text share one gather and one
    # gate: the same coefficients, -0 included, or the same refusal
    pairs = [(key, complex(re_, im)) for key, re_, im in terms]
    text = "".join(f"{dx} {dp} {re_!r} {im!r}\n" for (dx, dp), re_, im in terms)
    assert _built(lambda: WeylSymbol(pairs)) == _built(lambda: WeylSymbol.from_text(text))


def test_results_past_max_degree_are_refused():
    # every operation's result is a symbol a file can hold: degrees <= MAX_DEGREE
    top, x = WeylSymbol.p(weyl.MAX_DEGREE), WeylSymbol.x()
    cases = [
        (star, top, top, (0, 340)),
        (weyl.star_commutator, top, WeylSymbol({(1, 2): 1.0}), (0, 171)),  # -170i p^171
    ]
    for product, f, g, degrees in cases:
        with pytest.raises(ValueError, match=re.escape(f"degrees up to {degrees} exceed")):
            product(f, g)
    # the box is judged after exact cancellations are trimmed
    assert star(top, x).coefficient(1, weyl.MAX_DEGREE) == 1
    assert weyl.star_commutator(top, top).is_zero()


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [(2, 0), (0, 1)])
def test_non_finite_coefficient_rejected(slot, bad, part):
    # (2, 0) is visited first and holds the largest coefficient, which sets
    # the rounding cutoff; (0, 1) is a later, smaller slot
    terms = {(2, 0): 5.0, (1, 1): 2.0, (0, 1): 1.0}
    terms[slot] = complex(bad, 0.0) if part == "re" else complex(0.0, bad)
    with pytest.raises(ValueError, match="non-finite"):
        WeylSymbol(terms)


def test_coefficient_whose_modulus_overflows_is_rejected():
    # both parts are finite, but |c| = 2.1e308 is not a double: the rounding
    # floor compared inf with inf and a product dropped the term silently
    huge = complex(1.5e308, 1.5e308)
    with pytest.raises(ValueError, match="modulus overflows"):
        WeylSymbol({(0, 2): huge, (0, 0): 1.0})
    edge = WeylSymbol({(0, 0): complex(1e308, 1e308)})
    assert star(edge, WeylSymbol.constant(1.0)) == edge
    with pytest.raises(ValueError, match="modulus overflows"):
        star(WeylSymbol.constant(1e308), WeylSymbol.constant(complex(1.5, 1.5)))


# -- oscillator-basis matrices ----------------------------------------------


@pytest.mark.parametrize("scale", [1.0, 0.6, 1.7])
def test_oscillator_matrix_maps_star_to_the_matrix_product(scale):
    # M(f * g) = M(f) M(g) on the kept block: every block is exact, and one
    # of a degree-3 g reaches 3 states past it (6e-16 relative seen)
    rng = np.random.default_rng(29)
    n = 20
    for _ in range(4):
        f, g = random_symbol(rng, n_terms=8), random_symbol(rng, n_terms=8)
        lhs = weyl.oscillator_matrix(star(f, g), n, scale)
        rhs = weyl.oscillator_matrix(f, n + 3, scale) @ weyl.oscillator_matrix(g, n + 3, scale)
        assert np.abs(lhs - rhs[:n, :n]).max() <= 1e-13 * np.abs(lhs).max()


def test_oscillator_matrix_scale_and_ladder():
    # x = s (a + a^+)/sqrt 2 and p = i (a^+ - a)/(sqrt 2 s): at s = omega^-1/2
    # p^2 + omega^2 x^2 is diagonal with the levels omega (2n + 1)
    omega = 3.0
    m = weyl.oscillator_matrix(WeylSymbol.p(2) + WeylSymbol.x(2) * omega ** 2, 6, omega ** -0.5)
    assert np.abs(m - np.diag(omega * (2 * np.arange(6) + 1))).max() <= 1e-14
    x = weyl.oscillator_matrix(WeylSymbol.x(), 4, 2.0)
    p = weyl.oscillator_matrix(WeylSymbol.p(), 4, 2.0)
    assert x[0, 1] == pytest.approx(math.sqrt(2.0), rel=1e-15) and x[0, 0] == 0
    assert p[1, 0] == pytest.approx(1j / (2.0 * math.sqrt(2.0)), rel=1e-15)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_oscillator_matrix_refuses_a_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        weyl.oscillator_matrix(WeylSymbol.x(2), 4, scale)


def test_oscillator_matrix_refuses_an_entry_that_overflows():
    with pytest.raises(ValueError, match="leaves double precision at scale 1e\\+100"):
        weyl.oscillator_matrix(WeylSymbol.x(4) * 1e10, 4, 1e100)
