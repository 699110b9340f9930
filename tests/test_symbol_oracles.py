"""Oracles of the symbol request path, kept from the code they replaced.

`loop_from_text` is the per-line, dict-accumulating parser that
`WeylSymbol.from_text` replaced with a column parse, `_star_with_exp` the
exponential star that built its derivative table entry by entry and
gathered the Moyal orders in a Python loop, where the array kernel of
`weyl._star_with_exp` now builds one stacked table and sums the orders in
one einsum, and `loop_settle` the rounding floor before it checked
finiteness by one largest modulus and trimmed by counting nonzeros.  Each
new path must give the same bits as its oracle: the coefficient arrays
here, and the stdout bytes of whole `cli.run` requests; the exponential
star's own table may differ in the last bit, and agrees within the
rounding floor (see test_array_star_matches_the_per_entry_star).
`sweep_moyal_by_tensor` is the Moyal tensor kernel that shifted and
weighted the (b, c) cells once per order v, where the kernel now
multiplies them by real blocks; it sums in another order, so the two
agree within the rounding floor.

The property test is derandomized; see `test_cli_properties.py` for why
its draws still move with literals elsewhere, and why each input it has
to cover is pinned as an @example.
"""
import contextlib
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import cli, metric, models, weyl
from pseudoherm.weyl import WeylSymbol

# -- the per-line parser -----------------------------------------------------


def loop_from_text(text):
    terms = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].replace(",", " ").strip()
        if not body:
            continue
        fields = body.split()
        if fields[0] == "deg_x":
            continue
        if len(fields) != 4:
            raise ValueError(f"line {lineno}: expected 'deg_x deg_p re im', got {line!r}")
        dx, dp = int(fields[0]), int(fields[1])
        c = complex(float(fields[2]), float(fields[3]))
        terms[(dx, dp)] = terms.get((dx, dp), 0j) + c
    return WeylSymbol(terms)


def parsed(parse, text):
    """The coefficient array, or None for a ValueError."""
    try:
        return parse(text)._c
    except ValueError:
        return None


DEGREES = st.sampled_from(("0", "1", "2", "3", "+1", "1_0", "-1", "171", "2.0", "x", "٣"))
PARTS = st.sampled_from((
    "1", "-2.5", "0", "-0.0", "0.1", "1e308", "-1e308", "1.5e308", "1e-320",
    "inf", "-inf", "nan", "1_0.5", "abc", "",
))
SEPARATORS = st.sampled_from((" ", ",", "\t", " , ", "  "))


@st.composite
def symbol_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(("", "  ", "deg_x,deg_p,re,im", "# note", "deg_x 1"))))
        elif kind == 1:
            lines.append(draw(st.text(max_size=10)))
        else:
            fields = [draw(DEGREES), draw(DEGREES), draw(PARTS), draw(PARTS)]
            if kind == 2:
                fields = fields[: draw(st.integers(0, 3))] + [draw(PARTS)] * draw(st.integers(0, 2))
            line = draw(SEPARATORS).join(fields)
            lines.append(line + draw(st.sampled_from(("", "", " # c", "#"))))
    ending = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return ending.join(lines) + draw(st.sampled_from((ending, "")))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(symbol_texts())
@example("3 3 1e308 1\n3 3 1e308 1\n")  # the sum overflows to inf inside np.add.at
@example("2.0 0 1 0\n")
@example("1_0 0 1 0\n")  # int() reads 10
@example("-1 0 1 0\n")
@example("0 171 1 0\n")
@example("1 1 -0.0 -0.0\n1 1 -0.0 -0.0\n2 0 1.5 -2\n2 0 -1.5 2\n")  # sums at -0 and 0
@example("deg_x,deg_p,re,im\r\n1,0,2.0,0.0\r\n# comment\r\n0,1,0.0,-1.0  # trailing\r\n")
@example("")
@example("0 0 1 inf\n")  # an infinite part stays out of the other part
def test_column_parse_matches_the_line_loop(text):
    old, new = parsed(loop_from_text, text), parsed(WeylSymbol.from_text, text)
    assert (old is None) == (new is None)
    if old is not None:
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("0 0 1 0\nx 0 1 1\n", "line 2: invalid literal for int() with base 10: 'x'"),
        ("# head\n\n1 0 abc 0\n", "line 3: could not convert string to float: 'abc'"),
        ("1 2 3\n", "line 1: expected 'deg_x deg_p re im', got '1 2 3'"),
        ("0 -1 1 0\n1 1 1\n", "line 2: expected"),  # a malformed row before a bad degree
        ("0 0 1 0\n0 -1 1 0\n", "line 2: invalid degree key (0, -1)"),
        ("deg_x,deg_p,re,im\n171 0 1 0\n", "line 2: degree key (171, 0) exceeds MAX_DEGREE = 170"),
        ("0 1 1e308 0\n0 1 1e308 0\n", "non-finite coefficient (inf+0j) at degrees (0, 1)"),
    ],
)
def test_refusals_name_the_line(text, message):
    with pytest.raises(ValueError) as info:
        WeylSymbol.from_text(text)
    assert str(info.value).startswith(message)
    with pytest.raises(ValueError):
        loop_from_text(text)


# -- the per-entry exponential star ------------------------------------------
#
# The exponential star as it was before the array kernel, kept as its oracle:
# a dict of derivative arrays, one entry at a time, and the orders of the
# Moyal series gathered by a Python loop.  It builds its table for each
# product (where the kernel builds one per batch of products); otherwise it
# is unchanged.  _derivative and _convolve are the coefficient derivative
# and pointwise product that the library dropped with WeylSymbol.diff_x,
# diff_p and the symbol-by-symbol `*`; weyl._exp_step sums its product
# terms in _convolve's order.


def _derivative(c, u, v):
    """Coefficients of d_x^u d_p^v of the symbol with coefficient array c."""
    na, nb = c.shape
    if u >= na or v >= nb:
        return weyl._EMPTY
    return c[u:, v:] * weyl._falling(na)[u:, u, None] * weyl._falling(nb)[v:, v]


def _convolve(a, b):
    """Pointwise product of two coefficient arrays (a 2-D convolution)."""
    if a.size == 0 or b.size == 0:
        return weyl._EMPTY
    return weyl._scatter(np.multiply.outer(a, b))


def _exp_deriv_table(exponent, smax):
    """e^-E d_x^a d_p^b e^E for a + b <= smax, as coefficient arrays keyed (a, b)."""
    wx = _derivative(exponent, 1, 0)
    wp = _derivative(exponent, 0, 1)
    tab = {(0, 0): np.ones((1, 1), dtype=complex)}
    for total in range(1, smax + 1):
        for a in range(total + 1):
            b = total - a
            if b > 0:
                q = tab[(a, b - 1)]
                tab[(a, b)] = weyl._padded_sum(_derivative(q, 0, 1), _convolve(q, wp))[0]
            else:
                q = tab[(a - 1, 0)]
                tab[(a, b)] = weyl._padded_sum(_derivative(q, 1, 0), _convolve(q, wx))[0]
    return tab


def _star_with_exp(poly, exponent, poly_left):
    """The polynomial R with poly * e^E = R e^E (poly_left) or e^E * poly = R e^E.

    R is sum_uv w_uv (d_x^u d_p^v left)(d_x^v d_p^u right) with the
    derivatives of e^E taken from the table, all (u, v) in one weighted
    batch of pointwise products.
    """
    dx, dp = np.nonzero(poly._c)
    smax = int((dx + dp).max(initial=0))
    orders = [(u, s - u) for s in range(smax + 1) for u in range(s + 1)]
    tab = _exp_deriv_table(exponent._c, smax)
    weights, left, right = [], [], []
    for u, v in orders:
        d = _derivative(poly._c, *((u, v) if poly_left else (v, u)))
        if not d.any():
            continue
        weights.append((0.5j) ** u * (-0.5j) ** v / (math.factorial(u) * math.factorial(v)))
        left.append(d)
        right.append(tab[(v, u) if poly_left else (u, v)])
    return _weighted_products(weights, left, right)


def _stack(arrays):
    shape = (max(a.shape[0] for a in arrays), max(a.shape[1] for a in arrays))
    out = np.zeros((len(arrays),) + shape, dtype=complex)
    for k, a in enumerate(arrays):
        out[k, : a.shape[0], : a.shape[1]] = a
    return out


def _weighted_products(weights, left, right):
    """sum_k w_k left_k right_k (pointwise products), floored per coefficient."""
    if not weights:
        return WeylSymbol.zero()
    w, a, b = np.array(weights), _stack(left), _stack(right)
    values = weyl._scatter(np.einsum("k,kab,kcd->abcd", w, a, b))
    mags = weyl._scatter(np.einsum("k,kab,kcd->abcd", np.abs(w), np.abs(a), np.abs(b)))
    return weyl._settle(values, mags)


def oracle_products(products, exponent):
    """The per-entry star for each (poly, poly_left) of products, zero ones
    kept: weyl._star_with_exp's contract, for monkeypatching."""
    return [_star_with_exp(poly, exponent, poly_left) for poly, poly_left in products]


def oracle_table(exponent, heights):
    """_exp_deriv_table's entries in the layout of weyl._exp_table: T[a, b]
    for a < heights[b], column after column."""
    tab = _exp_deriv_table(exponent, max(h - 1 + b for b, h in enumerate(heights)))
    entries = [tab[a, b] for b, h in enumerate(heights) for a in range(h)]
    box = (max(e.shape[0] for e in entries), max(e.shape[1] for e in entries))
    table = np.zeros((len(entries), *box), dtype=complex)
    for k, e in enumerate(entries):
        table[k, : e.shape[0], : e.shape[1]] = e
    return table


def floored_sums(star, products, exponent):
    """The (values, magnitudes) that star(products, exponent) passes to _settle,
    one pair per product."""
    sums = []
    settle = weyl._settle

    def recording(values, mags=None):
        if mags is not None:
            sums.append((values, mags))
        return settle(values, mags)

    with mock.patch.object(weyl, "_settle", recording):
        star(products, exponent)
    return sums


def _exponent(rng, kind):
    """A random exponent of degree <= 3: in x only, in p only, or with terms in both."""
    degrees = {"x": [(1, 0), (2, 0), (3, 0)], "p": [(0, 1), (0, 2), (0, 3)],
               "xp": [(1, 1), (0, 3), (2, 1), (1, 0), (0, 2)]}[kind]
    keep = rng.random(len(degrees)) < 0.6
    keep[rng.integers(len(degrees))] = True
    return WeylSymbol({k: complex(*(0.4 * rng.standard_normal(2))) for k, use in zip(degrees, keep) if use})


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 6), st.booleans()), min_size=1, max_size=2),
    st.sampled_from(("x", "p", "xp")),
)
@example(0, [(0, True)], "x")
@example(1, [(1, True), (4, False)], "p")
@example(2, [(2, False)], "xp")
@example(3, [(3, False), (3, True)], "x")
@example(4, [(4, True)], "xp")
@example(5, [(5, False)], "x")
@example(6, [(6, True), (2, False)], "xp")
@example(7, [(6, False)], "p")
def test_array_star_matches_the_per_entry_star(seed, polys, kind):
    """The exponential star's array kernel against the per-entry star it replaced.

    Each draw multiplies one or two polynomials, of degree 0 to 6, from
    either side with an exponential e^E whose exponent E lies in x, in p
    or in both; two products run as one batch of the kernel.
    The polynomials' derivatives, the einsum over the Moyal orders, the
    scatter and the floor keep the per-entry star's order of operations:
    given the per-entry derivative table, the kernel gives its bits.  The
    table itself rounds each complex product as numpy rounds it, and numpy
    picks a different loop (with or without fused multiply-add) for
    different array shapes, so a table in the kernel's layout may differ in
    the last bit; with its own table the kernel agrees with the per-entry
    star within the _settle floor, before the floor applies.
    """
    rng = np.random.default_rng(seed)
    products = [(WeylSymbol._wrap(weyl._trim(_dense(rng, degree) * (rng.random((degree + 1,) * 2) < 0.7))),
                 poly_left) for degree, poly_left in polys]
    exponent = _exponent(rng, kind)
    expected = oracle_products(products, exponent)

    with mock.patch.object(weyl, "_exp_table", oracle_table):
        same_table = weyl._star_with_exp(products, exponent)
    assert [(p._c.shape, p._c.tobytes()) for p in same_table] == \
        [(p._c.shape, p._c.tobytes()) for p in expected]

    own = floored_sums(weyl._star_with_exp, products, exponent)
    per_entry = floored_sums(oracle_products, products, exponent)
    # a zero polynomial gives a zero product unfloored
    live = sum(1 for poly, _ in products if poly._c.size)
    assert len(own) == len(per_entry) == live
    for (values, mags), (old_values, _) in zip(own, per_entry):
        h, w = (max(a, b) for a, b in zip(values.shape, old_values.shape))
        diff, _ = weyl._padded_sum(values, -old_values)
        bound, _ = weyl._padded_sum(mags, np.zeros((h, w)))
        assert np.all(np.abs(diff) <= weyl._RESIDUE * bound.real)


def _random(rng, shape, mask=None):
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return c if mask is None else c * mask



# -- the slice-sum scatters and the Moyal kernels ------------------------------


def loop_scatter(t):
    """Sum a 4-D (a, b, c, d) tensor into the 2-D array at (a + c, b + d), by
    slice sums over b and then over a."""
    na, nb, nc, nd = t.shape
    by_p = np.zeros((na, nc, nb + nd - 1), dtype=t.dtype)
    for b in range(nb):
        by_p[:, :, b : b + nd] += t[:, b]
    out = np.zeros((na + nc - 1, nb + nd - 1), dtype=t.dtype)
    for a in range(na):
        out[a : a + nc] += by_p[a]
    return out


def loop_moyal_scatter(out):
    """The (b, c, channel, a, d) tensor of the Moyal tensor kernel summed into
    (channel, a + c, b + d), by slice sums over b and then over c."""
    nb, nc, _, na, nd = out.shape
    width = nb + nd - 1
    by_p = np.zeros((nc, 3, na, width))
    for b in range(nb):
        by_p[..., b : b + nd] += out[b]
    r = np.zeros((3, na + nc - 1, width))
    for c in range(nc):
        r[:, c : c + na] += by_p[c]
    return r


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (3, 1, 1, 4), (2, 5, 3, 1), (4, 4, 4, 4), (7, 2, 3, 6)])
def test_bincount_scatters_match_the_slice_loops(shape):
    # integer-valued entries add up exactly in any order: the sums must agree bit for bit
    rng = np.random.default_rng(sum(shape))
    real = rng.integers(-1000, 1000, shape).astype(float)
    for t in (real, real + 1j * rng.integers(-1000, 1000, shape)):
        got = weyl._scatter(t)
        assert got.dtype == t.dtype
        assert np.array_equal(got, loop_scatter(t))
    # the Moyal tensor kernel holds its channels first and scatters each alone
    na, nb, nc, nd = shape
    h, w = na + nc - 1, nb + nd - 1
    out = rng.integers(-1000, 1000, (3, nb, nc, na, nd)).astype(float)
    got = [weyl._scatter_add(channel, (1, w, w, 1), h * w).reshape(h, w) for channel in out]
    assert np.array_equal(got, loop_moyal_scatter(np.moveaxis(out, 0, 2)))


# pairs of boxes on both sides of MAX_MAP: 5x5 * 5x5 is the largest square
# one within it, and the lopsided pairs straddle its edge; past it, boxes
# with nb > nc, nb < nc and nb = nc
KERNEL_SHAPES = [(3, 3, 3, 3), (5, 5, 5, 5), (5, 5, 5, 6), (6, 6, 6, 6), (4, 1, 7, 4),
                 (2, 2, 2, 30), (2, 2, 2, 60), (1, 16, 16, 1), (1, 17, 17, 1), (16, 1, 1, 16),
                 (6, 3, 9, 6)]


def test_kernel_shapes_straddle_max_map():
    entries = [na * nb * nc * nd * (na + nc - 1) * (nb + nd - 1) for na, nb, nc, nd in KERNEL_SHAPES]
    assert [n <= weyl.MAX_MAP for n in entries] == [1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("odd_only", [False, True])
def test_map_and_tensor_kernels_agree(shape, odd_only, monkeypatch):
    rng = np.random.default_rng(sum(shape) + odd_only)
    f, g = _random(rng, shape[:2]), _random(rng, shape[2:])
    values, mags = weyl._moyal_by_map(f, g, odd_only)
    tensor_values, tensor_mags = weyl._moyal_by_tensor(f, g, odd_only, magnitude_plane=True)
    assert np.all(np.abs(values - tensor_values) <= weyl._RESIDUE * tensor_mags)
    np.testing.assert_allclose(mags, tensor_mags, rtol=1e-14, atol=0)
    # _moyal takes the map exactly when it has at most MAX_MAP entries
    taken = []
    monkeypatch.setattr(weyl, "_moyal_by_map", lambda *args: taken.append("map"))
    monkeypatch.setattr(weyl, "_moyal_by_tensor", lambda *args: taken.append("tensor"))
    weyl._moyal(f, g, odd_only)
    na, nb, nc, nd = shape
    small = na * nb * nc * nd * (na + nc - 1) * (nb + nd - 1) <= weyl.MAX_MAP
    assert taken == ["map" if small else "tensor"]


# Multiplying a complex value held as the channels (re, mag, im) by i^k:
# odd k swaps re and im (a reversed channel axis keeps mag in place),
# then each channel takes a sign.
_TURN_SIGNS = np.array([[1, 1, 1], [-1, 1, 1], [-1, 1, -1], [1, 1, -1]], dtype=float)[:, :, None, None]


def sweep_moyal_by_tensor(f, g, odd_only):
    """The Moyal product through the (channel, b, c, a, d) tensor, one v at a time.

    The u factor is one matrix product of Hankel windows of f and g, laid
    out as the (b, c, a', d') tensor; the v factor shifts (b, c) to
    (b - v, c - v) with the weight (b'+v)!/b'! (c'+v)!/c'! (-i/2)^v/v!, one
    shifted slice per v; one bincount per channel scatters the sum to
    (a + c, b + d).  The real part, the magnitude and the imaginary part
    ride through the sweep as three channels of one real tensor.  With
    odd_only, even and odd u take turns.
    """
    na, nb = f.shape
    nc, nd = g.shape
    nu = min(na, nd)
    ia, ic, id_, iu = (np.arange(n) for n in (na, nc, nd, nu))
    src_a = np.add.outer(ia, iu)
    take_f = np.minimum(src_a, na - 1)
    mult_f = np.where(src_a < na, weyl._falling(na)[take_f, iu], 0.0)
    src_d = np.add.outer(iu, id_)
    take_g = np.minimum(src_d, nd - 1)
    mult_g = np.where(
        src_d < nd,
        weyl._falling(nd)[take_g, iu[:, None]] * ((0.5j) ** iu * weyl._inverse_factorials(nu))[:, None],
        0.0,
    )
    sweep = []
    for v in range(min(nb, nc)):
        scale = np.outer(weyl._falling(nb)[v:, v], weyl._falling(nc)[v:, v]) * 0.5**v / math.factorial(v)
        sweep.append((scale * _TURN_SIGNS[-v % 4])[..., None, None])
    lhs = (f.T[:, take_f] * mult_f).reshape(nb * na, nu)
    rhs = (g[ic[None, :, None], take_g[:, None, :]] * mult_g[:, None, :]).reshape(nu, nc * nd)

    part, out = np.empty((3, nb, nc, na, nd)), np.zeros((3, nb, nc, na, nd))
    if odd_only:
        passes = ((slice(1, None, 2), range(0, len(sweep), 2)), (slice(0, None, 2), range(1, len(sweep), 2)))
    else:
        passes = ((slice(None), range(len(sweep))),)
    for us, vs in passes:
        y = (lhs[:, us] @ rhs[us]).reshape(nb, na, nc, nd).transpose(0, 2, 1, 3)
        part[0], part[2] = y.real, y.imag
        part[1] = (np.abs(lhs[:, us]) @ np.abs(rhs[us])).reshape(nb, na, nc, nd).transpose(0, 2, 1, 3)
        for v in vs:
            src = part[:, v:, v:]
            out[:, : nb - v, : nc - v] += (src[::-1] if v % 2 else src) * sweep[v]

    h, w = na + nc - 1, nb + nd - 1
    re, mag, im = (weyl._scatter_add(channel, (1, w, w, 1), h * w).reshape(h, w) for channel in out)
    values = re + 1j * im
    return (2.0 * values, 2.0 * mag) if odd_only else (values, mag)


def _tensor_boxes(rng, count):
    """Random pairs of boxes past MAX_MAP, up to 17 x 17, with nb > nc,
    nb < nc and nb = nc in turn."""
    boxes = []
    for relation in itertools.islice(itertools.cycle((np.greater, np.less, np.equal)), count):
        while True:
            na, nb, nc, nd = (int(n) for n in rng.integers(1, 18, 4))
            nc = nb if relation is np.equal else nc
            if relation(nb, nc) and na * nb * nc * nd * (na + nc - 1) * (nb + nd - 1) > weyl.MAX_MAP:
                break
        boxes.append((na, nb, nc, nd))
    return boxes


@pytest.mark.parametrize("odd_only", [False, True])
def test_packed_kernel_matches_the_sweep(odd_only):
    rng = np.random.default_rng(22 + odd_only)
    boxes = _tensor_boxes(rng, 60) + [(17, 17, 17, 17), (1, 17, 17, 1)]
    for shape in boxes:
        f, g = _random(rng, shape[:2]), _random(rng, shape[2:])
        values, mags = weyl._moyal_by_tensor(f, g, odd_only, magnitude_plane=True)
        sweep_values, sweep_mags = sweep_moyal_by_tensor(f, g, odd_only)
        assert np.all(np.abs(values - sweep_values) <= weyl._RESIDUE * mags), shape
        np.testing.assert_allclose(mags, sweep_mags, rtol=1e-14, atol=0, err_msg=str(shape))


def _bits(sym):
    """The coefficient array of a symbol, down to the sign of each zero."""
    return sym._c.shape, sym._c.tobytes()


def _skip_boxes(rng):
    """Pairs of boxes from 6 x 6 to 17 x 17 that must take the tensor kernel:
    random dense ones, then inputs on which the magnitude plane must be
    formed: x-only symbols (whose commutator is exactly zero) and products
    whose (0, 0) coefficient cancels to rounding residue."""
    pairs = [(_random(rng, shape[:2]), _random(rng, shape[2:])) for shape in rng.integers(6, 18, (12, 4))]
    pairs += [(_random(rng, (n, 1)), _random(rng, (m, 1))) for n, m in ((17, 17), (9, 16))]
    for n in (6, 11, 17):
        f, g = _random(rng, (n, n)), _random(rng, (n, n))
        # (f * g)_00 = sum_uv f_uv g_vu (i/2)^u (-i/2)^v u! v!: cancel it through g_00
        u, v = np.indices((n, n))
        weights = (0.5j) ** u * (-0.5j) ** v * weyl._falling(n)[u, u] * weyl._falling(n)[v, v]
        g[0, 0] -= (f * g.T * weights).sum() / f[0, 0]
        pairs.append((f, g))
    return pairs


@pytest.mark.parametrize("odd_only", [False, True])
def test_skipping_the_magnitude_plane_moves_no_bit(odd_only, monkeypatch):
    rng = np.random.default_rng(39 + odd_only)
    op = weyl.star_commutator if odd_only else weyl.star
    pairs = _skip_boxes(rng)
    skipped = [op(WeylSymbol._wrap(f), WeylSymbol._wrap(g)) for f, g in pairs]
    bounds = [weyl._moyal_by_tensor(f, g, odd_only)[1] for f, g in pairs]
    planes = [weyl._moyal_by_tensor(f, g, odd_only, magnitude_plane=True)[1] for f, g in pairs]
    kernel = weyl._moyal_by_tensor
    monkeypatch.setattr(weyl, "_moyal_by_tensor", lambda f, g, odd: kernel(f, g, odd, magnitude_plane=True))
    formed = [op(WeylSymbol._wrap(f), WeylSymbol._wrap(g)) for f, g in pairs]
    assert [_bits(a) for a in skipped] == [_bits(b) for b in formed]
    taken = [not np.array_equal(bound, plane) for bound, plane in zip(bounds, planes)]
    # the random dense pairs take the bound; a cancelled coefficient forms the plane
    assert all(taken[:12]) and not any(taken[-3:]), taken
    assert all(np.all(bound >= plane) for bound, plane in zip(bounds, planes))


@pytest.mark.parametrize("odd_only", [False, True])
def test_the_cached_bound_dominates_the_magnitude_plane_where_it_is_tight(odd_only):
    # every entry of f of modulus 0.5 and of g of modulus 3: the magnitude
    # plane is then max|f| max|g| S to rounding, and the bound twice it
    rng = np.random.default_rng(17 + odd_only)
    for shape in [*rng.integers(6, 18, (8, 4)), (17, 17, 17, 17), (1, 17, 17, 1)]:
        f, g = (modulus * np.exp(2j * np.pi * rng.random(tuple(box)))
                for modulus, box in ((0.5, shape[:2]), (3.0, shape[2:])))
        bound = weyl._magnitude_bound(f, g, odd_only)
        _, mags = weyl._moyal_by_tensor(f, g, odd_only, magnitude_plane=True)
        assert np.all(bound >= mags), shape
        np.testing.assert_allclose(bound, 2.0 * mags, rtol=1e-13, atol=0, err_msg=str(shape))


def test_kernel_scratch_holds_at_most_nine_tensors(monkeypatch):
    # the u product, then the blocks' output over it, and one packed copy per
    # u product: 6 tensors of doubles for a product, 9 for a commutator
    rng = np.random.default_rng(17)
    f = WeylSymbol._wrap(_dense(rng, 16))
    g = WeylSymbol._wrap(_dense(rng, 16))
    monkeypatch.delattr(weyl._SCRATCH, "buf", raising=False)
    weyl.star(f, g)
    assert weyl._SCRATCH.buf.size <= 6 * 17**4
    weyl.star_commutator(f, g)
    assert weyl._SCRATCH.buf.size <= 9 * 17**4


def test_array_cache_keeps_at_most_its_limit():
    cache = weyl._ArrayCache(3000)
    build = np.zeros  # n doubles, 8 n bytes
    first = cache(build, 100)
    cache(build, 150)
    assert cache(build, 100) is first  # a hit, now the most recently used
    cache(build, 125)
    cache(build, 50)  # 3400 bytes: the least recently used (150) goes
    assert [key[1:] for key in cache._entries] == [(100,), (125,), (50,)]
    assert cache.nbytes == 2200
    assert cache(build, 1000).size == 1000  # larger than the limit: built, not kept
    assert cache.nbytes == 2200 and len(cache._entries) == 3


def test_kernel_caches_hold_at_most_16_mib():
    # the maps, plans and scatter indices of every product share one cache
    assert weyl.CACHE_BYTES == 16 * 2**20
    rng = np.random.default_rng(16)
    shapes = [(na, nb, nc, nd) for na in (4, 5) for nb in (4, 5) for nc in (4, 5) for nd in (4, 5)]
    shapes += [(n, n, n, n) for n in (6, 9, 12, 17)] + [(1, 1, 1, 171), (16, 1, 1, 16)]
    for na, nb, nc, nd in shapes:
        f = WeylSymbol._wrap(_random(rng, (na, nb)))
        g = WeylSymbol._wrap(_random(rng, (nc, nd)))
        weyl.star(f, g)
        weyl.star_commutator(f, g)
    cache = weyl._CACHE
    held = [value if isinstance(value, tuple) else (value,) for value, _ in cache._entries.values()]
    assert cache.nbytes == sum(a.nbytes for arrays in held for a in arrays) <= weyl.CACHE_BYTES
    assert cache.nbytes > weyl.CACHE_BYTES // 2  # the shapes above fill it past half
    # one map is two real (h w, na nb nc nd) matrices of at most MAX_MAP entries each
    assert sum(a.nbytes for a in weyl._moyal_map(5, 5, 5, 5, False)[:2]) <= 16 * weyl.MAX_MAP


# -- settling a result ---------------------------------------------------------


def loop_trim(c):
    nz = c != 0
    rows = np.flatnonzero(nz.any(axis=1))
    if rows.size == 0:
        return weyl._EMPTY
    cols = np.flatnonzero(nz.any(axis=0))
    return c[: rows[-1] + 1, : cols[-1] + 1]


def loop_settle(values, mags=None):
    """_settle as it was: refuse a non-finite modulus, floor (not without mags), trim, wrap."""
    with np.errstate(over="ignore", invalid="ignore"):
        weyl._check_finite(values)
        if mags is not None:
            values = np.where(np.abs(values) <= weyl._RESIDUE * mags, 0, values)
    return WeylSymbol._wrap(loop_trim(values))


def settled(settle, values, mags):
    """The coefficient array of settle(values, mags), or its ValueError text."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return settle(values.copy(), mags.copy())._c
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (3, 4), (6, 1), (9, 9)])
@pytest.mark.parametrize("seed", range(6))
def test_settle_matches_the_old_settle(shape, seed):
    # residue at the floor and just above it, zero and -0 entries on the edges
    # of the box, NaN magnitudes, and non-finite values or moduli
    rng = np.random.default_rng([seed, *shape])
    values = _random(rng, shape)
    mags = np.abs(values) * rng.choice([1.0, 2.0, 1e15], shape)
    if values.size:
        values[rng.integers(0, shape[0]), :] *= rng.choice([0.0, -0.0, 1.0])
        values[:, -1] *= rng.choice([0.0, -0.0, 1.0])
        at = tuple(rng.integers(0, n) for n in shape)
        if seed == 1:
            mags[at] = np.nan
        if seed == 2:
            values[at] = rng.choice([np.nan, np.inf, complex(1.5e308, 1.5e308)])
        if seed == 3:
            mags[...] = np.abs(values) / weyl._RESIDUE  # every value exactly at its floor
    old, new = settled(loop_settle, values, mags), settled(weyl._settle, values, mags)
    if isinstance(old, str):
        assert new == old
    else:
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


# -- whole requests ------------------------------------------------------------


def _symbol_file(path, c):
    rows = zip(*np.nonzero(c), c[np.nonzero(c)].tolist())
    path.write_text("".join(f"{a} {b} {v.real!r} {v.imag!r}\n" for a, b, v in rows))
    return str(path)


def _dense(rng, degree):
    """All monomials of total degree <= degree, with complex normal coefficients."""
    n = np.arange(degree + 1)
    return _random(rng, (degree + 1, degree + 1), np.add.outer(n, n) <= degree)


def _requests(tmp_path):
    rng = np.random.default_rng(2006)
    files = itertools.count()

    def sym(c):
        return _symbol_file(tmp_path / f"s{next(files)}.txt", np.asarray(c, dtype=complex))

    def terms(entries):
        box = (max(k[0] for k in entries) + 1, max(k[1] for k in entries) + 1)
        c = np.zeros(box, dtype=complex)
        for k, v in entries.items():
            c[k] = v
        return sym(c)

    argvs = []
    for degree in (2, 3, 4, 6, 8, 10, 12, 14, 16):
        f, g = sym(_dense(rng, degree)), sym(_dense(rng, degree))
        argvs += [["star", "--f", f, "--g", g], ["star", "--f", f, "--g", g, "--op", "commutator"]]
    odd = tmp_path / "odd.txt"
    odd.write_text("deg_x,deg_p,re,im\r\n# comment\r\n1,0,2.0,0.0\r\n0 2 1 -1 # tail\r\n1 0 -0.5 0\r\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 1 0\nx 0 1 1\n")
    argvs += [["star", "--f", str(odd), "--g", str(odd)], ["star", "--f", str(odd), "--g", str(bad)]]
    for m in (1, 2, 3):
        argvs.append(["bch", "--generator", terms({(m, 0): 0.7 / m}), "--operand", sym(_dense(rng, 3))])
    q = terms({(0, 3): 0.2, (0, 1): -1.4})
    argvs.append(["bch", "--generator", q, "--operand", sym(_dense(rng, 2))])
    for n, m, alpha, g in ((2, 1, 0.8, 0.3), (2, 2, 1.1, 0.6), (3, 3, 0.7, 0.9), (4, 2, 1.6, 0.25)):
        H = terms({(0, 2): 0.5, (n, 0): 0.5 * alpha, (m - 1, 1): -1j * g})
        # the closed-form metric, a wrong one, and one in both x and p
        wrong = {(2, 0): 0.3, (0, 2): -0.2, (1, 1): 0.1j}
        for exponent in ({(m, 0): 2 * g / m}, {(m, 0): 4 * g / m}, wrong):
            argvs.append(["metric-verify", "--hamiltonian", H, "--exponent", terms(exponent)])
        for monomials in (f"{m},0", "0,2", "1,0;2,0"):
            argvs.append(["metric-solve", "--hamiltonian", H, "--monomials", monomials])
    # a wrong candidate in x and p, whose residual rows print; the momentum
    # metric of n = m = 2, found from a 0,2 monomial; and the identity checks
    quartic = terms({(0, 2): 0.5, (4, 0): 0.5, (2, 1): -0.4326j})
    argvs.append(["metric-verify", "--hamiltonian", quartic, "--exponent",
                  terms({(3, 0): 0.2884, (1, 2): 0.05, (0, 1): -0.3j})])
    argvs.append(["metric-solve", "--hamiltonian", terms({(0, 2): 0.5, (2, 0): 0.35, (1, 1): -0.45j}),
                  "--monomials", "0,2"])
    argvs.append(["verify-all"])
    for alpha, g in ((1.3, 0.7), (0.4, 1.9)):
        for which in ("h", "H", "q", "eta2_exponent"):
            argvs.append(["x4", "--alpha", str(alpha), "--g", str(g), "--which", which])
    return argvs


def _outputs(argvs):
    out = []
    for argv in argvs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        out.append((code, stdout.getvalue().encode()))
    return out


def loop_symbol_rows(sym):
    return [f"{dx},{dp},{cli._fmt(c.real)},{cli._fmt(c.imag)}" for (dx, dp), c in sorted(sym.items())]


def loop_table(kinds, *columns):
    """The per-value rows `cli._table` replaced: '%d', `_fmt` or '%s' of each cell."""
    cell = {"d": "%d".__mod__, "g": cli._fmt, "s": "%s".__mod__}
    return [",".join(cell[k](x) for k, x in zip(kinds, row)) for row in zip(*columns)]


def symbol_table(sym):
    dx, dp, c = sym.arrays()
    return cli._table("ddgg", dx, dp, c.real, c.imag)


@pytest.mark.parametrize("shape", [(1, 159), (13, 13), (weyl.MAX_DEGREE + 1, 1), (1, 160)])
def test_symbol_rows_print_the_bytes_of_the_fmt_rows(shape):
    # tables of one x degree, a square one and one up to the last x degree a
    # symbol can hold
    c = _random(np.random.default_rng(shape[0]), shape)
    c[-1, -1] = complex(-0.0, 1e-300)
    c[0, 0] = complex(1.5, -0.0)
    # values at the edges of '%.12g': the switch to exponent form at 1e-5
    # and 1e12, a carry to 1e+12, twelve digits, and -0 in both parts (a
    # term that is no term); each with either sign
    edges = [1e-05, 0.0001, 1e+16, 999999999999.5, 123456789012]
    c.flat[1:6] = [complex(x, -x) for x in edges]
    c.flat[6:11] = [complex(-x, x) for x in edges[::-1]]
    c.flat[11] = complex(-0.0, -0.0)
    rows = symbol_table(WeylSymbol._wrap(c))
    assert "\n".join(rows) == "\n".join(loop_symbol_rows(WeylSymbol._wrap(c)))


def test_a_real_symbol_table_prints_the_bytes_of_the_fmt_rows():
    # a real table: its imaginary column is all zeros, some of them -0
    c = np.random.default_rng(29).standard_normal((1, 160)) + 0j
    c[0, ::7] = complex(-1.25, -0.0)
    sym = WeylSymbol._wrap(c)
    text = "\n".join(symbol_table(sym))
    assert text == "\n".join(loop_symbol_rows(sym))
    assert text.count(",0\n") == 159


def counted(fn, calls):
    """fn, appending its name to `calls` at each call."""
    def wrapper(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return wrapper


def test_requests_print_the_bytes_of_the_replaced_paths(tmp_path, monkeypatch):
    argvs = _requests(tmp_path)
    kernel, oracle = [], []
    with monkeypatch.context() as patch:
        patch.setattr(weyl, "_star_with_exp", counted(weyl._star_with_exp, kernel))
        new = _outputs(argvs)
    monkeypatch.setattr(WeylSymbol, "from_text", classmethod(lambda cls, text: loop_from_text(text)))
    monkeypatch.setattr(weyl, "_star_with_exp", counted(oracle_products, oracle))
    monkeypatch.setattr(cli, "_table", loop_table)
    monkeypatch.setattr(weyl, "_settle", loop_settle)
    old = _outputs(argvs)
    # every exponential star of the requests ran through the per-entry oracle
    assert len(oracle) == len(kernel) > 100
    assert [code for code, _ in new].count(0) > len(argvs) * 3 // 4
    for argv, a, b in zip(argvs, new, old):
        assert a == b, argv


def test_metric_residual_builds_one_derivative_table(monkeypatch):
    # star(H^dag, e^q) and star(e^q, H) share the derivatives of e^q
    heights = []
    table = weyl._exp_table
    monkeypatch.setattr(weyl, "_exp_table", lambda e, h: heights.append(h) or table(e, h))
    H = models.x4_nonhermitian_symbol(1.3, 0.7)
    q = models.x4_generator(1.3, 0.7) * 2  # a wrong metric
    residual = metric.metric_residual(H, q)
    assert len(heights) == 1
    expected = _star_with_exp(H.conjugate(), q, True) - _star_with_exp(H, q, False)
    assert not expected.is_zero() and residual == expected
