"""The array formatter of the CLI against `_fmt`, its one definition.

`cli._float_cells` must print every float64 with the bytes `cli._fmt`
gives it (Python's '%.12g', -0 as 0) in cells cut to the words its
values use, and the `transition` and `contour` tables that the row writer
`cli._csv_blocks` builds from it must equal the rows of the per-value
`_fmt` loop.  Every other table goes through `cli._table`, which must print
each cell as '%d', `_fmt` or '%s' does on both of its paths: one `%` per
row below `_WRITER_ROWS` rows, the row writer from there on.
"""
import contextlib
import io
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pseudoherm import cli, dynamics, stokes
from pseudoherm.models import SpikedHOModel


def _printed(values):
    values = np.asarray(values, dtype=np.float64)
    return "\n".join(cli._csv_blocks([values[:, None]], values.size)).split("\n")


def _assert_matches_fmt(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [cli._fmt(v) for v in values.tolist()]
    got = _printed(values)
    wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert len(got) == len(expected)
    assert not wrong, f"{len(wrong)} cells differ, e.g. {wrong[:5]}"


def test_random_doubles_over_every_binade():
    rng = np.random.default_rng(20061)
    # 60 values per binade, 2^-1074 (subnormal) to 2^1023, either sign
    exponents = np.repeat(np.arange(-1074, 1024), 60)
    values = np.ldexp(1.0 + rng.random(exponents.size), exponents)
    values *= rng.choice([-1.0, 1.0], values.size)
    # raw bit patterns add nan payloads and the binade edges
    bits = rng.integers(0, 2**64, 40000, dtype=np.uint64, endpoint=False).view(np.float64)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    _assert_matches_fmt(np.concatenate([values, bits, specials]))


def test_powers_of_ten_their_neighbours_and_round_ups():
    values = []
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    for k in range(-320, 308):
        # 12-digit roundings that carry into the next power of ten, and the
        # values just below that stay
        values += [float(f"9.9999999999995e{k}"), float(f"9.99999999999949e{k}")]
    values = np.array(values)
    _assert_matches_fmt(np.concatenate([values, -values]))


def test_exact_decimal_ties_round_half_even():
    rng = np.random.default_rng(11)
    ties = [123456789012.5, 0.5, 2.5, 1234567890125.0]
    # I + r / 2^j with r odd and 13 - j integer digits: exactly 13
    # significant digits, the last a 5, so a tie at 12 digits
    for j in range(1, 13):
        lo, hi = 10 ** (12 - j), 10 ** (13 - j)
        whole = rng.integers(lo, hi, 200)
        odd = 2 * rng.integers(0, 2 ** (j - 1), 200) + 1
        ties += (whole + odd / 2.0**j).tolist()
    # 13- to 15-digit integers ending in 5 (exact below 2^53)
    for scale in (1, 10, 100):
        ties += ((10 * rng.integers(10**11, 10**12, 200) + 5) * scale).astype(float).tolist()
    ties += [float(f"0.5e-{k}") for k in range(300)]
    ties = np.array(ties)
    _assert_matches_fmt(np.concatenate([ties, -ties]))


def test_doubles_nearest_to_decimal_ties():
    # the doubles nearest (N + 1/2) 10^k and their neighbours: the scaled
    # mantissa lies within an ulp of the half-integer, where the scaling
    # error can put it on the wrong side (about one in 10^4 of these)
    rng = np.random.default_rng(90)
    whole = rng.integers(10**11, 10**12, 20000)
    exponents = rng.integers(-290, 290, 20000)
    nearest = np.array([float(f"{10 * n + 5}e{k}") for n, k in zip(whole.tolist(), exponents.tolist())])
    _assert_matches_fmt(np.concatenate([
        nearest, np.nextafter(nearest, 0.0), np.nextafter(nearest, math.inf),
    ]))


def test_both_sides_of_the_fixed_exponent_switch():
    edges = [1e-5, 1e-4, 1e11, 1e12]
    values = []
    for edge in edges:
        x = edge
        for _ in range(5):
            x = np.nextafter(x, 0.0)
            values.append(x)
        x = edge
        for _ in range(5):
            x = np.nextafter(x, math.inf)
            values.append(x)
        values += [edge, edge * (1 - 5e-13), edge * (1 - 4.9e-13), edge * (1 + 5e-12)]
    values += [9.99999999999949e-6, 9.9999999999995e-6, 9.99999999999949e-5, 9.9999999999995e-5,
               99999999999.949, 99999999999.95, 999999999999.4, 999999999999.5, 999999999999.6]
    values = np.array(values)
    _assert_matches_fmt(np.concatenate([values, -values]))


def _blocks(*blocks):
    """Values that fill one row block each, in order (the last may be short)."""
    rng = np.random.default_rng(len(blocks))
    return np.concatenate([rng.choice(np.asarray(b, dtype=np.float64), cli._ROW_BLOCK) for b in blocks])


@pytest.mark.parametrize("values", [
    # fixed form, then exponent form, then integers: each block its own words
    _blocks(np.linspace(1.0, 9.99, 997), np.geomspace(1e-30, 1e-20, 991), np.arange(1.0, 50.0)),
    # negative values in the middle block only
    _blocks(np.linspace(0.5, 2.5, 13), -np.geomspace(1e-9, 1e9, 101), np.linspace(0.5, 2.5, 13)),
    # three-digit exponents in the last block only
    _blocks(np.geomspace(1e-50, 1e50, 89), np.geomspace(1e-50, 1e50, 89),
            [1e-100, -2.5e-123, 3.25e200, -1.75e-299, 1e280, 1e-280]),
], ids=["word_sets", "negative_block", "three_digit_exponents"])
def test_consecutive_blocks_that_need_different_cells(values):
    widths = {cli._float_cells(values[i:i + cli._ROW_BLOCK]).shape[1]
              for i in range(0, values.size, cli._ROW_BLOCK)}
    assert len(widths) > 1  # the blocks really are cut to different widths
    _assert_matches_fmt(values)


def test_slow_texts_widen_the_narrowed_cells():
    # 1 and 2 need one word; the tie, the non-finite values and |v|
    # outside 1e+-280 print through _fmt, in texts of up to 13 bytes, and
    # -0 prints "0" among them
    fast = [1.0, 2.0]
    slow = [1234567890.125, -0.0, -math.inf, math.nan, -1.5e-300, 2.5e299, -123456789012.5]
    assert cli._float_cells(fast).shape[1] == 4
    assert cli._float_cells(fast + slow).shape[1] == 16
    assert cli._float_cells(slow[:4]).shape[1] == 16  # no fast word at all
    _assert_matches_fmt(fast + slow)
    _assert_matches_fmt(slow[1:4])


def test_zeros_print_without_fmt(monkeypatch):
    # +-0 take the mantissa 0 at exponent 0 on the array path: a block of
    # zeros once made one _fmt call through np.unique
    calls = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda value: calls.append(value) or fmt(value))
    zeros = np.array([0.0, -0.0] * 50)
    cells = cli._float_cells(zeros)
    mixed = _printed([1.5, -0.0, 2.5e-7, 0.0, -3.0])
    assert calls == []
    assert cells.shape[1] == 4
    assert set(cells.tobytes().split(b"\0")) == {b"0", b""}
    assert mixed == ["1.5", "0", "2.5e-07", "0", "-3"]


def test_fixed_form_cells_are_narrowed():
    # d.ddddddddddd uses the first head word and the three tail words: no
    # sign, no exponent, so 16 of the 36 bytes a cell can take
    values = np.random.default_rng(7).uniform(1.0, 9.99, 1000)
    assert cli._float_cells(values).shape[1] == 16
    _assert_matches_fmt(values)


# -- whole tables against the per-value loop --------------------------------


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    assert code == 0
    lines = out.getvalue().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[first + 1:]


TRANSITIONS = [
    # 3000 x 3 = 9000 rows, more than one row block; P on both sides of 1e-4
    ("0.005", "1.5:2.5:3000", "-1.5,0,0.75", "20"),
    # exact zero probabilities
    ("0", "1.5:2.5:200", "0,0.5,1", "20"),
    # huge xi (zero P at a vanishing pulse) and large negative xi (tiny P)
    ("0.005", "1.5:2.5:50", "-1e300,-2.5,0.75,1e300", "1e-300"),
    ("1e-9", "1.9:2.1:40", "-100000,-3", "20"),
]


# omega steps around a row block, for one xi value and for sixteen
BLOCK_EDGES = [
    ("1e-3", f"1.5:2.5:{cli._ROW_BLOCK // len(xi) + d}", ",".join(xi), "20")
    for xi in (["0.5"], [str(0.25 * k - 2) for k in range(16)]) for d in (-1, 0, 1)
]


@pytest.mark.parametrize("E0,omega,xi,tau", TRANSITIONS + BLOCK_EDGES)
def test_transition_rows_equal_the_per_value_loop(E0, omega, xi, tau):
    argv = ["transition", "--E0", E0, "--omega", omega, "--xi", xi, "--tau", tau,
            "--lambda", "0.5", "--alpha", "0.2", "--n", "2", "--m", "3"]
    lo, hi, steps = omega.split(":")
    xis = sorted(float(x) for x in xi.split(","))
    omegas, probabilities = dynamics.transition_sweep(
        SpikedHOModel(lam=0.5, alpha=0.2), 2, 3, float(E0), float(lo), float(hi), int(steps),
        float(tau), xis,
    )
    expected = [
        f"{cli._fmt(w)},{cli._fmt(x)},{cli._fmt(row[i])}"
        for i, w in enumerate(omegas.tolist())
        for x, row in zip(xis, probabilities.tolist())
    ]
    assert _stdout(argv) == expected


def _contour_rows(kind, samples):
    contour = stokes.Contour.hyperbola(a=1.0, N=5) if kind == "z1" else stokes.Contour.sqrt_bend()
    xs = np.linspace(-13.7, 13.7, samples)
    zs = stokes.contour_point(contour, xs)
    return [f"{cli._fmt(x)},{cli._fmt(z.real)},{cli._fmt(z.imag)}" for x, z in zip(xs, zs)]


@pytest.mark.parametrize("kind", ["z1", "z2"])
def test_contour_rows_equal_the_per_value_loop(kind):
    argv = ["contour", "--kind", kind, "--N", "5", "--samples", "2001", "--xspan", "13.7"]
    assert _stdout(argv) == _contour_rows(kind, 2001)


@pytest.mark.parametrize("samples", [1, cli._ROW_BLOCK + 1])
def test_contour_of_one_row_and_of_a_row_past_the_block(samples):
    argv = ["contour", "--kind", "z1", "--N", "5", "--samples", str(samples), "--xspan", "13.7"]
    assert _stdout(argv) == _contour_rows("z1", samples)


# -- the table entry on both of its paths -------------------------------------

# the kinds strings the runners pass to _table, read from the source so
# that a new one is tested as soon as a runner uses it
RUNNER_KINDS = sorted(set(re.findall(r'_table\("(\w+)"', Path(cli.__file__).read_text())))
EDGES = [1e-05, 0.0001, 1e+16, 999999999999.5, 123456789012]
TEXTS = ["left", "PASS", "raised ValueError: x", "", "1/2", Fraction(-17, 8)]


def _column(kind, size, rng):
    """A column of `size` cells with the edge values of its kind."""
    if kind == "d":
        # degrees up to the largest a symbol holds, and integers up to 12 digits
        values = (np.arange(size) * 7 % 171).tolist()
        values[:5] = [170, 0, -1, 123456789012, 999999999999]
        return np.array(values)
    if kind == "g":
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        values[:12] = EDGES + [-x for x in EDGES] + [-0.0, 0.0]
        return values
    return [TEXTS[i % len(TEXTS)] for i in range(size)]


def _per_value(kinds, columns):
    cell = {"d": lambda x: "%d" % x, "g": cli._fmt, "s": lambda x: "%s" % x}
    return [",".join(cell[k](x) for k, x in zip(kinds, row)) for row in zip(*columns)]


def test_every_runner_passes_kinds_of_the_three_letters():
    assert len(RUNNER_KINDS) >= 8
    assert all(set(kinds) <= set("dgs") for kinds in RUNNER_KINDS)


@pytest.mark.parametrize("size", [cli._WRITER_ROWS - 1, cli._WRITER_ROWS, cli._WRITER_ROWS + 1])
@pytest.mark.parametrize("kinds", RUNNER_KINDS)
def test_table_prints_the_per_value_cells_on_both_paths(kinds, size):
    rng = np.random.default_rng(size)
    columns = [_column(k, size, rng) for k in kinds]
    # numbers as the runners pass them: arrays, and lists for every other table
    if size % 2:
        columns = [c if k == "s" else c.tolist() for k, c in zip(kinds, columns)]
    rows = cli._table(kinds, *columns)
    assert isinstance(rows, list) == (size < cli._WRITER_ROWS)
    assert "\n".join(rows).split("\n") == _per_value(kinds, columns)


def test_a_table_at_the_row_count_streams_and_one_below_it_does_not():
    below = cli._table("dg", range(cli._WRITER_ROWS - 1), np.ones(cli._WRITER_ROWS - 1))
    at = cli._table("dg", range(cli._WRITER_ROWS), np.ones(cli._WRITER_ROWS))
    assert type(below) is list
    assert iter(at) is at
    assert cli._table("sgg", (), [], []) == []
