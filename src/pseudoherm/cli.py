"""Reproducible command-line runner emitting CSV.

Every subcommand writes a `# key=value` block with the fully resolved
configuration, a header row, then data rows with floats at 12
significant digits.  Identical invocations produce identical bytes for
the same numpy SIMD target and BLAS kernel; otherwise the last printed
digits can move (up to 1.35e-10 relative, measured on `propagate`).
Parameters may come from a `key=value` config file (`--config`), with
command-line flags taking precedence; unknown keys are rejected.

A request goes from argv to bytes in a few fixed steps, kept cheap
because symbol requests are many and small:
- Flags.  One pass over the tokens after the subcommand (`_flag_pairs`)
  reads `--name value` and `--name=value` pairs of its flags (its `Param`
  table, `--out` and `--config`) into a dict; the value is the next token,
  whatever it holds, except that `--` is no value.  A unique prefix names a
  flag, an exact name beats a prefix, and a repeated flag keeps its last
  value.  `-h`/`--help` prints the help built from the `Param` table
  (`_help`).  Any other token, and a flag that is unknown, ambiguous or
  without a value, is a usage error.  Each flag's text then goes through
  the parse of its kind, and its value back through the kind's echo, the
  two read from one entry of the `_KINDS` table (`_value`).  A flag whose
  default is empty may be left empty: its value is then None and its echo
  empty (`propagate --T`, `spectrum --grid` and `--params`).  Every other
  flag refuses an empty value as a usage error.
- Files.  Symbol and config files are read with a plain open(); pathlib
  reads a file again only when that fails, so messages name the path as
  before (`_read_text`).
- Rows.  Floats print as Python's `'%.12g'` (`_FLOAT`, read by `_fmt`, the
  one definition of the format), with -0 printed as 0.  Every table but
  `transition`'s goes through one entry, `_table(kinds, *columns)`, with a
  letter per column: 'd' for an integer, 'g' for a float, 's' for text.
  Below `_WRITER_ROWS` rows (256, set by timing both ways inside whole
  requests) it prints each row with one `%` of a format built from `_FLOAT`,
  on float columns whose -0 one numpy `+ 0.0` has folded, and returns the
  list of rows.  From there on it hands the columns to the row writer
  (`_csv_blocks`) as float64 fields and NUL-padded text cells, and returns
  the writer's blocks.  `transition` calls the writer itself, to print
  its (omega, xi) table by broadcasting: each omega and each xi text is
  formatted once for the whole table.  Per block of rows the writer
  prints all the float fields with one call of `_float_cells`, an array
  kernel that gives the bytes of `_fmt` for every float64, NUL-padded to
  cells that keep only the 4-byte words some value of the block uses; it
  places every field in one byte buffer shaped like the rows and drops
  the NULs in one pass.  Blocks go to the output as they are built, so a
  table of millions of rows never sits in memory whole.  Timed alone in
  a warm loop on a 2-vCPU x86-64, the writer takes about 45 us for one
  row of one float and 57 us for one row of a symbol table's four
  columns, and then about half a microsecond a row, where the `%` loop
  takes nearly one; inside a request it gains less, hence the 256.

`spectrum` solves no grid.  It prints the spiked model's closed-form
levels lam(4n + 2 alpha + 2), on the whole domain alpha > -1, and the x4h
and xt4 levels of `models.oscillator_levels`, eigenvalues of the symbol's
exact matrix in a scaled oscillator basis, converged to 1e-10 max(1, |E|).
Its `--grid` and `--refine` flags remain only because the benchmark's
spectrum requests pass them: they are parsed (a malformed value or a
negative `--refine` is a usage error) and echoed, and change no number.
`--grid` may be left out, and then echoes as `# grid=`.

`verify-all` runs the ordered identity checks of `pseudoherm.identities`
(the table the test suite also runs) and prints one PASS/FAIL row each.

Exit codes: 0 on success (and all checks passing), 1 on numeric or
verification failure, 2 on usage errors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, identities, metric, models, stokes, weyl
from .models import GridSpec, SpikedHOModel
from .weyl import WeylSymbol


class CliUsageError(Exception):
    """Bad parameter value or unknown configuration key."""


_FLOAT = "%.12g"  # the one spelling of the float format, read by _fmt and _table


def _fmt(value):
    """The one definition of how the CLI prints a real number: as a float
    to 12 significant digits, and -0 as 0 (adding 0.0 turns -0 into 0)."""
    return _FLOAT % (value + 0.0)


# -- array formatting ------------------------------------------------------
#
# `_float_cells` prints a float64 array with the bytes `_fmt` gives each
# value.  A finite |v| in (1e-280, 1e280) with decimal exponent e is
# scaled to q = |v| 10^(11-e) in [1e11, 1e12) and rounded to the 12-digit
# mantissa m = rint(q).  The power of ten is correctly rounded, and so is
# the product, so q is within 2.3e-4 of the exact |v| 10^(11-e), and m is
# the mantissa of Python's correctly rounded dtoa (Gay, AT&T NA Manuscript
# 90-10, 1990) unless q lies that close to a half-integer.  One combined
# test picks out every value this misses: q within _TIE_BAND of a
# half-integer, e one off near 10^k (log10 rounds), m carried up to
# 10^12, and |v| outside the range, zeros included.  A zero takes m = 0
# and e = 0, which print "0" for either sign; the others go through `_fmt`
# itself.  A value's text is nine 4-byte words: sign (1), head (3), tail
# (3) and exponent (2), NUL-padded.  m's digits, four to a word, are
# masked into the head and tail, and the rest of the text added, by one
# column of the _LAYOUT tables, keyed by e and the index of m's last
# nonzero digit.  A call keeps only the words that some value of its
# array fills, so a block of positive fixed-form values gets narrow cells;
# a `_fmt` text is left-packed into them, and the cells widen only when
# such a text does not fit.  `_csv_blocks` places the cells in rows and
# drops the NULs.

_ROW_BLOCK = 8192  # table rows built per pass, so memory does not grow with the table
_TIE_BAND = 1e-3  # covers the 2.3e-4 scaling error with room to spare
_E_LO, _E_HI = -300, 300
_POW10 = np.array([float(f"1e{k}") for k in range(_E_LO, _E_HI + 1)])


def _digit_tables():
    """Masks and literals of the head and tail byte ranges, by digit layout.

    Digit j of the mantissa sits at byte j of both 12-byte ranges.  Layout
    12 (p + 4) + keep stands for a point after digit p (p = -4..11) and a
    last printed digit keep.  The head holds digits 0..p and then "." if
    a digit follows; for p < 0 (fixed form below 1) it holds the lead "0."
    and -p - 1 zeros instead.  The tail holds digits p + 1..keep.  Each
    table is (3, 192) uint32: four digits to a word, one column per layout.
    """
    j = np.arange(12)
    p = np.arange(-4, 12)[:, None, None]
    keep = np.arange(12)[None, :, None]
    head = np.where(j <= p, 0xFF, 0)
    lead = np.where(j == 1, ord("."), ord("0"))
    text = np.where(p < 0, np.where(j <= -p, lead, 0), np.where((j == p + 1) & (keep > p), ord("."), 0))
    tail = np.where((j > p) & (j <= keep), 0xFF, 0)
    return tuple(
        np.ascontiguousarray(table.reshape(-1, 12).astype(np.uint8).view(np.uint32).T)
        for table in np.broadcast_arrays(head, text, tail)
    )


def _layout_tables():
    """The digit masks and the texts of a value's nine words, by key
    13 (e - _E_LO) + last + 1, one column each.

    e is the decimal exponent and last the index of the mantissa's last
    nonzero digit (-1 for m = 0).  '%.12g' prints the fixed form for -4 <=
    e < 12 with the point after digit p = e, else d.ddd (p = 0) and an
    exponent; the integer digits always print, so the digits up to keep =
    max(last, p) do.  The mask is (6, keys) for the head and tail words
    and the text (9, keys) for all nine (the sign word is 0 here).  The
    last key, _BLANK, is 0 throughout: it marks a value whose text `_fmt`
    gives.
    """
    head_mask, head_text, tail_mask = _digit_tables()
    e = np.arange(_E_LO, _E_HI + 1)[:, None]
    p = np.where((e >= -4) & (e < 12), e, 0)
    layout = (np.maximum(np.arange(-1, 12), p) + 12 * (p + 4)).ravel()
    exponent = [f"e{k:+03d}" if k < -4 or k >= 12 else "" for k in range(_E_LO, _E_HI + 1)]
    exponent = np.array(exponent, dtype="S8").view(np.uint32).reshape(-1, 2).repeat(13, axis=0)
    mask = np.zeros((6, layout.size + 1), np.uint32)
    mask[:3, :-1], mask[3:, :-1] = head_mask[:, layout], tail_mask[:, layout]
    text = np.zeros((9, layout.size + 1), np.uint32)
    text[1:4, :-1], text[7:, :-1] = head_text[:, layout], exponent.T
    return mask, text


_LAYOUT_MASK, _LAYOUT_TEXT = _layout_tables()
_BLANK = _LAYOUT_TEXT.shape[1] - 1
_KEY_BASE = 1 - 13 * _E_LO  # key = 13 e + last + _KEY_BASE
_groups = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_DIGITS4 = (_groups + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# entry 10000 k + g: index in the mantissa of the last nonzero digit of g as
# its group k of four digits, or -1 for g = 0
_LAST4 = np.where(_groups.any(1), 3 - np.argmax(_groups[:, ::-1] != 0, axis=1), -1)
_LAST4 = np.where(_LAST4 >= 0, _LAST4 + np.array([[0], [4], [8]]), -1).astype(np.int8).ravel()
_GROUP_BASE = np.array([[0], [10000], [20000]])
_GROUP_DIV = np.array([[10**8], [10**4], [1]])
del _groups


def _float_cells(values):
    """`_fmt` of each float64 in `values` (flattened), as rows of
    NUL-padded bytes, all of one width: a multiple of 4 up to 36."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a > 1e-280) & (a < 1e280)
    a[~fast] = 1.0  # e = 0 for a zero
    e = np.floor(np.log10(a)).astype(np.intp)
    q = a * _POW10[(11 - _E_LO) - e]
    m = np.rint(q)
    # the one test for the values the digits below would get wrong
    redo = slow = (~(fast & (q >= 1e11) & (m < 1e12) & (np.abs(q - m) < 0.5 - _TIE_BAND))).nonzero()[0]
    if redo.size:
        m[redo] = 0.0  # a zero prints "0" at e = 0, for either sign
        slow = redo[v[redo] != 0.0]  # the others print through _fmt
    # m's digits in three groups of four, and the index of its last nonzero one
    groups = m.astype(np.int64) // _GROUP_DIV
    groups[1:] -= 10**4 * groups[:-1]
    key = 13 * e + _LAST4[groups + _GROUP_BASE].max(axis=0) + _KEY_BASE
    negative = v < 0
    if slow.size:
        key[slow] = _BLANK  # their texts replace these cells whole
        negative[slow] = False
        text = [_fmt(x) for x in v[slow].tolist()]
    words = _LAYOUT_TEXT.take(key, axis=1)
    digits = _DIGITS4.take(groups)
    mask = _LAYOUT_MASK.take(key, axis=1)
    words[1:4] |= digits & mask[:3]
    np.bitwise_and(digits, mask[3:], out=words[4:7])
    if negative.any():
        words[0] = negative.view(np.uint8) * np.uint32(ord("-"))
    kept = np.bitwise_or.reduce(words, axis=1).nonzero()[0]
    width = len(kept)
    if slow.size:
        width = max(width, -(-max(map(len, text)) // 4))
    out = np.empty((v.size, width), np.uint32)
    out[:, :len(kept)] = words[kept].T
    out[:, len(kept):] = 0  # room that only the _fmt texts use
    out = out.view(np.uint8)
    if slow.size:
        out[slow] = np.array(text, dtype=f"S{4 * width}").view(np.uint8).reshape(-1, 4 * width)
    return out


def _csv_blocks(fields, size, width=1):
    """The rows of a CSV table, as texts of up to _ROW_BLOCK rows joined by
    newlines.  Row i * width + c holds, for each field in order, the cell
    at [i, c] of the field broadcast to (size, width).  A float64 field
    has shape (size, 1) or (size, width) and prints as `_fmt` prints it;
    a uint8 field holds NUL-padded text cells along its last axis."""
    per_block = max(1, _ROW_BLOCK // width)
    for i in range(0, size, per_block):
        block = [f[i:i + per_block] if f.shape[0] == size else f for f in fields]
        cells = _float_cells(np.concatenate([f.ravel() for f in block if f.dtype != np.uint8] or [np.empty(0)]))
        for k, f in enumerate(block):
            if f.dtype != np.uint8:
                block[k], cells = cells[:f.size].reshape(f.shape + (-1,)), cells[f.size:]
        # every byte outside the cells is a separator: a comma, or the row's newline
        buf = np.full((min(per_block, size - i), width, sum(f.shape[-1] + 1 for f in block)), ord(","), np.uint8)
        buf[:, :, -1] = ord("\n")
        start = 0
        for f in block:
            # each cell copied as one item: numpy loops over cells, not bytes
            cell = f"V{f.shape[-1]}"
            buf[:, :, start:start + f.shape[-1]].view(cell)[...] = f.view(cell)
            start += f.shape[-1] + 1
        buf[-1, -1, -1] = 0  # the last row's newline comes from the caller
        yield buf.tobytes().translate(None, b"\0").decode("ascii")


# -- parameter table -------------------------------------------------------


@dataclass(frozen=True)
class Param:
    name: str
    kind: str
    default: str | None = None  # None means required; "" optional, read as None
    choices: tuple = ()
    help: str = ""

    def __post_init__(self):  # so an unknown kind fails at import, not in a request
        if self.kind not in _KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _path(raw):
    if raw == "":
        raise ValueError("empty value")
    return raw


def _floatlist(raw):
    vals = [_finite(tok) for tok in raw.split(",") if tok.strip() != ""]
    if not vals:
        raise ValueError("empty list")
    return vals


def _triple(parts):
    """(lo, hi, n) of the three texts of a range or a grid."""
    lo_s, hi_s, n_s = parts
    return (_finite(lo_s), _finite(hi_s), int(n_s))


def _pairs(raw):
    pairs = []
    for chunk in raw.split(";"):
        if chunk.strip() == "":
            continue
        dx_s, dp_s = chunk.split(",")
        pair = (int(dx_s), int(dp_s))
        if pair in pairs:
            raise ValueError(f"repeated pair {dx_s.strip()},{dp_s.strip()}")
        pairs.append(pair)
    if not pairs:
        raise ValueError("empty pair list")
    return pairs


def _kv(raw):
    out = {}
    for chunk in raw.split(","):
        if chunk.strip() == "":
            continue
        key, _, val = chunk.partition("=")
        if not _:
            raise ValueError(f"expected key=value, got {chunk!r}")
        if key.strip() in out:
            raise ValueError(f"repeated key {key.strip()}")
        out[key.strip()] = _finite(val)
    return out


# kind -> (parse, echo): parse turns a flag's text into its value or raises,
# and echo gives the value's text in the `# key=value` block
_KINDS = {
    "int": (int, str),
    "float": (_finite, _fmt),
    "path": (_path, str),
    "choice": (str, str),  # _value checks the text against the Param's choices
    "floatlist": (_floatlist, lambda v: ",".join(map(_fmt, v))),
    "range": (lambda raw: _triple(raw.split(":")), lambda v: f"{_fmt(v[0])}:{_fmt(v[1])}:{v[2]}"),
    "grid": (lambda raw: _triple(raw.split(",")), lambda v: f"{_fmt(v[0])},{_fmt(v[1])},{v[2]}"),
    "pairs": (_pairs, lambda v: ";".join(f"{dx},{dp}" for dx, dp in v)),
    "kv": (_kv, lambda v: ",".join(f"{k}={_fmt(x)}" for k, x in sorted(v.items()))),
}


def _value(param, raw):
    """(value, echo) of a flag's text.  Where the default is empty, an
    empty text is None and echoes empty; any other text goes through the
    kind's parse, and a text it refuses is a usage error."""
    if raw == "" == param.default:
        return None, ""
    parse, echo = _KINDS[param.kind]
    try:
        if param.choices and raw not in param.choices:
            raise ValueError(f"must be one of {', '.join(param.choices)}")
        value = parse(raw)
    except Exception as exc:
        raise CliUsageError(f"invalid value for --{param.name}: {raw!r} ({exc})") from None
    return value, echo(value)


def _read_text(path):
    """The text of a file, as `Path(path).read_text()` gives it.

    A plain open() does the work; only when it fails does Path read the
    file again, so that a failure names the normalized path in its message
    and a trailing '/' after a file name is dropped, as Path drops it.
    """
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return Path(path).read_text()


def _read_symbol(path):
    try:
        return WeylSymbol.from_text(_read_text(path))
    except OSError as exc:
        raise RuntimeError(f"cannot read symbol file {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"symbol file {path}: {exc}") from None


# Tables of this many rows or more go to _csv_blocks.  Timed inside whole
# requests (cli.run with _table held to one path, interleaved, medians of
# 300, one BLAS thread, 2-vCPU x86-64), row loop/writer in us: star products
# of 153, 231 and 325 rows 594/620, 911/935, 1544/1546; contour tables of
# 128, 201, 256 and 400 rows 182/169, 233/193, 299/206, 442/276.  So symbol
# tables cross near 300 rows and three float columns below 200.  (Timed
# alone in a warm loop, the writer crosses earlier: near 170 rows for
# symbol tables.)
_WRITER_ROWS = 256


def _table(kinds, *columns):
    """The rows of a CSV table whose columns are the equal-length sequences
    `columns`, one letter of `kinds` each: 'd' an integer printed by '%d'
    (below 1e12 in size), 'g' a float printed as `_fmt` prints it, 's' a
    value printed by '%s' (ASCII text on the writer's path).

    Below _WRITER_ROWS rows a list of texts, one % per row of a format
    built from _FLOAT, on float columns whose -0 one numpy + 0.0 has
    folded; else the blocks of _csv_blocks, which print every number
    column as float64 (an integer below 1e12 prints as '%d' does) and
    take the text columns as NUL-padded ASCII cells."""
    size = len(columns[0])
    if size < _WRITER_ROWS:
        row = ("%" + ",%".join(kinds)).replace("%g", _FLOAT)
        cells = [np.add(c, 0.0).tolist() if k == "g" else np.asarray(c).tolist() if k == "d" else c
                 for k, c in zip(kinds, columns)]
        return [row % cell for cell in zip(*cells)]
    return _csv_blocks([np.array(c, dtype="S").view(np.uint8).reshape(size, 1, -1) if k == "s"
                        else np.asarray(c, np.float64)[:, None] for k, c in zip(kinds, columns)], size)


# -- subcommand runners ----------------------------------------------------


def _run_wedges(v, canon):
    pair = stokes.wedges(v["N"])
    anti = stokes.anti_stokes(v["N"])
    sides = (pair.left, pair.right)
    rows = _table("sggg", ("left", "right"), [w.theta_lo for w in sides], [w.theta_hi for w in sides],
                  (anti.left, anti.right))
    return [], "side,theta_lo,theta_hi,theta_anti_stokes", rows, 0


def _run_contour(v, canon):
    if not 1 <= v["samples"] <= models.MAX_POINTS:
        raise CliUsageError(f"--samples must lie in [1, {models.MAX_POINTS}]")
    if not v["xspan"] > 0:
        raise CliUsageError("--xspan must be positive")
    if v["kind"] == "z1":
        contour = stokes.Contour.hyperbola(a=v["a"], N=v["N"])
    else:
        contour = stokes.Contour.sqrt_bend()
    with np.errstate(over="ignore", invalid="ignore"):  # contour_point refuses the nan
        xs = np.linspace(-v["xspan"], v["xspan"], v["samples"])
    zs = stokes.contour_point(contour, xs)
    admissible = stokes.contour_admissible(contour, v["N"])
    extra = [f"# admissible={'true' if admissible else 'false'}"]
    return extra, "x,re_z,im_z", _table("ggg", xs, zs.real, zs.imag), 0


def _run_star(v, canon):
    f_sym = _read_symbol(v["f"])
    g_sym = _read_symbol(v["g"])
    if v["op"] == "star":
        out = weyl.star(f_sym, g_sym)
    else:
        out = weyl.star_commutator(f_sym, g_sym)
    dx, dp, c = out.arrays()
    return [], "deg_x,deg_p,re,im", _table("ddgg", dx, dp, c.real, c.imag), 0


def _run_kappa(v, canon):
    if not 1 <= v["upto"] <= 401:  # about 0.2 s of exact arithmetic at the top
        raise CliUsageError("--upto must lie in [1, 401]")
    eulers = metric.euler_numbers((v["upto"] + 1) // 2)  # once for every row
    orders = range(1, v["upto"] + 1, 2)
    return [], "n,kappa", _table("ds", orders, [metric._kappa(n, eulers) for n in orders]), 0


def _run_bch(v, canon):
    q = _read_symbol(v["generator"])
    operand = _read_symbol(v["operand"])
    series = metric.conjugate_by_exp(q, operand, v["max_order"])
    extra = [
        f"# terminated={'true' if series.terminated else 'false'}",
        f"# order={series.order}",
    ]
    dx, dp, c = series.value.arrays()
    return extra, "deg_x,deg_p,re,im", _table("ddgg", dx, dp, c.real, c.imag), 0


def _check_tol(v):
    if v["tol"] < 0:
        raise CliUsageError("--tol must be non-negative")


def _run_metric_verify(v, canon):
    _check_tol(v)
    H = _read_symbol(v["hamiltonian"])
    exponent = _read_symbol(v["exponent"])
    residual = metric.metric_residual(H, exponent)
    worst = residual.max_abs()
    scale = max(1.0, H.max_abs())
    passed = worst <= v["tol"] * scale
    extra = [
        f"# residual_max_abs={_fmt(worst)}",
        f"# passed={'true' if passed else 'false'}",
    ]
    # the residual is one polynomial, so its term column is always 0
    dx, dp, c = residual.arrays()
    rows = _table("dddgg", 0 * dx, dx, dp, c.real, c.imag)
    return extra, "term,deg_x,deg_p,re,im", rows, 0 if passed else 1


def _run_metric_solve(v, canon):
    _check_tol(v)
    H = _read_symbol(v["hamiltonian"])
    solution = metric.solve_metric_ansatz(H, v["monomials"], tol=v["tol"])
    extra = [f"# residual_norm={_fmt(solution.residual_norm)}"]
    keys = sorted(solution.coefficients)
    dx, dp = np.array(keys).T
    rows = _table("ddg", dx, dp, [solution.coefficients[key] for key in keys])
    return extra, "deg_x,deg_p,coefficient", rows, 0


def _pair_rows(pair, which):
    # the metric is eta^2 = exp(q), so its exponent is the generator
    sym = {"h": pair.h, "H": pair.H, "q": pair.q, "eta2_exponent": pair.q}[which]
    dx, dp, c = sym.arrays()
    return [], "deg_x,deg_p,re,im", _table("ddgg", dx, dp, c.real, c.imag), 0


def _run_swanson(v, canon):
    return _pair_rows(models.swanson_pair(v["n"], v["m"], v["alpha"], v["g"]), v["which"])


def _run_x4(v, canon):
    return _pair_rows(models.minus_x4_chain(v["alpha"], v["g"]), v["which"])


def _run_spiked(v, canon):
    model = SpikedHOModel(
        lam=v["lambda"], alpha=v["alpha"], xi=v["xi"], variant=v["variant"]
    )
    extra = [
        f"# energy_n={_fmt(models.spiked_energy(model, v['n']))}",
        f"# energy_m={_fmt(models.spiked_energy(model, v['m']))}",
    ]
    position = models.spiked_matrix_element(model, "position", v["n"], v["m"])
    op_kinds = ("position", "momentum", "mapped_position")
    vals = np.array([models.spiked_matrix_element(model, op, v["n"], v["m"], position) for op in op_kinds])
    return extra, "op_kind,re,im", _table("sgg", op_kinds, vals.real, vals.imag), 0


_SPECTRUM_DEFAULTS = {
    "spiked": {"lambda": 0.5, "alpha": 0.2},
    "x4h": {"alpha": 1.0, "g": 0.1},
    "xt4": {"g": 0.5},
}


def _run_spectrum(v, canon):
    # --grid and --refine are parsed and echoed, and change no number
    if v["refine"] < 0:
        raise CliUsageError("--refine must be non-negative")
    defaults = dict(_SPECTRUM_DEFAULTS[v["model"]])
    params = v["params"] or {}  # None: --params left empty
    for key in params:
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise CliUsageError(
                f"unknown model parameter {key!r} for {v['model']} (known: {known})"
            )
    defaults.update(params)
    canon["params"] = ",".join(f"{k}={_fmt(val)}" for k, val in sorted(defaults.items()))
    k = v["levels"]
    if not 1 <= k <= models.MAX_BASIS:
        raise ValueError(f"--levels must lie in [1, {models.MAX_BASIS}], got {k}")
    if v["model"] == "spiked":
        model = SpikedHOModel(lam=defaults["lambda"], alpha=defaults["alpha"])
        values = [models.spiked_energy(model, n) for n in range(k)]
    elif v["model"] == "x4h":
        symbol = models.x4_hermitian_symbol(defaults["alpha"], defaults["g"])
        values = models.oscillator_levels(symbol, k)
    else:
        values = models.oscillator_levels(models.x4_isospectral_quartic(defaults["g"]), k)
    if not all(math.isfinite(value) for value in values):
        raise ValueError("the levels leave double precision")
    return [], "n,energy", _table("dg", range(k), values), 0


def _run_transition(v, canon):
    model = SpikedHOModel(lam=v["lambda"], alpha=v["alpha"])
    lo, hi, steps = v["omega"]
    xi_sorted = sorted(v["xi"])
    xi_texts = [_fmt(x) for x in xi_sorted]
    canon["xi"] = ",".join(xi_texts)
    omegas, probabilities = dynamics.transition_sweep(
        model, v["n"], v["m"], v["E0"], lo, hi, steps, v["tau"], xi_sorted
    )
    # row i * width + c is (omega_i, xi_c, P_c(omega_i)): each omega is
    # formatted once, and the xi cells once for the whole table
    width = len(xi_sorted)
    xi_cells = np.array(xi_texts, dtype="S").view(np.uint8).reshape(1, width, -1)
    fields = [omegas[:, None], xi_cells, probabilities.T]
    return [], "omega,xi,probability", _csv_blocks(fields, steps, width), 0


def _run_propagate(v, canon):
    for name in ("m", "n", "snapshots"):
        if v[name] < 0:
            raise CliUsageError(f"--{name} must be non-negative")
    if v["snapshots"] < 1:  # zero intervals would print the initial state alone
        raise CliUsageError("--snapshots must be at least 1")
    model = SpikedHOModel(lam=v["lambda"], alpha=v["alpha"])
    grid = GridSpec(x_min=v["grid"][0], x_max=v["grid"][1], points=v["grid"][2])
    pulse = dynamics.Pulse(E0=v["E0"], omega=v["omega"], tau=v["tau"])
    T = v["T"] if v["T"] is not None else v["tau"]
    canon["T"] = _fmt(T)
    times, coefficients = dynamics.propagate_level(
        model, pulse, grid, v["m"], v["n"], v["dt"], T, v["snapshots"]
    )
    norms = np.linalg.norm(coefficients, axis=1)
    populations = np.abs(coefficients[:, v["n"]]) ** 2
    return [], "t,norm,population_n", _table("ggg", times, norms, populations), 0


def _run_verify_all(v, canon):
    # the only subcommand that draws: its property checks sample with --seed
    if v["seed"] < 0:
        raise CliUsageError("--seed must be non-negative")
    rng = np.random.default_rng(v["seed"])
    rows = []
    failures = 0
    for name, fn in identities.CHECKS:
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crashed check is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not ok:
            failures += 1
        rows.append((name, "PASS" if ok else "FAIL", detail))
    return [], "check,status,detail", _table("sss", *zip(*rows)), 0 if failures == 0 else 1


# -- dispatch table --------------------------------------------------------


@dataclass(frozen=True)
class Subcommand:
    params: list
    run: object
    help: str


_TAU_DEFAULT = _fmt(20.0 * math.pi)  # twenty cycles of the resonant carrier
_TAU_OFFRES = _fmt(20.0 * 2.0 * math.pi / 1.8)

_SUBCOMMANDS = {
    "wedges": Subcommand(
        params=[Param("N", "int", help="potential exponent")],
        run=_run_wedges,
        help="Stokes wedge boundaries and anti-Stokes angles",
    ),
    "contour": Subcommand(
        params=[
            Param("kind", "choice", choices=("z1", "z2"), help="contour family"),
            Param("N", "int", help="potential exponent"),
            Param("a", "float", "1", help="hyperbola scale (z1 only)"),
            Param("samples", "int", "201", help="number of sample points, 1 to 10^7"),
            Param("xspan", "float", "10", help="parameter range half-width, > 0"),
        ],
        run=_run_contour,
        help="sample a complex contour between the wedges",
    ),
    "star": Subcommand(
        params=[
            Param("f", "path", help="left symbol file"),
            Param("g", "path", help="right symbol file"),
            Param("op", "choice", "star", choices=("star", "commutator")),
        ],
        run=_run_star,
        help="star product or star commutator of two symbol files",
    ),
    "kappa": Subcommand(
        params=[Param("upto", "int", help="largest odd order, at most 401")],
        run=_run_kappa,
        help="exact odd-order series coefficients",
    ),
    "bch": Subcommand(
        params=[
            Param("generator", "path", help="generator symbol file"),
            Param("operand", "path", help="operand symbol file"),
            Param("max_order", "int", "32"),
        ],
        run=_run_bch,
        help="conjugation series exp(q) O exp(-q)",
    ),
    "metric-verify": Subcommand(
        params=[
            Param("hamiltonian", "path"),
            Param("exponent", "path", help="exponent of the candidate metric"),
            Param("tol", "float", "1e-10"),
        ],
        run=_run_metric_verify,
        help="residual of a candidate exponential metric",
    ),
    "metric-solve": Subcommand(
        params=[
            Param("hamiltonian", "path"),
            Param("monomials", "pairs", help="ansatz exponent monomials deg_x,deg_p;..."),
            Param("tol", "float", "1e-10"),
        ],
        run=_run_metric_solve,
        help="solve for exponential-metric coefficients",
    ),
    "swanson": Subcommand(
        params=[
            Param("n", "int", help="potential power"),
            Param("m", "int", help="generator power"),
            Param("alpha", "float"),
            Param("g", "float"),
            Param("which", "choice", "H", choices=("h", "H", "q")),
        ],
        run=_run_swanson,
        help="oscillator family symbols, in closed form (verify-all checks them against the BCH ladder)",
    ),
    "spiked": Subcommand(
        params=[
            Param("lambda", "float", "0.5"),
            Param(
                "alpha",
                "float",
                "0.2",
                help="x needs alpha > -1; p (and p_squared mapped_position) alpha > -1/2",
            ),
            Param("n", "int"),
            Param("m", "int"),
            Param("xi", "float", "0"),
            Param("variant", "choice", "p_squared", choices=("p_squared", "p_shift")),
        ],
        run=_run_spiked,
        help="spiked-oscillator matrix elements: x by the exact (n+m)//2+1 point "
        "Gauss-Laguerre rule, p = 2i lambda (n-m) x from [H, x] = -2ip",
    ),
    "x4": Subcommand(
        params=[
            Param("alpha", "float"),
            Param("g", "float"),
            Param("which", "choice", "H", choices=("h", "H", "q", "eta2_exponent"),
                  help="eta2_exponent is q: the metric is eta^2 = exp(q)"),
        ],
        run=_run_x4,
        help="quartic chain symbols, in closed form (verify-all checks them against the BCH ladder)",
    ),
    "spectrum": Subcommand(
        params=[
            Param("model", "choice", choices=("spiked", "x4h", "xt4")),
            Param("params", "kv", "", help="model parameters k=v,..."),
            Param("grid", "grid", "", help="xmin,xmax,points, or left out; parsed and ignored"),
            Param("levels", "int", help=f"lowest levels printed, 1 to {models.MAX_BASIS}"),
            Param("refine", "int", "0", help="non-negative; parsed and ignored"),
        ],
        run=_run_spectrum,
        help="lowest eigenvalues: spiked in closed form, x4h and xt4 in a scaled "
        "oscillator basis grown until they agree to 1e-10 max(1, |E|)",
    ),
    "transition": Subcommand(
        params=[
            Param("n", "int", "2"),
            Param("m", "int", "3"),
            Param("lambda", "float", "0.5"),
            Param("alpha", "float", "0.2"),
            Param("E0", "float", "0.005"),
            Param("omega", "range", "1.5:2.5:200", help="lo:hi:steps sweep"),
            Param("xi", "floatlist", "0,0.5,1"),
            Param("tau", "float", _TAU_DEFAULT),
        ],
        run=_run_transition,
        help="first-order transition-probability sweep between levels n != m",
    ),
    "propagate": Subcommand(
        params=[
            Param("lambda", "float", "0.5"),
            Param("alpha", "float", "0.2", help="the grid needs alpha >= 0"),
            Param("m", "int", "2", help="initial level"),
            Param("n", "int", "3", help="monitored level"),
            Param("E0", "float", "0.005"),
            Param("omega", "float", "1.8"),
            Param("tau", "float", _TAU_OFFRES),
            Param("grid", "grid", "0,14,1400"),
            Param("dt", "float", "0.001", help="Strang step"),
            Param("T", "float", "", help="final time (defaults to tau)"),
            Param("snapshots", "int", "50", help="intervals of [0, T] between printed times, at least 1"),
        ],
        run=_run_propagate,
        help="driven grid propagation with norm and population tracking: Strang "
        "steps in the grid's lowest K levels (exact level phases, field phases in "
        "the eigenbasis of the x coupling), multiplied over one field period and "
        "raised to the number of whole periods, with exact level phases after tau; "
        "needs omega dt < pi; K = max(n, m) + 1 + margin, margin = 4, 8, 16, ... up "
        "to the grid size, until the top level's population stays <= 1e-10 at every "
        "snapshot",
    ),
    "verify-all": Subcommand(
        params=[Param("seed", "int", "12345", help="seed for randomized property sampling")],
        run=_run_verify_all,
        help="run every identity check of pseudoherm.identities and report PASS/FAIL",
    ),
}


def _help(name):
    """The help text of a subcommand, or of the whole command for None."""
    if name is None:
        head = [
            "usage: pseudoherm [-h] subcommand ...",
            "",
            "metric operators and laser-driven dynamics, as reproducible CSV",
            "",
            "subcommands:",
        ]
        rows = [(sub, spec.help) for sub, spec in _SUBCOMMANDS.items()]
    else:
        spec = _SUBCOMMANDS[name]
        rows = []
        for p in spec.params:
            notes = [p.help] if p.help else []
            if p.choices:
                notes.append(f"one of {', '.join(p.choices)}")
            notes.append("required" if p.default is None else f"default {p.default or '(none)'}")
            rows.append((f"--{p.name} {p.name.upper()}", "; ".join(notes)))
        rows += [
            ("--out OUT", "output file (default stdout)"),
            ("--config CONFIG", "key=value parameter file"),
        ]
        usage = " ".join(f"[{flag}]" for flag, _ in rows)
        head = [f"usage: pseudoherm {name} [-h] {usage}", "", spec.help, "", "flags:"]
    width = max(len(left) for left, _ in rows)
    return "\n".join(head + [f"  {left:<{width}}  {text}" for left, text in rows]) + "\n"


def _read_config(path):
    try:
        text = _read_text(path)
    except (OSError, UnicodeError) as exc:  # missing, unreadable or not text
        raise CliUsageError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise CliUsageError(f"config line {lineno}: expected key=value, got {line!r}")
        out[key.strip()] = value.strip()
    return out


# each subcommand's flags: its Param table, then --out and --config
_FLAGS = {
    name: tuple(p.name for p in spec.params) + ("out", "config")
    for name, spec in _SUBCOMMANDS.items()
}


def _flag_name(name, token):
    """The flag that a token other than an exact `--flag` of subcommand
    `name` names: a unique prefix of one of its flags, or 'help' for
    -h, --help and the prefixes of --help no flag shares."""
    if token == "-h":
        return "help"
    flag = token.partition("=")[0]
    if flag[:2] != "--" or flag == "--":
        raise CliUsageError(f"unexpected argument {token!r} for {name}")
    matches = [key for key in _FLAGS[name] + ("help",) if key.startswith(flag[2:])]
    if not matches:
        raise CliUsageError(f"unknown flag {flag} for {name}")
    if len(matches) > 1:
        raise CliUsageError(f"ambiguous flag {flag} for {name} (--{', --'.join(matches)})")
    return matches[0]


def _flag_pairs(argv):
    """(subcommand name, flag dict) of a command line, in one pass: every
    flag of the subcommand, with its last value or None.  The dict is None
    when the line asks for help, and so is the name when the help asked
    for is the whole command's.  Raises CliUsageError for every other
    line."""
    if argv[:1] in (["-h"], ["--help"]):
        return None, None
    if not argv or argv[0] not in _FLAGS:
        got = f"unknown subcommand {argv[0]!r}" if argv else "missing subcommand"
        raise CliUsageError(f"{got} (one of {', '.join(_FLAGS)})")
    name = argv[0]
    flags = dict.fromkeys(_FLAGS[name])
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        key = flag[2:]
        if flag[:2] != "--" or key not in flags:
            key = _flag_name(name, token)
            if key == "help":
                return name, None
        if not eq:
            value = next(tokens, "--")  # at the line's end, refused as '--' is
        if value == "--":
            raise CliUsageError(f"--{key} needs a value")
        flags[key] = value
    return name, flags


def run(argv=None):
    """Entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        name, flags = _flag_pairs(argv)
        if flags is None:
            sys.stdout.write(_help(name))
            return 0
        spec = _SUBCOMMANDS[name]
        config = _read_config(flags["config"]) if flags["config"] else {}
        known = {p.name for p in spec.params} | {"out"}
        for key in config:
            if key not in known:
                raise CliUsageError(f"unknown config key {key!r} for subcommand {name}")
        out_path = flags["out"] or config.get("out")

        values, canon = {}, {}
        for param in spec.params:
            raw = flags[param.name]
            if raw is None:
                raw = config.get(param.name, param.default)
            if raw is None:
                raise CliUsageError(f"missing required parameter --{param.name}")
            values[param.name], canon[param.name] = _value(param, raw)
        extra, header, rows, code = spec.run(values, canon)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, TypeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = [f"# command={name}"]
    lines += [f"# {key}={canon[key]}" for key in sorted(canon)]
    lines += extra
    lines.append(header)
    if not out_path:
        _write(sys.stdout, lines, rows)
        return code
    try:
        with Path(out_path).open("w") as stream:
            _write(stream, lines, rows)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 1
    return code


def _write(stream, lines, rows):
    """Write the head lines and the rows, each text followed by a newline.
    A list of rows goes out in one write; any other iterable (the row
    blocks of a large table) one text at a time, as each is built."""
    if isinstance(rows, list):
        stream.write("\n".join(lines + rows) + "\n")
        return
    stream.write("\n".join(lines) + "\n")
    for text in rows:
        stream.write(text)
        stream.write("\n")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
