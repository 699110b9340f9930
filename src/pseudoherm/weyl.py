"""Phase-space symbol algebra for Weyl-ordered operators.

A polynomial in the phase-space variables (x, p) represents the
Weyl-ordered (totally symmetrized) operator with that symbol: the
monomial symbol p^m x^n stands for the equal-weight average of all
distinct orderings of m momentum and n position factors.  Operator
products are realized on symbols by the Moyal star product.  The sign
convention is fixed once and for all by

    star(x, p) = x p + i/2,

so star commutators reproduce canonical commutators, in particular
star_commutator(x, p) = i.  Everything is dimensionless (hbar = 1) and
coupling constants enter as plain complex coefficients.

Symbols are immutable; every operation returns a new instance.  A symbol
stores its coefficients as a dense complex array indexed by
(deg_x, deg_p), trimmed to the box that holds its nonzero terms.

Every coefficient array becomes a symbol through one gate, _settle: it
refuses a NaN or infinite coefficient, or one whose modulus overflows;
drops rounding residue when an operation passes summed magnitudes; trims;
and refuses a degree above MAX_DEGREE (its factorial weights overflow
double precision), so that every symbol, built, parsed or computed,
prints to a file that parses back.  The operations that sum terms (+, -,
star, star_commutator, shifts) pass the summed magnitude of the terms
that fed each coefficient, and the gate drops a coefficient only when it
is at most RESIDUE_ULPS machine epsilons times that sum: rounding residue
of a cancellation, not physics.  A genuine coefficient survives however
small it is next to the others, and one that cancels in exact arithmetic
ends at exact zero, so is_zero() detects terminating series.  The
constructor, the parser and scalar multiples drop only exact zeros.
ZERO_THRESHOLD is a tolerance for comparisons (isclose, is_pt_symmetric),
never for storage.  The operations and the gate run with numpy's
warnings off: an overflow is refused by the gate's ValueError alone.  A
product whose (deg_x, deg_p, deg_x, deg_p) work tensor would exceed
MAX_TENSOR entries raises ValueError too.  Negation, conjugation and
pt_transform only flip signs, and wrap their arrays as they are.

The Moyal product has two kernels, chosen by the size of the boxes.  When
its linear map of f (x) g has at most MAX_MAP entries (every product up to
5x5 * 5x5) it is one cached real matrix, applied as two matrix products;
larger boxes go through a tensor kernel whose work grows with the boxes
rather than with the map, and which forms the summed magnitudes only when
a cached bound on them does not settle every coefficient.  Coefficient
scatters (a + c, b + d) are one np.bincount over a cached flat index.
Maps, tensor-kernel plans, bounds and indices share one
least-recently-used cache of at most CACHE_BYTES (16 MiB); the tensor
kernel's scratch buffer is apart from it.

Every exponential here is a pure one, e^E for a polynomial exponent E: a
metric e^q or a gauge frame e^{ibx}, e^{-icp}.  It is passed as E alone.
A polynomial times e^E is e^E times sum_k w_k D_k (x) T_k over the Moyal
orders k: D_k a derivative of the polynomial, T_k one of
e^-E d_x^a d_p^b e^E, held in one derivative table built per batch of
products, and the sum over k is one einsum for the values and one for
the magnitudes, for the two products of intertwining_residual at once.
"""

from __future__ import annotations

import functools
import math
import threading
from itertools import accumulate, combinations

import numpy as np

ZERO_THRESHOLD = 1e-12
RESIDUE_ULPS = 64
MAX_DEGREE = 170
MAX_TENSOR = 2**20
MAX_MAP = 2**16
CACHE_BYTES = 16 * 2**20
_RESIDUE = RESIDUE_ULPS * np.finfo(float).eps

_EMPTY = np.zeros((0, 0), dtype=complex)
_EMPTY.flags.writeable = False

# operations on coefficients overflow quietly to inf or nan, which _settle refuses
_quiet = np.errstate(over="ignore", invalid="ignore")


# -- coefficient arrays ------------------------------------------------------


def _check_finite(c):
    """ValueError for a coefficient whose modulus is NaN or infinite: a
    modulus above the double range has no rounding floor to hold it to."""
    finite = np.isfinite(np.abs(c))
    if not finite.all():
        dx, dp = (int(i) for i in np.argwhere(~finite)[0])
        why = ": its modulus overflows" if np.isfinite(c[dx, dp]) else ""
        raise ValueError(f"non-finite coefficient {complex(c[dx, dp])} at degrees {(dx, dp)}{why}")


def _trim(c):
    """The smallest leading box of c that holds all its nonzero entries."""
    if c.size and np.count_nonzero(c[-1]) and np.count_nonzero(c[:, -1]):
        return c
    rows, cols = np.nonzero(c)
    if rows.size == 0:
        return _EMPTY
    return c[: rows[-1] + 1, : cols.max() + 1]


@_quiet
def _settle(values, mags=None):
    """The symbol on the coefficient array `values`: the one gate from an array to a symbol.

    A NaN or infinite coefficient, or one whose modulus overflows, raises
    ValueError, before the floor: an overflowed value beside an overflowed
    magnitude would pass for residue.  With `mags`, the summed magnitudes
    of the terms that fed each coefficient (or, from the tensor kernel, a
    bound on them that drops the same coefficients), rounding residue goes
    (|c| <= RESIDUE_ULPS eps * mags); a NaN magnitude keeps its coefficient
    (a map's matrix product turns an infinite |f_ab| |g_cd| into
    0 * inf = NaN in every output it does not feed).  The array is trimmed, so without
    `mags` only exact zeros go, and a degree above MAX_DEGREE raises
    ValueError, so that every symbol is one a symbol file can hold.
    """
    if values.size == 0:
        return WeylSymbol._wrap(_EMPTY)
    moduli = np.abs(values)
    if not math.isfinite(np.maximum.reduce(moduli, axis=None)):
        _check_finite(values)
    c = _trim(values if mags is None else np.where(moduli <= _RESIDUE * mags, 0, values))
    _check_degrees(c.shape)
    return WeylSymbol._wrap(c)


def _check_degrees(shape):
    """ValueError for a coefficient box of `shape` that holds a degree above MAX_DEGREE."""
    if max(shape) > MAX_DEGREE + 1:
        raise ValueError(
            f"result degrees up to {(shape[0] - 1, shape[1] - 1)} exceed MAX_DEGREE = {MAX_DEGREE}"
        )


def _gather(rows, cols, parts):
    """The coefficient array of n terms parts[k] + i parts[n + k] at degrees (rows[k], cols[k]).

    Equal degrees add up in order from 0, as Python complex sums from 0j do
    (-0 sums to +0), and quietly: an overflow is left for _settle to refuse.
    """
    h, w = max(rows, default=-1) + 1, max(cols, default=-1) + 1
    # the real part of term (a, b) lands at 2 (a w + b) and its imaginary part after it
    cells = [2 * (a * w + b) for a, b in zip(rows, cols)]
    return np.bincount(cells + [k + 1 for k in cells], parts, 2 * h * w).view(complex).reshape(h, w)


@functools.lru_cache(maxsize=None)
def _falling(n):
    """t[i, k] = i!/(i-k)!, the factor d^k/dy^k puts on y^i, for i, k < n (zero for k > i)."""
    return np.array([[math.perm(i, k) for k in range(n)] for i in range(n)], dtype=float)


def _padded_sum(a, b):
    """a + b over the union of their boxes, with the summed magnitudes |a| + |b|."""
    if a.shape == b.shape:
        return a + b, np.abs(a) + np.abs(b)
    shape = (max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1]))
    out = np.zeros(shape, dtype=complex)
    mag = np.zeros(shape)
    for c in (a, b):
        out[: c.shape[0], : c.shape[1]] += c
        mag[: c.shape[0], : c.shape[1]] += np.abs(c)
    return out, mag


# -- bounded caches ----------------------------------------------------------


class _ArrayCache:
    """Values built once per key and kept while they total at most `limit` bytes.

    A value is an array or a tuple of arrays.  The least recently used
    entry goes first, and a value larger than the whole limit is built for
    its call and not kept, so the cache holds at most `limit` bytes
    whatever the shapes asked for.
    """

    def __init__(self, limit):
        self.limit = limit
        self.nbytes = 0
        self._entries = {}  # key -> (value, bytes), least recently used first
        self._lock = threading.Lock()

    def __call__(self, build, *args):
        key = (build, *args)
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._entries[key] = entry
                return entry[0]
        value = build(*args)
        size = sum(a.nbytes for a in value) if isinstance(value, tuple) else value.nbytes
        with self._lock:
            if size <= self.limit and key not in self._entries:
                self._entries[key] = (value, size)
                self.nbytes += size
                while self.nbytes > self.limit:
                    self.nbytes -= self._entries.pop(next(iter(self._entries)))[1]
        return value


# Moyal maps, kernel plans and scatter indices, for every product kernel
_CACHE = _ArrayCache(CACHE_BYTES)


def _flat_index(shape, strides):
    """sum_k i_k strides_k for every index i of an array of `shape`, in C order."""
    axes = [np.arange(n) * stride for n, stride in zip(shape, strides)]
    return functools.reduce(np.add.outer, axes).ravel()


def _scatter_add(values, strides, size):
    """The entries of `values` summed into a flat array of `size`: entry i
    lands at sum_k i_k strides_k, in C order of i."""
    index = _CACHE(_flat_index, values.shape, strides)
    return np.bincount(index, weights=values.ravel(), minlength=size)


def _scatter(t):
    """Sum the entries of a (..., a, b, c, d) tensor into the array (..., a + c, b + d).

    Each output entry sums its terms in C order of (a, b, c, d), whatever
    the leading axes.
    """
    *batch, na, nb, nc, nd = t.shape
    h, w = na + nc - 1, nb + nd - 1
    n = math.prod(batch)
    if t.dtype == complex:  # the two parts as a trailing axis, landing side by side
        parts = t.view(float).reshape(n, na, nb, nc, nd, 2)
        flat = _scatter_add(parts, (2 * h * w, 2 * w, 2, 2 * w, 2, 1), 2 * n * h * w)
        return flat.view(complex).reshape(*batch, h, w)
    flat = _scatter_add(t.reshape(n, na, nb, nc, nd), (h * w, w, 1, w, 1), n * h * w)
    return flat.reshape(*batch, h, w)


def _check_tensor(na, nb, nc, nd):
    if na * nb * nc * nd > MAX_TENSOR:
        raise ValueError(
            f"product of a {na}x{nb} and a {nc}x{nd} coefficient box exceeds "
            f"{MAX_TENSOR} tensor entries"
        )


@functools.lru_cache(maxsize=None)
def _inverse_factorials(n):
    return np.array([1.0 / math.factorial(k) for k in range(n)])


_SCRATCH = threading.local()


def _scratch(size):
    """`size` doubles, carved from this thread's reusable buffer.

    A tensor-sized array that is freed goes back to the operating system
    and faults its pages in again at the next allocation; at degree 16
    that costs as much as the arithmetic, so the kernel reuses one buffer.
    It keeps the size of the largest product computed, at most
    9 * MAX_TENSOR doubles (72 MiB).
    """
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < size:
        buf = _SCRATCH.buf = np.empty(size)
    return buf[:size]


# i^k for k mod 4
_TURNS = np.array([1, 1j, -1, -1j])


def _moyal_map(na, nb, nc, nd, odd_only):
    """The Moyal product of an (na, nb) and an (nc, nd) box as one linear map of f (x) g.

    Order (u, v) takes f_ab g_cd to degrees (a + c - s, b + d - s), s = u + v,
    with weight (i/2)^u/u! (-i/2)^v/v! P(a, u) P(b, v) P(c, v) P(d, u)
    (P(n, k) = n!/(n - k)!), that is i^s times the real
    (-1)^v C(a, u) P(d, u) C(b, v) P(c, v) / 2^s.  The phase splits as
    i^s = i^a i^c (-i)^(a + c - s): one phase on the rows of f, one on the
    rows of g and one on the output rows.  So the map is stored real, with
    the orders of equal s summed: `values` maps the (re, im) pairs of the
    turned f (x) g, and `magnitudes` sums the moduli of the same weights,
    the magnitudes that the rounding floor reads.  With odd_only only odd
    s are kept, doubled.  For boxes within MAX_MAP every term is an integer
    below 2^53 over 2^s, so both maps are exact.

    Returns (values, magnitudes, turn_f, turn_g, turn_out): the two
    (h w, na nb nc nd) maps and the phases i^a, i^c and (-i)^k as columns.
    """
    h, w = na + nc - 1, nb + nd - 1
    n = na * nb * nc * nd
    nu, nv = min(na, nd), min(nb, nc)
    cu = _falling(na)[:, :nu] / np.diagonal(_falling(nu))
    cv = _falling(nb)[:, :nv] / np.diagonal(_falling(nv)) * (-1.0) ** np.arange(nv)
    pv = _falling(nc)[:, :nv] * 0.5 ** np.arange(nv)
    pu = _falling(nd)[:, :nu] * 0.5 ** np.arange(nu)
    term = np.einsum("au,bv,cv,du->abcduv", cu, cv, pv, pu)
    if odd_only:
        term[..., np.add.outer(np.arange(nu), np.arange(nv)) % 2 == 0] = 0.0
        term *= 2.0
    a, b, c, d, u, v = np.nonzero(term)
    s = u + v
    flat = ((a + c - s) * w + b + d - s) * n + ((a * nb + b) * nc + c) * nd + d
    weights = term[a, b, c, d, u, v]
    values = np.bincount(flat, weights, minlength=h * w * n).reshape(h * w, n)
    magnitudes = np.bincount(flat, np.abs(weights), minlength=h * w * n).reshape(h * w, n)
    turn = _TURNS[np.arange(max(na, nc)) % 4, None]
    return values, magnitudes, turn[:na], turn[:nc], _TURNS[-np.arange(h) % 4, None]


def _moyal_by_map(f, g, odd_only):
    """The Moyal product of two small boxes through their cached _moyal_map."""
    na, nb = f.shape
    nc, nd = g.shape
    values, magnitudes, turn_f, turn_g, turn_out = _CACHE(_moyal_map, na, nb, nc, nd, odd_only)
    fg = np.multiply.outer(f * turn_f, g * turn_g).reshape(-1, 1)
    out = (values @ fg.view(float)).view(complex).reshape(na + nc - 1, nb + nd - 1) * turn_out
    return out, (magnitudes @ np.abs(fg)).reshape(out.shape)


def _cells(nb, nc):
    """The (b, c) cells of an (nb, nc) box as (class, row) arrays.

    Class k holds the cells with b - c = k mod n1, n1 = max(nb, nc): one or
    two whole diagonals, n2 = min(nb, nc) cells in all, in rows r ordered
    along them, so the shift (b, c) -> (b - v, c - v) takes row r of a class
    to its row r - v.
    """
    n1, n2 = max(nb, nc), min(nb, nc)
    k, r = np.ogrid[:n1, :n2]
    if nb >= nc:
        return (r + k) % n1, r + 0 * k
    return r + 0 * k, (r - k) % n1


def _moyal_plan(na, nb, nc, nd):
    """Gathers, phases and indices of the Moyal tensor kernel for one pair of boxes.

    The order-(u, v) Moyal term pairs d_x^u d_p^v f with d_x^v d_p^u g at
    weight (i/2)^u/u! (-i/2)^v/v!.  The u part is a contraction over u of
    f_(a'+u, b) (a'+u)!/a'! with g_(c, d'+u) (d'+u)!/d'! (i/2)^u/u!: one
    matrix product of gathered Hankel windows, which leaves the tensor
    (b, c, a', d').  The v part takes cell (b, c) to (b', c') = (b - v, c - v)
    with weight (b'+v)!/b'! (c'+v)!/c'! (-i/2)^v/v!, and the term lands at
    degrees (a' + c', b' + d').

    The phase of the v part leaves the contraction: (-i)^v = (-i)^b i^b',
    and i^b' = i^P (-i)^d' at output column P = b' + d'.  So column b of f
    takes (-i)^b (turn_f), the gathered g takes (-i)^d' (in mult_g) and
    output column P takes i^P (turn_out), all exact turns from _TURNS, and
    what is left of the v part is real (_moyal_blocks).  `gather` takes the
    (b a', c d') entries of the u product to the (row, class, a' d') layout
    of the cells of _cells, and `scatter` takes that layout to the flat
    (a' + c') w + b' + d' index of the result.  Order (0, 0) carries weight
    1 throughout, so a product with a constant is exact.

    Returns (take_f, mult_f, rows_g, take_g, mult_g, turn_f, turn_out,
    gather, scatter).
    """
    nu = min(na, nd)
    ia, ic, id_, iu = (np.arange(n) for n in (na, nc, nd, nu))
    # lhs[b, a', u] = f[a' + u, b] * mult_f[a', u], zero past the box
    src_a = np.add.outer(ia, iu)
    take_f = np.minimum(src_a, na - 1)
    mult_f = np.where(src_a < na, _falling(na)[take_f, iu], 0.0)
    # rhs[c, d', u] = g[c, d' + u] * mult_g[d', u]
    src_d = np.add.outer(id_, iu)
    take_g = np.minimum(src_d, nd - 1)
    mult_g = np.where(
        src_d < nd,
        _falling(nd)[take_g, iu] * ((0.5j) ** iu * _inverse_factorials(nu)) * _TURNS[-id_ % 4, None],
        0.0,
    )
    turn_f = _TURNS[-np.arange(nb) % 4]
    turn_out = _TURNS[np.arange(nb + nd - 1) % 4]

    w = nb + nd - 1
    b, c = (cell.T[:, :, None, None] for cell in _cells(nb, nc))
    gather = ((b * na + ia[:, None]) * nc + c) * nd + id_
    scatter = (ia[:, None] + c) * w + b + id_
    return (take_f, mult_f, ic[:, None, None], take_g, mult_g,
            turn_f, turn_out, gather.ravel(), scatter.ravel())


def _moyal_blocks(nb, nc, odd_only):
    """The v part of the Moyal tensor kernel: one real block per class of _cells.

    blocks[k, r - v, r] = C(b, v) c!/(c - v)! 2^-v for the cell (b, c) in
    row r of class k, zero for v > min(b, c).  With the phase turned out
    (_moyal_plan) these weights are real and nonnegative, so one block
    serves the real part, the imaginary part and the magnitude, and every
    weight of a box up to 17 x 17 is exact.  With odd_only a block is
    (n2, 2 n2), doubled: the even-v weights, which pair with the odd-u
    product, then the odd-v weights, which pair with the even-u product.
    """
    b, c = _cells(nb, nc)
    n1, n2 = b.shape
    binom = _falling(nb)[:, :n2] / np.diagonal(_falling(n2))
    shift = _falling(nc)[:, :n2] * 2.0 ** (odd_only - np.arange(n2))
    blocks = np.zeros((n1, n2, (1 + odd_only) * n2))
    for v in range(n2):
        rows = np.arange(n2 - v)
        blocks[:, rows, rows + v + odd_only * (v % 2) * n2] = (binom[b, v] * shift[c, v])[:, v:]
    return blocks


def _moyal_by_tensor(f, g, odd_only, magnitude_plane=False):
    """The Moyal product of two coefficient boxes through the packed (b, c, a, d) tensor.

    Four steps per plane: the u part as one matrix product of Hankel
    windows of f and g (odd and even u in turn with odd_only); one take per
    plane into the (row, class, a' d') layout; one real matrix product of
    the v blocks with it; one bincount per plane to (a + c, b + d).  The
    planes live in a reused scratch buffer, 3 (1 + k) na nb nc nd doubles
    for k u products, and the blocks' output overwrites the u product.

    The real and imaginary planes come first.  The magnitude plane, the
    same steps on |f| x |g|, is formed only when the floor of _settle may
    need it: when some coefficient is nonzero and at most _RESIDUE times
    _magnitude_bound (2 max|f| max|g| S), or when that bound overflows.
    Otherwise every coefficient is exactly 0, which the floor zeroes
    whatever the magnitudes, or above _RESIDUE times a bound that is at
    least its magnitude, which the floor keeps; so the bound is returned
    in place of the magnitudes and no coefficient settles differently.
    With magnitude_plane the plane is always formed.
    """
    na, nb = f.shape
    nc, nd = g.shape
    _check_tensor(na, nb, nc, nd)
    take_f, mult_f, rows_g, take_g, mult_g, turn_f, turn_out, gather, scatter = _CACHE(
        _moyal_plan, na, nb, nc, nd
    )
    blocks = _CACHE(_moyal_blocks, nb, nc, odd_only)
    nu = take_f.shape[1]
    lhs = ((f * turn_f).T[:, take_f] * mult_f).reshape(nb * na, nu)  # rows (b, a'), columns u
    rhs = (g[rows_g, take_g] * mult_g).reshape(nc * nd, nu)  # rows (c, d'), columns u

    # u orders of each product: all of them, or the odd then the even ones
    orders = (slice(1, None, 2), slice(0, None, 2)) if odd_only else (slice(None),)
    factors = [(lhs[:, us].conj(), np.ascontiguousarray(rhs[:, us])) for us in orders]
    size = na * nb * nc * nd
    work = _scratch(3 * (1 + len(orders)) * size)
    planes = work[: 3 * size].reshape(3, size)  # re, im, magnitude
    packed = work[3 * size :].reshape(3, len(orders), size)
    n1, n2 = blocks.shape[:2]
    h, w = na + nc - 1, nb + nd - 1

    def sums(kind):
        """The (a + c, b + d) sums of planes[kind], once the u products fill packed[kind]."""
        np.matmul(
            blocks,
            packed[kind].reshape(-1, len(orders) * n2, n1, na * nd).transpose(0, 2, 1, 3),
            out=planes[kind].reshape(-1, n2, n1, na * nd).transpose(0, 2, 1, 3),
        )
        return [np.bincount(scatter, plane, h * w).reshape(h, w) for plane in planes[kind]]

    for half, (left, right) in enumerate(factors):
        # over (re, im) pairs, conj(L) gives Re(L R) and i conj(L) gives Im(L R)
        np.matmul(
            np.concatenate((left, 1j * left)).view(float),
            right.view(float).T,
            out=planes[:2].reshape(2 * nb * na, nc * nd),
        )
        np.take(planes[0], gather, out=packed[0, half], mode="clip")
        np.take(planes[1], gather, out=packed[1, half], mode="clip")
    re, im = sums(slice(0, 2))
    values = (re + 1j * im) * turn_out
    if not magnitude_plane:
        # building S runs this kernel on the same scratch buffer; the
        # magnitude plane below writes every scratch entry before it reads it
        bound = _magnitude_bound(f, g, odd_only)
        moduli = np.abs(values)
        if bound is not None and not np.count_nonzero(moduli[moduli <= _RESIDUE * bound]):
            return values, bound
    for half, (left, right) in enumerate(factors):
        np.matmul(np.abs(left), np.abs(right).T, out=planes[2].reshape(nb * na, nc * nd))
        np.take(planes[2], gather, out=packed[2, half], mode="clip")
    (mag,) = sums(slice(2, 3))
    return values, mag


def _tensor_bound(na, nb, nc, nd, odd_only):
    """S, the tensor kernel's magnitude plane of two all-ones boxes of the
    given shapes: the summed weights of the terms that feed each output
    coefficient."""
    ones = (np.ones(shape, dtype=complex) for shape in ((na, nb), (nc, nd)))
    return _moyal_by_tensor(*ones, odd_only, magnitude_plane=True)[1]


def _magnitude_bound(f, g, odd_only):
    """2 max|f| max|g| S (S of _tensor_bound, cached), at least the tensor
    kernel's magnitude plane of the product of f and g: each term's
    |f_ab| |g_cd| is at most max|f| max|g|, and the factor 2 covers the
    rounding of the sums.  None when max|f| max|g| overflows."""
    scale = 2.0 * np.maximum.reduce(np.abs(f), axis=None) * np.maximum.reduce(np.abs(g), axis=None)
    if not math.isfinite(scale):
        return None
    return scale * _CACHE(_tensor_bound, *f.shape, *g.shape, odd_only)


def _moyal(f, g, odd_only=False):
    """Moyal product of two coefficient arrays, with per-coefficient summed magnitudes
    (or, from the tensor kernel, a bound on them that settles alike).

    f * g = exp((i/2) d_x1 d_p2) exp(-(i/2) d_p1 d_x2) f(x1, p1) g(x2, p2)
    at x1 = x2, p1 = p2.  The kernel follows the size of the boxes: a
    product whose map of f (x) g has at most MAX_MAP entries (every product
    up to 5x5 * 5x5) is one cached linear map (_moyal_map) applied as two
    matrix products; larger boxes go through the tensor kernel
    (_moyal_by_tensor), whose work grows as na nb nc nd rather than as the
    map.  On a 2-vCPU x86-64 with OpenBLAS on one thread, 4x4 * 4x4 took
    17-18 us by the map against 48 us by the tensor, 5x5 * 5x5 31-39 us
    against 58-59 us, and 6x6 * 6x6 105-139 us against 74-96 us: the
    tensor kernel wins from 6x6, where MAX_MAP ends (one 6x6 map would
    take 2.4 MiB; MAX_MAP keeps one within 1 MiB).

    The map forms its magnitudes on every call, in one small matrix
    product that costs less than a bound would.  The tensor kernel returns
    in their place a bound that settles every coefficient alike whenever
    the bound clears the floor (_moyal_by_tensor): dense products of
    degrees 6-10 do, those of degrees 12-16 mostly form the magnitude
    plane.

    With odd_only only the odd orders u + v are kept, doubled: that is
    f * g - g * f, which never forms the even orders that cancel in the
    difference.
    """
    na, nb = f.shape
    nc, nd = g.shape
    if not (na and nc):
        return _EMPTY, np.zeros((0, 0))
    if na * nb * nc * nd * (na + nc - 1) * (nb + nd - 1) <= MAX_MAP:
        return _moyal_by_map(f, g, odd_only)
    return _moyal_by_tensor(f, g, odd_only)


# -- polynomial symbols ------------------------------------------------------


class WeylSymbol:
    """Polynomial phase-space symbol, coefficients indexed by (deg_x, deg_p)."""

    __slots__ = ("_c",)

    def __init__(self, terms=None):
        """The symbol with the ((deg_x, deg_p), coefficient) terms of a dict or of pairs.

        Every key is checked before a coefficient is read; equal degrees add up.
        """
        pairs = list(terms.items() if hasattr(terms, "items") else terms or ())
        rows, cols = [], []
        for key, _ in pairs:
            dx, dp = key
            if not (0 <= dx < math.inf and 0 <= dp < math.inf) or dx != int(dx) or dp != int(dp):
                raise ValueError(f"invalid degree key {key!r}")
            if max(dx, dp) > MAX_DEGREE:
                raise ValueError(f"degree key {key!r} exceeds MAX_DEGREE = {MAX_DEGREE}")
            rows.append(int(dx))
            cols.append(int(dp))
        coeffs = [complex(coeff) for _, coeff in pairs]
        parts = [c.real for c in coeffs] + [c.imag for c in coeffs]
        self._c = _settle(_gather(rows, cols, parts))._c

    @classmethod
    def _wrap(cls, c):
        """A symbol on a finite, trimmed coefficient array, taken as is."""
        obj = cls.__new__(cls)
        obj._c = c
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def x(cls, power=1):
        return cls({(power, 0): 1.0})

    @classmethod
    def p(cls, power=1):
        return cls({(0, power): 1.0})

    @classmethod
    def monomial(cls, deg_x, deg_p, coeff=1.0):
        return cls({(deg_x, deg_p): coeff})

    # -- inspection --------------------------------------------------------

    def items(self):
        """The nonzero terms ((deg_x, deg_p), coefficient), sorted by degrees."""
        dx, dp, c = self.arrays()
        return list(zip(zip(dx.tolist(), dp.tolist()), c.tolist()))

    def arrays(self):
        """The nonzero terms as the arrays (deg_x, deg_p, coefficient), sorted by degrees."""
        dx, dp = np.nonzero(self._c)
        return dx, dp, self._c[dx, dp]

    def coefficient(self, deg_x, deg_p):
        na, nb = self._c.shape
        if 0 <= deg_x < na and 0 <= deg_p < nb:
            return complex(self._c[deg_x, deg_p])
        return 0j

    def max_abs(self):
        return float(np.abs(self._c).max(initial=0.0))

    def is_zero(self, tol=0.0):
        return self._c.size == 0 or self.max_abs() <= tol

    @_quiet
    def distance(self, other):
        """Largest coefficientwise |self - other|, with no rounding floor applied."""
        diff, _ = _padded_sum(self._c, -other._c)
        return float(np.abs(diff).max(initial=0.0))

    def isclose(self, other, tol=ZERO_THRESHOLD):
        scale = max(1.0, self.max_abs(), other.max_abs())
        return self.distance(other) <= tol * scale

    # -- arithmetic --------------------------------------------------------

    @_quiet
    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = WeylSymbol.constant(other)
        if not isinstance(other, WeylSymbol):
            return NotImplemented
        if other._c.size == 0:
            return self
        if self._c.size == 0:
            return other
        return _settle(*_padded_sum(self._c, other._c))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, WeylSymbol) else -complex(other))

    def __neg__(self):
        return WeylSymbol._wrap(-self._c)

    @_quiet
    def __mul__(self, other):
        """Scalar multiple; use star() for operator products."""
        if isinstance(other, (int, float, complex)):
            return _settle(self._c * complex(other))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, WeylSymbol):
            return NotImplemented
        return self._c.shape == other._c.shape and bool(np.all(self._c == other._c))

    __hash__ = None

    # -- shifts, conjugation and values ----------------------------------

    @_quiet
    def _shift(self, a, axis):
        n = self._c.shape[axis]
        i = np.arange(n)
        gap = np.subtract.outer(i, i)  # source degree minus target degree
        binom = np.array([[math.comb(s, t) for s in range(n)] for t in range(n)], dtype=float)
        # binom[t, s] * a^(s - t): the weight of degree s in the shifted degree t
        m = np.where(gap.T >= 0, binom * complex(a) ** np.maximum(gap.T, 0), 0)
        c = self._c if axis == 0 else self._c.T
        out, mag = m @ c, np.abs(m) @ np.abs(c)
        if axis == 1:
            out, mag = out.T, mag.T
        return _settle(out, mag)

    def shift_x(self, a):
        """Substitute x -> x + a."""
        return self._shift(a, 0)

    def shift_p(self, b):
        """Substitute p -> p + b."""
        return self._shift(b, 1)

    def conjugate(self):
        """Hermitian conjugate: complex-conjugate coefficients.

        Weyl-symmetrized monomials in the self-adjoint pair (x, p) are
        self-adjoint, so conjugating an operator only conjugates its
        symbol coefficients.
        """
        return WeylSymbol._wrap(self._c.conj())

    def evaluate(self, x, p):
        """Value at the point (x, p); arrays of points broadcast."""
        x, p = np.asarray(x), np.asarray(p)
        na, nb = self._c.shape
        xs = x[..., None] ** np.arange(na)
        ps = p[..., None] ** np.arange(nb)
        return np.einsum("...a,ab,...b->...", xs, self._c, ps)[()]

    # -- serialization -----------------------------------------------------

    def to_text(self):
        """One term per line: 'deg_x deg_p re im', sorted by degrees."""
        lines = [f"{dx} {dp} {c.real:.17g} {c.imag:.17g}" for (dx, dp), c in self.items()]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text):
        """Parse a symbol file: one term 'deg_x deg_p re im' per line, as to_text writes.

        Fields are separated by whitespace or commas.  A '#' starts a
        comment that runs to the end of its line; blank lines and rows whose
        first field is 'deg_x' (the header of the CLI's CSV) are skipped.  A
        degree is anything int() takes ('7', '+7', '1_0') and a part
        anything float() takes ('2.5e-3', 'nan', 'inf').  Terms of equal
        degrees add up, in file order.

        The text is parsed column by column: one split per line, then int()
        and float() mapped over whole columns, and the terms go through the
        constructor's np.bincount gather and _settle, so a file and the
        pairs of its terms give the same symbol, or the same refusal but for
        its 'line N: ' prefix.  Refused with a ValueError:
        - 'line N: expected ...', a row without exactly four fields;
        - 'line N: <the int() or float() message>', a field those refuse;
        - 'line N: invalid degree key (dx, dp)', a negative degree;
        - 'line N: degree key (dx, dp) exceeds MAX_DEGREE', a degree above it;
        - 'non-finite coefficient ... at degrees (dx, dp)', a summed
          coefficient that is NaN or infinite or whose modulus overflows.
        N is the first line at fault, and a row of the first two kinds
        anywhere is reported before a degree out of range.
        """
        lines = text.replace(",", " ").splitlines()
        if "#" in text:
            lines = [line.partition("#")[0] for line in lines]
        rows = [fields for fields in map(str.split, lines) if fields and fields[0] != "deg_x"]
        if not rows:
            return cls()
        try:
            if set(map(len, rows)) != {4}:
                raise ValueError
            dx, dp, re, im = zip(*rows)
            dx, dp = list(map(int, dx)), list(map(int, dp))
            parts = list(map(float, re + im))
            if min(dx) < 0 or min(dp) < 0 or max(max(dx), max(dp)) > MAX_DEGREE:
                raise ValueError
        except ValueError:
            raise _refusal(text, lines, rows) from None
        return _settle(_gather(dx, dp, parts))

    def __str__(self):
        if self._c.size == 0:
            return "0"
        parts = []
        for (dx, dp), c in self.items():
            if c.imag == 0:
                cs = f"{c.real:g}"
            elif c.real == 0:
                cs = f"{c.imag:g}j"
            else:
                cs = f"({c.real:g}{c.imag:+g}j)"
            mono = "".join(
                [f"x^{dx}" if dx > 1 else "x" * (dx == 1), f"p^{dp}" if dp > 1 else "p" * (dp == 1)]
            )
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"WeylSymbol({self})"


def _refusal(text, lines, rows):
    """The ValueError of from_text for the first row of `rows` at fault, naming its line."""
    split = enumerate(map(str.split, lines), 1)
    numbers = [n for n, fields in split if fields and fields[0] != "deg_x"]
    for n, fields in zip(numbers, rows):
        try:
            if len(fields) != 4:
                raise ValueError(f"expected 'deg_x deg_p re im', got {text.splitlines()[n - 1]!r}")
            int(fields[0]), int(fields[1]), float(fields[2]), float(fields[3])
        except ValueError as exc:
            return ValueError(f"line {n}: {exc}")
    for n, fields in zip(numbers, rows):
        key = (int(fields[0]), int(fields[1]))
        if min(key) < 0:
            return ValueError(f"line {n}: invalid degree key {key!r}")
        if max(key) > MAX_DEGREE:
            return ValueError(f"line {n}: degree key {key!r} exceeds MAX_DEGREE = {MAX_DEGREE}")
    raise AssertionError("from_text refused a text without a fault")


# -- module-level operations ----------------------------------------------


def _reach(c):
    """reach[u, v]: whether d_x^u d_p^v of the symbol with coefficient array c is nonzero,
    that is whether some term x^a p^b has a >= u and b >= v."""
    nonzero = c[::-1, ::-1] != 0
    return np.logical_or.accumulate(np.logical_or.accumulate(nonzero), axis=1)[::-1, ::-1]


def _exp_step(q, w, ramp, out):
    """out += (d + w) q for a stack q of (n, h, k) coefficient arrays, in their (h, k) box.

    d is the first derivative along x, with ramp = [[1], [2], ..., [h - 1]],
    or along p, with ramp = [1, 2, ..., k - 1]; w, given as its nonzero
    terms (c, e, w_ce) in reverse C order, multiplies pointwise.  From a
    zero `out`, each coefficient sums its product terms in the order the
    oracle tests/test_symbol_oracles.py::_convolve sums them and then adds
    the derivative.  The terms a product would carry past the box are zero
    when the box holds the result.
    """
    h, k = q.shape[1:]
    for c, e, w_ce in w:
        out[:, c:, e:] += q[:, : h - c, : k - e] * w_ce
    if ramp.ndim == 2:
        out[:, :-1] += q[:, 1:] * ramp
    else:
        out[:, :, :-1] += q[:, :, 1:] * ramp


def _exp_table(exponent, heights):
    """T[a, b] = e^-E d_x^a d_p^b e^E for E = exponent, at every a < heights[b],
    as one (n, h, k) stack: column after column, so that T[a, b] sits at
    a + heights[0] + ... + heights[b - 1].

    The heights do not grow with b, so the entries form a down-set: with
    (a, b) they hold every (a', b') <= (a, b).  Column b = 0 comes in
    steps of d_x + E_x, one entry at a time; then each column comes from
    the one before in one step of d_p + E_p over all its rows, so
    T[a, b] = (d_p + E_p)^b (d_x + E_x)^a 1.  The entries share the box of
    the largest: a step grows a box by the degrees of E_x (or E_p).  A box
    past MAX_DEGREE raises _settle's ValueError before the table is
    allocated.
    """
    rows, cols = np.nonzero(exponent)
    terms = list(zip(rows.tolist(), cols.tolist(), exponent[rows, cols].tolist()))[::-1]
    # E_x and E_p as their nonzero terms (c, e, w_ce), in reverse C order
    wx = [(i - 1, j, e * i) for i, j, e in terms if i]
    wp = [(i, j - 1, e * j) for i, j, e in terms if j]
    gx, gp = ([max(t[axis] for t in w) if w else 0 for axis in (0, 1)] for w in (wx, wp))
    box = [
        1 + max((h - 1) * gx[axis] + b * gp[axis] for b, h in enumerate(heights))
        for axis in (0, 1)
    ]
    _check_degrees(box)
    starts = [0, *accumulate(heights)]
    table = np.zeros((starts[-1], *box), dtype=complex)
    table[0, 0, 0] = 1.0
    ramp_x, ramp_p = np.arange(1.0, box[0])[:, None], np.arange(1.0, box[1])
    # without E_x (E_p) a step only differentiates, and box[0] (box[1]) of them leave zero
    for a in range(1, heights[0] if wx else min(heights[0], box[0])):
        _exp_step(table[a - 1 : a], wx, ramp_x, table[a : a + 1])
    for b in range(1, len(heights) if wp else min(len(heights), box[1])):
        column = table[starts[b - 1] : starts[b - 1] + heights[b]]
        _exp_step(column, wp, ramp_p, table[starts[b] : starts[b] + heights[b]])
    return table


def _exp_star_plan(*products):
    """The gathers and weights of the stars of one exponential e^E with
    polynomials, each given as (na, nb, support, poly_left): its (na, nb)
    box holds nonzero terms where `support` (the bytes of a bool array)
    says, and it multiplies e^E from the left (poly_left) or from the
    right.

    The Moyal order (u, v) pairs d_x^u d_p^v of the left factor with
    d_x^v d_p^u of the right one at weight (i/2)^u/u! (-i/2)^v/v!.  Product
    s keeps the orders whose derivative of its polynomial is not zero, by
    u + v and then u, padded with zero weights to the count K of the
    longest: D[s, k], the derivative d_x^u d_p^v of its polynomial (d_x^v
    d_p^u to the right of e^E), is coefficients[flat] * mult_x *
    mult_p, where `coefficients` holds the raveled polynomials one after
    the other, and it is zero past its box.  It meets the table entry
    T[v, u] (T[u, v] to the right), which `entry` locates in the stack of
    _exp_table.  A product reads the entries T[a, b] with
    reach[b, a] (see _reach); heights[b] counts those of column b that
    some product reads.

    Returns (flat, mult_x, mult_p, weights, |weights|, entry, heights),
    each with a leading axis over the products but heights.
    """
    na, nb = max(p[0] for p in products), max(p[1] for p in products)
    reaches = [_reach(np.frombuffer(p[2], dtype=bool).reshape(p[:2])) for p in products]
    heights = np.zeros(na, dtype=int)
    for reach in reaches:
        heights[: len(reach)] = np.maximum(heights[: len(reach)], reach.sum(axis=1))
    starts = np.concatenate(([0], np.cumsum(heights)))
    plans, offset = [], 0
    for (n_a, n_b, _, poly_left), reach in zip(products, reaches):
        u, v = np.array([(u, s - u) for s in range(n_a + n_b - 1) for u in range(s + 1)]).T
        du, dv = (u, v) if poly_left else (v, u)
        keep = (du < n_a) & (dv < n_b)
        keep[keep] = reach[du[keep], dv[keep]]
        u, v, du, dv = u[keep], v[keep], du[keep], dv[keep]
        weights = np.array([
            (0.5j) ** i * (-0.5j) ** j / (math.factorial(i) * math.factorial(j))
            for i, j in zip(u.tolist(), v.tolist())
        ])
        rows = du[:, None, None] + np.arange(na)[:, None]
        cols = dv[:, None, None] + np.arange(nb)
        mult_x = np.where(rows < n_a, _falling(n_a)[np.minimum(rows, n_a - 1), du[:, None, None]], 0.0)
        mult_p = np.where(cols < n_b, _falling(n_b)[np.minimum(cols, n_b - 1), dv[:, None, None]], 0.0)
        flat = offset + np.minimum(rows, n_a - 1) * n_b + np.minimum(cols, n_b - 1)
        offset += n_a * n_b
        ta, tb = (v, u) if poly_left else (u, v)
        plans.append((flat, mult_x, mult_p, weights, np.abs(weights), starts[tb] + ta))
    size = max(plan[0].shape[0] for plan in plans)
    stacked = []
    for part in zip(*plans):
        out = np.zeros((len(plans), size, *part[0].shape[1:]), dtype=part[0].dtype)
        for s, a in enumerate(part):
            out[s, : a.shape[0]] = a
        stacked.append(out)
    return (*stacked, heights)


@_quiet
def _star_with_exp(products, exponent):
    """The products of e^E, for E = exponent, with polynomials, as their
    polynomial parts: for each (poly, poly_left) of products, the R with
    poly * e^E = R e^E (poly_left) or e^E * poly = R e^E, one WeylSymbol
    each, zero ones kept.

    R is sum_k w_k D_k (x) T_k over the Moyal orders of _exp_star_plan.
    For all products at once, the derivatives D_k of the polynomials come
    from one gather and the entries T_k of the _exp_table of E from one
    take, and the sum is one einsum over k for the values and one for the
    magnitudes, each scattered to (a + c, b + d); _settle floors each R.
    """
    out = [WeylSymbol._wrap(_EMPTY)] * len(products)
    live = [(s, poly._c, poly_left) for s, (poly, poly_left) in enumerate(products) if poly._c.size]
    if not live:
        return out
    flat, mult_x, mult_p, w, abs_w, entry, heights = _CACHE(
        _exp_star_plan, *((*c.shape, (c != 0).tobytes(), poly_left) for _, c, poly_left in live)
    )
    d = np.concatenate([c.ravel() for _, c, _ in live])[flat] * mult_x * mult_p
    t = _exp_table(exponent._c, heights.tolist())[entry]
    values = _scatter(np.einsum("sk,skab,skcd->sabcd", w, d, t))
    mags = _scatter(np.einsum("sk,skab,skcd->sabcd", abs_w, np.abs(d), np.abs(t)))
    for (s, _, _), v, m in zip(live, values, mags):
        out[s] = _settle(v, m)
    return out


def intertwining_residual(left, exponent, right):
    """The polynomial R with left * e^E - e^E * right = R e^E, for
    polynomials left and right and E = exponent.

    R is the difference of the two products' polynomial parts, with the
    floors of WeylSymbol subtraction.  The two products run as one batch
    and read one derivative table of e^E.
    """
    lhs, rhs = _star_with_exp([(left, True), (right, False)], exponent)
    return lhs - rhs


@_quiet
def star(f, g):
    """Moyal star product of two polynomial symbols."""
    return _settle(*_moyal(f._c, g._c))


@_quiet
def star_commutator(f, g):
    """f * g - g * f of two polynomial symbols, from the odd Moyal orders only."""
    return _settle(*_moyal(f._c, g._c, odd_only=True))


def compose_weyl(poly, x_symbol, p_symbol):
    """Substitute symbols for the canonical pair inside a Weyl polynomial.

    Each monomial p^m x^n of `poly` is replaced by the equal-weight
    average over all distinct star-product orderings of m copies of
    `p_symbol` and n copies of `x_symbol`, preserving the symmetrized
    operator ordering.
    """
    out = WeylSymbol.zero()
    for (nx, npow), c in poly.items():
        count = nx + npow
        if count == 0:
            out = out + c
            continue
        total = WeylSymbol.zero()
        n_orderings = math.comb(count, npow)
        for p_positions in combinations(range(count), npow):
            pset = set(p_positions)
            seq = [p_symbol if i in pset else x_symbol for i in range(count)]
            total = total + functools.reduce(star, seq)
        out = out + (c / n_orderings) * total
    return out


def _parity_x(c):
    """Coefficients with x -> -x: row dx times (-1)^dx."""
    return c * np.where(np.arange(c.shape[0]) % 2, -1.0, 1.0)[:, None]


def pt_transform(f):
    """Simultaneous parity flip of x and complex conjugation of coefficients."""
    return WeylSymbol._wrap(_parity_x(f._c).conj())


def is_pt_symmetric(f, tol=ZERO_THRESHOLD):
    return pt_transform(f).isclose(f, tol)


# -- oscillator-basis matrices ------------------------------------------------


@_quiet
def oscillator_matrix(f, n, scale=1.0):
    """The kept n x n block of the Weyl-ordered operator of f in the
    oscillator basis of scale s: x = s (a + a^+)/sqrt 2 and
    p = i (a^+ - a)/(sqrt 2 s), so that [x, p] = i.

    A monomial x^a p^b is McCoy's 2^-a sum_k C(a, k) x^k p^b x^(a-k)
    (N. H. McCoy, Proc. Natl. Acad. Sci. 18 (1932) 674).  Its products run
    on the scale-1 matrices in a basis deg + 2 states larger than the
    block, deg the total degree of f, so that no path of ladder steps
    between two kept states leaves the basis and the block is exact; the
    scale enters each monomial as the factor s^(a - b).  A complex (n, n)
    array; ValueError for a scale that is not finite and positive, and
    for an entry that leaves double precision.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"the oscillator scale must be finite and positive, got {scale!r}")
    dx, dp, c = f.arrays()
    size = n + int((dx + dp).max(initial=0)) + 2
    half = np.diag(np.sqrt(np.arange(1.0, size) / 2.0), 1)  # a / sqrt 2
    x_powers, d_powers = [np.eye(size)], [np.eye(size)]
    for _ in range(int(dx.max(initial=0))):
        x_powers.append(x_powers[-1] @ (half + half.T))
    for _ in range(int(dp.max(initial=0))):
        d_powers.append(d_powers[-1] @ (half.T - half))  # p = i s^-1 (a^+ - a)/sqrt 2
    out = np.zeros((n, n), dtype=complex)
    for a, b, coeff in zip(dx.tolist(), dp.tolist(), c.tolist()):
        if a == 0 or b == 0:
            block = (x_powers[a] if b == 0 else d_powers[b])[:n, :n]
        else:
            block = sum(
                math.comb(a, k) * (x_powers[k][:n] @ d_powers[b] @ x_powers[a - k][:, :n])
                for k in range(a + 1)
            ) / 2.0 ** a
        out += (coeff * _TURNS[b % 4] * np.float64(scale) ** (a - b)) * block
    if not np.isfinite(out).all():
        raise ValueError(f"an oscillator-basis entry leaves double precision at scale {scale:g}")
    return out
