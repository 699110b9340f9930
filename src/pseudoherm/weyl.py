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

Symbols are immutable; every operation returns a new canonicalized
instance.  Canonicalization drops terms whose magnitude is below
ZERO_THRESHOLD relative to the largest coefficient, which leaves exact
integer-coefficient cancellations at exact zero.  A NaN or infinite
coefficient raises ValueError.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations

ZERO_THRESHOLD = 1e-12

_VAR_X = "x"
_VAR_P = "p"


def _canonicalize(raw):
    terms = {}
    for key, coeff in raw.items():
        c = complex(coeff)
        if c != 0:
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} at degrees {key}")
            terms[key] = terms.get(key, 0j) + c
    if not terms:
        return {}
    scale = max(abs(c) for c in terms.values())
    cutoff = ZERO_THRESHOLD * scale
    return {k: c for k, c in terms.items() if abs(c) > cutoff}


class WeylSymbol:
    """Polynomial phase-space symbol, terms keyed by (deg_x, deg_p)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        raw = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for key, coeff in items:
                dx, dp = key
                if dx < 0 or dp < 0 or dx != int(dx) or dp != int(dp):
                    raise ValueError(f"invalid degree key {key!r}")
                raw[(int(dx), int(dp))] = raw.get((int(dx), int(dp)), 0j) + complex(coeff)
        self._terms = _canonicalize(raw)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1.0})

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

    @property
    def terms(self):
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coefficient(self, deg_x, deg_p):
        return self._terms.get((deg_x, deg_p), 0j)

    def total_degree(self):
        if not self._terms:
            return 0
        return max(dx + dp for dx, dp in self._terms)

    def max_abs(self):
        if not self._terms:
            return 0.0
        return max(abs(c) for c in self._terms.values())

    def is_zero(self, tol=0.0):
        if not self._terms:
            return True
        return self.max_abs() <= tol

    def is_hermitian(self, tol=ZERO_THRESHOLD):
        scale = max(1.0, self.max_abs())
        return all(abs(c.imag) <= tol * scale for c in self._terms.values())

    def isclose(self, other, tol=ZERO_THRESHOLD):
        diff = self - other
        scale = max(1.0, self.max_abs(), other.max_abs())
        return diff.max_abs() <= tol * scale

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = WeylSymbol.constant(other)
        if not isinstance(other, WeylSymbol):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0j) + c
        return WeylSymbol(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, WeylSymbol) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return WeylSymbol({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        """Pointwise (commutative) product; use star() for operator products."""
        if isinstance(other, (int, float, complex)):
            return WeylSymbol({k: c * other for k, c in self._terms.items()})
        if isinstance(other, WeylSymbol):
            out = {}
            for (ax, ap), ca in self._terms.items():
                for (bx, bp), cb in other._terms.items():
                    k = (ax + bx, ap + bp)
                    out[k] = out.get(k, 0j) + ca * cb
            return WeylSymbol(out)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / complex(scalar))

    def __eq__(self, other):
        if not isinstance(other, WeylSymbol):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    # -- calculus ----------------------------------------------------------

    def diff_x(self, order=1):
        out = self._terms
        for _ in range(order):
            nxt = {}
            for (dx, dp), c in out.items():
                if dx > 0:
                    nxt[(dx - 1, dp)] = nxt.get((dx - 1, dp), 0j) + c * dx
            out = nxt
        return WeylSymbol(out)

    def diff_p(self, order=1):
        out = self._terms
        for _ in range(order):
            nxt = {}
            for (dx, dp), c in out.items():
                if dp > 0:
                    nxt[(dx, dp - 1)] = nxt.get((dx, dp - 1), 0j) + c * dp
            out = nxt
        return WeylSymbol(out)

    def shift_x(self, a):
        """Substitute x -> x + a."""
        a = complex(a)
        out = {}
        for (dx, dp), c in self._terms.items():
            for j in range(dx + 1):
                k = (j, dp)
                out[k] = out.get(k, 0j) + c * math.comb(dx, j) * a ** (dx - j)
        return WeylSymbol(out)

    def shift_p(self, b):
        """Substitute p -> p + b."""
        b = complex(b)
        out = {}
        for (dx, dp), c in self._terms.items():
            for j in range(dp + 1):
                k = (dx, j)
                out[k] = out.get(k, 0j) + c * math.comb(dp, j) * b ** (dp - j)
        return WeylSymbol(out)

    def conjugate(self):
        """Hermitian conjugate: complex-conjugate coefficients.

        Weyl-symmetrized monomials in the self-adjoint pair (x, p) are
        self-adjoint, so conjugating an operator only conjugates its
        symbol coefficients.
        """
        return WeylSymbol({k: c.conjugate() for k, c in self._terms.items()})

    def evaluate(self, x, p):
        result = 0j
        for (dx, dp), c in self._terms.items():
            result = result + c * x ** dx * p ** dp
        return result

    # -- serialization -----------------------------------------------------

    def to_text(self):
        """One term per line: 'deg_x deg_p re im', sorted by degrees."""
        lines = []
        for (dx, dp) in sorted(self._terms):
            c = self._terms[(dx, dp)]
            lines.append(f"{dx} {dp} {c.real:.17g} {c.imag:.17g}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text):
        terms = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].replace(",", " ").strip()
            if not body:
                continue
            fields = body.split()
            if fields[0] == "deg_x":
                # tolerate a column-header row so CSV output re-parses
                continue
            if len(fields) != 4:
                raise ValueError(f"line {lineno}: expected 'deg_x deg_p re im', got {line!r}")
            dx, dp = int(fields[0]), int(fields[1])
            c = complex(float(fields[2]), float(fields[3]))
            terms[(dx, dp)] = terms.get((dx, dp), 0j) + c
        return cls(terms)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (dx, dp) in sorted(self._terms):
            c = self._terms[(dx, dp)]
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


class ExpPolySymbol:
    """Sum of terms (polynomial prefactor) * exp(polynomial exponent).

    Closed under differentiation, multiplication by a WeylSymbol, and
    star products with a WeylSymbol on either side.  Canonical form
    merges terms with coinciding exponents and drops zero prefactors.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms):
        merged = []
        for prefactor, exponent in terms:
            if isinstance(prefactor, (int, float, complex)):
                prefactor = WeylSymbol.constant(prefactor)
            if not isinstance(prefactor, WeylSymbol) or not isinstance(exponent, WeylSymbol):
                raise TypeError("ExpPolySymbol terms are (WeylSymbol, WeylSymbol) pairs")
            if prefactor.is_zero():
                continue
            for entry in merged:
                if entry[1].isclose(exponent):
                    entry[0] = entry[0] + prefactor
                    break
            else:
                merged.append([prefactor, exponent])
        self._terms = tuple((p, e) for p, e in merged if not p.is_zero())

    @classmethod
    def exp(cls, exponent, prefactor=1.0):
        return cls([(prefactor, exponent)])

    @property
    def terms(self):
        return list(self._terms)

    def max_abs_coeff(self):
        if not self._terms:
            return 0.0
        return max(p.max_abs() for p, _ in self._terms)

    def is_zero(self, tol=0.0):
        return self.max_abs_coeff() <= tol

    def __add__(self, other):
        if isinstance(other, ExpPolySymbol):
            return ExpPolySymbol(list(self._terms) + list(other._terms))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ExpPolySymbol):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return ExpPolySymbol([(-p, e) for p, e in self._terms])

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, WeylSymbol)):
            return ExpPolySymbol([(p * other, e) for p, e in self._terms])
        return NotImplemented

    __rmul__ = __mul__

    def diff_x(self, order=1):
        terms = list(self._terms)
        for _ in range(order):
            terms = [(p.diff_x() + p * e.diff_x(), e) for p, e in terms]
        return ExpPolySymbol(terms)

    def diff_p(self, order=1):
        terms = list(self._terms)
        for _ in range(order):
            terms = [(p.diff_p() + p * e.diff_p(), e) for p, e in terms]
        return ExpPolySymbol(terms)

    def evaluate(self, x, p):
        total = 0j
        for pref, expo in self._terms:
            total += pref.evaluate(x, p) * cmath.exp(expo.evaluate(x, p))
        return total

    def __str__(self):
        if not self._terms:
            return "0"
        return " + ".join(f"({p})*exp({e})" for p, e in self._terms)

    def __repr__(self):
        return f"ExpPolySymbol({self})"


# -- module-level operations ----------------------------------------------


def hermitian_conjugate(f):
    return f.conjugate()


def _deriv_table(sym, smax):
    tab = {(0, 0): sym}
    for total in range(1, smax + 1):
        for a in range(total + 1):
            b = total - a
            if b > 0:
                tab[(a, b)] = tab[(a, b - 1)].diff_p()
            else:
                tab[(a, b)] = tab[(a - 1, 0)].diff_x()
    return tab


def _star_poly_poly(f, g):
    smax = min(f.total_degree(), g.total_degree())
    ftab = _deriv_table(f, smax)
    gtab = _deriv_table(g, smax)
    out = {}
    for s in range(smax + 1):
        base = (-0.5j) ** s / math.factorial(s)
        for t in range(s + 1):
            df = ftab[(t, s - t)]
            if df.is_zero():
                continue
            dg = gtab[(s - t, t)]
            if dg.is_zero():
                continue
            w = base * ((-1) ** t) * math.comb(s, t)
            for (ax, ap), ca in df.items():
                for (bx, bp), cb in dg.items():
                    k = (ax + bx, ap + bp)
                    out[k] = out.get(k, 0j) + w * ca * cb
    return WeylSymbol(out)


def _exp_deriv_table(prefactor, exponent, smax):
    wx = exponent.diff_x()
    wp = exponent.diff_p()
    tab = {(0, 0): prefactor}
    for total in range(1, smax + 1):
        for a in range(total + 1):
            b = total - a
            if b > 0:
                q = tab[(a, b - 1)]
                tab[(a, b)] = q.diff_p() + q * wp
            else:
                q = tab[(a - 1, 0)]
                tab[(a, b)] = q.diff_x() + q * wx
    return tab


def _star_poly_exp(f, g):
    smax = f.total_degree()
    ftab = _deriv_table(f, smax)
    out_terms = []
    for prefactor, exponent in g.terms:
        gtab = _exp_deriv_table(prefactor, exponent, smax)
        acc = WeylSymbol.zero()
        for s in range(smax + 1):
            base = (-0.5j) ** s / math.factorial(s)
            for t in range(s + 1):
                df = ftab[(t, s - t)]
                if df.is_zero():
                    continue
                w = base * ((-1) ** t) * math.comb(s, t)
                acc = acc + w * (df * gtab[(s - t, t)])
        out_terms.append((acc, exponent))
    return ExpPolySymbol(out_terms)


def _star_exp_poly(f, g):
    smax = g.total_degree()
    gtab = _deriv_table(g, smax)
    out_terms = []
    for prefactor, exponent in f.terms:
        ftab = _exp_deriv_table(prefactor, exponent, smax)
        acc = WeylSymbol.zero()
        for s in range(smax + 1):
            base = (-0.5j) ** s / math.factorial(s)
            for t in range(s + 1):
                dg = gtab[(s - t, t)]
                if dg.is_zero():
                    continue
                w = base * ((-1) ** t) * math.comb(s, t)
                acc = acc + w * (ftab[(t, s - t)] * dg)
        out_terms.append((acc, exponent))
    return ExpPolySymbol(out_terms)


def star(f, g):
    """Moyal star product.

    Polynomial times polynomial gives a WeylSymbol; a polynomial on
    either side of an exponential-times-polynomial value gives an
    ExpPolySymbol with the same exponent.  Star products of two
    exponential values are not supported.
    """
    f_exp = isinstance(f, ExpPolySymbol)
    g_exp = isinstance(g, ExpPolySymbol)
    if not f_exp and not g_exp:
        return _star_poly_poly(f, g)
    if f_exp and g_exp:
        raise TypeError("star product of two exponential symbols is not supported")
    if f_exp:
        return _star_exp_poly(f, g)
    return _star_poly_exp(f, g)


def star_commutator(f, g):
    a = star(f, g)
    b = star(g, f)
    return a - b


def compose_weyl(poly, x_symbol, p_symbol):
    """Substitute symbols for the canonical pair inside a Weyl polynomial.

    Each monomial p^m x^n of `poly` is replaced by the equal-weight
    average over all distinct star-product orderings of m copies of
    `p_symbol` and n copies of `x_symbol`, preserving the symmetrized
    operator ordering.
    """
    import functools

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


def pt_transform(f):
    """Simultaneous parity flip of x and complex conjugation of coefficients."""
    return WeylSymbol({(dx, dp): ((-1) ** dx) * c.conjugate() for (dx, dp), c in f.items()})


def is_pt_symmetric(f, tol=ZERO_THRESHOLD):
    return pt_transform(f).isclose(f, tol)


def fourier_swap(f):
    """Relabel (x, p) -> (-p, x), the symbol action of the Fourier transform.

    The map is linear symplectic, so Weyl quantization is covariant under
    it and the transformed symbol represents a unitarily equivalent
    (isospectral) operator.
    """
    out = {}
    for (dx, dp), c in f.items():
        out[(dp, dx)] = out.get((dp, dx), 0j) + c * (-1) ** dx
    return WeylSymbol(out)
