"""Truncated multivariate Taylor series over one integer denominator.

The jet solver and the reconstruction work in shifted coordinates
u = x - p.  A series is `Series(den, terms)`, the sum of terms[m] / den u^m
over exponent tuples m, truncated at a fixed total order: den is a positive
int and every numerator a nonzero int.  Each operation adds and multiplies
in `int` and reduces its result once (one gcd over den and all numerators),
so equal series compare equal and the zero series is falsy.  Fractions
appear only at the edges: points, scale factors and the coefficients of
`series_to_coeff_dict`.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from operator import add
from typing import NamedTuple

from .errors import PoleAtBasePoint
from .exprcore import _powers

__all__ = [
    "Series", "monomials_of_order", "series_add", "series_scale",
    "series_mul", "series_inverse", "poly_to_series", "rational_to_series",
    "series_to_coeff_dict",
]


class Series(NamedTuple):
    """sum over m of terms[m] / den * u^m, in lowest terms."""

    den: int
    terms: dict

    def __bool__(self):
        return bool(self.terms)


def _lowest(den, terms):
    """Series(den, terms) in lowest terms, for den > 0 and `terms` without
    zero numerators."""
    g = gcd(den, *terms.values())
    if g == 1:
        return Series(den, terms)
    return Series(den // g, {m: v // g for m, v in terms.items()})


def monomials_of_order(nvars, order):
    """All exponent tuples of exact total degree `order`."""
    out = []
    for bars in combinations_with_replacement(range(nvars), order):
        e = [0] * nvars
        for b in bars:
            e[b] += 1
        out.append(tuple(e))
    return out


def series_add(a, b):
    if not (a and b):
        return a or b
    (da, ta), (db, tb) = a, b
    g = gcd(da, db)
    out = {m: v * (db // g) for m, v in ta.items()}
    for m, v in tb.items():
        out[m] = out.get(m, 0) + v * (da // g)
    return _lowest(da * (db // g), {m: v for m, v in out.items() if v})


def series_scale(a, c):
    c = Fraction(c)
    terms = {m: v * c.numerator for m, v in a.terms.items()} if c else {}
    return _lowest(a.den * c.denominator, terms)


def series_mul(a, b, max_order):
    """Product truncated at total order max_order: one int convolution,
    reduced once."""
    (da, ta), (db, tb) = a, b
    if len(tb) < len(ta):
        ta, tb = tb, ta
    by_order = {}
    for kb, vb in tb.items():
        by_order.setdefault(sum(kb), []).append((kb, vb))
    buckets = sorted(by_order.items())
    out = {}
    get = out.get
    for ka, va in ta.items():
        room = max_order - sum(ka)
        for order, bucket in buckets:
            if order > room:
                break
            for kb, vb in bucket:
                key = tuple(map(add, ka, kb))
                out[key] = get(key, 0) + va * vb
    return _lowest(da * db, {k: v for k, v in out.items() if v})


def series_inverse(a, nvars, max_order):
    """Multiplicative inverse of a series with nonzero constant term.

    With f = a.terms and c = f_0, h_m = c^(|m|+1) (1/f)_m is an int: h_0 = 1
    and h_m = -sum over k != 0 of f_k c^(|k|-1) h_(m-k).  Each h_m is pushed
    on to the monomials it reaches once it is known, and 1/a has the
    numerators den h_m c^(max_order-|m|) over c^(max_order+1).
    """
    den, f = a
    zero = (0,) * nvars
    c = f.get(zero)
    if not c:
        raise ZeroDivisionError("series has no constant term")
    steps = sorted((sum(k), k, v * c ** (sum(k) - 1))
                   for k, v in f.items() if k != zero)
    cpow = _powers(c, max_order + 1)
    sign = 1 if cpow[-1] > 0 else -1
    levels = [{zero: 1}] + [{} for _ in range(max_order)]
    terms = {}
    for order, level in enumerate(levels):
        for m, h in level.items():
            if not h:
                continue
            terms[m] = sign * den * h * cpow[max_order - order]
            for step, k, fk in steps:
                if order + step > max_order:
                    break
                key = tuple(map(add, m, k))
                target = levels[order + step]
                target[key] = target.get(key, 0) - fk * h
    return _lowest(sign * cpow[-1], terms)


def poly_to_series(terms, point, max_order):
    """Taylor series of a polynomial at `point`, in u = x - p.

    `terms` is [(exponent tuple, int or Fraction coeff)].  With p = X / L
    for the lcm L of the point's denominators and d the top total degree,
    L^d x^e is the sum over k of L^(d-|e|) L^|k| u^k times the product of
    comb(e_i, k_i) X_i^(e_i-k_i): all in int, with L^|k| read off the
    monomial u^k at the end.  Where X_i = 0 the exponent e_i is copied.
    """
    terms = [(tuple(e), c) for e, c in terms if c]
    if not terms:
        return Series(1, {})
    pt = [Fraction(p) for p in point]
    scale = lcm(*(p.denominator for p in pt))
    xs = [p.numerator * (scale // p.denominator) for p in pt]
    q = lcm(*(c.denominator for _, c in terms))
    deg = max(sum(e) for e, _ in terms)
    lpow = _powers(scale, deg)
    shifts = {}
    out = {}
    for exps, c in terms:
        acc = [((), c.numerator * (q // c.denominator) * lpow[deg - sum(exps)],
                0)]
        for x, e in zip(xs, exps):
            shift = shifts.get((x, e))
            if shift is None:
                shift = shifts[x, e] = (
                    [(k, comb(e, k) * x ** (e - k)) for k in range(e + 1)]
                    if x and e else [(e, 1)])
            acc = [(key + (k,), v * ck, order + k) for key, v, order in acc
                   for k, ck in shift if order + k <= max_order]
        for key, v, _ in acc:
            out[key] = out.get(key, 0) + v
    return _lowest(q * lpow[deg], {m: v * lpow[sum(m)]
                                   for m, v in out.items() if v})


def rational_to_series(expr, point, max_order):
    """Taylor series of a RationalExpr at a rational point.

    Raises PoleAtBasePoint when the denominator vanishes there.  A
    polynomial (constant denominator) is only scaled, not inverted.
    """
    zero = (0,) * expr.chart.dim
    num = poly_to_series(expr.num.terms(), point, max_order)
    if expr.den.is_ground:
        c = expr.den.LC
        return num if c == 1 else series_scale(num, Fraction(1, c))
    den = poly_to_series(expr.den.terms(), point, max_order)
    if not den.terms.get(zero):
        raise PoleAtBasePoint(
            f"denominator vanishes at base point {tuple(point)}")
    if len(den.terms) == 1:
        return series_scale(num, Fraction(den.den, den.terms[zero]))
    return series_mul(num, series_inverse(den, len(zero), max_order),
                      max_order)


def series_to_coeff_dict(a, point):
    """Convert a series in u = x - p back to polynomial coefficients in x.

    Exact: the Taylor shift of the polynomial a(u) to the point -p, which
    keeps its total degree.  Used when a truncated solution is detected to
    be an actual polynomial.
    """
    den, terms = poly_to_series(list(a.terms.items()), [-v for v in point],
                                max(map(sum, a.terms), default=0))
    return {m: Fraction(v, den * a.den) for m, v in terms.items()}
