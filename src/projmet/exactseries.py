"""Truncated multivariate Taylor series with exact rational coefficients.

The jet solver works in shifted coordinates u = x - p.  Series are plain
dicts {exponent tuple: Fraction}, truncated at a fixed total order; all
operations stay in Q so rank decisions downstream remain exact.  Values at
a rational point come from exprcore's integer point evaluator.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .errors import PoleAtBasePoint
from .exprcore import _scaled_point, _scaled_value

__all__ = [
    "monomials_of_order",
    "series_add",
    "series_scale",
    "series_mul",
    "series_inverse",
    "series_diff",
    "series_eval",
    "poly_to_series",
    "rational_to_series",
    "series_to_coeff_dict",
]


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
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, Fraction(0)) + v
        if w:
            out[k] = w
        elif k in out:
            del out[k]
    return out


def series_scale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def series_mul(a, b, max_order):
    if len(b) < len(a):
        a, b = b, a
    by_order = {}
    for kb, vb in b.items():
        by_order.setdefault(sum(kb), []).append((kb, vb))
    out = {}
    for ka, va in a.items():
        da = sum(ka)
        for order, bucket in by_order.items():
            if da + order > max_order:
                continue
            for kb, vb in bucket:
                key = tuple(x + y for x, y in zip(ka, kb))
                w = out.get(key, Fraction(0)) + va * vb
                if w:
                    out[key] = w
                elif key in out:
                    del out[key]
    return out


def series_inverse(a, nvars, max_order):
    """Multiplicative inverse of a series with nonzero constant term."""
    zero = (0,) * nvars
    c0 = a.get(zero, Fraction(0))
    if not c0:
        raise ZeroDivisionError("series has no constant term")
    inv0 = Fraction(1) / c0
    out = {zero: inv0}
    by_order = {}
    for k, v in a.items():
        if k == zero:
            continue
        by_order.setdefault(sum(k), []).append((k, v))
    for order in range(1, max_order + 1):
        for mono in monomials_of_order(nvars, order):
            s = Fraction(0)
            for d in range(1, order + 1):
                for k, v in by_order.get(d, ()):
                    rem = tuple(m - e for m, e in zip(mono, k))
                    if min(rem) < 0:
                        continue
                    w = out.get(rem)
                    if w:
                        s += v * w
            if s:
                out[mono] = -inv0 * s
    return out


def series_diff(a, var):
    """Partial derivative with respect to variable index (0-based)."""
    out = {}
    for k, v in a.items():
        e = k[var]
        if e == 0:
            continue
        key = k[:var] + (e - 1,) + k[var + 1:]
        out[key] = v * e
    return out


def series_eval(a, point):
    """Exact value at a rational point (coordinates of u), summed in int by
    the point evaluation kernel of exprcore."""
    if not a:
        return Fraction(0)
    powers, lpow = _scaled_point([Fraction(p) for p in point], a)
    s, q, _, _ = _scaled_value(a, powers, lpow)
    return Fraction(s, q * lpow[-1])


def _shift_powers(value, exponent, max_order):
    """(value + u)^exponent as [(power of u, coeff)] truncated."""
    top = min(exponent, max_order)
    out = []
    for k in range(top + 1):
        c = Fraction(comb(exponent, k)) * value ** (exponent - k)
        if c:
            out.append((k, c))
    return out


def poly_to_series(terms, point, max_order):
    """Taylor series of a polynomial at `point`, in u = x - p.

    `terms` is [(exponent tuple, Fraction coeff)]; `point` the base point.
    The expansion is exact (finite) up to the truncation order.
    """
    pt = [Fraction(p) for p in point]
    out = {}
    for exps, coeff in terms:
        acc = {(0,) * len(pt): coeff}
        for var, e in enumerate(exps):
            if e == 0:
                continue
            shifted = _shift_powers(pt[var], e, max_order)
            nxt = {}
            for key, v in acc.items():
                base_order = sum(key)
                for k, c in shifted:
                    if base_order + k > max_order:
                        continue
                    kk = key[:var] + (key[var] + k,) + key[var + 1:]
                    w = nxt.get(kk, Fraction(0)) + v * c
                    if w:
                        nxt[kk] = w
                    elif kk in nxt:
                        del nxt[kk]
            acc = nxt
        out = series_add(out, acc)
    return out


def rational_to_series(expr, point, max_order, reciprocals=None):
    """Taylor series of a RationalExpr at a rational point.

    Raises PoleAtBasePoint when the denominator vanishes there.  Callers
    expanding many entries pass one `reciprocals` dict: each distinct
    denominator is then expanded and inverted once.
    """
    nvars = expr.chart.dim
    zero = (0,) * nvars
    num = poly_to_series(expr.numer_terms(), point, max_order)
    key = tuple(expr.denom_terms())
    recip = None if reciprocals is None else reciprocals.get(key)
    if recip is None:
        den = poly_to_series(key, point, max_order)
        if not den.get(zero):
            raise PoleAtBasePoint(
                f"denominator vanishes at base point {tuple(point)}")
        recip = ({zero: Fraction(1) / den[zero]} if len(den) == 1
                 else series_inverse(den, nvars, max_order))
        if reciprocals is not None:
            reciprocals[key] = recip
    if len(recip) == 1:
        return series_scale(num, recip[zero])
    return series_mul(num, recip, max_order)


def series_to_coeff_dict(a, point):
    """Convert a series in u = x - p back to polynomial coefficients in x.

    Exact: the Taylor shift of the polynomial a(u) to the point -p, which
    keeps its total degree.  Used when a truncated solution is detected to
    be an actual polynomial.
    """
    return poly_to_series(list(a.items()), [-v for v in point],
                          max(map(sum, a), default=0))
