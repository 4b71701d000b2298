"""Reference truncated series: the Fraction-dict arithmetic that
`projmet.exactseries` used before it moved to one integer denominator per
series.

Kept verbatim as an independent oracle: a series is a plain dict
{exponent tuple: Fraction}, and every product term is one Fraction
multiply-add.  `as_fractions` reads a `projmet.exactseries.Series` in this
form, so results of the integer kernel compare with `==`.
"""

from fractions import Fraction
from math import comb

from projmet.errors import PoleAtBasePoint
from projmet.exactseries import monomials_of_order


def as_fractions(series):
    """{exponent tuple: Fraction} of a Series."""
    return {m: Fraction(v, series.den) for m, v in series.terms.items()}


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


def rational_to_series(expr, point, max_order):
    """Taylor series of a RationalExpr at a rational point.

    Raises PoleAtBasePoint when the denominator vanishes there.
    """
    nvars = expr.chart.dim
    zero = (0,) * nvars
    num = poly_to_series(expr.num.terms(), point, max_order)
    den = poly_to_series(expr.den.terms(), point, max_order)
    if not den.get(zero):
        raise PoleAtBasePoint(
            f"denominator vanishes at base point {tuple(point)}")
    if len(den) == 1:
        return series_scale(num, Fraction(1) / den[zero])
    return series_mul(num, series_inverse(den, nvars, max_order), max_order)
