"""Exact scalar arithmetic on a coordinate chart.

Every tensor component in this package is a multivariate rational function
over Q in the chart coordinates x1..xn.  The representation is canonical:
numerator and denominator are coprime polynomials with integer
coefficients, their joint integer content is 1 and the denominator's
leading coefficient under graded lex order is positive.  So equality of
values is plain structural equality.  The polynomials are `Poly`, sparse
dicts {exponent tuple: nonzero int}, with the heuristic gcd (`_heugcd`);
rational numbers appear only as `Fraction` scalars (constants, points,
values and coefficients handed in or out), and the rest of the package
sees one small, immutable scalar type.  Its string, which every report
prints, is written straight from the integer terms, in sympy's format
with `^` for powers.

The arithmetic keeps the pair reduced by Henrici's rules (Knuth, TAOCP
vol. 2, 4.5.1), which hold in any UFD.  For a/b * c/d only gcd(a, d) and
gcd(c, b) are taken, each skipped when one side is a constant.  For
a/b + c/d with b = d only gcd(a + c, b) is taken; otherwise g = gcd(b, d),
and when g is not 1 only t = a(d/g) + c(b/g) is reduced against g.  A
polynomial sum or product, or a product with a constant, takes no gcd at
all; `diff` takes at most two (see there).  What is left is to divide the
pair by its joint integer content and fix the sign.  One point
evaluator serves `evaluate` and `jet` (value, first and second partials):
it scales the point to integers over the lcm L of its denominators and
lifts every term to one common degree in `int`.

The package needs no general form calculus: a 1-form is a tuple of n
RationalExpr, and the one 2-form, beta = dt/(n+1), an antisymmetric
TensorField (`projconn.beta_form`).  The float cross-checks (geodesics,
parallel transport) compile entries with `compile_numeric` and share one
step-doubling Runge-Kutta driver, `_rk4_doubling`.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm, log10
from operator import add, sub

from .errors import (DegreeAboveCap, DigitsAboveCap, ParseError, PoleError,
                     PoleOnPath, StepUnderflow)

__all__ = [
    "Chart",
    "RationalExpr",
]

# Most decimal digits of an integer that the parser reads or builds:
# Python's default limit on int/str conversion, past which no report could
# print the expression.
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS


# ---------------------------------------------------------------------------
# sparse polynomials in Z[x1..xn] and their gcd
# ---------------------------------------------------------------------------

def _grlex(monom):
    return sum(monom), monom


class Poly(dict):
    """Polynomial in Z[x1..xn] as {exponent tuple: nonzero int}, never
    changed once built; zero is the empty dict.  An `int` operand of + or -
    is a constant, with the variables of the other operand."""

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))

    def _ground(self, c):
        if not self:
            raise ValueError("a nonzero constant needs a nonzero polynomial")
        return Poly({(0,) * len(next(iter(self))): c})

    def __neg__(self):
        return Poly({m: -c for m, c in self.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = self._ground(other) if other else Poly()
        elif not isinstance(other, Poly):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            c += get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, (int, Poly)) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly({m: c * other for m, c in self.items()} if other else ())
        if not isinstance(other, Poly):
            return NotImplemented
        out = Poly()
        get = out.get
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        for m in [m for m, c in out.items() if not c]:
            del out[m]
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        """self^k for an int k >= 1, by repeated squaring."""
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    @property
    def is_ground(self):
        return not self or (len(self) == 1 and not any(next(iter(self))))

    @property
    def LC(self):
        """Leading coefficient in grlex order; 0 for the zero polynomial."""
        return self[max(self, key=_grlex)] if self else 0

    def terms(self):
        """[(exponent tuple, coefficient)] in decreasing grlex order."""
        return sorted(self.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def content(self):
        return gcd(*self.values())

    def quo_ground(self, c):
        """Quotient by an int that divides every coefficient."""
        return Poly({m: v // c for m, v in self.items()})

    def diff(self, i):
        """Partial derivative by the variable of 0-based index i."""
        return Poly({m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                     for m, c in self.items() if m[i]})

    def exquo(self, other):
        """The quotient self / other; ArithmeticError unless it is exact."""
        q = _exact_quotient(self, other)
        if q is None:
            raise ArithmeticError("polynomial division is not exact")
        return q

    def gcd(self, other):
        return self.cofactors(other)[0]

    def cofactors(self, other):
        """(h, self / h, other / h) for h = gcd(self, other), up to sign."""
        f, g = self, other
        if not (f and g):
            h = f or g
            if not h:
                return h, h, h
            sign = -1 if h.LC < 0 else 1
            one = h._ground(sign)
            return (h * sign, one, Poly()) if f else (h * sign, Poly(), one)
        if len(f) == 1:
            return _gcd_monom(f, g)
        if len(g) == 1:
            h, cfg, cff = _gcd_monom(g, f)
            return h, cff, cfg
        return _heugcd(f, g)


def _exact_quotient(f, g):
    """f / g if g divides f in Z[x], else None.  Long division by leading
    terms, which stops at the first term that the leading term of g does
    not divide: in an exact division none is ever left over."""
    if len(g) == 1:
        [(mg, cg)] = g.items()
        q = Poly()
        for m, c in f.items():
            e = tuple(map(sub, m, mg))
            if c % cg or min(e) < 0:
                return None
            q[e] = c // cg
        return q
    lm = max(g, key=_grlex)
    lc = g[lm]
    rest = [(m, c) for m, c in g.items() if m != lm]
    p = dict(f)
    q = Poly()
    while p:
        m = max(p, key=_grlex)
        c = p.pop(m)
        e = tuple(map(sub, m, lm))
        if c % lc or min(e) < 0:
            return None
        k = q[e] = c // lc
        for mg, cg in rest:
            mm = tuple(map(add, e, mg))
            v = p.get(mm, 0) - k * cg
            if v:
                p[mm] = v
            else:
                del p[mm]
    return q


def _gcd_monom(f, g):
    """cofactors for a single-term f: the gcd is the componentwise minimum
    of the exponents times the gcd of the coefficients."""
    [(mf, cf)] = f.items()
    mh, ch = tuple(map(min, mf, *g)), gcd(cf, *g.values())
    return (Poly({mh: ch}), Poly({tuple(map(sub, mf, mh)): cf // ch}),
            Poly({tuple(map(sub, m, mh)): c // ch for m, c in g.items()}))


HEU_GCD_MAX = 6  # evaluation points tried, as in sympy/polys/heuristicgcd.py


def _heugcd(f, g):
    """(h, f / h, g / h) for nonzero f, g in Z[x], h = gcd(f, g) up to
    sign: a port of sympy's `heugcd` (Liao and Fateman 1995), which
    evaluates at a large integer, takes the gcd there and reads h back off
    its digits; ArithmeticError where it gives up."""
    common = gcd(f.content(), g.content())
    f, g = f.quo_ground(common), g.quo_ground(common)
    f_norm, g_norm = (max(map(abs, p.values())) for p in (f, g))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    for _ in range(HEU_GCD_MAX):
        ff, gg = _eval_first(f, x), _eval_first(g, x)
        if ff and gg:
            if isinstance(ff, int):
                h = gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = _heugcd(ff, gg)
            h = _interpolate(h, x)
            h = h.quo_ground(h.content())
            cff_ = _exact_quotient(f, h)
            if cff_ is not None:
                cfg_ = _exact_quotient(g, h)
                if cfg_ is not None:
                    return h * common, cff_, cfg_
            cff = _interpolate(cff, x)
            h = _exact_quotient(f, cff)
            if h is not None:
                cfg_ = _exact_quotient(g, h)
                if cfg_ is not None:
                    return h * common, cff, cfg_
            cfg = _interpolate(cfg, x)
            h = _exact_quotient(g, cfg)
            if h is not None:
                cff_ = _exact_quotient(f, h)
                if cff_ is not None:
                    return h * common, cff_, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise ArithmeticError("heuristic gcd failed")


def _eval_first(f, x):
    """f at x1 = x: an int for one variable, else a Poly in the rest."""
    power = {e: x ** e for e in {m[0] for m in f}}
    if len(next(iter(f))) == 1:
        return sum(c * power[m[0]] for m, c in f.items())
    out = Poly()
    get = out.get
    for m, c in f.items():
        rest = m[1:]
        out[rest] = get(rest, 0) + c * power[m[0]]
    for m in [m for m, c in out.items() if not c]:
        del out[m]
    return out


def _interpolate(h, x):
    """The polynomial whose coefficient of x1^i is the i-th balanced digit
    in base x of h (an int, or a Poly in the remaining variables), with
    its leading coefficient made positive."""
    out = Poly()
    half = x // 2
    for rest, c in (h.items() if isinstance(h, Poly) else [((), h)]):
        i = 0
        while c:
            d = c % x
            if d > half:
                d -= x
            c = (c - d) // x
            if d:
                out[(i,) + rest] = d
            i += 1
    return -out if out.LC < 0 else out


# ---------------------------------------------------------------------------
# Henrici arithmetic on coprime pairs (numer, denom) in Z[x1..xn]
# ---------------------------------------------------------------------------

def _reduced(chart, num, den):
    """The canonical fraction num/den, for num and den in Z[x] with no
    common factor of positive degree: divides out the joint integer content
    and makes the leading coefficient of den (grlex) positive."""
    if not num:
        return chart.zero
    content = gcd(*num.values(), *den.values())
    if den.LC < 0:
        content = -content
    if content == 1:
        return RationalExpr(chart, num, den)
    return RationalExpr(chart, num.quo_ground(content), den.quo_ground(content))


def _cancelled(chart, num, den):
    """The RationalExpr num/den for any num and nonzero den in Z[x]: one
    gcd cancellation."""
    if not num:
        return chart.zero
    _, num, den = num.cofactors(den)
    return _reduced(chart, num, den)


def _frac_add(chart, a, b, c, d):
    """a/b + c/d for canonical pairs (Henrici): a gcd only of the
    denominators, and of the new numerator with their common factor."""
    if not c:
        return RationalExpr(chart, a, b)
    if not a:
        return RationalExpr(chart, c, d)
    if b == d:
        t = a + c
        if t and not b.is_ground:
            _, t, b = t.cofactors(b)
        return _reduced(chart, t, b)
    if not (b.is_ground or d.is_ground):
        h, b1, d1 = b.cofactors(d)
        if not h.is_ground:
            t = a * d1 + c * b1
            if not t:
                return chart.zero
            _, t, h = t.cofactors(h)
            return _reduced(chart, t, b1 * d1 * h)
    return _reduced(chart, a * d + c * b, b * d)


def _frac_mul(chart, a, b, c, d):
    """(a/b) * (c/d) for coprime pairs (Henrici): cancel a against d and c
    against b, skipping a gcd whenever one side is a constant."""
    if not a or not c:
        return chart.zero
    if not (a.is_ground or d.is_ground):
        _, a, d = a.cofactors(d)
    if not (c.is_ground or b.is_ground):
        _, c, b = c.cofactors(b)
    return _reduced(chart, a * c, b * d)


def _powers(x, top):
    table = [1]
    for _ in range(top):
        table.append(table[-1] * x)
    return table


def _scaled_point(point, monoms):
    """Power tables for evaluating polynomials with the exponent tuples
    `monoms` at `point` = X / L, where L is the lcm of the coordinate
    denominators and X is integer: per coordinate X_k^0..X_k^top, and
    L^0..L^deg for the largest total degree deg of the monomials."""
    scale = lcm(*[v.denominator for v in point])
    powers = [_powers(v.numerator * (scale // v.denominator), top)
              for v, top in zip(point, map(max, zip(*monoms)))]
    return powers, _powers(scale, max(map(sum, monoms)))


def _scaled_value(terms, powers, lpow, order=0):
    """(s, ds, hs) with p(X / L) = s / L^deg for the polynomial p given by
    its term dict {exponent tuple: int}, where deg = len(lpow) - 1.  With
    `order` >= 1, ds[k] / L^deg is the k-th first partial of p at the
    point, and with `order` 2, hs[k][l] / L^deg is the second partial
    d_k d_l p; what is not asked for is None."""
    deg = len(lpow) - 1
    n = len(powers)
    s = 0
    ds = [0] * n if order else None
    hs = [[0] * n for _ in range(n)] if order > 1 else None
    for exps, coeff in terms.items():
        t = coeff
        k = deg
        for table, e in zip(powers, exps):
            if e:
                t *= table[e]
                k -= e
        s += t * lpow[k]
        if order and k < deg:
            # d/dx_i of x^e lifted to L^deg: e_i X^(e - 1_i) L^(k + 1)
            lift = coeff * lpow[k + 1]
            for i, e in enumerate(exps):
                if e:
                    g = lift * e * powers[i][e - 1]
                    for j, (table, f) in enumerate(zip(powers, exps)):
                        if f and j != i:
                            g *= table[f]
                    ds[i] += g
        if order > 1 and k + 1 < deg:
            # d_i d_j x^e lifted to L^deg:
            # e_i (e_j - [i = j]) X^(e - 1_i - 1_j) L^(k + 2)
            lift = coeff * lpow[k + 2]
            for i in range(n):
                for j in range(i, n):
                    low = list(exps)
                    low[i] -= 1
                    low[j] -= 1
                    if low[i] < 0 or low[j] < 0:
                        continue
                    h = lift * exps[i] * (exps[j] - (i == j))
                    for table, e in zip(powers, low):
                        if e:
                            h *= table[e]
                    hs[i][j] += h
    if hs is not None:
        for i in range(n):
            for j in range(i):
                hs[i][j] = hs[j][i]
    return s, ds, hs


class Chart:
    """Coordinate chart of dimension n with variables x1..xn.

    Instances are cached per dimension so scalars from independent call
    sites share one chart and interoperate.
    """

    _cache = {}

    def __new__(cls, dim):
        if dim < 1:
            raise ValueError("chart dimension must be at least 1")
        if dim in cls._cache:
            return cls._cache[dim]
        self = super().__new__(cls)
        self.dim = dim
        self._one = one = Poly({(0,) * dim: 1})
        self.zero = RationalExpr(self, Poly(), one)
        self.one = RationalExpr(self, one, one)
        self._gens = tuple(
            RationalExpr(self, Poly({tuple(int(i == k) for i in range(dim)): 1}),
                         one) for k in range(dim))
        self._names = tuple(f"x{k}" for k in range(1, dim + 1))
        cls._cache[dim] = self
        return self

    def var(self, k):
        """Coordinate x^k, 1-based."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"coordinate index {k} out of range 1..{self.dim}")
        return self._gens[k - 1]

    @property
    def vars(self):
        return self._gens

    def const(self, value):
        q = Fraction(value)
        return RationalExpr(self, self._one * q.numerator,
                            self._one * q.denominator)

    def parse(self, text, max_degree=None, names=None):
        """The expression `text`, whose k-th coordinate is written
        `names[k - 1]` (x1..xn by default); any other name is a
        ParseError.  With `max_degree`, DegreeAboveCap as soon as a power,
        product, quotient or sum as written would have a numerator or
        denominator of higher total degree, before it is expanded.  An
        integer of more than MAX_DIGITS digits, written or built, is a
        DigitsAboveCap, and a power is refused before it is expanded."""
        coords = dict(zip(names or self._names, self._gens))
        return _Parser(self, coords, _tokenize(text), max_degree).parse()

    def from_coeff_dict(self, coeffs):
        """Polynomial from {exponent tuple: rational coefficient}; the
        coefficient denominators are cleared into an integer denominator."""
        d = {tuple(e): Fraction(c) for e, c in coeffs.items()}
        scale = lcm(*[c.denominator for c in d.values()])
        num = Poly({e: c.numerator * (scale // c.denominator)
                    for e, c in d.items() if c})
        return _reduced(self, num, self._one * scale)

    def __repr__(self):
        return f"Chart(dim={self.dim})"


class RationalExpr:
    """Immutable exact rational function on a chart: the canonical pair
    (num, den) of `Poly`."""

    __slots__ = ("chart", "num", "den")

    def __init__(self, chart, num, den):
        self.chart = chart
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, RationalExpr):
            if other.chart is not self.chart:
                raise ValueError("operands live on different charts")
            return other
        if isinstance(other, (int, Fraction, str)):
            return self.chart.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _frac_add(self.chart, self.num, self.den, o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _frac_add(self.chart, self.num, self.den, -o.num, o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _frac_add(self.chart, o.num, o.den, -self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _frac_mul(self.chart, self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero expression")
        return _frac_mul(self.chart, self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.num:
            raise ZeroDivisionError("division by the zero expression")
        return _frac_mul(self.chart, o.num, o.den, self.den, self.num)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0 and not self.num:
            raise ZeroDivisionError("division by the zero expression")
        if k == 0:
            return self.chart.one
        num, den = self.num ** abs(k), self.den ** abs(k)
        if k < 0:
            num, den = den, num
        return _reduced(self.chart, num, den)

    def __neg__(self):
        return RationalExpr(self.chart, -self.num, self.den)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.chart.const(other)
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return (self.chart is other.chart and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.chart.dim, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return self.num.is_ground and self.den.is_ground

    def is_polynomial(self):
        """True when the canonical denominator is a constant."""
        return self.den.is_ground

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("expression is not constant")
        return Fraction(self.num.LC, self.den.LC)

    @property
    def numerator(self):
        return RationalExpr(self.chart, self.num, self.chart._one)

    @property
    def denominator(self):
        return RationalExpr(self.chart, self.den, self.chart._one)

    def diff(self, k):
        """Exact partial derivative with respect to x^k (1-based).

        d(a/b) = t / b^2 with t = a'b - ab'.  A factor p^m of b that
        involves x^k divides t exactly m - 1 times (a, b coprime), so
        h = gcd(t, b) cancels it; a factor free of x^k is in h m times and
        may divide t / h again, which one more gcd against h removes.
        """
        if not 1 <= k <= self.chart.dim:
            raise ValueError(f"coordinate index {k} out of range 1..{self.chart.dim}")
        a, b = self.num, self.den
        if b.is_ground:
            return _reduced(self.chart, a.diff(k - 1), b)
        t = a.diff(k - 1) * b - a * b.diff(k - 1)
        if not t:
            return self.chart.zero
        h, t, b1 = t.cofactors(b)
        if h.is_ground:
            return _reduced(self.chart, t, b1 * b)
        _, t, h = t.cofactors(h)
        return _reduced(self.chart, t, b1 * b1 * h)

    def _tables(self, point):
        """Power tables of `point` for the numerator and denominator."""
        if len(point) != self.chart.dim:
            raise ValueError(f"point must have {self.chart.dim} coordinates")
        vals = [v if isinstance(v, (int, Fraction)) else Fraction(v)
                for v in point]
        return _scaled_point(vals, [*self.num, *self.den])

    def evaluate(self, point):
        """Exact value at a rational point; PoleError if the denominator vanishes."""
        powers, lpow = self._tables(point)
        num, _, _ = _scaled_value(self.num, powers, lpow)
        den, _, _ = _scaled_value(self.den, powers, lpow)
        if not den:
            raise PoleError(f"denominator vanishes at {tuple(point)}")
        return Fraction(num, den)

    def jet(self, point, hessian=False):
        """Exact value and first partials [d_1, .., d_n] at a rational point,
        by the quotient rule on the integer sums; with `hessian`, also the
        second partials [[d_k d_l]] as a third item.  PoleError if the
        denominator vanishes."""
        powers, lpow = self._tables(point)
        order = 2 if hessian else 1
        num, dnum, hnum = _scaled_value(self.num, powers, lpow, order)
        den, dden, hden = _scaled_value(self.den, powers, lpow, order)
        if not den:
            raise PoleError(f"denominator vanishes at {tuple(point)}")
        # (N/D)' = (N'D - ND') / D^2; every sum is over the same L^deg
        scale = den * den
        value = Fraction(num, den)
        grad = [Fraction(dn * den - num * dd, scale)
                for dn, dd in zip(dnum, dden)]
        if not hessian:
            return value, grad
        # (N/D)_kl = (N_kl D^2 - (N_k D_l + N_l D_k) D - N D_kl D
        #             + 2 N D_k D_l) / D^3
        scale *= den
        hess = [[Fraction((hn * den * den
                           - (dnum[k] * dden[l] + dnum[l] * dden[k]) * den
                           - num * hd * den
                           + 2 * num * dden[k] * dden[l]), scale)
                 for l, (hn, hd) in enumerate(zip(hrow_n, hrow_d))]
                for k, (hrow_n, hrow_d) in enumerate(zip(hnum, hden))]
        return value, grad, hess

    def __str__(self):
        """The fraction as sympy's printer writes it, with ^ for powers:
        `num/den`, the numerator in parentheses when it has more than one
        term and the denominator unless it is a constant or a bare
        variable."""
        return self.to_str(self.chart._names)

    def to_str(self, names):
        """str() with coordinate k written `names[k - 1]`, so that
        `chart.parse(e.to_str(names), names=names) == e`."""
        num, den = self.num, self.den
        text = _poly_str(num, names)
        if len(den) == 1:
            [(exps, coeff)] = den.items()
            constant = not any(exps)
            if constant and coeff == 1:
                return text
            bare = constant or (coeff == 1 and sum(exps) == 1)
        else:
            bare = False
        if len(num) > 1:
            text = f"({text})"
        under = _poly_str(den, names)
        return f"{text}/{under}" if bare else f"{text}/({under})"

    def __repr__(self):
        return f"RationalExpr({self})"


def _poly_str(poly, names):
    """The polynomial `poly` in Z[x] as sympy's printer writes it, with ^
    for powers: terms in decreasing grlex order, joined by ` + ` and ` - `
    with a leading `-`; a non-constant term leaves off a unit coefficient
    and joins its factors with `*`."""
    if not poly:
        return "0"
    parts = []
    for exps, coeff in poly.terms():
        parts.append(" - " if coeff < 0 else " + ")
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, exps) if e]
        if not factors or abs(coeff) != 1:
            factors.insert(0, str(abs(coeff)))
        parts.append("*".join(factors))
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


def compile_numeric(expr):
    """RationalExpr -> fast float callable raising PoleError on zero denominators."""
    num = [(exps, float(c)) for exps, c in expr.num.terms()]
    den = [(exps, float(c)) for exps, c in expr.den.terms()]

    def ev_terms(terms, x):
        total = 0.0
        for exps, c in terms:
            t = c
            for e, v in zip(exps, x):
                if e == 1:
                    t *= v
                elif e:
                    t *= v ** e
            total += t
        return total

    def fn(x):
        d = ev_terms(den, x)
        if d == 0.0:
            raise PoleError(f"denominator vanishes near {tuple(x)}")
        return ev_terms(num, x) / d

    return fn


def _compile_nonzero(entries):
    """Nested lists of RationalExpr -> the same nesting of `compile_numeric`
    callables, with None for the zero entries."""
    if isinstance(entries, RationalExpr):
        return None if entries.is_zero() else compile_numeric(entries)
    return [_compile_nonzero(e) for e in entries]


def _rk4_step(rhs, t, y, h):
    """One classical fourth-order Runge-Kutta step of y' = rhs(t, y) on a
    list of floats."""
    k1 = rhs(t, y)
    s2 = [a + h / 2 * b for a, b in zip(y, k1)]
    k2 = rhs(t + h / 2, s2)
    s3 = [a + h / 2 * b for a, b in zip(y, k2)]
    k3 = rhs(t + h / 2, s3)
    s4 = [a + h * b for a, b in zip(y, k3)]
    k4 = rhs(t + h, s4)
    return [a + h / 6 * (p + 2 * q + 2 * r + s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)]


def _rk4_doubling(rhs, y0, steps, tol, floor, stuck, trace=False):
    """y' = rhs(t, y), y(0) = y0, solved up to t = 1 by `_rk4_step` with
    step doubling: a pass of `steps` equal steps, then passes of twice as
    many, until two successive passes agree at t = 1 to
    tol * max(floor, max |y|).  Returns y(1) of the accepted pass and,
    with `trace`, that pass as [(t, y)], (0.0, y0) first (else None).  A
    pole met by any pass raises PoleOnPath; an unaccepted pass past
    1 << 18 steps raises StepUnderflow with the message
    stuck.format(steps=..., err=...)."""
    def run(steps):
        h = 1.0 / steps
        y, path = y0, [(0.0, y0)] if trace else None
        for k in range(steps):
            y = _rk4_step(rhs, k * h, y, h)
            if trace:
                path.append(((k + 1) * h, y))
        return y, path

    try:
        prev, _ = run(steps)
        while True:
            steps *= 2
            cur, path = run(steps)
            err = max(abs(a - b) for a, b in zip(cur, prev))
            if err <= tol * max(floor, max(abs(v) for v in cur)):
                return cur, path
            if steps > 1 << 18:
                raise StepUnderflow(stuck.format(steps=steps, err=err))
            prev = cur
    except PoleError as exc:
        raise PoleOnPath(str(exc)) from exc


# ---------------------------------------------------------------------------
# expression parser: literals, coordinate names, + - * / ^, parentheses
# ---------------------------------------------------------------------------

def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isidentifier():  # names are identifiers, as spec variables are
            j = i + 1
            while j < len(text) and ("_" + text[j]).isidentifier():
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    """Pratt parser for the chart expression grammar."""

    def __init__(self, chart, coords, tokens, max_degree=None):
        self.chart = chart
        self.coords = coords
        self.tokens = tokens
        self.pos = 0
        self.max_degree = max_degree

    def cap(self, num_degree, den_degree, line, col):
        """Refuse a result whose numerator or denominator would have a
        total degree above the cap; the bounds are exact for polynomials."""
        degree = max(num_degree, den_degree)
        if self.max_degree is not None and degree > self.max_degree:
            if degree >= _TOO_LONG:  # too long to name in the message
                raise DigitsAboveCap(MAX_DIGITS, line, col)
            raise DegreeAboveCap(degree, self.max_degree, line, col)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
        # literals and powers are refused as they are read, so each operand
        # of a sum, product or quotient has at most MAX_DIGITS digits and
        # the work up to here is bounded by the length of the text
        if any(not -_TOO_LONG < c < _TOO_LONG
               for p in (e.num, e.den) for c in p.values()):
            raise DigitsAboveCap(MAX_DIGITS, tok[2], tok[3])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, line, col = self.advance()
            rhs = self.term()
            if self.max_degree is not None:
                # a/b + c/d lies over b when b = d, else over b d
                (an, ad), (bn, bd) = _degrees(e), _degrees(rhs)
                if e.den == rhs.den:
                    self.cap(max(an, bn), ad, line, col)
                else:
                    self.cap(max(an + bd, bn + ad), ad + bd, line, col)
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, line, col = self.advance()
            rhs = self.unary()
            if self.max_degree is not None:
                (an, ad), (bn, bd) = _degrees(e), _degrees(rhs)
                if op == "*":
                    self.cap(an + bn, ad + bd, line, col)
                else:
                    self.cap(an + bd, ad + bn, line, col)
            if op == "*":
                e = e * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", line, col)
                e = e / rhs
        return e

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return -self.unary()
        if tok[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, line, col = self.advance()
            k = self.int_exponent()
            if k <= 0 and base.is_zero():
                raise ParseError("division by zero" if k else "0^0 is undefined",
                                 line, col)
            if self.max_degree is not None:
                self.cap(*(abs(k) * v for v in _degrees(base)), line, col)
            # the grlex-first and -last coefficients of p^k are those of p
            # to the k, so these bound the result from below (an int and a
            # float compare exactly, so no k overflows)
            if any(abs(c) > 1 and abs(k) >= MAX_DIGITS / log10(abs(c))
                   for p in (base.num, base.den) if p
                   for c in (p[max(p, key=_grlex)], p[min(p, key=_grlex)])):
                raise DigitsAboveCap(MAX_DIGITS, line, col)
            return base ** k
        return base

    def int_exponent(self):
        tok = self.peek()
        sign = 1
        if tok[0] in ("+", "-"):
            self.advance()
            sign = -1 if tok[0] == "-" else 1
            tok = self.peek()
        if tok[0] != "int":
            raise ParseError("exponent must be an integer", tok[2], tok[3])
        self.advance()
        return sign * self.integer(tok)

    def integer(self, tok):
        """The int of an integer token, refused past MAX_DIGITS digits."""
        if len(tok[1]) > MAX_DIGITS:
            raise DigitsAboveCap(MAX_DIGITS, tok[2], tok[3])
        return int(tok[1])

    def atom(self):
        tok = self.advance()
        kind, text, line, col = tok
        if kind == "int":
            return self.chart.const(self.integer(tok))
        if kind == "name":
            if text in self.coords:
                return self.coords[text]
            raise ParseError(f"unknown name {text!r}", line, col)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {text!r}", line, col)


def _degrees(e):
    """Total degrees of the numerator and the denominator of e."""
    return (_tdeg(e.num) if e.num else 0), _tdeg(e.den)


# ---------------------------------------------------------------------------
# common denominators and total degrees in Z[x]
# ---------------------------------------------------------------------------

def _common_denominator(exprs):
    """lcm in Z[x], up to sign, of the canonical denominators of a nonempty
    sequence of RationalExpr, so that each divides it exactly.  Each
    distinct non-constant denominator is folded in once, in order of first
    appearance, with one gcd after the first; a constant denominator takes
    no gcd: the integer lcm of those is folded in once, at the end."""
    den = exprs[0].chart._one
    scale = 1
    distinct = {}
    for e in exprs:
        d = e.den
        if d.is_ground:
            scale = lcm(scale, d.LC)
        else:
            distinct[d] = None
    for d in distinct:
        den = d if den.is_ground else den.exquo(den.gcd(d)) * d
    return den * (scale // gcd(scale, den.content()))


def _tdeg(poly):
    """Total degree of a nonzero polynomial."""
    return max(map(sum, poly))
