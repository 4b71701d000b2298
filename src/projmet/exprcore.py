"""Exact scalar arithmetic on a coordinate chart.

Every tensor component in this package is a multivariate rational function
over Q in the chart coordinates x1..xn.  The representation is canonical:
numerator and denominator are coprime polynomials with integer
coefficients, their joint integer content is 1 and the denominator's
leading coefficient under graded lex order is positive.  So equality of
values is plain structural equality.  The polynomials live in sympy's
sparse ring Q[x1..xn], which also supplies the polynomial gcd; the rest of
the package sees one small, immutable scalar type.

The arithmetic keeps the pair reduced by Henrici's rules (Knuth, TAOCP
vol. 2, 4.5.1), which hold in any UFD.  For a/b * c/d only gcd(a, d) and
gcd(c, b) are taken, each skipped when one side is a constant.  For
a/b + c/d with b = d only gcd(a + c, b) is taken; otherwise g = gcd(b, d),
and when g is not 1 only t = a(d/g) + c(b/g) is reduced against g.  A
polynomial sum or product, or a product with a constant, takes no gcd at
all.  What is left is to scale the pair by one rational number to the
canonical integer form.  Evaluation at a rational point scales the point
to integers over the lcm L of its denominators and sums each term times
the power of L that lifts it to the common degree, all in `int`.

Also provides low-degree differential forms, exterior differentiation, the
radial homotopy operator that trivialises closed polynomial forms on a
star-shaped chart, and closed-form potentials for exact rational 1-forms.
"""

from fractions import Fraction
from math import gcd, lcm

import sympy
from sympy import QQ, ZZ
from sympy.polys.fields import field as _frac_field

from .errors import NotClosed, NotPolynomial, ParseError, PoleError

__all__ = [
    "Chart",
    "RationalExpr",
    "DifferentialForm",
    "Potential",
    "exterior_derivative",
    "homotopy_potential",
    "potential_of_closed_1form",
]


def _to_qq(value):
    """Coerce int / Fraction / str / QQ element to a QQ element."""
    if isinstance(value, int):
        return QQ(value)
    if isinstance(value, Fraction):
        return QQ(value.numerator, value.denominator)
    if isinstance(value, str):
        f = Fraction(value)
        return QQ(f.numerator, f.denominator)
    return QQ.convert(value)


def to_fraction(value):
    """QQ element (or int/Fraction) -> Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(int(value.numerator), int(value.denominator))


# ---------------------------------------------------------------------------
# Henrici arithmetic on coprime pairs (numer, denom) in Q[x1..xn]
# ---------------------------------------------------------------------------

_mpq = QQ.dtype


def _reduced(field, num, den):
    """The canonical fraction num/den, for num and den coprime in Q[x].

    Only a rational scalar is left to choose: it clears the coefficient
    denominators, divides out the joint integer content and makes the
    leading coefficient of den (grlex) positive.
    """
    if not num:
        return field.zero
    coeffs = [*num.values(), *den.values()]
    scale = lcm(*[c.denominator for c in coeffs])
    content = gcd(*[c.numerator * (scale // c.denominator) for c in coeffs])
    if den.LC < 0:
        content = -content
    if scale == 1 and content == 1:
        return field.raw_new(num, den)
    return field.raw_new(_rescaled(num, scale, content),
                         _rescaled(den, scale, content))


def _rescaled(poly, scale, content):
    """poly * scale / content, with integer coefficients by construction."""
    return poly.new([(m, _mpq(c.numerator * (scale // c.denominator) // content))
                     for m, c in poly.items()])


def _cofactors(f, g):
    """(h, f/h, g/h) for h = gcd(f, g) in Q[x].

    The gcd runs on the integer polynomials c_f f and c_g g, where c_f, c_g
    clear the coefficient denominators (1 for canonical operands); that
    skips the monic scaling and coefficient-wise ring conversions of the
    gcd over Q.
    """
    zz = f.ring.clone(domain=ZZ).zero
    cf = lcm(*[c.denominator for c in f.values()])
    cg = lcm(*[c.denominator for c in g.values()])
    h, f1, g1 = _integer_poly(zz, f, cf).cofactors(_integer_poly(zz, g, cg))
    return (_rational_poly(f, h, 1), _rational_poly(f, f1, cf),
            _rational_poly(f, g1, cg))


def _integer_poly(zz, poly, scale):
    return zz.new([(m, c.numerator * (scale // c.denominator))
                   for m, c in poly.items()])


def _rational_poly(like, poly, scale):
    return like.new([(m, _mpq(c, scale)) for m, c in poly.items()])


def _frac_add(f, g):
    """f + g for canonical fractions (Henrici): a gcd only of the
    denominators, and of the new numerator with their common factor."""
    if not g:
        return f
    if not f:
        return g
    field = f.field
    a, b, c, d = f.numer, f.denom, g.numer, g.denom
    if b == d:
        t = a + c
        if t and not b.is_ground:
            _, t, b = _cofactors(t, b)
        return _reduced(field, t, b)
    if not (b.is_ground or d.is_ground):
        h, b1, d1 = _cofactors(b, d)
        if not h.is_ground:
            t = a * d1 + c * b1
            if not t:
                return field.zero
            _, t, h = _cofactors(t, h)
            return _reduced(field, t, b1 * d1 * h)
    return _reduced(field, a * d + c * b, b * d)


def _frac_mul(field, a, b, c, d):
    """(a/b) * (c/d) for coprime pairs (Henrici): cancel a against d and c
    against b, skipping a gcd whenever one side is a constant."""
    if not a or not c:
        return field.zero
    if not (a.is_ground or d.is_ground):
        _, a, d = _cofactors(a, d)
    if not (c.is_ground or b.is_ground):
        _, c, b = _cofactors(c, b)
    return _reduced(field, a * c, b * d)


def _powers(x, top):
    table = [1]
    for _ in range(top):
        table.append(table[-1] * x)
    return table


def _scaled_value(poly, powers, lpow, deg):
    """(s, q) with poly(X / L) = s / (q * L^deg): the powers of the integer
    point X and of L come from the tables, q clears the coefficients."""
    q = lcm(*[c.denominator for c in poly.values()])
    s = 0
    for exps, c in poly.items():
        t = c.numerator if q == 1 else c.numerator * (q // c.denominator)
        k = deg
        for table, e in zip(powers, exps):
            if e:
                t *= table[e]
                k -= e
        s += t * lpow[k]
    return s, q


class Chart:
    """Coordinate chart of dimension n with variables x1..xn.

    Instances are cached per dimension so scalars from independent call
    sites share the same underlying field and interoperate.
    """

    _cache = {}

    def __new__(cls, dim):
        if dim < 1:
            raise ValueError("chart dimension must be at least 1")
        if dim in cls._cache:
            return cls._cache[dim]
        self = super().__new__(cls)
        names = ",".join(f"x{i}" for i in range(1, dim + 1))
        objs = _frac_field(names, QQ, order="grlex")
        self.dim = dim
        self._field = objs[0]
        self._ring = objs[0].ring
        self._gens = tuple(RationalExpr(self, g) for g in objs[1:])
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
        q = _to_qq(value)
        ground = self._ring.ground_new
        return RationalExpr(self, self._field.raw_new(
            ground(_mpq(q.numerator)), ground(_mpq(q.denominator))))

    @property
    def zero(self):
        return self.const(0)

    @property
    def one(self):
        return self.const(1)

    def parse(self, text):
        return _parse(self, text)

    def from_coeff_dict(self, coeffs):
        """Polynomial from {exponent tuple: rational coefficient}."""
        d = {tuple(e): _to_qq(c) for e, c in coeffs.items()}
        num = self._ring.from_dict(d)
        return RationalExpr(self, _reduced(self._field, num, self._ring.one))

    def __repr__(self):
        return f"Chart(dim={self.dim})"


class RationalExpr:
    """Immutable exact rational function on a chart."""

    __slots__ = ("chart", "frac")

    def __init__(self, chart, frac):
        self.chart = chart
        self.frac = frac

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
        return RationalExpr(self.chart, _frac_add(self.frac, o.frac))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalExpr(self.chart, _frac_add(self.frac, -o.frac))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalExpr(self.chart, _frac_add(o.frac, -self.frac))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f, g = self.frac, o.frac
        return RationalExpr(self.chart, _frac_mul(f.field, f.numer, f.denom,
                                                  g.numer, g.denom))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.frac:
            raise ZeroDivisionError("division by the zero expression")
        f, g = self.frac, o.frac
        return RationalExpr(self.chart, _frac_mul(f.field, f.numer, f.denom,
                                                  g.denom, g.numer))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.frac:
            raise ZeroDivisionError("division by the zero expression")
        f, g = o.frac, self.frac
        return RationalExpr(self.chart, _frac_mul(f.field, f.numer, f.denom,
                                                  g.denom, g.numer))

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        return RationalExpr(self.chart, self.frac ** k)

    def __neg__(self):
        return RationalExpr(self.chart, -self.frac)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.chart.const(other)
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return self.chart is other.chart and self.frac == other.frac

    def __hash__(self):
        return hash((self.chart.dim, self.frac))

    def __bool__(self):
        return bool(self.frac)

    def is_zero(self):
        return not self.frac

    def is_constant(self):
        return self.frac.numer.is_ground and self.frac.denom.is_ground

    def is_polynomial(self):
        """True when the canonical denominator is a constant."""
        return self.frac.denom.is_ground

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("expression is not constant")
        if not self.frac:
            return Fraction(0)
        num = self.frac.numer.LC
        den = self.frac.denom.LC
        return to_fraction(num) / to_fraction(den)

    @property
    def numerator(self):
        return RationalExpr(self.chart, self.chart._field.raw_new(
            self.frac.numer, self.chart._ring.one))

    @property
    def denominator(self):
        return RationalExpr(self.chart, self.chart._field.raw_new(
            self.frac.denom, self.chart._ring.one))

    def diff(self, k):
        """Exact partial derivative with respect to x^k (1-based)."""
        if not 1 <= k <= self.chart.dim:
            raise ValueError(f"coordinate index {k} out of range 1..{self.chart.dim}")
        gen = self.chart._field.gens[k - 1]
        return RationalExpr(self.chart, self.frac.diff(gen))

    def evaluate(self, point):
        """Exact value at a rational point; PoleError if the denominator vanishes."""
        if len(point) != self.chart.dim:
            raise ValueError(f"point must have {self.chart.dim} coordinates")
        vals = [v if isinstance(v, (int, Fraction)) else _to_qq(v) for v in point]
        # p(x) = p(X / L) with X integer: every term is scaled to degree deg
        scale = lcm(*[v.denominator for v in vals])
        numer, denom = self.frac.numer, self.frac.denom
        monoms = [*numer, *denom]
        deg = max(map(sum, monoms))
        powers = [_powers(v.numerator * (scale // v.denominator), top)
                  for v, top in zip(vals, map(max, zip(*monoms)))]
        lpow = _powers(scale, deg)
        num, qn = _scaled_value(numer, powers, lpow, deg)
        den, qd = _scaled_value(denom, powers, lpow, deg)
        if not den:
            raise PoleError(f"denominator vanishes at {tuple(point)}")
        return Fraction(num * qd, den * qn)

    def poly_terms(self):
        """[(exponent tuple, Fraction coeff)] of a polynomial expression."""
        if not self.is_polynomial():
            raise NotPolynomial("expression has a nontrivial denominator")
        if not self.frac:
            return []
        den = to_fraction(self.frac.denom.LC)
        return [(tuple(exps), to_fraction(c) / den)
                for exps, c in self.frac.numer.terms()]

    def numer_terms(self):
        return [(tuple(exps), to_fraction(c)) for exps, c in self.frac.numer.terms()]

    def denom_terms(self):
        return [(tuple(exps), to_fraction(c)) for exps, c in self.frac.denom.terms()]

    def __str__(self):
        return str(self.frac).replace("**", "^")

    def __repr__(self):
        return f"RationalExpr({self})"


def compile_numeric(expr):
    """RationalExpr -> fast float callable raising PoleError on zero denominators."""
    num = [(exps, float(c)) for exps, c in expr.numer_terms()]
    den = [(exps, float(c)) for exps, c in expr.denom_terms()]

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


# ---------------------------------------------------------------------------
# expression parser: literals, x1..xn, + - * / ^, parentheses
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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
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

    def __init__(self, chart, tokens):
        self.chart = chart
        self.tokens = tokens
        self.pos = 0

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
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, line, col = self.advance()
            rhs = self.unary()
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
            self.advance()
            k = self.int_exponent()
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
        k = sign * int(tok[1])
        return k

    def atom(self):
        tok = self.advance()
        kind, text, line, col = tok
        if kind == "int":
            return self.chart.const(int(text))
        if kind == "name":
            if text.startswith("x") and text[1:].isdigit():
                k = int(text[1:])
                if 1 <= k <= self.chart.dim:
                    return self.chart.var(k)
                raise ParseError(
                    f"variable {text} out of range for dimension {self.chart.dim}",
                    line, col)
            raise ParseError(f"unknown name {text!r}", line, col)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {text!r}", line, col)


def _parse(chart, text):
    return _Parser(chart, _tokenize(text)).parse()


# ---------------------------------------------------------------------------
# differential forms of degree 0, 1, 2
# ---------------------------------------------------------------------------

class DifferentialForm:
    """Degree 0, 1 or 2 form with RationalExpr components.

    Degree-2 components are stored densely and checked antisymmetric.
    """

    def __init__(self, chart, degree, components):
        self.chart = chart
        self.degree = degree
        n = chart.dim
        if degree == 0:
            if not isinstance(components, RationalExpr):
                raise ValueError("degree-0 form needs a scalar component")
            self.components = components
        elif degree == 1:
            comps = list(components)
            if len(comps) != n:
                raise ValueError(f"degree-1 form needs {n} components")
            self.components = tuple(comps)
        elif degree == 2:
            rows = [list(r) for r in components]
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValueError(f"degree-2 form needs {n}x{n} components")
            for a in range(n):
                for b in range(a, n):
                    if rows[a][b] != -rows[b][a]:
                        raise ValueError(
                            f"degree-2 components not antisymmetric at ({a + 1},{b + 1})")
            self.components = tuple(tuple(r) for r in rows)
        else:
            raise ValueError("only degrees 0, 1, 2 are supported")

    @classmethod
    def zero(cls, chart, degree):
        n = chart.dim
        z = chart.zero
        if degree == 0:
            return cls(chart, 0, z)
        if degree == 1:
            return cls(chart, 1, [z] * n)
        return cls(chart, 2, [[z] * n for _ in range(n)])

    def comp(self, *idx):
        """Component by 1-based indices."""
        if self.degree == 0:
            return self.components
        if self.degree == 1:
            return self.components[idx[0] - 1]
        return self.components[idx[0] - 1][idx[1] - 1]

    def is_zero(self):
        if self.degree == 0:
            return self.components.is_zero()
        if self.degree == 1:
            return all(c.is_zero() for c in self.components)
        return all(c.is_zero() for row in self.components for c in row)

    def is_polynomial(self):
        if self.degree == 0:
            return self.components.is_polynomial()
        if self.degree == 1:
            return all(c.is_polynomial() for c in self.components)
        return all(c.is_polynomial() for row in self.components for c in row)

    def d(self):
        return exterior_derivative(self)

    def __add__(self, other):
        if self.degree != other.degree or self.chart is not other.chart:
            raise ValueError("form mismatch")
        if self.degree == 0:
            return DifferentialForm(self.chart, 0, self.components + other.components)
        if self.degree == 1:
            return DifferentialForm(self.chart, 1, [
                a + b for a, b in zip(self.components, other.components)])
        n = self.chart.dim
        return DifferentialForm(self.chart, 2, [
            [self.components[a][b] + other.components[a][b] for b in range(n)]
            for a in range(n)])

    def __neg__(self):
        if self.degree == 0:
            return DifferentialForm(self.chart, 0, -self.components)
        if self.degree == 1:
            return DifferentialForm(self.chart, 1, [-c for c in self.components])
        return DifferentialForm(self.chart, 2, [[-c for c in row] for row in self.components])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (self.chart is other.chart and self.degree == other.degree
                and (self - other).is_zero())

    def __repr__(self):
        return f"DifferentialForm(degree={self.degree}, components={self.components})"


def exterior_derivative(form):
    """Exact exterior derivative.  The derivative of a 2-form is returned as a
    minimal 3-index container supporting only the zero test."""
    chart = form.chart
    n = chart.dim
    if form.degree == 0:
        return DifferentialForm(chart, 1, [form.components.diff(a + 1) for a in range(n)])
    if form.degree == 1:
        comps = [[form.components[b].diff(a + 1) - form.components[a].diff(b + 1)
                  for b in range(n)] for a in range(n)]
        return DifferentialForm(chart, 2, comps)
    # degree 2 -> totally antisymmetric 3-index array, returned raw
    return _d_two_form(form)


class _ThreeForm:
    """Minimal container for d(2-form): only zero-testing is needed."""

    def __init__(self, comps):
        self.comps = comps

    def is_zero(self):
        return all(c.is_zero() for c in self.comps.values())


def _d_two_form(form):
    chart = form.chart
    n = chart.dim
    comps = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                val = (form.components[b][c].diff(a + 1)
                       - form.components[a][c].diff(b + 1)
                       + form.components[a][b].diff(c + 1))
                comps[(a, b, c)] = val
    return _ThreeForm(comps)


def homotopy_potential(form):
    """Radial homotopy potential of a closed polynomial 1- or 2-form.

    For a k-form w the potential is H(w)_{b..}(x) = int_0^1 t^(k-1) w_{ab..}(tx) x^a dt,
    which is again polynomial; d(H(w)) = w holds exactly on the star-shaped chart.
    """
    chart = form.chart
    n = chart.dim
    if form.degree not in (1, 2):
        raise ValueError("homotopy potential is defined for degrees 1 and 2")
    if not form.is_polynomial():
        raise NotPolynomial("homotopy operator needs polynomial components")
    if not _closed_ok(form):
        raise NotClosed("form is not closed")
    if form.degree == 1:
        acc = {}
        for a in range(n):
            for exps, coeff in form.components[a].poly_terms():
                d = sum(exps)
                e = list(exps)
                e[a] += 1
                key = tuple(e)
                acc[key] = acc.get(key, Fraction(0)) + coeff / (d + 1)
        return DifferentialForm(chart, 0, chart.from_coeff_dict(acc))
    pots = []
    for b in range(n):
        acc = {}
        for a in range(n):
            for exps, coeff in form.components[a][b].poly_terms():
                d = sum(exps)
                e = list(exps)
                e[a] += 1
                key = tuple(e)
                acc[key] = acc.get(key, Fraction(0)) + coeff / (d + 2)
        pots.append(chart.from_coeff_dict(acc))
    return DifferentialForm(chart, 1, pots)


def _closed_ok(form):
    return form.d().is_zero()


# ---------------------------------------------------------------------------
# potentials of exact rational 1-forms: polynomial + rational + log parts
# ---------------------------------------------------------------------------

class Potential:
    """Scalar potential f = poly_part + rational_part + sum c_i * log(base_i).

    Only the gradient (always a rational 1-form) and exp(k*f) for suitable
    integer multiples are ever needed, so the log terms stay formal.
    """

    def __init__(self, chart, poly_part=None, rational_part=None, log_terms=()):
        self.chart = chart
        self.poly_part = poly_part if poly_part is not None else chart.zero
        self.rational_part = rational_part if rational_part is not None else chart.zero
        terms = []
        for base, coeff in log_terms:
            coeff = Fraction(coeff)
            if coeff != 0:
                terms.append((base, coeff))
        self.log_terms = tuple(terms)

    @classmethod
    def zero(cls, chart):
        return cls(chart)

    def is_zero(self):
        return (self.poly_part.is_zero() and self.rational_part.is_zero()
                and not self.log_terms)

    def grad(self):
        """Exact gradient as a rational 1-form."""
        chart = self.chart
        n = chart.dim
        comps = []
        for a in range(1, n + 1):
            g = self.poly_part.diff(a) + self.rational_part.diff(a)
            for base, coeff in self.log_terms:
                g = g + base.diff(a) * Fraction(coeff) / base
            comps.append(g)
        return DifferentialForm(chart, 1, comps)

    def __add__(self, other):
        if not isinstance(other, Potential):
            return NotImplemented
        return Potential(self.chart, self.poly_part + other.poly_part,
                         self.rational_part + other.rational_part,
                         self.log_terms + other.log_terms)

    def scale(self, k):
        k = Fraction(k)
        return Potential(self.chart, self.poly_part * k, self.rational_part * k,
                         [(b, c * k) for b, c in self.log_terms])

    def exp(self):
        """exp(f) as a RationalExpr; defined when the non-log parts vanish and
        every log coefficient is an integer."""
        if not self.poly_part.is_zero() or not self.rational_part.is_zero():
            raise ValueError("exp of a non-log potential is not rational")
        out = self.chart.one
        for base, coeff in self.log_terms:
            if coeff.denominator != 1:
                raise ValueError("exp needs integer log coefficients")
            out = out * base ** int(coeff)
        return out

    def describe(self):
        parts = []
        if not self.poly_part.is_zero():
            parts.append(str(self.poly_part))
        if not self.rational_part.is_zero():
            parts.append(str(self.rational_part))
        for base, coeff in self.log_terms:
            if coeff == 1:
                parts.append(f"log({base})")
            elif coeff == -1:
                parts.append(f"-log({base})")
            else:
                parts.append(f"{coeff}*log({base})")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Potential({self.describe()})"


def potential_of_closed_1form(omega):
    """Scalar potential of an exact rational 1-form on the star-shaped chart.

    Polynomial forms go through the radial homotopy.  For rational forms
    with squarefree denominator the potential is a sum of logarithms of the
    denominator's irreducible factors plus a polynomial: each log
    coefficient is read off as a residue on a generic line through the
    chart, the remainder is checked to be polynomial and integrated by the
    homotopy.  Denominators with repeated factors fall back to one dense
    linear solve over the full ansatz P/den + logs + polynomial.  Raises
    NotPolynomial when no representation in this class exists.
    """
    chart = omega.chart
    if not omega.d().is_zero():
        raise NotClosed("1-form is not closed")
    if omega.is_polynomial():
        pot = homotopy_potential(omega)
        return Potential(chart, poly_part=pot.components)
    fast = _residue_potential(omega)
    if fast is not None:
        return fast
    return _rational_potential(omega)


# -- univariate helpers for the residue computation (coefficient lists) ------

def _p1_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _p1_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return _p1_trim(out)


def _p1_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, v in enumerate(a):
        if not v:
            continue
        for j, w in enumerate(b):
            if w:
                out[i + j] += v * w
    return _p1_trim(out)


def _p1_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv
        if c:
            q[k] = c
            for j, w in enumerate(b):
                a[k + j] -= c * w
    return q, _p1_trim(a)


def _p1_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _p1_divmod(a, b)[1]
    if a:
        inv = Fraction(1) / a[-1]
        a = [v * inv for v in a]
    return a


def _p1_diff(a):
    return _p1_trim([a[i] * i for i in range(1, len(a))])


def _restrict_terms(terms, w):
    """Terms of an n-variable polynomial restricted to x = w s."""
    out = {}
    for exps, coeff in terms:
        c = coeff
        for e, wi in zip(exps, w):
            if e:
                c *= Fraction(wi) ** e
        if c:
            d = sum(exps)
            out[d] = out.get(d, Fraction(0)) + c
    coeffs = [Fraction(0)] * (max(out) + 1 if out else 0)
    for d, c in out.items():
        coeffs[d] = c
    return _p1_trim(coeffs)


def _line_directions(n):
    base = [tuple(range(1, n + 1)),
            tuple(1 + ((i * 2 + 1) % (n + 2)) for i in range(n)),
            tuple(2 + ((i * 3 + 2) % (n + 3)) for i in range(n)),
            tuple(1 if i % 2 else 3 + i for i in range(n))]
    return base


def _residue_potential(omega):
    """Fast path: squarefree denominator, pure log + polynomial potential.

    Returns None when this shape does not apply and the caller should try
    the dense ansatz instead.
    """
    chart = omega.chart
    n = chart.dim
    ring = chart._ring
    den = ring.one
    for c in omega.components:
        g = den.gcd(c.frac.denom)
        den = den.quo(g) * c.frac.denom
    factors = sympy.factor_list(den.as_expr())[1]
    if any(int(m) > 1 for _, m in factors):
        return None
    origin = [0] * n
    bases = []
    for f, _ in factors:
        base = RationalExpr(chart, chart._field.from_expr(f))
        if base.evaluate(origin) < 0:
            base = -base
        bases.append(base)
    if not bases:
        return None

    for w in _line_directions(n):
        coeffs = _residues_on_line(omega, bases, w)
        if coeffs is None:
            continue
        rest = []
        ok = True
        for a in range(n):
            r = omega.components[a]
            for base, c in zip(bases, coeffs):
                if c:
                    r = r - base.diff(a + 1) * c / base
            if not r.is_polynomial():
                ok = False
                break
            rest.append(r)
        if not ok:
            continue
        pot = homotopy_potential(DifferentialForm(chart, 1, rest))
        out = Potential(chart, poly_part=pot.components,
                        log_terms=[(b, c) for b, c in zip(bases, coeffs) if c])
        grad = out.grad()
        if all(grad.components[a] == omega.components[a] for a in range(n)):
            return out
    return None


def _residues_on_line(omega, bases, w):
    """Log coefficients of the potential along the line x = w s, or None
    when the line is degenerate for this data."""
    chart = omega.chart
    n = chart.dim
    # u(s) = sum_a w_a omega_a(w s) as one reduced fraction
    u_num, u_den = [], [Fraction(1)]
    for a in range(n):
        comp = omega.components[a]
        num = _restrict_terms(comp.numer_terms(), w)
        num = _p1_mul(num, [Fraction(w[a])])
        dnm = _restrict_terms(comp.denom_terms(), w)
        if not dnm:
            return None
        u_num = _p1_add(_p1_mul(u_num, dnm), _p1_mul(num, u_den))
        u_den = _p1_mul(u_den, dnm)
        g = _p1_gcd(u_num, u_den)
        if len(g) > 1:
            u_num = _p1_divmod(u_num, g)[0]
            u_den = _p1_divmod(u_den, g)[0]
    restricted = []
    for base in bases:
        b = _restrict_terms(base.numer_terms(), w)
        if len(b) - 1 != base.frac.numer.degree():
            return None  # leading behaviour lost on this line
        if len(_p1_gcd(b, _p1_diff(b))) > 1:
            return None  # restriction not squarefree
        restricted.append(b)
    for i in range(len(restricted)):
        for j in range(i + 1, len(restricted)):
            if len(_p1_gcd(restricted[i], restricted[j])) > 1:
                return None
    coeffs = []
    for b in restricted:
        g = _p1_gcd(u_den, b)
        if len(g) <= 1:
            coeffs.append(Fraction(0))
            continue
        if len(g) != len(b):
            return None
        quo, rem = _p1_divmod(u_den, b)
        if rem:
            return None
        if len(_p1_gcd(quo, b)) > 1:
            return None  # higher-order pole on the line
        a_part = _p1_divmod(u_num, b)[1]
        c_part = _p1_divmod(_p1_mul(_p1_diff(b), quo), b)[1]
        if not c_part:
            return None
        k = max(i for i, v in enumerate(c_part) if v)
        if k >= len(a_part) and a_part:
            return None
        if not a_part:
            coeffs.append(Fraction(0))
            continue
        c = a_part[k] / c_part[k] if k < len(a_part) else Fraction(0)
        check = [v * c for v in c_part]
        if _p1_trim([x - y for x, y in
                     zip(a_part + [Fraction(0)] * len(check),
                         check + [Fraction(0)] * len(a_part))]):
            return None
        coeffs.append(c)
    return coeffs


def _rational_potential(omega):
    from .exactlinalg import solve_linear_system

    chart = omega.chart
    n = chart.dim
    ring = chart._ring

    # lcm of the component denominators and its irreducible factors
    den = ring.one
    for c in omega.components:
        g = den.gcd(c.frac.denom)
        den = den.quo(g) * c.frac.denom
    factors = sympy.factor_list(den.as_expr())
    origin = [0] * n
    bases = []
    mult = []
    for f, m in factors[1]:
        base = RationalExpr(chart, chart._field.from_expr(f))
        try:
            if base.evaluate(origin) < 0:
                # same log-gradient, but exp() stays positive near the centre
                base = -base
        except PoleError:
            pass
        bases.append(base)
        mult.append(int(m))
    # denominator of the rational part: product of D_i^(m_i - 1)
    h_den = chart.one
    for b, m in zip(bases, mult):
        if m > 1:
            h_den = h_den * b ** (m - 1)

    max_num_deg = max(c.frac.numer.degree() for c in omega.components)
    max_den_deg = max(1, den.degree())
    num_deg = max_num_deg + max_den_deg + 2
    poly_deg = max_num_deg + 2

    def monomials_upto(deg):
        out = []

        def rec(prefix, remaining, slots):
            if slots == 0:
                out.append(tuple(prefix))
                return
            for e in range(remaining + 1):
                rec(prefix + [e], remaining - e, slots - 1)

        rec([], deg, n)
        return out

    p_monos = monomials_upto(num_deg) if not h_den.is_constant() else []
    q_monos = [m for m in monomials_upto(poly_deg) if sum(m) > 0]

    unknowns = []
    unknowns += [("P", m) for m in p_monos]
    unknowns += [("Q", m) for m in q_monos]
    unknowns += [("L", i) for i in range(len(bases))]

    # candidate gradient pieces, each a rational 1-form in the chart field
    def grad_of(kind, key):
        if kind == "P":
            mono = chart.from_coeff_dict({key: 1})
            f = mono / h_den
        elif kind == "Q":
            f = chart.from_coeff_dict({key: 1})
        else:
            base = bases[key]
            return [base.diff(a) / base for a in range(1, n + 1)]
        return [f.diff(a) for a in range(1, n + 1)]

    grads = [grad_of(kind, key) for kind, key in unknowns]

    # clear denominators: multiply everything by den * h_den^2 (a polynomial
    # multiple of every denominator that appears)
    clear = RationalExpr(chart, chart._field.raw_new(den, ring.one)) * h_den ** 2
    rows = {}

    def add_terms(expr, col, scale):
        poly = expr * clear
        if not poly.is_polynomial():
            raise NotPolynomial("potential ansatz failed to clear denominators")
        for exps, coeff in poly.poly_terms():
            rows.setdefault(exps, [Fraction(0)] * (len(unknowns) + 1))
            rows[exps][col] += scale * coeff

    ncols = len(unknowns)
    for a in range(n):
        rows_a = {}
        saved = rows
        rows = rows_a
        for j, g in enumerate(grads):
            add_terms(g[a], j, Fraction(1))
        add_terms(omega.components[a], ncols, Fraction(1))
        rows = saved
        for key, row in rows_a.items():
            rows[(a,) + key] = row

    matrix = [r[:ncols] for r in rows.values()]
    rhs = [r[ncols] for r in rows.values()]
    sol = solve_linear_system(matrix, rhs)
    if sol is None:
        raise NotPolynomial("closed 1-form has no potential in the supported class")

    p_acc = {}
    q_acc = {}
    logs = []
    for (kind, key), value in zip(unknowns, sol):
        if value == 0:
            continue
        if kind == "P":
            p_acc[key] = p_acc.get(key, Fraction(0)) + value
        elif kind == "Q":
            q_acc[key] = q_acc.get(key, Fraction(0)) + value
        else:
            logs.append((bases[key], value))
    rational_part = chart.zero
    if p_acc:
        rational_part = chart.from_coeff_dict(p_acc) / h_den
    poly_part = chart.from_coeff_dict(q_acc) if q_acc else chart.zero
    pot = Potential(chart, poly_part=poly_part, rational_part=rational_part,
                    log_terms=logs)
    # exactness audit: the match is only accepted if the gradient reproduces omega
    g = pot.grad()
    for a in range(n):
        if g.components[a] != omega.components[a]:
            raise NotPolynomial("potential reconstruction failed the exactness audit")
    return pot
