"""Exact scalar arithmetic, the parser and the 2-form beta."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from sympy import QQ

from projmet import Chart, ParseError, PoleError, beta_form, projective_change
from projmet.exprcore import Poly, RationalExpr

from conftest import rand_poly, rand_special_connection, sympy_frac
from oracles import is_closed


@pytest.fixture
def ch2():
    return Chart(2)


def test_differentiate_power_rule(ch2):
    x, y = ch2.vars
    assert (x ** 2 * y).diff(1) == 2 * x * y


def test_differentiate_quotient_rule(ch2):
    x, y = ch2.vars
    assert (x / (1 - y)).diff(2) == x / (1 - y) ** 2


def test_differentiate_constant(ch2):
    e = ch2.const(Fraction(7, 3))
    assert e.diff(1).is_zero()


def test_evaluate_substitution(ch2):
    x, y = ch2.vars
    assert (x / (1 - y)).evaluate([2, 0]) == 2
    assert (x ** 2 + y ** 2).evaluate([Fraction(3, 2), Fraction(1, 2)]) == Fraction(5, 2)


def test_evaluate_pole(ch2):
    x, y = ch2.vars
    with pytest.raises(PoleError):
        (x / (1 - y)).evaluate([1, 1])


def test_arithmetic_is_exact(ch2):
    rng = random.Random(7)
    for _ in range(50):
        a = rand_poly(ch2, rng, 3, 3) / (1 + ch2.var(1) ** 2)
        b = rand_poly(ch2, rng, 3, 3)
        assert (a + b) - b == a


def test_canonical_denominator_sign(ch2):
    x, y = ch2.vars
    e = x / (1 - y)
    # canonical form has a positive leading denominator coefficient
    assert e == -x / (y - 1)
    assert str(e.denominator) != "0"


def test_pow_and_division(ch2):
    x, y = ch2.vars
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    with pytest.raises(ZeroDivisionError):
        x / (ch2.zero)
    with pytest.raises(ZeroDivisionError):
        ch2.zero ** -1


def test_negative_power_is_canonical(ch2):
    x, y = ch2.vars
    for base in (1 - x, (2 - x * y) / (3 * y - 1), Fraction(-2, 3) * x):
        for k in (1, 2, 3):
            inv = base ** -k
            assert inv == 1 / base ** k
            assert hash(inv) == hash(1 / base ** k)
            assert str(inv) == str(1 / base ** k)
    assert str((1 - x) ** -1) == "-1/(x1 - 1)"


# -- the arithmetic kernel against sympy's field operations --------------------

def _nonzero_poly(chart, rng, max_degree=2):
    p = rand_poly(chart, rng, max_degree, 3)
    return p if not p.is_zero() else chart.var(1) + 1


def _kernel_operands(chart, rng):
    """Pairs of rational functions, with common factors planted between one
    operand's numerator and the other's denominator, and between the two
    denominators.  In the last two pairs the numerator of the sum is again
    a multiple of the common factor h."""
    h = _nonzero_poly(chart, rng, 1) + chart.var(rng.randint(1, chart.dim))
    p1, p2, q1, q2 = (_nonzero_poly(chart, rng) for _ in range(4))
    return [
        (p1 / (q1 * h), p2 * h / q2),
        (p1 / h, p2 / (h * q2)),
        (p1 / q1, p2 / q1),
        (p1, p2),
        (p1 * h, q1 / h),
        (p1 / q1, p1 / q1),
        (p1 / (h * (h + q1)), p1 / (h * (h - q1))),
        (p1 / (h * q1), (h * p2 - p1) / (h * q1)),
    ]


def _same_frac(result, oracle):
    got = sympy_frac(result)
    assert got.numer == oracle.numer
    assert got.denom == oracle.denom


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_matches_sympy_field(n):
    chart = Chart(n)
    field = sympy_frac(chart.zero).field
    rng = random.Random(1000 + n)
    scalars = [3, -1, 0, Fraction(-2, 3), Fraction(5, 7)]
    for _ in range(6):
        for a, b in _kernel_operands(chart, rng):
            f, g = sympy_frac(a), sympy_frac(b)
            _same_frac(a + b, f + g)
            _same_frac(a - b, f - g)
            _same_frac(a * b, f * g)
            _same_frac(a / b, f / g)
            _same_frac(a - a, f - f)          # cancels to zero
            _same_frac(a / a, f / f)          # cancels to a constant
            _same_frac((3 * a) / a, (f * 3) / f)
            _same_frac(a * (1 / a), f * (1 / f))
            _same_frac(b / b.denominator, g / g.denom)
            for s in scalars:
                c = field.ground_new(QQ(Fraction(s).numerator, Fraction(s).denominator))
                _same_frac(a + s, f + c)
                _same_frac(s + a, c + f)
                _same_frac(a - s, f - c)
                _same_frac(s - a, c - f)
                _same_frac(a * s, f * c)
                _same_frac(s * a, c * f)
                if s:
                    _same_frac(a / s, f / c)
                _same_frac(s / a, c / f)


def _rational_field(chart):
    """sympy's own field Q(x1..xn), the oracle for the kernel over Z[x]."""
    symbols = sympy_frac(chart.zero).field.symbols
    return sympy.polys.fields.field(symbols, QQ, order="grlex")[0]


def _in_rational_field(qf, e):
    f = sympy_frac(e)
    return qf.raw_new(f.numer.set_ring(qf.ring), f.denom.set_ring(qf.ring))


def _assert_integer_canonical(qf, e, want):
    """e is kept over Z[x] in canonical form and has the value `want`, an
    element of the field Q(x)."""
    num, den = e.num, e.den
    assert type(num) is Poly and type(den) is Poly
    assert all(type(c) is int and c for c in [*num.values(), *den.values()])
    assert gcd(*num.values(), *den.values()) == 1
    assert den.LC > 0
    got = _in_rational_field(qf, e)
    assert got.numer * want.denom == want.numer * got.denom


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_stays_in_integer_ring(n):
    """Every way to make a RationalExpr leaves an integer, canonical pair
    whose value is the one sympy's field over Q computes."""
    chart = Chart(n)
    qf = _rational_field(chart)
    rng = random.Random(5000 + n)

    def q(s):
        s = Fraction(s)
        return qf.ground_new(QQ(s.numerator, s.denominator))

    for s in (0, 3, -1, Fraction(-2, 3), Fraction(5, 7), "7/4", "-6"):
        _assert_integer_canonical(qf, chart.const(s), q(s))
    for text in ("3/4", "x1/6 - 5/2", "(2*x1 - 4)/(6*x1^2 + 2)",
                 f"x{n}^-2 * 3/2", "-(x1 + 1/3)^3 / (x1 - 1/2)"):
        want = qf.from_expr(sympy.sympify(text.replace("^", "**")))
        _assert_integer_canonical(qf, chart.parse(text), want)
    coeffs = {(2,) + (0,) * (n - 1): Fraction(3, 4), (0,) * n: Fraction(-5, 6),
              (0,) * (n - 1) + (1,): 2}
    want = sum((q(c) * qf.from_expr(sympy.Mul(*[g ** k for g, k in
                                               zip(qf.symbols, e)]))
                for e, c in coeffs.items()), qf.zero)
    _assert_integer_canonical(qf, chart.from_coeff_dict(coeffs), want)
    _assert_integer_canonical(qf, chart.from_coeff_dict({}), qf.zero)

    scalars = [3, -1, 0, Fraction(-2, 3), Fraction(5, 7)]
    for a, b in _kernel_operands(chart, rng):
        f, g = _in_rational_field(qf, a), _in_rational_field(qf, b)
        for got, want in [(a + b, f + g), (a - b, f - g), (a * b, f * g),
                          (a / b, f / g), (-a, -f), (+a, f), (a - a, f - f),
                          (a / a, f / f), (a ** 2, f ** 2), (a ** 0, f ** 0),
                          (b ** -1, g ** -1), (b ** -2, g ** -2),
                          (a.numerator, qf(f.numer)),
                          (a.denominator, qf(f.denom))]:
            _assert_integer_canonical(qf, got, want)
        for k, gen in enumerate(qf.gens, start=1):
            _assert_integer_canonical(qf, a.diff(k), f.diff(gen))
        for s in scalars:
            c = q(s)
            for got, want in [(a + s, f + c), (s + a, c + f), (a - s, f - c),
                              (s - a, c - f), (a * s, f * c), (s * a, c * f),
                              (s / b, c / g)]:
                _assert_integer_canonical(qf, got, want)
            if s:
                _assert_integer_canonical(qf, a / s, f / c)


def _sympy_value(expr, point):
    """The value by sympy's own substitution, in the ring over Q."""
    frac = sympy_frac(expr)
    ring = frac.field.ring.clone(domain=QQ)
    pairs = list(zip(ring.gens, [QQ(Fraction(v).numerator, Fraction(v).denominator)
                                 for v in point]))
    num = frac.numer.set_ring(ring).evaluate(pairs)
    den = frac.denom.set_ring(ring).evaluate(pairs)
    return None if not den else Fraction(int(num.numerator), int(num.denominator)) / \
        Fraction(int(den.numerator), int(den.denominator))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluate_matches_sympy(n):
    chart = Chart(n)
    rng = random.Random(2000 + n)
    # a raw, non-canonical fraction: x1/3 - 5/2 stored as (4 x1 - 30)/12,
    # with a joint integer content of 2 left in
    thirds = RationalExpr(chart,
                          Poly({(1,) + (0,) * (n - 1): 4, (0,) * n: -30}),
                          Poly({(0,) * n: 12}))
    for _ in range(6):
        exprs = [thirds]
        for a, b in _kernel_operands(chart, rng):
            e = a / b
            exprs += [e, e.numerator, e.denominator]
        for e in exprs:
            for _ in range(3):
                point = [rng.choice([0, rng.randint(-3, 3),
                                     Fraction(rng.randint(-5, 5), rng.randint(1, 6))])
                         for _ in range(n)]
                want = _sympy_value(e, point)
                if want is None:
                    with pytest.raises(PoleError):
                        e.evaluate(point)
                    continue
                got = e.evaluate(point)
                assert type(got) is Fraction and got == want
                assert e.evaluate([str(v) for v in point]) == want


def test_evaluate_pole_on_raw_denominator():
    chart = Chart(2)
    x, y = chart.vars
    den = (x - y) * (x + 2)
    with pytest.raises(PoleError, match=r"denominator vanishes at \(1, 1\)"):
        (1 / den).evaluate([1, 1])
    with pytest.raises(PoleError):
        (x / den).evaluate([Fraction(1, 2), Fraction(1, 2)])
    assert den.evaluate([1, 1]) == 0
    assert (1 / den).denominator.evaluate([1, 1]) == 0


def test_kernel_fast_paths_skip_the_gcd(monkeypatch):
    chart = Chart(2)
    x, y = chart.vars
    p, q, r = x ** 2 + 3 * y - 1, 2 * x * y + y ** 2 + 5, x - y + 7
    rat, rat2 = p / q, r / q
    calls = []
    cofactors = Poly.cofactors

    def counting(self, other):
        calls.append(1)
        return cofactors(self, other)

    monkeypatch.setattr(Poly, "cofactors", counting)
    for value in (p + q, p - q, p * q, rat * 3, rat * Fraction(-2, 5),
                  Fraction(1, 3) * rat, rat / 4, rat * chart.const(7)):
        assert not value.is_zero()
    assert not calls
    value = rat + rat2
    assert len(calls) <= 1
    assert value == (p + r) / q


# -- first partials: jet and diff ---------------------------------------------

def _jet_operands(chart, rng):
    """Constants, polynomials and rational functions, some with repeated
    denominator factors or factors free of a coordinate."""
    x = chart.vars
    p, q = _nonzero_poly(chart, rng), _nonzero_poly(chart, rng)
    out = [chart.zero, chart.const(Fraction(-7, 3)), p, p / 5, p / q,
           p / (q * q * (x[-1] + 2)), (x[0] + 2 * x[-1]) / (q * q)]
    for a, b in _kernel_operands(chart, rng):
        out.append(a / b)
    return out


def _distinct_denominator_point(rng, n):
    dens = rng.sample(range(1, 9), n)
    coords = [Fraction(rng.randint(-6, 6), d) for d in dens]
    coords[rng.randrange(n)] = Fraction(0)
    return coords


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jet_matches_sympy_differentiation(n):
    """Value and first partials at rational points against sympy's own
    differentiation and substitution of the same expression; the second
    partials of `hessian` against `diff` twice, then `evaluate`."""
    chart = Chart(n)
    syms = sympy_frac(chart.zero).field.symbols
    rng = random.Random(3000 + n)
    checked = 0
    for _ in range(2):
        for e in _jet_operands(chart, rng):
            expr = sympy_frac(e).as_expr()
            for _ in range(2):
                point = _distinct_denominator_point(rng, n)
                sub = {s: sympy.Rational(v.numerator, v.denominator)
                       for s, v in zip(syms, point)}
                den = sympy_frac(e).denom.as_expr().subs(sub)
                if den == 0:
                    with pytest.raises(PoleError, match="denominator vanishes"):
                        e.jet(point)
                    with pytest.raises(PoleError, match="denominator vanishes"):
                        e.jet(point, hessian=True)
                    continue
                value, grad = e.jet(point)
                assert e.jet(point, hessian=True)[:2] == (value, grad)
                hess = e.jet(point, hessian=True)[2]
                want = expr.subs(sub)
                assert type(value) is Fraction
                assert value == Fraction(int(want.p), int(want.q))
                assert value == e.evaluate(point)
                assert len(grad) == n
                for s, g in zip(syms, grad):
                    d = sympy.diff(expr, s).subs(sub)
                    assert type(g) is Fraction
                    assert g == Fraction(int(d.p), int(d.q))
                for k, row in enumerate(hess, 1):
                    for m, h in enumerate(row, 1):
                        assert type(h) is Fraction
                        assert h == e.diff(k).diff(m).evaluate(point)
                checked += 1
    assert checked > 25


def test_jet_pole_and_shape_errors():
    chart = Chart(2)
    x, y = chart.vars
    e = x / ((x - y) * (x + 2))
    with pytest.raises(PoleError, match=r"denominator vanishes at \(1, 1\)"):
        e.jet([1, 1])
    with pytest.raises(PoleError):
        e.jet([Fraction(-2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        e.jet([1])
    assert (x * y).jet(["1/2", 3]) == (Fraction(3, 2), [3, Fraction(1, 2)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diff_matches_sympy_field_diff(n):
    chart = Chart(n)
    rng = random.Random(4000 + n)
    for _ in range(4):
        for e in _jet_operands(chart, rng):
            f = sympy_frac(e)
            for k, gen in enumerate(f.field.gens, start=1):
                got, want = e.diff(k), f.diff(gen)
                assert sympy_frac(got).numer == want.numer
                assert sympy_frac(got).denom == want.denom
                assert str(got) == str(want).replace("**", "^")
                assert hash(got) == hash(RationalExpr(
                    chart, Poly(dict(want.numer)), Poly(dict(want.denom))))


def test_diff_gcd_count(monkeypatch):
    """No gcd for a constant denominator; one when gcd(a'b - ab', b) is 1;
    a second one, against that gcd, otherwise.  A factor of b free of x^k
    (here x2 for d/dx1) can divide a'b - ab' to a higher power than b."""
    chart = Chart(2)
    x, y = chart.vars
    calls = []
    cofactors = Poly.cofactors

    def counting(self, other):
        calls.append(1)
        return cofactors(self, other)

    monkeypatch.setattr(Poly, "cofactors", counting)
    cases = [((x ** 2 * y + 3) / 5, 0),
             (x / (1 + x ** 2 + y ** 2), 1),
             ((x + y) / (x - 2 * y), 1),
             ((x + y) / (y * (x + 2 * y)), 2),
             (1 / (1 + x ** 2) ** 2, 2)]
    for e, count in cases:
        calls.clear()
        got = e.diff(1)
        assert len(calls) == count, e
        f = sympy_frac(e)
        assert sympy_frac(got) == f.diff(f.field.gens[0])
    assert ((x + y) / (y * (x + 2 * y))).diff(1) == 1 / (x + 2 * y) ** 2


# -- parser -----------------------------------------------------------------

def test_parse_literals_and_precedence(ch2):
    x, y = ch2.vars
    assert ch2.parse("3/4") == ch2.const(Fraction(3, 4))
    assert ch2.parse("x1 + 2*x2^2") == x + 2 * y ** 2
    assert ch2.parse("-x1^2") == -(x ** 2)
    assert ch2.parse("(x1 + x2)^3") == (x + y) ** 3
    assert ch2.parse("x1/(1 - x2)") == x / (1 - y)
    assert ch2.parse("2^-1 * x1") == x / 2


def test_parse_roundtrip(ch2):
    rng = random.Random(11)
    for _ in range(25):
        e = rand_poly(ch2, rng, 3, 3) / (1 + ch2.var(2) ** 2)
        assert ch2.parse(str(e)) == e


def test_parse_errors_carry_position(ch2):
    with pytest.raises(ParseError) as err:
        ch2.parse("x1 +* x2")
    assert err.value.column == 5
    with pytest.raises(ParseError):
        ch2.parse("x3 + 1")
    with pytest.raises(ParseError):
        ch2.parse("q + 1")
    with pytest.raises(ParseError):
        ch2.parse("x1^x2")


# -- the 2-form beta = dt/(n+1) ----------------------------------------------

def _moved(n, rng, ups):
    """A random special connection changed by the 1-form ups, whose trace
    is then (n+1) ups, so that beta = d(ups)."""
    return projective_change(rand_special_connection(n, rng), ups)


def test_two_form_antisymmetry_enforced(rng):
    """beta_form is an antisymmetric ("d", "d") field."""
    for n in (2, 3):
        chart = Chart(n)
        conn = _moved(n, rng, [rand_poly(chart, rng, 3, 2) for _ in range(n)])
        beta = beta_form(conn)
        assert beta.variance == ("d", "d")
        assert not beta.is_zero()
        for a in range(n):
            for b in range(n):
                assert beta.get(a, b) == -beta.get(b, a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_d_squared_is_zero(n, rng):
    """beta_form of random non-special connections is closed: d(d ups) = 0
    for a random 1-form ups, and d(d f) = 0 (beta itself vanishes) for a
    random 0-form f."""
    chart = Chart(n)
    for _ in range(5):
        f = rand_poly(chart, rng, 3, 3)
        assert beta_form(_moved(
            n, rng, [f.diff(k + 1) for k in range(n)])).is_zero()
        conn = _moved(n, rng, [rand_poly(chart, rng, 3, 2) for _ in range(n)])
        assert not conn.is_special()
        assert is_closed(beta_form(conn))


# -- common denominators -----------------------------------------------------

def _sources_of_denominators():
    """Denominator lists from crafted and real inputs: repeats that are not
    the running lcm, constants, and the special symbols of the stereographic
    sphere and of a curved n = 2 round trip."""
    from projmet import levi_civita, specialize
    from projmet.models import sphere_stereographic_connection

    from conftest import rand_metric

    chart = Chart(2)
    x, y = chart.vars
    d1, d2, d3 = 1 + x * x, 1 + x + y, (1 + x * x) * (2 - y)
    crafted = [x / d1, chart.const(Fraction(1, 3)), y / d2, 1 / d1, x / d3,
               (x + y) / d2, chart.const(Fraction(1, 4)) * x, 1 / d3]
    out = [crafted]
    for conn in (sphere_stereographic_connection(3),
                 levi_civita(rand_metric(2, random.Random(7)))):
        special = specialize(conn)[0]
        out.append([e for plane in special.gamma for row in plane
                    for e in row if e])
    return out


def test_common_denominator_takes_one_gcd_per_distinct_denominator(
        monkeypatch):
    """The common denominator is the one the running-lcm fold gave, and it
    costs one gcd per distinct non-constant denominator after the first."""
    from projmet.exprcore import _common_denominator

    from oracles import common_denominator_by_running_lcm

    sources = _sources_of_denominators()
    expected = [common_denominator_by_running_lcm(exprs) for exprs in sources]
    calls = []
    poly_gcd = Poly.gcd

    def counted(self, other):
        calls.append(other)
        return poly_gcd(self, other)

    monkeypatch.setattr(Poly, "gcd", counted)
    counts = []
    for exprs, want in zip(sources, expected):
        calls.clear()
        assert _common_denominator(exprs) == want
        distinct = {e.den for e in exprs if not e.den.is_ground}
        assert len(calls) == len(distinct) - 1
        counts.append(len(distinct))
    # the crafted list repeats d1 and d2 after another denominator
    assert counts[0] == 3
    assert all(count > 1 for count in counts)
