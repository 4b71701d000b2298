"""The sparse polynomial kernel `exprcore.Poly` against sympy's
`PolyElement` and `FracField`, the oracles here and on no runtime path:
`cofactors` up to sign, `exquo`, the ring operations and the canonical
pair `_reduced` keeps, on seeded random polynomials in 1 to 4 variables."""

import random
from functools import cache

import pytest
from sympy import ZZ
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from projmet.exprcore import Chart, Poly, _cancelled, _reduced

from conftest import sympy_frac


@cache
def _ring(n):
    return ring(",".join(f"x{k}" for k in range(1, n + 1)), ZZ,
                order="grlex")[0]


def _sym(p, n):
    return _ring(n).from_dict(dict(p))


def _rand_poly(rng, n, terms=4, degree=3, bits=4):
    return Poly({m: c for m, c in (
        (tuple(rng.randint(0, degree) for _ in range(n)),
         rng.randint(-2 ** bits, 2 ** bits)) for _ in range(terms)) if c})


def _unit(n, k, e=1, c=1):
    return Poly({tuple(e if i == k else 0 for i in range(n)): c})


def _operands(rng, n):
    """Pairs (f, g) covering zero and constant operands, single terms, a
    negative leading coefficient with an integer content, high powers,
    large coefficients and planted common factors."""
    zero, one = Poly(), _unit(n, 0, 0)
    p, q, h = (_rand_poly(rng, n) or one for _ in range(3))
    x1 = _unit(n, 0)
    big = _rand_poly(rng, n, bits=200) or one
    yield from [(zero, zero), (zero, p), (p, zero), (one * -6, p * 4),
                (one * 3, zero), (_unit(n, n - 1, 2, -4), p),
                (p, _unit(n, 0, 1, 6) * _unit(n, n - 1, 2)),
                (-12 * p * h, 18 * q * h), (p * h * h, -q * h),
                (x1 ** 32 - one, x1 ** 16 - one), (x1 ** 32, x1 ** 32 + x1),
                ((x1 + one) ** 32, (x1 + one) ** 12 * (x1 - one)),
                (big * h, big * p), (big, q * h), (p, p), (p, -p),
                (p * q, q)]


def _same_up_to_sign(got, want):
    return (all(dict(a) == dict(b) for a, b in zip(got, want))
            or all(dict(-a) == dict(b) for a, b in zip(got, want)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cofactors_match_sympy_up_to_sign(n):
    rng = random.Random(6000 + n)
    checked = 0
    for _ in range(8):
        for f, g in _operands(rng, n):
            h, cff, cfg = f.cofactors(g)
            want = _sym(f, n).cofactors(_sym(g, n))
            assert _same_up_to_sign((h, cff, cfg), want), (f, g)
            assert all(type(p) is Poly and all(p.values())
                       for p in (h, cff, cfg))
            if f or g:
                assert h * cff == f and h * cfg == g
                assert dict(f.gcd(g)) in (dict(want[0]), dict(-want[0]))
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exquo_matches_sympy_and_refuses_a_remainder(n):
    rng = random.Random(7000 + n)
    for _ in range(8):
        for f, g in _operands(rng, n):
            if not g:
                continue
            prod = f * g
            assert prod.exquo(g) == f
            assert dict(_sym(prod, n).exquo(_sym(g, n))) == dict(f)
            if g.is_ground and abs(g.LC) == 1:
                continue
            # f g + r is not a multiple of g when r is a unit or has a
            # term that the leading term of g does not divide
            rest = _unit(n, 0, 0) if g.is_ground else g.diff(
                next(k for k in range(n) if any(m[k] for m in g)))
            rest = rest or _unit(n, 0, 0)
            with pytest.raises(ArithmeticError):
                (prod + rest).exquo(g)
            with pytest.raises(ExactQuotientFailed):
                _sym(prod + rest, n).exquo(_sym(g, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ring_operations_match_sympy(n):
    rng = random.Random(8000 + n)
    for _ in range(8):
        for f, g in _operands(rng, n):
            F, G = _sym(f, n), _sym(g, n)
            for got, want in [(f + g, F + G), (f - g, F - G), (f * g, F * G),
                              (-f, -F), (f * 3, F * 3), (-2 * g, G * -2),
                              (f ** 3, F ** 3), (g ** 2, G ** 2)]:
                assert type(got) is Poly and dict(got) == dict(want)
                assert all(got.values())
            for k in range(n):
                assert dict(f.diff(k)) == dict(F.diff(F.ring.gens[k]))
            assert f.LC == F.LC and f.terms() == list(F.terms())
            assert f.is_ground == F.is_ground
            assert f.content() == F.content()
            if f:
                c = f.content()
                assert dict(f.quo_ground(c)) == dict(F.quo_ground(c))
                assert f + 5 == f + Poly({(0,) * n: 5})
                assert 1 - f == -(f - 1)
            assert hash(f) == hash(Poly(dict(f)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_pair_matches_sympy_fraction_field(n):
    """`_cancelled` (one cofactors, then `_reduced`) gives the pair that
    sympy's `FracField.new` gives, and `_reduced` of the cofactors too."""
    chart = Chart(n)
    field = sympy_frac(chart.zero).field
    rng = random.Random(9000 + n)
    for _ in range(8):
        for f, g in _operands(rng, n):
            if not g:
                continue
            want = field.new(_sym(f, n), _sym(g, n))
            got = sympy_frac(_cancelled(chart, f, g))
            assert (got.numer, got.denom) == (want.numer, want.denom)
            _, a, b = f.cofactors(g)
            got = sympy_frac(_reduced(chart, a, b))
            assert (got.numer, got.denom) == (want.numer, want.denom)
