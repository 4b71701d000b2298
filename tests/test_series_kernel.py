"""The integer series kernel of `projmet.exactseries` against the Fraction
oracle in `series_oracle`: every product, inverse, Taylor shift and
rational expansion must agree exactly, and every result must be in the
kernel's normal form."""

import random
from fractions import Fraction
from math import gcd

import pytest

from projmet import Chart
from projmet.exactseries import (Series, monomials_of_order, poly_to_series,
                                 rational_to_series, series_from_coeffs,
                                 series_inverse, series_mul)

import series_oracle
from series_oracle import as_fractions


def _check_normal(series):
    """Positive denominator, no zero numerator, lowest terms."""
    den, terms = series
    assert type(series) is Series and den > 0
    assert all(type(v) is int and v for v in terms.values())
    assert gcd(den, *terms.values()) == 1


def _rational(rng, big=False):
    den = rng.randint(1, 10**12) if big else rng.randint(1, 9)
    return Fraction(rng.randint(-9, 9), den)


def _coeffs(rng, n, order, density=0.5):
    """Random {mono: Fraction}; some coefficients cancel to zero, and the
    constant term may carry a large denominator."""
    out = {}
    for o in range(order + 1):
        for mono in monomials_of_order(n, o):
            if rng.random() < density:
                out[mono] = _rational(rng, big=(o == 0 and rng.random() < .3))
    if out and rng.random() < 0.3:
        # a coefficient written as a cancelling sum
        mono = rng.choice(sorted(out))
        out[mono] = out[mono] - out[mono]
    return out


def _point(rng, n):
    return [rng.choice([Fraction(0), Fraction(rng.randint(-3, 3)),
                        Fraction(rng.randint(-7, 7), rng.randint(1, 9))])
            for _ in range(n)]


def _oracle_nonzero(d):
    return {m: v for m, v in d.items() if v}


@pytest.mark.parametrize("seed", range(4))
def test_products_and_inverses_match_fraction_oracle(seed):
    rng = random.Random(1000 + seed)
    for _ in range(40):
        n = rng.randint(1, 4)
        order = rng.randint(0, 8 if n <= 2 else 5)
        a, b = _coeffs(rng, n, order), _coeffs(rng, n, order)
        sa, sb = series_from_coeffs(a), series_from_coeffs(b)
        _check_normal(sa)
        assert as_fractions(sa) == _oracle_nonzero(a)
        prod = series_mul(sa, sb, order)
        _check_normal(prod)
        assert as_fractions(prod) == _oracle_nonzero(
            series_oracle.series_mul(_oracle_nonzero(a), _oracle_nonzero(b),
                                     order))
        zero = (0,) * n
        if a.get(zero):
            inv = series_inverse(sa, n, order)
            _check_normal(inv)
            assert as_fractions(inv) == _oracle_nonzero(
                series_oracle.series_inverse(_oracle_nonzero(a), n, order))
            assert series_mul(sa, inv, order) == Series(1, {zero: 1})


@pytest.mark.parametrize("seed", range(4))
def test_taylor_shift_matches_fraction_oracle(seed):
    """poly_to_series at rational points, at the origin and at points
    mixing zero and nonzero coordinates."""
    rng = random.Random(2000 + seed)
    for _ in range(30):
        n = rng.randint(1, 4)
        order = rng.randint(0, 8)
        terms = [(mono, _rational(rng, big=rng.random() < 0.2))
                 for mono in {tuple(rng.randint(0, 5) for _ in range(n))
                              for _ in range(rng.randint(1, 6))}]
        for point in (_point(rng, n), [Fraction(0)] * n,
                      [Fraction(0) if k % 2 else Fraction(rng.randint(1, 5),
                                                          rng.randint(1, 4))
                       for k in range(n)]):
            got = poly_to_series(terms, point, order)
            _check_normal(got)
            assert as_fractions(got) == _oracle_nonzero(
                series_oracle.poly_to_series(terms, point, order))


def test_taylor_shift_at_zero_coordinates_copies_exponents(monkeypatch):
    """Where a coordinate of p is 0 the exponent is copied: binomials are
    taken only for the exponents of the nonzero coordinates."""
    from math import comb

    from projmet import exactseries

    calls = []

    def counted(e, k):
        calls.append(e)
        return comb(e, k)

    monkeypatch.setattr(exactseries, "comb", counted)
    terms = [((3, 0, 4), Fraction(5, 7)), ((0, 1, 0), Fraction(-2)),
             ((6, 2, 0), Fraction(1, 3))]
    got = poly_to_series(terms, [0, 0, 0], 7)
    assert as_fractions(got) == {(3, 0, 4): Fraction(5, 7),
                                 (0, 1, 0): Fraction(-2)}
    assert not calls
    point = [0, Fraction(1, 2), 0]
    got = poly_to_series(terms, point, 8)
    assert set(calls) == {1, 2}
    assert as_fractions(got) == _oracle_nonzero(
        series_oracle.poly_to_series(terms, point, 8))


@pytest.mark.parametrize("seed", range(3))
def test_rational_expansion_matches_fraction_oracle(seed):
    rng = random.Random(3000 + seed)
    for _ in range(20):
        n = rng.randint(1, 4)
        chart = Chart(n)
        order = rng.randint(0, 8 if n <= 2 else 5)
        point = _point(rng, n)

        def poly(degree):
            return chart.from_coeff_dict(
                {tuple(rng.randint(0, degree) for _ in range(n)):
                 _rational(rng) for _ in range(rng.randint(1, 4))})

        num, den = poly(3), poly(2)
        if not den or den.evaluate(point) == 0:
            den = den + 1 - den.evaluate(point)
        expr = num / den
        reciprocals = {}
        for _ in range(2):  # the second call reads the shared reciprocal
            got = rational_to_series(expr, point, order, reciprocals)
            _check_normal(got)
            assert as_fractions(got) == _oracle_nonzero(
                series_oracle.rational_to_series(expr, point, order))
