"""The exact series and linear algebra underpinning the jet solver."""

import operator
import random
from fractions import Fraction

import pytest

from projmet.exactlinalg import (adjugate, char_poly, fraction_free_rref,
                                 leibniz_det, nullspace, rank,
                                 solve_linear_system, symmetric_signature)
from projmet.exactseries import (monomials_of_order, poly_to_series,
                                 rational_to_series, series_add, series_diff,
                                 series_eval, series_inverse, series_mul,
                                 series_scale, series_to_coeff_dict)
from projmet import Chart, PoleAtBasePoint

from conftest import rand_poly


def test_monomials_of_order_counts():
    assert len(monomials_of_order(2, 3)) == 4
    assert len(monomials_of_order(3, 4)) == 15
    assert monomials_of_order(2, 0) == [(0, 0)]


def test_series_mul_inverse_roundtrip():
    rng = random.Random(3)
    n, order = 2, 7
    a = {(0, 0): Fraction(2)}
    for mono in monomials_of_order(n, 1) + monomials_of_order(n, 2):
        a[mono] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    inv = series_inverse(a, n, order)
    prod = series_mul(a, inv, order)
    assert prod == {(0, 0): Fraction(1)}


def test_poly_series_shift_and_eval(rng):
    chart = Chart(3)
    p = rand_poly(chart, rng, 3, 4)
    point = [Fraction(1, 2), Fraction(-1, 3), Fraction(2)]
    ser = poly_to_series(p.poly_terms(), point, 6)
    for u in ([0, 0, 0], [Fraction(1, 5), Fraction(-1, 7), Fraction(1, 2)]):
        x = [pi + ui for pi, ui in zip(point, u)]
        assert series_eval(ser, u) == p.evaluate(x)


def test_rational_series_matches_taylor():
    chart = Chart(2)
    x, y = chart.vars
    e = (1 + x) / (1 - y)
    ser = rational_to_series(e, [0, 0], 5)
    # geometric series in y times (1 + x)
    for k in range(6):
        assert ser.get((0, k), Fraction(0)) == 1
        if k < 5:
            assert ser.get((1, k), Fraction(0)) == 1
    with pytest.raises(PoleAtBasePoint):
        rational_to_series(x / (1 - y), [0, 1], 4)


def test_series_diff_and_coeff_dict_roundtrip(rng):
    chart = Chart(2)
    p = rand_poly(chart, rng, 3, 4)
    point = [Fraction(1, 3), Fraction(-1, 2)]
    ser = poly_to_series(p.poly_terms(), point, 8)
    back = chart.from_coeff_dict(series_to_coeff_dict(ser, point))
    assert back == p
    dser = series_diff(ser, 0)
    dback = chart.from_coeff_dict(series_to_coeff_dict(dser, point))
    assert dback == p.diff(1)


def test_fraction_free_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(rows) == 2
    ker = nullspace(rows, 3)
    assert len(ker) == 1
    v = ker[0]
    for row in rows:
        assert sum(Fraction(e) * x for e, x in zip(row, v)) == 0
    # fractions in, exact echelon out
    rowsf = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    assert rank(rowsf) == 1
    ech, pivots = fraction_free_rref(rowsf)
    assert pivots == [0]


def test_nullspace_of_empty_and_full():
    assert len(nullspace([], 4)) == 4
    assert nullspace([[1, 0], [0, 1]], 2) == []


def test_solve_linear_system_cases():
    assert solve_linear_system([[2, 0], [0, 4]], [1, 1]) == \
        [Fraction(1, 2), Fraction(1, 4)]
    assert solve_linear_system([[1, 1], [1, 1]], [1, 2]) is None
    # underdetermined: free variables pinned to zero
    sol = solve_linear_system([[1, 1, 0]], [3])
    assert sol[0] == 3 and sol[1] == 0


def test_char_poly_and_signature():
    m = [[2, 0], [0, -3]]
    assert char_poly(m) == [Fraction(1), Fraction(1), Fraction(-6)]
    assert symmetric_signature(m) == (1, 1, 0)
    assert symmetric_signature([[1, 0, 0], [0, 0, 0], [0, 0, 5]]) == (2, 0, 1)
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert symmetric_signature([[Fraction(1, 2), Fraction(1, 3)],
                                [Fraction(1, 3), Fraction(1, 2)]]) == (2, 0, 0)


def test_signature_random_vs_numpy(rng):
    import numpy as np

    for _ in range(10):
        n = rng.randint(2, 4)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[j][i] = m[i][j]
        pos, neg, zero = symmetric_signature(m)
        eig = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in m]))
        assert pos == sum(1 for e in eig if e > 1e-9)
        assert neg == sum(1 for e in eig if e < -1e-9)
        assert zero == sum(1 for e in eig if abs(e) <= 1e-9)


def test_leibniz_det_and_adjugate_agree_on_both_rings():
    """The one determinant/adjugate, run over RationalExpr and over series
    truncated at order 6, gives the Taylor series of the same matrices."""
    chart = Chart(3)
    rng = random.Random(11)
    origin = [Fraction(0)] * 3
    order = 6
    while True:
        upper = {(i, j): rand_poly(chart, rng, 2, 3) + (chart.const(i + 1)
                                                        if i == j else 0)
                 for i in range(3) for j in range(i, 3)}

        def entry(i, j):
            return upper[(min(i, j), max(i, j))]

        det = leibniz_det(entry, 3, chart.zero, operator.mul, operator.add,
                          operator.neg)
        if det.evaluate(origin) != 0:
            break
    adj = adjugate(entry, 3, chart.zero, operator.mul, operator.add,
                   operator.neg)
    for i in range(3):
        for j in range(3):
            prod = sum((entry(i, k) * adj(k, j) for k in range(3)),
                       chart.zero)
            assert prod == (det if i == j else chart.zero)

    ser = {ij: rational_to_series(e, origin, order) for ij, e in upper.items()}
    ring = ({}, lambda a, b: series_mul(a, b, order), series_add,
            lambda a: series_scale(a, -1))

    def ser_entry(i, j):
        return ser[(min(i, j), max(i, j))]

    assert leibniz_det(ser_entry, 3, *ring) == \
        rational_to_series(det, origin, order)
    ser_adj = adjugate(ser_entry, 3, *ring)
    for i in range(3):
        for j in range(3):
            assert ser_adj(i, j) == rational_to_series(adj(i, j), origin,
                                                       order)
