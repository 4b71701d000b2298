"""The exact series and linear algebra underpinning the jet solver."""

import operator
import random
from fractions import Fraction

import pytest

from projmet.exactlinalg import (adjugate, leibniz_det, nullspace,
                                 solve_linear_system, symmetric_signature)
from projmet.exactseries import (Series, monomials_of_order, poly_to_series,
                                 rational_to_series, series_add,
                                 series_inverse, series_mul, series_scale,
                                 series_to_coeff_dict)
from projmet import Chart, PoleAtBasePoint

from conftest import rand_poly
import linalg_oracle
from oracles import rank
from series_oracle import (as_fractions, poly_terms, series_diff, series_eval,
                           series_from_coeffs)
from linalg_oracle import (char_poly, descartes_signature, fraction_free_rref,
                           sparse)


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
    a = series_from_coeffs(a)
    inv = series_inverse(a, n, order)
    prod = series_mul(a, inv, order)
    assert prod == Series(1, {(0, 0): 1})


def test_poly_series_shift_and_eval(rng):
    chart = Chart(3)
    p = rand_poly(chart, rng, 3, 4)
    point = [Fraction(1, 2), Fraction(-1, 3), Fraction(2)]
    ser = poly_to_series(poly_terms(p), point, 6)
    for u in ([0, 0, 0], [Fraction(1, 5), Fraction(-1, 7), Fraction(1, 2)]):
        x = [pi + ui for pi, ui in zip(point, u)]
        assert series_eval(ser, u) == p.evaluate(x)


def _series_eval_by_powers(a, point):
    """The plain Fraction loop: the sum of v * u^e over the series."""
    total = Fraction(0)
    for k, v in a.items():
        term = v
        for e, x in zip(k, point):
            if e:
                term *= Fraction(x) ** e
        total += term
    return total


def test_series_eval_matches_power_loop():
    rng = random.Random(17)
    assert series_eval(Series(1, {}), [Fraction(1, 3), 2]) == 0
    for n in (1, 2, 3):
        for _ in range(15):
            ser = {}
            for order in range(rng.randint(0, 6)):
                for mono in monomials_of_order(n, order):
                    if rng.random() < 0.6:
                        ser[mono] = Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 12))
            point = [rng.choice([0, rng.randint(-3, 3),
                                 Fraction(rng.randint(-7, 7), rng.randint(1, 9))])
                     for _ in range(n)]
            got = series_eval(series_from_coeffs(ser), point)
            assert type(got) is Fraction
            assert got == _series_eval_by_powers(ser, point)


def test_rational_series_matches_taylor():
    chart = Chart(2)
    x, y = chart.vars
    e = (1 + x) / (1 - y)
    ser = as_fractions(rational_to_series(e, [0, 0], 5))
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
    ser = poly_to_series(poly_terms(p), point, 8)
    back = chart.from_coeff_dict(series_to_coeff_dict(ser, point))
    assert back == p
    dser = series_diff(ser, 0)
    dback = chart.from_coeff_dict(series_to_coeff_dict(dser, point))
    assert dback == p.diff(1)


def test_fraction_free_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(*sparse(rows)) == 2
    ker = nullspace(*sparse(rows, 3))
    assert len(ker) == 1
    v = ker[0]
    for row in rows:
        assert sum(Fraction(e) * x for e, x in zip(row, v)) == 0
    # fractions in, exact echelon out
    rowsf = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    assert rank(*sparse(rowsf)) == 1
    ech, pivots = fraction_free_rref(rowsf)
    assert pivots == [0]


def test_nullspace_of_empty_and_full():
    assert len(nullspace([], 4)) == 4
    assert nullspace(*sparse([[1, 0], [0, 1]], 2)) == []


def test_solve_linear_system_cases():
    assert solve_linear_system(*sparse([[2, 0], [0, 4]], rhs=[1, 1])) == \
        [Fraction(1, 2), Fraction(1, 4)]
    assert solve_linear_system(*sparse([[1, 1], [1, 1]], rhs=[1, 2])) is None
    # underdetermined: free variables pinned to zero
    sol = solve_linear_system(*sparse([[1, 1, 0]], rhs=[3]))
    assert sol[0] == 3 and sol[1] == 0


def _oracle_entry(rng):
    k = rng.random()
    if k < 0.45:
        return 0
    if k < 0.75:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _oracle_system(rng):
    """A random sparse rational system, often with dependent rows; the rhs
    is in the column space half of the time, else random (and then often
    inconsistent)."""
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
    rows = [[_oracle_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.4:
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = _oracle_entry(rng), _oracle_entry(rng)
            rows.insert(rng.randrange(len(rows) + 1),
                        [s * x + t * y for x, y in zip(a, b)])
    if rows and rng.random() < 0.1:
        rows = [[0] * ncols for _ in rows]
    if rows and rng.random() < 0.5:
        x = [_oracle_entry(rng) for _ in range(ncols)]
        rhs = [sum(Fraction(e) * v for e, v in zip(row, x)) for row in rows]
    else:
        rhs = [_oracle_entry(rng) for _ in rows]
    return rows, ncols, rhs


def test_elimination_matches_bareiss_oracle():
    fixed = [
        ([], 0, []), ([], 3, []), ([[]], 0, [1]), ([[0, 0], [0, 0]], 2, [0, 0]),
        ([[0, 0, 0]], 3, [1]),
        ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3, [1, 2, 5]),
        ([[1, 1], [1, 1]], 2, [1, 2]),
        ([[1, 1, 0]], 3, [3]),
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]],
         2, [Fraction(-2, 3), Fraction(-1, 3)]),
    ]
    rng = random.Random(11)
    cases = fixed + [_oracle_system(rng) for _ in range(3000)]
    for rows, ncols, rhs in cases:
        assert rank(*sparse(rows)) == linalg_oracle.rank(rows)
        for nc in (ncols, None):
            kernel = nullspace(*sparse(rows, nc))
            assert kernel == linalg_oracle.nullspace(rows, nc)
            assert all(type(v) is Fraction for vec in kernel for v in vec)
        sol = solve_linear_system(*sparse(rows, rhs=rhs))
        assert sol == linalg_oracle.solve_linear_system(rows, rhs)
        assert sol is None or all(type(v) is Fraction for v in sol)


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


def _random_symmetric(rng, n, kind):
    """A random rational symmetric n x n matrix: "full", "zero_diagonal",
    or "singular" (B^T E B with a rank-deficient B and a random diagonal
    E of either sign, so its rank is below n)."""
    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

    if kind == "singular":
        rank = rng.randint(0, n - 1)
        b = [[frac() for _ in range(n)] for _ in range(rank)]
        e = [frac() for _ in range(rank)]
        return [[sum(b[k][i] * e[k] * b[k][j] for k in range(rank))
                 for j in range(n)] for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or kind == "full":
                m[i][j] = m[j][i] = frac()
    return m


def test_signature_matches_char_poly_oracle():
    """Congruence diagonalisation against Descartes' rule on the
    characteristic polynomial, on random rational symmetric matrices with
    n <= 6: full ones, singular ones and ones with a zero diagonal."""
    rng = random.Random(23)
    kinds = {"full": 0, "zero_diagonal": 0, "singular": 0}
    for _ in range(60):
        for kind in kinds:
            m = _random_symmetric(rng, rng.randint(1, 6), kind)
            got = symmetric_signature(m)
            assert got == descartes_signature(m)
            kinds[kind] += got[2] > 0
    # the singular draws did exercise the zero count
    assert kinds["singular"] == 60
    # a zero diagonal with a nonzero off-diagonal entry, and a zero block
    # below a nonzero pivot
    assert symmetric_signature([[0, 0, 2], [0, 0, 0], [2, 0, 0]]) == (1, 1, 1)
    assert symmetric_signature([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == (1, 0, 2)
    assert symmetric_signature([]) == (0, 0, 0)


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
    ring = (Series(1, {}), lambda a, b: series_mul(a, b, order), series_add,
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
