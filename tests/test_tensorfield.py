"""Tensor bookkeeping: the trace-free projection and its invariance."""

from itertools import product

import pytest

from projmet import (Chart, ShapeError, TensorField,
                     contract, covariant_derivative, projective_change,
                     trace_free_part)

from conftest import rand_poly, rand_special_connection, rand_vector_field
from oracles import add, kron_delta, outer, scale, sub, zeros


def _random_symmetric_duu(chart, rng):
    n = chart.dim
    comps = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                p = rand_poly(chart, rng, 2, 2)
                comps[a][b][c] = p
                comps[a][c][b] = p
    flat = [comps[a][b][c] for a in range(n) for b in range(n) for c in range(n)]
    return TensorField(chart, ("d", "u", "u"), flat)


def test_pure_trace_input_projects_to_zero(rng):
    chart = Chart(3)
    n = 3
    v = rand_vector_field(chart, rng)
    comps = []
    for a, b, c in product(range(n), repeat=3):
        val = chart.zero
        if a == b:
            val = val + v.get(c)
        if a == c:
            val = val + v.get(b)
        comps.append(val)
    t = TensorField(chart, ("d", "u", "u"), comps)
    assert trace_free_part(t).is_zero()


def test_trace_free_input_unchanged(rng):
    chart = Chart(3)
    t = _random_symmetric_duu(chart, rng)
    once = trace_free_part(t)
    assert trace_free_part(once) == once


def test_output_contractions_vanish(rng):
    chart = Chart(3)
    t = _random_symmetric_duu(chart, rng)
    out = trace_free_part(t)
    assert contract(out, 1, 0).is_zero()
    assert contract(out, 2, 0).is_zero()


def test_projection_is_linear(rng):
    chart = Chart(2)
    t1 = _random_symmetric_duu(chart, rng)
    t2 = _random_symmetric_duu(chart, rng)
    lhs = add(trace_free_part(t1), trace_free_part(t2))
    rhs = trace_free_part(add(t1, t2))
    assert lhs == rhs


def test_trace_free_shape_errors():
    chart = Chart(2)
    with pytest.raises(ShapeError):
        trace_free_part(zeros(chart, ("d", "d", "u")))
    bad = TensorField.from_function(
        chart, ("d", "u", "u"),
        lambda a, b, c: chart.var(1) if (b, c) == (0, 1) else chart.zero)
    with pytest.raises(ShapeError):
        trace_free_part(bad)


def _random_symmetric_uu(chart, rng):
    n = chart.dim
    comps = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            p = rand_poly(chart, rng, 2, 2)
            comps[a][b] = p
            comps[b][a] = p
    return TensorField(chart, ("u", "u"),
                       [comps[a][b] for a in range(n) for b in range(n)])


@pytest.mark.parametrize("n", [2, 3])
def test_metrizability_operator_is_projectively_invariant(n, rng):
    """Rescaled solution through the changed connection equals the rescaled
    image: with e^{-2f} factored out of both sides, the derivative of the
    factor, -2 df (x) sigma, is written out, and the components match
    exactly."""
    chart = Chart(n)
    for _ in range(6):
        conn = rand_special_connection(n, rng)
        sigma = _random_symmetric_uu(chart, rng)
        f = rand_poly(chart, rng, 2, 2)
        df = [f.diff(k + 1) for k in range(n)]
        changed = projective_change(conn, df)
        dfield = TensorField(chart, ("d",), df)
        lhs = sub(trace_free_part(covariant_derivative(sigma, changed)),
                  scale(trace_free_part(outer(dfield, sigma)), 2))
        rhs = trace_free_part(covariant_derivative(sigma, conn))
        assert lhs == rhs


def test_contract_and_outer_roundtrip(rng):
    chart = Chart(3)
    delta = kron_delta(chart)
    v = rand_vector_field(chart, rng)
    dv = outer(delta, v)  # delta_a^b v^c
    tr = contract(dv, 0, 1)  # = n * v
    assert tr == scale(v, 3)
