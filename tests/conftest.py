"""Shared generators and independent oracles for the test suite."""

import random
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
import sympy.polys.fields
from sympy import ZZ

from projmet import (AffineConnection, Chart, TensorField,
                     covariant_derivative, levi_civita)


def rand_fraction(rng, bound=3, den=4):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def rand_poly(chart, rng, max_degree=2, terms=2, bound=3, den=4):
    """Sparse random polynomial with small rational coefficients."""
    n = chart.dim
    acc = chart.zero
    for _ in range(terms):
        c = rand_fraction(rng, bound, den)
        if c == 0:
            continue
        mono = chart.const(c)
        degree = rng.randint(0, max_degree)
        for _ in range(degree):
            mono = mono * chart.var(rng.randint(1, n))
        acc = acc + mono
    return acc


def rand_special_connection(n, rng, entries=2, max_degree=2):
    """Random volume-preserving connection.

    Components Gamma^c_ab with c distinct from both lower indices never
    contribute to the Christoffel trace, so sparse choices of that shape
    keep the connection special without any correction step.
    """
    chart = Chart(n)
    slots = [(c, a, b) for c in range(1, n + 1)
             for a in range(1, n + 1) for b in range(a, n + 1)
             if c != a and c != b]
    rng.shuffle(slots)
    comps = {}
    for slot in slots[:entries]:
        p = rand_poly(chart, rng, max_degree=max_degree, terms=2)
        if not p.is_zero():
            comps[slot] = p
    if not comps:
        c, a, b = slots[0]
        comps[(c, a, b)] = chart.var(1) * chart.var(1)
    return AffineConnection.from_components(chart, comps)


def rand_exact_oneform(chart, rng, max_degree=2):
    """Gradient of a random polynomial (an exact 1-form), as a tuple."""
    f = rand_poly(chart, rng, max_degree=max_degree, terms=3)
    return f, tuple(f.diff(k + 1) for k in range(chart.dim))


def rand_metric(n, rng, scale=Fraction(1, 4), max_degree=2):
    """delta plus a small random polynomial perturbation, positive definite
    near the origin."""
    chart = Chart(n)
    pert = {}
    for i in range(n):
        for j in range(i, n):
            p = rand_poly(chart, rng, max_degree=max_degree, terms=2,
                          bound=2, den=4)
            pert[(i, j)] = p * scale
    comps = []
    for i in range(n):
        for j in range(n):
            val = chart.one if i == j else chart.zero
            val = val + pert[(min(i, j), max(i, j))]
            comps.append(val)
    return TensorField(chart, ("d", "d"), comps)


def warped_product_connection():
    """Levi-Civita connection of dx1^2 + (1 + x1^2/4) dx2^2 + dx3^2, whose
    curvature is not constant, so its projective class is not flat."""
    chart = Chart(3)
    x1 = chart.var(1)
    one, z = chart.one, chart.zero
    return levi_civita(TensorField(chart, ("d", "d"), [
        one, z, z, z, one + x1 * x1 / 4, z, z, z, one]))


def rand_vector_field(chart, rng, max_degree=2):
    n = chart.dim
    return TensorField(chart, ("u",),
                       [rand_poly(chart, rng, max_degree=max_degree, terms=2)
                        for _ in range(n)])


def ricci_by_commutator(conn, x_field):
    """(grad_b grad_a - grad_a grad_b) X^b contracted: the defining property
    of the Ricci tensor, built only from covariant_derivative."""
    chart = conn.chart
    n = chart.dim
    second = covariant_derivative(covariant_derivative(x_field, conn), conn)
    comps = []
    for a in range(n):
        val = chart.zero
        for b in range(n):
            val = val + second.get(b, a, b) - second.get(a, b, b)
        comps.append(val)
    return comps


def riemann_by_commutator(conn, x_field):
    """(grad_a grad_b - grad_b grad_a) X^c as a field; equals R_ab^c_d X^d."""
    chart = conn.chart
    n = chart.dim
    second = covariant_derivative(covariant_derivative(x_field, conn), conn)
    comps = [second.get(a, b, c) - second.get(b, a, c)
             for a, b, c in product(range(n), repeat=3)]
    return TensorField(chart, ("d", "d", "u"), comps)


@pytest.fixture
def rng():
    return random.Random(20240817)


@cache
def _sympy_field(n):
    names = ",".join(f"x{k}" for k in range(1, n + 1))
    return sympy.polys.fields.field(names, ZZ, order="grlex")[0]


def sympy_frac(e):
    """The RationalExpr `e` as an element of sympy's field ZZ(x1..xn) in
    grlex order, with the same numerator and denominator: the oracle of
    the tests that compare the arithmetic with sympy's.  Its `.field`
    gives the field."""
    qf = _sympy_field(e.chart.dim)
    return qf.raw_new(qf.ring.from_dict(dict(e.num)),
                      qf.ring.from_dict(dict(e.den)))
