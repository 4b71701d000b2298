"""Reference connections used by the tests, the demos and the benchmark.

The flat connection, the Levi-Civita connections of the Beltrami-Klein
ball and of the unit sphere in stereographic and in central-projection
coordinates, all with exact rational Christoffel symbols, and a
non-metrizable witness.  The Beltrami-Klein ball and the gnomonic sphere
chart have pure-trace Christoffel symbols, so their geodesics are straight
lines and their special-gauge representative is the flat connection.
"""

from .exprcore import Chart
from .projconn import AffineConnection

__all__ = [
    "flat_connection",
    "klein_connection",
    "sphere_stereographic_connection",
    "sphere_gnomonic_connection",
    "nonmetrizable_witness",
]


def _radius2(chart):
    r2 = chart.zero
    for x in chart.vars:
        r2 = r2 + x * x
    return r2


def flat_connection(n):
    return AffineConnection.flat(Chart(n))


def klein_connection(n):
    """Levi-Civita connection of the Beltrami-Klein ball, curvature -1,
    g_ab = delta_ab/(1-r^2) + x_a x_b/(1-r^2)^2 on r < 1:
    Gamma^c_ab = (delta_a^c x_b + delta_b^c x_a)/(1-r^2), pure trace."""
    chart = Chart(n)
    r2 = _radius2(chart)
    den = chart.one - r2

    def comp(c, a, b):
        val = chart.zero
        if a == c:
            val = val + chart.vars[b] / den
        if b == c:
            val = val + chart.vars[a] / den
        return val

    g = [[[comp(c, a, b) for b in range(n)] for a in range(n)] for c in range(n)]
    return AffineConnection(chart, g)


def sphere_stereographic_connection(n):
    """Levi-Civita connection of the unit sphere in stereographic
    coordinates, curvature +1, g_ab = 4 delta_ab/(1+r^2)^2:
    Gamma^c_ab = -2(delta_a^c x_b + delta_b^c x_a - delta_ab x^c)/(1+r^2)."""
    chart = Chart(n)
    r2 = _radius2(chart)
    den = chart.one + r2
    two = chart.const(2)

    def comp(c, a, b):
        val = chart.zero
        if a == c:
            val = val + chart.vars[b]
        if b == c:
            val = val + chart.vars[a]
        if a == b:
            val = val - chart.vars[c]
        return -two * val / den

    g = [[[comp(c, a, b) for b in range(n)] for a in range(n)] for c in range(n)]
    return AffineConnection(chart, g)


def sphere_gnomonic_connection(n):
    """Levi-Civita connection of the unit sphere in central-projection
    coordinates, curvature +1, g_ab = delta_ab/(1+r^2) - x_a x_b/(1+r^2)^2:
    Gamma^c_ab = -(delta_a^c x_b + delta_b^c x_a)/(1+r^2), pure trace."""
    chart = Chart(n)
    r2 = _radius2(chart)
    den = chart.one + r2

    def comp(c, a, b):
        val = chart.zero
        if a == c:
            val = val - chart.vars[b] / den
        if b == c:
            val = val - chart.vars[a] / den
        return val

    g = [[[comp(c, a, b) for b in range(n)] for a in range(n)] for c in range(n)]
    return AffineConnection(chart, g)


def nonmetrizable_witness():
    """Flat plane perturbed by Gamma^1_22 = x1^2 and Gamma^2_11 = x2.

    Volume preserving as written, not projectively flat, and the jet
    constraints kill every solution of the metrizability system by order 6,
    so the degree of mobility is exactly zero.

    A single linear perturbation such as Gamma^1_22 = x1 would not do: its
    Cotton-York tensor vanishes identically, so that structure is
    projectively flat and keeps the full solution space (see test_mobility).
    """
    chart = Chart(2)
    return AffineConnection.from_components(chart, {
        (1, 2, 2): chart.var(1) ** 2,
        (2, 1, 1): chart.var(2),
    })
