"""Metric reconstruction and all verification machinery."""

from fractions import Fraction
from itertools import product

import pytest

from projmet import (Chart, DegenerateSigma, DimensionTooSmall, NotEquivalent,
                     TensorField, constant_curvature_check, equivalence_defect,
                     geodesic_compare, is_levi_civita, levi_civita,
                     metric_inverse, projective_change, projective_equivalence,
                     reconstruct_metric, ricci, riemann_split,
                     write_trace_csv)
from projmet.metricize import (kappa_at, sampled_constant_curvature,
                               sampled_lc_residual)
from projmet.models import (euclidean_metric, flat_connection,
                            klein_connection, klein_metric,
                            sphere_gnomonic_connection, sphere_gnomonic_metric,
                            sphere_stereographic_connection,
                            sphere_stereographic_metric)

from conftest import rand_metric, rand_poly


def _delta_uu(chart):
    return TensorField.from_function(
        chart, ("u", "u"), lambda a, b: chart.one if a == b else chart.zero)


def test_reconstruct_identity_solution():
    chart = Chart(2)
    flat = flat_connection(2)
    cand = reconstruct_metric(_delta_uu(chart), flat)
    assert cand.det_sigma == chart.one
    assert cand.f.grad().is_zero()
    assert cand.connection == flat
    assert cand.g_up == _delta_uu(chart)
    assert cand.signature == (2, 0) and cand.definite


def test_reconstruct_constant_diagonal_rescale():
    chart = Chart(2)
    flat = flat_connection(2)
    sigma = TensorField(chart, ("u", "u"),
                        [chart.one, chart.zero, chart.zero, chart.const(4)])
    cand = reconstruct_metric(sigma, flat)
    assert cand.det_sigma == chart.const(4)
    assert [cand.g_up.get(i, i) for i in range(2)] == [chart.const(4), chart.const(16)]
    assert [cand.g_down.get(i, i) for i in range(2)] == \
        [chart.const(Fraction(1, 4)), chart.const(Fraction(1, 16))]
    # constant determinant: the gradient change vanishes, the connection stays flat
    assert cand.connection == flat


def test_reconstruct_klein_solution_exactly():
    chart = Chart(2)
    xs = chart.vars
    comps = []
    for i in range(2):
        for j in range(2):
            v = -xs[i] * xs[j]
            if i == j:
                v = v + 1
            comps.append(v)
    sigma = TensorField(chart, ("u", "u"), comps)
    cand = reconstruct_metric(sigma, flat_connection(2))
    gk_up = metric_inverse(klein_metric(2))
    assert cand.g_up == gk_up
    assert cand.connection == klein_connection(2)
    # the stored inverse pair multiplies to the identity exactly
    for i in range(2):
        for j in range(2):
            total = chart.zero
            for e in range(2):
                total = total + cand.g_up.get(i, e) * cand.g_down.get(e, j)
            assert total == (chart.one if i == j else chart.zero)
    ok, _ = is_levi_civita(cand.connection, cand.g_up)
    assert ok
    flag, kappa, dev = constant_curvature_check(cand.g_down)
    assert flag and kappa == -1 and dev == 0


def test_reconstruct_degenerate():
    chart = Chart(2)
    x = chart.var(1)
    sigma = TensorField(chart, ("u", "u"), [chart.one, x, x, x * x])
    with pytest.raises(DegenerateSigma):
        reconstruct_metric(sigma, flat_connection(2))


def test_reconstruct_indefinite_flagged():
    chart = Chart(2)
    sigma = TensorField(chart, ("u", "u"),
                        [chart.one, chart.zero, chart.zero, -chart.one])
    cand = reconstruct_metric(sigma, flat_connection(2))
    assert not cand.definite
    assert cand.signature == (1, 1)
    assert cand.warnings


@pytest.mark.parametrize("n,draws", [(2, 5), (3, 3)])
def test_flat_general_solutions_give_constant_curvature(n, draws, rng):
    """Positive definite members of the quadratic family reconstruct to
    constant-curvature metrics, exactly."""
    chart = Chart(n)
    xs = chart.vars
    from conftest import rand_fraction
    flat = flat_connection(n)
    done = 0
    while done < draws:
        s = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            s[i][i] = 1 + abs(rand_fraction(rng, 2, 4))
            for j in range(i + 1, n):
                s[i][j] = s[j][i] = rand_fraction(rng, 1, 8)
        m = [rand_fraction(rng, 1, 4) for _ in range(n)]
        r = rand_fraction(rng, 2, 2)
        comps = []
        for i in range(n):
            for j in range(n):
                val = chart.const(s[i][j]) + xs[i] * m[j] + xs[j] * m[i] \
                    + xs[i] * xs[j] * r
                comps.append(val)
        sigma = TensorField(chart, ("u", "u"), comps)
        try:
            cand = reconstruct_metric(sigma, flat)
        except DegenerateSigma:
            continue
        if not cand.definite:
            continue
        flag, kappa, dev = constant_curvature_check(
            cand.g_down, conn=cand.connection, g_up=cand.g_up)
        assert flag and dev == 0
        ok, _ = is_levi_civita(cand.connection, cand.g_up)
        assert ok
        done += 1


# -- Levi-Civita characterisation and construction -----------------------------

def test_is_levi_civita_definitional(rng):
    g = rand_metric(2, rng)
    conn = levi_civita(g)
    ok, res = is_levi_civita(conn, metric_inverse(g))
    assert ok
    assert res["trace_free"].is_zero() and res["volume"].is_zero()


def test_is_levi_civita_rejects_wrong_pair():
    ok, _ = is_levi_civita(flat_connection(2), metric_inverse(klein_metric(2)))
    assert not ok


def test_levi_civita_closed_forms():
    assert levi_civita(euclidean_metric(3)) == flat_connection(3)
    for n in (2, 3):
        assert levi_civita(sphere_stereographic_metric(n)) == \
            sphere_stereographic_connection(n)
        assert levi_civita(klein_metric(n)) == klein_connection(n)
        assert levi_civita(sphere_gnomonic_metric(n)) == \
            sphere_gnomonic_connection(n)


def test_sampled_lc_residual_consistency(rng):
    g = rand_metric(2, rng)
    conn = levi_civita(g)
    pts = [[Fraction(1, 8), Fraction(-1, 16)]]
    assert sampled_lc_residual(conn, metric_inverse(g), pts) < 1e-12
    assert sampled_lc_residual(flat_connection(2),
                               metric_inverse(klein_metric(2)), pts) > 1e-3


# -- projective equivalence -----------------------------------------------------

def test_equivalence_reflexive(rng):
    conn = klein_connection(2)
    ups = projective_equivalence(conn, conn)
    assert all(c.is_zero() for c in ups.components)


def test_equivalence_roundtrip(rng):
    chart = Chart(3)
    conn = flat_connection(3)
    ups = [rand_poly(chart, rng, 2, 2) for _ in range(3)]
    changed = projective_change(conn, ups)
    rec = projective_equivalence(conn, changed)
    for a in range(3):
        assert rec.components[a] == ups[a]


def test_equivalence_flat_klein():
    chart = Chart(2)
    x1, x2 = chart.vars
    r2 = x1 * x1 + x2 * x2
    ups = projective_equivalence(flat_connection(2), klein_connection(2))
    assert ups.components[0] == x1 / (1 - r2)
    assert ups.components[1] == x2 / (1 - r2)


def test_not_equivalent_reports_component():
    with pytest.raises(NotEquivalent) as err:
        projective_equivalence(flat_connection(2),
                               sphere_stereographic_connection(2))
    assert err.value.component is not None


def test_equivalence_defect_sampled():
    pts = [[Fraction(1, 8), Fraction(1, 16)]]
    assert equivalence_defect(flat_connection(2), klein_connection(2), pts) == 0
    assert equivalence_defect(flat_connection(2),
                              sphere_stereographic_connection(2), pts) > 1e-3


# -- Riemann decomposition -------------------------------------------------------

def test_riemann_split_flat():
    rs = riemann_split(euclidean_metric(3))
    assert rs.scalar.is_zero()
    assert rs.weyl_conformal.is_zero()
    assert rs.phi.is_zero()
    assert rs.schouten_metric.is_zero()


def test_riemann_split_constant_curvature_n3():
    for g, kappa in ((sphere_gnomonic_metric(3), 1), (klein_metric(3), -1)):
        rs = riemann_split(g)
        assert rs.weyl_conformal.is_zero()
        assert rs.phi.is_zero()
        assert rs.scalar == 6 * kappa  # n(n-1) kappa


def test_riemann_split_dimension_two():
    rs = riemann_split(sphere_stereographic_metric(2))
    assert rs.scalar == 2  # n(n-1) kappa with kappa = 1
    with pytest.raises(DimensionTooSmall):
        rs.weyl_conformal
    with pytest.raises(DimensionTooSmall):
        rs.phi


def test_riemann_split_random_metric_reassembles():
    """Construction verifies the reassembly and the relation between the
    projective and conformal Weyl tensors internally; here we also check
    the conformal part is totally trace-free with respect to g."""
    chart = Chart(3)
    x1, x2, _ = chart.vars
    pert = {(0, 0): x2 / 4, (0, 1): x1 / 8}
    comps = []
    for i in range(3):
        for j in range(3):
            val = chart.one if i == j else chart.zero
            p = pert.get((min(i, j), max(i, j)))
            if p is not None:
                val = val + p
            comps.append(val)
    g = TensorField(chart, ("d", "d"), comps)
    rs = riemann_split(g)
    n = 3
    g_up = metric_inverse(g)
    c = rs.weyl_conformal
    for b, d in product(range(n), repeat=2):
        assert sum((c.get(a, b, a, d) for a in range(n)),
                   start=chart.zero).is_zero()
    for a, b in product(range(n), repeat=2):
        val = chart.zero
        for cc, d in product(range(n), repeat=2):
            gu = g_up.get(cc, d)
            if not gu.is_zero():
                val = val + gu * c.get(a, cc, b, d)
        assert val.is_zero()


# -- constant curvature ----------------------------------------------------------

def test_constant_curvature_examples():
    assert constant_curvature_check(euclidean_metric(2)) == (True, 0, 0)
    assert constant_curvature_check(sphere_stereographic_metric(2))[:2] == (True, 1)
    assert constant_curvature_check(klein_metric(3))[:2] == (True, -1)


def test_constant_curvature_rejects_generic():
    chart = Chart(2)
    x1, x2 = chart.vars
    # curvature of this surface metric depends on x2, so it cannot be a
    # space form
    g = TensorField(chart, ("d", "d"),
                    [1 + x2 * x2 / 4, chart.zero, chart.zero, chart.one])
    flag, kappa, dev = constant_curvature_check(
        g, samples=[[Fraction(1, 8), Fraction(1, 16)], [Fraction(-1, 8), 0]])
    assert not flag


def test_sampled_constant_curvature_matches_exact():
    g = klein_metric(2)
    conn = klein_connection(2)
    pts = [[Fraction(1, 8), Fraction(1, 16)], [Fraction(-1, 16), Fraction(1, 8)]]
    flag, kappa, dev = sampled_constant_curvature(conn, metric_inverse(g), pts)
    assert flag and abs(kappa + 1) < 1e-12 and dev < 1e-12


def test_kappa_at_matches_scalar_curvature_field(rng):
    """kappa_at from values at one point equals R/(n(n-1)) of the symbolic
    Ricci tensor, exactly."""
    pt2 = [Fraction(1, 8), Fraction(-1, 16)]
    pt3 = pt2 + [Fraction(1, 12)]
    cases = [(euclidean_metric(2), pt2), (sphere_stereographic_metric(2), pt2),
             (klein_metric(3), pt3), (rand_metric(2, rng), pt2),
             (rand_metric(3, rng), pt3)]
    for g, pt in cases:
        n = g.chart.dim
        conn = levi_civita(g)
        g_up = metric_inverse(g)
        ric = ricci(conn)
        scalar = sum(g_up.get(a, b).evaluate(pt) * ric.get(a, b).evaluate(pt)
                     for a, b in product(range(n), repeat=2))
        assert kappa_at(conn, g_up, pt) == scalar / (n * (n - 1))
    assert kappa_at(klein_connection(3), metric_inverse(klein_metric(3)),
                    pt3) == -1


# -- geodesics --------------------------------------------------------------------

SEEDS = [([0.1, -0.05], [0.25, 0.075]), ([0.0, 0.2], [0.125, -0.25]),
         ([-0.1, 0.05], [0.2, 0.2])]


def test_geodesic_compare_reflexive():
    worst, traces = geodesic_compare(klein_connection(2), klein_connection(2),
                                     SEEDS)
    assert worst < 1e-12
    assert len(traces) == len(SEEDS)


def test_geodesic_compare_projective_change(rng):
    chart = Chart(2)
    conn = klein_connection(2)
    ups = [rand_poly(chart, rng, 2, 2), rand_poly(chart, rng, 2, 2)]
    changed = projective_change(conn, ups)
    worst, _ = geodesic_compare(conn, changed, SEEDS)
    assert worst < 1e-8


def test_geodesic_compare_detects_inequivalence():
    worst, _ = geodesic_compare(flat_connection(2),
                                sphere_stereographic_connection(2), SEEDS)
    assert worst > 1e-3


def test_trace_csv(tmp_path):
    _, traces = geodesic_compare(flat_connection(2), flat_connection(2),
                                 SEEDS[:1])
    path = tmp_path / "traces.csv"
    write_trace_csv(traces, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trajectory,t,x1,x2"
    assert len(lines) > 10
