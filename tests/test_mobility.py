"""Jet recursion, admissible spaces, transport cross-checks."""

from fractions import Fraction

import pytest

from projmet import (AffineConnection, Chart, NotSpecial, PoleAtBasePoint,
                     PoleOnPath, decompose_curvature, degree_of_mobility,
                     parallel_transport, residual, specialize)
from projmet.exactlinalg import nullspace, rank
from projmet.exactseries import series_eval
from projmet.models import (flat_connection, klein_connection,
                            nonmetrizable_witness,
                            sphere_stereographic_connection)
from projmet.tractor import section_dim, sym_pairs, tractor_curvature

from conftest import rand_fraction


def test_flat_dimensions_and_stabilization():
    js2 = degree_of_mobility(flat_connection(2), [0, 0], 4)
    assert js2.dim == 6
    assert js2.stabilized
    js3 = degree_of_mobility(flat_connection(3), [0, 0, 0], 4)
    assert js3.dim == 10
    assert js3.stabilized


def _flat_solution_series(n, s, m, r, order):
    """Taylor coefficients (at 0) of the flat general solution."""
    pairs = sym_pairs(n)
    N = section_dim(n)
    out = {}

    def bump(mono, idx, val):
        if not val:
            return
        vec = out.setdefault(mono, [Fraction(0)] * N)
        vec[idx] += val

    zero = (0,) * n
    for k, (i, j) in enumerate(pairs):
        bump(zero, k, s[i][j])
        ei = tuple(int(t == i) for t in range(n))
        ej = tuple(int(t == j) for t in range(n))
        bump(ej, k, m[i])
        bump(ei, k, m[j])
        mono = tuple(a + b for a, b in zip(ei, ej))
        bump(mono, k, r)
    off = len(pairs)
    for i in range(n):
        bump(zero, off + i, m[i])
        ei = tuple(int(t == i) for t in range(n))
        bump(ei, off + i, r)
    bump(zero, N - 1, r)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_flat_solution_space_is_the_quadratic_family(n, rng):
    """Membership both ways: every admissible basis solution matches the
    quadratic family determined by its initial values, and every family
    member's initial values lie in the admissible span."""
    js = degree_of_mobility(flat_connection(n), [0] * n, 4)
    N = section_dim(n)
    pairs = sym_pairs(n)
    assert js.dim == N
    for vec, ser in zip(js.admissible_basis, js.series):
        s = [[Fraction(0)] * n for _ in range(n)]
        for k, (i, j) in enumerate(pairs):
            s[i][j] = s[j][i] = vec[k]
        m = [vec[len(pairs) + i] for i in range(n)]
        r = vec[N - 1]
        predicted = _flat_solution_series(n, s, m, r, js.order)
        have = {mono: v for mono, v in ser.items() if any(v)}
        assert predicted == have
    # reverse inclusion: random family members solve the accumulated system
    basis_rows = [list(v) for v in js.admissible_basis]
    assert rank(basis_rows) == N
    for _ in range(5):
        s = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = rand_fraction(rng)
        m = [rand_fraction(rng) for _ in range(n)]
        r = rand_fraction(rng)
        init = [s[i][j] for i, j in pairs] + m + [r]
        assert rank(basis_rows + [init]) == N


def test_witness_dimension_zero_and_stabilized():
    js = degree_of_mobility(nonmetrizable_witness(), [0, 0], 8)
    assert js.dim == 0
    assert js.stabilized
    assert js.dims[0] == 6
    assert all(a >= b for a, b in zip(js.dims, js.dims[1:]))


def test_linear_perturbation_is_projectively_flat():
    """Gamma^1_22 = x1 has vanishing Cotton-York tensor, so it keeps the full
    six-dimensional solution space; only genuinely curved perturbations
    obstruct the system."""
    chart = Chart(2)
    conn = AffineConnection.from_components(chart, {(1, 2, 2): chart.var(1)})
    data = decompose_curvature(conn)
    assert data.cotton_york.is_zero()
    assert tractor_curvature(conn, data).is_zero()
    js = degree_of_mobility(conn, [0, 0], 8)
    assert js.dim == 6


@pytest.mark.parametrize("conn_factory,n,expected", [
    (lambda: specialize(sphere_stereographic_connection(2))[0], 2, 6),
    (lambda: specialize(sphere_stereographic_connection(3))[0], 3, 10),
    (lambda: specialize(klein_connection(2))[0], 2, 6),
])
def test_projectively_flat_models_have_full_mobility(conn_factory, n, expected):
    conn = conn_factory()
    js = degree_of_mobility(conn, [0] * n, 5)
    assert js.dim == expected
    assert js.stabilized


def test_dimension_nonincreasing_and_bounded(rng):
    from conftest import rand_special_connection
    for _ in range(3):
        conn = rand_special_connection(2, rng)
        js = degree_of_mobility(conn, [0, 0], 6)
        assert js.dims[0] == 6
        assert all(a >= b for a, b in zip(js.dims, js.dims[1:]))


def test_order2_constraints_match_curvature_kernel():
    """The first consistency constraints are exactly the kernel of the
    curvature action at the base point."""
    for conn in (nonmetrizable_witness(),
                 specialize(sphere_stereographic_connection(2))[0]):
        data = decompose_curvature(conn)
        js = degree_of_mobility(conn, [0, 0], 4, data)
        cur = tractor_curvature(conn, data)
        mat = cur.evaluate(0, 1, [0, 0])
        ker = nullspace([[Fraction(v) for v in row] for row in mat], section_dim(2))
        assert js.dims[2] == len(ker)


def test_base_point_independence():
    pts2 = [[0, 0], [Fraction(1, 4), Fraction(-1, 8)], [Fraction(-1, 3), 0]]
    for p in pts2:
        assert degree_of_mobility(flat_connection(2), p, 4).dim == 6
    special, _, _ = specialize(klein_connection(2))
    for p in pts2:
        assert degree_of_mobility(special, p, 4).dim == 6
    stereo, _, _ = specialize(sphere_stereographic_connection(2))
    for p in pts2:
        assert degree_of_mobility(stereo, p, 4).dim == 6


def test_errors():
    with pytest.raises(NotSpecial):
        degree_of_mobility(klein_connection(2), [0, 0], 4)
    chart = Chart(2)
    conn = AffineConnection.from_components(
        chart, {(1, 2, 2): chart.var(1) ** 2 / (1 - chart.var(1))})
    assert conn.is_special()
    with pytest.raises(PoleAtBasePoint):
        degree_of_mobility(conn, [1, 0], 4)


def test_not_stabilized_is_reported_not_fatal():
    # at the minimum order the witness dimensions are still falling
    js = degree_of_mobility(nonmetrizable_witness(), [0, 0], 2)
    assert not js.stabilized
    assert js.dim > 0  # an upper bound only


def test_input_metric_solution_lies_in_admissible_space():
    """For a volume-normalised metric the connection is already special and
    sigma = g^{bc} solves the system with zero velocity slot."""
    from projmet import TensorField, decompose_curvature
    from projmet.metricize import levi_civita, metric_inverse
    from projmet.tractor import TractorSection, tractor_derivative

    chart = Chart(2)
    x = chart.var(1)
    g = TensorField(chart, ("d", "d"), [1 + x * x, x, x, chart.one])
    conn = levi_civita(g)
    assert conn.is_special()
    data = decompose_curvature(conn)
    g_up = metric_inverse(g)
    # rho is forced by the trace of the middle equation once mu = 0
    n = 2
    rho_expr = chart.zero
    for a in range(n):
        for d in range(n):
            rho_expr = rho_expr + data.schouten.get(a, d) * g_up.get(a, d)
    rho_expr = rho_expr / n
    mu = TensorField(chart, ("u",), [chart.zero, chart.zero])
    sec = TractorSection(g_up, mu, TensorField.scalar(chart, rho_expr))
    top, mid, bot = tractor_derivative(conn, data, sec)
    assert top.is_zero() and mid.is_zero() and bot.is_zero()
    # the corresponding initial values lie in the admissible span
    js = degree_of_mobility(conn, [0, 0], 6, data)
    init = sec.values_at([0, 0])
    rows = [list(v) for v in js.admissible_basis]
    assert rank(rows + [init]) == rank(rows)


# -- residuals ----------------------------------------------------------------

def test_flat_residual_exactly_zero():
    flat = flat_connection(2)
    data = decompose_curvature(flat)
    js = degree_of_mobility(flat, [0, 0], 4, data)
    pts = [[Fraction(1, 3), Fraction(-1, 7)], [1, 2], [Fraction(-1, 2), Fraction(1, 2)]]
    for ser in js.series:
        assert residual(js, ser, pts) == 0


def test_klein_gauge_solutions_are_exact():
    """The Klein model's volume gauge is the flat connection, so its
    solutions are exact quadratics with identically zero residual, well
    inside the truncation tolerance."""
    special, _, _ = specialize(klein_connection(2))
    data = decompose_curvature(special)
    js = degree_of_mobility(special, [0, 0], 8, data)
    pts = [[Fraction(1, 2), 0], [Fraction(-1, 4), Fraction(1, 4)]]
    for ser in js.series:
        assert residual(js, ser, pts) == 0


def test_zero_section_residual_zero():
    js = degree_of_mobility(flat_connection(2), [0, 0], 2)
    zero_series = {(0, 0): [Fraction(0)] * 6}
    assert residual(js, zero_series, [[1, 1]]) == 0


def test_stereo_round_metric_solution_matches_binomial_series():
    """Independent oracle for an irrational solution: in the volume gauge of
    the stereographic sphere chart, the round metric's solution has sigma =
    (1 + r^2)^(2/3) delta / 4, whose Taylor coefficients are binomial
    numbers.  The jet solver must reproduce them exactly once the initial
    values are matched."""
    special, _, _ = specialize(sphere_stereographic_connection(2))
    data = decompose_curvature(special)
    js = degree_of_mobility(special, [0, 0], 8, data)
    assert js.dim == 6

    def binom(alpha, k):
        out = Fraction(1)
        for i in range(k):
            out *= (alpha - i) / (i + 1)
        return out

    # predicted sigma components: (1/4) sum_k C(2/3, k) (x1^2 + x2^2)^k delta
    predicted = {}
    for k in range(0, 5):
        c = binom(Fraction(2, 3), k) / 4
        for j in range(k + 1):
            # (x1^2)^j (x2^2)^(k-j) with multinomial coefficient C(k, j)
            mono = (2 * j, 2 * (k - j))
            predicted[mono] = c * binom(Fraction(k), j)

    # initial values: sigma(0) = delta/4, mu(0) = 0, rho(0) solved from the
    # order-one match of the predicted series
    from projmet.exactlinalg import solve_linear_system

    d = js.dim
    basis = js.admissible_basis
    rows = [[basis[l][i] for l in range(d)] for i in range(5)]
    target = [Fraction(1, 4), Fraction(0), Fraction(1, 4), Fraction(0), Fraction(0)]
    part = solve_linear_system(rows, target)
    kern = nullspace(rows, d)
    assert part is not None and len(kern) == 1

    def sigma_series(coords):
        out = {}
        for l, c in enumerate(coords):
            if not c:
                continue
            for mono, vec in js.series[l].items():
                if vec[0]:
                    out[mono] = out.get(mono, Fraction(0)) + c * vec[0]
        return {m: v for m, v in out.items() if v}

    # fix the free direction by matching the x1^2 coefficient of sigma^11
    base_val = sigma_series(part).get((2, 0), Fraction(0))
    kern_val = sigma_series(kern[0]).get((2, 0), Fraction(0))
    assert kern_val != 0
    t = (predicted[(2, 0)] - base_val) / kern_val
    coords = [p + t * k for p, k in zip(part, kern[0])]
    have = sigma_series(coords)
    want = {m: v for m, v in predicted.items() if sum(m) <= 8}
    assert have == want


def test_stereo_series_residual_decays_with_order():
    special, _, _ = specialize(sphere_stereographic_connection(2))
    data = decompose_curvature(special)
    pts = [[Fraction(1, 8), Fraction(-1, 16)]]
    js8 = degree_of_mobility(special, [0, 0], 8, data)
    js10 = degree_of_mobility(special, [0, 0], 10, data)
    r8 = residual(js8, js8.series[0], pts)
    r10 = residual(js10, js10.series[0], pts)
    assert float(r10) < float(r8) / 4


# -- parallel transport --------------------------------------------------------

def test_flat_loop_transport_is_identity():
    flat = flat_connection(2)
    data = decompose_curvature(flat)
    s0 = [1, 0, 2, 0, 0, 3]
    out = parallel_transport(flat, data,
                             [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], s0)
    assert max(abs(a - b) for a, b in zip(out, s0)) < 1e-10


def test_transport_matches_taylor_endpoint():
    special, _, _ = specialize(sphere_stereographic_connection(2))
    data = decompose_curvature(special)
    js = degree_of_mobility(special, [0, 0], 12, data)
    end = [Fraction(1, 8), 0]
    for k in (0, 3):
        s0 = js.admissible_basis[k]
        out = parallel_transport(special, data, [[0, 0], end], s0)
        comp = [{m: v[i] for m, v in js.series[k].items() if v[i]}
                for i in range(6)]
        taylor = [float(series_eval(c, end)) for c in comp]
        assert max(abs(a - b) for a, b in zip(out, taylor)) < 1e-7


def test_holonomy_matches_curvature_action():
    """Around a small square the transport deviation is h^2 times the
    curvature action, up to higher order; the ratio converges."""
    conn = nonmetrizable_witness()
    data = decompose_curvature(conn)
    cur = tractor_curvature(conn, data)
    p = [Fraction(1, 4), Fraction(1, 8)]
    s0 = [1, 0, 1, 0, 0, 1]
    mat = cur.evaluate(0, 1, p)
    action = [float(sum(Fraction(mat[i][j]) * s0[j] for j in range(6)))
              for i in range(6)]
    import math
    norm_action = math.sqrt(sum(v * v for v in action))
    assert norm_action > 0

    def loop_dev(h):
        path = [list(p),
                [p[0] + h, p[1]],
                [p[0] + h, p[1] + h],
                [p[0], p[1] + h],
                list(p)]
        out = parallel_transport(conn, data, path, s0, rel_tol=1e-12)
        return [o - v for o, v in zip(out, s0)]

    h = Fraction(1, 64)
    dev = loop_dev(h)
    scaled = [d / float(h) ** 2 for d in dev]
    norm_dev = math.sqrt(sum(v * v for v in scaled))
    assert abs(norm_dev - norm_action) <= 0.05 * norm_action
    cos = sum(a * b for a, b in zip(scaled, action)) / (norm_dev * norm_action)
    assert abs(cos) > 0.95


def test_transport_pole_on_path():
    chart = Chart(2)
    conn = AffineConnection.from_components(
        chart, {(1, 2, 2): chart.var(1) ** 2 / (1 - chart.var(1))})
    data = decompose_curvature(conn)
    with pytest.raises(PoleOnPath):
        parallel_transport(conn, data, [[0, 0], [1, 0]], [1, 0, 1, 0, 0, 0])
