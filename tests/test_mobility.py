"""Jet recursion, admissible spaces, transport cross-checks."""

import re
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest

from projmet import (AffineConnection, Chart, NotSpecial, PoleAtBasePoint,
                     PoleOnPath, decompose_curvature, degree_of_mobility,
                     parallel_transport, residual, specialize)
from projmet.exactlinalg import nullspace, rank
from projmet.cli import load_spec
from projmet.exactseries import series_eval, series_from_coeffs
from projmet.mobility import _expand_system
from projmet.models import (flat_connection, klein_connection,
                            nonmetrizable_witness,
                            sphere_stereographic_connection)
from projmet.tractor import (cleared_matrices, section_dim, sym_pairs,
                             tractor_curvature)

from conftest import rand_fraction
from jet_oracle import dense_jet_solve
from linalg_oracle import sparse
from oracles import connection_matrices_by_columns

DATA = Path(__file__).parent / "data"


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
    assert rank(*sparse(basis_rows)) == N
    for _ in range(5):
        s = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = rand_fraction(rng)
        m = [rand_fraction(rng) for _ in range(n)]
        r = rand_fraction(rng)
        init = [s[i][j] for i, j in pairs] + m + [r]
        assert rank(*sparse(basis_rows + [init])) == N


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
        ker = nullspace(*sparse([[Fraction(v) for v in row] for row in mat],
                                section_dim(2)))
        assert js.dims[2] == len(ker)


def test_base_point_independence():
    pts2 = [[0, 0], [Fraction(1, 4), Fraction(-1, 8)], [Fraction(-1, 3), 0]]
    for p in pts2:
        assert degree_of_mobility(flat_connection(2), p, 4).dim == 6
    special, _ = specialize(klein_connection(2))
    for p in pts2:
        assert degree_of_mobility(special, p, 4).dim == 6
    stereo, _ = specialize(sphere_stereographic_connection(2))
    for p in pts2:
        assert degree_of_mobility(stereo, p, 4).dim == 6


def test_errors():
    with pytest.raises(NotSpecial):
        degree_of_mobility(klein_connection(2), [0, 0], 4)
    chart = Chart(2)
    conn = AffineConnection.from_components(
        chart, {(1, 2, 2): chart.var(1) ** 2 / (1 - chart.var(1))})
    assert conn.is_special()
    # several matrix entries share the vanishing denominator 1 - x1
    message = "denominator vanishes at base point (Fraction(1, 1), Fraction(0, 1))"
    with pytest.raises(PoleAtBasePoint, match=re.escape(message)):
        degree_of_mobility(conn, [1, 0], 4)


def test_pole_with_vanishing_numerator_is_reported():
    """Gamma^3_12 = x1/x2 is coprime but 0/0 at the origin: still a pole."""
    chart = Chart(3)
    conn = AffineConnection.from_components(
        chart, {(3, 1, 2): chart.var(1) / chart.var(2)})
    assert conn.is_special()
    message = ("denominator vanishes at base point "
               "(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))")
    with pytest.raises(PoleAtBasePoint, match=re.escape(message)):
        degree_of_mobility(conn, [0, 0, 0], 4)


def _as_fractions(listed):
    return {mono: {(i, j): Fraction(c, den) for i, j, c in coeffs}
            for mono, den, coeffs in listed}


@pytest.mark.parametrize("point", [[0, 0, 0],
                                   [Fraction(1, 4), Fraction(-1, 8), 0]])
def test_expand_system_expands_each_component_once(monkeypatch, point):
    """Each component of the cleared system (the numerators times powers
    of D that make up the L_i and the entries of B_a = L_i A_a) is
    expanded once, and the integer Taylor data, read as Fractions, is
    L_i A_a / L_i(p) and L_i / L_i(p) beyond its constant term, as the
    Fraction series oracle expands L_i and the A_a of the column builder:
    per monomial one denominator in lowest terms, lowest order first."""
    import projmet.mobility as mobility
    import series_oracle

    special, _ = specialize(sphere_stereographic_connection(3))
    data = decompose_curvature(special)
    mats = connection_matrices_by_columns(special, data)
    system = cleared_matrices(special, data)
    components, L, _ = system
    order = 6
    expanded = []
    to_series = mobility.rational_to_series

    def counted_expansion(expr, *args):
        assert expr.is_polynomial()
        expanded.append(expr.num)
        return to_series(expr, *args)

    monkeypatch.setattr(mobility, "rational_to_series", counted_expansion)
    data_by_coord = _expand_system(special.chart, system, point, order)
    assert expanded == components
    assert len(set(components)) == len(components)
    assert len(set(L)) == 3

    zero = (0, 0, 0)
    l_series = [series_oracle.series_scale(series_oracle.poly_to_series(
        components[k].terms(), point, order), scale) for scale, k in L]
    l_at_p = [Fraction(ser[zero]) for ser in l_series]
    steps = {}
    for i, ser in enumerate(l_series):
        for mono, v in ser.items():
            if mono != zero:
                steps.setdefault(mono, {})[i, i] = v / l_at_p[i]
    for a, ((listed, by_mono, upto), lsteps) in enumerate(data_by_coord):
        want = {}
        for i, row in enumerate(mats[a]):
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                ser = series_oracle.series_mul(
                    l_series[i],
                    series_oracle.rational_to_series(entry, point, order),
                    order)
                for mono, v in ser.items():
                    want.setdefault(mono, {})[i, j] = v / l_at_p[i]
        assert _as_fractions(listed) == want
        assert _as_fractions(lsteps[0]) == steps
        for listing, index, counts in ((listed, by_mono, upto), lsteps):
            orders = [sum(mono) for mono, _, _ in listing]
            assert orders == sorted(orders)
            assert counts == [sum(k <= m for k in orders)
                              for m in range(order + 1)]
            assert index == {mono: (den, coeffs)
                             for mono, den, coeffs in listing}
            for mono, den, coeffs in listing:
                assert den > 0
                assert gcd(den, *(c for _, _, c in coeffs)) == 1


def test_jet_solve_inverts_no_series_and_takes_no_gcd(monkeypatch):
    """On the D2 input, whose symbols have a nonconstant denominator, the
    jet solve neither inverts a series nor cancels a fraction."""
    from projmet import exactseries
    from projmet.exprcore import Poly

    special, _ = specialize(load_spec(str(DATA / "liouville_d1_d2.json"))[0])
    data = decompose_curvature(special)
    assert not special.common[1].is_ground

    def forbidden(*args, **kwargs):
        raise AssertionError("series inverse or gcd in the jet solve")

    monkeypatch.setattr(exactseries, "series_inverse", forbidden)
    monkeypatch.setattr(Poly, "cofactors", forbidden)
    js = degree_of_mobility(special, [0, 0], 12, data)
    assert js.dims == [6, 6, 5] + [4] * 10


def _counted_predictions(monkeypatch):
    """Record the coefficient (alpha + e_a) of every jet prediction."""
    import projmet.mobility as mobility

    predicted = []
    predict = mobility._predict

    def counted(terms, coeff, alpha, a, N):
        predicted.append(alpha[:a] + (alpha[a] + 1,) + alpha[a + 1:])
        return predict(terms, coeff, alpha, a, N)

    monkeypatch.setattr(mobility, "_predict", counted)
    return predicted


def test_flat_structure_predicts_each_coefficient_once(monkeypatch):
    """Klein is projectively flat, so the prolonged curvature vanishes and
    all predictions of a Taylor coefficient agree: each is made once, and
    no constraint row or elimination is needed."""
    import projmet.mobility as mobility

    def forbidden(*args, **kwargs):
        raise AssertionError("constraint rows built on a flat structure")

    monkeypatch.setattr(mobility, "_difference_rows", forbidden)
    monkeypatch.setattr(mobility, "nullspace", forbidden)
    predicted = _counted_predictions(monkeypatch)
    special, _ = specialize(klein_connection(4))
    js = degree_of_mobility(special, [0] * 4, 6)
    assert js.dims == [15] * 7
    # every monomial of order 1..6 in four variables, once
    assert len(predicted) == len(set(predicted)) == comb(6 + 4, 4) - 1


def test_curved_structure_compares_predictions(monkeypatch):
    """The D3 input is curved: repeated predictions are compared, their
    differences become constraint rows, and the dimensions match the dense
    recursion."""
    import projmet.mobility as mobility

    made = []
    difference_rows = mobility._difference_rows

    def counted(*args):
        rows = difference_rows(*args)
        made.extend(rows)
        return rows

    monkeypatch.setattr(mobility, "_difference_rows", counted)
    predicted = _counted_predictions(monkeypatch)
    special, _ = specialize(load_spec(str(DATA / "liouville_d3.json"))[0])
    js = degree_of_mobility(special, [0, 0], 6)
    assert made
    assert len(predicted) > len(set(predicted))
    assert js.dims == dense_jet_solve(special, [0, 0], 6)[0]
    assert js.dims[-1] < js.dims[0]


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
    from projmet.tractor import TractorSection
    from oracles import tractor_derivative, values_at

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
    init = values_at(sec, [0, 0])
    rows = [list(v) for v in js.admissible_basis]
    assert rank(*sparse(rows + [init])) == rank(*sparse(rows))


# -- residuals ----------------------------------------------------------------

def _basis_slots(js):
    """Each basis solution of the jet solve as one Series per packed slot,
    the form `residual` reads."""
    return [js.combine([int(k == l) for k in range(js.dim)])
            for l in range(js.dim)]


def test_combine_matches_the_fraction_series(rng):
    """`combine` reads a combination of the basis solutions off the
    integer rows; it equals the combination of the Fraction series, slot
    by slot, in lowest terms."""
    special, _ = specialize(sphere_stereographic_connection(2))
    js = degree_of_mobility(special, [Fraction(1, 3), 0], 6)
    N = section_dim(2)
    for _ in range(4):
        coords = [rand_fraction(rng) for _ in range(js.dim)]
        want = [{} for _ in range(N)]
        for c, ser in zip(coords, js.series):
            for mono, vec in ser.items():
                for i, v in enumerate(vec):
                    want[i][mono] = want[i].get(mono, 0) + c * v
        assert js.combine(coords) == [series_from_coeffs(w) for w in want]
    assert js.combine([0] * js.dim) == [series_from_coeffs({})] * N


def test_flat_residual_exactly_zero():
    flat = flat_connection(2)
    data = decompose_curvature(flat)
    js = degree_of_mobility(flat, [0, 0], 4, data)
    pts = [[Fraction(1, 3), Fraction(-1, 7)], [1, 2], [Fraction(-1, 2), Fraction(1, 2)]]
    for slots in _basis_slots(js):
        assert residual(js, slots, pts) == 0


def test_klein_gauge_solutions_are_exact():
    """The Klein model's volume gauge is the flat connection, so its
    solutions are exact quadratics with identically zero residual, well
    inside the truncation tolerance."""
    special, _ = specialize(klein_connection(2))
    data = decompose_curvature(special)
    js = degree_of_mobility(special, [0, 0], 8, data)
    pts = [[Fraction(1, 2), 0], [Fraction(-1, 4), Fraction(1, 4)]]
    for slots in _basis_slots(js):
        assert residual(js, slots, pts) == 0


def test_residual_evaluates_each_component_at_most_once_per_point(
        monkeypatch):
    """The values of the cleared components at a sample point are shared
    by every candidate of one jet solve: the rows of a point are built
    once, from one value of each component of the jet solve's cleared
    system and no RationalExpr, and the residuals do not change."""
    import projmet.mobility as mobility
    from projmet.exprcore import RationalExpr

    special, _ = specialize(sphere_stereographic_connection(2))
    js = degree_of_mobility(special, [0, 0], 6)
    components = js.system[0]
    assert any(not c.is_ground for c in components)
    pts = [[Fraction(1, 8), Fraction(-1, 16)], [Fraction(-1, 16), 0]]
    fresh = []
    for slots in _basis_slots(js):
        fresh.append(residual(js, slots, pts))
        js.point_rows.clear()
    points, evaluated = [], []
    rows_at, value = mobility._rows_at, mobility._scaled_value

    def counted_rows(system, x):
        points.append(x)
        return rows_at(system, x)

    def counted_value(terms, *args):
        evaluated.extend(k for k, c in enumerate(components) if c is terms)
        return value(terms, *args)

    def forbidden(*args):
        raise AssertionError("RationalExpr evaluated in the residual")

    monkeypatch.setattr(mobility, "_rows_at", counted_rows)
    monkeypatch.setattr(mobility, "_scaled_value", counted_value)
    monkeypatch.setattr(RationalExpr, "evaluate", forbidden)
    assert [residual(js, slots, pts) for slots in _basis_slots(js)] == fresh
    assert points == [tuple(map(Fraction, x)) for x in pts]
    assert evaluated == list(range(len(components))) * len(pts)
    assert len(fresh) > 1


def _pole_connection():
    """A special connection with the common denominator D = x1 - 1, which
    is negative near the origin and vanishes on x1 = 1."""
    chart = Chart(2)
    x = chart.var(1)
    return AffineConnection.from_components(
        chart, {(1, 2, 2): x ** 2 / (1 - x)})


def test_residual_raises_pole_error_where_d_vanishes():
    """A sample point where the common denominator D of the symbols
    vanishes is a pole of every L_i: the residual raises PoleError, as the
    connection's own entries do there.  Where D < 0 it is still the
    symbolic defect."""
    from projmet.errors import PoleError

    conn = _pole_connection()
    D = conn.common[1]
    assert conn.is_special() and D.LC > 0 > D[(0, 0)]
    data = decompose_curvature(conn)
    js = degree_of_mobility(conn, [0, 0], 3, data)
    mats = connection_matrices_by_columns(conn, data)
    pts = [[Fraction(1, 2), 0], [Fraction(-1, 3), Fraction(1, 5)]]
    slots = js.combine([1] * js.dim)
    assert residual(js, slots, pts) == _symbolic_defect(js, mats, slots,
                                                        pts) > 0
    with pytest.raises(PoleError, match="denominator vanishes"):
        residual(js, slots, [[1, Fraction(1, 3)]])
    with pytest.raises(PoleError):
        conn.gamma[0][1][1].evaluate([1, Fraction(1, 3)])


def _symbolic_defect(js, mats, slots, pts):
    """The largest slot of d_a s + A_a(x) s over the points, through
    `series_diff`, `series_eval` and the entries of the matrices mats."""
    from projmet.exactseries import series_diff

    want = Fraction(0)
    for x in pts:
        u = [xv - pv for xv, pv in zip(x, js.base_point)]
        vals = [series_eval(s, u) for s in slots]
        for a, mat in enumerate(mats):
            for i, row in enumerate(mat):
                acc = series_eval(series_diff(slots[i], a), u) + sum(
                    e.evaluate(x) * v for e, v in zip(row, vals) if v)
                want = max(want, abs(acc))
    return want


def test_residual_matches_the_symbolic_defect(rng):
    """The residual is the largest slot of d_a s + A_a(x) s, with the
    slots' partials and the matrices evaluated independently: through
    `series_diff`, `series_eval` and the column builder's matrices."""
    special, _ = specialize(sphere_stereographic_connection(2))
    data = decompose_curvature(special)
    js = degree_of_mobility(special, [Fraction(1, 5), 0], 5, data)
    mats = connection_matrices_by_columns(special, data)
    pts = [[Fraction(1, 4), Fraction(-1, 16)], [Fraction(1, 7), Fraction(1, 9)]]
    for _ in range(3):
        slots = js.combine([rand_fraction(rng) for _ in range(js.dim)])
        assert residual(js, slots, pts) == _symbolic_defect(js, mats, slots,
                                                            pts) > 0


def test_zero_section_residual_zero():
    js = degree_of_mobility(flat_connection(2), [0, 0], 2)
    zero_slots = [series_from_coeffs({})] * 6
    assert residual(js, zero_slots, [[1, 1]]) == 0


def test_stereo_round_metric_solution_matches_binomial_series():
    """Independent oracle for an irrational solution: in the volume gauge of
    the stereographic sphere chart, the round metric's solution has sigma =
    (1 + r^2)^(2/3) delta / 4, whose Taylor coefficients are binomial
    numbers.  The jet solver must reproduce them exactly once the initial
    values are matched."""
    special, _ = specialize(sphere_stereographic_connection(2))
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
    part = solve_linear_system(*sparse(rows, rhs=target))
    kern = nullspace(*sparse(rows, d))
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
    special, _ = specialize(sphere_stereographic_connection(2))
    data = decompose_curvature(special)
    pts = [[Fraction(1, 8), Fraction(-1, 16)]]
    js8 = degree_of_mobility(special, [0, 0], 8, data)
    js10 = degree_of_mobility(special, [0, 0], 10, data)
    r8 = residual(js8, _basis_slots(js8)[0], pts)
    r10 = residual(js10, _basis_slots(js10)[0], pts)
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
    special, _ = specialize(sphere_stereographic_connection(2))
    data = decompose_curvature(special)
    js = degree_of_mobility(special, [0, 0], 12, data)
    end = [Fraction(1, 8), 0]
    for k in (0, 3):
        s0 = js.admissible_basis[k]
        out = parallel_transport(special, data, [[0, 0], end], s0)
        comp = [series_from_coeffs({m: v[i] for m, v in js.series[k].items()})
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
