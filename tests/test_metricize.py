"""Metric reconstruction and all verification machinery."""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from projmet import (AffineConnection, Chart, DegenerateSigma,
                     NotEquivalent, PoleError, PoleOnPath, TensorField,
                     constant_curvature_check, equivalence_defect,
                     geodesic_compare, is_levi_civita, levi_civita,
                     metric_inverse, projective_change,
                     projective_equivalence, reconstruct_metric, ricci,
                     write_trace_csv)
from projmet.cli import load_spec
from projmet.metricize import (_volume_residual, candidate_from_metric,
                               kappa_at, sampled_constant_curvature,
                               sampled_lc_residual)
from projmet.models import (flat_connection, klein_connection,
                            sphere_gnomonic_connection,
                            sphere_stereographic_connection)
from projmet.tensorfield import covariant_derivative, trace_free_part

from conftest import rand_metric, rand_poly, warped_product_connection
from oracles import (DimensionTooSmall, euclidean_metric, klein_metric,
                     riemann_split, sphere_gnomonic_metric,
                     sphere_stereographic_metric)


def _delta_uu(chart):
    return TensorField.from_function(
        chart, ("u", "u"), lambda a, b: chart.one if a == b else chart.zero)


def test_reconstruct_identity_solution():
    chart = Chart(2)
    flat = flat_connection(2)
    cand = reconstruct_metric(_delta_uu(chart), flat)
    assert cand.det_sigma == chart.one
    assert cand.f == "-1/2*log(1)"
    assert not any(cand.upsilon)
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


def test_g_down_is_inverted_once_on_first_access(monkeypatch):
    """`analyze` never reads g_down, so the symbolic inverse waits for the
    first access and is then kept."""
    from projmet import metricize
    from projmet.pipeline import analyze_connection

    calls = []

    def counted(t):
        calls.append(t)
        return metric_inverse(t)

    monkeypatch.setattr(metricize, "metric_inverse", counted)
    chart = Chart(2)
    xs = chart.vars
    sigma = TensorField(chart, ("u", "u"),
                        [1 - xs[0] * xs[0], -xs[0] * xs[1],
                         -xs[1] * xs[0], 1 - xs[1] * xs[1]])
    cand = reconstruct_metric(sigma, flat_connection(2))
    assert calls == []
    assert cand.g_down == klein_metric(2)
    assert cand.g_down is cand.g_down
    assert len(calls) == 1
    report, _ = analyze_connection(klein_connection(2), [0, 0],
                                   {"max_order": 8, "samples": 4,
                                    "tolerance": 1e-8})
    assert report["verdict"] == "METRIZABLE"
    assert len(calls) == 1


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
    assert res["trace_free"].is_zero() and not any(res["volume"])


def test_is_levi_civita_rejects_wrong_pair():
    ok, _ = is_levi_civita(flat_connection(2), metric_inverse(klein_metric(2)))
    assert not ok


THEOREM_INPUTS = {
    "flat2": lambda: flat_connection(2),
    "klein2": lambda: klein_connection(2),
    "klein3": lambda: klein_connection(3),
    "gnomonic2": lambda: sphere_gnomonic_connection(2),
    "gnomonic3": lambda: sphere_gnomonic_connection(3),
    "roundtrip2": lambda: levi_civita(rand_metric(2, random.Random(7))),
    "roundtrip3": lambda: levi_civita(
        rand_metric(3, random.Random(3), max_degree=1)),
    # rational special connection and rational g^{ab}, rebuilt from g_ab
    "warped3": warped_product_connection,
}
G_BUILT = ("roundtrip2", "roundtrip3", "warped3")


def linear_check(cand, special):
    """The symbolic oracle of the proof: tf(grad_a t^{bc}) = 0 for the
    tensor t the candidate was built from, sigma under the connection
    `special` it was built on, or g^{ab} under the candidate connection."""
    t, gauge = ((cand.g_up, cand.connection) if cand.sigma is None
                else (cand.sigma, special))
    return trace_free_part(covariant_derivative(t, gauge)).is_zero()


def _assert_proof_matches_oracle(cand, special):
    """The polynomial proof agrees with `linear_check` on the candidate and
    refutes, with the oracle, the one rebuilt from t with t^{11} + x1^2."""
    assert cand.solves_metrizability() == linear_check(cand, special) is True
    assert is_levi_civita(cand.connection, cand.g_up)[0]
    assert not any(_volume_residual(cand.connection, cand.g_up))
    t = cand.g_up if cand.sigma is None else cand.sigma
    chart = t.chart
    n = chart.dim
    comps = [t.get(i, j) for i in range(n) for j in range(n)]
    comps[0] = comps[0] + chart.var(1) * chart.var(1)
    bent = TensorField(chart, ("u", "u"), comps)
    rebuild = (candidate_from_metric if cand.sigma is None
               else reconstruct_metric)
    wrong = rebuild(bent, special, cand.base_point)
    assert wrong.solves_metrizability() == linear_check(wrong, special) \
        is False
    assert not is_levi_civita(wrong.connection, wrong.g_up)[0]


@pytest.mark.parametrize("name", THEOREM_INPUTS)
def test_linear_equation_proves_exact_candidates(name, monkeypatch):
    """The paper's theorem on the runtime path: `analyze` proves each exact
    candidate by tf(grad'_a g^{bc}) = 0, as integer polynomial identities
    in the special gauge (`MetricCandidate.solves_metrizability`), and
    never runs `is_levi_civita` or `covariant_derivative`, nor builds a
    candidate connection.  The symbolic oracle `linear_check` and the
    volume half, which holds by construction, agree on every candidate,
    and both refute the candidate rebuilt from t with t^{11} + x1^2."""
    from projmet import metricize, pipeline, tensorfield

    assert not hasattr(pipeline, "covariant_derivative")
    assert not hasattr(pipeline, "trace_free_part")
    built = []
    reconstruct = pipeline._reconstruct

    def keep(special, *args):
        exact, cand = reconstruct(special, *args)
        if exact:
            built.append((special, cand))
        return exact, cand

    calls = []

    def counted(check):
        def wrapper(*args):
            calls.append(check.__name__)
            return check(*args)
        return wrapper

    conn = THEOREM_INPUTS[name]()
    n = conn.dim
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_reconstruct", keep)
        for mod in (metricize, pipeline, tensorfield):
            for check in (is_levi_civita, _volume_residual,
                          covariant_derivative):
                m.setattr(mod, check.__name__, counted(check), raising=False)
        report, code = pipeline.analyze_connection(
            conn, [0] * n, {"max_order": 2 * n + 2, "samples": 2,
                            "tolerance": 1e-8})
    assert calls == []
    assert code == 0 and built
    assert all(c._connection is None for _, c in built)
    assert all((c.sigma is None) == (name in G_BUILT) for _, c in built)
    assert all(e["is_levi_civita"] for e in report["metrics"] if e.get("exact"))
    if name == "warped3":
        assert any(not c.g_up.get(1, 1).is_polynomial() for _, c in built)
    for special, cand in built:
        _assert_proof_matches_oracle(cand, special)


@pytest.mark.parametrize("n", [2, 3])
def test_sigma_proof_on_a_rational_special_connection(n):
    """sigma-built candidates over a rational special connection: for
    g_ab = u^-(n+1) delta with a polynomial u, sigma = u delta solves the
    equation in the special gauge of the Levi-Civita connection, and the
    polynomial proof agrees with the symbolic oracle on it and on its bent
    copy."""
    from projmet import specialize

    chart = Chart(n)
    u = chart.parse("2 + x1 - x2^2/3" if n == 2 else "1 + x1*x2 - x3/2")
    g = TensorField(chart, ("d", "d"), [
        u ** -(n + 1) if i == j else chart.zero
        for i in range(n) for j in range(n)])
    special = specialize(levi_civita(g))[0]
    assert not all(e.is_polynomial() for plane in special.gamma
                   for row in plane for e in row)
    sigma = TensorField(chart, ("u", "u"), [
        u if i == j else chart.zero for i in range(n) for j in range(n)])
    _assert_proof_matches_oracle(reconstruct_metric(sigma, special), special)


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
    assert all(c.is_zero() for c in ups)


def test_equivalence_roundtrip(rng):
    chart = Chart(3)
    conn = flat_connection(3)
    ups = [rand_poly(chart, rng, 2, 2) for _ in range(3)]
    changed = projective_change(conn, ups)
    rec = projective_equivalence(conn, changed)
    for a in range(3):
        assert rec[a] == ups[a]


def test_equivalence_flat_klein():
    chart = Chart(2)
    x1, x2 = chart.vars
    r2 = x1 * x1 + x2 * x2
    ups = projective_equivalence(flat_connection(2), klein_connection(2))
    assert ups[0] == x1 / (1 - r2)
    assert ups[1] == x2 / (1 - r2)


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


def test_sampled_checks_take_partials_without_diff(monkeypatch):
    """sampled_lc_residual and kappa_at read values and first partials off
    RationalExpr.jet: no symbolic derivative field is built inside them
    during analyze of the stereographic sphere, which takes the truncated
    path at order 10."""
    from projmet import pipeline
    from projmet.exprcore import RationalExpr

    inside, diffs, calls = [], [], []
    diff = RationalExpr.diff

    def counting_diff(self, k):
        if inside:
            diffs.append(k)
        return diff(self, k)

    def watched(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            inside.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(RationalExpr, "diff", counting_diff)
    monkeypatch.setattr(pipeline, "sampled_lc_residual",
                        watched(sampled_lc_residual))
    monkeypatch.setattr(pipeline, "kappa_at", watched(kappa_at))
    conn = sphere_stereographic_connection(2)
    options = {"max_order": 10, "samples": 5, "tolerance": 1e-8}
    report, code = pipeline.analyze_connection(conn, [0, 0], options)
    assert code == 0
    assert "sampled_lc_residual" in calls and "kappa_at" in calls
    assert diffs == []


# -- the candidate's point evaluator ---------------------------------------------

DATA = Path(__file__).parent / "data"

# input, jet order: the truncated cases of the benchmark, a sigma-built exact
# model and a g-built round trip
POINT_INPUTS = {
    "stereo2-o10": (lambda: sphere_stereographic_connection(2), 10),
    "d2-o8": (lambda: load_spec(str(DATA / "liouville_d1_d2.json"))[0], 8),
    "d3-o8": (lambda: load_spec(str(DATA / "liouville_d3.json"))[0], 8),
    "klein3": (lambda: klein_connection(3), 10),
    "roundtrip2": (lambda: levi_civita(rand_metric(2, random.Random(7))), 6),
}


def _analyzed_candidates(name, monkeypatch):
    """analyze_connection on a POINT_INPUTS entry at 5 samples; returns the
    report, the exit code and every candidate built, as (special
    connection, candidate, sample points)."""
    from projmet import pipeline

    built = []
    reconstruct = pipeline._reconstruct

    def keep(special, series, base_point, max_order, samples):
        exact, cand = reconstruct(special, series, base_point, max_order,
                                  samples)
        built.append((special, cand, samples))
        return exact, cand

    make, order = POINT_INPUTS[name]
    conn = make()
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_reconstruct", keep)
        report, code = pipeline.analyze_connection(
            conn, [0] * conn.dim,
            {"max_order": order, "samples": 5, "tolerance": 1e-8})
    assert built
    return report, code, built


@pytest.mark.parametrize("name", POINT_INPUTS)
def test_point_evaluator_matches_symbolic_connection(name, monkeypatch):
    """The candidate's point table (Gamma' from the jets of Gamma and the
    2-jet of det, g^{ab} by the product rule) equals, as Fractions, the
    jets of projective_change(special, grad f) and of g_up at the base
    point and every sample point."""
    _, _, built = _analyzed_candidates(name, monkeypatch)
    for special, cand, samples in built:
        n = special.dim
        oracle = projective_change(special, cand.upsilon)
        for pt in [list(cand.base_point)] + samples:
            table = cand._point_table(pt)
            assert cand.jets_at(pt) == table
            gam, dgam, g, dg = table
            for c, a, b in product(range(n), repeat=3):
                assert (gam[c][a][b], dgam[c][a][b]) == \
                    oracle.gamma[c][a][b].jet(pt)
            for i, j in product(range(n), repeat=2):
                assert (g[i][j], dg[i][j]) == cand.g_up.get(i, j).jet(pt)


@pytest.mark.parametrize("name", ["stereo2-o10", "d2-o8", "klein3",
                                  "roundtrip2"])
def test_candidate_connection_is_built_only_for_the_g_built_proof(
        name, monkeypatch):
    """analyze builds grad f only where a report string reads it, and the
    candidate connection not at all: no projective change and no gradient
    for truncated candidates, and no projective change for exact ones,
    sigma-built or g-built, whose proofs run in the special gauge.  No
    derivative field is built inside the point checks."""
    from projmet import metricize, pipeline
    from projmet.exprcore import RationalExpr

    changes, grads, diffs, inside = [], [], [], []
    change, grad, diff = (metricize.projective_change,
                          metricize.MetricCandidate.upsilon.fget,
                          RationalExpr.diff)

    def counting_change(*args):
        changes.append(1)
        return change(*args)

    def counting_grad(self):
        if self._upsilon is None:
            grads.append(self)
        return grad(self)

    def counting_diff(self, k):
        if inside:
            diffs.append(k)
        return diff(self, k)

    def watched(fn):
        def wrapper(*args):
            inside.append(1)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(metricize, "projective_change", counting_change)
    monkeypatch.setattr(metricize.MetricCandidate, "upsilon",
                        property(counting_grad))
    monkeypatch.setattr(RationalExpr, "diff", counting_diff)
    for check in (sampled_lc_residual, kappa_at):
        monkeypatch.setattr(pipeline, check.__name__, watched(check))
    report, code, built = _analyzed_candidates(name, monkeypatch)
    assert diffs == []
    exact = [e["exact"] for e in report["metrics"] if "exact" in e]
    g_built = [c for _, c, _ in built if c.sigma is None]
    if name in ("stereo2-o10", "d2-o8"):
        assert exact and not any(exact)
        assert changes == [] and grads == []
    elif name == "klein3":
        assert all(exact) and not g_built
        assert changes == []
    else:
        assert all(exact) and len(g_built) == len(built)
        assert changes == []


@pytest.mark.parametrize("entry, warning", [
    ("1 - 96*x1", "signature changes at sample"),
    ("1/(1 - 96*x1)", "sigma has a pole at sample")])
def test_pole_at_a_sample_matches_symbolic_connection(entry, warning):
    """Where det(sigma) vanishes at a sample point, or sigma has a pole
    there, the point checks raise the PoleError of the symbolic candidate
    connection, with its message."""
    from projmet.pipeline import _sample_points

    chart = Chart(2)
    sigma = TensorField(chart, ("u", "u"), [chart.parse(entry), chart.zero,
                                            chart.zero, chart.one])
    samples = _sample_points([Fraction(0)] * 2, 2, 5)
    first = samples[0]
    assert first == [Fraction(1, 96), Fraction(-1, 96)]

    def raised(check, *args):
        with pytest.raises(PoleError) as info:
            check(*args)
        return str(info.value)

    cand = reconstruct_metric(sigma, flat_connection(2), [0, 0], samples)
    assert cand.warnings[0] == f"{warning} {tuple(first)}"
    point = [raised(sampled_lc_residual, cand, None, samples),
             raised(kappa_at, cand, None, first)]
    cand = reconstruct_metric(sigma, flat_connection(2), [0, 0], samples)
    symbolic = [raised(sampled_lc_residual, cand.connection, cand.g_up,
                       samples),
                raised(kappa_at, cand.connection, cand.g_up, first)]
    assert point == symbolic == [f"denominator vanishes at {tuple(first)}"] * 2


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


def test_geodesic_compare_compiles_each_connection_once(monkeypatch):
    """The symbols of each connection are compiled once per call, not once
    per seed: the 6 nonzero Klein n=2 symbols and none of the flat ones."""
    import projmet.exprcore as exprcore

    compiled = []
    real = exprcore.compile_numeric
    monkeypatch.setattr(exprcore, "compile_numeric",
                        lambda e: compiled.append(e) or real(e))
    seeds = SEEDS + [([0.05, 0.0], [0.0, 0.25])]
    geodesic_compare(klein_connection(2), flat_connection(2), seeds)
    assert len(compiled) == 6


def test_geodesic_pole_met_by_a_refined_pass_is_pole_on_path():
    """Gamma^2_11 = 1/(64 x1 - 1) has its pole at x1 = 1/64, which the
    first pass of 16 steps skips along (0, 0) -> (1, 0); the refined pass
    of 32 steps of the geodesic integration lands on it, and so does the
    fixed-step defect pass.  Both raise PoleOnPath."""
    chart = Chart(2)
    conn = AffineConnection.from_components(
        chart, {(2, 1, 1): 1 / (64 * chart.var(1) - 1)})
    with pytest.raises(PoleOnPath):
        geodesic_compare(conn, flat_connection(2), [((0, 0), (1, 0))])
    with pytest.raises(PoleOnPath):
        geodesic_compare(flat_connection(2), conn, [((0, 0), (1, 0))])


def test_trace_csv(tmp_path):
    _, traces = geodesic_compare(flat_connection(2), flat_connection(2),
                                 SEEDS[:1])
    path = tmp_path / "traces.csv"
    write_trace_csv(traces, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trajectory,t,x1,x2"
    assert len(lines) > 10
