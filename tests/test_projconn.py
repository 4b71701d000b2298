"""Connections, curvature decomposition and the volume gauge."""

import json
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import pytest

from projmet import (AffineConnection, Chart, NotSpecial, TensorField,
                     beta_form, covariant_derivative, decompose_curvature,
                     full_curvature, levi_civita, projective_change, ricci,
                     specialize)
from projmet.cli import parse_spec
from projmet.models import (flat_connection, klein_connection,
                            sphere_stereographic_connection)
from projmet.projconn import _schouten_and_weyl, cotton_york

from conftest import (rand_exact_oneform, rand_metric, rand_poly,
                      rand_special_connection, rand_vector_field,
                      ricci_by_commutator, warped_product_connection)
from oracles import (beta_of_ricci, bianchi_contracted_check,
                     cotton_york_by_gradients, is_closed, klein_metric,
                     sphere_stereographic_metric)

DATA = Path(__file__).parent / "data"


def _curved_rational_special(n):
    """A curved special connection with non-polynomial Christoffel symbols:
    the specialised D3 Liouville input (n = 2) or warped product (n = 3)."""
    if n == 2:
        doc = json.loads((DATA / "liouville_d3.json").read_text())
        conn = parse_spec(doc)[0]
    else:
        conn = warped_product_connection()
    special = specialize(conn)[0]
    assert not all(e.is_polynomial() for plane in special.gamma
                   for row in plane for e in row)
    assert not full_curvature(special).is_zero()
    return special


def test_flat_ricci_zero():
    assert ricci(flat_connection(2)).is_zero()
    assert ricci(flat_connection(3)).is_zero()


def test_sphere_ricci_equals_metric():
    # stereographic unit sphere: R_ab = (n-1) g_ab with curvature +1
    for n in (2, 3):
        r = ricci(sphere_stereographic_connection(n))
        g = sphere_stereographic_metric(n)
        for a, b in product(range(n), repeat=2):
            assert r.get(a, b) == (n - 1) * g.get(a, b)


def test_klein_ricci_equals_minus_metric():
    for n in (2, 3):
        r = ricci(klein_connection(n))
        g = klein_metric(n)
        for a, b in product(range(n), repeat=2):
            assert r.get(a, b) == -(n - 1) * g.get(a, b)


def test_full_curvature_against_commutator_oracle(rng):
    """The commutator of two covariant derivatives on random vector fields
    reproduces R_ab{}^c{}_d X^d, and contracting the full tensor reproduces
    the direct Ricci formula on the curved models."""
    from itertools import product as _product

    from projmet.models import klein_connection as _klein
    from projmet.models import sphere_stereographic_connection as _sphere
    from conftest import rand_vector_field, riemann_by_commutator

    chart = Chart(2)
    for conn in (rand_special_connection(2, rng), _klein(2)):
        riem = full_curvature(conn)
        x = rand_vector_field(chart, rng)
        lhs = riemann_by_commutator(conn, x)
        for a, b, c in _product(range(2), repeat=3):
            want = chart.zero
            for d in range(2):
                want = want + riem.get(a, b, c, d) * x.get(d)
            assert lhs.get(a, b, c) == want
    # contraction of the full tensor = the Ricci operation, on both models
    for conn in (_klein(2), _sphere(2)):
        riem = full_curvature(conn)
        ric = ricci(conn)
        for a, d in _product(range(2), repeat=2):
            total = chart.zero
            for b in range(2):
                total = total + riem.get(b, a, b, d)
            assert total == ric.get(a, d)


@pytest.mark.parametrize("n", [2, 3])
def test_ricci_against_commutator_oracle(n, rng):
    """The defining property (grad_b grad_a - grad_a grad_b) X^b = R_ab X^b,
    checked on random vector fields; the oracle uses only the covariant
    derivative."""
    chart = Chart(n)
    conns = chain((rand_special_connection(n, rng) for _ in range(4)),
                  [_curved_rational_special(n)])
    for conn in conns:
        r = ricci(conn)
        x = rand_vector_field(chart, rng)
        lhs = ricci_by_commutator(conn, x)
        for a in range(n):
            want = chart.zero
            for b in range(n):
                want = want + r.get(a, b) * x.get(b)
            assert lhs[a] == want


def test_beta_vanishes_for_levi_civita(rng):
    for n in (2, 3):
        from projmet.metricize import levi_civita
        g = rand_metric(n, rng)
        assert beta_form(levi_civita(g)).is_zero()
    assert beta_form(flat_connection(2)).is_zero()


def test_beta_from_quadratic_diagonal_entry(rng):
    """Gamma^1_11 = x1^2 keeps the trace form closed, so beta still vanishes;
    the independent antisymmetrised-Ricci oracle agrees."""
    chart = Chart(2)
    conn = AffineConnection.from_components(chart, {(1, 1, 1): chart.var(1) ** 2})
    beta = beta_form(conn)
    x = rand_vector_field(chart, rng)
    # oracle: R_ab from the commutator, antisymmetrised and scaled
    r = ricci(conn)
    for a, b in product(range(2), repeat=2):
        assert beta.get(a, b) == -(r.get(a, b) - r.get(b, a)) / 3
    assert beta.is_zero()


def test_beta_nonzero_and_closed_for_nonsymmetric_ricci():
    chart = Chart(2)
    conn = AffineConnection.from_components(chart, {(1, 1, 1): chart.var(2)})
    beta = beta_form(conn)
    assert not beta.is_zero()
    assert is_closed(beta)
    assert beta.get(0, 1) == -beta.get(1, 0)


def test_projective_change_examples():
    chart = Chart(2)
    flat = flat_connection(2)
    assert projective_change(flat, [chart.zero, chart.zero]) == flat
    changed = projective_change(flat, [chart.one, chart.zero])
    assert changed.gamma[0][0][0] == 2
    assert changed.gamma[1][0][1] == 1
    assert changed.gamma[1][1][0] == 1
    assert changed.gamma[0][0][1].is_zero()
    assert changed.gamma[0][1][1].is_zero()


def test_projective_change_group_law(rng):
    chart = Chart(3)
    conn = rand_special_connection(3, rng)
    ups = [rand_poly(chart, rng, 2, 2) for _ in range(3)]
    there = projective_change(conn, ups)
    back = projective_change(there, [-u for u in ups])
    assert back == conn


def test_specialize_fixed_points():
    flat = flat_connection(2)
    out, ups = specialize(flat)
    assert out is flat
    assert ups == (flat.chart.zero,) * 2
    # Levi-Civita connection of a unimodular metric is already special
    chart = Chart(2)
    x = chart.var(1)
    from projmet import TensorField
    from projmet.metricize import det_field, levi_civita
    g = TensorField(chart, ("d", "d"), [1 + x * x, x, x, chart.one])
    assert det_field(g) == chart.one
    lc = levi_civita(g)
    out2, ups2 = specialize(lc)
    assert out2 is lc
    assert ups2 == (chart.zero,) * 2


@pytest.mark.parametrize("n", [2, 3])
def test_specialize_roundtrip_from_flat(n, rng):
    """An exact projective change of the flat connection by df specializes
    back to the flat connection, with symmetric Ricci and zero trace
    throughout, and the gauge 1-form undoes df."""
    chart = Chart(n)
    for _ in range(4):
        f, df = rand_exact_oneform(chart, rng)
        moved = projective_change(flat_connection(n), df)
        out, ups = specialize(moved)
        assert out == flat_connection(n)
        assert out.is_special()
        assert beta_form(out).is_zero()
        for k in range(n):
            assert ups[k] == -f.diff(k + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_specialize_kills_nonzero_beta(n, rng):
    """A change by a non-closed 1-form leaves the projective class but
    breaks Ricci symmetry; the one change by -t/(n+1) must land back on
    the unique volume-preserving representative, the flat connection
    itself, by the opposite of the 1-form that moved it."""
    chart = Chart(n)
    for _ in range(3):
        ups = [rand_poly(chart, rng, 2, 2) for _ in range(n)]
        moved = projective_change(flat_connection(n), ups)
        if beta_form(moved).is_zero():
            continue  # the random 1-form happened to be closed
        special, total = specialize(moved)
        assert special == flat_connection(n)
        assert list(total) == [-u for u in ups]


def test_specialize_klein_reaches_flat_gauge():
    out, ups = specialize(klein_connection(2))
    assert out == flat_connection(2)
    chart = Chart(2)
    x1, x2 = chart.vars
    r2 = x1 * x1 + x2 * x2
    assert ups[0] == -x1 / (1 - r2)


def test_decompose_flat_zero():
    data = decompose_curvature(flat_connection(3))
    assert data.weyl.is_zero()
    assert data.schouten.is_zero()
    assert data.cotton_york.is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_projective_data_keeps_the_w_and_y_numerators(n, rng):
    """W and Y are their kept numerators over (n-1) D^2 and 2(n-1) D^3,
    each stored with its antisymmetric partner, and `is_flat` (a test of
    the numerators) agrees with the cancelled fields."""
    from projmet.exprcore import Poly, _cancelled

    chart = Chart(n)
    conns = [specialize(klein_connection(n))[0], _curved_rational_special(n),
             rand_special_connection(n, rng)]
    flags = []
    for conn in conns:
        data = decompose_curvature(conn)
        D = conn.common[1]
        for nums, field, den in (
                (data.weyl_num, data.weyl, (n - 1) * D * D),
                (data.york_num, data.cotton_york, 2 * (n - 1) * D * D * D)):
            assert all(nums.values())
            for idx in product(range(n), repeat=field.rank):
                num = nums.get(idx, Poly())
                assert _cancelled(chart, num, den) == field.get(*idx)
                if idx in nums:
                    assert nums[idx[1::-1] + idx[2:]] == -num
        flags.append(data.is_flat())
        assert data.is_flat() == (data.weyl.is_zero()
                                  and data.cotton_york.is_zero())
    assert flags == [True, False, False]


def test_decompose_requires_special():
    with pytest.raises(NotSpecial):
        decompose_curvature(klein_connection(2))


@pytest.mark.parametrize("n", [2, 3])
def test_decompose_invariants(n, rng):
    for _ in range(3):
        conn = rand_special_connection(n, rng)
        data = decompose_curvature(conn)
        w = data.weyl
        # antisymmetry in the first pair and total trace-freeness
        for a, b, c, d in product(range(n), repeat=4):
            assert w.get(a, b, c, d) == -w.get(b, a, c, d)
        for b, d in product(range(n), repeat=2):
            assert sum((w.get(a, b, a, d) for a in range(n)),
                       start=conn.chart.zero).is_zero()
            assert sum((w.get(b, a, a, d) for a in range(n)),
                       start=conn.chart.zero).is_zero()
        for a, b in product(range(n), repeat=2):
            assert sum((w.get(a, b, c, c) for c in range(n)),
                       start=conn.chart.zero).is_zero()
            assert data.schouten.get(a, b) == data.schouten.get(b, a)
        y = data.cotton_york
        for a, b, c in product(range(n), repeat=3):
            assert y.get(a, b, c) == -y.get(b, a, c)
        # curvature reassembles from W and P
        riem = full_curvature(conn)
        for a, b, c, d in product(range(n), repeat=4):
            val = w.get(a, b, c, d)
            if a == c:
                val = val + data.schouten.get(b, d)
            if b == c:
                val = val - data.schouten.get(a, d)
            assert riem.get(a, b, c, d) == val


def test_weyl_vanishes_automatically_in_dimension_two(rng):
    for _ in range(5):
        conn = rand_special_connection(2, rng)
        assert decompose_curvature(conn).weyl.is_zero()


def test_klein3_weyl_zero_and_schouten():
    """The hyperbolic space form: W = 0 and P = -g (computed on the metric
    representative, which has symmetric Ricci)."""
    conn = klein_connection(3)
    schouten, weyl = _schouten_and_weyl(conn)
    assert weyl.is_zero()
    g = klein_metric(3)
    for a, b in product(range(3), repeat=2):
        assert schouten.get(a, b) == -g.get(a, b)


@pytest.mark.parametrize("n", [2, 3])
def test_bianchi_contracted(n, rng):
    conns = chain((rand_special_connection(n, rng) for _ in range(3)),
                  [_curved_rational_special(n)])
    for conn in conns:
        data = decompose_curvature(conn)
        assert bianchi_contracted_check(data, conn).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_cotton_york_is_antisymmetrised_grad_schouten(n, rng):
    """2 Y_abc = grad_a P_bc - grad_b P_ac, with grad P from
    covariant_derivative instead of the common-denominator assembly."""
    conns = chain((rand_special_connection(n, rng) for _ in range(3)),
                  [_curved_rational_special(n)])
    for conn in conns:
        data = decompose_curvature(conn)
        dp = covariant_derivative(data.schouten, conn)
        for a, b, c in product(range(n), repeat=3):
            assert 2 * data.cotton_york.get(a, b, c) == \
                dp.get(a, b, c) - dp.get(b, a, c)


def _rand_rational_connection(n, rng, entries=3):
    """Torsion-free connection with a few entries p / (1 + x1 q) for random
    polynomials p and q, mostly with distinct denominators."""
    chart = Chart(n)
    comps = {}
    for _ in range(entries):
        c, a, b = (rng.randint(1, n) for _ in range(3))
        den = chart.one + chart.var(1) * rand_poly(chart, rng, max_degree=1)
        comps[(c, min(a, b), max(a, b))] = rand_poly(chart, rng) / den
    return AffineConnection.from_components(chart, comps)


@pytest.mark.parametrize("n", [2, 3])
def test_beta_from_trace_matches_the_ricci_oracle(n, rng):
    """beta = dt/(n+1) from the Christoffel trace equals -2 R_[ab]/(n+1)
    from the full Ricci tensor (`oracles.beta_of_ricci`) on random
    non-special connections, polynomial and rational, most with beta != 0,
    and on the Klein model, whose trace is exact."""
    chart = Chart(n)
    conns = [_rand_rational_connection(n, rng) for _ in range(4)]
    conns += [AffineConnection.from_components(chart, {
        (c, a, b): rand_poly(chart, rng) for c in range(1, n + 1)
        for a in range(1, n + 1) for b in range(a, n + 1)}) for _ in range(3)]
    conns.append(klein_connection(n))
    assert not any(conn.is_special() for conn in conns)
    nonzero = 0
    for conn in conns:
        beta = beta_form(conn)
        assert beta == beta_of_ricci(ricci(conn))
        nonzero += not beta.is_zero()
    assert nonzero >= 4


@pytest.mark.parametrize("n", [2, 3])
def test_cotton_york_matches_the_gradient_oracle(n, rng):
    """Y from the Ricci numerators over 2(n-1) D^3, one cancellation per
    component with a < b, equals the old assembly of grad P over D DP^2
    (`oracles.cotton_york_by_gradients`) exactly: on random rational
    connections (special or not, P from their Ricci tensor), on the
    models and on their special gauges."""
    models = [klein_connection(n), sphere_stereographic_connection(n),
              _curved_rational_special(n)]
    if n == 2:
        models.append(parse_spec(json.loads(
            (DATA / "liouville_d1_d2.json").read_text()))[0])
    conns = [_rand_rational_connection(n, rng) for _ in range(4)]
    conns += [rand_special_connection(n, rng), levi_civita(
        rand_metric(n, rng, max_degree=2 if n == 2 else 1))]
    conns += models + [specialize(c)[0] for c in models]
    for conn in conns:
        r = ricci(conn)
        schouten = TensorField(conn.chart, ("d", "d"), [
            r.get(a, b) / (n - 1) for a in range(n) for b in range(n)])
        assert cotton_york(conn) == \
            cotton_york_by_gradients(conn, schouten)


@pytest.mark.parametrize("special", ["klein", "random"])
def test_curvature_package_adds_and_multiplies_no_rational_expr(special, rng,
                                                               monkeypatch):
    """P, W and Y are read off the Riemann numerators with one cancellation
    per component: `decompose_curvature` calls no RationalExpr sum,
    difference or product.  The gauge check reads the numerators over D
    that the connection keeps; `is_special` builds them before the spy is
    on."""
    from projmet.exprcore import RationalExpr

    if special == "klein":
        conn = specialize(klein_connection(3))[0]
    else:
        conn = rand_special_connection(3, rng)
    assert conn.is_special()
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__"):
        def spy(self, other, name=name, method=getattr(RationalExpr, name)):
            calls.append(name)
            return method(self, other)
        monkeypatch.setattr(RationalExpr, name, spy)
    data = decompose_curvature(conn)
    assert calls == []
    monkeypatch.undo()
    r = ricci(conn)
    assert data.schouten == TensorField(conn.chart, ("d", "d"), [
        r.get(a, b) / 2 for a in range(3) for b in range(3)])
    assert data.cotton_york == cotton_york_by_gradients(conn, data.schouten)


def test_gauge_check_takes_no_rational_expr_arithmetic(monkeypatch):
    """`decompose_curvature` checks the special gauge on the numerators of
    the symbols over their common denominator, which the curvature reads
    anyway: no RationalExpr sum, product, quotient or power runs, with no
    trace form built beforehand.  Negation is not spied on: it takes no
    gcd, and the a > b curvature components are their partners negated.
    A non-special input still raises NotSpecial."""
    from projmet.exprcore import RationalExpr

    conn = specialize(klein_connection(3))[0]
    assert conn._trace is None
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__"):
        def spy(*args, name=name, method=getattr(RationalExpr, name)):
            calls.append(name)
            return method(*args)
        monkeypatch.setattr(RationalExpr, name, spy)
    data = decompose_curvature(conn)
    assert calls == []
    with pytest.raises(NotSpecial):
        decompose_curvature(klein_connection(3))
    monkeypatch.undo()
    assert conn.is_special()
    assert data.weyl.is_zero() and data.cotton_york.is_zero()


@pytest.mark.parametrize("command", ["analyze", "mobility", "curvature"])
def test_common_form_and_ricci_built_once_per_connection(command, rng,
                                                        tmp_path, capsys,
                                                        monkeypatch):
    """Each connection's symbols are put over their common denominator
    once, and its Riemann and Ricci numerators built once, however many
    curvature routines and proofs read them.  Only the special connection
    has either: beta comes from the input's trace, so a non-special input
    (Klein) has no Ricci tensor built, and a special input (flat, and
    random special ones like the bench's `jets` inputs) is its own
    special connection."""
    from projmet import projconn
    from projmet.cli import main

    commons, riccis = [], []
    over_common, riemann = projconn._over_common, projconn._riemann

    def counted_common(arrays):
        commons.append(arrays)
        return over_common(arrays)

    def counted_riemann(conn):
        if conn._riemann is None:  # a build, not a read of the kept copy
            riccis.append(conn)
        return riemann(conn)

    monkeypatch.setattr(projconn, "_over_common", counted_common)
    monkeypatch.setattr(projconn, "_riemann", counted_riemann)
    inputs = [flat_connection(2), rand_special_connection(3, rng),
              klein_connection(2)]
    for i, conn in enumerate(inputs):
        n = conn.dim
        spec = tmp_path / f"{i}.json"
        spec.write_text(json.dumps({"dimension": n, "christoffel": {
            f"{c + 1},{a + 1},{b + 1}": str(conn.gamma[c][a][b])
            for c, a, b in product(range(n), repeat=3)
            if a <= b and conn.gamma[c][a][b]}}))
        commons.clear()
        riccis.clear()
        argv = [command, str(spec)]
        if command != "curvature":
            argv += ["--max-order", "4"]
        assert main(argv) in (0, 10, 11)
        capsys.readouterr()
        # a connection's symbols are its gamma tuple; the other arrays put
        # over a common denominator are P and the prolonged matrices
        gammas = [id(arrays) for arrays in commons
                  if isinstance(arrays, tuple)]
        assert len(gammas) == len(set(gammas)) == len(riccis)
        assert set(gammas) == {id(c.gamma) for c in riccis}
        assert len(riccis) == 1 and riccis[0].is_special()
        assert conn.is_special() == (i != 2)


# Special connections whose Christoffel symbols have constant, non-unit
# denominators, and the curvature the `curvature` command reported for them
# when the kernel still ran over Q[x]
CONSTANT_DENOMINATORS = {
    2: ({"1,2,2": "x2/2", "2,1,1": "3*x1/4"},
        {"cotton_york": {"1,2,1": "-3*x2/16", "1,2,2": "3*x1/16",
                         "2,1,1": "3*x2/16", "2,1,2": "-3*x1/16"},
         "schouten": [["0", "-3*x1*x2/8"], ["-3*x1*x2/8", "0"]],
         "weyl": {}}),
    3: ({"1,2,2": "x2/2", "2,1,1": "3*x1/4", "3,1,2": "x1*x3/3"},
        {"cotton_york": {"1,2,1": "(-9*x2 + 8)/96", "1,2,2": "3*x1/32",
                         "2,1,1": "(9*x2 - 8)/96", "2,1,2": "-3*x1/32"},
         "schouten": [["0", "(-9*x1*x2 + 8*x1)/48", "0"],
                      ["(-9*x1*x2 + 8*x1)/48", "0", "0"],
                      ["0", "0", "0"]],
         "weyl": {"1,2,1,1": "(-9*x1*x2 - 8*x1)/48",
                  "1,2,2,2": "(9*x1*x2 + 8*x1)/48",
                  "1,2,3,1": "x3/3",
                  "1,3,3,2": "(-9*x1*x2 - 8*x1)/48",
                  "2,1,1,1": "(9*x1*x2 + 8*x1)/48",
                  "2,1,2,2": "(-9*x1*x2 - 8*x1)/48",
                  "2,1,3,1": "-x3/3",
                  "2,3,3,1": "(-9*x1*x2 - 8*x1)/48",
                  "3,1,3,2": "(9*x1*x2 + 8*x1)/48",
                  "3,2,3,1": "(9*x1*x2 + 8*x1)/48"}}),
}


@pytest.mark.parametrize("n", [2, 3])
def test_curvature_with_constant_denominators(n, rng, tmp_path, capsys):
    """The common denominator of the curvature assembly must be divisible by
    every constant denominator, or the numerators over it are truncated:
    Ricci and Riemann against the commutator oracles, Y against
    (grad_a P_bc - grad_b P_ac)/2 from covariant_derivative, and the
    `curvature` report against its recorded values."""
    from projmet.cli import main

    from conftest import riemann_by_commutator

    christoffel, want = CONSTANT_DENOMINATORS[n]
    doc = {"dimension": n, "christoffel": christoffel}
    conn = parse_spec(doc)[0]
    chart = conn.chart
    assert conn.is_special()
    data = decompose_curvature(conn)
    riem = full_curvature(conn)
    for _ in range(2):
        x = rand_vector_field(chart, rng)
        lhs = ricci_by_commutator(conn, x)
        for a in range(n):
            assert lhs[a] == sum((ricci(conn).get(a, b) * x.get(b)
                                  for b in range(n)), chart.zero)
        lhs = riemann_by_commutator(conn, x)
        for a, b, c in product(range(n), repeat=3):
            assert lhs.get(a, b, c) == sum((riem.get(a, b, c, d) * x.get(d)
                                            for d in range(n)), chart.zero)
    dp = covariant_derivative(data.schouten, conn)
    half = chart.const(Fraction(1, 2))
    for a, b, c in product(range(n), repeat=3):
        assert data.cotton_york.get(a, b, c) == \
            (dp.get(a, b, c) - dp.get(b, a, c)) * half
    assert not data.cotton_york.is_zero()

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["curvature", str(spec)]) == 0
    report = json.loads(capsys.readouterr().out)
    for key, value in want.items():
        assert report[key] == value


def test_weyl_projective_invariance_and_cotton_york_law(rng):
    """Exact changes leave W untouched and shift Y by the displayed W term."""
    for n in (2, 3):
        chart = Chart(n)
        for _ in range(4):
            conn = rand_special_connection(n, rng)
            data = decompose_curvature(conn)
            f, df = rand_exact_oneform(chart, rng)
            changed = projective_change(conn, df)
            _, w_hat = _schouten_and_weyl(changed)
            assert w_hat == data.weyl
            y_hat = cotton_york(changed)
            half = chart.const(Fraction(1, 2))
            for a, b, c in product(range(n), repeat=3):
                corr = chart.zero
                for d in range(n):
                    wv = data.weyl.get(a, b, d, c)
                    if not wv.is_zero():
                        corr = corr + wv * df[d]
                assert y_hat.get(a, b, c) == data.cotton_york.get(a, b, c) + half * corr


def test_beta_iff_nonsymmetric_ricci(rng):
    chart = Chart(2)
    conn = rand_special_connection(2, rng)
    r = ricci(conn)
    assert beta_form(conn).is_zero()
    for a, b in product(range(2), repeat=2):
        assert r.get(a, b) == r.get(b, a)
