"""The prolonged connection, its transformation law and its curvature."""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from projmet import (AffineConnection, Chart, NotSpecial, TensorField,
                     decompose_curvature, levi_civita, projective_change,
                     specialize)
from projmet.cli import load_spec
from projmet.models import (flat_connection, klein_connection,
                            nonmetrizable_witness, sphere_gnomonic_connection,
                            sphere_stereographic_connection)
from projmet.projconn import cotton_york
from projmet.tractor import (TractorSection, cleared_matrices,
                             connection_matrices, section_dim, sym_pairs,
                             tractor_curvature)

from conftest import rand_exact_oneform, rand_fraction, rand_metric, \
    rand_poly, rand_special_connection
from oracles import (connection_matrices_by_columns, curvature_on_section,
                     section_basis, section_difference, section_is_zero,
                     top_slot_curvature_formula, tractor_derivative,
                     transform_section, transform_values, values_at)


def _general_flat_solution(chart, s, m, r):
    """sigma = s + x m + m x + r x x, mu = m + r x, rho = r."""
    n = chart.dim
    xs = chart.vars
    sig = []
    for i in range(n):
        for j in range(n):
            val = chart.const(s[i][j]) + xs[i] * m[j] + xs[j] * m[i] \
                + xs[i] * xs[j] * r
            sig.append(val)
    sigma = TensorField(chart, ("u", "u"), sig)
    mu = TensorField(chart, ("u",), [chart.const(m[i]) + xs[i] * r
                                     for i in range(n)])
    rho = TensorField.scalar(chart, chart.const(r))
    return TractorSection(sigma, mu, rho)


@pytest.mark.parametrize("n", [2, 3])
def test_flat_general_solution_is_parallel(n, rng):
    chart = Chart(n)
    flat = flat_connection(n)
    data = decompose_curvature(flat)
    for _ in range(5):
        s = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = rand_fraction(rng)
        m = [rand_fraction(rng) for _ in range(n)]
        r = rand_fraction(rng)
        sec = _general_flat_solution(chart, s, m, r)
        top, mid, bot = tractor_derivative(flat, data, sec)
        assert top.is_zero() and mid.is_zero() and bot.is_zero()


def test_flat_constant_sigma_section_is_parallel():
    chart = Chart(2)
    flat = flat_connection(2)
    data = decompose_curvature(flat)
    sec = TractorSection.from_constant_vector(chart, [3, 1, 2, 0, 0, 0])
    top, mid, bot = tractor_derivative(flat, data, sec)
    assert top.is_zero() and mid.is_zero() and bot.is_zero()


def test_derivative_requires_special_gauge():
    chart = Chart(2)
    flat = flat_connection(2)
    data = decompose_curvature(flat)
    sec = TractorSection.from_constant_vector(chart, [1, 0, 1, 0, 0, 0])
    with pytest.raises(NotSpecial):
        tractor_derivative(klein_connection(2), data, sec)


def test_transform_identity_and_example():
    chart = Chart(2)
    sec = TractorSection.from_constant_vector(chart, [1, 0, 1, 0, 0, 0])
    same = transform_section(sec, [chart.zero, chart.zero])
    assert section_is_zero(section_difference(same, sec))
    out = transform_values(2, [1, 0, 1, 0, 0, 0], [1, 0])
    assert out == [1, 0, 1, 1, 0, 1]


def test_transform_group_law(rng):
    chart = Chart(2)
    x1, x2 = chart.vars
    sec = TractorSection(
        TensorField(chart, ("u", "u"), [1 + x1, x2, x2, chart.const(2)]),
        TensorField(chart, ("u",), [x1 * x2, chart.one]),
        TensorField.scalar(chart, x2 ** 2))
    u1 = [x1 * x2, chart.const(2)]
    u2 = [x2 ** 2, x1]
    both = [a + b for a, b in zip(u1, u2)]
    lhs = transform_section(transform_section(sec, u1), u2)
    rhs = transform_section(sec, both)
    assert section_is_zero(section_difference(lhs, rhs))


def test_flat_curvature_operator_zero():
    flat = flat_connection(2)
    data = decompose_curvature(flat)
    assert tractor_curvature(flat, data).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_projectively_flat_models_have_zero_curvature(n):
    # Klein and both sphere charts specialize into the projectively flat
    # class, so the prolonged connection is flat on all of them
    for conn in (klein_connection(n), sphere_stereographic_connection(n)):
        special, _ = specialize(conn)
        data = decompose_curvature(special)
        assert tractor_curvature(special, data).is_zero()


def test_witness_curvature_nonzero():
    # dimension two: the obstruction lives in the Cotton-York tensor
    conn = nonmetrizable_witness()
    data = decompose_curvature(conn)
    assert not data.cotton_york.is_zero()
    assert not tractor_curvature(conn, data).is_zero()


def test_witness_curvature_nonzero_dimension_three():
    # dimension three: the obstruction lives in the Weyl tensor
    chart = Chart(3)
    conn = AffineConnection.from_components(chart,
                                            {(1, 2, 3): chart.var(1) ** 2})
    data = decompose_curvature(conn)
    assert not data.weyl.is_zero()
    assert not tractor_curvature(conn, data).is_zero()


def test_curvature_antisymmetry(rng):
    conn = rand_special_connection(3, rng)
    data = decompose_curvature(conn)
    cur = tractor_curvature(conn, data)
    m_ab = cur.matrix(0, 1)
    m_ba = cur.matrix(1, 0)
    for r1, r2 in zip(m_ab, m_ba):
        for e1, e2 in zip(r1, r2):
            assert e1 == -e2


def _random_section(chart, rng):
    n = chart.dim
    sig = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = rand_poly(chart, rng, 2, 2)
            sig[i][j] = sig[j][i] = p
    sigma = TensorField(chart, ("u", "u"),
                        [sig[i][j] for i in range(n) for j in range(n)])
    mu = TensorField(chart, ("u",),
                     [rand_poly(chart, rng, 2, 2) for _ in range(n)])
    rho = TensorField.scalar(chart, rand_poly(chart, rng, 2, 2))
    return TractorSection(sigma, mu, rho)


@pytest.mark.parametrize("n,cases", [(2, 4), (3, 3)])
def test_commutator_matches_stored_action_on_field_sections(n, cases, rng):
    """The stored matrices act pointwise; applying the raw commutator to a
    non-constant section must reproduce M(x) s(x) in every slot, confirming
    both the tensoriality of the commutator and the closed top-slot form."""
    chart = Chart(n)
    pairs = sym_pairs(n)
    for _ in range(cases):
        conn = rand_special_connection(n, rng)
        data = decompose_curvature(conn)
        cur = tractor_curvature(conn, data)
        sec = _random_section(chart, rng)
        acted = curvature_on_section(conn, data, sec)
        for (a, b), (top, mid, bot) in acted.items():
            mat = cur.matrix(a, b)
            packed = [sec.sigma.get(i, j) for i, j in pairs] \
                + [sec.mu.get(i) for i in range(n)] + [sec.rho.get()]
            for row, want in zip(
                    mat,
                    [top.get(i, j) for i, j in pairs]
                    + [mid.get(i) for i in range(n)] + [bot.get()]):
                have = chart.zero
                for m_e, s_e in zip(row, packed):
                    if not m_e.is_zero() and not s_e.is_zero():
                        have = have + m_e * s_e
                assert have == want


def test_top_slot_formula_equals_commutator_top(rng):
    chart = Chart(3)
    for _ in range(3):
        conn = rand_special_connection(3, rng)
        data = decompose_curvature(conn)
        sec = _random_section(chart, rng)
        acted = curvature_on_section(conn, data, sec)
        for (a, b), (top, _, _) in acted.items():
            formula = top_slot_curvature_formula(data, sec.sigma, a, b)
            assert (formula - top).is_zero()


def test_modified_minus_plain_is_displayed_correction(rng):
    """Switching the curvature terms off recovers the plain tractor
    connection; the difference is exactly -(1/n)(0, W sigma, 4 Y sigma)."""
    for n in (2, 3):
        chart = Chart(n)
        conn = rand_special_connection(n, rng)
        data = decompose_curvature(conn)
        sec = _random_section(chart, rng)
        t1, m1, b1 = tractor_derivative(conn, data, sec, modified=True)
        t0, m0, b0 = tractor_derivative(conn, data, sec, modified=False)
        assert (t1 - t0).is_zero()
        inv_n = chart.const(Fraction(1, n))
        for a, bdx in product(range(n), repeat=2):
            corr = chart.zero
            for c, d in product(range(n), repeat=2):
                w = data.weyl.get(a, c, bdx, d)
                if not w.is_zero():
                    corr = corr + w * sec.sigma.get(c, d)
            assert m1.get(a, bdx) - m0.get(a, bdx) == -inv_n * corr
        for a in range(n):
            corr = chart.zero
            for b, c in product(range(n), repeat=2):
                y = data.cotton_york.get(a, b, c)
                if not y.is_zero():
                    corr = corr + y * sec.sigma.get(b, c)
            assert b1.get(a) - b0.get(a) == -chart.const(Fraction(4, n)) * corr


def test_plain_tractor_curvature_display(rng):
    """The plain tractor curvature acts as
    (W sigma + W sigma, W mu + 2 Y sigma, 4 Y mu)."""
    for n in (2, 3):
        chart = Chart(n)
        conn = rand_special_connection(n, rng)
        data = decompose_curvature(conn)
        sec = _random_section(chart, rng)
        acted = curvature_on_section(conn, data, sec, modified=False)
        W, Y = data.weyl, data.cotton_york
        for (a, b), (top, mid, bot) in acted.items():
            for c, d in product(range(n), repeat=2):
                want = chart.zero
                for e in range(n):
                    want = want + W.get(a, b, c, e) * sec.sigma.get(d, e) \
                        + W.get(a, b, d, e) * sec.sigma.get(c, e)
                assert top.get(c, d) == want
            for c in range(n):
                want = chart.zero
                for d in range(n):
                    want = want + W.get(a, b, c, d) * sec.mu.get(d) \
                        + 2 * Y.get(a, b, d) * sec.sigma.get(c, d)
                assert mid.get(c) == want
            want = chart.zero
            for c in range(n):
                want = want + 4 * Y.get(a, b, c) * sec.mu.get(c)
            assert bot.get() == want


def test_correction_terms_transform_consistently(rng):
    """4 Y_abc sigma^{bc} gains exactly 2 Y_b W_ac{}^b{}_d sigma^{cd} under an
    exact change, matching the transformation decreed for sections."""
    for n in (2, 3):
        chart = Chart(n)
        for _ in range(3):
            conn = rand_special_connection(n, rng)
            data = decompose_curvature(conn)
            f, df = rand_exact_oneform(chart, rng)
            changed = projective_change(conn, df)
            y_hat = cotton_york(changed)
            sig = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    p = rand_poly(chart, rng, 2, 2)
                    sig[i][j] = sig[j][i] = p
            sigma = TensorField(chart, ("u", "u"),
                                [sig[i][j] for i in range(n) for j in range(n)])
            for a in range(n):
                lhs = chart.zero
                rhs = chart.zero
                for b, c in product(range(n), repeat=2):
                    lhs = lhs + 4 * y_hat.get(a, b, c) * sigma.get(b, c)
                    rhs = rhs + 4 * data.cotton_york.get(a, b, c) * sigma.get(b, c)
                for b in range(n):
                    for c, d in product(range(n), repeat=2):
                        w = data.weyl.get(a, c, b, d)
                        if not w.is_zero():
                            rhs = rhs + 2 * df[b] * w * sigma.get(c, d)
                assert lhs == rhs


def test_connection_matrices_sparsity_flat():
    chart = Chart(2)
    flat = flat_connection(2)
    data = decompose_curvature(flat)
    # flat gauge: the only couplings are the Kronecker-delta blocks, the
    # only cleared component is the constant 1, and L_i is 1, n(n-1) or
    # 2n(n-1) on the sigma, mu and rho slots
    components, L, entries = cleared_matrices(flat, data)
    assert components == [chart.one.num]
    assert L == [(1, 0)] * 3 + [(2, 0)] * 2 + [(4, 0)]
    assert entries[0][0, 3] == ((-2, 0),)  # d_1 sigma^{11} on mu^1
    assert entries[0][3, 5] == ((-2, 0),)  # d_1 mu^1 on rho, times 2
    assert (section_dim(2) - 1, 4) not in entries[0]
    mats = connection_matrices(flat, data)
    assert mats[0][0][3] == -2 and mats[0][1][4] == -1
    assert mats[0][3][5] == -1
    assert sum(not e.is_zero() for row in mats[0] for e in row) == 3


def test_section_basis_roundtrip():
    chart = Chart(3)
    basis = section_basis(chart)
    assert len(basis) == section_dim(3) == 10
    for k, sec in enumerate(basis):
        vals = values_at(sec, [0, 0, 0])
        assert vals[k] == 1 and sum(abs(v) for v in vals) == 1


def test_tractor_curvature_is_curvature_of_the_matrices(monkeypatch):
    """The stored curvature is F_ab of the connection matrices, and the
    matrices are read off Gamma, P, W and Y: no symbolic derivative is
    taken, and the gauge is checked once for all N basis sections."""
    from projmet.exprcore import RationalExpr

    special, _ = specialize(sphere_stereographic_connection(2))
    data = decompose_curvature(special)
    conn = nonmetrizable_witness()
    conn_data = decompose_curvature(conn)

    def forbidden(*args, **kwargs):
        raise AssertionError("symbolic derivative taken")

    monkeypatch.setattr(RationalExpr, "diff", forbidden)
    checks = []
    is_special = AffineConnection.is_special

    def counted(self):
        checks.append(self)
        return is_special(self)

    monkeypatch.setattr(AffineConnection, "is_special", counted)
    connection_matrices(special, data)
    assert len(checks) == 1
    assert tractor_curvature(special, data).is_zero()
    assert not tractor_curvature(conn, conn_data).is_zero()


DATA = Path(__file__).parent / "data"
CLOSED_FORM_CASES = {
    "flat2": lambda: flat_connection(2),
    **{f"klein{n}": (lambda n=n: klein_connection(n)) for n in (2, 3, 4, 5)},
    **{f"gnomonic{n}": (lambda n=n: sphere_gnomonic_connection(n))
       for n in (2, 3)},
    **{f"stereo{n}": (lambda n=n: sphere_stereographic_connection(n))
       for n in (2, 3)},
    "witness": nonmetrizable_witness,
    **{name: (lambda name=name: load_spec(str(DATA / f"{name}.json"))[0])
       for name in ("flat_log_poly_change", "liouville_d1_d2",
                    "liouville_d3")},
    # Levi-Civita round trips: general Christoffel symbols, curved classes
    "roundtrip2": lambda: levi_civita(rand_metric(2, random.Random(7))),
    "roundtrip3": lambda: levi_civita(
        rand_metric(3, random.Random(3), max_degree=1)),
    **{f"random{n}-{seed}": (lambda n=n, seed=seed: rand_special_connection(
        n, random.Random(f"closed-form-{n}-{seed}"), entries=3))
       for n in (2, 3, 4) for seed in (0, 1)},
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_closed_form_matrices_match_column_builder(name):
    """The matrices cancelled from the cleared system B_a / L_i equal
    entry by entry, and print as, the columns of full covariant
    derivatives of the constant basis sections."""
    conn = CLOSED_FORM_CASES[name]()
    if not conn.is_special():
        conn = specialize(conn)[0]
    data = decompose_curvature(conn)
    mats = connection_matrices(conn, data)
    want = connection_matrices_by_columns(conn, data)
    N = section_dim(conn.dim)
    assert len(mats) == len(want) == conn.dim
    for mat, wmat in zip(mats, want):
        assert len(mat) == N and all(len(row) == N for row in mat)
        for row, wrow in zip(mat, wmat):
            for entry, wentry in zip(row, wrow):
                assert entry == wentry
                assert str(entry) == str(wentry)


def test_closed_form_matrices_reject_non_special_connection():
    data = decompose_curvature(flat_connection(2))
    with pytest.raises(NotSpecial):
        connection_matrices(klein_connection(2), data)
