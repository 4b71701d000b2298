"""The prolonged connection, its transformation law and its curvature."""

from fractions import Fraction
from itertools import product

import pytest

from projmet import (AffineConnection, Chart, NotSpecial, TensorField,
                     decompose_curvature, projective_change, specialize)
from projmet.models import (flat_connection, klein_connection,
                            nonmetrizable_witness,
                            sphere_stereographic_connection)
from projmet.projconn import _schouten_and_weyl, cotton_york
from projmet.tractor import (TractorSection, connection_matrices,
                             curvature_on_section, section_basis, section_dim,
                             sym_pairs, top_slot_curvature_formula,
                             tractor_curvature, tractor_derivative,
                             transform_section, transform_values)

from conftest import rand_exact_oneform, rand_fraction, rand_poly, \
    rand_special_connection


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
    assert (same.sigma - sec.sigma).is_zero()
    assert (same.mu - sec.mu).is_zero()
    assert (same.rho - sec.rho).is_zero()
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
    assert (lhs.sigma - rhs.sigma).is_zero()
    assert (lhs.mu - rhs.mu).is_zero()
    assert (lhs.rho - rhs.rho).is_zero()


def test_flat_curvature_operator_zero():
    flat = flat_connection(2)
    data = decompose_curvature(flat)
    assert tractor_curvature(flat, data).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_projectively_flat_models_have_zero_curvature(n):
    # Klein and both sphere charts specialize into the projectively flat
    # class, so the prolonged connection is flat on all of them
    for conn in (klein_connection(n), sphere_stereographic_connection(n)):
        special, _, _ = specialize(conn)
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
            p_hat, w_hat = _schouten_and_weyl(changed)
            y_hat = cotton_york(changed, p_hat)
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
                            rhs = rhs + 2 * df.components[b] * w * sigma.get(c, d)
                assert lhs == rhs


def test_connection_matrices_sparsity_flat():
    chart = Chart(2)
    flat = flat_connection(2)
    data = decompose_curvature(flat)
    mats = connection_matrices(flat, data)
    # flat gauge: the only couplings are the Kronecker-delta blocks
    assert mats[0][0][3] == -2  # d_1 sigma^{11} couples to mu^1
    assert mats[0][section_dim(2) - 1][4].is_zero()


def test_section_basis_roundtrip():
    chart = Chart(3)
    basis = section_basis(chart)
    assert len(basis) == section_dim(3) == 10
    for k, sec in enumerate(basis):
        vals = sec.values_at([0, 0, 0])
        assert vals[k] == 1 and sum(abs(v) for v in vals) == 1


def test_tractor_curvature_is_curvature_of_the_matrices(monkeypatch):
    """The stored curvature is F_ab of the connection matrices: no
    commutator of second derivatives is built, and the matrices check the
    gauge once for all N basis sections."""
    import projmet.tractor as tractor

    special, _, _ = specialize(sphere_stereographic_connection(2))
    data = decompose_curvature(special)

    def forbidden(*args, **kwargs):
        raise AssertionError("commutator of second derivatives built")

    monkeypatch.setattr(tractor, "curvature_on_section", forbidden)
    monkeypatch.setattr(tractor, "tractor_second_derivative", forbidden)
    checks = []
    is_special = AffineConnection.is_special

    def counted(self):
        checks.append(self)
        return is_special(self)

    monkeypatch.setattr(AffineConnection, "is_special", counted)
    connection_matrices(special, data)
    assert len(checks) == 1
    assert tractor_curvature(special, data).is_zero()
    conn = nonmetrizable_witness()
    assert not tractor_curvature(conn, decompose_curvature(conn)).is_zero()
