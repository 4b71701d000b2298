"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from projmet import (AffineConnection, Chart, TensorField, beta_form,
                     constant_curvature_check,
                     decompose_curvature, degree_of_mobility, geodesic_compare,
                     levi_civita, metric_inverse, projective_change,
                     projective_equivalence, reconstruct_metric, specialize)
from projmet.cli import analyze_connection
from projmet.models import (flat_connection, klein_connection,
                            nonmetrizable_witness, sphere_gnomonic_connection,
                            sphere_stereographic_connection)
from projmet.projconn import _schouten_and_weyl, cotton_york
from projmet.tractor import section_dim, sym_pairs, tractor_curvature
from projmet.tensorfield import covariant_derivative, trace_free_part

from conftest import (rand_exact_oneform, rand_fraction, rand_poly,
                      rand_special_connection)
from linalg_oracle import sparse
from oracles import (TractorSection, bianchi_contracted_check,
                     curvature_on_section, is_closed, outer, rank, scalar,
                     scale, sub)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {desc}")
        raise
    print(f"[acceptance] criterion {num}: PASS - {desc}")


def _default_options(n, **over):
    opts = {"max_order": 2 * n + 4, "samples": 4, "tolerance": 1e-8}
    opts.update(over)
    return opts


# -- criterion 1 ---------------------------------------------------------------

def test_criterion_1_flat_mobility():
    with criterion(1, "flat-space mobility 6 (n=2) and 10 (n=3), quadratic "
                      "solution family recovered, under 5 s"):
        t0 = time.perf_counter()
        js2 = degree_of_mobility(flat_connection(2), [0, 0], 4)
        js3 = degree_of_mobility(flat_connection(3), [0, 0, 0], 4)
        elapsed = time.perf_counter() - t0
        assert js2.dim == 6 and js2.stabilized
        assert js3.dim == 10 and js3.stabilized
        assert elapsed < 5.0
        rng = random.Random(101)
        for js, n in ((js2, 2), (js3, 3)):
            N = section_dim(n)
            pairs = sym_pairs(n)
            # forward: each basis solution is the quadratic family member
            # determined by its initial values
            for vec, ser in zip(js.admissible_basis, js.series):
                s = [[Fraction(0)] * n for _ in range(n)]
                for k, (i, j) in enumerate(pairs):
                    s[i][j] = s[j][i] = vec[k]
                m = [vec[len(pairs) + i] for i in range(n)]
                r = vec[N - 1]
                want = _family_series(n, s, m, r)
                have = {mono: v for mono, v in ser.items() if any(v)}
                assert want == have
            # backward: random family members lie in the admissible span
            rows = [list(v) for v in js.admissible_basis]
            assert rank(*sparse(rows)) == N
            for _ in range(10):
                init = [rand_fraction(rng) for _ in range(N)]
                assert rank(*sparse(rows + [init])) == N


def _family_series(n, s, m, r):
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
        bump(tuple(a + b for a, b in zip(ei, ej)), k, r)
    off = len(pairs)
    for i in range(n):
        bump(zero, off + i, m[i])
        bump(tuple(int(t == i) for t in range(n)), off + i, r)
    bump(zero, N - 1, r)
    return {mono: v for mono, v in out.items() if any(v)}


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_2_beltrami_reproduction():
    with criterion(2, "positive definite flat solutions reconstruct to "
                      "constant curvature metrics, exact deviation 0, "
                      "20 draws"):
        rng = random.Random(202)
        done = 0
        counts = {2: 12, 3: 8}
        for n, want in counts.items():
            chart = Chart(n)
            xs = chart.vars
            flat = flat_connection(n)
            produced = 0
            while produced < want:
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
                        comps.append(chart.const(s[i][j]) + xs[i] * m[j]
                                     + xs[j] * m[i] + xs[i] * xs[j] * r)
                sigma = TensorField(chart, ("u", "u"), comps)
                try:
                    cand = reconstruct_metric(sigma, flat)
                except Exception:
                    continue
                if not cand.definite:
                    continue
                flag, kappa, dev = constant_curvature_check(
                    cand.g_down, conn=cand.connection, g_up=cand.g_up)
                assert flag and dev == 0
                produced += 1
                done += 1
        assert done == 20


# -- criterion 3 ---------------------------------------------------------------

def test_criterion_3_space_form_models():
    with criterion(3, "Klein/sphere models: zero prolonged curvature, full "
                      "mobility, reference curvatures recovered"):
        # exact zero curvature operators in every chart and dimension
        for n in (2, 3):
            for conn in (klein_connection(n), sphere_gnomonic_connection(n),
                         sphere_stereographic_connection(n)):
                special, _ = specialize(conn)
                data = decompose_curvature(special)
                assert tractor_curvature(special, data).is_zero()
        # full mobility bound
        for n, bound in ((2, 6), (3, 10)):
            for conn in (klein_connection(n),
                         sphere_stereographic_connection(n)):
                special, _ = specialize(conn)
                js = degree_of_mobility(special, [0] * n, 5)
                assert js.dim == bound and js.stabilized
        # reconstructed reference curvatures, exactly (candidates are
        # normalised to sigma(0) = identity, so g(0) is the identity too)
        for n in (2, 3):
            report, code = analyze_connection(
                klein_connection(n), [Fraction(0)] * n, _default_options(n))
            assert code == 0 and report["verdict"] == "METRIZABLE"
            assert any(m.get("verified") and m.get("kappa") == "-1"
                       and m.get("exact") for m in report["metrics"])
            report, code = analyze_connection(
                sphere_gnomonic_connection(n), [Fraction(0)] * n,
                _default_options(n))
            assert code == 0 and report["verdict"] == "METRIZABLE"
            assert any(m.get("verified") and m.get("kappa") == "1"
                       and m.get("exact") for m in report["metrics"])
        # series-truncated pieces stay within 1e-9 of the reference value
        report, code = analyze_connection(
            sphere_stereographic_connection(2), [Fraction(0)] * 2,
            _default_options(2, max_order=10, tolerance=1e-7))
        assert code == 0
        series_kappas = [m["kappa"] for m in report["metrics"]
                         if m.get("verified") and m.get("exact") is False
                         and m.get("kappa") is not None]
        assert any(abs(k - 1) <= 1e-9 for k in series_kappas)


# -- criterion 4 ---------------------------------------------------------------

def _random_acceptance_metric(n, rng):
    """delta plus a sparse degree <= 2 perturbation with coefficients <= 1/4
    and no constant term (so the metric is positive definite near 0)."""
    chart = Chart(n)
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    rng.shuffle(slots)
    pert = {}
    for slot in slots[:2]:
        c = Fraction(rng.choice([-2, -1, 1, 2]), 8)
        deg = rng.randint(1, 2)
        mono = chart.const(c)
        for _ in range(deg):
            mono = mono * chart.var(rng.randint(1, n))
        pert[slot] = mono
    comps = []
    for i in range(n):
        for j in range(n):
            val = chart.one if i == j else chart.zero
            p = pert.get((min(i, j), max(i, j)))
            if p is not None:
                val = val + p
            comps.append(val)
    return TensorField(chart, ("d", "d"), comps)


def test_criterion_4_round_trip():
    with criterion(4, "pipeline on Levi-Civita inputs recovers an exactly "
                      "equivalent metric connection; geodesic defect < 1e-6 "
                      "over 10 seeds; 10 random metrics"):
        rng = random.Random(404)
        runs = [(2, 6), (3, 4)]
        for n, count in runs:
            for _ in range(count):
                g = _random_acceptance_metric(n, rng)
                conn = levi_civita(g)
                report, code = analyze_connection(
                    conn, [Fraction(0)] * n,
                    _default_options(n, max_order=6))
                assert report["verdict"] == "METRIZABLE"
                witness = next(m for m in report["metrics"]
                               if m.get("verified") and m.get("definite"))
                # the report alone is enough to re-run the checks
                chart = Chart(n)
                g_up = TensorField(chart, ("u", "u"), [
                    chart.parse(witness["g_upper"][i][j])
                    for i in range(n) for j in range(n)])
                lc2 = levi_civita(metric_inverse(g_up))
                # exact recovery, independent of the 1-form the pipeline
                # assembled from its parts
                ups = projective_equivalence(conn, lc2)
                assert witness["equivalence_upsilon"] == [
                    str(c) for c in ups]
                seeds = _ten_seeds(n)
                defect, _ = geodesic_compare(conn, lc2, seeds)
                assert defect < 1e-6


def _ten_seeds(n):
    seeds = []
    for i in range(10):
        pt = [0.02 * ((i + j) % 3 - 1) for j in range(n)]
        vec = [0.2 if j == i % n else 0.05 * ((i + j) % 2) for j in range(n)]
        seeds.append((pt, vec))
    return seeds


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_5_invariance_suite():
    with criterion(5, "100 random exact invariance cases: Weyl unchanged, "
                      "Cotton-York law, correction-term transform, "
                      "trace-free operator invariance"):
        rng = random.Random(505)
        cases = [(2, 70), (3, 30)]
        for n, count in cases:
            chart = Chart(n)
            for _ in range(count):
                conn = rand_special_connection(n, rng)
                data = decompose_curvature(conn)
                f, df = rand_exact_oneform(chart, rng)
                changed = projective_change(conn, df)
                _, w_hat = _schouten_and_weyl(changed)
                # Weyl is projectively invariant
                assert w_hat == data.weyl
                # Cotton-York transformation law
                y_hat = cotton_york(changed)
                half = chart.const(Fraction(1, 2))
                for a, b, c in product(range(n), repeat=3):
                    corr = chart.zero
                    for d in range(n):
                        w = data.weyl.get(a, b, d, c)
                        if not w.is_zero():
                            corr = corr + w * df[d]
                    assert y_hat.get(a, b, c) == \
                        data.cotton_york.get(a, b, c) + half * corr
                # correction terms transform like transformed sections
                sigma = _random_sigma(chart, rng)
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
                # invariance of the trace-free operator under the rescaling
                # sigma -> e^{-2f} sigma: the derivative of the factor,
                # -2 df (x) sigma, is written out
                dfield = TensorField(chart, ("d",), df)
                lhs_t = sub(trace_free_part(covariant_derivative(sigma, changed)),
                            scale(trace_free_part(outer(dfield, sigma)), 2))
                rhs_t = trace_free_part(covariant_derivative(sigma, conn))
                assert lhs_t == rhs_t


def _random_sigma(chart, rng):
    n = chart.dim
    sig = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = rand_poly(chart, rng, 2, 2)
            sig[i][j] = sig[j][i] = p
    return TensorField(chart, ("u", "u"),
                       [sig[i][j] for i in range(n) for j in range(n)])


# -- criterion 6 ---------------------------------------------------------------

def test_criterion_6_curvature_oracle():
    with criterion(6, "stored curvature action equals the derivative "
                      "commutator on all slots, 25 random special "
                      "connections"):
        rng = random.Random(606)
        cases = [(2, 18), (3, 7)]
        for n, count in cases:
            chart = Chart(n)
            pairs = sym_pairs(n)
            for _ in range(count):
                conn = rand_special_connection(n, rng)
                data = decompose_curvature(conn)
                cur = tractor_curvature(conn, data)
                sec = _random_section_for(chart, rng)
                acted = curvature_on_section(conn, data, sec)
                packed = [sec.sigma.get(i, j) for i, j in pairs] \
                    + [sec.mu.get(i) for i in range(n)] + [sec.rho.get()]
                for (a, b), (top, mid, bot) in acted.items():
                    mat = cur.matrix(a, b)
                    wants = [top.get(i, j) for i, j in pairs] \
                        + [mid.get(i) for i in range(n)] + [bot.get()]
                    for row, want in zip(mat, wants):
                        have = chart.zero
                        for m_e, s_e in zip(row, packed):
                            if not m_e.is_zero() and not s_e.is_zero():
                                have = have + m_e * s_e
                        assert have == want


def _random_section_for(chart, rng):
    n = chart.dim
    sigma = _random_sigma(chart, rng)
    mu = TensorField(chart, ("u",),
                     [rand_poly(chart, rng, 2, 2) for _ in range(n)])
    rho = scalar(chart, rand_poly(chart, rng, 2, 2))
    return TractorSection(sigma, mu, rho)


# -- criterion 7 ---------------------------------------------------------------

def test_criterion_7_bianchi_identity():
    with criterion(7, "contracted Bianchi identity holds structurally for "
                      "25 random special connections, n = 3 and 4"):
        rng = random.Random(707)
        cases = [(3, 15), (4, 10)]
        for n, count in cases:
            for _ in range(count):
                conn = rand_special_connection(n, rng, entries=2, max_degree=2)
                data = decompose_curvature(conn)
                assert bianchi_contracted_check(data, conn).is_zero()


# -- criterion 8 ---------------------------------------------------------------

# frozen lower bound for the least-squares oracle on the stored witness:
# the smallest singular value measured at freeze time was 1.1645e-3 for the
# degree-6 ansatz on the 7x7 grid below (and exactly 0 for the flat
# connection, whose solution space is nontrivial)
WITNESS_ORACLE_LOWER_BOUND = 5e-4


def test_criterion_8_nonmetrizable_witness():
    with criterion(8, "stored witness: mobility 0, stabilized, verdict "
                      "NOT_METRIZABLE_AT_ORDER, least-squares oracle bound"):
        conn = nonmetrizable_witness()
        js = degree_of_mobility(conn, [0, 0], 8)
        assert js.dim == 0 and js.stabilized
        report, code = analyze_connection(conn, [Fraction(0), Fraction(0)],
                                          _default_options(2, max_order=8))
        assert code == 10
        assert report["verdict"] == "NOT_METRIZABLE_AT_ORDER(8)"
        assert report["mobility"]["stabilized"] is True
        smin = _witness_least_squares_smin(conn)
        assert smin > WITNESS_ORACLE_LOWER_BOUND


def _witness_least_squares_smin(conn):
    """Independent numeric oracle: the metrizability operator applied to a
    degree-6 polynomial ansatz for sigma, sampled on a grid; a smallest
    singular value bounded away from zero rules out nonzero polynomial
    solutions of that degree."""
    n = 2
    monos = [(i, j) for i in range(7) for j in range(7) if i + j <= 6]
    comps = [(0, 0), (0, 1), (1, 1)]
    gam = [[[conn.gamma[c][a][b] for b in range(n)] for a in range(n)]
           for c in range(n)]
    grid = [(x / 6.0 - 0.5, y / 6.0 - 0.5) for x in range(7) for y in range(7)]

    def mono_val(mono, pt):
        return pt[0] ** mono[0] * pt[1] ** mono[1]

    def mono_diff(mono, k, pt):
        e = mono[k]
        if e == 0:
            return 0.0
        lowered = (mono[0] - 1, mono[1]) if k == 0 else (mono[0], mono[1] - 1)
        return e * mono_val(lowered, pt)

    rows = []
    for pt in grid:
        gv = [[[float(gam[c][a][b].evaluate([Fraction(pt[0]).limit_denominator(10 ** 6),
                                             Fraction(pt[1]).limit_denominator(10 ** 6)]))
                for b in range(n)] for a in range(n)] for c in range(n)]
        # columns indexed by (component, monomial)
        point_rows = {key: [0.0] * (len(comps) * len(monos))
                      for key in [(a, b, c) for a in range(n)
                                  for b in range(n) for c in range(b, n)]}
        def sig_entry(i, j, p, q, value):
            return value if (i, j) in ((p, q), (q, p)) else 0.0

        for ci, (p, q) in enumerate(comps):
            for mi, mono in enumerate(monos):
                col = ci * len(monos) + mi
                mval = mono_val(mono, pt)
                # nabla_a sigma^{bc} for sigma = mono e_{(pq)}
                for a in range(n):
                    for b in range(n):
                        for c in range(b, n):
                            val = sig_entry(b, c, p, q, mono_diff(mono, a, pt))
                            for d in range(n):
                                val += gv[b][a][d] * sig_entry(d, c, p, q, mval)
                                val += gv[c][a][d] * sig_entry(b, d, p, q, mval)
                            point_rows[(a, b, c)][col] += val
        # subtract the pure-trace completion
        trace = {c: [0.0] * (len(comps) * len(monos)) for c in range(n)}
        for c in range(n):
            for d in range(n):
                key = (d, min(d, c), max(d, c))
                trace[c] = [t + v for t, v in zip(trace[c], point_rows[key])]
        for (a, b, c), row in point_rows.items():
            out = list(row)
            if a == b:
                out = [o - t / (n + 1) for o, t in zip(out, trace[c])]
            if a == c:
                out = [o - t / (n + 1) for o, t in zip(out, trace[b])]
            rows.append(out)
    matrix = np.array(rows)
    svals = np.linalg.svd(matrix, compute_uv=False)
    return float(svals[-1])


# -- criterion 9 ---------------------------------------------------------------

def test_criterion_9_specialization():
    with criterion(9, "25 exact changes of metric connections specialize to "
                      "zero trace and zero beta; a non-symmetric-Ricci "
                      "connection has nonzero closed beta"):
        rng = random.Random(909)
        cases = [(2, 15), (3, 10)]
        for n, count in cases:
            chart = Chart(n)
            for _ in range(count):
                g = _random_acceptance_metric(n, rng)
                conn = levi_civita(g)
                f, df = rand_exact_oneform(chart, rng)
                moved = projective_change(conn, df)
                special, _ = specialize(moved)
                assert special.is_special()
                assert beta_form(special).is_zero()
        chart = Chart(2)
        bad = AffineConnection.from_components(chart, {(1, 1, 1): chart.var(2)})
        beta = beta_form(bad)
        assert not beta.is_zero()
        assert is_closed(beta)
