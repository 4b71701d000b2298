"""Turning solutions into metrics and verifying everything.

A nondegenerate symmetric solution sigma^{bc} of the metrizability system
reconstructs to the metric g^{ab} = det(sigma) sigma^{ab}; the projective
change by the gradient of f = -1/2 log det(sigma) carries the special
connection onto the Levi-Civita connection of g.  The log potential keeps
the whole reconstruction inside the rational-function field.

Also here: the Levi-Civita characterisation used as the acceptance check,
the sampled projective-equivalence defect, the metric decomposition of the
Riemann tensor, constant-curvature detection, and the numeric comparison of
unparameterised geodesics.
"""

import csv
import operator
from fractions import Fraction
from itertools import product

from .errors import (DegenerateMetric, DegenerateSigma, DimensionTooSmall,
                     PoleError, PoleOnPath, ShapeError, StepUnderflow)
from .exactlinalg import adjugate, leibniz_det, symmetric_signature
from .exprcore import DifferentialForm, Potential, compile_numeric
# projective_equivalence lives in projconn, where specialize checks it; it
# stays importable from here with the other verification checks
from .projconn import (AffineConnection, _schouten_and_weyl, _trace_upsilon,
                       full_curvature, projective_change,
                       projective_equivalence, ricci)
from .tensorfield import (TensorField, covariant_derivative, trace_free_part)

__all__ = [
    "MetricCandidate",
    "RiemannSplit",
    "det_field",
    "metric_inverse",
    "reconstruct_metric",
    "candidate_from_metric",
    "is_levi_civita",
    "sampled_lc_residual",
    "sampled_constant_curvature",
    "levi_civita",
    "projective_equivalence",
    "equivalence_defect",
    "riemann_split",
    "constant_curvature_check",
    "kappa_at",
    "geodesic_compare",
    "write_trace_csv",
]


def det_field(t):
    """Leibniz determinant of a rank-2 tensor's component matrix.

    Normalised so det of the identity component matrix is 1; matches the
    volume-form contraction in the standard coordinate gauge.
    """
    if t.rank != 2:
        raise ShapeError("determinant needs a rank-2 tensor")
    return leibniz_det(t.get, t.chart.dim, t.chart.zero, operator.mul,
                       operator.add, operator.neg)


def metric_inverse(t):
    """Exact inverse of a nondegenerate rank-2 tensor, variances flipped.

    Adjugate over determinant: one division per entry keeps the
    rational-function normalisation work small.
    """
    if t.rank != 2:
        raise ShapeError("inverse needs a rank-2 tensor")
    chart = t.chart
    n = chart.dim
    det = det_field(t)
    if det.is_zero():
        raise DegenerateMetric("component matrix is singular as a field")
    adj = adjugate(t.get, n, chart.zero, operator.mul, operator.add,
                   operator.neg)
    flip = {"u": "d", "d": "u"}
    var = (flip[t.variance[0]], flip[t.variance[1]])
    return TensorField(chart, var, [adj(i, j) / det for i in range(n)
                                    for j in range(n)])


class MetricCandidate:
    """Reconstruction output for one solution sigma.

    `exact_solution` records whether sigma is an exact solution field (the
    jet series terminated) or a series truncation; verification downstream
    is structural in the first case and sampled in the second.
    """

    __slots__ = ("sigma", "det_sigma", "f", "upsilon", "connection", "g_up",
                 "g_down", "base_point", "signature", "definite", "warnings",
                 "exact_solution")

    def __init__(self, sigma, det_sigma, f, upsilon, connection, g_up, g_down,
                 base_point, signature, definite, warnings, exact_solution):
        self.sigma = sigma
        self.det_sigma = det_sigma
        self.f = f
        self.upsilon = upsilon
        self.connection = connection
        self.g_up = g_up
        self.g_down = g_down
        self.base_point = base_point
        self.signature = signature
        self.definite = definite
        self.warnings = warnings
        self.exact_solution = exact_solution

    def __repr__(self):
        return (f"MetricCandidate(signature={self.signature}, "
                f"definite={self.definite}, exact={self.exact_solution})")


def reconstruct_metric(sigma, conn, base_point=None, region_samples=(),
                       exact_solution=True):
    """Metric candidate from a symmetric nondegenerate solution field.

    g^{ab} = det(sigma) sigma^{ab}; the returned connection is the
    projective change of `conn` by grad f with f = -1/2 log det(sigma),
    which is the Levi-Civita connection of g whenever sigma solves the
    metrizability system for `conn`.
    """
    return _candidate(sigma, True, conn, base_point, region_samples, sigma,
                      exact_solution)


def candidate_from_metric(g_up, conn, base_point=None, region_samples=(),
                          sigma=None, exact_solution=True):
    """Metric candidate from an exact reconstructed metric g^{ab}.

    Used when the candidate metric is exactly rational (for instance the
    reconstruction series terminated) while the solution sigma itself is
    not: sigma is proportional to g^{ab} times det(g)^{-1/(n+1)}, so the
    projective change onto the Levi-Civita connection has the rational
    gradient of f = -1/(2(n+1)) log det(g^{ab}).
    """
    return _candidate(g_up, False, conn, base_point, region_samples, sigma,
                      exact_solution)


def _candidate(t, from_sigma, conn, base_point, region_samples, sigma,
               exact_solution):
    """Shared body of the two constructors: `t` is sigma^{ab} when
    `from_sigma`, else the metric g^{ab}.  Nondegeneracy, the signature and
    the log potential are all taken from `t`."""
    det_name, noun = ("sigma", "sigma") if from_sigma else ("g", "metric")
    chart = t.chart
    n = chart.dim
    if t.variance != ("u", "u") or not t.is_symmetric(0, 1):
        raise ShapeError(f"{noun} must be a symmetric (u,u) field")
    base_point = [Fraction(0)] * n if base_point is None else \
        [Fraction(p) for p in base_point]
    det = det_field(t)
    if det.is_zero():
        raise DegenerateSigma(f"det({det_name}) is identically zero")
    try:
        det_at_p = det.evaluate(base_point)
    except PoleError as exc:
        raise DegenerateSigma(
            f"det({det_name}) undefined at base point: {exc}") from exc
    if det_at_p == 0:
        raise DegenerateSigma(f"det({det_name}) vanishes at the base point")

    log_coeff = Fraction(-1, 2) if from_sigma else Fraction(-1, 2 * (n + 1))
    f = Potential(chart, log_terms=[(det, log_coeff)])
    upsilon = f.grad()
    changed = projective_change(conn, upsilon)
    g_up = t.scale(det) if from_sigma else t
    # series truncations skip the symbolic inverse; numeric checks invert
    # pointwise instead
    g_down = metric_inverse(g_up) if exact_solution or not from_sigma \
        else None

    warnings = []
    mat = [[t.get(i, j).evaluate(base_point) for j in range(n)] for i in range(n)]
    pos, neg, zero = symmetric_signature(mat)
    if zero:
        raise DegenerateSigma(f"{noun} has a zero eigenvalue at the base point")
    definite = pos == n
    if not definite:
        warnings.append(f"{noun} not positive definite at base point: "
                        f"signature ({pos},{neg})")
    for pt in region_samples:
        pt = [Fraction(v) for v in pt]
        try:
            m = [[t.get(i, j).evaluate(pt) for j in range(n)] for i in range(n)]
        except PoleError:
            warnings.append(f"{noun} has a pole at sample {tuple(pt)}")
            continue
        p2, n2, z2 = symmetric_signature(m)
        if (p2, n2) != (pos, neg) or z2:
            definite = False
            warnings.append(f"signature changes at sample {tuple(pt)}")
    return MetricCandidate(sigma, det, f, upsilon, changed, g_up, g_down,
                           tuple(base_point), (pos, neg), definite, warnings,
                           exact_solution)


def _volume_residual(conn, g_up):
    """1-form t_a + (1/2) d_a det(g_up)/det(g_up); zero iff the metric volume
    form is parallel for conn."""
    chart = conn.chart
    n = chart.dim
    det = det_field(g_up)
    if det.is_zero():
        raise DegenerateMetric("metric determinant vanishes identically")
    trace = conn.trace_form()
    comps = []
    for a in range(n):
        comps.append(trace.components[a] + det.diff(a + 1) / (2 * det))
    return DifferentialForm(chart, 1, comps)


def is_levi_civita(conn, g_up):
    """Is conn the metric connection of g^{ab}?

    Checks structurally that grad_a g^{bc} is pure trace and that the metric
    volume form is parallel.  Returns (bool, residual info dict).
    """
    if g_up.variance != ("u", "u"):
        raise ShapeError("metric must be given with upper indices")
    dg = covariant_derivative(g_up, conn)
    tf = trace_free_part(dg)
    vol = _volume_residual(conn, g_up)
    return tf.is_zero() and vol.is_zero(), {"trace_free": tf, "volume": vol}


def _eval_matrix(field, pt):
    n = field.chart.dim
    return [[float(field.get(i, j).evaluate(pt)) for j in range(n)] for i in range(n)]


def sampled_lc_residual(conn, g_up, samples):
    """Pointwise Levi-Civita defect of (conn, g) at sample points.

    Largest entry of the trace-free part of grad g and of the volume
    residual, all evaluated numerically.
    """
    import numpy as np

    chart = conn.chart
    n = chart.dim
    worst = 0.0
    dg_fields = {}
    for a in range(n):
        for i in range(n):
            for j in range(i, n):
                dg_fields[(a, i, j)] = g_up.get(i, j).diff(a + 1)
    for pt in samples:
        pt = [Fraction(v) for v in pt]
        gv = np.array(_eval_matrix(g_up, pt))
        gam = [[[float(conn.gamma[c][a][b].evaluate(pt)) for b in range(n)]
                for a in range(n)] for c in range(n)]
        nabla = [[[0.0] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for i in range(n):
                for j in range(i, n):
                    val = float(dg_fields[(a, i, j)].evaluate(pt))
                    for e in range(n):
                        val += gam[i][a][e] * gv[e][j] + gam[j][a][e] * gv[i][e]
                    nabla[a][i][j] = val
                    nabla[a][j][i] = val
        trace = [sum(nabla[d][d][c] for d in range(n)) for c in range(n)]
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    val = nabla[a][i][j]
                    if a == i:
                        val -= trace[j] / (n + 1)
                    if a == j:
                        val -= trace[i] / (n + 1)
                    worst = max(worst, abs(val))
        # volume: t_a + (1/2) tr(g^{-1} d_a g) with upper-index g flips sign
        ginv = np.linalg.inv(gv)
        for a in range(n):
            t_a = sum(gam[b][a][b] for b in range(n))
            dg_a = np.array([[float(dg_fields[(a, min(i, j), max(i, j))].evaluate(pt))
                              for j in range(n)] for i in range(n)])
            val = t_a + 0.5 * float(np.trace(ginv @ dg_a))
            worst = max(worst, abs(val))
    return worst


def sampled_constant_curvature(conn, g_up, samples):
    """Numeric constant-curvature check along sample points.

    conn must be (approximately) the Levi-Civita connection of g.  Returns
    (flag, kappa at the first sample, max deviation).
    """
    import numpy as np

    chart = conn.chart
    n = chart.dim
    dgam = {}
    for c, a, b in product(range(n), repeat=3):
        e = conn.gamma[c][a][b]
        if not e.is_zero():
            for k in range(n):
                d = e.diff(k + 1)
                if not d.is_zero():
                    dgam[(k, c, a, b)] = d
    kappa0 = None
    worst = 0.0
    for pt in samples:
        pt = [Fraction(v) for v in pt]
        gv = np.array(_eval_matrix(g_up, pt))
        g_dn = np.linalg.inv(gv)
        gam = np.array([[[float(conn.gamma[c][a][b].evaluate(pt)) for b in range(n)]
                         for a in range(n)] for c in range(n)])
        dg = np.zeros((n, n, n, n))
        for (k, c, a, b), e in dgam.items():
            dg[k][c][a][b] = float(e.evaluate(pt))
        riem = np.zeros((n, n, n, n))  # R_ab^c_d
        for a, b, c, d in product(range(n), repeat=4):
            val = dg[a][c][b][d] - dg[b][c][a][d]
            val += sum(gam[c][a][e] * gam[e][b][d] - gam[c][b][e] * gam[e][a][d]
                       for e in range(n))
            riem[a][b][c][d] = val
        ricci_v = np.einsum("babd->ad", riem)
        scal = float(np.einsum("ad,ad->", gv, ricci_v))
        kappa = scal / (n * (n - 1))
        if kappa0 is None:
            kappa0 = kappa
        worst = max(worst, abs(kappa - kappa0))
        low = np.einsum("ce,abed->abcd", g_dn, riem)
        model = kappa0 * (np.einsum("ac,bd->abcd", g_dn, g_dn)
                          - np.einsum("ad,bc->abcd", g_dn, g_dn))
        worst = max(worst, float(np.max(np.abs(low - model))))
    return worst <= 1e-9, kappa0, worst


def levi_civita(g_down):
    """Levi-Civita connection of a nondegenerate lower-index metric."""
    if g_down.variance != ("d", "d") or not g_down.is_symmetric(0, 1):
        raise ShapeError("metric must be a symmetric (d,d) field")
    chart = g_down.chart
    n = chart.dim
    g_up = metric_inverse(g_down)
    half = chart.const(Fraction(1, 2))
    gamma = [[[chart.zero] * n for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for a in range(n):
            for b in range(a, n):
                val = chart.zero
                for d in range(n):
                    gu = g_up.get(c, d)
                    if gu.is_zero():
                        continue
                    val = val + gu * (g_down.get(b, d).diff(a + 1)
                                      + g_down.get(a, d).diff(b + 1)
                                      - g_down.get(a, b).diff(d + 1))
                val = half * val
                gamma[c][a][b] = val
                gamma[c][b][a] = val
    return AffineConnection(chart, gamma)


def equivalence_defect(c1, c2, samples):
    """Sampled magnitude of the non-pure-trace part of Gamma2 - Gamma1.

    Zero exactly when the connections are projectively equivalent; used for
    series-truncated candidates where the structural test cannot pass.
    """
    n = c1.chart.dim
    ups = _trace_upsilon(c1, c2)
    worst = 0.0
    for pt in samples:
        pt = [Fraction(v) for v in pt]
        for c, a, b in product(range(n), repeat=3):
            want = 0.0
            if c == a:
                want += float(ups[b].evaluate(pt))
            if c == b:
                want += float(ups[a].evaluate(pt))
            have = float((c2.gamma[c][a][b] - c1.gamma[c][a][b]).evaluate(pt))
            worst = max(worst, abs(have - want))
    return worst


class RiemannSplit:
    """Metric decomposition of the curvature of a Levi-Civita connection."""

    __slots__ = ("_weyl_conformal", "_phi", "scalar", "schouten_metric", "dim")

    def __init__(self, weyl_conformal, phi, scalar, schouten_metric, dim):
        self._weyl_conformal = weyl_conformal
        self._phi = phi
        self.scalar = scalar
        self.schouten_metric = schouten_metric
        self.dim = dim

    @property
    def weyl_conformal(self):
        if self._weyl_conformal is None:
            raise DimensionTooSmall("conformal Weyl part needs dimension >= 3")
        return self._weyl_conformal

    @property
    def phi(self):
        if self._phi is None:
            raise DimensionTooSmall("trace-free Ricci part needs dimension >= 3")
        return self._phi


def riemann_split(g_down):
    """Split the Riemann tensor of g into conformal Weyl, trace-free Ricci,
    scalar and metric Schouten parts; reassembly is verified exactly, and so
    is the relation between the projective and conformal Weyl tensors (for
    n >= 3).  Dimension 2 yields the scalar-only split."""
    chart = g_down.chart
    n = chart.dim
    conn = levi_civita(g_down)
    g_up = metric_inverse(g_down)
    riem = full_curvature(conn)  # R_ab{}^c{}_d
    ric = ricci(conn)
    scalar = chart.zero
    for a, d in product(range(n), repeat=2):
        gu = g_up.get(a, d)
        if not gu.is_zero():
            scalar = scalar + gu * ric.get(a, d)

    # lower the upper slot: R_abcd = g_ce R_ab{}^e{}_d
    low = []
    for a, b, c, d in product(range(n), repeat=4):
        val = chart.zero
        for e in range(n):
            gc = g_down.get(c, e)
            if not gc.is_zero():
                val = val + gc * riem.get(a, b, e, d)
        low.append(val)
    riem_low = TensorField(chart, ("d",) * 4, low)

    if n == 2:
        quarter = chart.const(Fraction(1, 4))
        q_comps = [quarter * scalar * g_down.get(a, b)
                   for a, b in product(range(n), repeat=2)]
        schouten_metric = TensorField(chart, ("d", "d"), q_comps)
        _verify_cheese(riem_low, None, schouten_metric, g_down)
        return RiemannSplit(None, None, scalar, schouten_metric, n)

    inv_n = chart.const(Fraction(1, n))
    phi_comps = [ric.get(a, b) - inv_n * scalar * g_down.get(a, b)
                 for a, b in product(range(n), repeat=2)]
    phi = TensorField(chart, ("d", "d"), phi_comps)
    cn2 = chart.const(Fraction(1, n - 2))
    c2n = chart.const(Fraction(1, 2 * n * (n - 1)))
    q_comps = [cn2 * phi.get(a, b) + c2n * scalar * g_down.get(a, b)
               for a, b in product(range(n), repeat=2)]
    schouten_metric = TensorField(chart, ("d", "d"), q_comps)

    weyl_low = []
    for a, b, c, d in product(range(n), repeat=4):
        val = (riem_low.get(a, b, c, d)
               - g_down.get(a, c) * schouten_metric.get(b, d)
               + g_down.get(b, c) * schouten_metric.get(a, d)
               - schouten_metric.get(a, c) * g_down.get(b, d)
               + schouten_metric.get(b, c) * g_down.get(a, d))
        weyl_low.append(val)
    weyl_low = TensorField(chart, ("d",) * 4, weyl_low)
    # raise the third slot to match the projective Weyl shape
    weyl_comps = []
    for a, b, c, d in product(range(n), repeat=4):
        val = chart.zero
        for e in range(n):
            gu = g_up.get(c, e)
            if not gu.is_zero():
                val = val + gu * weyl_low.get(a, b, e, d)
        weyl_comps.append(val)
    weyl_conformal = TensorField(chart, ("d", "d", "u", "d"), weyl_comps)

    _verify_cheese(riem_low, weyl_low, schouten_metric, g_down)
    _verify_weyl_relation(conn, g_down, g_up, weyl_conformal, phi)
    return RiemannSplit(weyl_conformal, phi, scalar, schouten_metric, n)


def _verify_cheese(riem_low, weyl_low, q, g_down):
    """R_abcd = C_abcd + g_ac Q_bd - g_bc Q_ad + Q_ac g_bd - Q_bc g_ad, exactly."""
    from .errors import InternalError

    chart = g_down.chart
    n = chart.dim
    for a, b, c, d in product(range(n), repeat=4):
        val = (g_down.get(a, c) * q.get(b, d) - g_down.get(b, c) * q.get(a, d)
               + q.get(a, c) * g_down.get(b, d) - q.get(b, c) * g_down.get(a, d))
        if weyl_low is not None:
            val = val + weyl_low.get(a, b, c, d)
        if val != riem_low.get(a, b, c, d):
            raise InternalError(f"Riemann reassembly failed at {(a, b, c, d)}")


def _verify_weyl_relation(conn, g_down, g_up, weyl_conformal, phi):
    """Projective Weyl = conformal Weyl + the displayed trace-free Ricci terms."""
    from .errors import InternalError

    chart = g_down.chart
    n = chart.dim
    _, w_proj = _schouten_and_weyl(conn)
    phi_mixed = []
    for a, c in product(range(n), repeat=2):
        val = chart.zero
        for e in range(n):
            gu = g_up.get(c, e)
            if not gu.is_zero():
                val = val + gu * phi.get(a, e)
        phi_mixed.append(val)
    phi_mixed = TensorField(chart, ("d", "u"), phi_mixed)
    f1 = chart.const(Fraction(1, (n - 1) * (n - 2)))
    f2 = chart.const(Fraction(1, n - 2))
    for a, b, c, d in product(range(n), repeat=4):
        val = weyl_conformal.get(a, b, c, d)
        if a == c:
            val = val + f1 * phi.get(b, d)
        if b == c:
            val = val - f1 * phi.get(a, d)
        val = val + f2 * (phi_mixed.get(a, c) * g_down.get(b, d)
                          - phi_mixed.get(b, c) * g_down.get(a, d))
        if val != w_proj.get(a, b, c, d):
            raise InternalError(f"Weyl comparison failed at {(a, b, c, d)}")


def constant_curvature_check(g_down, samples=(), conn=None, g_up=None):
    """Does g have constant sectional curvature?

    Compares R_abcd with kappa (g_ac g_bd - g_ad g_bc) for
    kappa = R / (n(n-1)).  Exact inputs give an exact verdict and deviation
    zero; otherwise the deviation is the sampled maximum.
    The Levi-Civita connection and the inverse metric may be passed in when
    the caller already has them.  Returns (flag, kappa, deviation).
    """
    chart = g_down.chart
    n = chart.dim
    if conn is None:
        conn = levi_civita(g_down)
    if g_up is None:
        g_up = metric_inverse(g_down)
    riem = full_curvature(conn)
    ric = ricci(conn)
    scalar = chart.zero
    for a, d in product(range(n), repeat=2):
        gu = g_up.get(a, d)
        if not gu.is_zero():
            scalar = scalar + gu * ric.get(a, d)
    kappa_expr = scalar / (n * (n - 1))

    deviations = []
    for a, b, c, d in product(range(n), repeat=4):
        low = chart.zero
        for e in range(n):
            gc = g_down.get(c, e)
            if not gc.is_zero():
                low = low + gc * riem.get(a, b, e, d)
        model = kappa_expr * (g_down.get(a, c) * g_down.get(b, d)
                              - g_down.get(a, d) * g_down.get(b, c))
        deviations.append(low - model)

    if kappa_expr.is_constant() and all(e.is_zero() for e in deviations):
        return True, kappa_expr.constant_value(), Fraction(0)
    if not samples:
        return False, None, None
    base = samples[0]
    kappa = float(kappa_expr.evaluate([Fraction(v) for v in base]))
    worst = 0.0
    for pt in samples:
        pt = [Fraction(v) for v in pt]
        worst = max(worst, abs(float(kappa_expr.evaluate(pt)) - kappa))
        for e in deviations:
            if not e.is_zero():
                worst = max(worst, abs(float(e.evaluate(pt))))
    return worst <= 1e-9, kappa, worst


def _value_and_gradient(terms, point):
    """Value and first partials at `point` of the polynomial sum c x^e."""
    n = len(point)
    val = Fraction(0)
    grad = [Fraction(0)] * n
    for exps, c in terms:
        powers = [x ** e for x, e in zip(point, exps)]
        term = c
        for p in powers:
            term *= p
        val += term
        for k, e in enumerate(exps):
            if e:
                part = c * e * point[k] ** (e - 1)
                for j, p in enumerate(powers):
                    if j != k:
                        part *= p
                grad[k] += part
    return val, grad


def _jet_at(expr, point):
    """Value and first partials of a rational function at a rational point,
    by the quotient rule on its numerator and denominator polynomials."""
    n = len(point)
    if expr.is_zero():
        return Fraction(0), [Fraction(0)] * n
    num, dnum = _value_and_gradient(expr.numer_terms(), point)
    den, dden = _value_and_gradient(expr.denom_terms(), point)
    if not den:
        raise PoleError(f"denominator vanishes at {tuple(point)}")
    den2 = den * den
    return num / den, [(dn * den - num * dd) / den2
                       for dn, dd in zip(dnum, dden)]


def kappa_at(conn, g_up, point):
    """kappa = R / (n(n-1)) of the pair (conn, g^{ab}) at one rational point,
    exactly in Q.

    Only values at the point enter: g^{ab}, Gamma and the first partials of
    Gamma, so no curvature field is built.  For the Levi-Civita connection of
    a metric of constant curvature this is the sectional curvature.
    """
    n = conn.dim
    pt = [Fraction(v) for v in point]
    gam = [[[None] * n for _ in range(n)] for _ in range(n)]
    dgam = [[[None] * n for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for a in range(n):
            for b in range(a, n):
                val, grad = _jet_at(conn.gamma[c][a][b], pt)
                gam[c][a][b] = gam[c][b][a] = val
                dgam[c][a][b] = dgam[c][b][a] = grad
    # R_ab = d_c G^c_ab - d_a G^c_cb + G^c_cd G^d_ab - G^c_ad G^d_cb
    scalar = Fraction(0)
    for a, b in product(range(n), repeat=2):
        gu = g_up.get(a, b).evaluate(pt)
        if not gu:
            continue
        ric = Fraction(0)
        for c in range(n):
            ric += dgam[c][a][b][c] - dgam[c][c][b][a]
            for d in range(n):
                ric += gam[c][c][d] * gam[d][a][b] - gam[c][a][d] * gam[d][c][b]
        scalar += gu * ric
    return scalar / (n * (n - 1))


# ---------------------------------------------------------------------------
# unparameterised geodesic comparison
# ---------------------------------------------------------------------------

def _compile_gamma(conn):
    n = conn.dim
    return [[[None if conn.gamma[c][a][b].is_zero()
              else compile_numeric(conn.gamma[c][a][b])
              for b in range(n)] for a in range(n)] for c in range(n)]


def _gamma_quad(compiled, n, x, v):
    """Gamma^c_ab v^a v^b for compiled symbols."""
    out = [0.0] * n
    for c in range(n):
        acc = 0.0
        plane = compiled[c]
        for a in range(n):
            va = v[a]
            if va == 0.0:
                continue
            row = plane[a]
            for b in range(n):
                fn = row[b]
                if fn is not None and v[b] != 0.0:
                    acc += fn(x) * va * v[b]
        out[c] = acc
    return out


def _geodesic_rhs(compiled, n, state):
    x, v = state[:n], state[n:]
    acc = _gamma_quad(compiled, n, x, v)
    return v + [-a for a in acc]


def _rk4_step(compiled, n, cur, h):
    k1 = _geodesic_rhs(compiled, n, cur)
    s2 = [a + h / 2 * b for a, b in zip(cur, k1)]
    k2 = _geodesic_rhs(compiled, n, s2)
    s3 = [a + h / 2 * b for a, b in zip(cur, k2)]
    k3 = _geodesic_rhs(compiled, n, s3)
    s4 = [a + h * b for a, b in zip(cur, k3)]
    k4 = _geodesic_rhs(compiled, n, s4)
    return [a + h / 6 * (p + 2 * q + 2 * r + s)
            for a, p, q, r, s in zip(cur, k1, k2, k3, k4)]


def _rk4_path(compiled, n, state, t_end, steps):
    h = t_end / steps
    cur = list(state)
    trace = [(0.0, cur[:n])]
    for k in range(steps):
        cur = _rk4_step(compiled, n, cur, h)
        trace.append(((k + 1) * h, cur[:n]))
    return cur, trace


def integrate_geodesic(conn, point, direction, t_end=1.0, tol=1e-10):
    """Geodesic of conn from (point, direction), adaptive step doubling."""
    n = conn.dim
    compiled = _compile_gamma(conn)
    state = [float(v) for v in point] + [float(v) for v in direction]
    steps = 16
    try:
        prev, _ = _rk4_path(compiled, n, state, t_end, steps)
    except PoleError as exc:
        raise PoleOnPath(str(exc)) from exc
    while True:
        steps *= 2
        cur, trace = _rk4_path(compiled, n, state, t_end, steps)
        err = max(abs(a - b) for a, b in zip(cur, prev))
        if err <= tol * max(1.0, max(abs(v) for v in cur)):
            return cur, trace
        if steps > 1 << 18:
            raise StepUnderflow(f"geodesic integration stuck at {steps} steps")
        prev = cur


def geodesic_compare(c1, c2, seeds, tol=1e-10, t_end=1.0, trace_samples=32):
    """Largest normalised transverse geodesic defect of c2 along c1-geodesics.

    For each seed the c1-geodesic is integrated; along it the c2 geodesic
    defect (Gamma2 - Gamma1)(v, v) is projected transverse to v and scaled
    by |v|^2.  Projectively equivalent connections give zero up to
    integrator error.  Returns (max defect, traces).
    """
    n = c1.dim
    if c2.dim != n:
        raise ShapeError("connections have different dimensions")
    comp1 = _compile_gamma(c1)
    comp2 = _compile_gamma(c2)
    worst = 0.0
    traces = []
    for point, direction in seeds:
        _, trace = integrate_geodesic(c1, point, direction, t_end, tol)
        traces.append(trace)
        # defect sampling runs on a fresh fixed-step pass so the sampled
        # states carry velocities
        state = [float(v) for v in point] + [float(v) for v in direction]
        steps = max(64, trace_samples)
        h = t_end / steps
        cur = list(state)
        for k in range(steps):
            x, v = cur[:n], cur[n:]
            d1 = _gamma_quad(comp1, n, x, v)
            d2 = _gamma_quad(comp2, n, x, v)
            diff = [b - a for a, b in zip(d1, d2)]
            v2 = sum(w * w for w in v)
            if v2 > 0:
                proj = sum(d * w for d, w in zip(diff, v)) / v2
                trans = [d - proj * w for d, w in zip(diff, v)]
                mag = max(abs(t) for t in trans) / v2
                worst = max(worst, mag)
            cur = _rk4_step(comp1, n, cur, h)
    return worst, traces


def write_trace_csv(traces, path):
    """Write geodesic traces as CSV with columns t, x1..xn per trajectory."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if traces:
            ncoords = len(traces[0][0][1])
            writer.writerow(["trajectory", "t"] + [f"x{i + 1}" for i in range(ncoords)])
        for idx, trace in enumerate(traces):
            for t, x in trace:
                writer.writerow([idx, f"{t:.10g}"] + [f"{v:.12g}" for v in x])
