"""Turning solutions into metrics and verifying everything.

A nondegenerate symmetric solution sigma^{bc} of the metrizability system
reconstructs to the metric g^{ab} = det(sigma) sigma^{ab}; the projective
change by the gradient of f = -1/2 log det(sigma) carries the special
connection onto the Levi-Civita connection of g.  The log potential keeps
the whole reconstruction inside the rational-function field.

`pipeline` proves an exactly rebuilt candidate by the linear
metrizability equation tf(grad'_a g^{bc}) = 0 for its connection grad'
(`MetricCandidate.solves_metrizability`), tested as integer polynomial
identities in the special gauge with no gcd; its volume form is parallel
by construction.  Also here: the Levi-Civita characterisation
`is_levi_civita`, the general library check and the tests' oracle for
that proof, the numeric comparison of unparameterised geodesics, and
three checks that the analysis does not run: the sampled
projective-equivalence defect and the exact and sampled constant-curvature
checks (a demo calls the exact one; the tests call all three).  The
benchmark's span tracer wraps those three by name, so they stay here
until the product records its own spans (ROADMAP Direction 7).

The checks at points (the candidate signatures at the samples,
`sampled_lc_residual`, `kappa_at`) read exact values and first partials
and build no derivative field.  A candidate's point table
(`MetricCandidate.jets_at`) comes from the jets of the special
connection, of sigma (or g) and the 2-jet of D = det: the candidate
connection is the special one changed by Y_b = k d_b D / D, so grad f
is built only where a report reads it, and the changed connection only
where a point table falls back at a pole.  A symbolic pair (conn, g^{ab})
is read through the jets of its entries.  The geodesics use the
step-doubling Runge-Kutta driver that parallel transport in `mobility`
uses too.
"""

import csv
import operator
from fractions import Fraction
from itertools import product
from math import prod

from .errors import (DegenerateMetric, DegenerateSigma, PoleError, PoleOnPath,
                     ShapeError)
from .exactlinalg import adjugate, leibniz_det, symmetric_signature
from .exprcore import Poly, _compile_nonzero, _rk4_doubling, _rk4_step
# projective_equivalence lives in projconn; it stays importable from here
# with the other verification checks
from .projconn import (AffineConnection, _trace_upsilon, full_curvature,
                       projective_change, projective_equivalence, ricci)
from .tensorfield import (TensorField, covariant_derivative, trace_free_part)

__all__ = [
    "MetricCandidate",
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

    `sigma` is None for a candidate built from its metric g^{ab}.  The
    candidate is built from the tensor t (sigma, or g^{ab}), the special
    connection and D = det t: `det_sigma` is D, `f` the report string of
    the log potential k log D.  `upsilon` = grad f = k dD/D, `connection`
    (the special connection changed by `upsilon`) and `g_down` (the
    symbolic inverse of `g_up`) are built on first access and kept.  The
    checks at points read `jets_at` and the exact proof is
    `solves_metrizability`; neither builds any of them.
    """

    __slots__ = ("sigma", "det_sigma", "f", "g_up", "base_point", "signature",
                 "definite", "warnings", "_t", "_special", "_log_coeff",
                 "_upsilon", "_connection", "_g_down", "_t_cache")

    def __init__(self, t, from_sigma, det, log_coeff, special, g_up,
                 base_point):
        self.sigma = t if from_sigma else None
        self.det_sigma = det
        self.f = f"{log_coeff}*log({det})"
        self.g_up = g_up
        self.base_point = base_point
        self.signature = None
        self.definite = None
        self.warnings = []
        self._t = t
        self._special = special
        self._log_coeff = log_coeff
        self._upsilon = self._connection = self._g_down = None
        self._t_cache = {}

    @property
    def upsilon(self):
        if self._upsilon is None:
            D, k = self.det_sigma, self._log_coeff
            self._upsilon = tuple(D.diff(a) * k / D
                                  for a in range(1, D.chart.dim + 1))
        return self._upsilon

    @property
    def connection(self):
        if self._connection is None:
            self._connection = projective_change(self._special, self.upsilon)
        return self._connection

    @property
    def g_down(self):
        if self._g_down is None:
            self._g_down = metric_inverse(self.g_up)
        return self._g_down

    def solves_metrizability(self):
        """Exact proof of tf(grad'_a g^{bc}) = 0 for the candidate
        connection grad', as integer polynomial identities in the gauge of
        the special connection Gamma: no gcd, no RationalExpr operation
        and no candidate connection.

        Gamma' - Gamma = delta Y + delta Y with Y = k d log D adds
        2 Y_a g^{bc} to grad_a g^{bc}, plus a pure trace that tf removes.
        For g^{bc} = D sigma^{bc} and k = -1/2 the product rule cancels
        that term, so the test is tf(grad_a sigma^{bc}) = 0; for g-built
        candidates (k = -1/(2(n+1))) it is
        tf(grad_a g^{bc} + 2k d_a log D g^{bc}) = 0.  With Gamma = N / D_G
        (the special connection's kept common form), t = T / E and
        D = Dn / Dd, (n+1) D_G E^2 Dn Dd times the g-built bracket is

            (n+1) Dn Dd M_a^{bc} - D_G E (Dd d_a Dn - Dn d_a Dd) T^{bc},
            M_a^{bc} = D_G (E d_a T^{bc} - T^{bc} d_a E)
                       + E (N^b_ae T^{ec} + N^c_ae T^{be}),

        and M_a^{bc} = D_G E^2 grad_a sigma^{bc} is the sigma-built one.
        Any common multiple of the denominators serves a zero test, so E
        is the product of the distinct denominators of t.  In the special
        gauge the metric volume form is parallel by construction, so this
        one test proves that Gamma' is the Levi-Civita connection of g.
        """
        n = self._t.chart.dim
        N, DG, _ = self._special.common
        T, E = _numerators_over_product(self._t)
        dE = [E.diff(k) for k in range(n)]
        if self.sigma is None:
            Dn, Dd = self.det_sigma.num, self.det_sigma.den
            DnDd = (n + 1) * Dn * Dd
            dlog = [DG * E * (Dd * Dn.diff(k) - Dn * Dd.diff(k))
                    for k in range(n)]
        Q = [[[None] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                for c in range(b, n):
                    acc = Poly()
                    for e in range(n):
                        acc = acc + N[b][a][e] * T[e][c] + N[c][a][e] * T[b][e]
                    m = DG * (E * T[b][c].diff(a) - T[b][c] * dE[a]) \
                        + E * acc
                    if self.sigma is None:
                        m = DnDd * m - dlog[a] * T[b][c]
                    Q[a][b][c] = Q[a][c][b] = m
        # tf(Q)_a^{bc} = Q_a^{bc} - (delta_a^b S^c + delta_a^c S^b) / (n+1)
        S = [sum((Q[d][d][c] for d in range(n)), Poly()) for c in range(n)]
        return not any(
            (n + 1) * Q[a][b][c] - (S[c] if a == b else 0)
            - (S[b] if a == c else 0)
            for a in range(n) for b in range(n) for c in range(b, n))

    def _t_jets(self, pt):
        """Exact values and first partials of the entries of t at the
        rational point `pt`, as a symmetric matrix of (value, [d_1..d_n]);
        cached per point.  PoleError where t has a pole."""
        key = tuple(pt)
        jets = self._t_cache.get(key)
        if jets is None:
            jets = self._t_cache[key] = _symmetric_jets(self._t, pt)
        return jets

    def jets_at(self, pt):
        """(gamma, dgamma, g, dg) at the rational point `pt`: exact values
        and first partials of the candidate connection and of g^{ab}
        (`_point_table`).

        Where a factor has a pole or D vanishes, the symbolic pair
        (`connection`, `g_up`) is evaluated instead: it either raises the
        PoleError of its own pole there or, where its poles cancel, gives
        the values.
        """
        try:
            return self._point_table(pt)
        except PoleError:
            return _pair_table(self.connection, self.g_up, pt)

    def _point_table(self, pt):
        """The candidate connection Gamma' = Gamma + delta^c_a Y_b +
        delta^c_b Y_a, with Y_b = k d_b D / D and
        d_m Y_b = k (D d_m d_b D - d_b D d_m D) / D^2, from the jets of the
        special Gamma and the 2-jet of D; g^{ab} = D sigma^{ab} by the
        product rule for a sigma-built candidate, else t itself."""
        n = len(pt)
        dv, dd, hd = self.det_sigma.jet(pt, hessian=True)
        if not dv:
            raise PoleError(f"det vanishes at {tuple(pt)}")
        k = self._log_coeff
        ups = [k * d / dv for d in dd]
        dups = [[k * (dv * hd[m][b] - dd[b] * dd[m]) / (dv * dv)
                 for m in range(n)] for b in range(n)]
        gam, dgam = _connection_jets(self._special, pt)
        for c, a, b in product(range(n), repeat=3):
            for i, j in ((a, b), (b, a)):
                if c == i:
                    gam[c][a][b] += ups[j]
                    dgam[c][a][b] = [x + y for x, y in
                                     zip(dgam[c][a][b], dups[j])]
        t = self._t_jets(pt)
        if self.sigma is None:
            return gam, dgam, _values(t), _partials(t)
        g = [[dv * v for v, _ in row] for row in t]
        dg = [[[dd[m] * v + dv * grad[m] for m in range(n)] for v, grad in row]
              for row in t]
        return gam, dgam, g, dg

    def __repr__(self):
        return (f"MetricCandidate(signature={self.signature}, "
                f"definite={self.definite})")


def _numerators_over_product(t):
    """(T, E) with t^{bc} = T[b][c] / E for a symmetric rank-2 field t, in
    Z[x]: E is the product of the distinct denominators of the entries, a
    common multiple found without a gcd."""
    n = t.chart.dim
    entries = {(b, c): t.get(b, c) for b in range(n) for c in range(b, n)}
    dens = []
    for f in entries.values():
        if f.den not in dens:
            dens.append(f.den)
    T = [[None] * n for _ in range(n)]
    for (b, c), f in entries.items():
        T[b][c] = T[c][b] = f.num * prod(d for d in dens if d != f.den)
    return T, prod(dens)


def _symmetric_jets(t, pt):
    """Symmetric matrix of RationalExpr.jet of a symmetric rank-2 field's
    entries at pt; each jet is taken once."""
    n = len(pt)
    jets = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            jets[i][j] = jets[j][i] = t.get(i, j).jet(pt)
    return jets


def _values(jets):
    return [[v for v, _ in row] for row in jets]


def _partials(jets):
    return [[grad for _, grad in row] for row in jets]


def _connection_jets(conn, pt):
    """(gamma, dgamma): values and first partials of Gamma^c_ab at pt."""
    n = len(pt)
    gam = [[[None] * n for _ in range(n)] for _ in range(n)]
    dgam = [[[None] * n for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for a in range(n):
            for b in range(a, n):
                val, grad = conn.gamma[c][a][b].jet(pt)
                gam[c][a][b] = gam[c][b][a] = val
                dgam[c][a][b] = dgam[c][b][a] = grad
    return gam, dgam


def _pair_table(conn, g_up, pt):
    """The point table of a symbolic pair (conn, g^{ab}), from the jets of
    each entry."""
    jets = _symmetric_jets(g_up, pt)
    return (*_connection_jets(conn, pt), _values(jets), _partials(jets))


def _point_source(conn, g_up):
    """Point evaluator pt -> (gamma, dgamma, g, dg) for the point checks: a
    MetricCandidate in place of `conn` (with `g_up` None) gives its own;
    otherwise the symbolic pair is read through its jets."""
    if isinstance(conn, MetricCandidate):
        return conn.jets_at
    return lambda pt: _pair_table(conn, g_up, pt)


def reconstruct_metric(sigma, conn, base_point=None, region_samples=()):
    """Metric candidate from a symmetric nondegenerate solution field.

    g^{ab} = det(sigma) sigma^{ab}; the candidate connection is the
    projective change of `conn` by grad f with f = -1/2 log det(sigma),
    which is the Levi-Civita connection of g whenever sigma solves the
    metrizability system for `conn`.
    """
    return _candidate(sigma, True, conn, base_point, region_samples)


def candidate_from_metric(g_up, conn, base_point=None, region_samples=()):
    """Metric candidate from an exact reconstructed metric g^{ab}.

    Used when the candidate metric is exactly rational (for instance the
    reconstruction series terminated) while the solution sigma itself is
    not: sigma is proportional to g^{ab} times det(g)^{-1/(n+1)}, so the
    projective change onto the Levi-Civita connection has the rational
    gradient of f = -1/(2(n+1)) log det(g^{ab}).
    """
    return _candidate(g_up, False, conn, base_point, region_samples)


def _symmetric_scale(t, s):
    """s * t for a symmetric rank-2 field t: one product per unordered pair
    i <= j, and the (j, i) entry is the same object as the (i, j) one."""
    n = t.chart.dim
    upper = {(i, j): s * t.get(i, j) for i in range(n) for j in range(i, n)}
    return TensorField.from_function(t.chart, t.variance,
                                     lambda i, j: upper[min(i, j), max(i, j)])


def _candidate(t, from_sigma, conn, base_point, region_samples):
    """Shared body of the two constructors: `t` is sigma^{ab} when
    `from_sigma`, else the metric g^{ab} (and the candidate's sigma is
    None).  Nondegeneracy, the signature and the log potential are all
    taken from `t`; the signatures at points read the candidate's
    cached jets of `t`."""
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
    g_up = _symmetric_scale(t, det) if from_sigma else t
    cand = MetricCandidate(t, from_sigma, det, log_coeff, conn, g_up,
                           tuple(base_point))

    warnings = cand.warnings
    pos, neg, zero = symmetric_signature(_values(cand._t_jets(base_point)))
    if zero:
        raise DegenerateSigma(f"{noun} has a zero eigenvalue at the base point")
    definite = pos == n
    if not definite:
        warnings.append(f"{noun} not positive definite at base point: "
                        f"signature ({pos},{neg})")
    for pt in region_samples:
        pt = [Fraction(v) for v in pt]
        try:
            m = _values(cand._t_jets(pt))
        except PoleError:
            warnings.append(f"{noun} has a pole at sample {tuple(pt)}")
            continue
        p2, n2, z2 = symmetric_signature(m)
        if (p2, n2) != (pos, neg) or z2:
            definite = False
            warnings.append(f"signature changes at sample {tuple(pt)}")
    cand.signature = (pos, neg)
    cand.definite = definite
    return cand


def _volume_residual(conn, g_up):
    """1-form t_a + (1/2) d_a det(g_up)/det(g_up), as a tuple; zero iff the
    metric volume form is parallel for conn."""
    det = det_field(g_up)
    if det.is_zero():
        raise DegenerateMetric("metric determinant vanishes identically")
    return tuple(t + det.diff(a) / (2 * det)
                 for a, t in enumerate(conn.trace_form(), 1))


def is_levi_civita(conn, g_up):
    """Is conn the metric connection of g^{ab}?

    Checks structurally that grad_a g^{bc} is pure trace and that the metric
    volume form is parallel.  Returns (bool, residual info dict).  This is
    the general library check, for any pair (conn, g^{ab}), and the tests'
    oracle for the one linear proof `analyze` makes per exact candidate,
    whose volume half holds by construction.
    """
    if g_up.variance != ("u", "u"):
        raise ShapeError("metric must be given with upper indices")
    dg = covariant_derivative(g_up, conn)
    tf = trace_free_part(dg)
    vol = _volume_residual(conn, g_up)
    return tf.is_zero() and not any(vol), {"trace_free": tf, "volume": vol}


def _eval_matrix(field, pt):
    n = field.chart.dim
    return [[float(field.get(i, j).evaluate(pt)) for j in range(n)] for i in range(n)]


def sampled_lc_residual(conn, g_up, samples):
    """Pointwise Levi-Civita defect of (conn, g) at sample points.

    Largest entry of the trace-free part of grad g and of the volume
    residual, evaluated numerically from the exact values and first
    partials of Gamma and of the symmetric g^{ab} at each point.  A
    MetricCandidate may stand in for `conn`, with `g_up` None: its point
    evaluator then gives both (`_point_source`).
    """
    import numpy as np

    jets_at = _point_source(conn, g_up)
    worst = 0.0
    for pt in samples:
        pt = [Fraction(v) for v in pt]
        n = len(pt)
        gam_q, _, g_q, dg_q = jets_at(pt)
        gv = np.array([[float(g_q[i][j]) for j in range(n)]
                       for i in range(n)])
        gam = [[[float(gam_q[c][a][b]) for b in range(n)]
                for a in range(n)] for c in range(n)]
        nabla = [[[0.0] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for i in range(n):
                for j in range(i, n):
                    val = float(dg_q[i][j][a])
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
            dg_a = np.array([[float(dg_q[i][j][a]) for j in range(n)]
                             for i in range(n)])
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


def _scalar_and_lowered_riemann(conn, g_down, g_up):
    """(Ric, g^{ad} Ric_ad, R_abcd = g_ce R_ab{}^e{}_d): the Ricci tensor
    and scalar curvature of the connection, and its Riemann tensor with the
    upper slot lowered."""
    chart = g_down.chart
    n = chart.dim
    riem = full_curvature(conn)  # R_ab{}^c{}_d
    ric = ricci(conn)
    scalar = chart.zero
    for a, d in product(range(n), repeat=2):
        gu = g_up.get(a, d)
        if not gu.is_zero():
            scalar = scalar + gu * ric.get(a, d)
    low = []
    for a, b, c, d in product(range(n), repeat=4):
        val = chart.zero
        for e in range(n):
            gc = g_down.get(c, e)
            if not gc.is_zero():
                val = val + gc * riem.get(a, b, e, d)
        low.append(val)
    return ric, scalar, TensorField(chart, ("d",) * 4, low)


def constant_curvature_check(g_down, samples=(), conn=None, g_up=None):
    """Does g have constant sectional curvature?

    Compares R_abcd with kappa (g_ac g_bd - g_ad g_bc) for
    kappa = R / (n(n-1)).  Exact inputs give an exact verdict and deviation
    zero; otherwise the deviation is the sampled maximum.
    The Levi-Civita connection and the inverse metric may be passed in when
    the caller already has them.  Returns (flag, kappa, deviation).
    """
    n = g_down.chart.dim
    if conn is None:
        conn = levi_civita(g_down)
    if g_up is None:
        g_up = metric_inverse(g_down)
    _, scalar, low = _scalar_and_lowered_riemann(conn, g_down, g_up)
    kappa_expr = scalar / (n * (n - 1))

    deviations = []
    for a, b, c, d in product(range(n), repeat=4):
        model = kappa_expr * (g_down.get(a, c) * g_down.get(b, d)
                              - g_down.get(a, d) * g_down.get(b, c))
        deviations.append(low.get(a, b, c, d) - model)

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


def kappa_at(conn, g_up, point):
    """kappa = R / (n(n-1)) of the pair (conn, g^{ab}) at one rational point,
    exactly in Q.

    Only values at the point enter: g^{ab}, Gamma and the first partials of
    Gamma, so no curvature field is built.  For the Levi-Civita connection of
    a metric of constant curvature this is the sectional curvature.  A
    MetricCandidate may stand in for `conn`, with `g_up` None, as in
    `sampled_lc_residual`.
    """
    pt = [Fraction(v) for v in point]
    n = len(pt)
    gam, dgam, g, _ = _point_source(conn, g_up)(pt)
    # R_ab = d_c G^c_ab - d_a G^c_cb + G^c_cd G^d_ab - G^c_ad G^d_cb
    scalar = Fraction(0)
    for a, b in product(range(n), repeat=2):
        gu = g[a][b]
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


def _geodesic_rhs(compiled, n):
    """Right-hand side (x, v)' = (v, -Gamma(v, v)) of the geodesic flow."""
    def rhs(t, state):
        x, v = state[:n], state[n:]
        acc = _gamma_quad(compiled, n, x, v)
        return v + [-a for a in acc]
    return rhs


def geodesic_compare(c1, c2, seeds):
    """Largest normalised transverse geodesic defect of c2 along c1-geodesics.

    For each seed the c1-geodesic is integrated over t in [0, 1] by
    `_rk4_doubling`; the positions [(t, x)] of its accepted pass are the
    seed's trace.  Along a fixed 64-step pass the c2 geodesic defect
    (Gamma2 - Gamma1)(v, v) is projected transverse to v and scaled by
    |v|^2.  Projectively equivalent connections give zero up to integrator
    error.  Each connection is compiled once per call.  Returns (max
    defect, traces).
    """
    n = c1.dim
    if c2.dim != n:
        raise ShapeError("connections have different dimensions")
    comp1 = _compile_nonzero(c1.gamma)
    comp2 = _compile_nonzero(c2.gamma)
    rhs1 = _geodesic_rhs(comp1, n)
    worst = 0.0
    traces = []
    steps = 64
    h = 1.0 / steps
    for point, direction in seeds:
        state = [float(v) for v in point] + [float(v) for v in direction]
        _, path = _rk4_doubling(rhs1, state, 16, 1e-10, 1.0,
                                "geodesic integration stuck at {steps} steps",
                                trace=True)
        traces.append([(t, y[:n]) for t, y in path])
        # defect sampling runs on a fresh fixed-step pass so the sampled
        # states carry velocities
        cur = state
        try:
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
                cur = _rk4_step(rhs1, k * h, cur, h)
        except PoleError as exc:
            raise PoleOnPath(str(exc)) from exc
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
