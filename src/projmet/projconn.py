"""Affine connections and their projective invariants.

Conventions (fixed once, validated by the constant-curvature models):

    (grad_a grad_b - grad_b grad_a) X^c = R_ab{}^c{}_d X^d
    R_ab{}^c{}_d = d_a Gamma^c_bd - d_b Gamma^c_ad
                   + Gamma^c_ae Gamma^e_bd - Gamma^c_be Gamma^e_ad
    Ricci_ad = R_ba{}^b{}_d          (so Ricci = (n-1) kappa g on space forms)

For a connection with symmetric Ricci tensor the curvature splits as
R_ab{}^c{}_d = W_ab{}^c{}_d + delta_a{}^c P_bd - delta_b{}^c P_ad with W
totally trace-free; for general connections the antisymmetric Ricci part is
carried by the closed 2-form beta.  The closed formulas

    P_ab = R_(ab)/(n-1) + R_[ab]/(n+1),      beta_ab = -2 R_[ab]/(n+1)

are the unique solution of those linear conventions.
"""

from fractions import Fraction
from itertools import product

from .errors import InternalError, NotEquivalent, NotSpecial, ShapeError
from .exprcore import (DifferentialForm, Potential, RationalExpr,
                       homotopy_potential, potential_of_closed_1form)
from .tensorfield import TensorField, covariant_derivative

__all__ = [
    "AffineConnection",
    "ProjectiveData",
    "ricci",
    "beta_form",
    "projective_change",
    "projective_equivalence",
    "specialize",
    "full_curvature",
    "decompose_curvature",
    "bianchi_contracted_check",
]


class AffineConnection:
    """Torsion-free connection given by Christoffel symbols Gamma^c_{ab}.

    Storage is gamma[c][a][b] with the lower pair symmetric (checked).
    """

    __slots__ = ("chart", "gamma")

    def __init__(self, chart, gamma):
        n = chart.dim
        if n < 2:
            raise ShapeError("connections need dimension at least 2")
        g = [[[gamma[c][a][b] for b in range(n)] for a in range(n)] for c in range(n)]
        for c in range(n):
            for a in range(n):
                for b in range(a + 1, n):
                    if g[c][a][b] != g[c][b][a]:
                        raise ShapeError(
                            f"Christoffel symbols not symmetric at ^{c + 1}_({a + 1}{b + 1})")
        self.chart = chart
        self.gamma = tuple(tuple(tuple(row) for row in plane) for plane in g)

    @classmethod
    def flat(cls, chart):
        z = chart.zero
        n = chart.dim
        return cls(chart, [[[z] * n for _ in range(n)] for _ in range(n)])

    @classmethod
    def from_components(cls, chart, entries):
        """Connection from {(c, a, b): RationalExpr} with 1-based indices;
        omitted entries are zero and the (a, b) symmetry is filled in."""
        n = chart.dim
        z = chart.zero
        g = [[[z] * n for _ in range(n)] for _ in range(n)]
        for (c, a, b), val in entries.items():
            g[c - 1][a - 1][b - 1] = val
            g[c - 1][b - 1][a - 1] = val
        return cls(chart, g)

    @property
    def dim(self):
        return self.chart.dim

    def trace_form(self):
        """Christoffel trace t_a = Gamma^b_{ab} as a 1-form."""
        n = self.dim
        comps = []
        for a in range(n):
            s = self.chart.zero
            for b in range(n):
                s = s + self.gamma[b][a][b]
            comps.append(s)
        return DifferentialForm(self.chart, 1, comps)

    def is_special(self):
        """Parallel coordinate volume: Christoffel trace identically zero."""
        return all(c.is_zero() for c in self.trace_form().components)

    def __eq__(self, other):
        if not isinstance(other, AffineConnection):
            return NotImplemented
        if self.chart is not other.chart:
            return False
        return all(
            self.gamma[c][a][b] == other.gamma[c][a][b]
            for c, a, b in product(range(self.dim), repeat=3))

    def __repr__(self):
        return f"AffineConnection(dim={self.dim})"


class ProjectiveData:
    """Derived curvature package of a special connection."""

    __slots__ = ("connection", "ricci", "beta", "schouten", "weyl", "cotton_york")

    def __init__(self, connection, ricci, beta, schouten, weyl, cotton_york):
        self.connection = connection
        self.ricci = ricci
        self.beta = beta
        self.schouten = schouten
        self.weyl = weyl
        self.cotton_york = cotton_york


def _gamma_common(conn):
    """Christoffel symbols over one common polynomial denominator.

    Returns (numerators N[c][a][b] as ring elements, D, [d_k D]); rational
    connections are assembled this way so each curvature component costs a
    single gcd cancellation instead of thousands.
    """
    chart = conn.chart
    n = chart.dim
    ring = chart._ring
    D = ring.one
    for c, a, b in product(range(n), repeat=3):
        den = conn.gamma[c][a][b].frac.denom
        g = D.gcd(den)
        D = D.quo(g) * den
    N = [[[conn.gamma[c][a][b].frac.numer * D.quo(conn.gamma[c][a][b].frac.denom)
           for b in range(n)] for a in range(n)] for c in range(n)]
    gens = ring.gens
    dD = [D.diff(gens[k]) for k in range(n)]
    return N, D, dD


def _is_polynomial_connection(conn):
    return all(e.is_polynomial() for plane in conn.gamma for row in plane
               for e in row)


def ricci(conn):
    """Ricci tensor R_ab = d_c G^c_ab - d_a G^c_cb + G^c_cd G^d_ab - G^c_ad G^d_cb."""
    chart = conn.chart
    n = chart.dim
    g = conn.gamma
    if _is_polynomial_connection(conn):
        comps = []
        for a in range(n):
            for b in range(n):
                val = chart.zero
                for c in range(n):
                    val = val + g[c][a][b].diff(c + 1) - g[c][c][b].diff(a + 1)
                    for d in range(n):
                        val = val + g[c][c][d] * g[d][a][b] - g[c][a][d] * g[d][c][b]
                comps.append(val)
        return TensorField(chart, ("d", "d"), comps)
    N, D, dD = _gamma_common(conn)
    ring = chart._ring
    gens = ring.gens
    field = chart._field
    D2 = D * D
    comps = []
    for a in range(n):
        for b in range(n):
            num = ring.zero
            for c in range(n):
                num = num + N[c][a][b].diff(gens[c]) * D - N[c][a][b] * dD[c]
                num = num - N[c][c][b].diff(gens[a]) * D + N[c][c][b] * dD[a]
                for d in range(n):
                    num = num + N[c][c][d] * N[d][a][b] - N[c][a][d] * N[d][c][b]
            comps.append(RationalExpr(chart, field.new(num, D2)))
    return TensorField(chart, ("d", "d"), comps)


def beta_form(conn):
    """Antisymmetric Ricci obstruction beta_ab = -2 R_[ab]/(n+1), a closed 2-form."""
    return _beta_of_ricci(ricci(conn))


def _beta_of_ricci(r):
    chart = r.chart
    n = chart.dim
    frac = chart.const(Fraction(1, n + 1))
    comps = [[-frac * (r.get(a, b) - r.get(b, a)) for b in range(n)] for a in range(n)]
    beta = DifferentialForm(chart, 2, comps)
    if not beta.d().is_zero():
        raise InternalError("beta is not closed; curvature conventions broken")
    return beta


def projective_change(conn, upsilon):
    """Connection with the same geodesics: G^c_ab + d_a^c Y_b + d_b^c Y_a."""
    chart = conn.chart
    n = chart.dim
    ups = upsilon.components if isinstance(upsilon, DifferentialForm) else tuple(upsilon)
    g = [[[conn.gamma[c][a][b] for b in range(n)] for a in range(n)] for c in range(n)]
    for c in range(n):
        for b in range(n):
            g[c][c][b] = g[c][c][b] + ups[b]
            g[c][b][c] = g[c][b][c] + ups[b]
    return AffineConnection(chart, g)


def _trace_upsilon(c1, c2):
    """Y_a = (Gamma2 - Gamma1)^b_ab / (n+1): the only 1-form whose pure-trace
    difference delta_a^c Y_b + delta_b^c Y_a can match Gamma2 - Gamma1."""
    chart = c1.chart
    n = chart.dim
    ups = []
    for a in range(n):
        s = chart.zero
        for b in range(n):
            s = s + c2.gamma[b][a][b] - c1.gamma[b][a][b]
        ups.append(s / (n + 1))
    return ups


def projective_equivalence(c1, c2):
    """Recover the 1-form relating two projectively equivalent connections.

    The difference D^c_ab must be delta_a^c Y_b + delta_b^c Y_a; the trace
    determines Y and the full difference is verified structurally.  Raises
    NotEquivalent (with the offending component) otherwise.
    """
    if c1.chart is not c2.chart:
        raise ShapeError("connections live on different charts")
    chart = c1.chart
    n = chart.dim
    ups = _trace_upsilon(c1, c2)
    for c, a, b in product(range(n), repeat=3):
        want = chart.zero
        if c == a:
            want = want + ups[b]
        if c == b:
            want = want + ups[a]
        have = c2.gamma[c][a][b] - c1.gamma[c][a][b]
        if have != want:
            raise NotEquivalent(
                f"difference is not pure trace at ^{c + 1}_({a + 1}{b + 1})",
                component=(c + 1, a + 1, b + 1))
    return DifferentialForm(chart, 1, ups)


def specialize(conn, beta_potential=None, beta=None):
    """Projectively change into the volume-preserving gauge.

    Stage one removes the antisymmetric Ricci part: a 1-form Y0 with
    dY0 = -beta comes from the radial homotopy (or is supplied by the
    caller when beta is not polynomial).  Stage two kills the resulting
    Christoffel trace t_a, which is then closed, by the exact change
    Y1 = -t/(n+1); its potential f = -h/(n+1), with dh = t, is recovered in
    closed form.  Returns (special connection, total Y, f as a Potential).
    A caller that already has beta_form(conn) passes it as `beta`, so the
    Ricci tensor of `conn` is built once.

    Every metric candidate is a projective change of the special
    connection, so the 1-form relating it to `conn` is Y plus its own
    gradient.  That makes this the one place where equivalence with the
    input is checked: `projective_equivalence(conn, special)` must recover
    exactly Y, or InternalError is raised.
    """
    chart = conn.chart
    n = chart.dim
    if beta is None:
        beta = beta_form(conn)
    if beta.is_zero():
        ups0 = DifferentialForm.zero(chart, 1)
        stage1 = conn
    else:
        if beta_potential is not None:
            ups0 = beta_potential
        else:
            ups0 = homotopy_potential(-beta)
        if not (ups0.d() + beta).is_zero():
            raise InternalError("supplied beta potential does not satisfy dY0 = -beta")
        stage1 = projective_change(conn, ups0)

    trace = stage1.trace_form()
    if trace.is_zero():
        special, total, f = stage1, ups0, Potential.zero(chart)
    else:
        h = potential_of_closed_1form(trace)
        f = h.scale(Fraction(-1, n + 1))
        ups1 = DifferentialForm(chart, 1, [
            -c / (n + 1) for c in trace.components])
        special = projective_change(stage1, ups1)
        if not special.is_special():
            raise InternalError(
                "specialization failed to kill the Christoffel trace")
        total = ups0 + ups1
    try:
        recovered = projective_equivalence(conn, special)
    except NotEquivalent as exc:
        raise InternalError(
            f"special connection not equivalent to the input: {exc}") from exc
    if recovered != total:
        raise InternalError(
            "recovered 1-form differs from the specialization 1-form")
    return special, total, f


def full_curvature(conn):
    """R_ab{}^c{}_d with the package's sign convention."""
    chart = conn.chart
    n = chart.dim
    g = conn.gamma
    if _is_polynomial_connection(conn):
        comps = []
        for a, b, c, d in product(range(n), repeat=4):
            val = g[c][b][d].diff(a + 1) - g[c][a][d].diff(b + 1)
            for e in range(n):
                val = val + g[c][a][e] * g[e][b][d] - g[c][b][e] * g[e][a][d]
            comps.append(val)
        return TensorField(chart, ("d", "d", "u", "d"), comps)
    N, D, dD = _gamma_common(conn)
    ring = chart._ring
    gens = ring.gens
    field = chart._field
    D2 = D * D
    comps = []
    for a, b, c, d in product(range(n), repeat=4):
        if a == b:
            comps.append(chart.zero)
            continue
        num = N[c][b][d].diff(gens[a]) * D - N[c][b][d] * dD[a] \
            - N[c][a][d].diff(gens[b]) * D + N[c][a][d] * dD[b]
        for e in range(n):
            num = num + N[c][a][e] * N[e][b][d] - N[c][b][e] * N[e][a][d]
        comps.append(RationalExpr(chart, field.new(num, D2)))
    return TensorField(chart, ("d", "d", "u", "d"), comps)


def _schouten_and_weyl(conn, ric=None):
    """P and W of a symmetric-Ricci connection (gauge not required).
    `ric` is ricci(conn), when the caller already has it."""
    chart = conn.chart
    n = chart.dim
    riem = full_curvature(conn)
    if ric is None:
        ric = ricci(conn)
    frac = chart.const(Fraction(1, n - 1))
    p_comps = [frac * ric.get(a, b) for a in range(n) for b in range(n)]
    schouten = TensorField(chart, ("d", "d"), p_comps)
    w_comps = []
    for a, b, c, d in product(range(n), repeat=4):
        val = riem.get(a, b, c, d)
        if a == c:
            val = val - schouten.get(b, d)
        if b == c:
            val = val + schouten.get(a, d)
        w_comps.append(val)
    weyl = TensorField(chart, ("d", "d", "u", "d"), w_comps)
    return schouten, weyl


def cotton_york(conn, schouten):
    """Y_abc = (grad_a P_bc - grad_b P_ac)/2."""
    chart = conn.chart
    n = chart.dim
    if _is_polynomial_connection(conn) and all(e.is_polynomial()
                                               for e in schouten.comps):
        dp = covariant_derivative(schouten, conn)
        half = chart.const(Fraction(1, 2))
        comps = [half * (dp.get(a, b, c) - dp.get(b, a, c))
                 for a, b, c in product(range(n), repeat=3)]
        return TensorField(chart, ("d", "d", "d"), comps)
    # rational data: assemble grad P over the product of the two common
    # denominators so each component cancels once
    ring = chart._ring
    gens = ring.gens
    field = chart._field
    N, D, dD = _gamma_common(conn)
    DP = ring.one
    for e in schouten.comps:
        g = DP.gcd(e.frac.denom)
        DP = DP.quo(g) * e.frac.denom
    PN = [[schouten.get(a, b).frac.numer * DP.quo(schouten.get(a, b).frac.denom)
           for b in range(n)] for a in range(n)]
    dDP = [DP.diff(gens[k]) for k in range(n)]
    den = D * DP * DP

    def grad_num(a, b, c):
        # (d_a PN - PN dlog DP) D DP - sum_e (N PN + N PN) DP over D DP^2
        num = (PN[b][c].diff(gens[a]) * DP - PN[b][c] * dDP[a]) * D
        for e in range(n):
            num = num - (N[e][a][b] * PN[e][c] + N[e][a][c] * PN[b][e]) * DP
        return num

    comps = []
    half = Fraction(1, 2)
    cache = {}
    for a, b, c in product(range(n), repeat=3):
        if (a, b, c) not in cache:
            cache[(a, b, c)] = grad_num(a, b, c)
        if (b, a, c) not in cache:
            cache[(b, a, c)] = grad_num(b, a, c)
        num = cache[(a, b, c)] - cache[(b, a, c)]
        comps.append(RationalExpr(chart, field.new(num, den)) * half)
    return TensorField(chart, ("d", "d", "d"), comps)


def decompose_curvature(conn):
    """Full curvature package of a special connection.

    Checks the gauge exactly (zero Christoffel trace, hence beta = 0 and a
    parallel coordinate volume) and returns ProjectiveData with the Weyl
    tensor, the symmetric Schouten tensor and the Cotton-York tensor.
    """
    if not conn.is_special():
        raise NotSpecial("connection does not preserve the coordinate volume")
    ric = ricci(conn)
    beta = _beta_of_ricci(ric)
    if not beta.is_zero():
        raise NotSpecial("Ricci tensor is not symmetric")
    schouten, weyl = _schouten_and_weyl(conn, ric)
    yk = cotton_york(conn, schouten)
    return ProjectiveData(conn, ric, beta, schouten, weyl, yk)


def bianchi_contracted_check(data, conn):
    """Residual of grad_c W_ab{}^c{}_d - (n-2)(grad_a P_bd - grad_b P_ad).

    Identically zero for curvature data coming from a connection; returned
    rather than asserted so tests can inspect it.
    """
    chart = conn.chart
    n = chart.dim
    dw = covariant_derivative(data.weyl, conn)  # slots: e, a, b, c(up), d
    dp = covariant_derivative(data.schouten, conn)
    comps = []
    for a, b, d in product(range(n), repeat=3):
        val = chart.zero
        for c in range(n):
            val = val + dw.get(c, a, b, c, d)
        val = val - (n - 2) * (dp.get(a, b, d) - dp.get(b, a, d))
        comps.append(val)
    return TensorField(chart, ("d", "d", "d"), comps)
