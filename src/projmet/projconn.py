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

from functools import cached_property
from itertools import combinations, product

from .errors import NotEquivalent, NotSpecial, ShapeError
from .exprcore import Poly, _cancelled, _common_denominator
from .tensorfield import TensorField

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
]


class AffineConnection:
    """Torsion-free connection given by Christoffel symbols Gamma^c_{ab}.

    Storage is gamma[c][a][b] with the lower pair symmetric (checked).
    The symbols over one common denominator (`common`), the trace form
    and the Riemann and Ricci numerators (`_riemann`) are computed on
    first use and kept: every curvature routine, gauge check and
    candidate proof reads the same copy.
    """

    __slots__ = ("chart", "gamma", "_common", "_trace", "_riemann")

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
        self._common = self._trace = self._riemann = None

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

    @property
    def common(self):
        """(N, D, [d_k D]) with Gamma^c_ab = N[c][a][b] / D: the symbols over
        one common denominator (`_over_common`), built once."""
        if self._common is None:
            self._common = _over_common(self.gamma)
        return self._common

    def trace_form(self):
        """Christoffel trace t_a = Gamma^b_{ab} as a 1-form: a tuple of n
        RationalExpr, built once."""
        if self._trace is None:
            n = self.dim
            self._trace = tuple(
                sum((self.gamma[b][a][b] for b in range(n)), self.chart.zero)
                for a in range(n))
        return self._trace

    def is_special(self):
        """Parallel coordinate volume: the Christoffel trace, read off the
        numerators over D (`common`) as sum_b N^b_ab, is identically zero."""
        N, n = self.common[0], self.dim
        return not any(sum((N[b][a][b] for b in range(n)), Poly())
                       for a in range(n))

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
    """Derived curvature package of a special connection.

    `weyl_num` and `york_num` are the numerators of W and Y, over (n-1) D^2
    and 2(n-1) D^3 for the common denominator D of the symbols
    (`AffineConnection.common`): {index tuple: Poly}, nonzero ones only, as
    `_antisymmetric_numerators` gives them.  The prolonged connection reads
    only these and the Ricci numerators; the TensorFields `schouten`,
    `weyl` and `cotton_york` are cancelled from them on first access, once.
    """

    def __init__(self, connection, weyl_num, york_num):
        self.connection = connection
        self.weyl_num = weyl_num
        self.york_num = york_num

    @cached_property
    def _schouten_weyl(self):
        return _schouten_and_weyl(self.connection, self.weyl_num)

    @property
    def schouten(self):
        return self._schouten_weyl[0]

    @property
    def weyl(self):
        return self._schouten_weyl[1]

    @cached_property
    def cotton_york(self):
        return cotton_york(self.connection, self.york_num)

    def is_flat(self):
        """Projectively flat: the W and Y numerators vanish, so the
        prolonged connection is flat and every initial value extends to a
        solution."""
        return not (self.weyl_num or self.york_num)


def _over_common(arrays):
    """Entries of nested n x m x k arrays of RationalExpr over one common
    polynomial denominator D in Z[x], the lcm of theirs up to sign.

    Returns (numerators N[i][j][l] as `Poly`, D, [d_k D]), so that a
    curvature component assembled from the numerators costs a single gcd
    cancellation against a power of D instead of one per operation.  Each
    quotient D / denominator is exact, or ArithmeticError is raised.
    """
    entries = [e for plane in arrays for row in plane for e in row]
    D = _common_denominator(entries)
    N = [[[e.num * D.exquo(e.den) if e else Poly() for e in row]
          for row in plane] for plane in arrays]
    return N, D, [D.diff(k) for k in range(entries[0].chart.dim)]


def _matmul(X, Y):
    """Product of two matrices of polynomials, skipping zero entries."""
    out = []
    for row in X:
        acc = [Poly()] * len(Y[0])
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(Y[k]):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def _matrix_curvature(N, D, dD):
    """Numerators over D^2 of F_ab = d_a A_b - d_b A_a + A_a A_b - A_b A_a
    for the square matrices A_a = N_a / D, one per coordinate, given over
    their common denominator as `_over_common` returns them; as
    {(a, b): numerator matrix of F_ab} for a < b (0-based).

    With (A_a)^c_d = Gamma^c_ad this is R_ab{}^c{}_d; with the matrices of
    the prolonged connection it is that connection's curvature.  Over D,

        F_ab = (D (d_a N_b - d_b N_a) - N_b d_a D + N_a d_b D
                + N_a N_b - N_b N_a) / D^2.
    """
    size = range(len(N[0]))
    out = {}
    for a, b in combinations(range(len(N)), 2):
        Na, Nb = N[a], N[b]
        ab, ba = _matmul(Na, Nb), _matmul(Nb, Na)
        out[(a, b)] = [[
            D * (Nb[i][j].diff(a) - Na[i][j].diff(b))
            - Nb[i][j] * dD[a] + Na[i][j] * dD[b] + ab[i][j] - ba[i][j]
            for j in size] for i in size]
    return out


def _riemann(conn):
    """(R, Ric, D^2): the numerators R[a][b][c][d] of R_ab{}^c{}_d and
    Ric[a][d] = sum_b R[b][a][b][d] of the Ricci tensor R_ba{}^b{}_d, both
    over D^2 for the common denominator D of the symbols; built once per
    connection and kept.  Every curvature component is read off them with
    one cancellation."""
    if conn._riemann is None:
        n = conn.dim
        N, D, dD = conn.common
        F = _matrix_curvature([[[N[c][a][d] for d in range(n)]
                                for c in range(n)] for a in range(n)], D, dD)
        zero = [[Poly()] * n for _ in range(n)]
        R = [[F[(a, b)] if a < b else
              [[-e for e in row] for row in F[(b, a)]] if a > b else zero
              for b in range(n)] for a in range(n)]
        ric = [[sum((R[b][a][b][d] for b in range(n)), Poly())
                for d in range(n)] for a in range(n)]
        conn._riemann = (R, ric, D * D)
    return conn._riemann


def _antisymmetric(chart, variance, entry):
    """TensorField antisymmetric in its first two indices from
    entry(a, b, *rest) for a < b only: a component with a > b is the
    negative of its partner, and one with a == b is zero."""
    n = chart.dim
    rest = list(product(range(n), repeat=len(variance) - 2))
    upper = {(a, b) + r: entry(a, b, *r)
             for a, b in combinations(range(n), 2) for r in rest}
    return TensorField(chart, variance, [
        upper[(a, b) + r] if a < b else -upper[(b, a) + r] if a > b
        else chart.zero for a, b in product(range(n), repeat=2) for r in rest])


def _antisymmetric_numerators(n, rank, entry):
    """{index tuple: Poly} of the nonzero numerators entry(a, b, *rest),
    computed for a < b only, with the partner (b, a, *rest) negated."""
    out = {}
    for a, b in combinations(range(n), 2):
        for r in product(range(n), repeat=rank - 2):
            num = entry(a, b, *r)
            if num:
                out[(a, b) + r] = num
                out[(b, a) + r] = -num
    return out


def _cancelled_field(chart, variance, nums, den):
    """The TensorField of `_antisymmetric_numerators` over den: one
    cancellation per component with a < b."""
    zero = Poly()
    return _antisymmetric(chart, variance, lambda *idx: _cancelled(
        chart, nums.get(idx, zero), den))


def ricci(conn):
    """Ricci tensor R_ad = R_ba{}^b{}_d: the Ricci numerators over D^2."""
    chart = conn.chart
    _, ric, D2 = _riemann(conn)
    return TensorField.from_function(
        chart, ("d", "d"), lambda a, d: _cancelled(chart, ric[a][d], D2))


def beta_form(conn):
    """Antisymmetric Ricci part beta_ab = -2 R_[ab]/(n+1), a closed
    2-form, as an antisymmetric TensorField with variance ("d", "d").  For
    a torsion-free connection only the trace terms of the Ricci tensor are
    antisymmetric: R_ab - R_ba = d_b t_a - d_a t_b for the trace
    t_a = Gamma^c_ca, so beta = dt/(n+1), with no Ricci tensor."""
    t = conn.trace_form()
    n = conn.dim
    return _antisymmetric(conn.chart, ("d", "d"), lambda a, b: (
        t[b].diff(a + 1) - t[a].diff(b + 1)) / (n + 1))


def projective_change(conn, upsilon):
    """Connection with the same geodesics: G^c_ab + d_a^c Y_b + d_b^c Y_a,
    for the 1-form Y given as a sequence of n RationalExpr."""
    chart = conn.chart
    n = chart.dim
    ups = tuple(upsilon)
    g = [[[conn.gamma[c][a][b] for b in range(n)] for a in range(n)] for c in range(n)]
    for c in range(n):
        for b in range(n):
            g[c][c][b] = g[c][c][b] + ups[b]
            g[c][b][c] = g[c][b][c] + ups[b]
    return AffineConnection(chart, g)


def _trace_upsilon(c1, c2):
    """Y_a = (t2 - t1)_a / (n+1) for the kept traces t of both connections:
    the only 1-form whose pure-trace difference delta_a^c Y_b
    + delta_b^c Y_a can match Gamma2 - Gamma1."""
    n = c1.dim
    return tuple((t2 - t1) / (n + 1)
                 for t1, t2 in zip(c1.trace_form(), c2.trace_form()))


def projective_equivalence(c1, c2):
    """Recover the 1-form relating two projectively equivalent connections.

    The difference D^c_ab must be delta_a^c Y_b + delta_b^c Y_a; the trace
    determines Y and the full difference is verified structurally.  Returns
    Y as a tuple of n RationalExpr; raises NotEquivalent (with the
    offending component) otherwise.
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
    return ups


def specialize(conn):
    """Projectively change into the volume-preserving gauge.

    The projective class holds exactly one connection with zero Christoffel
    trace: the change by Y = -t/(n+1), for the trace t_a = Gamma^b_ab, which
    adds (n+1) Y to the trace.  Returns (special connection, Y), with Y a
    tuple of n RationalExpr.  Y is rational for every input, closed or not; no potential f with df = Y is
    sought, since the metrizability system is projectively invariant and
    nothing downstream reads one.  When `conn` is already special it is
    returned itself, with whatever it has kept.
    """
    n = conn.dim
    trace = conn.trace_form()
    if not any(trace):
        return conn, (conn.chart.zero,) * n
    ups = tuple(-c / (n + 1) for c in trace)
    return projective_change(conn, ups), ups


def full_curvature(conn):
    """R_ab{}^c{}_d with the package's sign convention: the Riemann
    numerators over D^2."""
    chart = conn.chart
    R, _, D2 = _riemann(conn)
    return _antisymmetric(chart, ("d", "d", "u", "d"),
                          lambda a, b, c, d: _cancelled(chart, R[a][b][c][d],
                                                        D2))


def _weyl_numerators(conn):
    """The numerators (n-1) R_ab{}^c{}_d - delta_a^c Ric_bd
    + delta_b^c Ric_ad of W over (n-1) D^2, as
    `_antisymmetric_numerators`."""
    n = conn.dim
    R, ric, _ = _riemann(conn)

    def entry(a, b, c, d):
        num = (n - 1) * R[a][b][c][d]
        if a == c:
            num = num - ric[b][d]
        if b == c:
            num = num + ric[a][d]
        return num

    return _antisymmetric_numerators(n, 4, entry)


def _schouten_and_weyl(conn, weyl_num=None):
    """P and W of a symmetric-Ricci connection (gauge not required).

    P = Ric/(n-1) and W_ab{}^c{}_d = R_ab{}^c{}_d - delta_a^c P_bd
    + delta_b^c P_ad both lie over (n-1) D^2, with numerators Ric and
    `_weyl_numerators` (built here unless given): one cancellation per
    component of P, and per component of W with a < b.
    """
    chart = conn.chart
    n = chart.dim
    _, ric, D2 = _riemann(conn)
    den = (n - 1) * D2
    schouten = TensorField.from_function(
        chart, ("d", "d"), lambda a, b: _cancelled(chart, ric[a][b], den))
    if weyl_num is None:
        weyl_num = _weyl_numerators(conn)
    return schouten, _cancelled_field(chart, ("d", "d", "u", "d"), weyl_num,
                                      den)


def _york_numerators(conn):
    """The numerators of Y over 2(n-1) D^3 (see `cotton_york`), as
    `_antisymmetric_numerators`."""
    n = conn.dim
    N, D, dD = conn.common
    _, ric, _ = _riemann(conn)

    def entry(a, b, c):
        num = D * (ric[b][c].diff(a) - ric[a][c].diff(b)) \
            - 2 * (ric[b][c] * dD[a] - ric[a][c] * dD[b])
        for e in range(n):
            num = num + N[e][b][c] * ric[a][e] - N[e][a][c] * ric[b][e]
        return num

    return _antisymmetric_numerators(n, 3, entry)


def cotton_york(conn, york_num=None):
    """Y_abc = (grad_a P_bc - grad_b P_ac)/2
             = (d_a P_bc - d_b P_ac - G^e_ac P_be + G^e_bc P_ae)/2
    for P = Ric/(n-1), since the terms G^e_ab P_ec cancel for a
    torsion-free connection.

    With G = N/D and Ric over D^2, each component with a < b is one
    numerator over 2(n-1) D^3 (`_york_numerators`, built here unless
    given) and one cancellation:

        D (d_a Ric_bc - d_b Ric_ac) - 2 (Ric_bc d_a D - Ric_ac d_b D)
        + sum_e (N^e_bc Ric_ae - N^e_ac Ric_be),

    and Y_bac = -Y_abc.
    """
    chart = conn.chart
    n = chart.dim
    D = conn.common[1]
    if york_num is None:
        york_num = _york_numerators(conn)
    return _cancelled_field(chart, ("d", "d", "d"), york_num,
                            2 * (n - 1) * _riemann(conn)[2] * D)


def decompose_curvature(conn):
    """Full curvature package of a special connection.

    Checks the gauge exactly (zero Christoffel trace, hence beta = dt/(n+1)
    = 0, a symmetric Ricci tensor and a parallel coordinate volume) and
    returns ProjectiveData with the W and Y numerators; the Weyl, the
    symmetric Schouten and the Cotton-York tensor are cancelled from them
    when first read.
    """
    if not conn.is_special():
        raise NotSpecial("connection does not preserve the coordinate volume")
    return ProjectiveData(conn, _weyl_numerators(conn), _york_numerators(conn))
