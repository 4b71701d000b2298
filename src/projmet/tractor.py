"""The prolonged bundle and its connection.

Solutions of the metrizability equation correspond to covariant constant
sections of T = Sym^2 TM + TM + R.  The connection used here is the tractor
connection modified by curvature terms (the W term in the middle slot, the
Cotton-York term in the bottom slot).  Its matrices A_a on packed
components are stored as one table of closed forms: each entry is a short
sum of Gamma, P, W and Y components with rational scales, and each reader
evaluates the distinct components once in its own arithmetic.  The
curvature is F_ab = d_a A_b - d_b A_a + [A_a, A_b] of those matrices,
taken over one common denominator.

Sections are triples (sigma^{bc}, mu^b, rho).  Field-valued sections use
TensorField components; point-valued sections are packed into vectors of
length N = n(n+1)/2 + n + 1 ordered as (upper-triangle sigma, mu, rho).
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import NotSpecial, ShapeError
from .exprcore import _cancelled
from .projconn import _matrix_curvature, _over_common
from .tensorfield import TensorField

__all__ = [
    "TractorSection",
    "TractorCurvature",
    "sym_pairs",
    "section_dim",
    "unpack_values",
    "tractor_curvature",
    "ConnectionTable",
    "connection_matrices",
]


def sym_pairs(n):
    """Upper-triangle index pairs ordering the sigma slots."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def section_dim(n):
    return n * (n + 1) // 2 + n + 1


class TractorSection:
    """Field-valued section: sigma ('u','u') symmetric, mu ('u'), rho scalar."""

    __slots__ = ("chart", "sigma", "mu", "rho")

    def __init__(self, sigma, mu, rho):
        if sigma.variance != ("u", "u") or mu.variance != ("u",) or rho.variance != ():
            raise ShapeError("section slots must have variances (uu), (u), ()")
        if not sigma.is_symmetric(0, 1):
            raise ShapeError("sigma slot must be symmetric")
        self.chart = sigma.chart
        self.sigma = sigma
        self.mu = mu
        self.rho = rho

    @classmethod
    def from_constant_vector(cls, chart, values):
        """Constant section from a packed rational vector."""
        n = chart.dim
        if len(values) != section_dim(n):
            raise ShapeError(f"expected packed vector of length {section_dim(n)}")
        sig, mu, rho = unpack_values(n, [chart.const(v) for v in values])
        sigma = TensorField(chart, ("u", "u"), [sig[i][j] for i in range(n) for j in range(n)])
        return cls(sigma, TensorField(chart, ("u",), mu),
                   TensorField.scalar(chart, rho))

    def __repr__(self):
        return f"TractorSection(dim={self.chart.dim})"


def unpack_values(n, vec):
    pairs = sym_pairs(n)
    sigma = [[None] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        sigma[i][j] = vec[k]
        sigma[j][i] = vec[k]
    off = len(pairs)
    return sigma, list(vec[off:off + n]), vec[off + n]


def _check_special(conn):
    if not conn.is_special():
        raise NotSpecial("the prolonged connection needs the volume-preserving gauge")


class TractorCurvature:
    """Curvature action per antisymmetric index pair as N x N matrices.

    `action` maps each pair a < b to F_ab = d_a A_b - d_b A_a + [A_a, A_b]
    of the connection matrices; `matrix` extends it antisymmetrically.
    """

    __slots__ = ("chart", "action")

    def __init__(self, chart, action):
        self.chart = chart
        self.action = action

    def matrix(self, a, b):
        """Action matrix for the (a, b) pair, 0-based, any order."""
        if a == b:
            n = self.chart.dim
            N = section_dim(n)
            z = self.chart.zero
            return [[z] * N for _ in range(N)]
        if a < b:
            return self.action[(a, b)]
        m = self.action[(b, a)]
        return [[-e for e in row] for row in m]

    def is_zero(self):
        return all(e.is_zero() for m in self.action.values() for row in m for e in row)

    def evaluate(self, a, b, point):
        return [[Fraction(e.evaluate(point)) for e in row] for row in self.matrix(a, b)]


def tractor_curvature(conn, data):
    """Curvature of the modified tractor connection as stored matrices:
    the numerators of `_matrix_curvature` over D^2, one cancellation per
    entry."""
    chart = conn.chart
    N, D, dD = _over_common(connection_matrices(conn, data).matrices())
    D2 = D * D
    return TractorCurvature(chart, {
        ab: [[_cancelled(chart, e, D2) for e in row] for row in F]
        for ab, F in _matrix_curvature(N, D, dD).items()})


class ConnectionTable(NamedTuple):
    """The matrices A_a as closed forms in Gamma, P, W and Y.

    `components` holds each distinct nonzero value among the Gamma^c_ae,
    P_ab, W_acbd and Y_abc that the matrices read, and the constant 1
    first, once each.  `entries[a]` maps (i, j), in row-major order, to a
    tuple of (scale, k) pairs with an int or Fraction scale and
    (A_a)_ij = sum of scale components[k]; an absent (i, j) is zero.  Each
    reader evaluates the components once, in its own arithmetic, and sums
    the entries from those values.
    """

    chart: object
    size: int
    components: list
    entries: list

    def matrices(self):
        """A_a as N x N matrices of RationalExpr: the symbolic sum of
        every entry."""
        z = self.chart.zero
        mats = []
        for entries in self.entries:
            A = [[z] * self.size for _ in range(self.size)]
            for (i, j), terms in entries.items():
                for scale, k in terms:
                    A[i][j] = A[i][j] + self.components[k] * scale
            mats.append(A)
        return mats


def connection_matrices(conn, data):
    """The matrices A_a with (D_a s) = d_a s + A_a s on packed components,
    as a `ConnectionTable`.

    Column j of A_a is the covariant derivative of the j-th constant basis
    section.  A constant section has no derivative term, so every entry is
    a short sum of Gamma^c_ae = gamma[c][a][e], P, W and Y entries and the
    constant 1, with rational scales:

        sigma^{bc}:  Gamma^b_ae sigma^{ec} + Gamma^c_ae sigma^{be}
                     - delta_a^b mu^c - delta_a^c mu^b
        mu^b:        Gamma^b_ae mu^e - delta_a^b rho + P_ac sigma^{bc}
                     - (1/n) W_ac{}^b{}_d sigma^{cd}
        rho:         2 P_ab mu^b - (4/n) Y_abc sigma^{bc}

    A term in sigma^{cd} lands in the column of the unordered pair {c, d}.
    Equal values share one component, and the scales of one component in
    one entry are added; no RationalExpr is added.
    """
    _check_special(conn)
    chart = conn.chart
    n = chart.dim
    pairs = sym_pairs(n)
    col = {}
    for k, (i, j) in enumerate(pairs):
        col[i, j] = col[j, i] = k
    m = len(pairs)
    N = m + n + 1
    P, W, Y = data.schouten, data.weyl, data.cotton_york
    one = chart.one
    components = [one]
    index = {one: 0}
    w_scale, y_scale = Fraction(-1, n), Fraction(-4, n)

    def add(A, i, j, scale, x):
        if not x:
            return
        k = index.get(x)
        if k is None:
            k = index[x] = len(components)
            components.append(x)
        terms = A.setdefault((i, j), {})
        terms[k] = terms.get(k, 0) + scale

    tables = []
    for a in range(n):
        A = {}
        G = [conn.gamma[c][a] for c in range(n)]  # G[c][e] = Gamma^c_ae
        for k, (b, c) in enumerate(pairs):
            for e in range(n):
                add(A, k, col[e, c], 1, G[b][e])
                add(A, k, col[b, e], 1, G[c][e])
            if b == a:
                add(A, k, m + c, -1, one)
            if c == a:
                add(A, k, m + b, -1, one)
        for b in range(n):
            if b == a:
                add(A, m + b, N - 1, -1, one)
            add(A, N - 1, m + b, 2, P.get(a, b))
            for c in range(n):
                add(A, m + b, m + c, 1, G[b][c])
                add(A, m + b, col[b, c], 1, P.get(a, c))
                add(A, N - 1, col[b, c], y_scale, Y.get(a, b, c))
                for d in range(n):
                    add(A, m + b, col[c, d], w_scale, W.get(a, c, b, d))
        entries = {}
        for ij in sorted(A):
            terms = tuple((s, k) for k, s in A[ij].items() if s)
            if terms:
                entries[ij] = terms
        tables.append(entries)
    return ConnectionTable(chart, N, components, tables)
