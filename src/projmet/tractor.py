"""The prolonged bundle and its connection.

Solutions of the metrizability equation correspond to covariant constant
sections of T = Sym^2 TM + TM + R.  The connection used here is the tractor
connection modified by curvature terms (the W term in the middle slot, the
Cotton-York term in the bottom slot).  It is stored as matrices A_a on
packed components, and its curvature is F_ab = d_a A_b - d_b A_a
+ [A_a, A_b] of those matrices.  On field sections, `modified=False`
switches the curvature terms off and yields the plain tractor connection,
so the difference of the two operators, and the commutator of two
covariant derivatives, can be tested directly against the matrices.

Sections are triples (sigma^{bc}, mu^b, rho).  Field-valued sections use
TensorField components; point-valued sections are packed into vectors of
length N = n(n+1)/2 + n + 1 ordered as (upper-triangle sigma, mu, rho).
"""

from fractions import Fraction
from itertools import product

from .errors import NotSpecial, ShapeError
from .exprcore import DifferentialForm
from .projconn import _matrix_curvature
from .tensorfield import TensorField, covariant_derivative

__all__ = [
    "TractorSection",
    "TractorCurvature",
    "sym_pairs",
    "section_dim",
    "section_basis",
    "pack_values",
    "unpack_values",
    "tractor_derivative",
    "tractor_second_derivative",
    "curvature_on_section",
    "transform_section",
    "transform_values",
    "tractor_curvature",
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

    def values_at(self, point):
        """Packed exact values at a rational point."""
        n = self.chart.dim
        out = [self.sigma.get(i, j).evaluate(point) for i, j in sym_pairs(n)]
        out += [self.mu.get(i).evaluate(point) for i in range(n)]
        out.append(self.rho.get().evaluate(point))
        return out

    def is_zero(self):
        return self.sigma.is_zero() and self.mu.is_zero() and self.rho.is_zero()

    def __sub__(self, other):
        return TractorSection(self.sigma - other.sigma, self.mu - other.mu,
                              self.rho - other.rho)

    def __repr__(self):
        return f"TractorSection(dim={self.chart.dim})"


def section_basis(chart):
    """The N constant basis sections."""
    n = chart.dim
    N = section_dim(n)
    out = []
    for k in range(N):
        vec = [Fraction(0)] * N
        vec[k] = Fraction(1)
        out.append(TractorSection.from_constant_vector(chart, vec))
    return out


def pack_values(n, sigma_matrix, mu_vec, rho):
    out = [sigma_matrix[i][j] for i, j in sym_pairs(n)]
    out += list(mu_vec)
    out.append(rho)
    return out


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


def _derivative_triple(conn, data, sigma, mu, rho, modified):
    """One covariant derivative of a (possibly already differentiated) triple.

    The slot tensors carry k leading 'd' indices; the output carries k+1,
    with the new derivative index in front.  The algebraic terms couple the
    slots at equal trailing indices.
    """
    chart = conn.chart
    n = chart.dim
    k = len(sigma.variance) - 2
    extra = sigma.variance[:k]
    dsig = covariant_derivative(sigma, conn)
    dmu = covariant_derivative(mu, conn)
    drho = covariant_derivative(rho, conn)
    P = data.schouten
    W = data.weyl
    Y = data.cotton_york
    inv_n = chart.const(Fraction(1, n))
    four_n = chart.const(Fraction(4, n))

    top = []
    for idx in product(range(n), repeat=k + 3):
        a, rest, b, c = idx[0], idx[1:k + 1], idx[k + 1], idx[k + 2]
        val = dsig.get(*idx)
        if b == a:
            val = val - mu.get(*rest, c)
        if c == a:
            val = val - mu.get(*rest, b)
        top.append(val)
    top = TensorField(chart, ("d",) + extra + ("u", "u"), top)

    mid = []
    for idx in product(range(n), repeat=k + 2):
        a, rest, b = idx[0], idx[1:k + 1], idx[k + 1]
        val = dmu.get(*idx)
        if b == a:
            val = val - rho.get(*rest)
        for c in range(n):
            pac = P.get(a, c)
            if not pac.is_zero():
                val = val + pac * sigma.get(*rest, b, c)
        if modified:
            acc = chart.zero
            for c in range(n):
                for d in range(n):
                    w = W.get(a, c, b, d)
                    if not w.is_zero():
                        acc = acc + w * sigma.get(*rest, c, d)
            if not acc.is_zero():
                val = val - inv_n * acc
        mid.append(val)
    mid = TensorField(chart, ("d",) + extra + ("u",), mid)

    bot = []
    for idx in product(range(n), repeat=k + 1):
        a, rest = idx[0], idx[1:]
        val = drho.get(*idx)
        for b in range(n):
            pab = P.get(a, b)
            if not pab.is_zero():
                val = val + 2 * pab * mu.get(*rest, b)
        if modified:
            acc = chart.zero
            for b in range(n):
                for c in range(n):
                    y = Y.get(a, b, c)
                    if not y.is_zero():
                        acc = acc + y * sigma.get(*rest, b, c)
            if not acc.is_zero():
                val = val - four_n * acc
        bot.append(val)
    bot = TensorField(chart, ("d",) + extra, bot)
    return top, mid, bot


def tractor_derivative(conn, data, section, modified=True):
    """Covariant derivative of a section; returns the slot triple with one
    leading lower index each."""
    _check_special(conn)
    return _derivative_triple(conn, data, section.sigma, section.mu, section.rho,
                              modified)


def tractor_second_derivative(conn, data, section, modified=True):
    _check_special(conn)
    first = _derivative_triple(conn, data, section.sigma, section.mu, section.rho,
                               modified)
    return _derivative_triple(conn, data, *first, modified)


def curvature_on_section(conn, data, section, modified=True):
    """Commutator of two covariant derivatives on a field section.

    Returns {(a, b): slot triple of TensorFields} for a < b (0-based); the
    action is antisymmetric in (a, b) by construction.
    """
    chart = conn.chart
    n = chart.dim
    top2, mid2, bot2 = tractor_second_derivative(conn, data, section, modified)
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            tops = []
            for c, d in product(range(n), repeat=2):
                tops.append(top2.get(a, b, c, d) - top2.get(b, a, c, d))
            mids = [mid2.get(a, b, c) - mid2.get(b, a, c) for c in range(n)]
            bots = bot2.get(a, b) - bot2.get(b, a)
            out[(a, b)] = (
                TensorField(chart, ("u", "u"), tops),
                TensorField(chart, ("u",), mids),
                TensorField.scalar(chart, bots),
            )
    return out


def top_slot_curvature_formula(data, sigma, a, b):
    """Closed form of the top curvature slot acting on sigma:

        W_ab{}^c{}_e sigma^{de} + W_ab{}^d{}_e sigma^{ce}
        + (1/n)(delta_a{}^c U_b{}^d + delta_a{}^d U_b{}^c
                - delta_b{}^c U_a{}^d - delta_b{}^d U_a{}^c)

    with U_b{}^d = W_be{}^d{}_f sigma^{ef}; this is the trace-free part of
    the first two terms.
    """
    chart = sigma.chart
    n = chart.dim
    W = data.weyl
    inv_n = chart.const(Fraction(1, n))

    def U(i, j):
        acc = chart.zero
        for e in range(n):
            for f in range(n):
                w = W.get(i, e, j, f)
                if not w.is_zero():
                    acc = acc + w * sigma.get(e, f)
        return acc

    u_cache = {}

    def u(i, j):
        if (i, j) not in u_cache:
            u_cache[(i, j)] = U(i, j)
        return u_cache[(i, j)]

    comps = []
    for c, d in product(range(n), repeat=2):
        val = chart.zero
        for e in range(n):
            w1 = W.get(a, b, c, e)
            if not w1.is_zero():
                val = val + w1 * sigma.get(d, e)
            w2 = W.get(a, b, d, e)
            if not w2.is_zero():
                val = val + w2 * sigma.get(c, e)
        corr = chart.zero
        if a == c:
            corr = corr + u(b, d)
        if a == d:
            corr = corr + u(b, c)
        if b == c:
            corr = corr - u(a, d)
        if b == d:
            corr = corr - u(a, c)
        if not corr.is_zero():
            val = val + inv_n * corr
        comps.append(val)
    return TensorField(chart, ("u", "u"), comps)


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
    """Curvature of the modified tractor connection as stored matrices."""
    return TractorCurvature(conn.chart,
                            _matrix_curvature(conn.chart,
                                              connection_matrices(conn, data)))


def transform_section(section, upsilon):
    """Section components in the gauge changed by the 1-form upsilon:
    sigma fixed, mu += Y_c sigma^{bc}, rho += 2 Y_b mu^b + Y_b Y_c sigma^{bc}."""
    chart = section.chart
    n = chart.dim
    ups = upsilon.components if isinstance(upsilon, DifferentialForm) else tuple(upsilon)
    mu = []
    for b in range(n):
        val = section.mu.get(b)
        for c in range(n):
            val = val + ups[c] * section.sigma.get(b, c)
        mu.append(val)
    rho = section.rho.get()
    for b in range(n):
        rho = rho + 2 * ups[b] * section.mu.get(b)
        for c in range(n):
            rho = rho + ups[b] * ups[c] * section.sigma.get(b, c)
    return TractorSection(section.sigma,
                          TensorField(chart, ("u",), mu),
                          TensorField.scalar(chart, rho))


def transform_values(n, values, upsilon_values):
    """Point-value version of transform_section on a packed vector."""
    sigma, mu, rho = unpack_values(n, [Fraction(v) for v in values])
    ups = [Fraction(u) for u in upsilon_values]
    new_mu = [mu[b] + sum(ups[c] * sigma[b][c] for c in range(n)) for b in range(n)]
    new_rho = rho + 2 * sum(ups[b] * mu[b] for b in range(n)) \
        + sum(ups[b] * ups[c] * sigma[b][c] for b in range(n) for c in range(n))
    return pack_values(n, sigma, new_mu, new_rho)


def connection_matrices(conn, data):
    """Matrices A_a with (D_a s) = d_a s + A_a s on packed components.

    Columns are the covariant derivatives of the constant basis sections.
    """
    _check_special(conn)
    chart = conn.chart
    n = chart.dim
    pairs = sym_pairs(n)
    N = section_dim(n)
    mats = []
    for a in range(n):
        mats.append([[chart.zero] * N for _ in range(N)])
    for j, s in enumerate(section_basis(chart)):
        top, mid, bot = _derivative_triple(conn, data, s.sigma, s.mu, s.rho,
                                           True)
        for a in range(n):
            for k, (i1, i2) in enumerate(pairs):
                mats[a][k][j] = top.get(a, i1, i2)
            for i in range(n):
                mats[a][len(pairs) + i][j] = mid.get(a, i)
            mats[a][N - 1][j] = bot.get(a)
    return mats
