"""Independent oracles and helpers that only the tests call.

Field-section forms of the prolonged connection (`TractorSection`), its
transformation law and its curvature; the column-by-column builder of the
connection matrices that `tractor.connection_matrices` replaced with a
closed form; the contracted Bianchi identity; the Cotton-York tensor as
the antisymmetrised covariant derivative of P over D DP^2
(`cotton_york_by_gradients`); beta from the antisymmetric part of the full
Ricci tensor (`beta_of_ricci`) and the closedness test of a 2-form
(`is_closed`); the metric decomposition of the Riemann tensor
(`riemann_split`); the reference metrics of the model connections; `rank`
of sparse rows; and the tensor helpers `kron_delta`, `outer` and the
componentwise arithmetic of `TensorField`.  Each was moved from `projmet`
unchanged, apart from the `TractorSection` methods and the `TensorField`
arithmetic, which became functions, the exception classes that moved with
their only raisers, and the renamed Cotton-York and beta routines.

The column builder takes full symbolic covariant derivatives of the N
constant basis sections, so it shares no formula with the closed form it
checks, and `jet_oracle.dense_jet_solve` builds its matrices with it.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from projmet.errors import ProjmetError, ShapeError
from projmet.exactlinalg import _rref
from projmet.exprcore import Chart, _cancelled
from projmet.metricize import (_scalar_and_lowered_riemann, levi_civita,
                               metric_inverse)
from projmet.models import _radius2
from projmet.projconn import _over_common, _schouten_and_weyl
from projmet.tensorfield import TensorField, covariant_derivative
from projmet.tractor import (_check_special, section_dim, sym_pairs,
                             unpack_values)


class InternalError(ProjmetError):
    """An identity that must hold by construction failed; implementation bug."""


class DimensionTooSmall(ProjmetError):
    """Requested decomposition needs a higher dimension."""


# ---------------------------------------------------------------------------
# tensor helpers
# ---------------------------------------------------------------------------

def kron_delta(chart):
    """Tautological delta_a^b as variance ('u','d')."""
    one, zero = chart.one, chart.zero
    return TensorField.from_function(
        chart, ("u", "d"), lambda a, b: one if a == b else zero)


def outer(t1, t2):
    """Tensor product."""
    if t1.chart is not t2.chart:
        raise ShapeError("different charts")
    comps = []
    for c1 in t1.comps:
        if c1.is_zero():
            comps.extend([t1.chart.zero] * len(t2.comps))
        else:
            comps.extend([c1 * c2 for c2 in t2.comps])
    return TensorField(t1.chart, t1.variance + t2.variance, comps)


def zeros(chart, variance):
    n = chart.dim
    z = chart.zero
    return TensorField(chart, variance, [z] * (n ** len(variance)))


def scalar(chart, value):
    return TensorField(chart, (), [value])


def _check_compatible(t1, t2):
    if t1.chart is not t2.chart or t1.variance != t2.variance:
        raise ShapeError("tensor fields are not compatible")


def add(t1, t2):
    _check_compatible(t1, t2)
    return TensorField(t1.chart, t1.variance,
                       [a + b for a, b in zip(t1.comps, t2.comps)])


def sub(t1, t2):
    _check_compatible(t1, t2)
    return TensorField(t1.chart, t1.variance,
                       [a - b for a, b in zip(t1.comps, t2.comps)])


def scale(t, s):
    if isinstance(s, (int, Fraction)):
        s = t.chart.const(s)
    return TensorField(t.chart, t.variance, [s * a for a in t.comps])


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def cotton_york_by_gradients(conn, schouten):
    """Y_abc = (grad_a P_bc - grad_b P_ac)/2."""
    chart = conn.chart
    n = chart.dim
    # assemble grad P over the product of the two common denominators so
    # each component cancels once
    N, D, _ = _over_common(conn.gamma)
    (PN,), DP, dDP = _over_common([[[schouten.get(a, b) for b in range(n)]
                                    for a in range(n)]])
    den = D * DP * DP

    def grad_num(a, b, c):
        # (d_a PN - PN dlog DP) D DP - sum_e (N PN + N PN) DP over D DP^2
        num = (PN[b][c].diff(a) * DP - PN[b][c] * dDP[a]) * D
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
        comps.append(_cancelled(chart, num, den) * half)
    return TensorField(chart, ("d", "d", "d"), comps)


def beta_of_ricci(r):
    """beta_ab = -2 R_[ab]/(n+1) from the Ricci tensor r, checked closed;
    `projconn.beta_form` takes dt/(n+1) from the trace instead."""
    chart = r.chart
    n = chart.dim
    frac = chart.const(Fraction(1, n + 1))
    beta = TensorField.from_function(
        chart, ("d", "d"), lambda a, b: -frac * (r.get(a, b) - r.get(b, a)))
    assert is_closed(beta), "beta is not closed; curvature conventions broken"
    return beta


def is_closed(beta):
    """Is the 2-form beta (an antisymmetric TensorField with variance
    ("d", "d")) closed?  Its exterior derivative is the cyclic sum
    d_a beta_bc + d_b beta_ca + d_c beta_ab, tested for a < b < c."""
    n = beta.chart.dim
    return all((beta.get(b, c).diff(a + 1) + beta.get(c, a).diff(b + 1)
                + beta.get(a, b).diff(c + 1)).is_zero()
               for a, b, c in combinations(range(n), 3))


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


# ---------------------------------------------------------------------------
# field sections
# ---------------------------------------------------------------------------

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
                   scalar(chart, rho))

    def __repr__(self):
        return f"TractorSection(dim={self.chart.dim})"


def values_at(section, point):
    """Packed exact values at a rational point."""
    n = section.chart.dim
    out = [section.sigma.get(i, j).evaluate(point) for i, j in sym_pairs(n)]
    out += [section.mu.get(i).evaluate(point) for i in range(n)]
    out.append(section.rho.get().evaluate(point))
    return out


def section_is_zero(section):
    return section.sigma.is_zero() and section.mu.is_zero() and section.rho.is_zero()


def section_difference(section, other):
    return TractorSection(sub(section.sigma, other.sigma),
                          sub(section.mu, other.mu),
                          sub(section.rho, other.rho))


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


# ---------------------------------------------------------------------------
# the prolonged connection on field sections
# ---------------------------------------------------------------------------

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
                scalar(chart, bots),
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


def connection_matrices_by_columns(conn, data):
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


# ---------------------------------------------------------------------------
# transformation law
# ---------------------------------------------------------------------------

def transform_section(section, upsilon):
    """Section components in the gauge changed by the 1-form upsilon:
    sigma fixed, mu += Y_c sigma^{bc}, rho += 2 Y_b mu^b + Y_b Y_c sigma^{bc}."""
    chart = section.chart
    n = chart.dim
    ups = tuple(upsilon)
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
                          scalar(chart, rho))


def transform_values(n, values, upsilon_values):
    """Point-value version of transform_section on a packed vector."""
    sigma, mu, rho = unpack_values(n, [Fraction(v) for v in values])
    ups = [Fraction(u) for u in upsilon_values]
    new_mu = [mu[b] + sum(ups[c] * sigma[b][c] for c in range(n)) for b in range(n)]
    new_rho = rho + 2 * sum(ups[b] * mu[b] for b in range(n)) \
        + sum(ups[b] * ups[c] * sigma[b][c] for b in range(n) for c in range(n))
    return pack_values(n, sigma, new_mu, new_rho)


# ---------------------------------------------------------------------------
# common denominator
# ---------------------------------------------------------------------------

def common_denominator_by_running_lcm(exprs):
    """The fold `exprcore._common_denominator` replaced: one gcd for every
    non-constant denominator that differs from the running lcm, repeats
    of earlier denominators included."""
    den = exprs[0].chart._one
    scale = 1
    for e in exprs:
        d = e.den
        if d.is_ground:
            scale = lcm(scale, d.LC)
        elif d != den:
            den = d if den.is_ground else den.exquo(den.gcd(d)) * d
    return den * (scale // gcd(scale, den.content()))


# ---------------------------------------------------------------------------
# metric decomposition of the Riemann tensor
# ---------------------------------------------------------------------------

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
    ric, scalar, riem_low = _scalar_and_lowered_riemann(conn, g_down, g_up)

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


# ---------------------------------------------------------------------------
# reference metrics of the model connections
# ---------------------------------------------------------------------------

def euclidean_metric(n):
    chart = Chart(n)
    one, zero = chart.one, chart.zero
    return TensorField.from_function(chart, ("d", "d"),
                                     lambda a, b: one if a == b else zero)


def klein_metric(n):
    """Beltrami-Klein ball model, curvature -1:
    g_ab = delta_ab/(1-r^2) + x_a x_b/(1-r^2)^2 on r < 1."""
    chart = Chart(n)
    r2 = _radius2(chart)
    den = chart.one - r2

    def comp(a, b):
        val = chart.vars[a] * chart.vars[b] / (den * den)
        if a == b:
            val = val + chart.one / den
        return val

    return TensorField.from_function(chart, ("d", "d"), comp)


def sphere_stereographic_metric(n):
    """Unit sphere in stereographic coordinates, curvature +1:
    g_ab = 4 delta_ab/(1+r^2)^2."""
    chart = Chart(n)
    r2 = _radius2(chart)
    den = (chart.one + r2) ** 2
    zero = chart.zero
    four = chart.const(4)
    return TensorField.from_function(
        chart, ("d", "d"),
        lambda a, b: four / den if a == b else zero)


def sphere_gnomonic_metric(n):
    """Unit sphere in central-projection coordinates, curvature +1:
    g_ab = delta_ab/(1+r^2) - x_a x_b/(1+r^2)^2.  Geodesics are straight
    lines in this chart."""
    chart = Chart(n)
    r2 = _radius2(chart)
    den = chart.one + r2

    def comp(a, b):
        val = -(chart.vars[a] * chart.vars[b]) / (den * den)
        if a == b:
            val = val + chart.one / den
        return val

    return TensorField.from_function(chart, ("d", "d"), comp)


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def rank(rows, ncols):
    return len(_rref(rows, ncols))
