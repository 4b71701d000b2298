"""Independent oracles that only the tests call.

Field-section forms of the prolonged connection, its transformation law and
its curvature; the column-by-column builder of the connection matrices that
`tractor.connection_matrices` replaced with a closed form; the contracted
Bianchi identity; the Cotton-York tensor as the antisymmetrised
covariant derivative of P over D DP^2 (`cotton_york_by_gradients`); beta
from the antisymmetric part of the full Ricci tensor (`beta_of_ricci`) and
the closedness test of a 2-form (`is_closed`); and the tensor helpers `kron_delta`, `outer` and `reweight`.  Each was moved
from `projmet` unchanged, apart from the `TractorSection` methods, which
became functions of the section, and the renamed Cotton-York and beta
routines.

The column builder takes full symbolic covariant derivatives of the N
constant basis sections, so it shares no formula with the closed form it
checks, and `jet_oracle.dense_jet_solve` builds its matrices with it.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from projmet.exprcore import _cancelled
from projmet.errors import ShapeError
from projmet.projconn import _over_common
from projmet.tensorfield import TensorField, covariant_derivative
from projmet.tractor import (TractorSection, _check_special, section_dim,
                             sym_pairs, unpack_values)


# ---------------------------------------------------------------------------
# tensor helpers
# ---------------------------------------------------------------------------

def kron_delta(chart):
    """Tautological delta_a^b as variance ('u','d')."""
    one, zero = chart.one, chart.zero
    return TensorField.from_function(
        chart, ("u", "d"), lambda a, b: one if a == b else zero)


def outer(t1, t2):
    """Tensor product; weights add, tags add."""
    if t1.chart is not t2.chart:
        raise ShapeError("different charts")
    n = t1.chart.dim
    comps = []
    for c1 in t1.comps:
        if c1.is_zero():
            comps.extend([t1.chart.zero] * len(t2.comps))
        else:
            comps.extend([c1 * c2 for c2 in t2.comps])
    return TensorField(t1.chart, t1.variance + t2.variance, comps,
                       t1.weight + t2.weight, t1.tag + t2.tag)


def reweight(t, f, volume_weight=None):
    """Rescale a weighted tensor for the volume change eps -> e^{(n+1)f} eps.

    Components are unchanged; the formal factor exp(w f) is recorded on the
    tag, so tags compose additively and reweight(reweight(T, f), -f) == T.
    """
    w = t.weight if volume_weight is None else volume_weight
    return TensorField(t.chart, t.variance, t.comps, t.weight,
                       t.tag + f * w)


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
    return TractorSection(section.sigma - other.sigma, section.mu - other.mu,
                          section.rho - other.rho)


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
                          TensorField.scalar(chart, rho))


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
