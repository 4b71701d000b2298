"""The prolonged bundle and its connection.

Solutions of the metrizability equation correspond to covariant constant
sections of T = Sym^2 TM + TM + R.  The connection used here is the tractor
connection modified by curvature terms (the W term in the middle slot, the
Cotton-York term in the bottom slot).  Its matrices A_a on packed
components are stored once, with the denominators cleared: one
polynomial L_i per slot and B_a = L_i A_a in Z[x], each entry a short
sum of the numerators of Gamma, Ric, W and Y with integer scales
(`cleared_matrices`).  Each reader evaluates the distinct numerators once
in its own arithmetic and divides row i by L_i.  The curvature is F_ab =
d_a A_b - d_b A_a + [A_a, A_b] of the cancelled matrices, taken over one
common denominator.

Sections are triples (sigma^{bc}, mu^b, rho), packed into vectors of
length N = n(n+1)/2 + n + 1 ordered as (upper-triangle sigma, mu, rho).
"""

from fractions import Fraction
from functools import cache

from .errors import NotSpecial
from .exprcore import Poly, _cancelled
from .projconn import _matrix_curvature, _over_common, _riemann

__all__ = [
    "TractorCurvature",
    "sym_pairs",
    "section_dim",
    "unpack_values",
    "tractor_curvature",
    "connection_matrices",
    "cleared_matrices",
]


def sym_pairs(n):
    """Upper-triangle index pairs ordering the sigma slots."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def section_dim(n):
    return n * (n + 1) // 2 + n + 1


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
    N, D, dD = _over_common(connection_matrices(conn, data))
    D2 = D * D
    return TractorCurvature(chart, {
        ab: [[_cancelled(chart, e, D2) for e in row] for row in F]
        for ab, F in _matrix_curvature(N, D, dD).items()})


@cache
def _layout(n):
    """Where the terms of the matrices A_a go, for every coordinate a:
    [(i, j, kind, index)] in one fixed order, with kind "1" (the constant
    1, index ()), "G" (Gamma^c_ae, index (c, a, e)), "P" (P_ab), "W"
    (W_ac{}^b{}_d, index (a, c, b, d)) or "Y" (Y_abc), for a term in
    entry (i, j) of A_a of

        sigma^{bc}:  Gamma^b_ae sigma^{ec} + Gamma^c_ae sigma^{be}
                     - delta_a^b mu^c - delta_a^c mu^b
        mu^b:        Gamma^b_ae mu^e - delta_a^b rho + P_ac sigma^{bc}
                     - (1/n) W_ac{}^b{}_d sigma^{cd}
        rho:         2 P_ab mu^b - (4/n) Y_abc sigma^{bc}

    `cleared_matrices` holds the scales, with the denominators cleared.  A
    term in sigma^{cd} lands in the column of the unordered pair {c, d}.
    Built once per dimension.
    """
    pairs = sym_pairs(n)
    col = {}
    for k, (i, j) in enumerate(pairs):
        col[i, j] = col[j, i] = k
    m = len(pairs)
    N = m + n + 1
    out = []
    for a in range(n):
        terms = []
        add = terms.append
        for k, (b, c) in enumerate(pairs):
            for e in range(n):
                add((k, col[e, c], "G", (b, a, e)))
                add((k, col[b, e], "G", (c, a, e)))
            if b == a:
                add((k, m + c, "1", ()))
            if c == a:
                add((k, m + b, "1", ()))
        for b in range(n):
            if b == a:
                add((m + b, N - 1, "1", ()))
            add((N - 1, m + b, "P", (a, b)))
            for c in range(n):
                add((m + b, m + c, "G", (b, a, c)))
                add((m + b, col[b, c], "P", (a, c)))
                add((N - 1, col[b, c], "Y", (a, b, c)))
                for d in range(n):
                    add((m + b, col[c, d], "W", (a, c, b, d)))
        out.append(tuple(terms))
    return tuple(out)


def connection_matrices(conn, data):
    """The matrices A_a with (D_a s) = d_a s + A_a s on packed components,
    as N x N matrices of RationalExpr: entry (i, j) of A_a is
    (B_a)_ij / L_i of `cleared_matrices`, with one cancellation.

    Column j of A_a is the covariant derivative of the j-th constant basis
    section, so no symbolic derivative is taken and no RationalExpr is
    added.
    """
    chart = conn.chart
    components, L, entries = cleared_matrices(conn, data)
    dens = [c * components[k] for c, k in L]
    mats = []
    for table in entries:
        A = [[chart.zero] * len(L) for _ in L]
        for (i, j), terms in table.items():
            A[i][j] = _cancelled(chart, sum(
                (s * components[k] for s, k in terms), Poly()), dens[i])
        mats.append(A)
    return mats


def cleared_matrices(conn, data):
    """The system d_a s = -A_a s with its denominators cleared:
    L_i d_a s_i = -(B_a s)_i with one polynomial L_i per packed slot and
    B_a = L_i A_a row by row, every entry in Z[x].

    With Gamma = N/D (`AffineConnection.common`), Ric over D^2 and the
    numerators of W over (n-1) D^2 and of Y over 2(n-1) D^3 that
    `ProjectiveData` keeps, L_i is D on the sigma slots, n(n-1) D^2 on the
    mu slots and 2n(n-1) D^3 on the rho slot.  So each term of `_layout`
    is an integer times a numerator times a power of D:

        sigma rows:  N^b_ae and -D;
        mu rows:     n(n-1) N D, -n(n-1) D^2, n Ric and -W numerator;
        rho row:     4n Ric D and -4 Y numerator.

    Returned as (components, L, entries): `components` holds each
    numerator times its power of D once (a power of a constant D goes into
    the scales instead); L[i] = (c, k) with L_i = c components[k];
    entries[a] maps (i, j) to a tuple of (scale, k) pairs with int scales
    and (B_a)_ij = sum of scale components[k].  No gcd is taken and
    nothing is divided.
    """
    _check_special(conn)
    n = conn.dim
    N, D = conn.common[:2]
    ric = _riemann(conn)[1]
    w_num, y_num = data.weyl_num, data.york_num
    one = conn.chart.one.num
    ground = D.is_ground
    d = D.LC if ground else D
    powers = [1, d, d * d, d * d * d]
    nn = n * (n - 1)
    m = n * (n + 1) // 2
    group_of = [0] * m + [1] * n + [2]  # sigma, mu and rho rows
    # (row group, kind) -> (power of D, integer) of the terms listed above
    cleared = {(0, "G"): (0, 1), (0, "1"): (1, -1), (1, "G"): (1, nn),
               (1, "1"): (2, -nn), (1, "P"): (0, n), (1, "W"): (0, -1),
               (2, "P"): (1, 4 * n), (2, "Y"): (0, -4)}
    read = {"1": lambda: one, "G": lambda c, a, e: N[c][a][e],
            "P": lambda a, b: ric[a][b], "W": lambda *idx: w_num.get(idx),
            "Y": lambda *idx: y_num.get(idx)}
    components = []
    # equal numerators share one component; each object is hashed once
    by_id, by_value = {}, {}

    def component(num, h):
        """(scale, k) with num D^h = scale components[k]."""
        scale = 1
        if ground:
            scale, h = powers[h], 0
        k = by_id.get((id(num), h))
        if k is None:
            k = by_value.get((num, h))
            if k is None:
                k = by_value[num, h] = len(components)
                components.append(num * powers[h] if h else num)
            by_id[id(num), h] = k
        return scale, k

    L = []
    for g, c in ((1, 1), (2, nn), (3, 2 * nn)):
        scale, k = component(one, g)
        L.append((c * scale, k))
    entries = []
    for layout in _layout(n):
        acc = {}
        for i, j, kind, idx in layout:
            num = read[kind](*idx)
            if num:
                h, f = cleared[group_of[i], kind]
                scale, k = component(num, h)
                terms = acc.setdefault((i, j), {})
                terms[k] = terms.get(k, 0) + f * scale
        entries.append({ij: tuple((s, k) for k, s in terms.items() if s)
                        for ij, terms in acc.items()
                        if any(terms.values())})
    return components, [L[g] for g in group_of], entries
