"""Covariant constant sections by exact Taylor-jet recursion.

The covariant constancy condition on packed components reads
d_a s = -A_a(x) s with A_a the connection matrices.  Expanding A at a base
point and matching Taylor coefficients determines every jet coefficient of
s linearly from s(p); equality of mixed partials imposes exact linear
constraints on s(p).  The surviving initial values form the admissible
space, whose dimension is the degree of mobility (an upper bound until the
dimension repeats for two consecutive orders).

The recursion works on integer rows over one denominator per monomial:
every Taylor coefficient of the basis solutions is an integer denominator
and N sparse integer rows {basis index: numerator}, in lowest terms, and
the integer Taylor data of the A_a, read off the integer series of
exactseries, has one denominator per monomial, so products accumulate in
int and zeros cost nothing.  Two predictions of the
same coefficient are compared in that normal form; only rows that differ
become (integer) constraint rows.  On a projectively flat structure the
comparison cannot fail, so each coefficient is predicted once.  Rank
decisions still go through the exact sparse Gauss-Jordan elimination in
exactlinalg.  The basis becomes Fractions at the end; a combination of
the basis solutions is read straight off the integer rows as one integer
series per slot, and the Fraction series only when read.  Numeric
parallel transport is a float cross-check only.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import NotSpecial, PoleError, PoleOnPath, StepUnderflow
from .exactlinalg import nullspace
from .exactseries import (_lowest, monomials_of_order, rational_to_series,
                          series_diff, series_eval)
from .exprcore import _compile_nonzero, _rk4_step
from .projconn import decompose_curvature
from .tractor import connection_matrices, section_dim

__all__ = [
    "JetSolution",
    "degree_of_mobility",
    "residual",
    "parallel_transport",
]


class JetSolution:
    """Result of the jet recursion at a base point.

    admissible_basis: list of packed initial-value vectors over Q.
    series: per basis vector, {exponent tuple: packed coefficient vector}
    in shifted coordinates u = x - base_point; converted from the integer
    rows of the recursion to Fractions on first access.  `combine` reads
    a combination of the basis solutions off those rows instead.
    dims: admissible dimension after imposing consistency order by order.
    matrices: the connection matrices A_a the recursion was solved with.
    entry_values: exact values of the A_a entries that `residual` has
    evaluated, {point: {(a, i, j): value}}, shared by every candidate.
    """

    __slots__ = ("base_point", "order", "dims", "admissible_basis", "_coeff",
                 "_series", "matrices", "stabilized", "dim", "entry_values")

    def __init__(self, base_point, order, dims, coeff, matrices):
        self.base_point = tuple(Fraction(p) for p in base_point)
        self.order = order
        self.dims = list(dims)
        self.dim = dims[-1]
        self._coeff = coeff
        self._series = None
        self.admissible_basis = _columns(*coeff[(0,) * len(base_point)],
                                         self.dim)
        self.matrices = matrices
        self.entry_values = {}
        self.stabilized = len(dims) >= 2 and dims[-1] == dims[-2]

    @property
    def series(self):
        if self._series is None:
            self._series = [{} for _ in range(self.dim)]
            for mono, (den, rows) in self._coeff.items():
                for ser, col in zip(self._series,
                                    _columns(den, rows, self.dim)):
                    ser[mono] = col
        return self._series

    def combine(self, coords):
        """The solution with the given coordinates on the admissible basis,
        as one integer Series per packed slot, in shifted coordinates.

        Over C, the lcm of the coordinate denominators, slot i has the
        coefficient sum_l (C coords[l]) rows[i][l] / (den C) at each
        monomial: one integer sum per monomial and slot, and one
        reduction per slot."""
        scale = lcm(*(Fraction(c).denominator for c in coords))
        weights = [(l, int(c * scale)) for l, c in enumerate(coords) if c]
        origin = (0,) * len(self.base_point)
        slots = [{} for _ in self._coeff[origin][1]]
        for mono, (den, rows) in self._coeff.items():
            for slot, row in zip(slots, rows):
                v = sum(k * row[l] for l, k in weights if l in row)
                if v:
                    slot[mono] = (v, den)
        out = []
        for slot in slots:
            common = lcm(*(den for _, den in slot.values()))
            out.append(_lowest(common * scale, {
                m: v * (common // den) for m, (v, den) in slot.items()}))
        return out

    def __repr__(self):
        return (f"JetSolution(dim={self.dim}, order={self.order}, "
                f"stabilized={self.stabilized}, dims={self.dims})")


def _columns(den, rows, d):
    """The d packed Fraction vectors of one Taylor coefficient: slot i of
    basis solution t is rows[i].get(t, 0) / den."""
    zero = Fraction(0)
    columns = [[zero] * len(rows) for _ in range(d)]
    for i, row in enumerate(rows):
        for t, v in row.items():
            columns[t][i] = Fraction(v, den)
    return columns


def _expand_matrices(mats, point, max_order):
    """Per coordinate [(mono, order, den, [(i, j, coeff)])], lowest order
    first: the int Taylor coefficients of the A_a entries at u^mono over one
    denominator, in lowest terms.  Entries sharing a denominator share the
    expansion of its inverse."""
    reciprocals = {}
    out = []
    for mat in mats:
        by_mono = {}
        for i, row in enumerate(mat):
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                den, terms = rational_to_series(entry, point, max_order,
                                                reciprocals)
                for mono, v in terms.items():
                    by_mono.setdefault(mono, []).append((i, j, v, den))
        data = []
        for mono, entries in sorted(by_mono.items(),
                                    key=lambda item: sum(item[0])):
            den = lcm(*(q for _, _, _, q in entries))
            coeffs = [(i, j, v * (den // q)) for i, j, v, q in entries]
            g = gcd(den, *(c for _, _, c in coeffs))
            data.append((mono, sum(mono), den // g,
                         [(i, j, c // g) for i, j, c in coeffs]))
        out.append(data)
    return out


def _normalised(den, rows):
    """(den, rows) in lowest terms: zero entries dropped and the gcd of den
    and every entry divided out, so equal coefficients compare equal."""
    g = gcd(den, *(v for row in rows for v in row.values()))
    return den // g, [{t: v // g for t, v in row.items() if v} for row in rows]


def _difference_rows(first, second, d):
    """Dense integer rows spanning the differences of two candidates for
    the same Taylor coefficient; rows that agree give nothing."""
    (den1, rows1), (den2, rows2) = first, second
    g = gcd(den1, den2)
    f1, f2 = den2 // g, den1 // g
    out = []
    for r1, r2 in zip(rows1, rows2):
        if f1 == f2 == 1 and r1 == r2:
            continue
        diff = [0] * d
        for t, v in r1.items():
            diff[t] = v * f1
        for t, v in r2.items():
            diff[t] -= v * f2
        if any(diff):
            out.append(diff)
    return out


def _predict(terms, coeff, alpha, a, N):
    """Taylor coefficient at alpha + e_a of the basis solutions, from
    d_a s = -A_a s: the coefficient of u^alpha in -A_a s over alpha_a + 1,
    normalised.  `terms` is the integer Taylor data of A_a."""
    order = sum(alpha)
    products = []
    for mono, mono_order, mono_den, entries in terms:
        if mono_order > order:
            break
        rem = tuple(x - y for x, y in zip(alpha, mono))
        if min(rem) >= 0:
            rem_den, rem_rows = coeff[rem]
            products.append((mono_den * rem_den, entries, rem_rows))
    den = lcm(*(q for q, _, _ in products))
    acc = [{} for _ in range(N)]
    for q, entries, brows in products:
        scale = den // q
        for i, j, c in entries:
            brow = brows[j]
            if not brow:
                continue
            f = c * scale
            arow = acc[i]
            for t, v in brow.items():
                arow[t] = arow.get(t, 0) - f * v
    return _normalised(den * (alpha[a] + 1), acc)


def degree_of_mobility(conn, base_point, max_order=None, data=None):
    """Exact jet solve of the closed system at base_point up to max_order.

    The default truncation order is 2n + 4; the reported dimension is an
    upper bound whenever `stabilized` is False.  On a projectively flat
    structure the prolonged curvature vanishes identically, so every
    prediction of a coefficient agrees: each is computed once, from the
    first (alpha, a) that reaches it, and no constraint rows arise.
    """
    chart = conn.chart
    n = chart.dim
    if not conn.is_special():
        raise NotSpecial("jet recursion needs the volume-preserving gauge")
    if max_order is None:
        max_order = 2 * n + 4
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    if data is None:
        data = decompose_curvature(conn)
    flat = data.is_flat()
    point = [Fraction(p) for p in base_point]
    mats = connection_matrices(conn, data)
    tdata = _expand_matrices(mats, point, max_order)
    N = section_dim(n)

    # coeff[mono] = (den, rows): slot i of basis solution t has Taylor
    # coefficient rows[i].get(t, 0) / den at u^mono
    coeff = {(0,) * n: (1, [{i: 1} for i in range(N)])}
    d = N
    dims = [N]

    def restrict(kernel):
        nonlocal d
        kden = lcm(*(v.denominator for vec in kernel for v in vec))
        cols = [[] for _ in range(d)]
        for l, vec in enumerate(kernel):
            for t, v in enumerate(vec):
                if v:
                    cols[t].append((l, v.numerator * (kden // v.denominator)))
        for mono, (den, rows) in coeff.items():
            new_rows = []
            for row in rows:
                acc = {}
                for t, v in row.items():
                    for l, k in cols[t]:
                        acc[l] = acc.get(l, 0) + v * k
                new_rows.append(acc)
            coeff[mono] = _normalised(den * kden, new_rows)
        d = len(kernel)

    for order in range(max_order):
        cand = {}
        rows = []
        for alpha in monomials_of_order(n, order):
            for a in range(n):
                tau = alpha[:a] + (alpha[a] + 1,) + alpha[a + 1:]
                if tau not in cand:
                    cand[tau] = _predict(tdata[a], coeff, alpha, a, N)
                elif not flat:
                    rows += _difference_rows(
                        cand[tau], _predict(tdata[a], coeff, alpha, a, N), d)
        coeff.update(cand)
        if rows:
            kernel = nullspace(rows, d)
            if len(kernel) < d:
                restrict(kernel)
        dims.append(d)
        if d == 0:
            # every later jet is zero, so the remaining orders hold trivially
            dims.extend([0] * (max_order - 1 - order))
            break
    return JetSolution(point, max_order, dims, coeff, mats)


def residual(jets, slots, sample_points):
    """Largest covariant-constancy defect of a truncated series solution.

    `slots` holds one Series per packed slot, shifted to
    `jets.base_point`, as `jets.combine` gives them.  Evaluates
    d_a s + A_a(x) s exactly at each rational sample point, with
    the matrices of the jet solve, and returns the maximum absolute slot
    value as a Fraction.  Exact polynomial solutions give exactly zero.
    Each matrix entry is evaluated at most once per point and kept in
    `jets.entry_values` for the next candidate.
    """
    mats = jets.matrices
    n = len(mats)
    N = len(mats[0])
    point = jets.base_point
    d_series = [[series_diff(slots[i], a) for i in range(N)]
                for a in range(n)]
    worst = Fraction(0)
    for x in sample_points:
        x = [Fraction(v) for v in x]
        u = [xv - pv for xv, pv in zip(x, point)]
        at_x = jets.entry_values.setdefault(tuple(x), {})
        s_val = [series_eval(slots[i], u) for i in range(N)]
        for a in range(n):
            ds = [series_eval(d_series[a][i], u) for i in range(N)]
            for i in range(N):
                acc = ds[i]
                row = mats[a][i]
                for j in range(N):
                    if s_val[j] and not row[j].is_zero():
                        value = at_x.get((a, i, j))
                        if value is None:
                            value = at_x[(a, i, j)] = row[j].evaluate(x)
                        acc += value * s_val[j]
                if abs(acc) > worst:
                    worst = abs(acc)
    return worst


# ---------------------------------------------------------------------------
# numeric parallel transport
# ---------------------------------------------------------------------------

def _apply(compiled, n, N, x, velocity, s):
    """-(sum_a v_a A_a(x)) s for float state s."""
    out = [0.0] * N
    for a in range(n):
        v = velocity[a]
        if v == 0.0:
            continue
        mat = compiled[a]
        for i in range(N):
            acc = 0.0
            row = mat[i]
            for j in range(N):
                fn = row[j]
                if fn is not None and s[j] != 0.0:
                    acc += fn(x) * s[j]
            if acc:
                out[i] -= v * acc
    return out


def _rk4_segment(compiled, n, N, start, end, s, steps):
    delta = [e - b for e, b in zip(end, start)]

    def rhs(t, state):
        x = [b + t * d for b, d in zip(start, delta)]
        return _apply(compiled, n, N, x, delta, state)

    h = 1.0 / steps
    state = list(s)
    for k in range(steps):
        state = _rk4_step(rhs, k * h, state, h)
    return state


def parallel_transport(conn, data, path, s0, rel_tol=1e-10):
    """Transport packed section values along a polyline of rational points.

    Classical fourth-order Runge-Kutta with step doubling per segment until
    successive refinements agree to rel_tol; raises StepUnderflow when the
    doubling limit is hit and PoleOnPath when the connection blows up on a
    vertex or sampled point.
    """
    chart = conn.chart
    n = chart.dim
    N = section_dim(n)
    mats = connection_matrices(conn, data)
    # exact pole check at the vertices
    for x in path:
        xq = [Fraction(v) for v in x]
        for mat in mats:
            for row in mat:
                for e in row:
                    if not e.is_zero():
                        try:
                            e.evaluate(xq)
                        except PoleError as exc:
                            raise PoleOnPath(str(exc)) from exc
    compiled = _compile_nonzero(mats)
    state = [float(v) for v in s0]
    scale = max(1.0, max(abs(v) for v in state))
    for seg in range(len(path) - 1):
        start = [float(v) for v in path[seg]]
        end = [float(v) for v in path[seg + 1]]
        steps = 8
        try:
            prev = _rk4_segment(compiled, n, N, start, end, state, steps)
        except PoleError as exc:
            raise PoleOnPath(str(exc)) from exc
        while True:
            steps *= 2
            cur = _rk4_segment(compiled, n, N, start, end, state, steps)
            err = max(abs(a - b) for a, b in zip(cur, prev))
            ref = max(scale, max(abs(v) for v in cur))
            if err <= rel_tol * ref:
                state = cur
                break
            if steps > 1 << 18:
                raise StepUnderflow(
                    f"segment {seg}: no convergence at {steps} steps (err {err:.3e})")
            prev = cur
    return state
