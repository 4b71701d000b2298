"""Covariant constant sections by exact Taylor-jet recursion.

The covariant constancy condition on packed components reads
d_a s = -A_a(x) s with A_a the connection matrices.  Expanding A at a base
point and matching Taylor coefficients determines every jet coefficient of
s linearly from s(p); equality of mixed partials imposes exact linear
constraints on s(p).  The surviving initial values form the admissible
space, whose dimension is the degree of mobility (an upper bound until the
dimension repeats for two consecutive orders).

The recursion works on integer rows over one denominator per monomial:
every nonzero Taylor coefficient of the basis solutions is an integer
denominator and N sparse integer rows {basis index: numerator}, in lowest
terms, and only those are stored (the initial value always).  The integer
Taylor data of the A_a has one denominator per monomial: each distinct
Gamma, P, W or Y component of the connection table is expanded once by
exactseries, and an entry is an integer combination of those series.  A
prediction multiplies only pairs of a Taylor term of A_a and a stored
coefficient, found from the shorter side, so products accumulate in int
and zeros cost nothing.  Two predictions of the same coefficient are
compared in that normal form; only rows that differ become (integer)
constraint rows.  On a projectively flat structure the comparison cannot
fail, so each coefficient is predicted once.  Rank decisions still go
through the exact sparse Gauss-Jordan elimination in exactlinalg.  The
basis becomes Fractions at the end; a combination of the basis solutions
is read straight off the integer rows as one integer series per slot, and
the Fraction series only when read.  Numeric parallel transport is a
float cross-check only.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import NotSpecial, PoleError, PoleOnPath, StepUnderflow
from .exactlinalg import nullspace
from .exactseries import (_lowest, monomials_of_order, rational_to_series,
                          series_combination)
from .exprcore import _rk4_step, _scaled_point, _scaled_value, compile_numeric
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
    in shifted coordinates u = x - base_point, for every monomial through
    the order, zeros included; converted from the integer rows of the
    recursion to Fractions on first access.  `combine` reads a combination
    of the basis solutions off those rows instead.
    dims: admissible dimension after imposing consistency order by order.
    table: the `ConnectionTable` the recursion was solved with.
    point_rows: the A_a at each point where `residual` has evaluated them,
    {point: per coordinate, per row (R, [(column, r)])} as `_rows_at`
    gives them, shared by every candidate.
    """

    __slots__ = ("base_point", "order", "dims", "admissible_basis", "_coeff",
                 "_series", "table", "stabilized", "dim", "point_rows")

    def __init__(self, base_point, order, dims, coeff, table):
        self.base_point = tuple(Fraction(p) for p in base_point)
        self.order = order
        self.dims = list(dims)
        self.dim = dims[-1]
        self._coeff = coeff
        self._series = None
        self.admissible_basis = _columns(*coeff[(0,) * len(base_point)],
                                         self.dim)
        self.table = table
        self.point_rows = {}
        self.stabilized = len(dims) >= 2 and dims[-1] == dims[-2]

    @property
    def series(self):
        if self._series is None:
            n = len(self.base_point)
            zero = (1, [{}] * len(self._coeff[(0,) * n][1]))
            self._series = [{} for _ in range(self.dim)]
            for order in range(self.order + 1):
                for mono in monomials_of_order(n, order):
                    cols = _columns(*self._coeff.get(mono, zero), self.dim)
                    for ser, col in zip(self._series, cols):
                        ser[mono] = col
        return self._series

    def combine(self, coords):
        """The solution with the given coordinates on the admissible basis,
        as one integer Series per packed slot, in shifted coordinates.

        Over C, the lcm of the coordinate denominators, slot i has the
        coefficient sum_l (C coords[l]) rows[i][l] / (den C) at each
        stored monomial: one integer sum per monomial and slot, and one
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


def _expand_matrices(table, point, max_order):
    """Per coordinate the int Taylor coefficients of the A_a entries at
    each monomial u^mono, over one denominator per monomial in lowest
    terms: ([(mono, den, [(i, j, coeff)])] lowest order first,
    {mono: (den, [(i, j, coeff)])}, [number of monomials through order k
    for k = 0..max_order]).  Each distinct component of the table is
    expanded once, components sharing a denominator share the expansion
    of its inverse, and an entry is the integer combination of its
    components' series."""
    reciprocals = {}
    comps = [rational_to_series(c, point, max_order, reciprocals)
             for c in table.components]
    out = []
    for entries in table.entries:
        by_mono = {}
        for (i, j), terms in entries.items():
            den, series = series_combination(
                [(scale, comps[k]) for scale, k in terms])
            for mono, v in series.items():
                by_mono.setdefault(mono, []).append((i, j, v, den))
        listed = []
        upto = [0] * (max_order + 1)
        for mono, entries in sorted(by_mono.items(),
                                    key=lambda item: sum(item[0])):
            den = lcm(*(q for _, _, _, q in entries))
            coeffs = [(i, j, v * (den // q)) for i, j, v, q in entries]
            g = gcd(den, *(c for _, _, c in coeffs))
            listed.append((mono, den // g,
                           [(i, j, c // g) for i, j, c in coeffs]))
            upto[sum(mono)] += 1
        for k in range(max_order):
            upto[k + 1] += upto[k]
        out.append((listed, {mono: (den, coeffs)
                             for mono, den, coeffs in listed}, upto))
    return out


def _normalised(den, rows):
    """(den, rows) in lowest terms: zero entries dropped and the gcd of den
    and every entry divided out, so equal coefficients compare equal; None
    when every row is zero."""
    rows = [{t: v for t, v in row.items() if v} for row in rows]
    if not any(rows):
        return None
    g = gcd(den, *(v for row in rows for v in row.values()))
    if g == 1:
        return den, rows
    return den // g, [{t: v // g for t, v in row.items()} for row in rows]


def _difference_rows(first, second):
    """Sparse integer rows {basis index: value} spanning the differences
    of two candidates for the same Taylor coefficient, None reading as
    zero; rows that agree give nothing."""
    if first is None:
        first, second = second, first
    if first is None:
        return []
    den1, rows1 = first
    den2, rows2 = second or (1, [{}] * len(rows1))
    g = gcd(den1, den2)
    f1, f2 = den2 // g, den1 // g
    out = []
    for r1, r2 in zip(rows1, rows2):
        if f1 == f2 == 1 and r1 == r2:
            continue
        diff = {t: v * f1 for t, v in r1.items()}
        for t, v in r2.items():
            x = diff.get(t, 0) - v * f2
            if x:
                diff[t] = x
            else:
                del diff[t]
        if diff:
            out.append(diff)
    return out


def _predict(terms, coeff, alpha, a, N):
    """Taylor coefficient at alpha + e_a of the basis solutions, from
    d_a s = -A_a s: the coefficient of u^alpha in -A_a s over alpha_a + 1,
    normalised, or None when it is zero.  `terms` is the integer Taylor
    data of A_a as `_expand_matrices` gives it.  `coeff` stores only the
    nonzero coefficients, so only pairs of a term u^mono and a stored
    coefficient u^rem with mono + rem = alpha contribute; they are found
    from whichever side is shorter, the terms through the order of alpha
    or the stored coefficients."""
    listed, by_mono, upto = terms
    order = sum(alpha)
    count = upto[order]
    products = []
    if count <= len(coeff):
        for k in range(count):
            mono, mono_den, entries = listed[k]
            stored = coeff.get(tuple(x - y for x, y in zip(alpha, mono)))
            if stored is not None:
                products.append((mono_den * stored[0], entries, stored[1]))
    else:
        for rem, (rem_den, rem_rows) in coeff.items():
            mono = tuple(x - y for x, y in zip(alpha, rem))
            if min(mono) >= 0:
                term = by_mono.get(mono)
                if term is not None:
                    products.append((term[0] * rem_den, term[1], rem_rows))
    if not products:
        return None
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
    first (alpha, a) that reaches it, and no constraint rows arise.  Only
    nonzero Taylor coefficients are stored (the initial value always).
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
    table = connection_matrices(conn, data)
    tdata = _expand_matrices(table, point, max_order)
    N = section_dim(n)

    # coeff[mono] = (den, rows): slot i of basis solution t has Taylor
    # coefficient rows[i].get(t, 0) / den at u^mono; absent means zero
    origin = (0,) * n
    coeff = {origin: (1, [{i: 1} for i in range(N)])}
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
        for mono, (den, rows) in list(coeff.items()):
            new_rows = []
            for row in rows:
                acc = {}
                for t, v in row.items():
                    for l, k in cols[t]:
                        acc[l] = acc.get(l, 0) + v * k
                new_rows.append(acc)
            new = _normalised(den * kden, new_rows)
            if new is not None:
                coeff[mono] = new
            elif mono == origin:
                coeff[mono] = (1, new_rows)
            else:
                del coeff[mono]
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
                        cand[tau], _predict(tdata[a], coeff, alpha, a, N))
        coeff.update((tau, c) for tau, c in cand.items() if c is not None)
        if rows:
            kernel = nullspace(rows, d)
            if len(kernel) < d:
                restrict(kernel)
        dims.append(d)
        if d == 0:
            # every later jet is zero, so the remaining orders hold trivially
            dims.extend([0] * (max_order - 1 - order))
            break
    return JetSolution(point, max_order, dims, coeff, table)


def _rows_at(table, x):
    """The A_a at the rational point x, per coordinate and row as
    (R, [(column, r)]) over one positive integer R: entry (i, j) is the
    sum of r / R over the pairs of row i with column j, one pair per
    nonzero term.  Each component of the table is evaluated once, and the
    terms are added in int."""
    values = [c.evaluate(x) for c in table.components]
    out = []
    for entries in table.entries:
        rows = [[] for _ in range(table.size)]
        for (i, j), terms in entries.items():
            for scale, k in terms:
                v = values[k]
                if v:
                    rows[i].append((j, scale.numerator * v.numerator,
                                    scale.denominator * v.denominator))
        mat = []
        for row in rows:
            R = lcm(*(q for _, _, q in row))
            mat.append((R, [(j, p * (R // q)) for j, p, q in row]))
        out.append(mat)
    return out


def residual(jets, slots, sample_points):
    """Largest covariant-constancy defect of a truncated series solution.

    `slots` holds one Series per packed slot, shifted to
    `jets.base_point`, as `jets.combine` gives them.  Evaluates
    d_a s + A_a(x) s exactly at each rational sample point, with
    the table of the jet solve, and returns the maximum absolute slot
    value as a Fraction.  Exact polynomial solutions give exactly zero.
    Each slot's value and first partials come from one integer pass over
    one power table per point, over one denominator S for all slots; the
    A_a are evaluated once per point and kept in `jets.point_rows` for the
    next candidate, each row over one denominator R.  So every defect is
    one integer sum over S R, and the maximum is kept as an integer pair.
    """
    n = len(jets.table.entries)
    point = jets.base_point
    monoms = [m for s in slots for m in s.terms]
    zero = [0] * n
    worst, worst_den = 0, 1
    for x in sample_points:
        x = tuple(Fraction(v) for v in x)
        rows = jets.point_rows.get(x)
        if rows is None:
            rows = jets.point_rows[x] = _rows_at(jets.table, x)
        values, grads = [0] * len(slots), [zero] * len(slots)
        S = 1
        if monoms:
            powers, lpow = _scaled_point(
                [xv - pv for xv, pv in zip(x, point)], monoms)
            common = lcm(*(s.den for s in slots if s))
            S = lpow[-1] * common
            for j, s in enumerate(slots):
                if s:
                    v, dv, _ = _scaled_value(s.terms, powers, lpow, 1)
                    f = common // s.den
                    values[j] = v * f
                    grads[j] = [g * f for g in dv]
        for a in range(n):
            for i, (R, row) in enumerate(rows[a]):
                num = abs(grads[i][a] * R
                          + sum(r * values[j] for j, r in row))
                if num * worst_den > worst * S * R:
                    worst, worst_den = num, S * R
    return Fraction(worst, worst_den)


# ---------------------------------------------------------------------------
# numeric parallel transport
# ---------------------------------------------------------------------------

def _apply(compiled, entries, N, x, velocity, s):
    """-(sum_a v_a A_a(x)) s for float state s, with every component
    evaluated once at x."""
    values = [fn(x) for fn in compiled]
    out = [0.0] * N
    for v, mat in zip(velocity, entries):
        if v == 0.0:
            continue
        for i, j, terms in mat:
            if s[j] != 0.0:
                out[i] -= v * sum(c * values[k] for c, k in terms) * s[j]
    return out


def _rk4_segment(compiled, entries, N, start, end, s, steps):
    delta = [e - b for e, b in zip(end, start)]

    def rhs(t, state):
        x = [b + t * d for b, d in zip(start, delta)]
        return _apply(compiled, entries, N, x, delta, state)

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
    table = connection_matrices(conn, data)
    N = table.size
    # exact pole check at the vertices
    for x in path:
        xq = [Fraction(v) for v in x]
        for c in table.components:
            try:
                c.evaluate(xq)
            except PoleError as exc:
                raise PoleOnPath(str(exc)) from exc
    compiled = [compile_numeric(c) for c in table.components]
    entries = [[(i, j, [(float(c), k) for c, k in terms])
                for (i, j), terms in mat.items()] for mat in table.entries]
    state = [float(v) for v in s0]
    scale = max(1.0, max(abs(v) for v in state))
    for seg in range(len(path) - 1):
        start = [float(v) for v in path[seg]]
        end = [float(v) for v in path[seg + 1]]
        steps = 8
        try:
            prev = _rk4_segment(compiled, entries, N, start, end, state, steps)
        except PoleError as exc:
            raise PoleOnPath(str(exc)) from exc
        while True:
            steps *= 2
            cur = _rk4_segment(compiled, entries, N, start, end, state, steps)
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
