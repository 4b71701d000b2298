"""Covariant constant sections by exact Taylor-jet recursion.

The covariant constancy condition on packed components reads
d_a s = -A_a(x) s with A_a the connection matrices.  Every entry of A_a
is a numerator over a power of the common denominator D of the symbols,
so the recursion solves the cleared system L_i d_a s_i = -(B_a s)_i
(`tractor.cleared_matrices`), whose L_i (a constant times D, D^2 or D^3)
and B_a = L_i A_a are polynomials.  Matching Taylor coefficients at a base
point determines every jet coefficient of s linearly from s(p); equality
of mixed partials imposes exact linear constraints on s(p).  The
surviving initial values form the admissible space.  Its dimension at
every order is an upper bound on the degree of mobility, since a higher
order can only add constraints; two equal dimensions in a row
(`stabilized`) suggest that the bound is reached but do not prove it.

The recursion works on integer rows over one denominator per monomial:
every nonzero Taylor coefficient of the basis solutions is an integer
denominator and N sparse integer rows {basis index: numerator}, in lowest
terms, and only those are stored (the initial value always).  The Taylor
data of B_a and L_i, each row divided by L_i(p), is integer over one
denominator per monomial: each distinct polynomial of the cleared system
is expanded once by exactseries, and no series is inverted.  A prediction
multiplies only pairs of a Taylor term of B_a or L_i and a stored
coefficient, found from the shorter side, so products accumulate in int
and zeros cost nothing; a polynomial Gamma makes D and L_i constant, and
the recursion is that of A_a itself.  Two predictions of the same
coefficient are compared in that normal form; only rows that differ
become (integer) constraint rows.  On a projectively flat structure the comparison cannot
fail, so each coefficient is predicted once.  Rank decisions still go
through the exact sparse Gauss-Jordan elimination in exactlinalg.  The
basis becomes Fractions at the end; a combination of the basis solutions
is read straight off the integer rows as one integer series per slot, and
the Fraction series only when read.  The exact residual and the numeric
parallel transport, a float cross-check only, read the same cleared
system and divide row i by L_i(x).
"""

from fractions import Fraction
from math import gcd, lcm
from operator import sub

from .errors import (NotSpecial, PoleAtBasePoint, PoleError, PoleOnPath,
                     StepUnderflow)
from .exactlinalg import nullspace
from .exactseries import _lowest, monomials_of_order, rational_to_series
from .exprcore import (RationalExpr, _rk4_step, _scaled_point, _scaled_value,
                       compile_numeric)
from .projconn import decompose_curvature
from .tractor import cleared_matrices, section_dim

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
    system: the cleared system (components, L, entries) of
    `tractor.cleared_matrices` the recursion was solved with.
    point_rows: the A_a at each point where `residual` has evaluated them,
    {point: per coordinate, per row (R, [(column, r)])} as `_rows_at`
    gives them, shared by every candidate.
    """

    __slots__ = ("base_point", "order", "dims", "admissible_basis", "_coeff",
                 "_series", "system", "stabilized", "dim", "point_rows")

    def __init__(self, base_point, order, dims, coeff, system):
        self.base_point = tuple(Fraction(p) for p in base_point)
        self.order = order
        self.dims = list(dims)
        self.dim = dims[-1]
        self._coeff = coeff
        self._series = None
        self.admissible_basis = _columns(*coeff[(0,) * len(base_point)],
                                         self.dim)
        self.system = system
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


def _listed(by_mono, max_order):
    """{mono: [(i, j, numerator, denominator)]} summed per (i, j) and
    monomial as ([(mono, den, [(i, j, coeff)])] lowest order first,
    {mono: (den, [(i, j, coeff)])}, [number of monomials through order k
    for k = 0..max_order]), over one positive denominator per monomial in
    lowest terms; monomials whose sums all vanish are left out."""
    listed = []
    upto = [0] * (max_order + 1)
    for mono, entries in sorted(by_mono.items(),
                                key=lambda item: sum(item[0])):
        den = lcm(*(q for _, _, _, q in entries))
        acc = {}
        for i, j, v, q in entries:
            acc[i, j] = acc.get((i, j), 0) + v * (den // q)
        coeffs = [(i, j, c) for (i, j), c in acc.items() if c]
        if not coeffs:
            continue
        g = gcd(den, *(c for _, _, c in coeffs))
        listed.append((mono, den // g, [(i, j, c // g) for i, j, c in coeffs]))
        upto[sum(mono)] += 1
    for k in range(max_order):
        upto[k + 1] += upto[k]
    return listed, {mono: (den, coeffs) for mono, den, coeffs in listed}, upto


def _expand_system(chart, system, point, max_order):
    """Per coordinate a, the integer Taylor data at `point` through
    max_order of the cleared system L_i d_a s_i = -(B_a s)_i, as
    `cleared_matrices` gives it, each row divided by L_i(p): the pair of
    `_listed` of the entries (i, j, coeff) of B_a / L_i(p) and `_listed`
    of the terms (i, i, coeff) of L_i / L_i(p) beyond its constant term 1,
    the latter the same for every coordinate.  Each component of the
    cleared system is expanded once by `rational_to_series`, as a
    polynomial RationalExpr, so no series is inverted.  Raises
    PoleAtBasePoint when D, and with it every L_i, vanishes at the point.
    """
    one = chart.one.num
    zero = (0,) * chart.dim
    components, L, entries = system
    series = [rational_to_series(RationalExpr(chart, c, one), point,
                                 max_order) for c in components]
    factors = []  # per slot i, 1 / L_i(p) as (p, q)
    steps = {}
    for i, (scale, k) in enumerate(L):
        den, terms = series[k]
        c = terms.get(zero)
        if not c:
            raise PoleAtBasePoint(
                f"denominator vanishes at base point {tuple(point)}")
        factors.append((den, scale * c))
        for mono, v in terms.items():
            if mono != zero:
                steps.setdefault(mono, []).append((i, i, v, c))
    steps = _listed(steps, max_order)
    out = []
    for table in entries:
        by_mono = {}
        for (i, j), terms in table.items():
            p, q = factors[i]
            for scale, k in terms:
                den, ser = series[k]
                f, fq = scale * p, den * q
                for mono, v in ser.items():
                    by_mono.setdefault(mono, []).append((i, j, v * f, fq))
        out.append((_listed(by_mono, max_order), steps))
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


def _pairs(terms, coeff, target, a=None):
    """The products of a Taylor term u^mono of `terms`, as `_listed` gives
    them, and a stored coefficient u^rem with mono + rem = target, as
    (term den * rem den, step, term entries, rem rows) with step 1, or
    rem_a when `a` is given (a zero step drops the pair).  They are found
    from whichever side is shorter: the terms through the order of target,
    or the stored coefficients."""
    listed, by_mono, upto = terms
    count = upto[sum(target)]
    out = []
    if count <= len(coeff):
        for k in range(count):
            mono, den, entries = listed[k]
            rem = tuple(map(sub, target, mono))
            stored = coeff.get(rem)
            if stored is not None:
                step = 1 if a is None else rem[a]
                if step:
                    out.append((den * stored[0], step, entries, stored[1]))
    else:
        for rem, (rem_den, rem_rows) in coeff.items():
            mono = tuple(map(sub, target, rem))
            if min(mono) >= 0:
                term = by_mono.get(mono)
                step = 1 if a is None else rem[a]
                if term is not None and step:
                    out.append((term[0] * rem_den, step, term[1], rem_rows))
    return out


def _predict(terms, coeff, alpha, a, N):
    """Taylor coefficient at alpha + e_a of the basis solutions, from the
    cleared system L_i d_a s_i = -(B_a s)_i with each row divided by
    L_i(p), so that l_(i,0) = 1:

        (alpha_a + 1) s_(alpha+e_a),i = -[B_a s]_alpha,i
            - sum over beta != 0 of l_(i,beta) ((alpha - beta)_a + 1)
              s_(alpha-beta+e_a),i,

    normalised, or None when it is zero.  `terms` is the integer Taylor
    data of B_a and L as `_expand_system` gives them.  Every stored
    coefficient through the order of alpha satisfies the system in every
    direction, so this is the coefficient that d_a s = -A_a s predicts
    from the series of A_a, at the cost of the few Taylor terms of B_a and
    L.  `coeff` stores only the nonzero coefficients, so only the `_pairs`
    of a term and a stored coefficient contribute: u^mono of B_a with
    u^rem at alpha - mono, and u^beta of L with u^rem at
    alpha - beta + e_a, times rem_a.  A constant L has no such terms."""
    b_terms, l_terms = terms
    products = _pairs(b_terms, coeff, alpha)
    if l_terms[0]:
        products += _pairs(l_terms, coeff,
                           alpha[:a] + (alpha[a] + 1,) + alpha[a + 1:], a)
    if not products:
        return None
    den = lcm(*(q for q, _, _, _ in products))
    acc = [{} for _ in range(N)]
    for q, step, entries, brows in products:
        scale = den // q * step
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

    The default truncation order is 2n + 4.  The reported dimension is
    always an upper bound on the degree of mobility; `stabilized`, the
    last two orders giving the same dimension, is a heuristic, not a proof
    that the bound is reached.  On a projectively flat
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
    system = cleared_matrices(conn, data)
    tdata = _expand_system(chart, system, point, max_order)
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
    return JetSolution(point, max_order, dims, coeff, system)


def _rows_at(system, x):
    """The A_a at the rational point x, per coordinate and row as
    (R, [(column, r)]) over one positive integer R: entry (i, j) is r / R.
    Row i is (B_a)_i / L_i of the cleared system, so R is L_i(x) and r is
    (B_a)_ij(x), both over the same power of the lcm of the coordinate
    denominators, which cancels.  Each component is evaluated once, from
    one power table, and the terms are added in int.  PoleError where
    L_i(x), and with it D(x), is zero."""
    components, L, entries = system
    powers, lpow = _scaled_point(x, [m for c in components for m in c])
    values = [_scaled_value(c, powers, lpow)[0] for c in components]
    dens = [c * values[k] for c, k in L]
    if not all(dens):
        raise PoleError(f"denominator vanishes at {x}")
    out = []
    for table in entries:
        rows = [[] for _ in L]
        for (i, j), terms in table.items():
            r = sum(s * values[k] for s, k in terms)
            if r:
                rows[i].append((j, r if dens[i] > 0 else -r))
        out.append([(abs(R), row) for R, row in zip(dens, rows)])
    return out


def residual(jets, slots, sample_points):
    """Largest covariant-constancy defect of a truncated series solution.

    `slots` holds one Series per packed slot, shifted to
    `jets.base_point`, as `jets.combine` gives them.  Evaluates
    d_a s + A_a(x) s exactly at each rational sample point, with
    the cleared system of the jet solve, and returns the maximum absolute
    slot value as a Fraction; PoleError at a pole of the connection.
    Exact polynomial solutions give exactly zero.  Each slot's value and
    first partials come from one integer pass over one power table per
    point, over one denominator S for all slots; the
    A_a are evaluated once per point and kept in `jets.point_rows` for the
    next candidate, each row over one denominator R.  So every defect is
    one integer sum over S R, and the maximum is kept as an integer pair.
    """
    n = len(jets.system[2])
    point = jets.base_point
    monoms = [m for s in slots for m in s.terms]
    zero = [0] * n
    worst, worst_den = 0, 1
    for x in sample_points:
        x = tuple(Fraction(v) for v in x)
        rows = jets.point_rows.get(x)
        if rows is None:
            rows = jets.point_rows[x] = _rows_at(jets.system, x)
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

def _apply(compiled, L, entries, x, velocity, s):
    """-(sum_a v_a A_a(x)) s for float state s, as -(sum_a v_a B_a(x)) s
    divided row by row by L_i(x), with every component evaluated once at
    x."""
    values = [fn(x) for fn in compiled]
    out = [0.0] * len(L)
    for v, mat in zip(velocity, entries):
        if v == 0.0:
            continue
        for i, j, terms in mat:
            if s[j] != 0.0:
                out[i] -= v * sum(c * values[k] for c, k in terms) * s[j]
    for i, (c, k) in enumerate(L):
        den = c * values[k]
        if den == 0.0:
            raise PoleError(f"denominator vanishes near {tuple(x)}")
        out[i] /= den
    return out


def _rk4_segment(compiled, L, entries, start, end, s, steps):
    delta = [e - b for e, b in zip(end, start)]

    def rhs(t, state):
        x = [b + t * d for b, d in zip(start, delta)]
        return _apply(compiled, L, entries, x, delta, state)

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
    vertex or sampled point.  The right-hand side is the cleared system:
    its components compiled once, and each row divided by L_i(x).
    """
    system = cleared_matrices(conn, data)
    components, L, _ = system
    # exact pole check at the vertices
    for x in path:
        try:
            _rows_at(system, tuple(Fraction(v) for v in x))
        except PoleError as exc:
            raise PoleOnPath(str(exc)) from exc
    one = conn.chart.one.num
    compiled = [compile_numeric(RationalExpr(conn.chart, c, one))
                for c in components]
    entries = [[(i, j, [(float(c), k) for c, k in terms])
                for (i, j), terms in mat.items()] for mat in system[2]]
    args = compiled, [(float(c), k) for c, k in L], entries
    state = [float(v) for v in s0]
    scale = max(1.0, max(abs(v) for v in state))
    for seg in range(len(path) - 1):
        start = [float(v) for v in path[seg]]
        end = [float(v) for v in path[seg + 1]]
        steps = 8
        try:
            prev = _rk4_segment(*args, start, end, state, steps)
        except PoleError as exc:
            raise PoleOnPath(str(exc)) from exc
        while True:
            steps *= 2
            cur = _rk4_segment(*args, start, end, state, steps)
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
