"""Covariant constant sections by exact Taylor-jet recursion.

The covariant constancy condition on packed components reads
d_a s = -A_a(x) s with A_a the connection matrices.  Expanding A at a base
point and matching Taylor coefficients determines every jet coefficient of
s linearly from s(p); equality of mixed partials imposes exact linear
constraints on s(p).  The surviving initial values form the admissible
space, whose dimension is the degree of mobility (an upper bound until the
dimension repeats for two consecutive orders).

All recursion arithmetic is over Q; rank decisions go through the
fraction-free elimination in exactlinalg.  Numeric parallel transport is a
floating-point cross-check, never an input to rank decisions.
"""

from fractions import Fraction

from .errors import NotSpecial, PoleError, PoleOnPath, StepUnderflow
from .exactlinalg import nullspace
from .exactseries import (monomials_of_order, rational_to_series, series_diff,
                          series_eval)
from .exprcore import compile_numeric
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
    in shifted coordinates u = x - base_point.
    dims: admissible dimension after imposing consistency order by order.
    matrices: the connection matrices A_a the recursion was solved with.
    """

    __slots__ = ("base_point", "order", "dims", "admissible_basis", "series",
                 "matrices", "stabilized", "dim")

    def __init__(self, base_point, order, dims, admissible_basis, series,
                 matrices):
        self.base_point = tuple(Fraction(p) for p in base_point)
        self.order = order
        self.dims = list(dims)
        self.admissible_basis = admissible_basis
        self.series = series
        self.matrices = matrices
        self.dim = len(admissible_basis)
        self.stabilized = len(dims) >= 2 and dims[-1] == dims[-2]

    def __repr__(self):
        return (f"JetSolution(dim={self.dim}, order={self.order}, "
                f"stabilized={self.stabilized}, dims={self.dims})")


def _expand_matrices(mats, point, max_order):
    """Sparse Taylor data of the connection matrices.

    Returns per coordinate a dict {exponent tuple: [(i, j, coeff), ...]}.
    """
    out = []
    for a, mat in enumerate(mats):
        by_mono = {}
        for i, row in enumerate(mat):
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                ser = rational_to_series(entry, point, max_order)
                for mono, coeff in ser.items():
                    by_mono.setdefault(mono, []).append((i, j, coeff))
        out.append(by_mono)
    return out


def degree_of_mobility(conn, base_point, max_order=None, data=None):
    """Exact jet solve of the closed system at base_point up to max_order.

    The default truncation order is 2n + 4; the reported dimension is an
    upper bound whenever `stabilized` is False.
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
    point = [Fraction(p) for p in base_point]
    mats = connection_matrices(conn, data)
    tdata = _expand_matrices(mats, point, max_order)
    N = section_dim(n)

    zero_mono = (0,) * n
    coeff = {zero_mono: [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]}
    d = N
    dims = [N]

    def restrict(kernel):
        nonlocal coeff, d
        d2 = len(kernel)
        for mono, mat in coeff.items():
            coeff[mono] = [[sum(row[t] * kernel[l][t] for t in range(d) if row[t])
                            for l in range(d2)] for row in mat]
        d = d2

    for order in range(max_order):
        cand = {}
        rows = []
        for alpha in monomials_of_order(n, order):
            if alpha not in coeff:
                continue
            for a in range(n):
                rhs = [[Fraction(0)] * d for _ in range(N)]
                for mono, entries in tdata[a].items():
                    rem = tuple(x - y for x, y in zip(alpha, mono))
                    if min(rem) < 0:
                        continue
                    base = coeff.get(rem)
                    if base is None:
                        continue
                    for i, j, c in entries:
                        brow = base[j]
                        rrow = rhs[i]
                        for t in range(d):
                            if brow[t]:
                                rrow[t] -= c * brow[t]
                div = Fraction(1, alpha[a] + 1)
                candidate = [[v * div for v in row] for row in rhs]
                tau = alpha[:a] + (alpha[a] + 1,) + alpha[a + 1:]
                if tau in cand:
                    other = cand[tau]
                    for r1, r2 in zip(other, candidate):
                        if r1 != r2:
                            rows.append([x - y for x, y in zip(r1, r2)])
                else:
                    cand[tau] = candidate
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

    basis_matrix = coeff[zero_mono]
    basis = [[basis_matrix[i][j] for i in range(N)] for j in range(d)]
    series = []
    for j in range(d):
        ser = {mono: [mat[i][j] for i in range(N)] for mono, mat in coeff.items()}
        series.append(ser)
    return JetSolution(point, max_order, dims, basis, series, mats)


def residual(jets, series, sample_points):
    """Largest covariant-constancy defect of a truncated series solution.

    `series` is packed like `jets.series` (shifted to `jets.base_point`).
    Evaluates d_a s + A_a(x) s exactly at each rational sample point, with
    the matrices of the jet solve, and returns the maximum absolute slot
    value as a Fraction.  Exact polynomial solutions give exactly zero.
    """
    mats = jets.matrices
    n = len(mats)
    N = len(mats[0])
    point = jets.base_point
    comp_series = [{} for _ in range(N)]
    for mono, vec in series.items():
        for i in range(N):
            if vec[i]:
                comp_series[i][mono] = vec[i]
    d_series = [[series_diff(comp_series[i], a) for i in range(N)]
                for a in range(n)]
    worst = Fraction(0)
    for x in sample_points:
        x = [Fraction(v) for v in x]
        u = [xv - pv for xv, pv in zip(x, point)]
        s_val = [series_eval(comp_series[i], u) for i in range(N)]
        for a in range(n):
            ds = [series_eval(d_series[a][i], u) for i in range(N)]
            for i in range(N):
                acc = ds[i]
                row = mats[a][i]
                for j in range(N):
                    if not row[j].is_zero() and s_val[j]:
                        acc += row[j].evaluate(x) * s_val[j]
                if abs(acc) > worst:
                    worst = abs(acc)
    return worst


# ---------------------------------------------------------------------------
# numeric parallel transport
# ---------------------------------------------------------------------------

def _compile_matrices(mats):
    compiled = []
    for mat in mats:
        rows = []
        for row in mat:
            rows.append([None if e.is_zero() else compile_numeric(e) for e in row])
        compiled.append(rows)
    return compiled


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
    h = 1.0 / steps
    state = list(s)
    for k in range(steps):
        t0 = k * h
        x0 = [b + t0 * d for b, d in zip(start, delta)]
        xm = [b + (t0 + h / 2) * d for b, d in zip(start, delta)]
        x1 = [b + (t0 + h) * d for b, d in zip(start, delta)]
        k1 = _apply(compiled, n, N, x0, delta, state)
        s2 = [v + h / 2 * w for v, w in zip(state, k1)]
        k2 = _apply(compiled, n, N, xm, delta, s2)
        s3 = [v + h / 2 * w for v, w in zip(state, k2)]
        k3 = _apply(compiled, n, N, xm, delta, s3)
        s4 = [v + h * w for v, w in zip(state, k3)]
        k4 = _apply(compiled, n, N, x1, delta, s4)
        state = [v + h / 6 * (a + 2 * b + 2 * c + e)
                 for v, a, b, c, e in zip(state, k1, k2, k3, k4)]
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
    compiled = _compile_matrices(mats)
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
