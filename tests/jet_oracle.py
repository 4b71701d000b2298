"""Reference jet solver: the dense Fraction recursion that
`mobility.degree_of_mobility` used before it moved to sparse integer rows.

Kept verbatim (apart from the argument checks, returning plain data and
handing its dense rows to the eliminator through `linalg_oracle.sparse`)
as an independent oracle: every Taylor coefficient is a dense N x d matrix of
Fractions, every (alpha, a) product is accumulated entry by entry, and the
Taylor data of the connection matrices comes from one `rational_to_series`
of the Fraction series oracle (`series_oracle`) per entry.  The matrices
come from the column-by-column builder in `oracles`, not from the closed
form the solver uses.
"""

from fractions import Fraction

from projmet.exactlinalg import nullspace
from projmet.exactseries import monomials_of_order
from projmet.projconn import decompose_curvature
from projmet.tractor import section_dim

from linalg_oracle import sparse
from oracles import connection_matrices_by_columns
from series_oracle import rational_to_series


def expand_matrices(mats, point, max_order):
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


def dense_jet_solve(conn, base_point, max_order):
    """(dims, admissible_basis, series) exactly as the dense recursion
    computed them; `conn` must be special."""
    n = conn.chart.dim
    data = decompose_curvature(conn)
    point = [Fraction(p) for p in base_point]
    mats = connection_matrices_by_columns(conn, data)
    tdata = expand_matrices(mats, point, max_order)
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
            kernel = nullspace(*sparse(rows, d))
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
    return dims, basis, series
