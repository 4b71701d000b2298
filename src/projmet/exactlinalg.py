"""Exact linear algebra over Q.

Rank decisions for the jet solver must not depend on floating point, so
`nullspace` and `solve_linear_system` both read one exact reduced row
echelon form, computed by Gauss-Jordan over Fraction on sparse rows
{column: value} (the only row format taken), and signatures of symmetric
matrices come from congruence diagonalisation (Sylvester's law of
inertia).

The Leibniz determinant and adjugate work over any commutative ring given
by its operations: rational-function fields and truncated series alike.
"""

from fractions import Fraction
from itertools import permutations

__all__ = [
    "leibniz_det",
    "adjugate",
    "nullspace",
    "solve_linear_system",
    "symmetric_signature",
]


def _rref(rows, ncols):
    """Reduced row echelon form of sparse rows {column: value} over Q, by
    Gauss-Jordan.

    Pivot columns go strictly left to right, and each pivot row is the
    shortest remaining row holding the column, to limit fill-in.  Returns
    {pivot column: row} in column order, each row a dict {column: Fraction}
    with 1 at its pivot and 0 at every other pivot.  The reduced form is
    unique, so it does not depend on which rows were chosen.  The rows
    given are not changed.
    """
    todo = [r for r in ({c: Fraction(x) for c, x in row.items() if x}
                        for row in rows) if r]
    reduced = {}
    for c in range(ncols):
        hits = [r for r in todo if c in r]
        if not hits:
            continue
        best = min(hits, key=len)
        inv = 1 / best[c]
        pivot = {k: v * inv for k, v in best.items()}
        for r in hits + [r for r in reduced.values() if c in r]:
            if r is best:
                continue
            f = r[c]
            for k, v in pivot.items():
                x = r.get(k, 0) - f * v
                if x:
                    r[k] = x
                else:
                    del r[k]
        todo = [r for r in todo if r and r is not best]
        reduced[c] = pivot
    return reduced


def nullspace(rows, ncols):
    """Exact basis of the right nullspace of sparse rows over `ncols`
    columns, as lists of Fractions: one vector per free column, 1 there,
    0 at the other free columns."""
    reduced = _rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for p, row in reduced.items():
            if free in row:
                v[p] = -row[free]
        basis.append(v)
    return basis


def solve_linear_system(rows, ncols):
    """One exact solution x of the sparse rows over `ncols` unknowns, each
    row holding its right-hand side in column `ncols`; None when
    inconsistent.

    Underdetermined systems return the solution with free variables zero.
    """
    reduced = _rref(rows, ncols + 1)
    if ncols in reduced:
        return None
    x = [Fraction(0)] * ncols
    for p, row in reduced.items():
        x[p] = row.get(ncols, Fraction(0))
    return x


def symmetric_signature(matrix):
    """(n_positive, n_negative, n_zero) eigenvalue counts of a symmetric
    rational matrix.

    Sylvester's law of inertia: a congruence P^T A P keeps the counts, so
    symmetric Gaussian elimination over Fraction, which is a congruence,
    leaves them on the signs of the pivots.  Each pivot is a nonzero
    diagonal entry of the remaining block, and its Schur complement is the
    next block.  When that diagonal is all zero but some a_ij is not,
    adding row and column j to row and column i makes a_ii = 2 a_ij the
    pivot.  A zero block that is left counts as zero eigenvalues.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    live = list(range(n))
    pos = neg = 0
    while live:
        p = next((i for i in live if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live
                         if i < j and a[i][j]), None)
            if pair is None:
                break
            p, j = pair
            for k in live:
                a[p][k] += a[j][k]
            for k in live:
                a[k][p] += a[k][j]
        d = a[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        live.remove(p)
        for i in live:
            f = a[i][p] / d
            if f:
                for k in live:
                    a[i][k] -= f * a[p][k]
    return pos, neg, n - pos - neg


def _perm_sign(perm):
    """+1 or -1 by the parity of the number of inversions."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def leibniz_det(entry, n, zero, mul, add, neg):
    """Leibniz determinant of the n x n matrix entry(i, j) over a ring.

    `mul`, `add` and `neg` are the ring operations and `zero` its zero.
    Zero entries and products are recognised by truthiness and their terms
    skipped, so sparse matrices stay cheap.
    """
    total = zero
    for perm in permutations(range(n)):
        term = None
        for i in range(n):
            factor = entry(i, perm[i])
            if not factor:
                term = None
                break
            term = factor if term is None else mul(term, factor)
            if not term:
                break
        if not term:
            continue
        total = add(total, term if _perm_sign(perm) > 0 else neg(term))
    return total


def adjugate(entry, n, zero, mul, add, neg):
    """Adjugate of the n x n matrix entry(i, j) over a ring, as a function
    (i, j) -> (-1)^(i+j) times the minor without row j and column i.

    Entries are computed on demand, so a caller that needs part of the
    adjugate (one triangle of a symmetric matrix) pays for that part only.
    """
    def adj(i, j):
        rows = [r for r in range(n) if r != j]
        cols = [c for c in range(n) if c != i]
        minor = leibniz_det(lambda r, c: entry(rows[r], cols[c]), n - 1,
                            zero, mul, add, neg)
        return neg(minor) if (i + j) % 2 else minor

    return adj
