"""Exact linear algebra over Q.

Rank decisions for the jet solver must not depend on floating point, so
elimination here is fraction-free (Bareiss) on integer-scaled rows, and
signatures of symmetric matrices are read off the characteristic polynomial
with Descartes' rule (exact for real-rooted polynomials).

The Leibniz determinant and adjugate work over any commutative ring given
by its operations: rational-function fields and truncated series alike.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

__all__ = [
    "leibniz_det",
    "adjugate",
    "fraction_free_rref",
    "rank",
    "nullspace",
    "solve_linear_system",
    "symmetric_signature",
]


def _to_integer_rows(rows):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in fr))
        out.append([int(x * den) for x in fr])
    return out


def fraction_free_rref(rows):
    """Bareiss fraction-free elimination to row echelon form.

    Returns (echelon integer rows, pivot column list).  Input rows may be
    Fractions or ints; they are scaled to integers first.
    """
    m = _to_integer_rows(rows)
    nrows = len(m)
    if nrows == 0:
        return [], []
    ncols = len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # normalise each pivot row by its content to keep entries small
    for i in range(len(pivots)):
        g = gcd(*m[i])
        if g > 1:
            m[i] = [x // g for x in m[i]]
        if m[i][pivots[i]] < 0:
            m[i] = [-x for x in m[i]]
    return m[: len(pivots)], pivots


def rank(rows):
    return len(fraction_free_rref(rows)[1])


def nullspace(rows, ncols=None):
    """Exact basis of the right nullspace as lists of Fractions."""
    if not rows:
        if not ncols:
            return []
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    ncols = ncols if ncols is not None else len(rows[0])
    ech, pivots = fraction_free_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        # back substitution over the echelon rows
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            s = Fraction(0)
            for c in range(pc + 1, ncols):
                if ech[i][c] != 0 and v[c] != 0:
                    s += Fraction(ech[i][c]) * v[c]
            v[pc] = -s / ech[i][pc]
        basis.append(v)
    return basis


def solve_linear_system(matrix, rhs):
    """One exact solution of M x = b, or None when inconsistent.

    Underdetermined systems return the solution with free variables zero.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ech, pivots = fraction_free_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        s = Fraction(ech[i][ncols])
        for c in range(pc + 1, ncols):
            if ech[i][c] != 0 and x[c] != 0:
                s -= Fraction(ech[i][c]) * x[c]
        x[pc] = s / ech[i][pc]
    return x


def char_poly(matrix):
    """Characteristic polynomial coefficients [1, c1, ..., cn] of a rational
    matrix via Faddeev-LeVerrier, exact over Q."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I
        prev_c = coeffs[-1]
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        for i in range(n):
            am[i][i] += prev_c
        tr = sum(sum(a[i][t] * am[t][i] for t in range(n)) for i in range(n))
        coeffs.append(-tr / k)
        m = am
    return coeffs


def symmetric_signature(matrix):
    """(n_positive, n_negative, n_zero) eigenvalue counts of a symmetric
    rational matrix.

    Uses Descartes' rule on the characteristic polynomial, which counts sign
    changes exactly because symmetric matrices have real spectra.
    """
    n = len(matrix)
    coeffs = char_poly(matrix)  # lambda^n + c1 lambda^(n-1) + ... + cn
    # strip zero roots
    zero = 0
    while zero < n and coeffs[n - zero] == 0:
        zero += 1
    reduced = coeffs[: n - zero + 1]

    def sign_changes(cs):
        signs = [1 if c > 0 else -1 for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = sign_changes(reduced)
    neg_cs = [c if (len(reduced) - 1 - i) % 2 == 0 else -c
              for i, c in enumerate(reduced)]
    neg = sign_changes(neg_cs)
    return pos, neg, zero


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
