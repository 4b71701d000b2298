"""Tensor fields with positional abstract-index bookkeeping.

A field carries a variance signature ('d' lower / 'u' upper per slot) and
its components.  Ranks never exceed five, so components are a dense flat
tuple and all operations are explicit loops.  A rescaled (weighted) object
is handled through its explicit rescaling by the caller.
"""

from fractions import Fraction
from itertools import product

from .errors import ShapeError

__all__ = [
    "TensorField",
    "contract",
    "covariant_derivative",
    "trace_free_part",
]


class TensorField:
    """Dense tensor of RationalExpr components on a chart."""

    __slots__ = ("chart", "variance", "comps")

    def __init__(self, chart, variance, comps):
        self.chart = chart
        self.variance = tuple(variance)
        for v in self.variance:
            if v not in ("u", "d"):
                raise ShapeError(f"variance must be 'u' or 'd', got {v!r}")
        n = chart.dim
        size = n ** len(self.variance)
        comps = tuple(comps)
        if len(comps) != size:
            raise ShapeError(f"expected {size} components, got {len(comps)}")
        self.comps = comps

    @classmethod
    def from_function(cls, chart, variance, fn):
        """Components from fn(*indices) with 0-based indices."""
        n = chart.dim
        comps = [fn(*idx) for idx in product(range(n), repeat=len(variance))]
        return cls(chart, variance, comps)

    @property
    def rank(self):
        return len(self.variance)

    def _flat(self, idx):
        n = self.chart.dim
        f = 0
        for i in idx:
            f = f * n + i
        return f

    def get(self, *idx):
        return self.comps[self._flat(idx)]

    def indices(self):
        return product(range(self.chart.dim), repeat=self.rank)

    def __eq__(self, other):
        if not isinstance(other, TensorField):
            return NotImplemented
        return (self.chart is other.chart and self.variance == other.variance
                and all(a == b for a, b in zip(self.comps, other.comps)))

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def is_symmetric(self, i, j):
        for idx in self.indices():
            jdx = list(idx)
            jdx[i], jdx[j] = jdx[j], jdx[i]
            if self.get(*idx) != self.get(*jdx):
                return False
        return True

    def __repr__(self):
        return (f"TensorField(variance={''.join(self.variance)}, "
                f"dim={self.chart.dim})")


def contract(t, i, j):
    """Contract slot i (up) with slot j (down), 0-based positions."""
    if {t.variance[i], t.variance[j]} != {"u", "d"}:
        raise ShapeError("contraction needs one upper and one lower slot")
    n = t.chart.dim
    lo, hi = min(i, j), max(i, j)
    out_var = t.variance[:lo] + t.variance[lo + 1:hi] + t.variance[hi + 1:]
    comps = []
    for idx in product(range(n), repeat=len(out_var)):
        s = t.chart.zero
        for e in range(n):
            full = list(idx[:lo])
            full.append(e)
            full.extend(idx[lo:hi - 1])
            full.append(e)
            full.extend(idx[hi - 1:])
            s = s + t.get(*full)
        comps.append(s)
    return TensorField(t.chart, out_var, comps)


def covariant_derivative(t, conn):
    """Covariant derivative for the affine connection, new lower slot first."""
    chart = t.chart
    n = chart.dim
    gamma = conn.gamma
    out = []
    for a in range(n):
        for idx in product(range(n), repeat=t.rank):
            val = t.get(*idx).diff(a + 1)
            for slot, var in enumerate(t.variance):
                if var == "u":
                    c = idx[slot]
                    for e in range(n):
                        g = gamma[c][a][e]
                        if g.is_zero():
                            continue
                        jdx = list(idx)
                        jdx[slot] = e
                        val = val + g * t.get(*jdx)
                else:
                    d = idx[slot]
                    for e in range(n):
                        g = gamma[e][a][d]
                        if g.is_zero():
                            continue
                        jdx = list(idx)
                        jdx[slot] = e
                        val = val - g * t.get(*jdx)
            out.append(val)
    return TensorField(chart, ("d",) + t.variance, out)


def trace_free_part(t):
    """Trace-free projection of T_a^{bc} (lower, upper, upper; symmetric uppers).

    Output minus input is pure trace and both contractions of the output
    vanish identically; this is the metrizability operator's target shape.
    """
    if t.variance != ("d", "u", "u"):
        raise ShapeError("trace_free_part expects variance ('d','u','u')")
    if not t.is_symmetric(1, 2):
        raise ShapeError("upper index pair must be symmetric")
    chart = t.chart
    n = chart.dim
    s = contract(t, 1, 0)  # S^c = T_d{}^{dc}
    frac = chart.const(Fraction(1, n + 1))
    comps = []
    for a, b, c in product(range(n), repeat=3):
        val = t.get(a, b, c)
        if a == b:
            val = val - frac * s.get(c)
        if a == c:
            val = val - frac * s.get(b)
        comps.append(val)
    return TensorField(chart, t.variance, comps)
