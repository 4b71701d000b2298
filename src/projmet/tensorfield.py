"""Tensor fields with positional abstract-index bookkeeping.

A field carries a variance signature ('d' lower / 'u' upper per slot), an
integer projective weight, and an optional exponential tag: a formally
attached factor exp(tag) whose exponent stays in the rational-function
field.  Tags let identities involving conformal-style rescalings e^{w f} be
checked exactly; all the identities this package verifies have the tags
cancel.  Ranks never exceed five, so components are a dense flat tuple and
all operations are explicit loops.
"""

from fractions import Fraction
from itertools import product

from .errors import ShapeError
from .exprcore import RationalExpr

__all__ = [
    "TensorField",
    "kron_delta",
    "outer",
    "contract",
    "covariant_derivative",
    "trace_free_part",
    "reweight",
]


class TensorField:
    """Dense tensor of RationalExpr components on a chart."""

    __slots__ = ("chart", "variance", "weight", "tag", "comps")

    def __init__(self, chart, variance, comps, weight=0, tag=None):
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
        self.weight = weight
        self.tag = tag if tag is not None else chart.zero

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zeros(cls, chart, variance, weight=0, tag=None):
        n = chart.dim
        z = chart.zero
        return cls(chart, variance, [z] * (n ** len(variance)), weight, tag)

    @classmethod
    def scalar(cls, chart, value, weight=0, tag=None):
        return cls(chart, (), [value], weight, tag)

    @classmethod
    def from_function(cls, chart, variance, fn, weight=0, tag=None):
        """Components from fn(*indices) with 0-based indices."""
        n = chart.dim
        comps = [fn(*idx) for idx in product(range(n), repeat=len(variance))]
        return cls(chart, variance, comps, weight, tag)

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

    # -- algebra ---------------------------------------------------------------

    def _check_compatible(self, other):
        if (self.chart is not other.chart or self.variance != other.variance
                or self.weight != other.weight or self.tag != other.tag):
            raise ShapeError("tensor fields are not compatible")

    def __add__(self, other):
        self._check_compatible(other)
        return TensorField(self.chart, self.variance,
                           [a + b for a, b in zip(self.comps, other.comps)],
                           self.weight, self.tag)

    def __sub__(self, other):
        self._check_compatible(other)
        return TensorField(self.chart, self.variance,
                           [a - b for a, b in zip(self.comps, other.comps)],
                           self.weight, self.tag)

    def __neg__(self):
        return TensorField(self.chart, self.variance, [-a for a in self.comps],
                           self.weight, self.tag)

    def scale(self, s):
        if isinstance(s, (int, Fraction)):
            s = self.chart.const(s)
        return TensorField(self.chart, self.variance,
                           [s * a for a in self.comps], self.weight, self.tag)

    def __eq__(self, other):
        if not isinstance(other, TensorField):
            return NotImplemented
        return (self.chart is other.chart and self.variance == other.variance
                and self.weight == other.weight and self.tag == other.tag
                and all(a == b for a, b in zip(self.comps, other.comps)))

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def evaluate(self, point):
        """Exact component values at a rational point (tag ignored must be zero)."""
        if not self.tag.is_zero():
            raise ValueError("cannot evaluate a tagged field pointwise")
        n = self.chart.dim
        flat = [c.evaluate(point) for c in self.comps]
        return _nest(flat, n, self.rank)

    def is_symmetric(self, i, j):
        for idx in self.indices():
            jdx = list(idx)
            jdx[i], jdx[j] = jdx[j], jdx[i]
            if self.get(*idx) != self.get(*jdx):
                return False
        return True

    def __repr__(self):
        return (f"TensorField(variance={''.join(self.variance)}, "
                f"weight={self.weight}, dim={self.chart.dim})")


def _nest(flat, n, rank):
    if rank == 0:
        return flat[0]
    step = len(flat) // n
    return [_nest(flat[i * step:(i + 1) * step], n, rank - 1) for i in range(n)]


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
    return TensorField(t.chart, out_var, comps, t.weight, t.tag)


def covariant_derivative(t, conn):
    """Covariant derivative for the affine connection, new lower slot first.

    Tagged fields pick up the extra (d tag) term from differentiating the
    formal exp(tag) factor.  The projective weight is bookkeeping only; no
    weight correction term is added (weighted objects are always handled
    through explicit rescalings here).
    """
    chart = t.chart
    n = chart.dim
    gamma = conn.gamma
    out = []
    for a in range(n):
        dtag = t.tag.diff(a + 1) if not t.tag.is_zero() else None
        for idx in product(range(n), repeat=t.rank):
            val = t.get(*idx).diff(a + 1)
            if dtag is not None:
                val = val + dtag * t.get(*idx)
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
    return TensorField(chart, ("d",) + t.variance, out, t.weight, t.tag)


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
    return TensorField(chart, t.variance, comps, t.weight, t.tag)


def reweight(t, f, volume_weight=None):
    """Rescale a weighted tensor for the volume change eps -> e^{(n+1)f} eps.

    Components are unchanged; the formal factor exp(w f) is recorded on the
    tag, so tags compose additively and reweight(reweight(T, f), -f) == T.
    """
    w = t.weight if volume_weight is None else volume_weight
    return TensorField(t.chart, t.variance, t.comps, t.weight,
                       t.tag + f * w)
