"""The analysis pipeline: specialize -> curvature decomposition -> jet solve
-> candidate reconstruction -> verification -> verdict.

Functions here build report data and return exit codes; spec parsing,
subcommand dispatch and rendering live in `cli`.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import DegenerateSigma, ParseError, PoleAtBasePoint, PoleError
from .exactlinalg import (adjugate, leibniz_det, nullspace, solve_linear_system,
                          symmetric_signature)
from .exactseries import (Series, series_add, series_inverse, series_mul,
                          series_scale, series_to_coeff_dict)
from .metricize import (candidate_from_metric, kappa_at, metric_inverse,
                        reconstruct_metric, sampled_lc_residual)
from .mobility import degree_of_mobility, residual
from .projconn import beta_form, decompose_curvature, specialize
from .tensorfield import TensorField
from .tractor import section_dim, sym_pairs, unpack_values

__all__ = ["analyze_connection"]

SCHEMA_VERSION = 2
EXIT_OK = 0
EXIT_NOT_METRIZABLE = 10
EXIT_INDEFINITE_ONLY = 11


def _symmetric_strings(t):
    """Rows of str() of a symmetric rank-2 field, each distinct entry
    rendered once: (j, i) reuses the string of (i, j)."""
    n = t.chart.dim
    upper = {(i, j): str(t.get(i, j)) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


def fr_str(v):
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def check_base_point(conn, base_point):
    """PoleAtBasePoint naming the first Christoffel entry whose denominator
    vanishes at the base point, where the input is undefined."""
    for c, a, b in product(range(conn.chart.dim), repeat=3):
        entry = conn.gamma[c][a][b]
        if a > b or entry.is_polynomial():
            continue
        try:
            entry.evaluate(base_point)
        except PoleError:
            raise PoleAtBasePoint(
                f'christoffel "{c + 1},{a + 1},{b + 1}" = {entry} has a pole '
                f"at base point ({', '.join(map(fr_str, base_point))})") from None


def run_to_jets(conn, base_point, max_order, report, flag_beta=False):
    """The stages `analyze` and `mobility` share, from the base-point check
    to the jet solve, adding the gauge and mobility blocks to the report
    (and `beta_nonzero` with `flag_beta`).  Returns (special, upsilon,
    data, jets)."""
    check_base_point(conn, base_point)
    if flag_beta:
        report["beta_nonzero"] = not beta_form(conn).is_zero()
    special, upsilon = specialize(conn)
    data = decompose_curvature(special)
    jets = degree_of_mobility(special, base_point, max_order, data)
    add_gauge_blocks(report, upsilon, jets)
    return special, upsilon, data, jets


def add_gauge_blocks(report, upsilon, jets=None):
    """The `special_gauge` block, the 1-form that changes the input into
    the special connection, and the `mobility` block when jets are given."""
    report["special_gauge"] = {
        "upsilon": [str(c) for c in upsilon]}
    if jets is not None:
        report["mobility"] = {
            "dimension": jets.dim,
            "dims_by_order": jets.dims,
            "stabilized": jets.stabilized,
            "max_order": jets.order,
            "base_point": [fr_str(v) for v in jets.base_point],
        }


# ---------------------------------------------------------------------------
# deterministic sample points
# ---------------------------------------------------------------------------

def _sample_points(base_point, n, count):
    # offsets at most 1/16 so series-truncated residuals stay far below the
    # default tolerance at the default jet order
    pts = []
    for i in range(count):
        pt = []
        for j in range(n):
            num = 1 + ((i + j) % 3)
            den = 48 * (1 + ((i + 2 * j + 1) % 4))
            sign = -1 if (i + j) % 2 else 1
            pt.append(base_point[j] + Fraction(sign * num, den))
        pts.append(pt)
    return pts


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def _candidate_vectors(jets, n):
    """Deterministic initial-value candidates inside the admissible space,
    as (vector, coordinates on the admissible basis).

    Basis vectors give the reporting baseline; reference candidates carry
    sigma(p) = identity, first with zero velocity slot and scanned scalar
    slot (the constant-curvature family when the structure is flat), then
    with single offsets along the remaining freedom.  Each vector and its
    coordinates are scaled to its primitive integer ray, the sign fixed by
    the sigma block (positive multiples give the same metric up to scale).
    """
    N = section_dim(n)
    d = jets.dim
    pairs = sym_pairs(n)
    basis = jets.admissible_basis
    cands = []
    seen = set()

    def push(vec, coords):
        if all(v == 0 for v in vec):
            return
        pos, neg, zero = symmetric_signature(unpack_values(n, vec)[0])
        den = lcm(*(v.denominator for v in vec))
        scale = Fraction(den if neg <= pos else -den,
                         gcd(*(int(v * den) for v in vec)))
        vec = [int(v * scale) for v in vec]
        key = tuple(vec)
        if key not in seen:
            seen.add(key)
            cands.append((vec, [c * scale for c in coords]))

    for l, col in enumerate(basis):
        push(list(col), [Fraction(int(k == l)) for k in range(d)])

    # slot i of the basis combination as a sparse row over the d
    # coordinates; a target value for it goes in column d
    rows = [{l: basis[l][i] for l in range(d) if basis[l][i]}
            for i in range(N)]

    def solve(rows, target):
        return solve_linear_system(
            [{**row, d: v} for row, v in zip(rows, target)], d)

    # sigma(p) = identity, mu(p) = 0, rho(p) scanned
    ident = [Fraction(1) if i == j else Fraction(0) for i, j in pairs]
    for rho in (0, 1, -1, 2, -2):
        vec = ident + [Fraction(0)] * n + [Fraction(rho)]
        coords = solve(rows, vec)
        if coords is not None:
            push(vec, coords)

    # sigma(p) = identity with the solver's choice of the remaining slots,
    # plus single-direction offsets
    sigma_rows = rows[:len(pairs)]
    part = solve(sigma_rows, ident)
    if part is not None:
        kern = nullspace(sigma_rows, d)
        offsets = [[Fraction(0)] * d]
        for kv in kern[:4]:
            for t in (1, -1):
                offsets.append([t * v for v in kv])
        for off in offsets:
            coeffs = [c + o for c, o in zip(part, off)]
            vec = [sum(coeffs[l] * basis[l][i] for l in range(d)) for i in range(N)]
            push(vec, coeffs)
    return cands


# ---------------------------------------------------------------------------
# reconstruction from a solution series
# ---------------------------------------------------------------------------

def _tail_is_zero(series_list, max_order, tail=2):
    """No series in the list has a nonzero coefficient of total order above
    max_order - tail."""
    return not any(sum(m) > max_order - tail
                   for ser in series_list for m in ser.terms)


def _field_from_series(chart, comps, base_point, cutoff, variance=("u", "u")):
    """Symmetric polynomial TensorField from upper-triangle component series
    {(i, j): series}, keeping coefficients up to total order `cutoff`."""
    n = chart.dim
    fields = {}
    for ij, (den, terms) in comps.items():
        kept = Series(den, {m: v for m, v in terms.items() if sum(m) <= cutoff})
        fields[ij] = chart.from_coeff_dict(series_to_coeff_dict(kept, base_point))
    return TensorField(chart, variance, [fields[(min(i, j), max(i, j))]
                                         for i in range(n) for j in range(n)])


def _symmetric_entry(comps):
    return lambda i, j: comps[(min(i, j), max(i, j))]


def _series_ring(max_order):
    """(zero, mul, add, neg) of the series truncated at max_order."""
    return (Series(1, {}), lambda a, b: series_mul(a, b, max_order),
            series_add, lambda a: series_scale(a, -1))


def _lower_metric_series(sig, det, n, max_order):
    """Series of g_ab = adj(g) / det(g) for g^{ab} = D sigma^{ab}, D the
    series `det` of det(sigma), truncated at max_order; None when D(p) = 0.

    det(D sigma) = D^(n+1) and adj(D sigma) = D^(n-1) adj(sigma), so
    g_ab = adj(sigma) D^(-2), and truncation is a ring map: one series
    inverse of D gives the same coefficients as the adjugate and
    determinant of the series of g^{ab}.
    """
    if not det.terms.get((0,) * n):
        return None
    adj = adjugate(_symmetric_entry(sig), n, *_series_ring(max_order))
    inv = series_inverse(det, n, max_order)
    inv2 = series_mul(inv, inv, max_order)
    return {(i, j): series_mul(adj(i, j), inv2, max_order) for i, j in sig}


def _reconstruct(special, slots, base_point, max_order, samples):
    """Metric candidate from a solution given as one Series per packed slot
    (`JetSolution.combine`); returns (exact, cand).

    The candidate is exact when sigma, the metric g^{ab} = det(sigma)
    sigma^{ab} or its inverse g_ab has a vanishing tail: coefficients
    through max_order of the series products are exact Taylor coefficients,
    so a vanishing tail certifies a polynomial even when sigma itself does
    not terminate.  Otherwise sigma is truncated and checked by sampling.
    """
    chart = special.chart
    n = chart.dim
    sig = dict(zip(sym_pairs(n), slots))
    if _tail_is_zero(slots, max_order):
        # sigma itself is polynomial: plain reconstruction
        sigma = _field_from_series(chart, sig, base_point, max_order)
        return True, reconstruct_metric(sigma, special, base_point, samples)
    det = leibniz_det(_symmetric_entry(sig), n, *_series_ring(max_order))
    g_ser = {ij: series_mul(det, s, max_order) for ij, s in sig.items()}
    if _tail_is_zero(g_ser.values(), max_order):
        # the reconstructed metric itself is polynomial
        g_up = _field_from_series(chart, g_ser, base_point, max_order)
        return True, candidate_from_metric(g_up, special, base_point, samples)
    # g_ab, when det(sigma)(p) != 0 makes the series invertible
    low_ser = _lower_metric_series(sig, det, n, max_order)
    if low_ser is not None and _tail_is_zero(low_ser.values(), max_order):
        # the lower-index metric is polynomial (the usual round-trip case);
        # invert it exactly
        g_down = _field_from_series(chart, low_ser, base_point, max_order,
                                    variance=("d", "d"))
        return True, candidate_from_metric(metric_inverse(g_down), special,
                                           base_point, samples)
    sigma = _field_from_series(chart, sig, base_point, max_order - 2)
    return False, reconstruct_metric(sigma, special, base_point, samples)


# ---------------------------------------------------------------------------
# verification and verdict
# ---------------------------------------------------------------------------

def analyze_connection(conn, base_point, options, echo=None):
    """Full pipeline on a parsed connection; returns (report, exit_code)."""
    if options["samples"] < 1:  # the sampled checks would pass unseen
        raise ParseError(
            f"samples must be at least 1, got {options['samples']}")
    n = conn.chart.dim
    report = {"schema": SCHEMA_VERSION, "input": echo or {}, "warnings": []}
    special, upsilon, data, jets = run_to_jets(
        conn, base_point, options["max_order"], report, flag_beta=True)
    if not jets.stabilized:
        report["warnings"].append(
            "jet dimension did not stabilize; the mobility value is an upper bound")

    report["solutions"] = []
    for vec in jets.admissible_basis:
        pos, neg, zero = symmetric_signature(unpack_values(n, vec)[0])
        report["solutions"].append({
            "initial_value": [fr_str(v) for v in vec],
            "sigma_signature": [pos, neg, zero],
        })

    if jets.dim == 0:
        report["metrics"] = []
        report["verdict"] = f"NOT_METRIZABLE_AT_ORDER({options['max_order']})"
        return report, EXIT_NOT_METRIZABLE

    samples = _sample_points(jets.base_point, n, options["samples"])
    tol = options["tolerance"]
    # Beltrami: a metric has constant curvature exactly when its projective
    # class is flat, and every candidate lies in the class of the input
    flat = data.is_flat()
    metrics = []
    for vec, coords in _candidate_vectors(jets, n):
        slots = jets.combine(coords)
        try:
            exact, cand = _reconstruct(special, slots, jets.base_point,
                                       options["max_order"], samples)
        except (DegenerateSigma, PoleError) as exc:
            metrics.append({
                "initial_value": [fr_str(v) for v in vec],
                "skipped": str(exc),
            })
            continue
        entry = {
            "initial_value": [fr_str(v) for v in vec],
            "exact": exact,
            "signature": list(cand.signature),
            "definite": cand.definite,
            "warnings": cand.warnings,
            "g_upper": _symmetric_strings(cand.g_up),
            "f": cand.f,
        }
        entry["verified"] = _verify_candidate(upsilon, cand, slots, jets,
                                              samples, tol, flat, exact,
                                              entry)
        metrics.append(entry)
    report["metrics"] = metrics

    # every candidate connection is projectively equivalent to the input by
    # construction, so a verified definite candidate is a complete witness
    if any(m.get("verified") and m["definite"] for m in metrics):
        report["verdict"] = "METRIZABLE"
        return report, EXIT_OK
    report["verdict"] = "INDEFINITE_ONLY"
    if not any(m.get("verified") for m in metrics):
        report["warnings"].append(
            "no candidate passed verification; solutions exist but none were "
            "confirmed as metrics")
    return report, EXIT_INDEFINITE_ONLY


def _verify_candidate(upsilon, cand, slots, jets, samples, tol, flat,
                      exact, entry):
    """Proof of one candidate, then its curvature.

    An exact candidate is proven by the linear metrizability equation,
    tested as integer polynomial identities in the special gauge
    (`MetricCandidate.solves_metrizability`); a truncated one passes when
    its sampled Levi-Civita defect and closure residual are within `tol`.
    The sampled defect and kappa read the candidate's exact point table
    (`MetricCandidate.jets_at`), so the candidate connection is built as
    a field only where that table falls back at a pole.

    The candidate connection is the special connection changed by
    cand.upsilon, and the special connection is the input changed by
    `upsilon`, so the two 1-forms add up to the one relating the input to
    the candidate.  Constant curvature is the input's projective flatness
    (`flat`).  On a flat input kappa is exact at the base point, where even
    a truncated series has an exact 2-jet; otherwise it is the value at the
    first sample point.
    """
    res = residual(jets, slots, samples)
    entry["closure_residual"] = fr_str(res) if res == 0 else float(res)
    if exact:
        # The special connection has zero Christoffel trace and cand.upsilon
        # = grad f with (n+1) f = -1/2 log det g^{..}, so the volume residual
        # t'_a + 1/2 d_a log det g^{..} of the candidate connection is
        # identically 0.  Then tf(grad'_a g^{bc}) = 0 iff grad' g = 0: this
        # one linear check is a proof, and with the 1-form a complete
        # witness regardless of the jet truncation.
        ok_lc = cand.solves_metrizability()
        entry["is_levi_civita"] = ok_lc
        entry["equivalence_upsilon"] = [
            str(a + b) for a, b in zip(upsilon, cand.upsilon)]
        if not ok_lc:
            return False
    else:
        lc_defect = sampled_lc_residual(cand, None, samples)
        ok_lc = lc_defect <= tol
        entry["is_levi_civita"] = ok_lc
        entry["levi_civita_defect"] = lc_defect
        if not (ok_lc and float(res) <= tol):
            return False
    entry["constant_curvature"] = flat
    if flat:
        kappa = kappa_at(cand, None, jets.base_point)
        entry["kappa"] = fr_str(kappa) if exact else float(kappa)
    else:
        entry["kappa"] = float(kappa_at(cand, None, samples[0]))
    return True
