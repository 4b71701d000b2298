"""The analysis pipeline: specialize -> curvature decomposition -> jet solve
-> candidate reconstruction -> verification -> verdict.

Functions here build report data and return exit codes; spec parsing,
subcommand dispatch and rendering live in `cli`.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateSigma, NotPolynomial, PoleError
from .exactlinalg import (adjugate, leibniz_det, nullspace, solve_linear_system,
                          symmetric_signature)
from .exactseries import (series_add, series_inverse, series_mul, series_scale,
                          series_to_coeff_dict)
from .metricize import (candidate_from_metric, is_levi_civita, kappa_at,
                        metric_inverse, reconstruct_metric, sampled_lc_residual)
from .mobility import degree_of_mobility, residual
from .projconn import beta_form, decompose_curvature, specialize
from .tensorfield import TensorField
from .tractor import section_dim, sym_pairs

__all__ = ["analyze_connection"]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_NOT_METRIZABLE = 10
EXIT_INDEFINITE_ONLY = 11
EXIT_OBSTRUCTED = 12


def fr_str(v):
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def specialize_or_obstructed(conn, report, beta=None):
    """specialize(conn), or None after marking the report OBSTRUCTED_BY_BETA.

    specialize fails with NotPolynomial when the trace potential leaves the
    supported class.  With a nonzero beta that is the obstruction; with
    beta zero it is an input error and propagates.  `beta` is computed here
    only when the caller has not already done so, and specialize reuses it.
    """
    if beta is None:
        beta = beta_form(conn)
    try:
        return specialize(conn, beta=beta)
    except NotPolynomial as exc:
        if beta.is_zero():
            raise
        report["verdict"] = "OBSTRUCTED_BY_BETA"
        report["warnings"].append(str(exc))
        return None


def add_gauge_blocks(report, upsilon, f_pot, jets=None):
    """The `special_gauge` block, and the `mobility` block when jets are given."""
    report["special_gauge"] = {
        "upsilon": [str(c) for c in upsilon.components],
        "f": f_pot.describe(),
    }
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

def _primitive_ray(vec):
    """Scale to coprime integers; sign fixed by the sigma block (metrics from
    positive multiples of one solution differ by a constant rescale only)."""
    fr = [Fraction(v) for v in vec]
    den = lcm(*(v.denominator for v in fr))
    ints = [int(v * den) for v in fr]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _candidate_vectors(jets, n):
    """Deterministic initial-value candidates inside the admissible space.

    Basis vectors give the reporting baseline; reference candidates carry
    sigma(p) = identity, first with zero velocity slot and scanned scalar
    slot (the constant-curvature family when the structure is flat), then
    with single offsets along the remaining freedom.
    """
    N = section_dim(n)
    d = jets.dim
    pairs = sym_pairs(n)
    basis = jets.admissible_basis
    cands = []
    seen = set()

    def push(vec):
        if all(v == 0 for v in vec):
            return
        sig_mat = _sigma_matrix(vec, n)
        pos, neg, zero = symmetric_signature(sig_mat)
        if neg > pos:
            vec = [-v for v in vec]
        vec = _primitive_ray(vec)
        key = tuple(vec)
        if key not in seen:
            seen.add(key)
            cands.append(vec)

    for col in basis:
        push(list(col))

    full_rows = [[basis[l][i] for l in range(d)] for i in range(N)]

    def member(vec):
        return solve_linear_system(full_rows, [Fraction(v) for v in vec]) is not None

    # sigma(p) = identity, mu(p) = 0, rho(p) scanned
    ident = [Fraction(1) if i == j else Fraction(0) for i, j in pairs]
    for rho in (0, 1, -1, 2, -2):
        vec = ident + [Fraction(0)] * n + [Fraction(rho)]
        if member(vec):
            push(vec)

    # sigma(p) = identity with the solver's choice of the remaining slots,
    # plus single-direction offsets
    rows = [[basis[l][k] for l in range(d)] for k in range(len(pairs))]
    part = solve_linear_system(rows, ident)
    if part is not None:
        kern = nullspace(rows, d)
        offsets = [[Fraction(0)] * d]
        for kv in kern[:4]:
            for t in (1, -1):
                offsets.append([t * v for v in kv])
        for off in offsets:
            coeffs = [c + o for c, o in zip(part, off)]
            vec = [sum(coeffs[l] * basis[l][i] for l in range(d)) for i in range(N)]
            push(vec)
    return cands


def _sigma_matrix(vec, n):
    mat = [[Fraction(0)] * n for _ in range(n)]
    for k, (i, j) in enumerate(sym_pairs(n)):
        mat[i][j] = Fraction(vec[k])
        mat[j][i] = Fraction(vec[k])
    return mat


def _combine_series(jets, vec):
    """Series of the solution with the given initial values."""
    d = jets.dim
    coords = solve_linear_system(
        [[jets.admissible_basis[l][i] for l in range(d)]
         for i in range(len(vec))], [Fraction(v) for v in vec])
    if coords is None:
        raise ValueError("vector not in the admissible space")
    out = {}
    for l, c in enumerate(coords):
        if c == 0:
            continue
        for mono, coeffs in jets.series[l].items():
            scaled = [c * v for v in coeffs]
            if mono in out:
                out[mono] = [a + b for a, b in zip(out[mono], scaled)]
            else:
                out[mono] = scaled
    return out


# ---------------------------------------------------------------------------
# reconstruction from a solution series
# ---------------------------------------------------------------------------

def _tail_is_zero(series_list, max_order, tail=2):
    """No series in the list has a nonzero coefficient of total order above
    max_order - tail."""
    return not any(v and sum(m) > max_order - tail
                   for ser in series_list for m, v in ser.items())


def _field_from_series(chart, comps, base_point, cutoff, variance=("u", "u")):
    """Symmetric polynomial TensorField from upper-triangle component series
    {(i, j): series}, keeping coefficients up to total order `cutoff`."""
    n = chart.dim
    fields = {}
    for ij, ser in comps.items():
        kept = {m: v for m, v in ser.items() if v and sum(m) <= cutoff}
        fields[ij] = chart.from_coeff_dict(series_to_coeff_dict(kept, base_point))
    return TensorField(chart, variance, [fields[(min(i, j), max(i, j))]
                                         for i in range(n) for j in range(n)])


def _symmetric_entry(comps):
    return lambda i, j: comps[(min(i, j), max(i, j))]


def _reconstruct(special, series, base_point, max_order, samples):
    """Metric candidate from a packed solution series; returns (exact, cand).

    The candidate is exact when sigma, the metric g^{ab} = det(sigma)
    sigma^{ab} or its inverse g_ab has a vanishing tail: coefficients
    through max_order of the series products are exact Taylor coefficients,
    so a vanishing tail certifies a polynomial even when sigma itself does
    not terminate.  Otherwise sigma is truncated and checked by sampling.
    """
    chart = special.chart
    n = chart.dim
    slots = [{m: c[k] for m, c in series.items() if c[k]}
             for k in range(section_dim(n))]
    sig = dict(zip(sym_pairs(n), slots))
    if _tail_is_zero(slots, max_order):
        # sigma itself is polynomial: plain reconstruction
        sigma = _field_from_series(chart, sig, base_point, max_order)
        return True, reconstruct_metric(sigma, special, base_point,
                                        region_samples=samples,
                                        exact_solution=True)
    ring = ({}, lambda a, b: series_mul(a, b, max_order), series_add,
            lambda a: series_scale(a, -1))
    det = leibniz_det(_symmetric_entry(sig), n, *ring)
    g_ser = {ij: series_mul(det, s, max_order) for ij, s in sig.items()}
    sigma = _field_from_series(chart, sig, base_point, max_order - 2)
    if _tail_is_zero(g_ser.values(), max_order):
        # the reconstructed metric itself is polynomial
        g_up = _field_from_series(chart, g_ser, base_point, max_order)
        return True, candidate_from_metric(g_up, special, base_point,
                                           region_samples=samples, sigma=sigma,
                                           exact_solution=True)
    # g_ab as adjugate over determinant; the series inverse of the
    # determinant needs a nonzero constant term
    entry = _symmetric_entry(g_ser)
    det = leibniz_det(entry, n, *ring)
    if det.get((0,) * n):
        adj = adjugate(entry, n, *ring)
        det_inv = series_inverse(det, n, max_order)
        low_ser = {(i, j): series_mul(adj(i, j), det_inv, max_order)
                   for i, j in g_ser}
        if _tail_is_zero(low_ser.values(), max_order):
            # the lower-index metric is polynomial (the usual round-trip
            # case); invert it exactly
            g_down = _field_from_series(chart, low_ser, base_point, max_order,
                                        variance=("d", "d"))
            return True, candidate_from_metric(metric_inverse(g_down), special,
                                               base_point,
                                               region_samples=samples,
                                               sigma=sigma, exact_solution=True)
    return False, reconstruct_metric(sigma, special, base_point,
                                     region_samples=samples,
                                     exact_solution=False)


# ---------------------------------------------------------------------------
# verification and verdict
# ---------------------------------------------------------------------------

def analyze_connection(conn, base_point, options, echo=None):
    """Full pipeline on a parsed connection; returns (report, exit_code)."""
    chart = conn.chart
    n = chart.dim
    report = {"schema": SCHEMA_VERSION, "input": echo or {}, "warnings": []}
    beta = beta_form(conn)
    report["beta_nonzero"] = not beta.is_zero()
    gauge = specialize_or_obstructed(conn, report, beta)
    if gauge is None:
        return report, EXIT_OBSTRUCTED
    special, upsilon, f_pot = gauge
    data = decompose_curvature(special)
    jets = degree_of_mobility(special, base_point, options["max_order"], data)
    add_gauge_blocks(report, upsilon, f_pot, jets)
    if not jets.stabilized:
        report["warnings"].append(
            "jet dimension did not stabilize; the mobility value is an upper bound")

    report["solutions"] = []
    for vec in jets.admissible_basis:
        pos, neg, zero = symmetric_signature(_sigma_matrix(vec, n))
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
    flat = data.weyl.is_zero() and data.cotton_york.is_zero()
    metrics = []
    for vec in _candidate_vectors(jets, n):
        series = _combine_series(jets, vec)
        try:
            exact, cand = _reconstruct(special, series, jets.base_point,
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
            "g_upper": [[str(cand.g_up.get(i, j)) for j in range(n)]
                        for i in range(n)],
            "f": cand.f.describe(),
        }
        entry["verified"] = _verify_candidate(upsilon, cand, series, jets,
                                              samples, tol, flat, entry)
        metrics.append(entry)
    report["metrics"] = metrics

    # every candidate connection is projectively equivalent to the input by
    # construction (specialize checks the one step that is not), so a
    # verified definite candidate is a complete witness
    if any(m.get("verified") and m["definite"] for m in metrics):
        report["verdict"] = "METRIZABLE"
        return report, EXIT_OK
    report["verdict"] = "INDEFINITE_ONLY"
    if not any(m.get("verified") for m in metrics):
        report["warnings"].append(
            "no candidate passed verification; solutions exist but none were "
            "confirmed as metrics")
    return report, EXIT_INDEFINITE_ONLY


def _verify_candidate(upsilon, cand, series, jets, samples, tol, flat,
                      entry):
    """Levi-Civita check of one candidate, then its curvature.

    The candidate connection is the special connection changed by
    cand.upsilon, and the special connection is the input changed by
    `upsilon`, so the two 1-forms add up to the one relating the input to
    the candidate.  Constant curvature is the input's projective flatness
    (`flat`).  On a flat input kappa is exact at the base point, where even
    a truncated series has an exact 2-jet; otherwise it is the value at the
    first sample point.
    """
    res = residual(jets, series, samples)
    entry["closure_residual"] = fr_str(res) if res == 0 else float(res)
    if cand.exact_solution:
        # a structurally verified metric plus its 1-form is a complete
        # metrizability witness regardless of the jet truncation
        ok_lc, _ = is_levi_civita(cand.connection, cand.g_up)
        entry["is_levi_civita"] = ok_lc
        entry["equivalence_upsilon"] = [
            str(c) for c in (upsilon + cand.upsilon).components]
        if not ok_lc:
            return False
    else:
        lc_defect = sampled_lc_residual(cand.connection, cand.g_up, samples)
        ok_lc = lc_defect <= tol
        entry["is_levi_civita"] = ok_lc
        entry["levi_civita_defect"] = lc_defect
        if not (ok_lc and float(res) <= tol):
            return False
    entry["constant_curvature"] = flat
    if flat:
        kappa = kappa_at(cand.connection, cand.g_up, jets.base_point)
        entry["kappa"] = fr_str(kappa) if cand.exact_solution else float(kappa)
    else:
        entry["kappa"] = (float(kappa_at(cand.connection, cand.g_up, samples[0]))
                          if samples else None)
    return True
