"""Command line: parse a connection spec, dispatch a subcommand, render the
report.

The analysis itself lives in `pipeline`.  Reports are deterministic JSON
(schema 2) with exact rational strings wherever the computation stayed
exact.

Exit codes: 0 METRIZABLE, 10 NOT_METRIZABLE_AT_ORDER, 11 INDEFINITE_ONLY,
2 input errors.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import DegreeAboveCap, NotEquivalent, ParseError, ProjmetError
# bound here so the benchmark tracer's self-check can find it under
# `projmet.cli` (perfbench/selfcheck.py)
from .exactlinalg import nullspace  # noqa: F401
from .exprcore import Chart
from .metricize import geodesic_compare, projective_equivalence
from .pipeline import (EXIT_INDEFINITE_ONLY, EXIT_NOT_METRIZABLE,  # noqa: F401
                       EXIT_OK, SCHEMA_VERSION, add_gauge_blocks,
                       analyze_connection, fr_str, run_to_jets)
from .projconn import (AffineConnection, beta_form, decompose_curvature,
                       specialize)

__all__ = ["run_analysis", "main"]

EXIT_INPUT = 2


# ---------------------------------------------------------------------------
# spec loading
# ---------------------------------------------------------------------------

def load_spec(path):
    """Parse a connection spec file into (connection, base_point, options, echo)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    return parse_spec(doc)


def parse_spec(doc):
    if not isinstance(doc, dict):
        raise ParseError("spec must be a JSON object")
    n = doc.get("dimension")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("spec needs an integer 'dimension'")
    if not 2 <= n <= 6:
        raise ParseError(f"dimension must be between 2 and 6, got {n}")
    chart = Chart(n)
    names = doc.get("variables") or [f"x{i}" for i in range(1, n + 1)]
    # names[k - 1] names coordinate k, so each must read as one name token
    if not (isinstance(names, list) and len(names) == n
            and all(isinstance(v, str) and v.isidentifier() for v in names)
            and len(set(names)) == n):
        raise ParseError(f"'variables' must list {n} distinct identifiers")
    christoffel = doc.get("christoffel") or {}
    if not isinstance(christoffel, dict):
        raise ParseError("'christoffel' must map 'c,a,b' keys to expressions")

    entries = {}
    for key, text in christoffel.items():
        parts = key.split(",")
        if len(parts) != 3:
            raise ParseError(f"christoffel key {key!r} is not 'c,a,b'")
        try:
            c, a, b = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"christoffel key {key!r} has non-integer indices")
        for idx in (c, a, b):
            if not 1 <= idx <= n:
                raise ParseError(f"index {idx} out of range in key {key!r}")
        try:
            expr = chart.parse(str(text), MAX_DEGREE, names)
        except DegreeAboveCap as exc:
            raise ParseError(f'christoffel "{key}" has total degree '
                             f"{exc.degree}, above the cap of {MAX_DEGREE}"
                             ) from None
        prev = entries.get((c, min(a, b), max(a, b)))
        if prev is not None and prev != expr:
            raise ParseError(f"conflicting symmetric entries for {key!r}")
        entries[(c, min(a, b), max(a, b))] = expr
    conn = AffineConnection.from_components(chart, entries)

    base = doc.get("base_point") or ["0"] * n
    if not isinstance(base, list) or len(base) != n:
        raise ParseError(f"base_point must have {n} coordinates")
    try:
        base_point = [Fraction(str(v)) for v in base]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad base_point {base!r}")

    opts = doc.get("options") or {}
    try:
        options = {
            "max_order": int(opts.get("max_order", 2 * n + 4)),
            "samples": int(opts.get("samples", 5)),
            "tolerance": float(opts.get("tolerance", 1e-8)),
        }
    except (AttributeError, TypeError, ValueError, OverflowError):
        raise ParseError(f"bad options {opts!r}")
    echo = {
        "dimension": n,
        "variables": list(names),
        "christoffel": {k: v.to_str(names) for k, v in sorted(
            (f"{c},{a},{b}", e) for (c, a, b), e in entries.items())},
        "base_point": [fr_str(v) for v in base_point],
        "options": options,
    }
    return conn, base_point, options, echo


MAX_ORDER = 64
# Largest total degree of a Christoffel numerator or denominator, and of
# each power, product and quotient as the entry writes it (checked by the
# parser before it expands one): the jet solve is sized by it, and the
# pinned inputs use at most 5.
MAX_DEGREE = 32


def _check_order(options):
    """An order below 2 or above MAX_ORDER is an input error: the jet solve
    needs order 2, and its work grows with the monomials up to max_order."""
    if options["max_order"] < 2:
        raise ParseError(
            f"max_order must be at least 2, got {options['max_order']}")
    if options["max_order"] > MAX_ORDER:
        raise ParseError(f"max_order must be at most {MAX_ORDER}, "
                         f"got {options['max_order']}")


def _load_checked(spec_path, options_override):
    """load_spec, with the options the command line sets (None: unset)
    merged in and the order checked."""
    conn, base_point, options, echo = load_spec(spec_path)
    options.update({k: v for k, v in (options_override or {}).items()
                    if v is not None})
    _check_order(options)
    return conn, base_point, options, echo


def run_analysis(spec_path, options_override=None, report_path=None):
    """Spec file in, report dict and exit code out; optionally writes JSON."""
    conn, base_point, options, echo = _load_checked(spec_path, options_override)
    report, code = analyze_connection(conn, base_point, options, echo)
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(render_report(report))
    return report, code


def render_report(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write(report, report_path):
    """Render once; write to `report_path` (if given), then to stdout."""
    text = render_report(report)
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args):
    override = {"max_order": args.max_order, "samples": args.samples,
                "tolerance": args.tol}
    report, code = run_analysis(args.spec, override)
    _write(report, args.report)
    return code


def _cmd_mobility(args):
    conn, base_point, options, echo = _load_checked(
        args.spec, {"max_order": args.max_order})
    report = {"schema": SCHEMA_VERSION, "input": echo, "warnings": []}
    run_to_jets(conn, base_point, options["max_order"], report)
    _write(report, args.report)
    return EXIT_OK


def _cmd_curvature(args):
    conn, base_point, options, echo = load_spec(args.spec)
    n = conn.chart.dim
    beta = beta_form(conn)
    report = {"schema": SCHEMA_VERSION, "input": echo, "warnings": []}
    report["beta"] = [[str(beta.get(a, b)) for b in range(n)]
                      for a in range(n)]
    special, upsilon = specialize(conn)
    data = decompose_curvature(special)
    add_gauge_blocks(report, upsilon)
    report["weyl"] = {
        f"{a + 1},{b + 1},{c + 1},{d + 1}": str(data.weyl.get(a, b, c, d))
        for a in range(n) for b in range(n) for c in range(n) for d in range(n)
        if not data.weyl.get(a, b, c, d).is_zero()}
    report["schouten"] = [[str(data.schouten.get(a, b)) for b in range(n)]
                          for a in range(n)]
    report["cotton_york"] = {
        f"{a + 1},{b + 1},{c + 1}": str(data.cotton_york.get(a, b, c))
        for a in range(n) for b in range(n) for c in range(n)
        if not data.cotton_york.get(a, b, c).is_zero()}
    _write(report, args.report)
    return EXIT_OK


def _cmd_compare(args):
    conn1, base1, options, echo1 = load_spec(args.spec_a)
    conn2, base2, _, echo2 = load_spec(args.spec_b)
    if conn1.chart.dim != conn2.chart.dim:
        raise ParseError("specs have different dimensions")
    n = conn1.chart.dim
    report = {"schema": SCHEMA_VERSION, "input_a": echo1, "input_b": echo2,
              "warnings": []}
    try:
        ups = projective_equivalence(conn1, conn2)
        report["equivalent"] = True
        report["upsilon"] = [str(c) for c in ups]
    except NotEquivalent as exc:
        report["equivalent"] = False
        report["reason"] = str(exc)
    # short directions keep trajectories close to the base point and away
    # from poles of rational connections; the transverse defect is scale
    # invariant, so nothing is lost
    seeds = [([float(base1[j]) + 0.03 * ((i + j) % 3 - 1) for j in range(n)],
              [0.25 if j == i % n else 0.0625 * ((i + j) % 2)
               for j in range(n)])
             for i in range(4)]
    defect, _ = geodesic_compare(conn1, conn2, seeds)
    report["geodesic_defect"] = defect
    _write(report, args.report)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="projmet",
        description="Decide metrizability of the projective class of an "
                    "affine connection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on one spec")
    p.add_argument("spec")
    p.add_argument("--max-order", dest="max_order", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("mobility", help="stop after the jet solve")
    p.add_argument("spec")
    p.add_argument("--max-order", dest="max_order", type=int, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_mobility)

    p = sub.add_parser("curvature", help="emit W, P, Y and beta")
    p.add_argument("spec")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_curvature)

    p = sub.add_parser("compare", help="projective comparison of two specs")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except FileNotFoundError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except ProjmetError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
