"""Report strings: `RationalExpr.__str__` writes sympy's format straight
from the integer terms of the numerator and the denominator.

sympy's `StrPrinter` is the oracle here and on no runtime path: the
property test compares the two on random fractions, the guard test runs
the subcommands with the printer disabled, and the truncated-input test
checks every string the analysis of the `analyze-truncated` benchmark
inputs renders.
"""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
import sympy.printing.str
from hypothesis import example, given, settings, strategies as st

from projmet.cli import load_spec, main
from projmet.exprcore import Chart, RationalExpr
from projmet.metricize import levi_civita
from projmet.models import klein_connection, sphere_stereographic_connection
from projmet.pipeline import analyze_connection

from conftest import rand_metric, sympy_frac

DATA = Path(__file__).parent / "data"


def sympy_str(e):
    return str(sympy_frac(e)).replace("**", "^")


# ---------------------------------------------------------------------------
# random fractions in Z[x1..x5]
# ---------------------------------------------------------------------------

COEFFS = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9),
                   st.integers(-10 ** 40, 10 ** 40)).filter(bool)


@st.composite
def fraction_terms(draw):
    """(n, numerator terms, denominator terms) as {exponents: int}: the
    denominator is a constant, a bare variable (possibly scaled), a single
    term or a general polynomial; the numerator may be zero."""
    n = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    num = draw(st.dictionaries(exps, COEFFS, max_size=4))
    kind = draw(st.sampled_from(["constant", "variable", "term", "poly"]))
    if kind == "constant":
        den = {(0,) * n: draw(COEFFS)}
    elif kind == "variable":
        k = draw(st.integers(0, n - 1))
        den = {tuple(int(i == k) for i in range(n)): draw(COEFFS)}
    elif kind == "term":
        den = {draw(exps): draw(COEFFS)}
    else:
        den = draw(st.dictionaries(exps, COEFFS, min_size=1, max_size=4))
    return n, num, den


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(fraction_terms())
@example((1, {}, {(0,): 1}))                          # zero
@example((2, {(0, 0): -7}, {(0, 0): 3}))              # a constant
@example((3, {(0, 1, 0): 1}, {(0, 0, 0): 1}))         # a bare variable
@example((2, {(1, 0): -1, (0, 0): 1}, {(0, 1): 1}))   # over a bare variable
@example((2, {(1, 1): 1}, {(0, 2): 1}))               # over a single term
@example((2, {(2, 0): -1, (0, 1): -1}, {(1, 0): 2, (0, 0): 1}))
@example((1, {(0,): 10 ** 40}, {(1,): 3, (0,): -1}))  # a large integer
def test_str_is_sympys_format_and_parses_back(terms):
    n, num, den = terms
    chart = Chart(n)
    e = chart.from_coeff_dict(num) / chart.from_coeff_dict(den)
    text = str(e)
    assert text == sympy_str(e)
    assert chart.parse(text) == e


# ---------------------------------------------------------------------------
# the subcommands with sympy's printer disabled
# ---------------------------------------------------------------------------

def _spec_of(conn):
    n = conn.dim
    return {"dimension": n, "christoffel": {
        f"{c + 1},{a + 1},{b + 1}": str(conn.gamma[c][a][b])
        for c, a, b in product(range(n), repeat=3)
        if a <= b and conn.gamma[c][a][b]}}


def test_subcommands_never_call_sympys_printer(tmp_path, capsys, monkeypatch):
    """`analyze` (Klein n=2 and a round trip), `mobility` and `curvature`
    print the same stdout, with the same exit code, when
    `StrPrinter.doprint` raises."""
    specs = []
    for name, conn in [("klein2", klein_connection(2)),
                       ("roundtrip2", levi_civita(
                           rand_metric(2, random.Random(7))))]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_spec_of(conn)))
        specs.append(str(path))
    runs = [["analyze", specs[0]], ["analyze", specs[1], "--max-order", "6"],
            ["mobility", specs[0]], ["curvature", specs[1]]]

    def outputs():
        out = []
        for argv in runs:
            code = main(argv)
            out.append((code, capsys.readouterr()))
        return out

    before = outputs()

    def refuse(self, expr):
        raise AssertionError("sympy's StrPrinter was called")

    monkeypatch.setattr(sympy.printing.str.StrPrinter, "doprint", refuse)
    with pytest.raises(AssertionError):
        str(sympy_frac(Chart(2).var(1)))
    assert outputs() == before
    assert [code for code, _ in before] == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# the analyze-truncated inputs
# ---------------------------------------------------------------------------

TRUNCATED = {
    "stereo2-o10": (lambda: sphere_stereographic_connection(2), 10),
    "liouville-d2-o8": (lambda: load_spec(str(DATA / "liouville_d1_d2.json"))[0], 8),
    "liouville-d3-o8": (lambda: load_spec(str(DATA / "liouville_d3.json"))[0], 8),
}


@pytest.mark.parametrize("name", sorted(TRUNCATED))
def test_truncated_report_strings_are_sympys(name, monkeypatch):
    """`analyze_connection` returns its report before `render_report`
    meets defect D1, so its strings are read from there.  Every string a
    `RationalExpr` renders during the analysis equals sympy's rendering of
    the same object, and every `g_upper` and `equivalence_upsilon` entry
    and every log base of an `f` is one of them; each `g_upper` entry also
    parses back to the fraction it names."""
    rendered = {}
    original = RationalExpr.__str__

    def recording(self):
        text = original(self)
        rendered[text] = sympy_str(self)
        return text

    monkeypatch.setattr(RationalExpr, "__str__", recording)
    build, order = TRUNCATED[name]
    conn = build()
    n = conn.dim
    report, _ = analyze_connection(conn, [Fraction(0)] * n, {
        "max_order": order, "samples": 5, "tolerance": 1e-8})
    assert rendered and all(ours == theirs for ours, theirs in rendered.items())
    metrics = [m for m in report["metrics"] if "skipped" not in m]
    assert metrics and any(m["exact"] is False for m in metrics)
    chart = Chart(n)
    for m in metrics:
        for row in m["g_upper"]:
            for text in row:
                assert text in rendered
                assert sympy_str(chart.parse(text)) == text
        for text in m.get("equivalence_upsilon", []):
            assert text in rendered
        bases = _log_bases(m["f"])
        assert bases and all(text in rendered for text in bases)


def _log_bases(text):
    """The arguments of the `log(...)` terms of a potential's description."""
    bases = []
    start = text.find("log(")
    while start >= 0:
        end, depth = start + 4, 1
        while depth:
            depth += {"(": 1, ")": -1}.get(text[end], 0)
            end += 1
        bases.append(text[start + 4:end - 1])
        start = text.find("log(", end)
    return bases
