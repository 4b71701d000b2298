"""Random specs through the command line: every input ends in a documented
exit code, never a traceback.

Specs of dimension 2 or 3 with random identifier names (or none) and
Christoffel entries that are either valid expressions in those names, of
total degree at most 8, or garbage built from the same tokens, go through
`main(["curvature", spec])` and `main(["mobility", spec, "--max-order",
"3"])`.  Each run must exit 0 or 2 and print valid JSON or nothing, and
the `input` echo of a run that exits 0 must parse back, under its own
`variables`, to the same connection.  `analyze` is left out: its
truncated candidates end in the D1 crash (test_defects.py).
"""

import contextlib
import io
import json
import string
import time

from hypothesis import given, settings, strategies as st

from projmet.cli import main, parse_spec

NAME = st.one_of(
    st.builds(lambda head, tail: head + tail,
              st.sampled_from(string.ascii_letters + "_"),
              st.text(string.ascii_letters + string.digits + "_",
                      max_size=3)),
    st.sampled_from(["\u00e9", "\u2118", "a\u0301", "\u00df_2"]))


@st.composite
def expressions(draw, names, budget=8, depth=3):
    """(text, s) with s a bound on the total degrees of the numerator and
    the denominator added, s <= budget: a sum, product or quotient adds
    the bounds of its operands, a power k multiplies by |k|."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if draw(st.booleans()):
            return draw(st.sampled_from(names)), 1
        return str(draw(st.integers(0, 12))), 0
    left, s = draw(expressions(names, budget, depth - 1))
    op = draw(st.sampled_from("+-*/^"))
    if op == "^":
        k = draw(st.integers(-3, 3))
        if abs(k) * s > budget:
            return left, s
        return f"({left})^{k}", abs(k) * s
    right, t = draw(expressions(names, budget - s, depth - 1))
    if s + t > budget:
        return left, s
    return f"({left}) {op} ({right})", s + t


GARBAGE_TOKENS = ["x1", "x2", "x4", "u", "v", "q", "0", "7", "+", "-", "*",
                  "/", "^", "(", ")", " ", "$", ".", "1/0", "^-1",
                  "\u00b2", "\u0661", "\u0301"]


@st.composite
def specs(draw):
    n = draw(st.integers(2, 3))
    names = draw(st.one_of(st.none(), st.lists(NAME, min_size=n, max_size=n,
                                               unique=True)))
    usable = names or [f"x{i}" for i in range(1, n + 1)]
    keys = draw(st.lists(st.tuples(*[st.integers(1, n)] * 3).map(
        lambda t: ",".join(map(str, t))), min_size=1, max_size=3,
        unique=True))
    christoffel = {}
    for key in keys:
        if draw(st.integers(0, 4)) == 0:
            christoffel[key] = "".join(draw(st.lists(
                st.sampled_from(GARBAGE_TOKENS + usable), max_size=8)))
        else:
            christoffel[key] = draw(expressions(usable))[0]
    doc = {"dimension": n, "christoffel": christoffel}
    if names is not None:
        doc["variables"] = names
    return doc


def test_random_specs_exit_with_documented_codes(tmp_path_factory):
    start = time.perf_counter()
    spec_dir = tmp_path_factory.mktemp("specs")

    @settings(max_examples=120, derandomize=True, database=None,
              deadline=None)
    @given(specs())
    def run(doc):
        path = spec_dir / "spec.json"
        path.write_text(json.dumps(doc))
        for argv in (["curvature", str(path)],
                     ["mobility", str(path), "--max-order", "3"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2), (argv[0], doc, code, err.getvalue())
            if out.getvalue():
                report = json.loads(out.getvalue())
                if code == 0:
                    echoed = parse_spec(report["input"])[0]
                    assert echoed == parse_spec(doc)[0], (doc, report["input"])
            else:
                assert code == 2 and err.getvalue()

    run()
    assert time.perf_counter() - start < 10
