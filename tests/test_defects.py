"""Regression tests for the known defects D1-D3 and D5 (ROADMAP), written
before their fixes.

Each test states the correct behaviour and is a strict xfail: it fails
today for the reason its marker names, and the fix of its defect makes it
pass, which then fails the suite until the marker is removed.  Each runs at
the smallest jet order that shows its defect.

The D1-D3 specs are Levi-Civita connections, so the correct verdict is
METRIZABLE:
- liouville_d1_d2.json: g = (2 + x1 + 2 x2) [[1,3],[3,10]];
- liouville_d3.json: g = (2 + (x1 + 3 x2)^2 - x2^3) [[1,3],[3,10]].

D5 uses the stored non-metrizable witness (README), whose admissible space
dies by order 6, so it has no solution at all and INDEFINITE_ONLY ("solutions
exist, none positive definite") is never its correct verdict.
"""

import json
from pathlib import Path

import pytest

from projmet.cli import (EXIT_INDEFINITE_ONLY, EXIT_INPUT, EXIT_NOT_METRIZABLE,
                         EXIT_OK, main, run_analysis)

DATA = Path(__file__).parent / "data"
D1_D2 = str(DATA / "liouville_d1_d2.json")
D3 = str(DATA / "liouville_d3.json")
WITNESS = {"dimension": 2, "christoffel": {"1,2,2": "x1^2", "2,1,1": "x2"}}
# a closed trace whose potential 3 arctan(x1) has no closed form
ARCTAN_TRACE = {"dimension": 2, "christoffel": {"1,1,1": "3/(1 + x1^2)"}}
DOCUMENTED_EXITS = (EXIT_OK, EXIT_NOT_METRIZABLE, EXIT_INDEFINITE_ONLY,
                    EXIT_INPUT)


def _arctan_trace_spec(tmp_path):
    spec = tmp_path / "arctan.json"
    spec.write_text(json.dumps(ARCTAN_TRACE))
    return str(spec)


@pytest.mark.xfail(strict=True, raises=TypeError,
                   reason="D1: a truncated candidate stores numpy.bool_ in "
                          "the report, which json cannot serialize")
@pytest.mark.parametrize("spec", [lambda _: D1_D2, _arctan_trace_spec],
                         ids=["liouville", "arctan-trace"])
def test_d1_analyze_prints_json_with_a_documented_exit_code(capsys, tmp_path,
                                                            spec):
    # order 2 already gives truncated candidates
    code = main(["analyze", spec(tmp_path), "--max-order", "2"])
    assert code in DOCUMENTED_EXITS
    json.loads(capsys.readouterr().out)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="D2: definite candidates miss the fixed sampled "
                          "tolerance on truncation error alone")
def test_d2_liouville_metric_is_metrizable():
    # order 3 is the first at which the admissible dimension reaches its
    # final value 4; two of the candidates are definite
    report, code = run_analysis(D1_D2, {"max_order": 3})
    assert any(m.get("definite") for m in report["metrics"])
    assert report["verdict"] == "METRIZABLE"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="D3: the candidate search finds no definite sigma "
                          "in the span")
def test_d3_liouville_metric_is_metrizable():
    # order 4 is the first at which the admissible dimension reaches its
    # final value 2
    report, code = run_analysis(D3, {"max_order": 4})
    assert report["mobility"]["dimension"] == 2
    assert report["verdict"] == "METRIZABLE"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="D5: INDEFINITE_ONLY is read off the jet space, an "
                          "upper bound, with no proven solution")
def test_d5_witness_without_solutions_is_not_indefinite_only(tmp_path):
    # order 5 leaves dims [6, 6, 5, 3, 2, 1]; order 6 gives
    # NOT_METRIZABLE_AT_ORDER(6)
    spec = tmp_path / "witness.json"
    spec.write_text(json.dumps(WITNESS))
    report, code = run_analysis(str(spec), {"max_order": 5})
    assert report["verdict"] != "INDEFINITE_ONLY"
