"""Regression tests for the known defects D1-D3 (ROADMAP), written before
their fixes.

Each test states the correct behaviour and is a strict xfail: it fails
today for the reason its marker names, and the fix of its defect makes it
pass, which then fails the suite until the marker is removed.  Each runs at
the smallest jet order that shows its defect.

The specs are Levi-Civita connections, so the correct verdict is
METRIZABLE:
- liouville_d1_d2.json: g = (2 + x1 + 2 x2) [[1,3],[3,10]];
- liouville_d3.json: g = (2 + (x1 + 3 x2)^2 - x2^3) [[1,3],[3,10]].
"""

import json
from pathlib import Path

import pytest

from projmet.cli import (EXIT_INDEFINITE_ONLY, EXIT_INPUT, EXIT_NOT_METRIZABLE,
                         EXIT_OBSTRUCTED, EXIT_OK, main, run_analysis)

DATA = Path(__file__).parent / "data"
D1_D2 = str(DATA / "liouville_d1_d2.json")
D3 = str(DATA / "liouville_d3.json")
DOCUMENTED_EXITS = (EXIT_OK, EXIT_NOT_METRIZABLE, EXIT_INDEFINITE_ONLY,
                    EXIT_OBSTRUCTED, EXIT_INPUT)


@pytest.mark.xfail(strict=True, raises=TypeError,
                   reason="D1: a truncated candidate stores numpy.bool_ in "
                          "the report, which json cannot serialize")
def test_d1_analyze_prints_json_with_a_documented_exit_code(capsys):
    # order 2 already gives truncated candidates
    code = main(["analyze", D1_D2, "--max-order", "2"])
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
