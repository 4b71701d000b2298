"""The benchmark's tracer (perfbench/spantrace.py) wraps projmet functions
by module and name from outside.  A rename or merge that breaks a traced
benchmark run fails here first."""

import importlib.util
import json
import sys
from pathlib import Path

import projmet.cli as cli

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def _load_spantrace():
    spec = importlib.util.spec_from_file_location("_spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_functions(spantrace):
    return [(layer, getattr(sys.modules[modname], fname))
            for layer, (modname, fnames) in spantrace.SPAN_LAYERS.items()
            for fname in fnames]


def test_tracer_install_records_spans_and_uninstall_restores(tmp_path):
    spantrace = _load_spantrace()
    spec = tmp_path / "flat.json"
    spec.write_text(json.dumps({"dimension": 2}))
    before = _traced_functions(spantrace)
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        for layer, fn in _traced_functions(spantrace):
            assert hasattr(fn, "__wrapped__"), layer
        # called through the module, as perfbench/run.py does
        assert cli.main(["mobility", str(spec), "--max-order", "3"]) == 0
    finally:
        tracer.uninstall()
    assert _traced_functions(spantrace) == before
    recorded = {span[0] for span in tracer.spans}
    assert {"cli", "cli.parse_spec", "cli.render_report",
            "projconn.specialize", "mobility.degree_of_mobility"} <= recorded
    # the jet solve reads the cleared system, not the cancelled matrices
    assert "tractor.connection_matrices" not in recorded


def test_traced_truncated_analysis_records_the_series_kernel():
    """The series products, inverses and expansions of a truncated
    candidate go through the traced names; a private helper in their place
    would silently move their time into the caller's self time."""
    spantrace = _load_spantrace()
    spec = Path(__file__).parent / "data" / "liouville_d1_d2.json"
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        report, _ = cli.run_analysis(str(spec), {"max_order": 3})
    finally:
        tracer.uninstall()
    assert any(m.get("exact") is False for m in report["metrics"])
    spans = tracer.spans
    # (name, name of the traced caller) for every span
    called = {(name, spans[parent][0] if parent >= 0 else None)
              for name, _, _, parent, _ in spans}
    assert ("exactseries.rational_to_series",
            "mobility.degree_of_mobility") in called
    # the reconstruction's own products and inverse, not only those inside
    # rational_to_series
    for name in ("exactseries.series_mul", "exactseries.series_inverse"):
        assert any(callee == name
                   and caller != "exactseries.rational_to_series"
                   for callee, caller in called), name
