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
