"""Spec parsing, the pipeline driver, subcommands and exit codes."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from projmet.cli import (EXIT_INPUT, EXIT_NOT_METRIZABLE, EXIT_OK, main,
                         parse_spec, render_report, run_analysis)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


DATA = Path(__file__).parent / "data"
FLAT2 = {"dimension": 2}
KLEIN2 = {"dimension": 2, "christoffel": {
    "1,1,1": "2*x1/(1 - x1^2 - x2^2)",
    "1,1,2": "x2/(1 - x1^2 - x2^2)",
    "2,2,2": "2*x2/(1 - x1^2 - x2^2)",
    "2,1,2": "x1/(1 - x1^2 - x2^2)"}}
WITNESS = {"dimension": 2,
           "christoffel": {"1,2,2": "x1^2", "2,1,1": "x2"},
           "options": {"max_order": 8}}


def test_parse_spec_defaults():
    conn, base, options, echo = parse_spec(FLAT2)
    assert conn.dim == 2
    assert base == [0, 0]
    assert options["max_order"] == 8
    assert echo["variables"] == ["x1", "x2"]


def test_parse_spec_custom_variables():
    doc = {"dimension": 2, "variables": ["u", "v"],
           "christoffel": {"1,2,2": "u^2 + v"}}
    conn, _, _, _ = parse_spec(doc)
    chart = conn.chart
    assert conn.gamma[0][1][1] == chart.parse("x1^2 + x2")


def test_parse_spec_symmetry_and_errors():
    from projmet import ParseError
    doc = {"dimension": 2, "christoffel": {"1,1,2": "x1", "1,2,1": "x1"}}
    conn, _, _, _ = parse_spec(doc)
    assert conn.gamma[0][0][1] == conn.gamma[0][1][0]
    with pytest.raises(ParseError):
        parse_spec({"dimension": 2,
                    "christoffel": {"1,1,2": "x1", "1,2,1": "x2"}})
    with pytest.raises(ParseError):
        parse_spec({"dimension": 1})
    with pytest.raises(ParseError):
        parse_spec({"dimension": 2, "christoffel": {"3,1,1": "x1"}})
    with pytest.raises(ParseError):
        parse_spec({"dimension": 2, "base_point": ["0"]})


def test_flat_analysis(tmp_path):
    spec = _write(tmp_path, "flat.json", FLAT2)
    report, code = run_analysis(spec)
    assert code == EXIT_OK
    assert report["verdict"] == "METRIZABLE"
    assert report["mobility"]["dimension"] == 6
    assert report["mobility"]["stabilized"]
    assert not report["beta_nonzero"]
    assert len(report["solutions"]) == 6


def test_klein_analysis(tmp_path):
    spec = _write(tmp_path, "klein.json", KLEIN2)
    report, code = run_analysis(spec)
    assert code == EXIT_OK
    assert report["verdict"] == "METRIZABLE"
    assert report["mobility"]["dimension"] == 6
    hits = [m for m in report["metrics"]
            if m.get("verified") and m.get("kappa") == "-1"]
    assert hits
    # the report carries a re-runnable witness: metric plus recovered 1-form
    assert all("equivalence_upsilon" in m for m in hits)


def test_analyze_builds_connection_matrices_once(tmp_path, monkeypatch):
    """Every candidate's closure residual reuses the matrices of the jet
    solve, on the exact path (Klein) and the truncated-series path (the
    D1/D2 Liouville input at a low order)."""
    import projmet.mobility as mobility

    calls = []
    build = mobility.connection_matrices

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(mobility, "connection_matrices", counted)
    report, _ = run_analysis(_write(tmp_path, "klein.json", KLEIN2))
    assert len([m for m in report["metrics"] if "verified" in m]) > 1
    assert len(calls) == 1

    calls.clear()
    report, _ = run_analysis(str(DATA / "liouville_d1_d2.json"),
                             {"max_order": 3})
    assert any(m.get("exact") is False for m in report["metrics"])
    assert len(calls) == 1


def test_witness_analysis(tmp_path):
    spec = _write(tmp_path, "w.json", WITNESS)
    report, code = run_analysis(spec)
    assert code == EXIT_NOT_METRIZABLE
    assert report["verdict"] == "NOT_METRIZABLE_AT_ORDER(8)"
    assert report["mobility"]["dimension"] == 0
    assert report["mobility"]["stabilized"]


def test_report_determinism(tmp_path):
    spec = _write(tmp_path, "flat.json", FLAT2)
    r1, _ = run_analysis(spec)
    r2, _ = run_analysis(spec)
    assert render_report(r1) == render_report(r2)


def test_report_written(tmp_path):
    spec = _write(tmp_path, "flat.json", FLAT2)
    out = tmp_path / "report.json"
    report, _ = run_analysis(spec, report_path=str(out))
    assert json.loads(out.read_text())["schema"] == 1


def test_main_analyze_exit_codes(tmp_path, capsys):
    spec = _write(tmp_path, "flat.json", FLAT2)
    assert main(["analyze", spec]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "METRIZABLE"

    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "christoffel": {"1,1,1": "x1 +* x2"}}')
    assert main(["analyze", str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 1" in err and "column 5" in err

    assert main(["analyze", str(tmp_path / "missing.json")]) == EXIT_INPUT
    capsys.readouterr()


def test_main_option_overrides(tmp_path, capsys):
    spec = _write(tmp_path, "w.json", dict(WITNESS, options={}))
    assert main(["analyze", spec, "--max-order", "8"]) == EXIT_NOT_METRIZABLE
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "NOT_METRIZABLE_AT_ORDER(8)"


def test_mobility_subcommand(tmp_path, capsys):
    spec = _write(tmp_path, "flat.json", FLAT2)
    assert main(["mobility", spec]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["mobility"]["dimension"] == 6
    assert "metrics" not in data


def test_curvature_subcommand(tmp_path, capsys):
    spec = _write(tmp_path, "w.json", WITNESS)
    assert main(["curvature", spec]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["weyl"] == {}  # dimension two
    assert any(v != "0" for v in data["cotton_york"].values())
    n = 2
    assert data["schouten"][1][0] == data["schouten"][0][1]


def test_compare_subcommand(tmp_path, capsys):
    a = _write(tmp_path, "flat.json", FLAT2)
    b = _write(tmp_path, "klein.json", KLEIN2)
    assert main(["compare", a, b]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["equivalent"] is True
    assert data["upsilon"][0] == "-x1/(x1^2 + x2^2 - 1)"
    assert data["geodesic_defect"] < 1e-8

    stereo = {"dimension": 2, "christoffel": {
        "1,1,1": "-4*x1/(1 + x1^2 + x2^2)",
        "1,1,2": "-2*x2/(1 + x1^2 + x2^2)",
        "1,2,2": "2*x1/(1 + x1^2 + x2^2)",
        "2,1,1": "2*x2/(1 + x1^2 + x2^2)",
        "2,2,2": "-4*x2/(1 + x1^2 + x2^2)",
        "2,1,2": "-2*x1/(1 + x1^2 + x2^2)"}}
    c = _write(tmp_path, "stereo.json", stereo)
    assert main(["compare", a, c]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["equivalent"] is False
    assert data["geodesic_defect"] > 1e-3


def test_nonsymmetric_ricci_polynomial_beta_is_recovered(tmp_path):
    """Polynomial beta obstruction is removable by the homotopy stage: a
    flat connection pushed out of the symmetric-Ricci gauge still comes
    back METRIZABLE with full mobility."""
    # the flat connection changed by the non-closed 1-form (x2^2, x1 x2)
    doc = {"dimension": 2, "christoffel": {
        "1,1,1": "2*x2^2", "1,1,2": "x1*x2",
        "2,1,2": "x2^2", "2,2,2": "2*x1*x2"}}
    conn, base, options, echo = parse_spec(doc)
    from projmet import beta_form
    assert not beta_form(conn).is_zero()
    from projmet.cli import analyze_connection
    report, code = analyze_connection(conn, base, options, echo)
    assert code == EXIT_OK
    assert report["verdict"] == "METRIZABLE"
    assert report["beta_nonzero"] is True
    assert report["mobility"]["dimension"] == 6


def test_unstabilized_order_adds_warning(tmp_path):
    spec = _write(tmp_path, "w.json", dict(WITNESS, options={"max_order": 3}))
    report, code = run_analysis(spec)
    assert not report["mobility"]["stabilized"]
    assert any("stabilize" in w for w in report["warnings"])


def test_pole_at_base_point_is_an_input_error(tmp_path, capsys):
    doc = {"dimension": 2,
           "christoffel": {"1,2,2": "x1^2/(1 - x1)"},
           "base_point": ["1", "0"]}
    spec = _write(tmp_path, "pole.json", doc)
    assert main(["analyze", spec]) == EXIT_INPUT
    assert "PoleAtBasePoint" in capsys.readouterr().err


def test_indefinite_only(tmp_path):
    """A Lorentzian input: the solution ray is indefinite, so the class
    contains a pseudo-metric connection but no Riemannian one."""
    from projmet import Chart, TensorField
    from projmet.cli import EXIT_INDEFINITE_ONLY, analyze_connection
    from projmet.metricize import levi_civita

    ch = Chart(2)
    x1, x2 = ch.vars
    g = TensorField(ch, ("d", "d"),
                    [1 + x1 * x2 / 4, ch.zero, ch.zero, -(1 + x1 * x1 / 8)])
    conn = levi_civita(g)
    report, code = analyze_connection(
        conn, [Fraction(0)] * 2,
        {"max_order": 8, "samples": 4, "tolerance": 1e-8})
    assert code == EXIT_INDEFINITE_ONLY
    assert report["verdict"] == "INDEFINITE_ONLY"
    verified = [m for m in report["metrics"] if m.get("verified")]
    assert verified and all(not m["definite"] for m in verified)
    assert verified[0]["signature"] == [1, 1]


def test_obstructed_by_beta(tmp_path, capsys):
    # non-symmetric Ricci with a rational beta: the homotopy path cannot
    # produce a potential, so the run reports the obstruction
    doc = {"dimension": 2,
           "christoffel": {"1,1,1": "x2/(1 + x1^2)"}}
    spec = _write(tmp_path, "obstructed.json", doc)
    code = main(["analyze", spec])
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "OBSTRUCTED_BY_BETA"
    assert data["beta_nonzero"] is True
    assert code == 12
