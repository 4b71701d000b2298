"""Spec parsing, the pipeline driver, subcommands and exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from projmet import models
from projmet.cli import (EXIT_INPUT, EXIT_NOT_METRIZABLE, EXIT_OK,
                         analyze_connection, main, parse_spec, render_report,
                         run_analysis)

import series_oracle
from series_oracle import as_fractions


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


def test_module_entry_point_writes_nothing_to_stderr(tmp_path):
    """`python -m projmet.cli` runs without a warning: the package does not
    import `projmet.cli`, so runpy finds no copy of it in sys.modules."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "projmet.cli", "mobility",
         _write(tmp_path, "flat.json", FLAT2), "--max-order", "3"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == EXIT_OK
    assert done.stderr == ""
    assert json.loads(done.stdout)["mobility"]["dimension"] == 6


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


def test_custom_variables_refuse_the_default_names(tmp_path, capsys):
    """The parser reads the spec's own names: under u, v the name x1 is
    unknown, not coordinate 1 (it used to be rewritten, so "x1 + u" read
    as 2*x1)."""
    doc = {"dimension": 2, "variables": ["u", "v"],
           "christoffel": {"1,1,2": "x1 + u"}}
    code = main(["curvature", _write(tmp_path, "uv.json", doc)])
    _assert_input_error(capsys, code,
                        "unknown name 'x1' (line 1, column 1)")


def test_parse_error_columns_count_the_text_as_written(tmp_path, capsys):
    """Columns count the entry as the spec wrote it, not a rewrite of it
    (which reported column 11 here)."""
    doc = {"dimension": 2, "variables": ["u", "v"],
           "christoffel": {"1,1,2": "u + v + $"}}
    code = main(["mobility", _write(tmp_path, "uv.json", doc)])
    _assert_input_error(capsys, code,
                        "unexpected character '$' (line 1, column 9)")


def test_swapped_default_names_still_name_their_coordinates(tmp_path, capsys):
    """Under ["x2", "x1"], x2 is coordinate 1 and x1 coordinate 2, and the
    echo writes each entry in those names."""
    doc = {"dimension": 2, "variables": ["x2", "x1"],
           "christoffel": {"1,2,2": "x2^2 + 3*x1", "2,1,1": "x1/(1 + x2)"}}
    conn = parse_spec(doc)[0]
    chart = conn.chart
    assert conn.gamma[0][1][1] == chart.parse("x1^2 + 3*x2")
    assert conn.gamma[1][0][0] == chart.parse("x2/(1 + x1)")
    reports = []
    for name, spec in [("swapped", doc), ("plain", {
            "dimension": 2, "christoffel": {"1,2,2": "x1^2 + 3*x2",
                                            "2,1,1": "x2/(1 + x1)"}})]:
        assert main(["curvature", _write(tmp_path, f"{name}.json", spec)]) \
            == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
    swapped, plain = (report.pop("input") for report in reports)
    assert swapped["christoffel"] == {"1,2,2": "x2^2 + 3*x1",
                                      "2,1,1": "x1/(x2 + 1)"}
    assert plain["christoffel"] == {"1,2,2": "x1^2 + 3*x2",
                                    "2,1,1": "x2/(x1 + 1)"}
    assert reports[0] == reports[1]


@pytest.mark.parametrize("names", [["\u2118", "a\u0301"], ["\u00e9", "_v2"]],
                         ids=["other-id-start-and-combining-mark", "latin"])
def test_any_identifier_names_a_coordinate(names):
    """Every name the spec check accepts (`str.isidentifier`) reads as one
    name token, as the rewrite to x<k> read it."""
    doc = {"dimension": 2, "variables": names,
           "christoffel": {"1,2,2": f"{names[0]}^2 + 3*{names[1]}"}}
    conn = parse_spec(doc)[0]
    assert conn.gamma[0][1][1] == conn.chart.parse("x1^2 + 3*x2")


@pytest.mark.parametrize("entry, message", [
    ("x1 + \u00b2", "unexpected character '\u00b2' (line 1, column 6)"),
    ("0^-1", "division by zero (line 1, column 2)"),
    ("(x1 - x1)^-2", "division by zero (line 1, column 10)"),
    ("0^0", "0^0 is undefined (line 1, column 2)"),
], ids=["superscript-digit", "zero-inverse", "cancelled-zero",
        "zero-to-zero"])
def test_entries_that_raised_are_input_errors(tmp_path, capsys, entry,
                                              message):
    """A digit that int() does not read, and a zero base with an exponent
    of at most 0, used to end in a ValueError or ZeroDivisionError
    traceback."""
    doc = {"dimension": 2, "christoffel": {"1,2,2": entry}}
    code = main(["curvature", _write(tmp_path, "zero.json", doc)])
    _assert_input_error(capsys, code, message)


def test_jet_solve_rows_stay_sparse(capsys, monkeypatch):
    """Every exact solve hands the eliminator sparse rows: the jet solve's
    `nullspace` on a curved input gets dict rows with at most a few
    entries each.  Dense rows would give rows x columns entries."""
    import projmet.exactlinalg as exactlinalg

    calls = []
    rref = exactlinalg._rref

    def spy(rows, ncols):
        rows = list(rows)
        calls.append((rows, ncols))
        return rref(rows, ncols)

    monkeypatch.setattr(exactlinalg, "_rref", spy)
    assert main(["mobility", str(DATA / "liouville_d3.json")]) == EXIT_OK
    capsys.readouterr()
    rows = [row for call_rows, _ in calls for row in call_rows]
    assert rows
    assert all(type(row) is dict for row in rows)
    assert sum(map(len, rows)) <= 4 * len(rows)


def test_mobility_solves_no_system_wider_than_a_section(tmp_path, capsys,
                                                       monkeypatch):
    """`mobility` on a one-term entry at the degree cap in n = 4 ends at
    once: no exact solve is wider than the prolonged bundle, whose
    section_dim(4) = 15 coordinates are the jet solve's columns.  The spy
    raises on a wider call instead of letting it run."""
    import time

    import projmet.exactlinalg as exactlinalg
    from projmet.tractor import section_dim

    width = section_dim(4)
    assert width == 15
    rref = exactlinalg._rref

    def spy(rows, ncols):
        if ncols > width:
            raise AssertionError(f"exact solve with {ncols} columns")
        return rref(rows, ncols)

    monkeypatch.setattr(exactlinalg, "_rref", spy)
    doc = {"dimension": 4, "christoffel": {"1,1,2": "x1^32"}}
    spec = _write(tmp_path, "x1^32.json", doc)
    start = time.perf_counter()
    assert main(["mobility", spec, "--max-order", "3"]) == EXIT_OK
    assert time.perf_counter() - start < 5
    data = json.loads(capsys.readouterr().out)
    assert data["special_gauge"] == {"upsilon": ["0", "-x1^32/5", "0", "0"]}


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


@pytest.mark.parametrize("command", ["mobility", "analyze"])
def test_jet_path_reads_only_the_cleared_system(tmp_path, monkeypatch, capsys,
                                                command):
    """`mobility` and `analyze` build the cleared system once, on the exact
    path (Klein) and the truncated-series path (the D1/D2 Liouville input
    at order 3), and every candidate's closure residual reuses it: neither
    builds the cancelled connection matrices nor cancels a P, W or Y
    component.  `curvature` still prints P, W and Y."""
    import projmet.mobility as mobility
    import projmet.projconn as projconn
    import projmet.tractor as tractor

    builds = []
    build = tractor.cleared_matrices

    def counted(*args):
        builds.append(args)
        return build(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("cancelled connection matrices or P, W, Y")

    monkeypatch.setattr(mobility, "cleared_matrices", counted)
    monkeypatch.setattr(tractor, "cleared_matrices", counted)
    monkeypatch.setattr(tractor, "connection_matrices", forbidden)
    monkeypatch.setattr(projconn, "_schouten_and_weyl", forbidden)
    monkeypatch.setattr(projconn, "cotton_york", forbidden)
    liouville = str(DATA / "liouville_d1_d2.json")
    for spec, order in ((_write(tmp_path, "klein.json", KLEIN2), None),
                        (liouville, 3)):
        builds.clear()
        if command == "mobility":
            extra = ["--max-order", str(order)] if order else []
            assert main(["mobility", spec, *extra]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["mobility"]
        else:
            report, _ = run_analysis(spec, order and {"max_order": order})
            metrics = report["metrics"]
            if order:
                assert any(m.get("exact") is False for m in metrics)
            else:
                assert len([m for m in metrics if "verified" in m]) > 1
        assert len(builds) == 1

    monkeypatch.undo()
    assert main(["curvature", liouville]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(report["schouten"]) == 2 and report["weyl"] == {}
    assert report["cotton_york"] and "0" not in report["cotton_york"].values()


def test_mobility_never_reads_the_series(tmp_path, monkeypatch):
    """`mobility` reports dimensions only, so the series of the jet solve
    is never read; `analyze` reads its candidates off the integer rows
    (`JetSolution.combine`) and never builds the Fraction series."""
    from itertools import product

    from projmet.mobility import JetSolution
    from projmet.models import klein_connection

    reads, combined = [], []
    series, combine = JetSolution.series, JetSolution.combine

    def counted(self):
        reads.append(self)
        return series.fget(self)

    def counted_combine(self, coords):
        combined.append(self)
        return combine(self, coords)

    monkeypatch.setattr(JetSolution, "series", property(counted))
    monkeypatch.setattr(JetSolution, "combine", counted_combine)
    conn = klein_connection(4)
    doc = {"dimension": 4, "christoffel": {
        f"{c + 1},{a + 1},{b + 1}": str(conn.gamma[c][a][b])
        for c, a, b in product(range(4), repeat=3)
        if a <= b and conn.gamma[c][a][b]}}
    spec = _write(tmp_path, "klein4.json", doc)
    assert main(["mobility", spec]) == EXIT_OK
    assert not reads and not combined
    assert main(["analyze", spec, "--max-order", "4"]) == EXIT_OK
    assert combined and not reads


def _bench_corpus():
    """The benchmark's corpus module, read from perfbench/corpus.py."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def _pinned_inputs(workloads, pools):
    """The benchmark's fixed cases of `workloads` and every member of the
    pools whose name starts with `pools`, with their pinned dims."""
    corpus = _bench_corpus()
    pins = corpus.load_pins()
    cases = [c for w in workloads for c in corpus.fixed_cases(w)]
    cases += [corpus.generated_case(pool, m)
              for pool, members in pins["pools"].items()
              if pool.startswith(pools) for m in members]
    for case in cases:
        case.dims = pins["dims"].get(corpus.pin_key(case))
    return cases


def _pinned_analyze_inputs():
    """The benchmark's 49 pinned `analyze` inputs: the fixed cases of both
    analyze workloads and every member of the round-trip pools."""
    return _pinned_inputs(("analyze-exact", "analyze-truncated"),
                          "roundtrip")


def test_mobility_gives_the_pinned_dims(tmp_path, capsys):
    """Every pinned `mobility` input of the benchmark, the fixed `jets`
    cases and every member of the random4 pool, gives its pinned
    dims_by_order through `main`."""
    cases = _pinned_inputs(("jets",), "random4")
    assert len(cases) == 18
    for case in cases:
        path = tmp_path / f"{case.cid}.json"
        path.write_text(case.spec_text())
        capsys.readouterr()
        assert main(case.argv(str(path))) == case.exit_code == 0, case.cid
        report = json.loads(capsys.readouterr().out)
        assert report["mobility"]["dims_by_order"] == case.dims, case.cid


def _adjugate_over_det(g_ser, n, max_order):
    """g_ab the long way, in the Fraction series oracle: adjugate and
    Leibniz determinant of the series of g^{ab}, and the series inverse of
    that determinant."""
    from projmet.exactlinalg import adjugate, leibniz_det
    from projmet.pipeline import _symmetric_entry

    ring = ({}, lambda a, b: series_oracle.series_mul(a, b, max_order),
            series_oracle.series_add,
            lambda a: series_oracle.series_scale(a, -1))
    entry = _symmetric_entry(g_ser)
    det = leibniz_det(entry, n, *ring)
    if not det.get((0,) * n):
        return None
    adj = adjugate(entry, n, *ring)
    inv = series_oracle.series_inverse(det, n, max_order)
    return {(i, j): series_oracle.series_mul(adj(i, j), inv, max_order)
            for i, j in g_ser}


def test_lower_metric_series_reads_the_det_series():
    """g_ab = adj(sigma) det(sigma)^(-2), read off the det(sigma) series,
    has the coefficients of adj(g) / det(g) for g^{ab} = det(sigma)
    sigma^{ab}, and is missing exactly where det(g) has no constant term:
    on every candidate of the pinned analyze inputs.  The long way runs in
    the Fraction series oracle."""
    from projmet.exactlinalg import leibniz_det
    from projmet.mobility import degree_of_mobility
    from projmet.pipeline import (_candidate_vectors, _lower_metric_series,
                                  _series_ring, _symmetric_entry)
    from projmet.projconn import decompose_curvature, specialize
    from projmet.tractor import sym_pairs

    def nonzero(ser):
        return {ij: {m: v for m, v in s.items() if v} for ij, s in ser.items()}

    cases = _pinned_analyze_inputs()
    assert len(cases) == 49
    compared = inverted = 0
    for case in cases:
        conn, base_point, options, _ = parse_spec(case.spec)
        n = conn.dim
        order = options["max_order"]
        special = specialize(conn)[0]
        jets = degree_of_mobility(special, base_point, order,
                                  decompose_curvature(special))
        for _, coords in _candidate_vectors(jets, n):
            sig = dict(zip(sym_pairs(n), jets.combine(coords)))
            sig_q = {ij: as_fractions(s) for ij, s in sig.items()}
            det = leibniz_det(_symmetric_entry(sig), n, *_series_ring(order))
            g_ser = {ij: series_oracle.series_mul(as_fractions(det), s, order)
                     for ij, s in sig_q.items()}
            want = _adjugate_over_det(g_ser, n, order)
            got = _lower_metric_series(sig, det, n, order)
            assert (got is None) == (want is None), case.cid
            if got is not None:
                assert {ij: as_fractions(s) for ij, s in got.items()} == \
                    nonzero(want), case.cid
                inverted += 1
            compared += 1
    assert compared > inverted > 0


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
    assert json.loads(out.read_text())["schema"] == 2


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
    """A nonzero beta leaves the projective class alone: a flat connection
    pushed out of the symmetric-Ricci gauge still comes back METRIZABLE
    with full mobility."""
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


def _assert_input_error(capsys, code, text):
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: ") and text in err
    assert err.count("\n") == 1


def test_analyze_order_below_two_is_an_input_error(tmp_path, capsys):
    spec = _write(tmp_path, "flat.json", FLAT2)
    code = main(["analyze", spec, "--max-order", "1"])
    _assert_input_error(capsys, code, "max_order must be at least 2, got 1")


@pytest.mark.parametrize("flag, spec_samples, count", [
    (["--samples", "0"], None, 0),
    (["--samples", "-3"], None, -3),
    ([], 0, 0),
], ids=["flag-zero", "flag-negative", "spec-zero"])
def test_analyze_samples_below_one_is_an_input_error(tmp_path, capsys, flag,
                                                     spec_samples, count):
    doc = FLAT2 if spec_samples is None else dict(
        FLAT2, options={"samples": spec_samples})
    spec = _write(tmp_path, "flat.json", doc)
    code = main(["analyze", spec] + flag)
    _assert_input_error(capsys, code, f"samples must be at least 1, got {count}")


def test_analyze_connection_rejects_samples_below_one():
    """The library call, not only the CLI, refuses to decide a verdict with
    no sample point (ROADMAP D4)."""
    from projmet import ParseError
    from projmet.models import nonmetrizable_witness
    from projmet.pipeline import analyze_connection

    with pytest.raises(ParseError, match="samples must be at least 1, got 0"):
        analyze_connection(nonmetrizable_witness(), [0, 0],
                           {"max_order": 3, "samples": 0, "tolerance": 1e-8})


@pytest.mark.parametrize("text, message", [
    ('{"dimension": 2, "base_point": 5}', "base_point must have 2 coordinates"),
    ('{"dimension": 2, "variables": 5}', "'variables' must list 2"),
    ('{"dimension": 2, "christoffel": ["a"]}', "'christoffel' must map"),
    ('{"dimension": 2, "options": 5}', "bad options 5"),
    ('{"dimension": 2, "options": {"max_order": 1e400}}', "bad options"),
    ('{"dimension": 2.5}', "spec needs an integer 'dimension'"),
    ('{"dimension": 2, "variables": ["x", "x"]}', "distinct identifiers"),
    ('{"dimension": 2, "variables": ["a", ""]}', "distinct identifiers"),
], ids=["base-point-number", "variables-number", "christoffel-list",
        "options-number", "max-order-overflow", "dimension-fraction",
        "variables-repeated", "variables-empty-name"])
def test_malformed_spec_shapes_are_input_errors(tmp_path, capsys, text,
                                                message):
    spec = tmp_path / "bad.json"
    spec.write_text(text)
    code = main(["analyze", str(spec)])
    _assert_input_error(capsys, code, message)


def test_mobility_order_below_two_is_an_input_error(tmp_path, capsys):
    spec = _write(tmp_path, "flat.json", FLAT2)
    code = main(["mobility", spec, "--max-order", "0"])
    _assert_input_error(capsys, code, "max_order must be at least 2, got 0")


@pytest.mark.parametrize("command, flag, spec_order, order", [
    ("mobility", ["--max-order", "100000000000"], None, 100000000000),
    ("analyze", ["--max-order", "65"], None, 65),
    ("analyze", [], 65, 65),
], ids=["mobility-flag-huge", "analyze-flag", "analyze-spec"])
def test_order_above_the_cap_is_an_input_error(tmp_path, capsys, command,
                                               flag, spec_order, order):
    """max_order is capped (cli.MAX_ORDER), so no order runs without end;
    the check comes before any jet is solved, so this returns at once."""
    from projmet.cli import MAX_ORDER, _check_order

    assert MAX_ORDER == 64
    _check_order({"max_order": MAX_ORDER})
    doc = FLAT2 if spec_order is None else dict(
        FLAT2, options={"max_order": spec_order})
    spec = _write(tmp_path, "flat.json", doc)
    code = main([command, spec] + flag)
    _assert_input_error(capsys, code,
                        f"max_order must be at most 64, got {order}")


@pytest.mark.parametrize("command, entry, degree", [
    ("mobility", "x1^400", 400),
    ("analyze", "x1^400", 400),
    ("mobility", "1/(1 + x1^16*x2^17)", 33),
], ids=["mobility-x1^400", "analyze-x1^400", "mobility-denominator"])
def test_degree_above_the_cap_is_an_input_error(tmp_path, capsys, command,
                                                entry, degree):
    """The total degree of each Christoffel numerator and denominator is
    capped (cli.MAX_DEGREE), and the entry is named; the check runs while
    the spec is read, so `x1^400` returns at once instead of expanding
    the power."""
    import time

    from projmet.cli import MAX_DEGREE

    assert MAX_DEGREE == 32
    at_cap = {"dimension": 2, "christoffel": {"1,1,2": "x1^16*x2^16"}}
    parse_spec(at_cap)
    spec = _write(tmp_path, "deg.json",
                  {"dimension": 2, "christoffel": {"1,1,2": entry}})
    start = time.perf_counter()
    code = main([command, spec, "--max-order", "3"])
    assert time.perf_counter() - start < 5
    _assert_input_error(capsys, code,
                        f'christoffel "1,1,2" has total degree {degree}, '
                        f"above the cap of 32")


@pytest.mark.parametrize("entry, degree", [
    ("(1 + x1 + x2)^2000", 2000),
    ("*".join(["(1 + x1 + x2)^30"] * 10), 60),
    ("x1^20/(1/x2^13)", 33),
    (" + ".join(f"1/({j} + x1 + {j + 1}*x2)^30" for j in range(1, 6)), 60),
], ids=["power", "product", "quotient", "sum"])
def test_power_or_product_above_the_cap_is_refused_before_expansion(
        tmp_path, capsys, entry, degree):
    """The parser refuses a power, product, quotient or sum as written as
    soon as its numerator or denominator would pass cli.MAX_DEGREE, before
    it expands it: (1 + x1 + x2)^2000 took about 20 s, ten factors
    (1 + x1 + x2)^30 about 28 s and the sum of five 1/(j + x1 + (j+1) x2)^30
    about 24 s to reach the same exit code.  The message names the entry
    and the cap, with the degree of the refused power, product or sum."""
    import time

    spec = _write(tmp_path, "big.json",
                  {"dimension": 2, "christoffel": {"1,1,2": entry}})
    start = time.perf_counter()
    code = main(["mobility", spec])
    assert time.perf_counter() - start < 1
    _assert_input_error(capsys, code,
                        f'christoffel "1,1,2" has total degree {degree}, '
                        f"above the cap of 32")


def test_sum_within_the_cap_still_parses(tmp_path, capsys):
    """A sum is bounded by the degrees of the denominator it lies over: b
    when both terms share it or one is a polynomial, b d otherwise."""
    from projmet.errors import DegreeAboveCap
    from projmet.exprcore import Chart

    entry = "x1/(1+x2)^20 + 1/(1+x2)^20"
    spec = _write(tmp_path, "sum.json",
                  {"dimension": 2, "christoffel": {"1,2,2": entry}})
    assert main(["mobility", spec, "--max-order", "3"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    chart = Chart(2)
    x1, x2 = chart.vars
    assert out["input"]["christoffel"] == {"1,2,2": str((x1 + 1) / (x2 + 1) ** 20)}
    for text, want in [("x1^30 - 1/(1+x2)^2", x1 ** 30 - 1 / (1 + x2) ** 2),
                       ("1/(1+x1)^16 + 1/(1+x2)^16",
                        1 / (1 + x1) ** 16 + 1 / (1 + x2) ** 16)]:
        assert chart.parse(text, 32) == want
    with pytest.raises(DegreeAboveCap):
        chart.parse("1/(1+x1)^16 + 1/(1+x2)^17", 32)


def test_non_integer_max_order_option_is_an_input_error(tmp_path, capsys):
    spec = _write(tmp_path, "o.json", dict(FLAT2, options={"max_order": "abc"}))
    code = main(["analyze", spec])
    _assert_input_error(capsys, code, "bad options")


def test_non_numeric_tolerance_option_is_an_input_error(tmp_path, capsys):
    spec = _write(tmp_path, "t.json", dict(FLAT2, options={"tolerance": "x"}))
    code = main(["mobility", spec])
    _assert_input_error(capsys, code, "bad options")


def test_pole_at_base_point_is_an_input_error(tmp_path, capsys):
    doc = {"dimension": 2,
           "christoffel": {"1,2,2": "x1^2/(1 - x1)"},
           "base_point": ["1", "0"]}
    spec = _write(tmp_path, "pole.json", doc)
    assert main(["analyze", spec]) == EXIT_INPUT
    assert "PoleAtBasePoint" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "mobility"])
@pytest.mark.parametrize("entry, base_point, shown", [
    ("1/x1", None, "1/x1 has a pole at base point (0, 0)"),
    ("1/(1+x1)", ["-1", "0"], "1/(x1 + 1) has a pole at base point (-1, 0)"),
], ids=["origin", "shifted"])
def test_pole_of_christoffel_at_base_point_names_the_entry(
        tmp_path, capsys, command, entry, base_point, shown):
    """The input is undefined at p: an input error naming the entry, not
    an error from a later stage that would fail on it."""
    doc = {"dimension": 2, "christoffel": {"1,1,2": entry}}
    if base_point is not None:
        doc["base_point"] = base_point
    spec = _write(tmp_path, "pole.json", doc)
    assert main([command, spec]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f'error: PoleAtBasePoint: christoffel "1,1,2" = {shown}\n'


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


def test_rational_beta_gets_the_verdict_of_its_class(tmp_path, capsys):
    # non-symmetric Ricci with a rational beta: the trace is not closed,
    # and the class is analysed all the same through its gauge 1-form; the
    # admissible space dies by order 5, an exact rank
    doc = {"dimension": 2,
           "christoffel": {"1,1,1": "x2/(1 + x1^2)"}}
    spec = _write(tmp_path, "rational_beta.json", doc)
    code = main(["analyze", spec])
    data = json.loads(capsys.readouterr().out)
    assert code == EXIT_NOT_METRIZABLE
    assert data["verdict"] == "NOT_METRIZABLE_AT_ORDER(8)"
    assert data["mobility"]["dims_by_order"] == [6, 6, 5, 3, 0, 0, 0, 0, 0]
    assert data["beta_nonzero"] is True
    assert set(data["special_gauge"]) == {"upsilon"}


@pytest.mark.parametrize("conn", [
    lambda: models.flat_connection(2),
    lambda: models.klein_connection(2),
    lambda: models.sphere_gnomonic_connection(2),
    models.nonmetrizable_witness,
], ids=["flat2", "klein2", "gnomonic2", "witness"])
def test_analysis_is_projectively_invariant(conn):
    """The analysis depends only on the projective class: moving the input
    by a 1-form with rational beta != 0 changes no outcome but the 1-form
    relating each candidate to the input."""
    from projmet import (projective_change, projective_equivalence,
                         specialize)

    conn = conn()
    x1, x2 = conn.chart.vars
    moved = projective_change(conn, [x2 / (1 + x1 ** 2), x1 ** 2 / (2 - x2)])
    special, ups = specialize(moved)
    assert special.is_special()
    assert projective_change(moved, ups) == special
    assert projective_equivalence(moved, special) == ups

    options = {"max_order": 8, "samples": 4, "tolerance": 1e-8}
    base = [Fraction(0)] * 2
    report, code = analyze_connection(conn, base, options)
    moved_report, moved_code = analyze_connection(moved, base, options)
    assert moved_code == code
    assert moved_report["beta_nonzero"] is True

    def invariant(report):
        metrics = [{k: v for k, v in m.items() if k != "equivalence_upsilon"}
                   for m in report["metrics"]]
        return (report["verdict"], report["mobility"], report["solutions"],
                metrics)

    assert invariant(moved_report) == invariant(report)


def test_flat_change_by_log_and_polynomial_potential_is_metrizable(capsys):
    # the flat connection changed by psi = omega/3, with omega =
    # d(1/2 log(x1 + 8) + 1/2 log(x2 + 8) + x2^5): the gauge 1-form is
    # -omega/3 exactly, and no potential of it is sought
    assert main(["analyze", str(DATA / "flat_log_poly_change.json")]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "METRIZABLE"
    from projmet import Chart

    x1, x2 = Chart(2).vars
    omega = [1 / (2 * x1 + 16), 1 / (2 * x2 + 16) + 5 * x2 ** 4]
    assert data["special_gauge"] == {"upsilon": [str(-w / 3) for w in omega]}


def test_negative_exponent_spec_matches_quotient_spec(tmp_path, capsys):
    # "(1-x1)^-1" and "1/(1-x1)" are one value, so the symmetric entries agree
    outputs = []
    for name, text in (("power", "(1-x1)^-1"), ("quotient", "1/(1-x1)")):
        doc = {"dimension": 2, "christoffel": {"1,1,2": text,
                                               "1,2,1": "1/(1-x1)"}}
        code = main(["mobility", _write(tmp_path, f"{name}.json", doc)])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == EXIT_OK


@pytest.mark.parametrize("command", ["mobility", "curvature"])
def test_trace_without_closed_form_potential_is_analysed(tmp_path, capsys,
                                                         command):
    # t = 3 dx1/(1 + x1^2) is closed, with potential 3 arctan(x1), which
    # is not rational: the class is analysed through its gauge 1-form
    doc = {"dimension": 2, "christoffel": {"1,1,1": "3/(1 + x1^2)"}}
    code = main([command, _write(tmp_path, "arctan.json", doc)])
    data = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert data["special_gauge"] == {"upsilon": ["-1/(x1^2 + 1)", "0"]}
