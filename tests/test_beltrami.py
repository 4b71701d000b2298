"""Constant curvature by Beltrami's theorem in `analyze`.

Every candidate metric lies in the projective class of the input, and a
metric has constant curvature exactly when its projective class is flat.
So the pipeline takes the constant-curvature flag once per input from the
Weyl and Cotton-York tensors, and computes each candidate's kappa from
values at a single point, without building a curvature field.
"""

import json
import sys
from fractions import Fraction

import pytest

from projmet import constant_curvature_check
from projmet import pipeline
from projmet.cli import main
from projmet.metricize import sampled_constant_curvature
from projmet.models import (klein_connection, sphere_gnomonic_connection,
                            sphere_stereographic_connection)
from projmet.pipeline import analyze_connection, fr_str
from projmet.projconn import _riemann, beta_form

from conftest import warped_product_connection


def _options(max_order, samples=4):
    return {"max_order": max_order, "samples": samples, "tolerance": 1e-8}


def _count_calls(monkeypatch, fn):
    """Wrap `fn` under every projmet module name bound to it; returns the
    list that collects the positional arguments of each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "projmet" or name.startswith("projmet."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_stereographic_truncated_candidates_have_constant_curvature():
    """Order 10 is the smallest at which a truncated candidate of the
    round sphere verifies; each has the curvature of a rescaled sphere."""
    report, code = analyze_connection(sphere_stereographic_connection(2),
                                      [Fraction(0)] * 2, _options(10, 5))
    assert code == 0
    truncated = [m for m in report["metrics"]
                 if m.get("exact") is False and m.get("verified")]
    assert truncated
    for entry in truncated:
        assert entry["constant_curvature"] is True
        kappa = Fraction(entry["kappa"]).limit_denominator(16)
        assert entry["kappa"] == float(kappa)


@pytest.mark.parametrize("conn, max_order", [
    (klein_connection(3), 6),
    (sphere_gnomonic_connection(2), 8),
    (warped_product_connection(), 6),
], ids=["klein3", "gnomonic2", "warped3"])
def test_exact_entries_match_curvature_field(conn, max_order, monkeypatch):
    """The flag and kappa of every verified exact candidate are what the
    symbolic Riemann tensor of that candidate gives."""
    seen = []
    verify = pipeline._verify_candidate

    def recording(upsilon, cand, series, jets, samples, *rest):
        ok = verify(upsilon, cand, series, jets, samples, *rest)
        seen.append((cand, samples, rest[-1], ok))
        return ok

    monkeypatch.setattr(pipeline, "_verify_candidate", recording)
    n = conn.dim
    analyze_connection(conn, [Fraction(0)] * n, _options(max_order))
    checked = 0
    for cand, samples, entry, ok in seen:
        if not (ok and entry["exact"]):
            continue
        flag, kappa, _ = constant_curvature_check(
            cand.g_down, samples, conn=cand.connection, g_up=cand.g_up)
        assert entry["constant_curvature"] == flag
        assert entry["kappa"] == (fr_str(kappa) if isinstance(kappa, Fraction)
                                  else kappa)
        checked += 1
    assert checked


def test_analyze_builds_no_curvature_field(monkeypatch):
    ccc = _count_calls(monkeypatch, constant_curvature_check)
    scc = _count_calls(monkeypatch, sampled_constant_curvature)
    report, code = analyze_connection(klein_connection(2), [Fraction(0)] * 2,
                                      _options(8))
    assert code == 0
    verified = [m for m in report["metrics"] if m.get("verified")]
    assert verified and all(m["constant_curvature"] for m in verified)
    assert len(ccc) == 0 and len(scc) == 0


def test_input_beta_from_trace_once(tmp_path, monkeypatch, capsys):
    """`analyze` and `curvature` compute the beta of the input once, from
    its trace, and never build its Ricci tensor; specialize does not need
    it.  Only the special connection's Riemann and Ricci numerators, which
    every curvature component is read from, are built or read."""
    betas = _count_calls(monkeypatch, beta_form)
    riccis = _count_calls(monkeypatch, _riemann)
    conn = klein_connection(3)
    assert not conn.is_special()
    analyze_connection(conn, [Fraction(0)] * 3, _options(4))
    assert len([c for c in betas if c[0] is conn]) == 1
    assert riccis and all(c[0].is_special() for c in riccis)

    betas.clear()
    riccis.clear()
    chris = {f"{c + 1},{a + 1},{b + 1}": str(conn.gamma[c][a][b])
             for c in range(3) for a in range(3) for b in range(a, 3)
             if not conn.gamma[c][a][b].is_zero()}
    spec = tmp_path / "klein3.json"
    spec.write_text(json.dumps({"dimension": 3, "christoffel": chris}))
    assert main(["curvature", str(spec)]) == 0
    capsys.readouterr()
    assert len([c for c in betas if c[0] == conn]) == 1
    assert riccis and all(c[0].is_special() for c in riccis)
