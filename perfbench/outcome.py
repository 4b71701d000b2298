"""Run one case through `projmet.cli.main` and judge its outcome.

A case fails when `main` raises, exits with an undocumented code, prints a
report that is not valid JSON, gives the wrong verdict or exit code, or
gives a `dims_by_order` different from the pinned value.  Each failure is
given causes; those matching a known defect are tagged with its ROADMAP
name:

- D1: `render_report` raises `TypeError: ... not JSON serializable`.
- D2: a Levi-Civita input ends INDEFINITE_ONLY although a definite
  candidate exists (it missed the sampled tolerance).
- D3: a Levi-Civita input ends INDEFINITE_ONLY because no definite
  candidate was found.

Any other cause is unknown, and the run then reports `correct: false`.
"""

import contextlib
import io
import json
import time

DOCUMENTED_EXITS = (0, 2, 10, 11, 12)
KNOWN_DEFECTS = ("D1", "D2", "D3")


class Outcome:
    def __init__(self, case, seconds, exit_code, report, causes):
        self.case = case
        self.seconds = seconds
        self.normalised = None    # seconds normalised by a reference.Meter
        self.exit_code = exit_code
        self.report = report      # the report dict, or None if unavailable
        self.causes = causes      # empty when the case passed

    @property
    def ok(self):
        return not self.causes

    @property
    def known(self):
        return all(c in KNOWN_DEFECTS for c in self.causes)

    def summary(self):
        return {"case": self.case.cid, "seconds": self.seconds,
                "normalised": self.normalised, "exit": self.exit_code,
                "ok": self.ok, "causes": self.causes}


def run_case(cli, case, spec_path, meter=None):
    """Run `cli.main` on the case, timing the call; stdout is captured and
    stderr discarded.  With a `reference.Meter`, the time leaves out the
    meter's jobs and the outcome also gets the normalised time."""
    out = io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                return cli.main(case.argv(spec_path)), None
        except SystemExit as stop:
            return stop.code, None
        except Exception as raised:  # a crash is an outcome to record
            return None, raised

    normalised = None
    if meter is None:
        start = time.perf_counter()
        code, exc = call()
        seconds = time.perf_counter() - start
    else:
        (code, exc), seconds, normalised = meter.measure(call)
    outcome = judge(case, seconds, code, out.getvalue(), exc)
    outcome.normalised = normalised
    return outcome


def _report_from_traceback(exc):
    """The report dict `render_report` was given when it raised, if any."""
    tb = exc.__traceback__
    found = None
    while tb is not None:
        value = tb.tb_frame.f_locals.get("report")
        if isinstance(value, dict) and "schema" in value:
            found = value
        tb = tb.tb_next
    return found


def judge(case, seconds, code, stdout, exc=None):
    causes = []
    report = None
    if exc is not None:
        if isinstance(exc, TypeError) and "not JSON serializable" in str(exc):
            causes.append("D1")
            report = _report_from_traceback(exc)
        else:
            causes.append(f"raised {type(exc).__name__}: {exc}")
    else:
        if code not in DOCUMENTED_EXITS:
            causes.append(f"undocumented exit code {code!r}")
        try:
            report = json.loads(stdout)
        except ValueError:
            causes.append("report is not valid JSON")
        if code != case.exit_code:
            causes.append(f"exit code {code!r}, expected {case.exit_code}")
    if report is not None:
        causes.extend(_check_report(case, report))
    return Outcome(case, seconds, code, report, causes)


def _check_report(case, report):
    causes = []
    dims = (report.get("mobility") or {}).get("dims_by_order")
    if case.command == "analyze":
        verdict = report.get("verdict")
        if verdict != case.verdict:
            if verdict == "INDEFINITE_ONLY" and case.metrizable_input:
                causes.append(_indefinite_cause(report))
            else:
                causes.append(f"verdict {verdict!r}, expected {case.verdict!r}")
    if dims != case.dims:
        causes.append(f"dims_by_order {dims}, pinned {case.dims}")
    return causes


def _indefinite_cause(report):
    """D2 when some definite candidate exists but failed verification, D3
    when the search produced no definite candidate at all."""
    if any(m.get("definite") for m in report.get("metrics", [])):
        return "D2"
    return "D3"
