"""Self-checks of the benchmark itself (not of projmet).

    python3 perfbench/selfcheck.py

Checks that the outcome checker flags bad outcomes fed to it synthetically,
that self-time arithmetic is right on a hand-built span tree, that the
tracer restores what it wraps, that the reference meter leaves its jobs
out of a call's time and restores the signal state, and that specs depend
on the seed exactly as documented.  Exits 1 on the first failed check.
"""

import json
import os
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402
import reference  # noqa: E402
from outcome import judge  # noqa: E402
from spantrace import Tracer, self_times  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def _case(verdict="METRIZABLE", exit_code=0, dims=(6, 6, 6)):
    case = corpus.Case("synthetic", "analyze", {"dimension": 2}, 2, exit_code,
                       verdict, metrizable_input=True)
    case.dims = list(dims)
    return case


def _report(verdict, dims=(6, 6, 6), metrics=()):
    return {"schema": 1, "verdict": verdict, "metrics": list(metrics),
            "mobility": {"dims_by_order": list(dims)}}


def check_outcomes():
    good = json.dumps(_report("METRIZABLE"))
    check(judge(_case(), 0.1, 0, good).ok, "a correct outcome passes")

    out = judge(_case(), 0.1, 10, json.dumps(_report(
        "NOT_METRIZABLE_AT_ORDER(2)")))
    check(not out.ok and not out.known, "a wrong verdict and exit code fail")

    out = judge(_case(), 0.1, 0, json.dumps(_report("METRIZABLE", (6, 5, 5))))
    check(not out.ok and not out.known
          and any("pinned" in c for c in out.causes),
          "a pinned-dims mismatch fails")

    out = judge(_case(), 0.1, 0, "{not json")
    check(not out.ok and not out.known
          and "report is not valid JSON" in out.causes,
          "a non-JSON report fails")

    out = judge(_case(), 0.1, 7, good)
    check(not out.ok and not out.known, "an undocumented exit code fails")

    def render(report):
        return json.dumps(report)

    indefinite = _report("INDEFINITE_ONLY",
                         metrics=[{"definite": True, "verified": False,
                                   "probe": object()}])
    try:
        render(indefinite)
    except TypeError as exc:
        out = judge(_case(), 0.1, None, "", exc)
    check(out.causes == ["D1", "D2"] and out.known,
          "a render crash is D1 and the report behind it is still checked")

    out = judge(_case(), 0.1, 11, json.dumps(_report(
        "INDEFINITE_ONLY", metrics=[{"definite": False}])))
    check("D3" in out.causes, "INDEFINITE_ONLY with no definite candidate is D3")

    out = judge(_case(), 0.1, None, "", ValueError("boom"))
    check(not out.ok and not out.known, "any other exception fails as unknown")


def check_self_times():
    # root a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # a second root e [11, 12]
    spans = [("a", 0.0, 10.0, -1, "x"), ("b", 1.0, 4.0, 0, "x"),
             ("c", 2.0, 3.0, 1, "x"), ("d", 5.0, 9.0, 0, "x"),
             ("e", 11.0, 12.0, -1, "y")]
    self_s, calls, roots = self_times(spans)
    check(dict(self_s) == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0, "e": 1.0},
          "self time is duration minus direct children")
    check(roots == 11.0 and sum(self_s.values()) == roots,
          "self times add up to the root durations")
    check(calls["a"] == 1 and sum(calls.values()) == 5, "calls are counted")

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span_wrapper("inner", lambda: None)
    outer = tracer.span_wrapper("outer", lambda: (inner(), inner()))
    tracer.case = "k"
    outer()
    check(tracer.spans == [("outer", 0.0, 5.0, -1, "k"),
                           ("inner", 1.0, 2.0, 0, "k"),
                           ("inner", 3.0, 4.0, 0, "k")],
          "wrappers record name, start, end, parent and case")


def check_install():
    import projmet.cli as cli
    import projmet.mobility as mobility
    from projmet.exprcore import RationalExpr

    before = (cli.nullspace, mobility.nullspace, RationalExpr.__mul__,
              cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        check(cli.nullspace is not before[0]
              and mobility.nullspace is not before[1]
              and cli.nullspace.__wrapped__ is before[0],
              "install wraps a function under every module-level name")
        check(RationalExpr.__mul__ is not before[2],
              "install wraps RationalExpr dunders on the class")
    finally:
        tracer.uninstall()
    check((cli.nullspace, mobility.nullspace, RationalExpr.__mul__,
           cli.main) == before, "uninstall restores every original")


def check_meter():
    """A call of 100 jobs, interrupted by the meter's own jobs, must read
    about the time of 100 jobs; the tolerance allows for a noisy host.
    The jobs come every 10 ms here, so that they fill about a third of the
    call and leaving them in would show."""
    meter = reference.Meter()
    alone = statistics.median(reference.timed_job() for _ in range(30))
    before = signal.getsignal(signal.SIGALRM)
    interval, reference.INTERVAL = reference.INTERVAL, 0.01
    try:
        _, seconds, normalised = meter.measure(
            lambda: [reference.job() for _ in range(100)])
    finally:
        reference.INTERVAL = interval
    check(len(meter.samples) > 2 * reference.AROUND,
          "the meter runs jobs while the call runs")
    check(0.75 < seconds / (100 * alone) < 1.25,
          "the meter leaves its jobs out of the call's time")
    check(0.7 < normalised / (100 * reference.REFERENCE_SECONDS
                              * alone / meter.mean()) < 1.4,
          "normalised time is seconds scaled by the jobs' mean")
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
          and signal.getsignal(signal.SIGALRM) == before,
          "the meter stops its timer and restores the handler")


def check_seeds():
    def texts(workload, seed):
        return {c.cid: c.spec_text() for c in corpus.build(workload, seed)}

    for workload in corpus.WORKLOADS:
        check(texts(workload, 7) == texts(workload, 7),
              f"{workload}: the same seed gives byte-identical specs")
    for workload, prefix, count in (("analyze-exact", "roundtrip", 10),
                                    ("jets", "random", 3)):
        a, b = texts(workload, 1), texts(workload, 2)
        seeded = {k for k in a if k.startswith(prefix)}
        fixed = set(a) - seeded
        check(len(seeded) == count and seeded != set(b) - fixed
              and all(a[k] == b[k] for k in fixed),
              f"{workload}: another seed changes only the {prefix} inputs")
    pins = corpus.load_pins()
    for workload, draws in corpus.DRAWS.items():
        stratified = True
        for seed in range(1, 6):
            cids = {c.cid for c in corpus.build(workload, seed)}
            for pool, count in draws.items():
                runs = [i // corpus.POOL_PER_DRAW
                        for i, k in enumerate(pins["pools"][pool])
                        if corpus.generated_case(pool, k).cid in cids]
                stratified &= sorted(runs) == list(range(count))
        check(stratified,
              f"{workload}: each seeded input comes from its own pool run")
    check(texts("analyze-truncated", 1) == texts("analyze-truncated", 2),
          "analyze-truncated: fixed inputs for every seed")
    check(all(c.dims is not None
              for w in corpus.WORKLOADS for c in corpus.build(w, 3)),
          "every case has pinned dims")


if __name__ == "__main__":
    check_outcomes()
    check_self_times()
    check_install()
    check_meter()
    check_seeds()
    print("selfcheck passed")
