"""projmet benchmark: closed-loop runs of the real CLI on a seeded corpus.

    python3 perfbench/run.py --workload jets --seed 1 --seconds 30 --trace 0

One process, one client, no threads: each case is written as a spec file,
then `projmet.cli.main(["analyze", spec])` (or `["mobility", spec,
"--max-order", k]`) runs with stdout captured, and the next case starts
when it returns.  Every outcome is checked (see outcome.py).

Before each case, sympy's cache is cleared and garbage collected, so every
case starts as cold as in a fresh `projmet` process.

With `--trace 0` the run repeats whole passes over the corpus while the
next pass still fits in `--seconds` (at least one), then reports the
end-to-end metrics.  Their times are normalised by fixed reference work
run next to them (reference.py), which takes out most of the shared
machine's drift.  With `--trace 1` it makes a traced and an untraced pass
and reports the per-layer metrics, in raw seconds.  The last stdout
line is the JSON result; the lines before it give the machine, every case
and every failure.  The spans of the traced pass go to `.perfbench/` in
the checkout.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from sympy.core.cache import clear_cache

from outcome import run_case
from reference import IMPORT_REFERENCE, IMPORT_REFERENCE_SECONDS, Meter
from spantrace import ARITH_LAYER, SPAN_LAYERS, Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import projmet.cli"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts():
    import numpy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": sympy.__version__, "sympy_ground_types": GROUND_TYPES,
            "numpy": numpy.__version__, "platform": platform.platform()}


def start_process(code):
    """Wall seconds of a fresh Python process that runs `code`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds():
    """Wall time of a fresh process that starts and imports projmet: what
    every CLI call pays before its first case can run.  Each is followed
    by the reference import; returns the medians over SETUP_SAMPLES pairs
    of the raw and of the normalised time."""
    raw, normalised = [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(start_process(IMPORT_PROBE))
        normalised.append(raw[-1] * IMPORT_REFERENCE_SECONDS
                          / start_process(IMPORT_REFERENCE))
    return statistics.median(raw), statistics.median(normalised)


def write_specs(cases, workload, seed):
    folder = os.path.join(WORK, f"{workload}-seed{seed}")
    os.makedirs(folder, exist_ok=True)
    paths = []
    for case in cases:
        path = os.path.join(folder, f"{case.cid}.json")
        with open(path, "w") as fh:
            fh.write(case.spec_text())
        paths.append(path)
    return paths


def run_pass(cli, cases, paths, tracer=None, meter=None):
    """One closed-loop pass; returns the outcomes.  Each case starts with
    sympy's cache cleared and garbage collected."""
    outcomes = []
    for case, path in zip(cases, paths):
        clear_cache()
        gc.collect()
        if tracer is not None:
            tracer.case = case.cid
        outcomes.append(run_case(cli, case, path, meter))
    return outcomes


def end_to_end(cli, cases, paths, seconds):
    """Passes over the corpus while the next one fits in `seconds`; returns
    the outcomes, the end-to-end metrics and details to print."""
    times = {c.cid: [] for c in cases}
    scaled = {c.cid: [] for c in cases}
    outcomes, passes = [], 0
    meter = Meter()
    begin = time.perf_counter()
    while True:
        pass_begin = time.perf_counter()
        done = run_pass(cli, cases, paths, meter=meter)
        passes += 1
        outcomes.extend(done)
        for o in done:
            times[o.case.cid].append(o.seconds)
            scaled[o.case.cid].append(o.normalised)
        now = time.perf_counter()
        if now - begin + (now - pass_begin) > seconds:
            break
    wall_corpus = sum(statistics.median(v) for v in times.values())
    per_case = [statistics.median(v) for v in scaled.values()]
    wall_setup, setup = setup_seconds()
    metrics = {
        "corpus_s": (sum(per_case), "s"),
        "case_p50_s": (statistics.median(per_case), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return outcomes, metrics, {
        "passes": passes, "timings": times, "wall_corpus_s": wall_corpus,
        "wall_setup_s": wall_setup, "reference_mean_s": meter.mean(),
        "reference_jobs": len(meter.samples)}


def per_layer(cli, cases, paths, workload, seed):
    """A traced pass, then an untraced pass; returns the outcomes of both,
    the per-layer metrics and details to print.  Times are raw seconds."""
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = run_pass(cli, cases, paths, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(cli, cases, paths)
    traced = sum(o.seconds for o in outcomes)
    plain = sum(o.seconds for o in after)
    tracer.dump(os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl"))

    self_s, calls, roots = self_times(tracer.spans)
    metrics = {}
    for layer in list(SPAN_LAYERS) + [ARITH_LAYER]:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for layer in ("mobility.residual", "exactlinalg.nullspace",
                  "exactlinalg.solve_linear_system",
                  "exactlinalg.symmetric_signature",
                  "exactseries.rational_to_series", "exactseries.series_mul",
                  "exactseries.series_inverse", "tractor.connection_matrices",
                  ARITH_LAYER):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for name in ("exprcore.RationalExpr.diff.calls",
                 "exprcore.RationalExpr.evaluate.calls",
                 "exactlinalg.nullspace.rows"):
        metrics[name] = (tracer.counts[name], "count")
    metrics["exactlinalg.nullspace.max_bits"] = (
        tracer.maxima.get("exactlinalg.nullspace.max_bits", 0), "bits")
    for name, value in report_counts(outcomes).items():
        metrics[name] = (value, "count")
    metrics["unattributed_s"] = (traced - roots, "s")
    metrics["traced_corpus_s"] = (traced, "s")
    metrics["untraced_corpus_s"] = (plain, "s")
    metrics["trace_overhead"] = (traced / plain - 1, "ratio")
    return outcomes + after, metrics, {"spans": len(tracer.spans)}


def report_counts(outcomes):
    """Jet orders, rank drop and candidate outcomes, from each report."""
    totals = dict.fromkeys(("mobility.jet_orders", "mobility.rank_drop",
                            "cli.candidates.tried", "cli.candidates.skipped",
                            "cli.candidates.exact",
                            "cli.candidates.verified"), 0)
    for o in outcomes:
        if o.report is None:
            continue
        dims = (o.report.get("mobility") or {}).get("dims_by_order")
        if dims:
            totals["mobility.jet_orders"] += len(dims) - 1
            totals["mobility.rank_drop"] += dims[0] - dims[-1]
        for m in o.report.get("metrics", []):
            totals["cli.candidates.tried"] += 1
            totals["cli.candidates.skipped"] += "skipped" in m
            totals["cli.candidates.exact"] += bool(m.get("exact"))
            totals["cli.candidates.verified"] += bool(m.get("verified"))
    return totals


def emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "projmet", "__init__.py")):
        sys.stderr.write(f"perfbench: no projmet sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import projmet.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: projmet imported from {cli.__file__}, "
                         f"not from {SRC}\n")
        return 2
    import corpus

    if args.workload not in corpus.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(corpus.WORKLOADS)}\n")
        return 2
    emit({"machine": machine_facts(), "workload": args.workload,
          "seed": args.seed, "trace": args.trace})
    cases = corpus.build(args.workload, args.seed)
    paths = write_specs(cases, args.workload, args.seed)
    if args.trace:
        outcomes, metrics, extra = per_layer(cli, cases, paths,
                                             args.workload, args.seed)
    else:
        outcomes, metrics, extra = end_to_end(cli, cases, paths, args.seconds)
    for o in outcomes:
        emit(o.summary())
    failures = [{"case": o.case.cid, "causes": o.causes}
                for o in outcomes if not o.ok]
    emit({"failures": failures, **extra})
    emit({"correct": all(o.known for o in outcomes),
          "attempted": len(outcomes), "failed": len(failures),
          "metrics": {k: {"value": v, "unit": u}
                      for k, (v, u) in metrics.items()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
