"""Regenerate perfbench/pins.json: the pools of seeded inputs, and the
expected `dims_by_order` of every fixed case and pool member.

    python3 perfbench/pin.py

The jet solve is exact, so these values are the expected answers for later
versions of the program.  Run this only when the corpus itself changes,
and review the diff: a changed pin is a changed answer.  Pool membership
depends on timings taken while pinning (see POOL_SECONDS), and each pool
lists its members cheapest first by those timings: corpus.build draws one
input from each run of POOL_PER_DRAW members.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402
import projmet.cli as cli  # noqa: E402
from outcome import KNOWN_DEFECTS, run_case  # noqa: E402

FOLDER = os.path.join(os.path.dirname(HERE), ".perfbench", "pin")

# Round-trip inputs join a pool only if their time when pinned lies in its
# band.  The n=2 inputs sit below the fixed flat and Klein n=2 cases and the
# n=3 inputs above them, so the median case of `analyze-exact` is always a
# fixed one and `case_p50_s` does not depend on the draw; the upper limit
# keeps one draw from swinging `corpus_s`.
POOL_SECONDS = {"roundtrip2-exact": (0.0, 0.5),
                "roundtrip2-series": (0.0, 0.5),
                "roundtrip3-exact": (1.2, 2.0)}


def outcome_of(case):
    path = os.path.join(FOLDER, f"{case.cid}.json")
    with open(path, "w") as fh:
        fh.write(case.spec_text())
    out = run_case(cli, case, path)
    if out.report is None:
        raise RuntimeError(f"{case.cid}: no report ({out.causes})")
    defects = [c for c in out.causes if c in KNOWN_DEFECTS]
    print(case.cid, f"{out.seconds:.2f}s", defects or "ok", flush=True)
    return out


def pool_of(generator, report):
    """The pool a generated input belongs to, from its report, or None.

    Random connections join only when their final mobility is at most 1
    (0.2-0.7 s each here).  Those with larger mobility cost up to 2.3 s and
    would sit at the median case of `jets`, so the draw would move
    `case_p50_s`; with the pool below it, the median case is fixed."""
    if generator == "random4":
        return generator if report["mobility"]["dims_by_order"][-1] <= 1 \
            else None
    built = [m for m in report["metrics"] if "skipped" not in m]
    kind = "exact" if all(m["exact"] for m in built) else "series"
    return f"{generator}-{kind}"


def main():
    os.makedirs(FOLDER, exist_ok=True)
    dims = {}
    for workload in corpus.WORKLOADS:
        for case in corpus.fixed_cases(workload):
            dims[corpus.pin_key(case)] = outcome_of(case).report["mobility"][
                "dims_by_order"]

    want = {pool: count * corpus.POOL_PER_DRAW
            for draws in corpus.DRAWS.values()
            for pool, count in draws.items()}
    pools = {pool: [] for pool in want}
    seconds = {}
    for generator in sorted({pool.split("-")[0] for pool in want}):
        index = 0
        while any(len(pools[p]) < want[p] for p in want
                  if p.startswith(generator)):
            case = corpus.generated_case(generator, index)
            out = outcome_of(case)
            pool = pool_of(generator, out.report)
            low, high = POOL_SECONDS.get(pool, (0.0, float("inf")))
            if (pool in want and len(pools[pool]) < want[pool]
                    and low <= out.seconds <= high):
                pools[pool].append(index)
                seconds[pool, index] = out.seconds
                dims[corpus.pin_key(case)] = out.report["mobility"][
                    "dims_by_order"]
            index += 1

    for pool, members in pools.items():
        members.sort(key=lambda k: seconds[pool, k])
    with open(corpus.PINS_FILE, "w") as fh:
        json.dump({"dims": dims, "pools": pools}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
