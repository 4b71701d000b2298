"""Benchmark cases: spec documents, CLI arguments and expected outcomes.

Every input is built with projmet's own models and written as a spec whose
Christoffel symbols are `str()` of the exact components, which
`Chart.parse` reads back.  Fixed cases are the same for every seed.  The
seeded cases (random special connections for `jets`, round-trip
Levi-Civita inputs for `analyze-exact`) are drawn by the workload seed from
pools whose answers `pin.py` recorded in pins.json.
"""

import json
import os
import random
from fractions import Fraction

from projmet import Chart, TensorField, levi_civita
from projmet.models import (flat_connection, klein_connection,
                            nonmetrizable_witness, sphere_gnomonic_connection,
                            sphere_stereographic_connection)
from projmet.projconn import AffineConnection

WORKLOADS = ("jets", "analyze-exact", "analyze-truncated")

# Seeded inputs: for each workload, how many members each pool gives per
# seed.  A pool lists the generator indices that pin.py accepted; it is
# stored with the pinned answers in pins.json.  Round-trip pools are split
# by dimension and by whether the pipeline rebuilds the metric exactly
# ("exact") or only from a truncated series ("series", the path of ROADMAP
# defect D1).  The mix is fixed, so every seed does the same kind of work;
# which members are drawn depends on the seed.  A pool lists its members
# cheapest first and is cut into runs of POOL_PER_DRAW; each input drawn
# comes from its own run, so every seed's draw costs about the same.  n=3
# series round-trips are left out: they cost 2-25 s each, so one draw would
# swing the workload time by more than its bound, and the series path is
# what `analyze-truncated` measures.
DRAWS = {
    "jets": {"random4": 3},
    "analyze-exact": {"roundtrip2-exact": 4, "roundtrip2-series": 2,
                      "roundtrip3-exact": 4},
}
POOL_PER_DRAW = 4  # pool members per input drawn

PINS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


class Case:
    """One CLI invocation and the outcome it must produce."""

    def __init__(self, cid, command, spec, max_order, exit_code, verdict=None,
                 metrizable_input=False):
        self.cid = cid
        self.command = command          # "analyze" or "mobility"
        self.spec = spec                # JSON-ready spec document
        self.max_order = max_order
        self.exit_code = exit_code      # expected exit code
        self.verdict = verdict          # expected verdict (analyze only)
        self.metrizable_input = metrizable_input  # a Levi-Civita input
        self.dims = None                # pinned dims_by_order, if any

    def argv(self, spec_path):
        if self.command == "mobility":
            return ["mobility", spec_path, "--max-order", str(self.max_order)]
        return ["analyze", spec_path]

    def spec_text(self):
        return json.dumps(self.spec, indent=1, sort_keys=True) + "\n"


def spec_of(conn, max_order=None, samples=None):
    """Spec document of a connection; components written with str()."""
    n = conn.chart.dim
    chris = {}
    for c in range(n):
        for a in range(n):
            for b in range(a, n):
                val = conn.gamma[c][a][b]
                if not val.is_zero():
                    chris[f"{c + 1},{a + 1},{b + 1}"] = str(val)
    spec = {"dimension": n, "christoffel": chris}
    opts = {}
    if max_order is not None:
        opts["max_order"] = max_order
    if samples is not None:
        opts["samples"] = samples
    if opts:
        spec["options"] = opts
    return spec


def _metric(chart, rows):
    n = chart.dim
    return TensorField(chart, ("d", "d"),
                       [rows[i][j] for i in range(n) for j in range(n)])


def liouville_d2():
    """Levi-Civita connection of g = (2 + x1 + 2 x2)[[1,3],[3,10]]
    (ROADMAP defects D1 and D2)."""
    chart = Chart(2)
    x1, x2 = chart.vars
    conf = chart.const(2) + x1 + 2 * x2
    return levi_civita(_metric(chart, [[conf, 3 * conf], [3 * conf, 10 * conf]]))


def liouville_d3():
    """Levi-Civita connection of g = (2 + (x1 + 3 x2)^2 - x2^3)[[1,3],[3,10]]
    (ROADMAP defect D3)."""
    chart = Chart(2)
    x1, x2 = chart.vars
    lin = x1 + 3 * x2
    conf = chart.const(2) + lin * lin - x2 ** 3
    return levi_civita(_metric(chart, [[conf, 3 * conf], [3 * conf, 10 * conf]]))


def random_special_connection(n, rng, entries=2, max_degree=2):
    """Sparse volume-preserving connection, as the test suite's generator:
    components Gamma^c_ab with c outside {a, b} never enter the trace."""
    chart = Chart(n)
    slots = [(c, a, b) for c in range(1, n + 1)
             for a in range(1, n + 1) for b in range(a, n + 1)
             if c != a and c != b]
    rng.shuffle(slots)
    comps = {}
    for slot in slots[:entries]:
        p = chart.zero
        for _ in range(2):
            coef = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            if coef == 0:
                continue
            mono = chart.const(coef)
            for _ in range(rng.randint(0, max_degree)):
                mono = mono * chart.var(rng.randint(1, n))
            p = p + mono
        if not p.is_zero():
            comps[slot] = p
    if not comps:
        c, a, b = slots[0]
        comps[(c, a, b)] = chart.var(1) * chart.var(1)
    return AffineConnection.from_components(chart, comps)


def round_trip_metric(n, rng):
    """delta plus a sparse degree <= 2 perturbation with coefficients <= 1/4
    and no constant term: the acceptance suite's criterion-4 generator."""
    chart = Chart(n)
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    rng.shuffle(slots)
    pert = {}
    for slot in slots[:2]:
        mono = chart.const(Fraction(rng.choice([-2, -1, 1, 2]), 8))
        for _ in range(rng.randint(1, 2)):
            mono = mono * chart.var(rng.randint(1, n))
        pert[slot] = mono
    rows = [[chart.one if i == j else chart.zero for j in range(n)]
            for i in range(n)]
    for (i, j), p in pert.items():
        rows[i][j] = rows[i][j] + p
        if i != j:
            rows[j][i] = rows[j][i] + p
    return _metric(chart, rows)


def generated_case(pool, index):
    """Input `index` of a pool's generator: a random special connection
    (n=4, `mobility` at order 10) or a round-trip Levi-Civita input
    (`analyze` at order 6 with 4 samples, as the acceptance suite runs it)."""
    if pool == "random4":
        conn = random_special_connection(4, random.Random(f"jets-pool-{index}"))
        return _mobility(f"random4-p{index}-o10", conn, 10)
    n = int(pool[len("roundtrip")])
    metric = round_trip_metric(n, random.Random(f"roundtrip-pool-{n}-{index}"))
    return _analyze(f"roundtrip{n}-p{index}", levi_civita(metric),
                    "METRIZABLE", 0, True, max_order=6, samples=4)


def _mobility(cid, conn, order):
    return Case(cid, "mobility", spec_of(conn), order, 0)


def _analyze(cid, conn, verdict, exit_code, metrizable, **opts):
    return Case(cid, "analyze", spec_of(conn, **opts),
                opts.get("max_order"), exit_code, verdict, metrizable)


def fixed_cases(workload):
    """The cases of a workload that do not depend on the seed."""
    ok = ("METRIZABLE", 0, True)
    if workload == "jets":
        return [
            _mobility("klein4-o12", klein_connection(4), 12),
            _mobility("klein5-o10", klein_connection(5), 10),
            _mobility("stereo3-o10", sphere_stereographic_connection(3), 10),
            _mobility("liouville-d2-o16", liouville_d2(), 16),
            _mobility("liouville-d3-o14", liouville_d3(), 14),
            _mobility("witness-o12", nonmetrizable_witness(), 12),
        ]
    if workload == "analyze-exact":
        return [
            _analyze("flat2", flat_connection(2), *ok),
            _analyze("klein2", klein_connection(2), *ok),
            _analyze("klein3", klein_connection(3), *ok),
            _analyze("gnomonic2", sphere_gnomonic_connection(2), *ok),
            _analyze("gnomonic3", sphere_gnomonic_connection(3), *ok),
            _analyze("witness", nonmetrizable_witness(),
                     f"NOT_METRIZABLE_AT_ORDER({2 * 2 + 4})", 10, False),
        ]
    if workload == "analyze-truncated":
        return [
            _analyze("stereo2-o10", sphere_stereographic_connection(2), *ok,
                     max_order=10),
            _analyze("liouville-d2-o8", liouville_d2(), *ok),
            _analyze("liouville-d3-o8", liouville_d3(), *ok, max_order=8),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload, seed):
    """Cases of a workload, in run order.  Same seed, same cases."""
    pins = load_pins()
    cases = fixed_cases(workload)
    rng = random.Random(seed)
    for pool, count in DRAWS.get(workload, {}).items():
        members = pins["pools"][pool]
        cases += [generated_case(pool, rng.choice(
            members[i * POOL_PER_DRAW:(i + 1) * POOL_PER_DRAW]))
            for i in range(count)]
    for case in cases:
        case.dims = pins["dims"].get(pin_key(case))
    return cases


def pin_key(case):
    return f"{case.command}:{case.cid}"


def load_pins():
    with open(PINS_FILE) as fh:
        return json.load(fh)
