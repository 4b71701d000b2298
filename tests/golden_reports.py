"""Golden reports: the stdout and exit code of `projmet.cli.main` on a fixed
list of cases, stored under tests/data/reports/.

`test_golden_reports.py` runs every case in CASES and compares stdout and
the exit code byte for byte with the stored files, so a change that means
to keep every report shows that it does, and one that means to change a
report shows which.  After an intended change, rewrite the files with

    PYTHONPATH=src python tests/golden_reports.py

and review the diff of tests/data/reports/.
"""

import contextlib
import io
import json
import tempfile
from itertools import product
from pathlib import Path

from projmet import models
from projmet.cli import main

DATA = Path(__file__).parent / "data"
REPORTS = DATA / "reports"
EXIT_CODES = REPORTS / "exit_codes.json"

# spec name -> a file under tests/data, or a callable giving the connection
FILE_SPECS = ("flat_log_poly_change", "liouville_d1_d2", "liouville_d3")
MODEL_SPECS = {
    "flat2": lambda: models.flat_connection(2),
    "klein2": lambda: models.klein_connection(2),
    "gnomonic2": lambda: models.sphere_gnomonic_connection(2),
    "witness": models.nonmetrizable_witness,
}

# (case id, subcommand, spec names); the Liouville specs are not analysed:
# `analyze` fails on them with defect D1 (tests/test_defects.py)
CASES = (
    [(f"{command}-{spec}", command, (spec,))
     for command in ("curvature", "mobility")
     for spec in (*FILE_SPECS, "klein2", "gnomonic2", "witness")]
    + [(f"analyze-{spec}", "analyze", (spec,))
       for spec in ("flat_log_poly_change", "klein2", "gnomonic2", "witness")]
    + [("compare-klein2-flat2", "compare", ("klein2", "flat2")),
       ("compare-flat_log_poly_change-itself", "compare",
        ("flat_log_poly_change", "flat_log_poly_change"))])


def spec_of(conn):
    """Spec document of a connection, its entries written with str()."""
    n = conn.chart.dim
    return {"dimension": n, "christoffel": {
        f"{c + 1},{a + 1},{b + 1}": str(conn.gamma[c][a][b])
        for c, a, b in product(range(n), repeat=3)
        if a <= b and conn.gamma[c][a][b]}}


def write_specs(directory):
    """Spec files of every spec name, the model ones written to
    `directory`: {name: path}."""
    paths = {name: str(DATA / f"{name}.json") for name in FILE_SPECS}
    for name, build in MODEL_SPECS.items():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(spec_of(build())))
        paths[name] = str(path)
    return paths


def run_case(case, paths):
    """(exit code, stdout) of `projmet.cli.main` on one case."""
    _, command, specs = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, *(paths[s] for s in specs)])
    return code, out.getvalue()


def report_path(case):
    return REPORTS / f"{case[0]}.json"


def regenerate():
    REPORTS.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_specs(tmp)
        for case in CASES:
            codes[case[0]], stdout = run_case(case, paths)
            report_path(case).write_text(stdout)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
