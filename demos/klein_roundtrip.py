"""Full pipeline on the Beltrami-Klein model.

The Klein connection has pure-trace Christoffel symbols, so its geodesics
are straight chords of the unit disk; specializing it lands exactly on the
flat connection.  The pipeline then finds the six-dimensional solution
space and reconstructs, among others, the hyperbolic metric itself
(curvature -1), the Euclidean metric (0) and the projected sphere (+1),
all with the same geodesics.
"""

from fractions import Fraction

from projmet import specialize
from projmet.cli import analyze_connection
from projmet.models import klein_connection


def main():
    conn = klein_connection(2)
    special, upsilon = specialize(conn)
    print("special gauge reached:", "flat" if special.is_special() else "?")
    print("gauge 1-form:", [str(c) for c in upsilon])

    report, code = analyze_connection(
        conn, [Fraction(0), Fraction(0)],
        {"max_order": 8, "samples": 4, "tolerance": 1e-8})
    print("verdict:", report["verdict"], "| exit code:", code)
    print("degree of mobility:", report["mobility"]["dimension"])
    seen = set()
    for entry in report["metrics"]:
        kappa = entry.get("kappa")
        if (entry.get("verified") and entry.get("definite")
                and kappa is not None and kappa not in seen):
            seen.add(kappa)
            print(f"  verified Riemannian candidate with curvature {kappa}: "
                  f"g^11 = {entry['g_upper'][0][0]}")


if __name__ == "__main__":
    main()
