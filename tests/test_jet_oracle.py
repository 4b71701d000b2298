"""The sparse integer jet solver against the dense Fraction recursion it
replaced (tests/jet_oracle.py): identical dimensions, admissible basis and
series, on flat, rational-matrix, curved and random inputs, at the origin
and at a rational base point where every Taylor shift is a binomial
expansion."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from projmet import degree_of_mobility, specialize
from projmet.cli import load_spec
from projmet.models import (klein_connection, nonmetrizable_witness,
                            sphere_gnomonic_connection,
                            sphere_stereographic_connection)

from conftest import rand_special_connection
from jet_oracle import dense_jet_solve

DATA = Path(__file__).parent / "data"


def _spec_connection(name):
    return load_spec(str(DATA / name))[0]


CASES = {
    "klein2": (lambda: klein_connection(2), 8),
    "klein3": (lambda: klein_connection(3), 6),
    "klein4": (lambda: klein_connection(4), 4),
    "stereo2": (lambda: sphere_stereographic_connection(2), 8),
    "stereo3": (lambda: sphere_stereographic_connection(3), 5),
    "gnomonic3": (lambda: sphere_gnomonic_connection(3), 6),
    "liouville-d2": (lambda: _spec_connection("liouville_d1_d2.json"), 7),
    # a rational connection through many orders: the terms of L_i in the
    # cleared recursion meet many stored coefficients
    "liouville-d2-o12": (lambda: _spec_connection("liouville_d1_d2.json"),
                         12),
    "liouville-d3": (lambda: _spec_connection("liouville_d3.json"), 7),
    "witness": (nonmetrizable_witness, 8),
}
# (n, order) of the seeded random special connections
RANDOM = [(2, 7), (2, 7), (2, 7), (3, 5), (3, 5), (3, 5), (4, 4), (4, 4)]


# a base point off the origin, cut to the dimension
POINT = (Fraction(1, 4), Fraction(-1, 8), Fraction(1, 5), Fraction(-1, 6))


def _assert_same_as_oracle(conn, order):
    """Same dims, basis and series as the oracle at the origin and at
    POINT; returns the dims at the origin."""
    if not conn.is_special():
        conn = specialize(conn)[0]
    n = conn.chart.dim
    out = []
    for point in ([0] * n, list(POINT[:n])):
        jets = degree_of_mobility(conn, point, order)
        dims, basis, series = dense_jet_solve(conn, point, order)
        assert jets.dims == dims
        assert jets.admissible_basis == basis
        assert jets.series == series
        for vec in jets.admissible_basis:
            assert all(type(v) is Fraction for v in vec)
        for ser in jets.series:
            assert all(type(v) is Fraction for vec in ser.values()
                       for v in vec)
        out.append(dims)
    return out[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_inputs_match_dense_recursion(name):
    factory, order = CASES[name]
    dims = _assert_same_as_oracle(factory(), order)
    if name == "witness":
        assert dims[-1] == 0


@pytest.mark.parametrize("seed", range(len(RANDOM)))
def test_random_special_connections_match_dense_recursion(seed):
    n, order = RANDOM[seed]
    conn = rand_special_connection(n, random.Random(f"jet-oracle-{seed}"),
                                   entries=3)
    dims = _assert_same_as_oracle(conn, order)
    assert dims[0] == (n + 1) * (n + 2) // 2


def test_only_nonzero_taylor_coefficients_are_stored():
    """The jet solve stores exactly the monomials where some basis series
    of the oracle is nonzero, and the origin: on the Klein model at order
    12 the solutions are quadratic, so 15 of the 1820 monomials."""
    special = specialize(klein_connection(4))[0]
    jets = degree_of_mobility(special, [0] * 4, 12)
    _, _, series = dense_jet_solve(special, [0] * 4, 12)
    nonzero = {mono for ser in series for mono, vec in ser.items()
               if any(vec)}
    assert set(jets._coeff) == nonzero | {(0,) * 4}
    assert len(nonzero) == 15
    assert jets.series == series
