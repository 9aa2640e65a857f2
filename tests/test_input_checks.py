"""Every entry that takes caller input rejects inexact input with
ValueError: one table per kind of input.

An exact integer is a value whose type is ``int`` itself; bools and
``IntEnum`` members compare equal to integers but fail that rule.
"""

from enum import IntEnum
from fractions import Fraction

import pytest

from edgecone import (EnumerationGateError, Graph, bipartite_facet_check,
                      brute_force_facet_generator_sets, brute_force_facets,
                      coordinate_halfspace, dual_facet, edge_vectors, fm_membership,
                      full_representation, independent_set_halfspace,
                      integer_decompose, membership, parity_check, parse_graph,
                      rational_rank, vertex_set)
from battery import star


class Index(IntEnum):
    ONE = 1


K13 = star(3)
SINGLE = parse_graph("a b")

# every call is valid input with 1 in place of v
VERTEX_ENTRIES = {
    "coordinate_halfspace": lambda v: coordinate_halfspace(K13, v),
    "independent_set_halfspace": lambda v: independent_set_halfspace(K13, [0, v]),
    "vertex_set": lambda v: vertex_set(K13, [0, v]),
    "Graph": lambda v: Graph(("a", "b"), ((0, v),)),
    "bipartite_facet_check": lambda v: bipartite_facet_check(K13, [0, v]),
    "dual_facet": lambda v: dual_facet(K13, [0, v]),
}
INTEGER_ENTRIES = {
    "integer_decompose": lambda c: integer_decompose(SINGLE, (c, 2)),
    "parity_check": lambda c: parity_check((c, 2)),
}
RATIONAL_ENTRIES = {
    "membership": lambda c: membership(SINGLE, (c, 1)),
    "fm_membership": lambda c: fm_membership(edge_vectors(SINGLE), (c, 1)),
    "margin": lambda c: coordinate_halfspace(SINGLE, 0).margin((c, 1)),
    "satisfied_by": lambda c: full_representation(SINGLE).satisfied_by((c, 1)),
    "rational_rank": lambda c: rational_rank([(c, 1)]),
}
LENGTH_ENTRIES = {
    "membership": lambda x: membership(SINGLE, x),
    "integer_decompose": lambda x: integer_decompose(SINGLE, x),
    "fm_membership": lambda x: fm_membership(edge_vectors(SINGLE), x),
}

TABLE = [
    (VERTEX_ENTRIES, {"True": True, "IntEnum": Index.ONE, "float": 1.0, "str": "1"}),
    (INTEGER_ENTRIES, {"True": True, "IntEnum": Index.ONE, "Fraction": Fraction(2),
                       "float": 2.0}),
    (RATIONAL_ENTRIES, {"float": 0.5, "True": True, "str": "1", "IntEnum": Index.ONE}),
    (LENGTH_ENTRIES, {"short": (1,), "long": (1, 1, 1)}),
]


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{name}-{label}")
    for entries, values in TABLE
    for name, call in entries.items()
    for label, bad in values.items()])
def test_caller_input_is_rejected(call, bad):
    with pytest.raises(ValueError):
        call(bad)


def test_oracle_gates_before_reading_entries():
    generators = [(1.0, 1)] + [(1, 1)] * 24
    for call in (brute_force_facets, brute_force_facet_generator_sets,
                 lambda gens: fm_membership(gens, (1, 1))):
        with pytest.raises(EnumerationGateError, match="25 generators"):
            call(generators)


def test_oracle_accepts_a_generator_iterator():
    vectors = edge_vectors(K13)
    assert (brute_force_facet_generator_sets(iter(vectors))
            == brute_force_facet_generator_sets(vectors))
    assert brute_force_facets(iter(vectors)) == brute_force_facets(vectors)
    assert fm_membership(iter(vectors), (1, 1, 1, 3))


def test_fm_membership_reads_its_point_before_eliminating(monkeypatch):
    def unexpected(*args):
        raise AssertionError("eliminated before reading the point")
    monkeypatch.setattr("edgecone.oracle._double_description", unexpected)
    with pytest.raises(ValueError, match="int or Fraction"):
        fm_membership(edge_vectors(K13), (0.5, 0.5, 0.5, 1.5))
