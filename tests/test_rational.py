import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgecone import rational_rank
from edgecone.rational import dot, is_primitive, nullspace, primitive, rref


def test_rank_triangle_incidence_columns():
    assert rational_rank([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 3


def test_rank_two_independent_vectors():
    assert rational_rank([(1, 1, 0), (0, 1, 1)]) == 2


def test_rank_empty_and_zero():
    assert rational_rank([]) == 0
    assert rational_rank([(0, 0, 0)]) == 0


def test_rank_dependent_rows():
    assert rational_rank([(1, 2), (2, 4), (3, 6)]) == 1


def test_rank_rational_entries():
    rows = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 1))]
    assert rational_rank(rows) == 2
    assert rational_rank([(Fraction(1, 2), 1), (1, 2)]) == 1
    assert rational_rank([(Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), 1)]) == 1


def test_rank_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        rational_rank([(1, 0), (1, 0, 0)])


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((Fraction(1, 2), Fraction(-1, 3))) == (3, -2)
    assert primitive((0, 5, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_primitive_is_fixed_point():
    v = primitive((Fraction(6, 4), -9, 12))
    assert primitive(v) == v
    assert is_primitive(v)


def _cleared_primitive(vector):
    """The denominator-clearing route through ``Fraction`` for every input."""
    scale = math.lcm(*(Fraction(c).denominator for c in vector))
    ints = [int(c * scale) for c in vector]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


ENTRIES = {
    "int": st.integers(-10 ** 6, 10 ** 6),
    "mixed": st.one_of(st.integers(-60, 60),
                       st.fractions(min_value=-60, max_value=60, max_denominator=12)),
}


@pytest.mark.parametrize("kind", sorted(ENTRIES))
def test_primitive_equals_the_cleared_route(kind):
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(ENTRIES[kind], min_size=1, max_size=8))
    def check(vector):
        if not any(vector):
            with pytest.raises(ValueError):
                primitive(vector)
            assert not is_primitive(vector)
            return
        expected = _cleared_primitive(vector)
        got = primitive(vector)
        assert got == expected and all(type(c) is int for c in got)
        assert primitive(tuple(vector)) == expected
        assert is_primitive(vector) == (tuple(vector) == expected)
        assert is_primitive(expected)
    check()


def test_rref_and_nullspace():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        assert dot(row, vec) == 0

