from fractions import Fraction

import pytest

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


def test_rref_and_nullspace():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        assert dot(row, vec) == 0

