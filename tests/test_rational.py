import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgecone import rational_rank
from edgecone.rational import (clear_denominators, dot, integer_kernel,
                               integer_rref, is_primitive, primitive)
from battery import fraction_rref


def test_dot():
    assert dot((1, 2, -3), (4, Fraction(1, 2), 1)) == 2
    assert dot((), ()) == 0
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 1"):
        dot((1, 2), (1,))


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


def test_is_primitive_for_each_input_class():
    # integers: a gcd of 1 accepts; a larger gcd, all zeros or no entry
    # at all rejects
    for v in ((1,), (-1,), (1, 0, -1), (0, 3, -2), (6, 10, 15), (-1, -1)):
        assert is_primitive(v) is True
    for v in ((2,), (0, 2, -4), (0,), (0, 0, 0), ()):
        assert is_primitive(v) is False
    # a bool beside a nonzero entry is not an exact int
    for v in ((True, 0), (1, False), (True, -1, 0)):
        with pytest.raises(ValueError, match="int or Fraction"):
            is_primitive(v)
    # Fractions keep their answer: equal to the primitive form or not
    assert is_primitive((Fraction(1), Fraction(-2), 0)) is True
    assert is_primitive((Fraction(2), Fraction(4))) is False
    assert is_primitive((Fraction(1, 2), 0)) is False
    assert is_primitive((Fraction(0), 0)) is False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30)),
                max_size=8))
def test_is_primitive_int_fast_path_equals_the_primitive_route(v):
    assert is_primitive(v) == bool(any(v) and tuple(v) == primitive(v))
    assert is_primitive(tuple(v)) == is_primitive(v)


def test_rref_and_nullspace():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    assert fraction_rref(rows) == ([[1, 0, 1], [0, 1, 1]], [0, 1])
    assert integer_rref(rows, 3) == ([[1, 0, 1], [0, 1, 1]], [0, 1])
    # rows stay integer: a positive multiple of each reduced row
    assert integer_rref([(0, 2, 3), (-4, 0, 1)], 3) == (
        [[4, 0, -1], [0, 2, 3]], [0, 1])
    assert integer_rref([], 2) == ([], [])
    assert integer_rref([(0, 0)], 2) == ([], [])
    vec = integer_kernel(rows, 3)
    assert vec in ((1, 1, -1), (-1, -1, 1))
    for row in rows:
        assert dot(row, vec) == 0


def test_integer_kernel_hand_built():
    # one kernel dimension: a primitive integer vector, either sign
    assert integer_kernel([(2, -4)], 2) in ((2, 1), (-2, -1))
    assert integer_kernel([(3, 0, 6), (0, 5, 10)], 3) in ((2, 2, -1), (-2, -2, 1))
    assert integer_kernel([(0, 0, 7), (0, 4, 0)], 3) in ((1, 0, 0), (-1, 0, 0))
    assert integer_kernel([(-6, 4, 10), (9, -6, 0)], 3) in ((2, 3, 0), (-2, -3, 0))
    assert integer_kernel([], 1) == (1,)
    # rank-deficient systems leave a larger kernel
    assert integer_kernel([(1, 2, 3), (2, 4, 6)], 3) is None
    assert integer_kernel([(0, 0, 0), (1, 1, 0)], 3) is None
    # too many kernel dimensions
    assert integer_kernel([(1, 1, 1)], 3) is None
    assert integer_kernel([], 2) is None
    # no kernel at all
    assert integer_kernel([(1, 0), (0, 1)], 2) is None
    assert integer_kernel([(1, 2), (3, 4), (5, 6)], 2) is None


def _kernel_by_rref(rows, ncols):
    """The kernel through Fraction ``rref``, when it is one-dimensional."""
    reduced, pivots = fraction_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    for row, piv in zip(reduced, pivots):
        vec[piv] = -row[free[0]]
    return primitive(vec)


def test_integer_kernel_equals_the_rref_route():
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6).flatmap(lambda ncols: st.tuples(st.lists(
        st.lists(st.integers(-40, 40), min_size=ncols, max_size=ncols),
        max_size=ncols + 1), st.just(ncols))))
    def check(case):
        rows, ncols = case
        expected = _kernel_by_rref(rows, ncols)
        got = integer_kernel(rows, ncols)
        if expected is None:
            assert got is None
        else:
            assert got in (expected, tuple(-c for c in expected))
            assert all(type(c) is int for c in got)
            assert all(dot(row, got) == 0 for row in rows)
    check()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda ncols: st.tuples(st.lists(
    st.lists(st.integers(-40, 40), min_size=ncols, max_size=ncols),
    max_size=ncols + 2), st.just(ncols))))
def test_integer_rref_is_a_positive_multiple_of_the_fraction_rref(case):
    rows, ncols = case
    reference, expected_pivots = fraction_rref(rows)
    reduced, pivots = integer_rref(rows, ncols)
    assert pivots == expected_pivots
    assert len(reduced) == len(reference)
    for row, ref, piv in zip(reduced, reference, pivots):
        scale = row[piv]
        assert type(scale) is int and scale > 0
        assert all(type(c) is int for c in row)
        assert row == [scale * c for c in ref]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda ncols: st.lists(st.lists(
    st.one_of(st.integers(-12, 12),
              st.builds(Fraction, st.integers(-72, 72), st.integers(1, 6))),
    min_size=ncols, max_size=ncols), max_size=ncols + 2)))
def test_rank_equals_the_fraction_rref_pivot_count(rows):
    assert rational_rank(rows) == len(fraction_rref(rows)[1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(
    st.integers(-10 ** 12, 10 ** 12),
    st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 9)), max_size=8))
def test_clear_denominators_equals_the_fraction_route(x):
    scale = math.lcm(*(Fraction(c).denominator for c in x))
    cleared = clear_denominators(x)
    assert cleared == tuple(int(c * scale) for c in x)
    assert all(type(c) is int for c in cleared)


def test_clear_denominators_rejects_inexact_types():
    for inexact in (0.5, "1", True, None):
        with pytest.raises(ValueError, match="int or Fraction"):
            clear_denominators((1, Fraction(1, 2), inexact))
        with pytest.raises(ValueError, match="int or Fraction"):
            primitive((Fraction(1, 2), inexact))


def test_clear_denominators_int_fast_path_still_rejects_bools():
    # type(True) is not int, so an all-int vector and a bool-bearing one
    # part ways at the int-only shortcut
    assert clear_denominators([3, -4, 0]) == (3, -4, 0)
    for with_bool in ((1, True), (True,)):
        with pytest.raises(ValueError, match="int or Fraction"):
            clear_denominators(with_bool)
