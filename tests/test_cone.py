import itertools
import random
from fractions import Fraction

import pytest

from edgecone import (ComponentTag, CoordinateTag, EnumerationGateError,
                      IndependentSetTag, affine_hull, canonical_representation,
                      cone_dimension, coordinate_halfspace, edge_vectors,
                      fm_membership, full_representation,
                      independent_set_halfspace, independent_sets, is_independent,
                      membership, neighbor_set, parse_graph, rational_rank)
from edgecone.cone import SENSE_GE, SENSE_LE, Halfspace, Hyperplane
from battery import (bipartite_battery, build, check_full_sets, complete_bipartite,
                     connected_graphs_upto, cycle, labelled_graph_failures,
                     neighbor_halfspace, path, random_connected, spider, star,
                     standard_battery)

TRIANGLE = parse_graph("a b\nb c\nc a")
SINGLE = parse_graph("a b")
K13 = star(3)  # leaves 0,1,2 ; center 3


def test_hyperplane_requires_primitive_normal():
    for normal in ((2, 4), [2, 4]):  # a list is checked after its copy
        with pytest.raises(ValueError):
            Hyperplane(normal)
    assert Hyperplane([1, 2]).normal == (1, 2)
    for normal in ((0, 0), (2, 0, -2), (3,), ()):
        with pytest.raises(ValueError, match="primitive"):
            Hyperplane(normal)
    with pytest.raises(ValueError, match="primitive"):
        Hyperplane((Fraction(1, 2), 0))
    with pytest.raises(ValueError, match="int or Fraction"):
        Hyperplane((True, 0))
    for normal in ((1, 0, -1), (1,), (6, 10, -15)):
        assert Hyperplane(normal).normal == normal
    # a Fraction equal to its primitive form passes, stored as an int
    normal = Hyperplane((Fraction(1), -1)).normal
    assert normal == (Fraction(1), -1)
    assert all(type(c) is int for c in normal)


def test_halfspace_sense_tag_invariants():
    plane = Hyperplane((1, 0), CoordinateTag(0))
    with pytest.raises(ValueError):
        Halfspace(plane, SENSE_LE)
    with pytest.raises(ValueError, match="bad sense"):
        Halfspace(Hyperplane((1, 0)), ">0")
    with pytest.raises(ValueError, match="independent-set halfspaces carry sense <=0"):
        Halfspace(Hyperplane((1, -1), IndependentSetTag((0,))), SENSE_GE)
    assert coordinate_halfspace(SINGLE, 0).sense == SENSE_GE
    assert independent_set_halfspace(SINGLE, [0]).sense == SENSE_LE


def test_coordinate_halfspace_rejects_out_of_range_vertices():
    for vertex in (-1, 2):
        with pytest.raises(ValueError, match=f"vertex index out of range: {vertex}"):
            coordinate_halfspace(SINGLE, vertex)


def test_component_equation_requires_a_bipartite_component():
    # only bipartite components get a balance equation, and a component
    # after a non-bipartite one keeps its own index in the tag
    g = parse_graph("a b\nb c\nc a\nx y")
    assert g.bipartitions[0] is None
    assert affine_hull(g) == (Hyperplane((0, 0, 0, 1, -1), ComponentTag(1)),)
    g = parse_graph("a b\nb c\nc a\nx y\np q\nq r\nr p")
    assert affine_hull(g) == (Hyperplane((0, 0, 0, 1, -1, 0, 0, 0), ComponentTag(1)),)


def test_independent_set_halfspace_normal():
    h = independent_set_halfspace(K13, [0, 1])
    assert h.plane.normal == (1, 1, 0, -1)
    with pytest.raises(ValueError, match="not independent"):
        independent_set_halfspace(TRIANGLE, [0, 1])  # adjacent
    with pytest.raises(ValueError, match="not independent"):
        independent_set_halfspace(path(5), [0, 2, 3])  # adjacent last pair
    with pytest.raises(ValueError, match="nonempty"):
        independent_set_halfspace(TRIANGLE, [])
    with pytest.raises(ValueError, match="out of range"):
        independent_set_halfspace(TRIANGLE, [0, 3])
    with pytest.raises(ValueError, match="out of range"):
        independent_set_halfspace(TRIANGLE, [-1])
    for g in standard_battery():
        for a in independent_sets(g):
            neighbors = set(neighbor_set(g, a))
            expected = tuple(1 if v in a else -1 if v in neighbors else 0
                             for v in range(g.vertex_count))
            h = independent_set_halfspace(g, reversed(a))
            assert h.plane.normal == expected
            assert h.plane.tag == IndependentSetTag(a)


def test_cone_dimension():
    assert cone_dimension(TRIANGLE) == 3
    assert cone_dimension(SINGLE) == 1
    for m in range(2, 5):
        for n in range(m, 5):
            assert cone_dimension(complete_bipartite(m, n)) == m + n - 1
    assert cone_dimension(parse_graph("a\nb")) == 0


def test_dimension_equals_rank_on_random_graphs():
    rng = random.Random(3)
    for trial in range(20):
        g = random_connected(rng.randint(1, 8), rng, 0.4)
        assert cone_dimension(g) == rational_rank(edge_vectors(g))


def test_affine_hull():
    assert [e.normal for e in affine_hull(SINGLE)] == [(1, -1)]
    assert affine_hull(TRIANGLE) == ()
    k23 = complete_bipartite(2, 3)
    assert [e.normal for e in affine_hull(k23)] == [(1, 1, -1, -1, -1)]
    assert affine_hull(k23)[0].tag == ComponentTag(0)
    # isolated vertex contributes x = 0
    g = parse_graph("a b\nc")
    assert [e.normal for e in affine_hull(g)] == [(1, -1, 0), (0, 0, 1)]


def test_full_representation_single_edge():
    rep = full_representation(SINGLE)
    assert rep.kind == "full"
    assert [e.normal for e in rep.equations] == [(1, -1)]
    assert [(h.plane.normal, h.sense) for h in rep.halfspaces] == [
        ((1, 0), SENSE_GE), ((0, 1), SENSE_GE),
        ((1, -1), SENSE_LE), ((-1, 1), SENSE_LE)]
    assert rep.satisfied_by((2, 2))
    assert not rep.satisfied_by((2, 1))      # off the affine hull
    assert not rep.satisfied_by((-1, -1))    # violates a coordinate


def test_full_representation_triangle():
    rep = full_representation(TRIANGLE)
    assert rep.equations == ()
    coords = [h for h in rep.halfspaces if isinstance(h.plane.tag, CoordinateTag)]
    sets = [h for h in rep.halfspaces if isinstance(h.plane.tag, IndependentSetTag)]
    assert len(coords) == 3
    assert [h.plane.tag.vertices for h in sets] == [(0,), (1,), (2,)]


def test_full_representation_ordering_and_gate():
    rep = full_representation(K13)
    tags = [h.plane.tag for h in rep.halfspaces]
    coord_part = [t for t in tags if isinstance(t, CoordinateTag)]
    set_part = [t.vertices for t in tags if isinstance(t, IndependentSetTag)]
    assert tags[:len(coord_part)] == coord_part  # coordinates first
    assert set_part == sorted(set_part)          # then lexicographic sets
    with pytest.raises(EnumerationGateError):
        full_representation(build(6, [(0, 1)]), max_vertices=4)


def test_full_representation_sets_equal_independent_set_halfspaces():
    # the walk builds each set's normal from its parent's; it must give
    # what the one-set-at-a-time construction gives, in the same order
    graphs = (standard_battery() + bipartite_battery()
              + tuple(spider(legs) for legs in range(1, 9)))
    for g in graphs:
        check_full_sets(g, full_representation(g))
    # every labelled graph on at most 6 vertices, in the pass shared
    # with two other exhaustive tests
    assert labelled_graph_failures()["full"] == []


def test_independent_set_halfspace_rejects_every_dependent_set():
    for g in connected_graphs_upto(5):
        n = g.vertex_count
        for a in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(1, n + 1)):
            if is_independent(g, a):
                assert independent_set_halfspace(g, a).plane.tag == IndependentSetTag(a)
            else:
                with pytest.raises(ValueError, match="not independent"):
                    independent_set_halfspace(g, a)
        with pytest.raises(ValueError, match="nonempty"):
            independent_set_halfspace(g, ())
        with pytest.raises(ValueError, match="out of range"):
            independent_set_halfspace(g, (n,))


def test_full_representation_isolated_vertex():
    rep = full_representation(parse_graph("a"))
    assert [e.normal for e in rep.equations] == [(1,)]
    assert [(h.plane.normal, h.sense) for h in rep.halfspaces] == [
        ((1,), SENSE_GE), ((1,), SENSE_LE)]


def test_membership_examples():
    assert membership(K13, (1, 1, 1, 3)).is_member
    verdict = membership(K13, (1, 1, 1, 1))
    assert not verdict.is_member
    tag = verdict.violated.plane.tag
    assert isinstance(tag, IndependentSetTag)
    # the witness really is violated: the set outweighs its neighbors
    a = tag.vertices
    assert sum(1 for _ in a) > len(set(w for v in a for w in K13.neighbors[v]))
    assert membership(TRIANGLE, (0, 0, 0)).is_member


def test_membership_apex_and_dimension_mismatch():
    for g in (TRIANGLE, SINGLE, K13):
        assert membership(g, (0,) * g.vertex_count).is_member
    with pytest.raises(ValueError, match="dimension"):
        membership(TRIANGLE, (1, 2))


def test_membership_witnesses_equal_the_neighbor_construction():
    rng = random.Random(41)
    for g in standard_battery() + bipartite_battery():
        n = g.vertex_count
        for x in ([1] * n, [rng.randint(0, 4) for _ in range(n)],
                  [rng.randint(-1, 4) for _ in range(n)]):
            violated = membership(g, x).violated
            if violated is None:
                continue
            tag = violated.plane.tag
            if isinstance(tag, CoordinateTag):
                assert violated == coordinate_halfspace(g, tag.vertex)
            else:
                assert violated == neighbor_halfspace(g, tag.vertices)


def test_membership_witness_is_first_in_deterministic_order():
    verdict = membership(K13, (1, 1, 1, 1))
    # no leaf can leave (0, 1) and keep it violated; dropping from the
    # highest index down removes leaf 2 from the reachable leaves first
    assert verdict.violated.plane.tag == IndependentSetTag((0, 1))
    negative = membership(TRIANGLE, (-1, 0, 0))
    assert negative.violated.plane.tag == CoordinateTag(0)


def test_membership_accepts_exact_decimal_and_fraction_strings():
    x = (Fraction("0.5"), Fraction("1/2"), Fraction(1, 2))
    assert membership(TRIANGLE, x).is_member


@pytest.mark.parametrize("inexact", [0.1, "1", True])
def test_membership_rejects_inexact_coordinates(inexact):
    with pytest.raises(ValueError, match="int or Fraction"):
        membership(SINGLE, (inexact, inexact))
    # so do the halfspace tests: in floats, the exact member
    # (1/10, 3/10, 2/10) of a path's cone misses the balance equation
    rep = canonical_representation(parse_graph("a b\nb c"))
    assert rep.satisfied_by((Fraction(1, 10), Fraction(3, 10), Fraction(2, 10)))
    for check in (rep.satisfied_by, rep.halfspaces[0].margin):
        with pytest.raises(ValueError, match="int or Fraction"):
            check((inexact, 0, 0))


def test_fm_membership_rejects_floats():
    with pytest.raises(ValueError, match="int or Fraction"):
        fm_membership(edge_vectors(SINGLE), (0.5, 0.5))


def test_edge_vectors_and_combinations_are_members():
    rng = random.Random(5)
    for trial in range(12):
        g = random_connected(rng.randint(2, 8), rng, 0.45)
        vectors = edge_vectors(g)
        for v in vectors:
            assert membership(g, v).is_member
        coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in vectors]
        point = tuple(sum(c * v[k] for c, v in zip(coeffs, vectors))
                      for k in range(g.vertex_count))
        assert membership(g, point).is_member


def test_membership_agrees_with_elimination_oracle():
    rng = random.Random(17)
    for trial in range(25):
        g = random_connected(rng.randint(1, 8), rng, 0.4)
        vectors = edge_vectors(g)
        for _ in range(15):
            point = tuple(Fraction(rng.randint(-3, 6), rng.randint(1, 3))
                          for _ in range(g.vertex_count))
            assert membership(g, point).is_member == fm_membership(vectors, point)


def test_connected_bipartite_edge_vectors_satisfy_balance_equation():
    for g in (SINGLE, K13, path(5), cycle(6), complete_bipartite(3, 4)):
        (eq,) = affine_hull(g)
        for v in edge_vectors(g):
            assert sum(c * x for c, x in zip(eq.normal, v)) == 0
