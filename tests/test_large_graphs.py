"""Membership, integer decomposition and perfect matching on graphs far
above the enumeration gate: every decision is polynomial and comes with
a certificate that is checked here."""

import random
import tracemalloc

import pytest

from edgecone import (CoordinateTag, Graph, GraphRequirementError,
                      IndependentSetTag, bipartite_facet_check,
                      coordinate_halfspace, dual_facet, face_dimension,
                      has_perfect_matching, integer_decompose, is_independent,
                      membership, neighbor_set)
from battery import build, check_witness, cycle, path, random_connected


def shared_neighbor_graph(n: int):
    """A path on ``n - 2`` vertices plus two leaves whose only neighbor
    is the path's last vertex: bipartite, with no perfect matching."""
    edges = [(i, i + 1) for i in range(n - 3)]
    return build(n, edges + [(n - 3, n - 2), (n - 3, n - 1)])


def test_graph_memory_is_linear():
    # one bitmask per vertex would hold about n**2 / 2 bits in all on a
    # path: some 30 MB at this size, against about 7 MB for the lists
    n = 20_000
    labels = tuple(f"v{i}" for i in range(n))
    edges = tuple((i, i + 1) for i in range(n - 1))
    tracemalloc.start()
    try:
        Graph(labels, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15_000_000


def test_bond_checks_build_no_bitmasks():
    # one bitmask per vertex would hold about 25 MB on this path; the
    # neighbor lists of the split and the facet's normal take about 3 MB
    g = path(20_000)
    tracemalloc.start()
    try:
        assert bipartite_facet_check(g, [0])
        assert not bipartite_facet_check(g, [2])  # leaves vertex 0 apart
        dual = dual_facet(g, [0])
        assert face_dimension(g, coordinate_halfspace(g, 0)) == 19_998
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dual.plane.tag == IndependentSetTag(tuple(range(3, 20_000, 2)))
    assert dual_facet(g, range(2, 20_000, 2)).plane.tag == CoordinateTag(0)
    assert "masks" not in vars(g)
    assert peak < 10_000_000


def test_long_odd_cycle_membership():
    g = cycle(199)
    ones = (1,) * 199
    assert membership(g, ones).is_member  # half of every edge
    for x in ((3,) + ones[1:], ones[:-1] + (-1,), (0, 5) + (1,) * 197):
        verdict = membership(g, x)
        assert not verdict.is_member
        check_witness(g, x, verdict.violated)


def test_sparse_random_graph_membership():
    g = random_connected(2000, random.Random(1), 0.002)
    ones = (1,) * g.vertex_count
    assert membership(g, ones).is_member
    leaf = next(v for v in range(g.vertex_count) if len(g.neighbors[v]) == 1)
    x = ones[:leaf] + (2,) + ones[leaf + 1:]  # the leaf outweighs its neighbor
    verdict = membership(g, x)
    assert not verdict.is_member
    check_witness(g, x, verdict.violated)
    assert not g.is_bipartite()
    with pytest.raises(GraphRequirementError):
        has_perfect_matching(g)
    with pytest.raises(GraphRequirementError):
        integer_decompose(g, ones)


@pytest.mark.parametrize("g, matchable", [
    (path(200), True), (path(199), False), (shared_neighbor_graph(60), False),
    (cycle(800), True), (path(801), False)],
    ids=["path200", "path199", "shared_neighbor60", "cycle800", "path801"])
def test_bipartite_decisions_with_certificates(g, matchable):
    n = g.vertex_count
    ones = (1,) * n
    verdict = membership(g, ones)
    assert verdict.is_member == matchable
    if not matchable:
        check_witness(g, ones, verdict.violated)

    matching = has_perfect_matching(g)
    assert matching.has_matching == matchable
    if matchable:
        covered = sorted(v for e in matching.matching for v in g.edges[e])
        assert covered == list(range(n))
    else:
        a = matching.violator
        assert is_independent(g, a) and len(a) > len(neighbor_set(g, a))

    target = [0] * n
    for e, (i, j) in enumerate(g.edges):
        target[i] += e % 3
        target[j] += e % 3
    result = integer_decompose(g, tuple(target))
    assert result and result.decomposition.target(g) == tuple(target)
    target[0] += 1  # an odd coordinate sum has no decomposition
    result = integer_decompose(g, tuple(target))
    assert not result
    check_witness(g, target, result.violated)
