"""Property tests on random graphs with at most 7 vertices (8 for the
witness comparison, 12 for the disjoint unions).

Three independent membership paths must agree: the library's max-flow,
the exhaustive scan over independent sets and the double-description
oracle, and the library's membership witness must equal the one an
Edmonds-Karp flow with the quadratic shrink finds.  Three facet
enumerations must agree too: the library's rank criterion, the
brute-force oracle and, on connected bipartite graphs, the two-sided
connectivity rule, and the closed-set candidates of ``facets`` and
``canonical_representation`` must give what all independent sets give.
Every certificate the library returns is checked directly, and every
halfspace it builds must pass the constructor checks it skipped.
Examples are derandomized, so every run tests the same inputs.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from edgecone import (IndependentSetTag, brute_force_facet_generator_sets,
                      canonical_representation, edge_vectors, facets,
                      fm_membership, full_representation, has_perfect_matching,
                      independent_set_halfspace, independent_sets,
                      integer_decompose, is_independent, membership,
                      neighbor_set)
from battery import (build, check_witness, checked_rebuild, combinatorial_facet_sets,
                     disjoint_union, library_halfspaces, on_edges,
                     reference_canonical, reference_facets,
                     reference_hall_violator, scan_membership)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def graphs(draw, bipartite=False, max_vertices=7):
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    if bipartite:
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pairs = [(i, j) for i, j in pairs if side[i] != side[j]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build(n, [pair for pair, kept in zip(pairs, keep) if kept])


@st.composite
def connected_bipartite_graphs(draw, max_vertices=7):
    """A random spanning tree, 2-coloured along its edges, plus random
    edges between the two colours."""
    n = draw(st.integers(1, max_vertices))
    side = [False]
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.add((parent, v))
        side.append(not side[parent])
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
             if side[i] != side[j] and (i, j) not in edges]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges.update(pair for pair, kept in zip(pairs, keep) if kept)
    return build(n, edges)


@st.composite
def unions(draw):
    """Two graphs side by side plus up to two isolated vertices, the
    vertices then relabeled at random, so that isolated vertices fall
    below and above the members of the sets that cut facets."""
    parts = [draw(st.one_of(graphs(max_vertices=5),
                            connected_bipartite_graphs(max_vertices=5)))
             for _ in range(2)]
    parts += [build(1, [])] * draw(st.integers(0, 2))
    n = sum(g.vertex_count for g in parts)
    return disjoint_union(parts, draw(st.permutations(range(n))))


@st.composite
def graph_and_point(draw):
    """A graph with either a nonnegative rational combination of its edge
    vectors or an arbitrary rational point."""
    g = draw(graphs())
    n = g.vertex_count
    if g.edges and draw(st.booleans()):
        weights = draw(st.lists(st.fractions(0, 6, max_denominator=4),
                                min_size=len(g.edges), max_size=len(g.edges)))
        point = [Fraction(0)] * n
        for w, (i, j) in zip(weights, g.edges):
            point[i] += w
            point[j] += w
        return g, tuple(point)
    point = draw(st.lists(st.fractions(-3, 6, max_denominator=3),
                          min_size=n, max_size=n))
    return g, tuple(point)


@PROPERTY
@given(graph_and_point())
def test_flow_scan_and_elimination_agree(case):
    g, x = case
    flow = membership(g, x)
    assert flow.is_member == scan_membership(g, x) \
        == fm_membership(edge_vectors(g), x)
    if flow.is_member:
        assert flow.violated is None
    else:
        check_witness(g, x, flow.violated)


@PROPERTY
@given(st.one_of(graphs(max_vertices=8), graphs(bipartite=True, max_vertices=8),
                 unions()), st.data())
def test_membership_witness_matches_edmonds_karp_reference(g, data):
    # the residual graph reaches the source side of the minimal minimum
    # cut for every maximum flow, so the witness cannot depend on the
    # flow the engine finds; bipartite components route one copy of the
    # double cover, and their side-2 members come from the sink's reach
    point = tuple(data.draw(st.lists(st.integers(0, 4), min_size=g.vertex_count,
                                     max_size=g.vertex_count)))
    expected = reference_hall_violator(g, point)
    verdict = membership(g, point)
    if expected is None:
        assert verdict.is_member
    else:
        assert verdict.violated.plane.tag == IndependentSetTag(expected)


@PROPERTY
@given(graphs(bipartite=True), st.data())
def test_integer_decompositions_round_trip(g, data):
    counts = data.draw(st.lists(st.integers(0, 3), min_size=len(g.edges),
                                max_size=len(g.edges)))
    target = [0] * g.vertex_count
    for c, (i, j) in zip(counts, g.edges):
        target[i] += c
        target[j] += c
    result = integer_decompose(g, tuple(target))
    assert result and result.decomposition.target(g) == tuple(target)
    b = tuple(data.draw(st.lists(st.integers(-1, 3), min_size=g.vertex_count,
                                 max_size=g.vertex_count)))
    result = integer_decompose(g, b)
    assert bool(result) == scan_membership(g, b)
    if result:
        assert result.decomposition.target(g) == b
    else:
        check_witness(g, b, result.violated)


@PROPERTY
@given(graphs(bipartite=True))
def test_matching_violators_outnumber_their_neighbors(g):
    result = has_perfect_matching(g)
    if result:
        covered = sorted(v for e in result.matching for v in g.edges[e])
        assert covered == list(range(g.vertex_count))
    else:
        a = result.violator
        assert is_independent(g, a) and len(a) > len(neighbor_set(g, a))


@PROPERTY
@given(st.one_of(graphs(), graphs(bipartite=True), connected_bipartite_graphs()))
def test_rank_brute_force_and_connectivity_facets_coincide(g):
    by_rank = frozenset(frozenset(f.generators_on) for f in facets(g))
    assert by_rank == brute_force_facet_generator_sets(edge_vectors(g))
    if g.is_connected() and g.is_bipartite():
        assert by_rank == combinatorial_facet_sets(g)


@PROPERTY
@given(st.one_of(graphs(), unions(), connected_bipartite_graphs()))
def test_closed_sets_match_the_all_sets_route(g):
    fs = facets(g)
    assert fs == reference_facets(g)
    if g.edges and g.is_connected() and g.is_bipartite():
        rep = canonical_representation(g)
        assert rep == reference_canonical(g)
        if fs:  # a single edge has no facet but one halfspace
            assert {f.generators_on for f in fs} == \
                {on_edges(g, h) for h in rep.halfspaces}


@PROPERTY
@given(unions())
def test_full_representation_sets_equal_independent_set_halfspaces(g):
    assert list(full_representation(g).halfspaces[g.vertex_count:]) == [
        independent_set_halfspace(g, a) for a in sorted(independent_sets(g))]


@PROPERTY
@given(st.one_of(graphs(), graphs(bipartite=True), connected_bipartite_graphs()))
def test_library_halfspaces_pass_the_constructor_checks(g):
    for source, h in library_halfspaces(g, full_representation(g), facets(g)):
        assert checked_rebuild(h) == h, source
