import itertools
import re

import pytest

from edgecone import (EdgeListParseError, EnumerationGateError, Graph,
                      bipartite_component_count, bipartite_facet_check,
                      dual_facet, edge_vectors, independent_set_halfspace,
                      independent_sets, is_independent, neighbor_set,
                      parse_graph, vertex_set)
from battery import (all_graphs, bipartite_battery, build, colour_search_structure,
                     complete, cycle, path, random_connected, standard_battery,
                     star)
from edgecone.graph import _frame

import random

TRIANGLE = "a b\nb c\nc a"


def test_parse_triangle():
    g = parse_graph(TRIANGLE)
    assert g.vertices == ("a", "b", "c")
    assert g.edges == ((0, 1), (1, 2), (0, 2))
    assert len(g.components) == 1
    assert g.bipartitions == (None,)


def test_parse_single_edge():
    g = parse_graph("a b")
    assert g.vertices == ("a", "b")
    assert g.edges == ((0, 1),)
    assert g.bipartitions == (((0,), (1,)),)


def test_parse_first_appearance_order():
    g = parse_graph("c a\na b")
    assert g.vertices == ("c", "a", "b")
    assert g.index_of("b") == 2
    with pytest.raises(KeyError):
        g.index_of("z")


def test_parse_comments_blanks_isolated():
    g = parse_graph("# header\n\na b\n\nlonely\n# trailing\n")
    assert g.vertices == ("a", "b", "lonely")
    assert g.edges == ((0, 1),)
    assert len(g.components) == 2


def test_parse_rejects_loop_with_line_number():
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_graph("a b\na a")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(EdgeListParseError, match="duplicate"):
        parse_graph("a b\nb a")


def test_parse_rejects_malformed_line():
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_graph("a b c")


def test_graph_rejects_unnormalized_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(("a", "b"), ((1, 0),))
    with pytest.raises(ValueError):
        Graph(("a", "b"), ((0, 5),))
    with pytest.raises(ValueError):
        Graph(("a", "a"), ())


@pytest.mark.parametrize("edges, message", [
    (((0, 0),), "loop at vertex 0"),
    (((0, 1), (0, 1)), r"duplicate edge \(0, 1\)"),
    # each edge is checked in full before the next: range, loop,
    # normalization, duplicate
    (((3, 3),), r"edge \(3, 3\) out of range"),
    (((1, 1), (0, 2)), "loop at vertex 1"),
    (((0, 1), (0, 1), (1, 1)), r"duplicate edge \(0, 1\)"),
    (((0, 1), (1, 1), (0, 1)), "loop at vertex 1"),
    (((0, 1), (1, 0)), r"edge \(1, 0\) not normalized"),
    (((1, 0), (1, 0)), r"edge \(1, 0\) not normalized"),
    (((0, 1), (0, 2), (1, 2), (0, 2)), r"duplicate edge \(0, 2\)"),
])
def test_graph_rejects_loops_and_duplicates_in_edge_order(edges, message):
    # parse_graph rejects these first, so only direct construction
    # reaches the checks in Graph
    with pytest.raises(ValueError, match=message):
        Graph(("a", "b", "c"), edges)


def test_graph_copies_a_mutable_edge_list():
    edges = [(0, 1)]
    g = Graph(["a", "b", "c"], edges)
    edges.append((1, 2))
    assert g.vertices == ("a", "b", "c") and g.edges == ((0, 1),)
    assert g.components == ((0, 1), (2,))
    assert hash(g) == hash(Graph(("a", "b", "c"), ((0, 1),)))


def test_graph_takes_an_edge_given_as_a_list():
    g = Graph(("a", "b"), ([0, 1],))
    assert g.edges == ((0, 1),) and g == parse_graph("a b")
    assert hash(g) == hash(parse_graph("a b"))


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), [0, 1, 2], 5])
def test_graph_rejects_an_edge_that_is_not_a_pair(edge):
    with pytest.raises(ValueError, match=rf"edge {re.escape(repr(edge))} is not a pair"):
        Graph(("a", "b", "c"), ((0, 1), edge))


def test_structure_equals_the_colour_search():
    graphs = itertools.chain(
        (g for n in range(7) for g in all_graphs(n)), standard_battery(),
        bipartite_battery(),
        (path(801), cycle(800), random_connected(2000, random.Random(1), 0.002)))
    for g in graphs:
        assert (g.neighbors, g.components, g.bipartitions) \
            == colour_search_structure(g), g.edges
        assert _frame(g)[0] == [sum(1 << w for w in a) for a in g.neighbors]


def test_many_small_components():
    matching = build(10_000, [(2 * k, 2 * k + 1) for k in range(5_000)])
    assert matching.components == tuple((2 * k, 2 * k + 1) for k in range(5_000))
    assert matching.bipartitions == tuple(((2 * k,), (2 * k + 1,)) for k in range(5_000))
    isolated = build(10_000, [])
    assert isolated.components == tuple((v,) for v in range(10_000))
    assert isolated.bipartitions == tuple(((v,), ()) for v in range(10_000))
    assert not any(_frame(isolated)[0])


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
def test_vertex_indices_must_be_ints(bad):
    g = star(3)
    calls = (lambda a: vertex_set(g, a),
             lambda a: independent_set_halfspace(g, a),
             lambda a: neighbor_set(g, a),
             lambda a: is_independent(g, a),
             lambda a: bipartite_facet_check(g, a),
             lambda a: dual_facet(g, a))
    for call in calls:
        for a in ([bad], [0, bad], [1, bad]):  # [1, True] is not {1}
            with pytest.raises(ValueError, match="vertex index must be an int"):
                call(a)
    assert vertex_set(g, iter([2, 0, 2])) == (0, 2)
    # edge indices take the same check: (False, True) is not (0, 1), and
    # (0, 1.0) fails here rather than in the bitmask arithmetic
    for edge in ((0, bad), (bad, 1), (False, True)):
        with pytest.raises(ValueError, match="vertex index must be an int"):
            Graph(("a", "b"), (edge,))


@pytest.mark.parametrize("bad", [1, 2.5, None, b"a"])
def test_vertex_labels_must_be_strs(bad):
    # checked before the duplicate check, which (1, 1) would fail
    for labels in ((bad,), ("a", bad), (bad, bad)):
        with pytest.raises(ValueError, match=re.escape(f"vertex label must be a str, got {bad!r}")):
            Graph(labels, ())
    with pytest.raises(ValueError, match="vertex label must be a str"):
        Graph(("a", bad), ((0, 1),))


def test_bipartition_side1_contains_smallest_index():
    # center last: side 1 must be the leaf side
    g = star(3)
    assert g.bipartitions[0] == ((0, 1, 2), (3,))
    # center first: side 1 is the {center} side
    g2 = parse_graph("d a\nd b\nd c")
    assert g2.bipartitions[0] == ((0,), (1, 2, 3))


def test_neighbor_set():
    g = star(3)
    assert neighbor_set(g, [3]) == (0, 1, 2)
    assert neighbor_set(g, []) == ()
    p3 = path(3)
    assert neighbor_set(p3, [0, 2]) == (1,)
    with pytest.raises(ValueError):
        neighbor_set(g, [9])


def test_is_independent():
    tri = parse_graph(TRIANGLE)
    assert not is_independent(tri, [0, 1])
    assert is_independent(star(3), [0, 1, 2])
    assert is_independent(tri, [])


def test_independent_sets_small_graphs():
    single = parse_graph("a b")
    assert list(independent_sets(single)) == [(0,), (1,)]
    tri = parse_graph(TRIANGLE)
    assert list(independent_sets(tri)) == [(0,), (1,), (2,)]
    k13 = star(3)
    got = set(independent_sets(k13))
    leaves = {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    assert got == leaves | {(3,)}


def test_independent_sets_order_is_size_then_lex():
    g = path(4)
    sets = list(independent_sets(g))
    assert sets == sorted(sets, key=lambda a: (len(a), a))
    assert sets[0] == (0,)


def test_independent_sets_gate():
    g = build(6, [(0, 1)])
    with pytest.raises(EnumerationGateError, match="exponential enumeration"):
        list(independent_sets(g, max_vertices=5))
    # override allows it
    assert len(list(independent_sets(g, max_vertices=6))) > 0
    # the default gate refuses before the first set
    with pytest.raises(EnumerationGateError, match="21 vertices exceed the gate of 20"):
        next(independent_sets(build(21, [])))
    assert next(independent_sets(build(20, []))) == (0,)


def _filtered_combinations(g):
    """Every nonempty independent set by filtering all subsets, in
    (size, lex) order."""
    n = g.vertex_count
    masks = [0] * n
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    out = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            bits = 0
            for v in combo:
                if masks[v] & bits:
                    break
                bits |= 1 << v
            else:
                out.append(combo)
    return out


def test_enumeration_matches_exhaustive_filter():
    rng = random.Random(7)
    graphs = [random_connected(rng.randint(2, 10), rng, 0.35)
              for _ in range(8)]
    graphs.append(random_connected(12, rng, 0.3))
    for g in graphs + list(standard_battery()):
        assert list(independent_sets(g)) == _filtered_combinations(g), g.edges
    matching = build(20, [(2 * k, 2 * k + 1) for k in range(10)])
    sets = list(independent_sets(matching))
    assert len(sets) == 3 ** 10 - 1
    assert sets == _filtered_combinations(matching)
    k20 = complete(20)
    assert list(independent_sets(k20)) == [(v,) for v in range(20)]
    assert _filtered_combinations(k20) == [(v,) for v in range(20)]


def test_bipartite_component_count():
    assert bipartite_component_count(parse_graph(TRIANGLE)) == 0
    assert bipartite_component_count(parse_graph("a b")) == 1
    assert bipartite_component_count(parse_graph("a b\nb c\nc a\nx y")) == 1
    assert bipartite_component_count(parse_graph("a")) == 1
    # matches the number of stored bipartitions
    g = parse_graph("a b\nb c\nc a\nu v\nw")
    assert bipartite_component_count(g) == sum(
        1 for b in g.bipartitions if b is not None)


def test_edge_vectors():
    tri = parse_graph(TRIANGLE)
    assert edge_vectors(tri) == ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    assert edge_vectors(parse_graph("a b")) == ((1, 1),)
    assert edge_vectors(parse_graph("a\nb")) == ()


def test_neighbors_symmetric_across_edges():
    rng = random.Random(11)
    for trial in range(10):
        g = random_connected(rng.randint(2, 9), rng, 0.4)
        for i, j in g.edges:
            assert j in neighbor_set(g, [i])
            assert i in neighbor_set(g, [j])


def test_independence_matches_edge_vector_support():
    rng = random.Random(13)
    for trial in range(6):
        g = random_connected(rng.randint(2, 8), rng, 0.5)
        vectors = edge_vectors(g)
        for size in range(1, g.vertex_count + 1):
            for a in itertools.combinations(range(g.vertex_count), size):
                inside = set(a)
                support_free = all(
                    not set(k for k, c in enumerate(v) if c) <= inside
                    for v in vectors)
                assert is_independent(g, a) == support_free
