import hashlib
import importlib
import itertools
import random
import time

import pytest

from edgecone import (CoordinateTag, EnumerationGateError, GraphRequirementError,
                      IndependentSetTag, NotSupportingHyperplaneError,
                      bipartite_facet_check, brute_force_facet_generator_sets,
                      brute_force_facets, canonical_representation,
                      cone_dimension, coordinate_halfspace, dual_facet,
                      edge_vectors, face_dimension, facets, fm_membership,
                      full_representation, independent_set_halfspace,
                      independent_sets, is_facet, membership, neighbor_set,
                      parse_graph, rational_rank, remove_redundant)
from edgecone.cone import Hyperplane
from edgecone.facets import _directed_bonds, _edge_rank
from edgecone.graph import _frame
from edgecone.rational import dot
from battery import (_induced_connected, all_graphs, bipartite_battery, build,
                     combinatorial_facet_sets, complete_bipartite,
                     connected_graphs_upto, cycle, disjoint_union,
                     labelled_graph_failures, neighbor_halfspace, on_edges, path,
                     random_connected_bipartite, reference_canonical,
                     reference_directed_bonds, reference_facets, seeded_unions,
                     spider, standard_battery, star)

TRIANGLE = parse_graph("a b\nb c\nc a")
K13 = star(3)  # leaves 0,1,2 ; center 3
K23 = complete_bipartite(2, 3)  # side 1 = {0, 1}


def test_is_facet_star_leaf_coordinate():
    assert is_facet(K13, coordinate_halfspace(K13, 0))


def test_is_facet_star_center_coordinate():
    center = coordinate_halfspace(K13, 3)
    assert not is_facet(K13, center)
    # the face it cuts is the apex: no edge vector lies on it
    assert face_dimension(K13, center) == 0


def test_is_facet_triangle_singleton():
    assert is_facet(TRIANGLE, independent_set_halfspace(TRIANGLE, [0]))
    assert not is_facet(TRIANGLE, coordinate_halfspace(TRIANGLE, 0))


def test_cones_of_dimension_at_most_one_have_no_facet():
    single = parse_graph("a b")
    assert cone_dimension(single) == 1
    for h in full_representation(single).halfspaces:
        assert not is_facet(single, h)
    isolated = parse_graph("a")
    assert cone_dimension(isolated) == 0
    assert not is_facet(isolated, coordinate_halfspace(isolated, 0))


def test_is_facet_distinguishes_non_supporting():
    with pytest.raises(NotSupportingHyperplaneError,
                       match=r"hyperplane \(1, -1, 0\) has edge vectors strictly on both sides"):
        is_facet(TRIANGLE, Hyperplane((1, -1, 0)))


def test_facets_star():
    fs = facets(K13)
    assert len(fs) == 3
    assert [f.halfspace.plane.tag for f in fs] == [
        CoordinateTag(0), CoordinateTag(1), CoordinateTag(2)]
    assert [f.generators_on for f in fs] == [(1, 2), (0, 2), (0, 1)]


def test_facets_complete_bipartite_all_coordinate():
    for m in range(2, 5):
        for n in range(m, 5):
            fs = facets(complete_bipartite(m, n))
            assert len(fs) == m + n
            assert all(isinstance(f.halfspace.plane.tag, CoordinateTag)
                       for f in fs)


def test_facets_single_edge_empty():
    assert facets(parse_graph("a b")) == ()
    assert facets(parse_graph("a")) == ()


def test_facets_triangle():
    fs = facets(TRIANGLE)
    assert [f.halfspace.plane.tag for f in fs] == [
        IndependentSetTag((0,)), IndependentSetTag((1,)), IndependentSetTag((2,))]


def test_facet_rank_invariant():
    for g in (TRIANGLE, K13, K23, cycle(6)):
        dim = cone_dimension(g)
        vectors = edge_vectors(g)
        for f in facets(g):
            assert rational_rank([vectors[i] for i in f.generators_on]) == dim - 1
            assert all(f.halfspace.margin(v) >= 0 for v in vectors)
    # the combinatorial face rank equals exact elimination on every
    # candidate: coordinate and independent-set halfspaces over the whole
    # battery, and the oracle's raw facet normals over its exhaustive
    # part (every connected graph on <= 5 vertices) and every fifth of
    # its random 6-7-vertex graphs (about 30 ms each for the oracle)
    exhaustive = len(connected_graphs_upto(5))
    for index, g in enumerate(standard_battery()):
        vectors = edge_vectors(g)
        planes = [coordinate_halfspace(g, v).plane
                  for v in range(g.vertex_count)]
        planes += [independent_set_halfspace(g, a).plane
                   for a in independent_sets(g)]
        if index < exhaustive or (index - exhaustive) % 5 == 0:
            planes += brute_force_facets(vectors)
        for plane in planes:
            on = [v for v in vectors if dot(plane.normal, v) == 0]
            assert face_dimension(g, plane) == rational_rank(on), (g.edges, plane)


def test_edge_rank_equals_elimination_on_random_edge_sets():
    # shuffled, so that trees also merge after both closed odd cycles
    rng = random.Random(5)
    for g in standard_battery():
        vectors = edge_vectors(g)
        for _ in range(4):
            on = [idx for idx in range(len(vectors)) if rng.random() < 0.5]
            rng.shuffle(on)
            assert _edge_rank(g, on) == rational_rank(
                [vectors[idx] for idx in on]), (g.edges, on)
    # every edge subset of every labeled graph on at most 4 vertices
    for g in (g for n in range(5) for g in all_graphs(n)):
        vectors = edge_vectors(g)
        for k in range(len(vectors) + 1):
            for on in itertools.combinations(range(len(vectors)), k):
                assert _edge_rank(g, on) == rational_rank(
                    [vectors[idx] for idx in on]), (g.edges, on)
    # two triangles joined last: 6 touched vertices, no bipartite piece
    bowtie = parse_graph("a b\nb c\nc a\nx y\ny z\nz x\nc x")
    assert _edge_rank(bowtie, range(7)) == 6
    assert _edge_rank(bowtie, [0, 1, 2, 3, 4, 6]) == 6
    assert _edge_rank(bowtie, [0, 1, 3, 4]) == 4


def test_face_dimension_rejects_wrong_length_normals():
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        face_dimension(TRIANGLE, Hyperplane((1, -1)))
    with pytest.raises(ValueError, match="dimension mismatch: 4 vs 3"):
        face_dimension(TRIANGLE, Hyperplane((1, -1, 0, 0)))


def test_bipartite_facet_check_c6():
    c6 = cycle(6)  # side 1 = {0, 2, 4}
    assert bipartite_facet_check(c6, [0])
    assert bipartite_facet_check(c6, [0, 2])


def test_bipartite_facet_check_k23():
    assert bipartite_facet_check(K23, [0])


def test_bipartite_facet_check_p4():
    p4 = path(4)  # side 1 = {0, 2}
    assert bipartite_facet_check(p4, [0])


def test_bipartite_facet_check_rejections():
    with pytest.raises(ValueError):
        bipartite_facet_check(cycle(6), [0, 2, 4])  # equals side 1
    with pytest.raises(ValueError):
        bipartite_facet_check(K23, [0, 1])  # not strictly inside
    with pytest.raises(GraphRequirementError):
        bipartite_facet_check(TRIANGLE, [0])
    with pytest.raises(GraphRequirementError):
        bipartite_facet_check(parse_graph("a b\nc d"), [0])  # disconnected


@pytest.mark.parametrize("call", [bipartite_facet_check, dual_facet])
def test_empty_and_dependent_sets_are_rejected(call):
    with pytest.raises(ValueError, match="^independent set must be nonempty$"):
        call(cycle(6), [])
    with pytest.raises(ValueError, match=r"^vertex set \(0, 1\) is not independent$"):
        call(cycle(6), [0, 1])


def test_bipartite_facet_check_agrees_with_rank_criterion():
    rng = random.Random(23)
    for trial in range(15):
        g = random_connected_bipartite(rng.randint(3, 8), rng, 0.35)
        side1 = set(g.bipartitions[0][0])
        for a in independent_sets(g):
            if set(a) < side1:
                combinatorial = bipartite_facet_check(g, a)
                ranked = is_facet(g, independent_set_halfspace(g, a))
                assert combinatorial == ranked, (g.edges, a)
    # an independent reference for both checks: the split into A + N(A)
    # and the rest is a directed bond iff both halves are connected
    for g in connected_graphs_upto(5) + bipartite_battery():
        if not g.is_bipartite():
            continue
        side1, side2 = g.bipartitions[0]
        for a in independent_sets(g):
            if not set(a) < set(side1):
                continue
            half = set(a + neighbor_set(g, a))
            rest = [v for v in range(g.vertex_count) if v not in half]
            bond = _induced_connected(g, half) and _induced_connected(g, rest)
            assert bipartite_facet_check(g, a) == bond, (g.edges, a)
            if bond:
                tag = (CoordinateTag(rest[0]) if len(rest) == 1
                       else IndependentSetTag(tuple(v for v in side2 if v not in half)))
                assert dual_facet(g, a).plane.tag == tag, (g.edges, a)


def test_dual_facet_k23():
    dual = dual_facet(K23, [0])
    assert dual.plane.tag == CoordinateTag(1)


def test_dual_facet_c6():
    dual = dual_facet(cycle(6), [0])
    assert dual.plane.tag == IndependentSetTag((3,))
    assert neighbor_set(cycle(6), [3]) == (2, 4)


def test_dual_facet_star():
    dual = dual_facet(K13, [0, 1])
    assert dual.plane.tag == CoordinateTag(2)


def test_dual_facet_cuts_the_same_facet():
    rng = random.Random(29)
    for trial in range(12):
        g = random_connected_bipartite(rng.randint(3, 8), rng, 0.3)
        side1 = set(g.bipartitions[0][0])
        vectors = edge_vectors(g)
        for a in independent_sets(g):
            if set(a) < side1 and bipartite_facet_check(g, a):
                original = independent_set_halfspace(g, a)
                dual = dual_facet(g, a)
                on_a = [i for i, v in enumerate(vectors)
                        if original.margin(v) == 0]
                on_dual = [i for i, v in enumerate(vectors)
                           if dual.margin(v) == 0]
                assert on_a == on_dual


def test_dual_facets_equal_the_neighbor_construction():
    for g in bipartite_battery():
        if g.vertex_count > 6 or cone_dimension(g) <= 1:
            continue
        side1 = set(g.bipartitions[0][0])
        for a in independent_sets(g):
            if set(a) < side1 and bipartite_facet_check(g, a):
                dual = dual_facet(g, a)
                tag = dual.plane.tag
                if isinstance(tag, CoordinateTag):
                    assert dual == coordinate_halfspace(g, tag.vertex)
                else:
                    assert dual == neighbor_halfspace(g, tag.vertices)


def test_dual_facet_rejects_non_facet():
    # {v1, v5} in C8 leaves a disconnected remainder
    c8 = cycle(8)
    assert not bipartite_facet_check(c8, [0, 4])
    with pytest.raises(ValueError):
        dual_facet(c8, [0, 4])


def test_canonical_star():
    rep = canonical_representation(K13)
    assert rep.kind == "canonical_bipartite"
    assert [e.normal for e in rep.equations] == [(1, 1, 1, -1)]
    assert [h.plane.tag for h in rep.halfspaces] == [
        IndependentSetTag((0, 1)), IndependentSetTag((0, 2)),
        IndependentSetTag((1, 2))]


def test_canonical_k23():
    rep = canonical_representation(K23)
    assert [h.plane.tag for h in rep.halfspaces] == [
        CoordinateTag(2), CoordinateTag(3), CoordinateTag(4),
        IndependentSetTag((0,)), IndependentSetTag((1,))]
    assert len(rep.halfspaces) == 5


def test_canonical_c4():
    rep = canonical_representation(cycle(4))
    assert [e.normal for e in rep.equations] == [(1, -1, 1, -1)]
    assert [h.plane.tag for h in rep.halfspaces] == [
        CoordinateTag(1), CoordinateTag(3),
        IndependentSetTag((0,)), IndependentSetTag((2,))]


def test_canonical_tags_live_on_the_right_sides():
    rng = random.Random(31)
    for trial in range(10):
        g = random_connected_bipartite(rng.randint(2, 8), rng, 0.4)
        side1, side2 = g.bipartitions[0]
        rep = canonical_representation(g)
        for h in rep.halfspaces:
            tag = h.plane.tag
            if isinstance(tag, CoordinateTag):
                assert tag.vertex in side2
            else:
                assert set(tag.vertices) < set(side1)


def test_canonical_single_edge():
    rep = canonical_representation(parse_graph("a b"))
    assert [e.normal for e in rep.equations] == [(1, -1)]
    assert [h.plane.tag for h in rep.halfspaces] == [CoordinateTag(1)]


def test_canonical_rejects_bad_graphs():
    with pytest.raises(GraphRequirementError):
        canonical_representation(TRIANGLE)
    with pytest.raises(GraphRequirementError):
        canonical_representation(parse_graph("a b\nc d"))
    with pytest.raises(GraphRequirementError):
        canonical_representation(parse_graph("a"))


def test_structural_operations_reject_the_empty_graph():
    empty = parse_graph("")
    for call in (canonical_representation,
                 lambda g: remove_redundant(g, full_representation(g)),
                 lambda g: bipartite_facet_check(g, [0]),
                 lambda g: dual_facet(g, [0])):
        with pytest.raises(GraphRequirementError, match="no vertices"):
            call(empty)


def test_facets_and_canonical_refuse_graphs_above_the_gate():
    for call in (facets, canonical_representation):
        with pytest.raises(EnumerationGateError,
                           match="6 vertices exceed the gate of 5"):
            call(path(6), max_vertices=5)
        assert call(path(6), max_vertices=6)
        with pytest.raises(EnumerationGateError,
                           match="21 vertices exceed the gate of 20"):
            call(path(21))
    # the gate follows the dimension check: a single edge has no facet
    # and is answered at any gate
    single = parse_graph("a b")
    assert facets(single, max_vertices=0) == ()
    assert [h.plane.tag for h in
            canonical_representation(single, max_vertices=0).halfspaces] == [
        CoordinateTag(1)]


def test_closed_sets_match_the_all_sets_route_exhaustively():
    # every labeled graph on at most 5 vertices (isolated vertices and
    # disconnected graphs included), every connected bipartite one on 6,
    # every 6-vertex one with two or more components that hold an edge
    # and a seeded sample of other 6-vertex ones, in the pass shared
    # with two other exhaustive tests
    assert labelled_graph_failures()["all_sets"] == []


def test_structure_outputs_are_pinned():
    """sha256 over ``repr`` of ``full_representation``, ``facets`` and
    the list of ``independent_sets`` of each graph below, then of
    ``remove_redundant`` and ``canonical_representation`` where they
    apply.  The digest was taken before the walks of
    ``full_representation``, ``independent_sets`` and
    ``_directed_bonds`` were rewritten for speed: any change to an
    output, or to its order, shows here."""
    graphs = (standard_battery() + bipartite_battery() + seeded_unions(60, 7, 12)
              + tuple(g for n in range(6) for g in all_graphs(n)))
    digest = hashlib.sha256()
    for g in graphs:
        full = full_representation(g)
        outputs = [full, facets(g), list(independent_sets(g))]
        if g.vertex_count and g.is_connected() and g.is_bipartite():
            outputs.append(remove_redundant(g, full))
            if g.edges:
                outputs.append(canonical_representation(g))
        digest.update(repr(outputs).encode())
    assert len(graphs) == 2766
    assert digest.hexdigest() == \
        "6b16d614839a65321635e0fb8c8d5f0702f3f93094db649e9bbc907fa7d966e6"


def test_bond_walk_matches_the_walk_without_forced_moves():
    # the forced move changes the nodes the walk visits, not the bonds it
    # lists: the same bonds, each once, on the connected bipartite
    # battery, on random connected bipartite graphs up to 40 vertices and
    # on the bipartite components of disjoint unions
    walks = [(_frame(g)[0], g.bipartitions[0][0], g.components[0])
             for g in bipartite_battery() if g.is_connected()]
    rng = random.Random(26)
    for n in range(8, 41, 4):
        for degree in (1.5, 2.5, 4):
            g = random_connected_bipartite(n, rng, degree / n)
            walks.append((_frame(g)[0], g.bipartitions[0][0], g.components[0]))
    for g in seeded_unions(100, 26, 16):
        walks += [(_frame(g)[0], sides[0], component)
                  for component, sides in zip(g.components, g.bipartitions) if sides]
    for masks, side1, component in walks:
        side1, universe = sum(1 << v for v in side1), sum(1 << v for v in component)
        assert sorted(_directed_bonds(masks, side1, universe)) == \
            sorted(reference_directed_bonds(masks, side1, universe)), (side1, universe)


def test_long_path_takes_seconds():
    # without the forced move the bond walk took time cubic in the
    # length of a path: 20 s for these facets on a 2-vCPU VM
    g = path(1000)
    start = time.perf_counter()
    found = facets(g, max_vertices=1000)
    canonical = canonical_representation(g, max_vertices=1000)
    elapsed = time.perf_counter() - start
    # each facet holds every edge but one, a different one each time
    edges = set(range(999))
    assert sorted(tuple(edges.difference(f.generators_on)) for f in found) == \
        [(k,) for k in range(999)]
    assert sorted(on_edges(g, h) for h in canonical.halfspaces) == \
        sorted(f.generators_on for f in found)
    assert elapsed < 6, elapsed


def test_facets_of_connected_bipartite_graphs_take_no_rank(monkeypatch):
    # when every component is bipartite the directed bonds give the
    # facets and their tags: no closed set is listed and no rank is taken
    battery = [g for g in bipartite_battery() if g.is_connected()]
    connected = battery + [spider(4), random_connected_bipartite(12, random.Random(3), 0.2)]
    graphs = list(connected)
    # unions with single edges and isolated vertices, placed below and
    # above the other vertices and then shuffled
    single, isolated = path(2), build(1, [])
    graphs += [disjoint_union(parts) for parts in (
        [single, single], [isolated, single, isolated], [isolated, cycle(6)],
        [cycle(6), isolated], [path(3), isolated, path(4)], [single, K23, isolated])]
    rng = random.Random(16)
    for _ in range(150):
        parts = rng.sample(battery, rng.randint(1, 3))
        parts += [single] * rng.randint(0, 2) + [isolated] * rng.randint(0, 2)
        n = sum(g.vertex_count for g in parts)
        if len(parts) > 1 and n <= 12:
            graphs.append(disjoint_union(parts, rng.sample(range(n), n)))
    expected = [reference_facets(g) for g in graphs]

    def refuse(*args):
        raise AssertionError("called on a graph with bipartite components only")

    module = importlib.import_module("edgecone.facets")  # the package shadows it
    monkeypatch.setattr(module, "_closed_sets", refuse)
    monkeypatch.setattr(module, "_edge_rank", refuse)
    for g, reference in zip(graphs, expected):
        assert facets(g) == reference, (g.vertex_count, g.edges)
    # nor does remove_redundant, on the connected ones and a single vertex
    for g in connected + [isolated]:
        reduced = remove_redundant(g, full_representation(g))
        assert reduced == canonical_representation(g) if g.edges else not reduced.halfspaces
    # an isolated vertex below spider(16) shifts every index by one and
    # joins every set tag; the edges and the order stay
    fs = facets(disjoint_union([isolated, spider(16)]), max_vertices=34)
    shifted = []
    for f in facets(spider(16), max_vertices=33):
        tag = f.halfspace.plane.tag
        shifted.append((CoordinateTag(tag.vertex + 1) if isinstance(tag, CoordinateTag)
                        else IndependentSetTag((0,) + tuple(v + 1 for v in tag.vertices)),
                        f.generators_on))
    assert [(f.halfspace.plane.tag, f.generators_on) for f in fs] == shifted
    assert len(fs) == 32


def test_facets_take_no_rank(monkeypatch):
    # on a non-bipartite component the split of each candidate decides
    # it: odd components around a coordinate, or a set linked through
    # its neighbors with odd components outside them
    # spider(4) with a triangle at its center
    centred = build(11, spider(4).edges + ((0, 9), (0, 10), (9, 10)))
    graphs = [g for g in standard_battery() if not g.is_bipartite()]
    graphs += list(seeded_unions(150, 7, 12)) + [centred]
    expected = [reference_facets(g) for g in graphs]

    def refuse(*args):
        raise AssertionError("facets took a rank")

    module = importlib.import_module("edgecone.facets")  # the package shadows it
    monkeypatch.setattr(module, "_edge_rank", refuse)
    for g, reference in zip(graphs, expected):
        assert facets(g) == reference, (g.vertex_count, g.edges)


def test_facets_of_seeded_unions_match_the_all_sets_route():
    # 3-5 components: bipartite and not, single edges and isolated
    # vertices, shuffled so that the sides joining a set tag fall
    # below, between and above its own members
    small = connected_graphs_upto(5)
    kinds = ([g for g in small if g.vertex_count > 2 and g.is_bipartite()],
             [g for g in small if not g.is_bipartite()], [path(2)], [build(1, [])])
    rng = random.Random(12)
    tested = 0
    while tested < 300:
        parts = [rng.choice(rng.choice(kinds)) for _ in range(rng.randint(3, 5))]
        n = sum(g.vertex_count for g in parts)
        if n <= 12:
            g = disjoint_union(parts, rng.sample(range(n), n))
            assert facets(g) == reference_facets(g), (g.vertex_count, g.edges)
            tested += 1


def test_closed_sets_on_a_16_vertex_bipartite_graph():
    # 17,416 independent sets for 15 facets
    g = random_connected_bipartite(16, random.Random(2), 0.15)
    fs = facets(g)
    assert fs == reference_facets(g)
    assert frozenset(frozenset(f.generators_on) for f in fs) == \
        combinatorial_facet_sets(g)
    assert canonical_representation(g) == reference_canonical(g)


def test_remove_redundant_equals_canonical():
    for g in (cycle(4), cycle(6), K13, K23, path(5), parse_graph("a b")):
        assert remove_redundant(g, full_representation(g)) == \
            canonical_representation(g)
    # reference_canonical, the independent route, ranks every one-sided
    # halfspace of the full representation
    for g in bipartite_battery() + (random_connected_bipartite(17, random.Random(0), 0.12),):
        if g.edges:
            reference = reference_canonical(g)
            assert remove_redundant(g, full_representation(g)) == reference, g.edges
            assert canonical_representation(g) == reference, g.edges


def test_canonical_on_spiders():
    # the closed side-1 sets number 2**k here, the facets 2k
    for k in range(1, 11):
        g = spider(k)
        assert canonical_representation(g, max_vertices=21) == \
            reference_canonical(g), k
        assert facets(g, max_vertices=21) == reference_facets(g), k
    g = spider(16)
    side1, side2 = g.bipartitions[0]
    rep = canonical_representation(g, max_vertices=33)
    assert len(rep.halfspaces) == 32
    fs = facets(g, max_vertices=33)
    assert len(fs) == 32
    assert {f.generators_on for f in fs} == {on_edges(g, h) for h in rep.halfspaces}
    for h in rep.halfspaces:
        tag = h.plane.tag
        if isinstance(tag, CoordinateTag):
            assert tag.vertex in side2
            assert _induced_connected(
                g, set(range(g.vertex_count)) - {tag.vertex}), tag
        else:
            assert bipartite_facet_check(g, tag.vertices), tag


def test_remove_redundant_drops_mixed_sets():
    c6 = cycle(6)
    mixed = independent_set_halfspace(c6, [0, 3])  # meets both sides
    rep = full_representation(c6)
    assert mixed in rep.halfspaces
    reduced = remove_redundant(c6, rep)
    assert mixed not in reduced.halfspaces
    # the two one-sided halfspaces it decomposes into imply it
    left = independent_set_halfspace(c6, [0]).plane.normal
    right = independent_set_halfspace(c6, [3]).plane.normal
    assert tuple(a + b for a, b in zip(left, right)) == mixed.plane.normal


def test_remove_redundant_requires_full_kind():
    with pytest.raises(ValueError, match="full"):
        remove_redundant(cycle(4), canonical_representation(cycle(4)))


def test_proper_face_property_one_sided_sets():
    # an independent set that is not a full side cuts a proper face:
    # some edge vector must lie strictly off its hyperplane
    rng = random.Random(37)
    for trial in range(10):
        g = random_connected_bipartite(rng.randint(3, 8), rng, 0.4)
        side1, side2 = g.bipartitions[0]
        vectors = edge_vectors(g)
        for a in independent_sets(g):
            if set(a) not in (set(side1), set(side2)):
                h = independent_set_halfspace(g, a)
                assert any(h.margin(v) > 0 for v in vectors), (g.edges, a)


def test_side2_tags_have_side1_duals():
    # every facet cut by a set strictly inside side 2 is also cut by a
    # side-2 coordinate or by the complementary side-1 set
    rng = random.Random(41)
    for trial in range(10):
        g = random_connected_bipartite(rng.randint(3, 8), rng, 0.35)
        side1, side2 = g.bipartitions[0]
        vectors = edge_vectors(g)
        for a2 in independent_sets(g):
            if not set(a2) < set(side2):
                continue
            h = independent_set_halfspace(g, a2)
            if not is_facet(g, h):
                continue
            on = tuple(i for i, v in enumerate(vectors) if h.margin(v) == 0)
            nbrs = set(neighbor_set(g, a2))
            if nbrs == set(side1):
                (missing,) = set(side2) - set(a2)
                twin = coordinate_halfspace(g, missing)
                # the coordinate case only arises when removing that
                # vertex leaves the graph connected
                remainder = set(range(g.vertex_count)) - {missing}
                assert _induced_connected(g, remainder)
            else:
                a1 = tuple(sorted(set(side1) - nbrs))
                assert a1
                twin = independent_set_halfspace(g, a1)
            twin_on = tuple(i for i, v in enumerate(vectors)
                            if twin.margin(v) == 0)
            assert twin_on == on


def test_canonical_is_irreducible_small():
    from battery import relaxed_witness
    for g in (cycle(4), cycle(6), K13, K23, parse_graph("a b")):
        rep = canonical_representation(g)
        vectors = edge_vectors(g)
        for dropped in rep.halfspaces:
            point = relaxed_witness(g, rep, dropped)
            assert all(sum(a * b for a, b in zip(eq.normal, point)) == 0
                       for eq in rep.equations)
            assert all(h.margin(point) >= 0
                       for h in rep.halfspaces if h != dropped)
            assert dropped.margin(point) < 0
            assert not fm_membership(vectors, point)
            assert not membership(g, point).is_member


def test_facet_output_order_is_deterministic():
    for g in (cycle(6), K23, complete_bipartite(3, 3)):
        fs = facets(g)
        coord = [f for f in fs if isinstance(f.halfspace.plane.tag, CoordinateTag)]
        sets = [f for f in fs if isinstance(f.halfspace.plane.tag, IndependentSetTag)]
        assert fs == tuple(coord + sets)
        assert [f.halfspace.plane.tag.vertex for f in coord] == \
            sorted(f.halfspace.plane.tag.vertex for f in coord)
        tags = [f.halfspace.plane.tag.vertices for f in sets]
        assert tags == sorted(tags)
        assert facets(g) == fs
