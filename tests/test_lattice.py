import dataclasses
import importlib
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from edgecone import (Graph, GraphRequirementError, affine_hull,
                      canonical_representation, cone_dimension, facets,
                      full_representation, has_perfect_matching,
                      independent_sets, integer_decompose, is_independent,
                      membership, neighbor_set, parity_check, parse_graph)
from battery import (bipartite_battery, complete_bipartite, cycle,
                     disjoint_union, kuhn_maximum_matching, path,
                     random_connected_bipartite, seeded_unions,
                     standard_battery, star)

cone = importlib.import_module("edgecone.cone")

SINGLE = parse_graph("a b")
K13 = star(3)


def test_parity_check():
    assert parity_check((1, 1, 1, 1))
    assert not parity_check((1, 0))
    assert parity_check((0, 0, 0))
    with pytest.raises(ValueError):
        parity_check((1, 0.5))


def test_decompose_single_edge():
    result = integer_decompose(SINGLE, (2, 2))
    assert result.decomposition.multiplicities == ((0, 2),)
    assert result.decomposition.as_dict() == {0: 2}
    assert result.decomposition.target(SINGLE) == (2, 2)


def test_decompose_single_edge_absence():
    result = integer_decompose(SINGLE, (1, 0))
    assert not result
    assert result.violated is not None
    assert not parity_check((1, 0))


def test_decompose_c4_ones_is_a_perfect_matching():
    c4 = cycle(4)
    result = integer_decompose(c4, (1, 1, 1, 1))
    assert result
    assert result.decomposition.target(c4) == (1, 1, 1, 1)
    assert all(count == 1 for _, count in result.decomposition.multiplicities)
    assert len(result.decomposition.multiplicities) == 2


def test_decompose_zero_vector():
    result = integer_decompose(K13, (0, 0, 0, 0))
    assert result
    assert result.decomposition.multiplicities == ()


def test_decompose_rejects_non_bipartite_and_non_integer():
    tri = parse_graph("a b\nb c\nc a")
    with pytest.raises(GraphRequirementError):
        integer_decompose(tri, (1, 1, 1))
    with pytest.raises(ValueError):
        integer_decompose(SINGLE, (1.5, 0.5))
    with pytest.raises(ValueError, match="dimension"):
        integer_decompose(SINGLE, (1, 1, 1))


def test_decompose_negative_entry_yields_coordinate_witness():
    result = integer_decompose(SINGLE, (-1, 1))
    assert not result
    assert result.violated.plane.normal == (1, 0)


def test_decompose_isolated_vertex_weight_is_absent():
    g = parse_graph("a b\nc")
    result = integer_decompose(g, (0, 0, 1))
    assert not result
    # the isolated vertex alone outweighs its empty neighbor set
    assert result.violated.plane.normal == (0, 0, 1)


def test_decompose_round_trip_random_multiplicities():
    rng = random.Random(43)
    for trial in range(20):
        g = random_connected_bipartite(rng.randint(2, 8), rng, 0.4)
        counts = {e: rng.randint(0, 5) for e in range(len(g.edges))}
        target = [0] * g.vertex_count
        for e, c in counts.items():
            i, j = g.edges[e]
            target[i] += c
            target[j] += c
        result = integer_decompose(g, tuple(target))
        assert result, (g.edges, counts)
        assert result.decomposition.target(g) == tuple(target)


def test_membership_implies_decomposable_and_even_sum():
    rng = random.Random(47)
    for trial in range(15):
        g = random_connected_bipartite(rng.randint(2, 7), rng, 0.45)
        for _ in range(25):
            b = tuple(rng.randint(0, 4) for _ in range(g.vertex_count))
            decomposed = bool(integer_decompose(g, b))
            assert decomposed == membership(g, b).is_member
            if decomposed:
                assert parity_check(b)
                for sides in g.bipartitions:
                    assert sum(b[v] for v in sides[0]) == \
                        sum(b[v] for v in sides[1])


def test_matching_c6():
    result = has_perfect_matching(cycle(6))
    assert result.has_matching
    covered = sorted(v for e in result.matching for v in cycle(6).edges[e])
    assert covered == list(range(6))


def test_matching_star_violator():
    result = has_perfect_matching(K13)
    assert not result.has_matching
    a = result.violator
    assert len(a) > len(neighbor_set(K13, a))
    # no vertex can be dropped from the violator: both leaves outweigh
    # the center only together
    assert a == (0, 1)


def test_matching_k33():
    assert has_perfect_matching(complete_bipartite(3, 3)).has_matching


def test_matching_rejects_non_bipartite():
    with pytest.raises(GraphRequirementError):
        has_perfect_matching(parse_graph("a b\nb c\nc a"))


def test_matching_odd_order_never_matches():
    result = has_perfect_matching(path(5))
    assert not result.has_matching
    assert result.violator is not None


def test_three_matching_deciders_agree():
    rng = random.Random(53)
    for trial in range(30):
        g = random_connected_bipartite(rng.randint(2, 9), rng, 0.35)
        ones = (1,) * g.vertex_count
        by_membership = membership(g, ones).is_member
        by_hall = has_perfect_matching(g)
        by_augmenting = (kuhn_maximum_matching(g) * 2 == g.vertex_count)
        assert by_membership == by_hall.has_matching == by_augmenting
        if by_hall.has_matching:
            covered = sorted(v for e in by_hall.matching for v in g.edges[e])
            assert covered == list(range(g.vertex_count))
        else:
            a = by_hall.violator
            assert len(a) > len(neighbor_set(g, a))


def test_decomposition_is_deterministic():
    g = cycle(6)
    b = (2, 2, 2, 2, 2, 2)
    first = integer_decompose(g, b)
    second = integer_decompose(g, b)
    assert first.decomposition == second.decomposition


def test_each_call_runs_one_flow(monkeypatch):
    # the sides of K13 and its all-ones vector are unbalanced; path(4) at
    # (1, 0, 0, 1) and the graph below are balanced non-members.  The
    # graphs are new to this test and each is called on twice over, so
    # its network is built on its first route and never again.
    k13, p4, c6 = star(3), path(4), cycle(6)
    lopsided = parse_graph("a x\nb x\nc x\nc y\nc z")
    calls = [(integer_decompose, (k13, (1, 1, 1, 1)), False),
             (has_perfect_matching, (k13,), False),
             (integer_decompose, (p4, (1, 0, 0, 1)), False),
             (has_perfect_matching, (lopsided,), False),
             (integer_decompose, (c6, (2, 1, 1, 2, 1, 1)), True),
             (has_perfect_matching, (c6,), True),
             (membership, (k13, (1, 1, 1, 1)), False)]
    runs, builds = [], []
    run, network = cone._max_flow, cone._network

    def counted(adj, to, cap, source, sink):
        runs.append((source, sink))
        return run(adj, to, cap, source, sink)

    def built(g):
        builds.append(g)
        return network(g)

    monkeypatch.setattr(cone, "_max_flow", counted)
    monkeypatch.setattr(cone, "_network", built)
    for _ in range(2):
        for call, args, expected in calls:
            runs.clear()
            assert bool(call(*args)) == expected
            assert len(runs) == 1, call.__name__
    assert sorted(map(id, builds)) == sorted(map(id, (k13, p4, lopsided, c6)))


def test_routing_leaves_equality_hash_repr_and_pickle_alone():
    g = cycle(6)
    b = (2, 1, 1, 2, 1, 1)
    before = (hash(g), repr(g), pickle.dumps(g))
    decomposed = integer_decompose(g, b)
    assert decomposed and has_perfect_matching(g)
    assert not membership(g, (1, 0, 0, 0, 0, 0))
    assert facets(g)  # builds the bitmasks
    assert g == Graph(g.vertices, g.edges)
    assert (hash(g), repr(g), pickle.dumps(g)) == before
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and (hash(copy), repr(copy)) == before[:2]
    assert integer_decompose(copy, b) == decomposed


def test_decision_calls_build_no_bitmask():
    # the bitmask walks build their bitmasks and drop them, so after any
    # call the graph holds its fields and, once routed, its flow network
    g = cycle(6)
    kept = {f.name for f in dataclasses.fields(g)} | {"_flow_network"}
    calls = [
        lambda: membership(g, (1,) * 6) and not membership(g, (2, 0, 0, 0, 0, 0)),
        lambda: integer_decompose(g, (2, 1, 1, 2, 1, 1)) and has_perfect_matching(g),
        lambda: cone_dimension(g) == 5 and affine_hull(g),
        lambda: is_independent(g, (0, 2)) and neighbor_set(g, (0,)) == (1, 5),
        lambda: full_representation(g), lambda: facets(g),
        lambda: canonical_representation(g), lambda: list(independent_sets(g)),
    ]
    for call in calls:
        assert call()
        assert set(vars(g)) == kept


def _reuse_graphs():
    """Both batteries plus seeded unions of bipartite and non-bipartite
    components, single edges and isolated vertices."""
    return standard_battery() + bipartite_battery() + seeded_unions(200, 19, 10)


def test_a_reused_graph_answers_as_a_fresh_one():
    # one Graph object takes a mixed run of members, non-members that
    # fail at the first phase (a lone heavy coordinate) or only after
    # most of the flow (a member plus one unit), and negative points;
    # each answer must equal the same call on a graph built for it alone
    rng = random.Random(23)
    for g in _reuse_graphs():
        n = g.vertex_count
        member = [0] * n
        for i, j in g.edges:
            count = rng.randint(0, 3)
            member[i] += count
            member[j] += count
        late = member[:]
        late[rng.randrange(n)] += 1
        early = [0] * n
        early[rng.randrange(n)] = 5
        negative = member[:]
        negative[rng.randrange(n)] = -1
        points = [tuple(p) for p in (member, late, early, negative, (1,) * n)]
        calls = [(membership, p) for p in points]
        calls.append((membership, tuple(Fraction(c, 2) for c in member)))
        if g.is_bipartite():
            calls += [(integer_decompose, p) for p in points]
            calls += [(has_perfect_matching,)] * 2
        rng.shuffle(calls)
        for call, *args in calls:
            assert call(g, *args) == call(Graph(g.vertices, g.edges), *args), \
                (g.edges, call.__name__, args)


def test_threads_sharing_a_graph_get_the_answers_of_fresh_graphs():
    g = disjoint_union([cycle(6), cycle(5), path(3)])
    rng = random.Random(29)
    points = [tuple(rng.randint(-1, 3) for _ in range(g.vertex_count))
              for _ in range(40)] + [(1,) * g.vertex_count]
    expected = [membership(Graph(g.vertices, g.edges), p) for p in points]
    failures = []

    def work():
        for _ in range(5):
            for p, answer in zip(points, expected):
                if membership(g, p) != answer:
                    failures.append(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
