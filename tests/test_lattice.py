import random

import pytest

from edgecone import (GraphRequirementError, has_perfect_matching,
                      integer_decompose, membership, neighbor_set,
                      parity_check, parse_graph)
from edgecone.cone import _MaxFlow
from battery import (complete_bipartite, cycle, kuhn_maximum_matching,
                     path, random_connected_bipartite, star)

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
    # (1, 0, 0, 1) and the graph below are balanced non-members
    lopsided = parse_graph("a x\nb x\nc x\nc y\nc z")
    calls = [(integer_decompose, (K13, (1, 1, 1, 1)), False),
             (has_perfect_matching, (K13,), False),
             (integer_decompose, (path(4), (1, 0, 0, 1)), False),
             (has_perfect_matching, (lopsided,), False),
             (integer_decompose, (cycle(6), (2, 1, 1, 2, 1, 1)), True),
             (has_perfect_matching, (cycle(6),), True),
             (membership, (K13, (1, 1, 1, 1)), False)]
    runs = []
    run = _MaxFlow.run

    def counted(flow, source, sink):
        runs.append((source, sink))
        return run(flow, source, sink)

    monkeypatch.setattr(_MaxFlow, "run", counted)
    for call, args, expected in calls:
        runs.clear()
        assert bool(call(*args)) == expected
        assert len(runs) == 1, call.__name__
