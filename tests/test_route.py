"""The one flow behind membership, decomposition and matching.

A digest over the ``repr`` of every rejection the three deciders return
on both batteries and on seeded disjoint unions is pinned: the residual
network of every maximum flow reaches the same nodes, so no change to
how the flow is found may change a witness.  The flows themselves may
change, so each routed point is checked directly instead: the edge
flows that ``_route`` returns must send exactly ``point[v]`` out of
every left node ``v`` and into every right node ``v'`` of the double
cover.
"""

import hashlib
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgecone import has_perfect_matching, integer_decompose, membership, parse_graph
from battery import (bipartite_battery, build, cycle, path, seeded_unions,
                     standard_battery)

cone = importlib.import_module("edgecone.cone")

# sha256 of the lines ``rejection_lines`` yields; as no witness depends
# on which maximum flow is found, a change to the flow engine keeps it
WITNESS_DIGEST = "89717f60387eabaace62fb1876e74a63d1821e5c409cfe33ab8473c9a702a6fe"


def combination(g, rng, most: int) -> list[int]:
    """The sum of the edge vectors with random multiplicities up to
    ``most``: a member of the cone."""
    point = [0] * g.vertex_count
    for i, j in g.edges:
        count = rng.randint(0, most)
        point[i] += count
        point[j] += count
    return point


def integer_points(g, rng) -> list[tuple[int, ...]]:
    """Members, members plus one unit, lone heavy coordinates, random
    points with and without a negative entry, and all ones."""
    n = g.vertex_count
    member = combination(g, rng, 3)
    late = member[:]
    late[rng.randrange(n)] += 1
    early = [0] * n
    early[rng.randrange(n)] = 3
    points = [member, late, early, (1,) * n]
    points += [[rng.randint(0, 4) for _ in range(n)] for _ in range(3)]
    points.append([rng.randint(-1, 3) for _ in range(n)])
    return [tuple(p) for p in points]


def rejection_lines(graphs, seed: int):
    """One line per call of the three deciders: the ``repr`` of each
    rejection, and only the verdict of each acceptance, whose
    decomposition or matching may be any valid one."""
    rng = random.Random(seed)
    for g in graphs:
        points = integer_points(g, rng)
        fractions = [tuple(Fraction(c, rng.randint(1, 4)) for c in p) for p in points[:4]]
        for x in points + fractions:
            verdict = membership(g, x)
            yield "member" if verdict else repr(verdict)
        if g.is_bipartite():
            for b in points:
                result = integer_decompose(g, b)
                yield "decomposed" if result else repr(result)
            result = has_perfect_matching(g)
            yield "matched" if result else repr(result)
        yield f"graph {g.vertex_count} {g.edges}"


def test_rejections_keep_their_pinned_digest():
    graphs = standard_battery() + bipartite_battery() + seeded_unions(300, 31, 12)
    digest = hashlib.sha256()
    for line in rejection_lines(graphs, 37):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == WITNESS_DIGEST


def check_flows(g, point) -> None:
    """Assert that ``point`` routes and that its edge flows meet every
    left node's supply and every right node's demand exactly."""
    flows = cone._route(g, point)
    assert isinstance(flows, list), (g.edges, point)
    side1 = {v for sides in g.bipartitions if sides for v in sides[0]}
    side2 = {v for sides in g.bipartitions if sides for v in sides[1]}
    # a bipartite edge carries one arc from side 1, any other edge two
    arcs = [(u, w) for i, j in g.edges for u, w in ((i, j), (j, i)) if u not in side2]
    assert len(flows) == len(arcs)
    sent = [0] * g.vertex_count
    taken = [0] * g.vertex_count
    for (u, w), flow in zip(arcs, flows):
        assert flow >= 0
        sent[u] += flow
        taken[w] += flow
    for v, c in enumerate(point):
        assert sent[v] == (0 if v in side2 else c), (g.edges, point, v)
        assert taken[v] == (0 if v in side1 else c), (g.edges, point, v)


def test_routed_flows_meet_supply_and_demand_on_the_batteries():
    rng = random.Random(41)
    for g in standard_battery() + bipartite_battery() + seeded_unions(100, 43, 12):
        points = integer_points(g, rng) + [tuple(combination(g, rng, 9))]
        for point in points:
            if membership(g, point):
                check_flows(g, point)


@pytest.mark.parametrize("g, ones_member", [
    (cycle(199), True), (path(801), False), (cycle(800), True)],
    ids=["cycle199", "path801", "cycle800"])
def test_routed_flows_meet_supply_and_demand_on_large_graphs(g, ones_member):
    rng = random.Random(47)
    points = [combination(g, rng, 3), combination(g, rng, 1)]
    if ones_member:
        points.append((1,) * g.vertex_count)
    for point in points:
        check_flows(g, tuple(point))


def test_greedy_pass_takes_low_degree_edges_first(monkeypatch):
    # a path listed middle edge first: taken in layout order, the greedy
    # pass would match b and c and leave a and d for Dinic; by degree sum
    # it takes the two pendant edges first and routes everything itself
    g = parse_graph("b c\na b\nc d")
    values = []
    run = cone._max_flow

    def recorded(adj, to, cap, source, sink):
        value, level = run(adj, to, cap, source, sink)
        values.append(value)
        return value, level

    monkeypatch.setattr(cone, "_max_flow", recorded)
    result = has_perfect_matching(g)
    assert result and result.matching == (1, 2)
    assert values == [0]


@st.composite
def graphs_and_members(draw):
    """A graph on up to 10 vertices, bipartite or not, connected or not,
    with a member point: a combination of edge vectors, or a random
    point the flow accepts."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build(n, [pair for pair, kept in zip(pairs, keep) if kept])
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 5), min_size=len(g.edges),
                               max_size=len(g.edges)))
        point = [0] * n
        for c, (i, j) in zip(counts, g.edges):
            point[i] += c
            point[j] += c
    else:
        point = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return g, tuple(point)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs_and_members())
def test_routed_flows_meet_supply_and_demand_on_random_graphs(case):
    g, point = case
    if membership(g, point):
        check_flows(g, point)
