"""Facet detection and the canonical irreducible representation.

A facet is a face of dimension one less than the cone.  A supporting
hyperplane cuts a facet exactly when the edge vectors lying on it have
rank ``cone_dimension - 1``; that rank criterion works for arbitrary
graphs.  The rank is the edge-cone dimension of the subgraph those edges
form, so no elimination runs here; only the oracle eliminates.  For a
connected bipartite graph the facets admit a purely combinatorial
characterization over independent subsets of one side, and the cone
has a unique irreducible representation whose halfspaces are tagged by
independent sets strictly inside side 1 plus coordinate halfspaces of
side-2 vertices.

Facets are identified by their generator sets (the edge indices on the
bounding hyperplane): on the affine hull, distinct normals can cut the
same facet, so normals alone are not a usable identity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cone import (ConeRepresentation, CoordinateTag, Halfspace, Hyperplane,
                   IndependentSetTag, affine_hull, cone_dimension,
                   coordinate_halfspace, independent_set_halfspace)
from .errors import GraphRequirementError, NotSupportingHyperplaneError
from .graph import (DEFAULT_MAX_VERTICES, Graph, VertexSet, independent_sets,
                    is_independent, neighbor_set, vertex_set)


@dataclass(frozen=True)
class Facet:
    """A facet together with the edge indices spanning it."""

    halfspace: Halfspace
    generators_on: tuple[int, ...]


def _plane_of(h: Hyperplane | Halfspace) -> Hyperplane:
    return h.plane if isinstance(h, Halfspace) else h


def _side_split(g: Graph, normal: Sequence[int]):
    """Classify edge vectors against a hyperplane: indices on it, and
    whether any lie strictly on each open side.  Edge ``(i, j)`` is the
    sum of two unit vectors, so its value is ``normal[i] + normal[j]``."""
    if len(normal) != g.vertex_count:
        raise ValueError(f"dimension mismatch: {len(normal)} vs {g.vertex_count}")
    on = []
    has_pos = has_neg = False
    for idx, (i, j) in enumerate(g.edges):
        value = normal[i] + normal[j]
        if value == 0:
            on.append(idx)
        elif value > 0:
            has_pos = True
        else:
            has_neg = True
    return tuple(on), has_pos, has_neg


def _edge_rank(g: Graph, on: Sequence[int]) -> int:
    """Rank of the edge vectors with indices ``on``: the vertices they
    touch minus the bipartite components of the subgraph they form.  A
    union-find that keeps each vertex's colour relative to its parent
    counts it as one per edge joining two trees plus one per tree in
    which an edge closed an odd cycle."""
    n = g.vertex_count
    parent = list(range(n))
    colour = [0] * n
    odd = [False] * n  # per root
    rank = 0
    for idx in on:
        i, j = g.edges[idx]
        ci = cj = 0
        while parent[i] != i:
            ci ^= colour[i]
            i = parent[i]
        while parent[j] != j:
            cj ^= colour[j]
            j = parent[j]
        if i != j:
            parent[j] = i
            colour[j] = ci ^ cj ^ 1
            rank += 1 - (odd[i] and odd[j])
            odd[i] = odd[i] or odd[j]
        elif ci == cj and not odd[i]:
            odd[i] = True
            rank += 1
    return rank


def _on_indices(g: Graph, h: Hyperplane | Halfspace) -> tuple[int, ...]:
    plane = _plane_of(h)
    on, has_pos, has_neg = _side_split(g, plane.normal)
    if has_pos and has_neg:
        raise NotSupportingHyperplaneError(
            f"hyperplane {plane.normal} has edge vectors strictly on both "
            f"sides and does not support the edge cone")
    return on


def face_dimension(g: Graph, h: Hyperplane | Halfspace) -> int:
    """Dimension of the face cut by a supporting hyperplane: the rank of
    the edge vectors lying on it (the apex face has dimension 0)."""
    return _edge_rank(g, _on_indices(g, h))


def is_facet(g: Graph, h: Hyperplane | Halfspace) -> bool:
    """Rank criterion: the on-hyperplane edge vectors span dimension
    ``cone_dimension - 1``.  Cones of dimension at most 1 have no facet
    besides the apex, which is excluded."""
    dim = cone_dimension(g)
    if dim <= 1:
        return False
    return face_dimension(g, h) == dim - 1


def _candidate_halfspaces(g: Graph, max_vertices: int):
    for v in range(g.vertex_count):
        yield coordinate_halfspace(g, v)
    for a in independent_sets(g, max_vertices):
        yield independent_set_halfspace(g, a)


def _facet_groups(g: Graph, candidates: Iterable[Halfspace]
                  ) -> dict[tuple[int, ...], list[Halfspace]]:
    """The facet-cutting halfspaces among ``candidates`` (not read when the
    cone has dimension at most 1), grouped by the facet's generator set."""
    dim = cone_dimension(g)
    if dim <= 1:
        return {}
    groups: dict[tuple[int, ...], list[Halfspace]] = {}
    for h in candidates:
        on, _, _ = _side_split(g, h.plane.normal)
        # the rank never exceeds the edge count
        if len(on) >= dim - 1 and _edge_rank(g, on) == dim - 1:
            groups.setdefault(on, []).append(h)
    return groups


def _tag_sort_key(h: Halfspace):
    tag = h.plane.tag
    if isinstance(tag, CoordinateTag):
        return (0, tag.vertex, ())
    return (1, -1, tag.vertices)


def facets(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> tuple[Facet, ...]:
    """All facets of the edge cone, one entry per facet.

    Every facet is cut by a coordinate hyperplane or by an independent
    set's hyperplane; when several candidates cut the same facet the
    coordinate tag (smallest index) is preferred, then the
    lexicographically smallest set.  Output order: coordinate-tagged
    facets by index, then set-tagged facets lexicographically.
    """
    result = []
    groups = _facet_groups(g, _candidate_halfspaces(g, max_vertices))
    for on, candidates in groups.items():
        chosen = min(candidates, key=_tag_sort_key)
        result.append(Facet(chosen, on))
    result.sort(key=lambda f: _tag_sort_key(f.halfspace))
    return tuple(result)


def _sides(g: Graph) -> tuple[VertexSet, VertexSet]:
    if not g.is_connected() or not g.is_bipartite():
        raise GraphRequirementError(
            "operation requires a connected bipartite graph")
    return g.bipartitions[0]


def _induced_connected(g: Graph, members: Iterable[int]) -> bool:
    """Connectivity of the induced subgraph (empty graphs excluded,
    single vertices connected)."""
    mset = set(members)
    if not mset:
        return False
    start = min(mset)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.neighbors[v]:
            if w in mset and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == mset


def bipartite_facet_check(g: Graph, a: Iterable[int]) -> bool:
    """Combinatorial facet test for an independent set strictly inside
    side 1 of a connected bipartite graph.

    The set cuts a facet iff the subgraph induced on the set plus its
    neighbors and the one induced on the remaining vertices are both
    connected (their union always spans the graph).
    """
    side1, side2 = _sides(g)
    members = vertex_set(g, a)
    if not members:
        raise ValueError("independent set must be nonempty")
    if not is_independent(g, members):
        raise ValueError(f"vertex set {members} is not independent")
    if not set(members) < set(side1):
        raise ValueError(
            f"vertex set {members} is not strictly inside side 1 {side1}")
    closed = set(members) | set(neighbor_set(g, members))
    rest = set(range(g.vertex_count)) - closed
    return _induced_connected(g, closed) and _induced_connected(g, rest)


def dual_facet(g: Graph, a: Iterable[int]) -> Halfspace:
    """The side-2 description of a facet cut by an independent set
    strictly inside side 1.

    If the set's neighbors exhaust side 2, the facet is the coordinate
    halfspace of the one missing side-1 vertex; otherwise it is the
    halfspace of the complementary independent set inside side 2 (whose
    neighbor set is exactly the side-1 complement).
    """
    side1, side2 = _sides(g)
    members = vertex_set(g, a)
    if not bipartite_facet_check(g, members):
        raise ValueError(f"vertex set {members} does not cut a facet")
    neighbors = neighbor_set(g, members)
    if set(neighbors) == set(side2):
        missing = sorted(set(side1) - set(members))
        if len(missing) != 1:
            raise AssertionError(
                f"facet with full neighbor side must omit exactly one "
                f"side-1 vertex, got {missing}")
        return coordinate_halfspace(g, missing[0])
    complement = tuple(sorted(set(side2) - set(neighbors)))
    if set(neighbor_set(g, complement)) != set(side1) - set(members):
        raise AssertionError(
            f"dual set {complement} does not neighbor the side-1 complement")
    return independent_set_halfspace(g, complement)


def _canonical_halfspace(g: Graph, candidates: list[Halfspace],
                         side1: VertexSet, side2: VertexSet) -> Halfspace:
    """Pick the unique canonical tag of one facet: a side-2 coordinate if
    available, else the single independent set strictly inside side 1."""
    side2_coords = [h for h in candidates
                    if isinstance(h.plane.tag, CoordinateTag)
                    and h.plane.tag.vertex in side2]
    if side2_coords:
        return min(side2_coords, key=_tag_sort_key)
    side1_sets = [h for h in candidates
                  if isinstance(h.plane.tag, IndependentSetTag)
                  and set(h.plane.tag.vertices) < set(side1)]
    if len(side1_sets) != 1:
        raise AssertionError(
            f"expected exactly one side-1 tag per facet, got "
            f"{[h.plane.tag for h in side1_sets]}")
    return side1_sets[0]


def _canonical(g: Graph, candidates: Iterable[Halfspace]) -> ConeRepresentation:
    """Canonical representation of a connected bipartite graph from the
    facets among ``candidates``.  Sets meeting both sides are skipped:
    each is the sum of two one-sided ones and cuts no facet they miss."""
    side1, side2 = g.bipartitions[0]
    equations = affine_hull(g)
    if cone_dimension(g) <= 1:
        halfspaces = tuple(coordinate_halfspace(g, v) for v in side2)
        return ConeRepresentation(equations, halfspaces, "canonical_bipartite")
    set1, set2 = set(side1), set(side2)
    one_sided = (h for h in candidates
                 if not isinstance(h.plane.tag, IndependentSetTag)
                 or set1.isdisjoint(h.plane.tag.vertices)
                 or set2.isdisjoint(h.plane.tag.vertices))
    chosen = [_canonical_halfspace(g, group, side1, side2)
              for group in _facet_groups(g, one_sided).values()]
    chosen.sort(key=_tag_sort_key)
    return ConeRepresentation(equations, tuple(chosen), "canonical_bipartite")


def canonical_representation(g: Graph,
                             max_vertices: int = DEFAULT_MAX_VERTICES) -> ConeRepresentation:
    """The unique irreducible representation of a connected bipartite
    edge cone: the affine hull intersected with one halfspace per facet,
    each tagged by an independent set strictly inside side 1 or by a
    side-2 coordinate.

    Cones of dimension at most 1 (a single edge) have no facets; the
    representation then carries the coordinate halfspaces that carve the
    ray out of its affine hull.
    """
    _sides(g)
    if not g.edges:
        raise GraphRequirementError(
            "canonical representation requires at least one edge")
    return _canonical(g, _candidate_halfspaces(g, max_vertices))


def remove_redundant(g: Graph, rep: ConeRepresentation,
                     max_vertices: int = DEFAULT_MAX_VERTICES) -> ConeRepresentation:
    """Reduce the full representation of a connected bipartite graph to
    the canonical irreducible one.

    Drops every independent-set halfspace whose set meets both sides
    (such halfspaces are sums of two one-sided ones), then every
    halfspace failing the facet rank criterion, merges halfspaces that
    cut the same facet, and re-tags each facet canonically.
    """
    _sides(g)
    if rep.kind != "full":
        raise ValueError(f"expected a full representation, got kind={rep.kind!r}")
    return _canonical(g, rep.halfspaces)
