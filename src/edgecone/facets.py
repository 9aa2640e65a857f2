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

The candidates are the coordinate hyperplanes and the closed
independent sets, the independent extents of the formal concepts of the
non-adjacency relation (Ganter and Wille 1999), which Close-by-One lists
on vertex bitmasks; ``facets`` proves that no other set is needed.
Each candidate is decided from bitmasks of its vertices and edges, and
a ``Halfspace`` is built only for the tag that a facet keeps, so the
cost follows the number of closed sets, not the number of independent
sets (``full_representation`` still lists all of those).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .cone import (ConeRepresentation, CoordinateTag, Halfspace, Hyperplane,
                   IndependentSetTag, Tag, affine_hull, cone_dimension,
                   coordinate_halfspace, independent_set_halfspace)
from .errors import GraphRequirementError, NotSupportingHyperplaneError
from .graph import (DEFAULT_MAX_VERTICES, Graph, VertexSet, adjacency_masks,
                    check_gate, is_independent, neighbor_set, vertex_set)


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


def _members(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closed_sets(masks: Sequence[int], universe: int) -> Iterator[tuple[int, int]]:
    """Close-by-One (Kuznetsov 1993) over the vertices of ``universe``:
    every nonempty independent set ``A`` inside ``universe`` that is
    closed, ``A = {u in universe : N(u) <= N(A)}``, exactly once, as the
    bitmasks ``(A, N(A))``.  ``universe`` holds no isolated vertex, so
    the empty set is closed.

    A closed ``A`` is extended by each ``j`` above its last extension and
    outside ``A``, and the closure of ``A + {j}`` is kept only if it adds
    no vertex below ``j``; that canonicity test reaches every closed set
    from exactly one parent.  The closure of an independent ``X`` is
    independent: if members ``u`` and ``v`` were adjacent, ``v`` would
    lie in ``N(u) <= N(X)``, next to some ``x`` in ``X``, and ``x`` would
    lie in ``N(v) <= N(X)``, next to a vertex of ``X``.  A dependent
    set has no independent superset, so extensions by ``j`` in ``N(A)``
    are pruned and members are sought outside ``N(A + {j})`` only.
    """
    stack = [(0, 0, 0)]  # (closed set, its neighborhood, lowest extension)
    while stack:
        a, na, start = stack.pop()
        if a:
            yield a, na
        free = universe & ~(a | na) & -(1 << start)
        while free:
            low = free & -free
            free ^= low
            j = low.bit_length() - 1
            nc = na | masks[j]
            closure = a | low
            rest = universe & ~(closure | nc)
            while rest:
                bit = rest & -rest
                rest ^= bit
                if not masks[bit.bit_length() - 1] & ~nc:
                    if bit < low:
                        break  # not canonical: reached from another parent
                    closure |= bit
            else:
                stack.append((closure, nc, j + 1))


def _union(table: Sequence[int], mask: int) -> int:
    """The union of the bitmasks ``table[v]`` over the set bits ``v`` of
    ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= table[low.bit_length() - 1]
    return out


def _candidates(g: Graph, max_vertices: int, sets):
    """The candidates of ``facets`` and ``canonical_representation``:
    every coordinate, then each independent set that ``sets(g, masks)``
    yields from the adjacency bitmasks as ``(A, N(A), tag)`` bitmasks,
    each with the bitmask of the edges on its hyperplane.  Those are the
    edges from ``A`` to ``N(A)`` and the ones inside the rest, that is
    every edge but the ones that touch ``N(A)`` and miss ``A``."""
    check_gate(g, max_vertices)
    masks = adjacency_masks(g)
    incident = [0] * g.vertex_count  # edges at each vertex
    for idx, (i, j) in enumerate(g.edges):
        incident[i] |= 1 << idx
        incident[j] |= 1 << idx
    everything = (1 << len(g.edges)) - 1
    for v in range(g.vertex_count):
        yield everything & ~incident[v], CoordinateTag(v)
    for a, na, tag in sets(g, masks):
        yield everything & ~(_union(incident, na) & ~_union(incident, a)), tag


def _facet_sets(g: Graph, masks: Sequence[int]):
    """The nonempty closed independent sets of the non-isolated vertices,
    each tagged with the isolated vertices below its largest member
    added (see ``facets``)."""
    isolated = sum(1 << v for v, m in enumerate(masks) if not m)
    for a, na in _closed_sets(masks, ((1 << g.vertex_count) - 1) & ~isolated):
        below = (1 << (a.bit_length() - 1)) - 1
        yield a, na, a | isolated & below


def _facet_groups(g: Graph, candidates: Iterable[tuple[int, Tag | int]]
                  ) -> dict[int, list[Tag]]:
    """The tags of the facet-cutting ``candidates`` (not read when the
    cone has dimension at most 1), grouped by the facet's generator set.
    A candidate is the bitmask of the edges on its hyperplane and a tag
    or, for an independent set, the bitmask of its vertices; tags are
    built for facet cutters only."""
    dim = cone_dimension(g)
    if dim <= 1:
        return {}
    groups: dict[int, list[Tag]] = {}
    for on, tag in candidates:
        # the rank never exceeds the edge count
        if on.bit_count() >= dim - 1 and _edge_rank(g, _members(on)) == dim - 1:
            if isinstance(tag, int):
                tag = IndependentSetTag(tuple(_members(tag)))
            groups.setdefault(on, []).append(tag)
    return groups


def _halfspace(g: Graph, tag: Tag) -> Halfspace:
    if isinstance(tag, CoordinateTag):
        return coordinate_halfspace(g, tag.vertex)
    return independent_set_halfspace(g, tag.vertices)


def _tag_sort_key(tag: Tag):
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

    Only the closed sets need testing: independent sets ``A`` such that
    every non-isolated ``u`` with ``N(u) <= N(A)`` lies in ``A``.  Let
    ``R = V - A - N(A)``.  An edge lies on ``A``'s hyperplane iff it
    joins ``A`` to ``N(A)`` or lies inside ``R``; call the graph of those
    edges ``H``, on all of ``V``.  The face has rank ``n`` minus the
    bipartite components of ``H`` and the cone has dimension ``n`` minus
    those of the graph (isolated vertices count as components).  The
    edges of ``H`` inside a component ``C`` of the graph have rank at
    most that of ``C``'s edges, so ``C`` holds at least as many
    bipartite components of ``H`` as of the graph (one or none), and
    ``A`` cuts a facet iff exactly one ``C`` holds one more.  The
    ``A``-``N(A)`` edges form bipartite components of ``H``, and a
    component of the graph that misses ``A`` lies in ``R`` and holds
    the same components in both.

    Now let ``u`` outside ``A`` be non-isolated with ``N(u) <= N(A)``,
    in the component ``C``.  Then ``u`` lies in ``R`` (a neighbor of
    ``u`` in ``A`` would lie in ``N(A)``, next to a member of ``A``),
    all its edges reach ``N(A)`` and are off the hyperplane, so ``u`` is
    a component of ``H`` by itself, and its neighbors lie in a further
    one, of ``A``-``N(A)`` edges inside ``C``.  That is at least one
    more than ``C`` holds in the graph if ``C`` is bipartite and at
    least two if not.  So ``A`` cuts a facet only if ``C`` is bipartite,
    meets ``R`` in ``u`` alone (every piece of ``R`` in ``C`` is a
    bipartite component of ``H``) and has connected ``A``-``N(A)``
    edges, while every other component meeting ``A`` is bipartite, lies
    inside ``A + N(A)`` and has connected ``A``-``N(A)`` edges.  For a connected graph that is
    ``A + N(A) = V - {u}``, and it can happen in a disconnected one
    too.  Then no edge joins two vertices of ``N(A)`` (they lie at even
    distance in a connected bipartite piece, so the edge would close an
    odd cycle), and ``u`` is the only vertex of ``R`` next to ``N(A)``,
    so the edges off the hyperplane are exactly those of ``u``: the
    coordinate ``x_u`` cuts the same facet and its tag takes precedence.

    Isolated vertices touch no edge, so adding them to ``A`` or removing
    them leaves the face as it is, and a set of isolated vertices alone
    puts every edge on its hyperplane, which cuts the whole cone and no
    facet.  The smallest tag among the sets cutting a facet that no
    coordinate cuts is therefore a closed set of non-isolated vertices
    plus each isolated vertex below its largest member: each such vertex
    makes the tuple smaller, each one above makes it longer and so
    larger.  Close-by-One lists the closed sets, so the cost follows
    their number, not the number of independent sets.
    """
    result = []
    groups = _facet_groups(g, _candidates(g, max_vertices, _facet_sets))
    for on, tags in groups.items():
        tag = min(tags, key=_tag_sort_key)
        result.append(Facet(_halfspace(g, tag), tuple(_members(on))))
    result.sort(key=lambda f: _tag_sort_key(f.halfspace.plane.tag))
    return tuple(result)


def _sides(g: Graph) -> tuple[VertexSet, VertexSet]:
    if not g.vertices:
        raise GraphRequirementError(
            "operation requires a connected bipartite graph, got one "
            "with no vertices")
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


def _canonical_tag(tags: list[Tag], side1: VertexSet, side2: VertexSet) -> Tag:
    """Pick the unique canonical tag of one facet: a side-2 coordinate if
    available, else the single independent set strictly inside side 1."""
    side2_coords = [t for t in tags
                    if isinstance(t, CoordinateTag) and t.vertex in side2]
    if side2_coords:
        return min(side2_coords, key=_tag_sort_key)
    side1_sets = [t for t in tags
                  if isinstance(t, IndependentSetTag)
                  and set(t.vertices) < set(side1)]
    if len(side1_sets) != 1:
        raise AssertionError(
            f"expected exactly one side-1 tag per facet, got {side1_sets}")
    return side1_sets[0]


def _canonical(g: Graph, candidates: Iterable[tuple[int, Tag | int]]
               ) -> ConeRepresentation:
    """Canonical representation of a connected bipartite graph from the
    facets among ``candidates``, each with the edges on its hyperplane."""
    side1, side2 = g.bipartitions[0]
    equations = affine_hull(g)
    if cone_dimension(g) <= 1:
        halfspaces = tuple(coordinate_halfspace(g, v) for v in side2)
        return ConeRepresentation(equations, halfspaces, "canonical_bipartite")
    chosen = [_canonical_tag(tags, side1, side2)
              for tags in _facet_groups(g, candidates).values()]
    chosen.sort(key=_tag_sort_key)
    return ConeRepresentation(equations, tuple(_halfspace(g, t) for t in chosen),
                              "canonical_bipartite")


def _one_sided_sets(g: Graph, masks: Sequence[int]):
    """The closed sets inside side 1 of a connected bipartite graph, then
    the sets ``side1 - {u}`` that are not closed.

    ``_canonical_tag`` chooses a side-2 coordinate or the one set
    strictly inside side 1, and by the proof in ``facets`` a side-1 set
    that cuts a facet and is not closed is ``side1 - {u}``: so every
    canonical tag is a coordinate, a closed side-1 set or one of these.
    The closure of a side-1 set stays on side 1 (a side-2 vertex has its
    neighbors on side 1, outside ``N(A)``), so side 1 is walked alone.
    """
    side1 = sum(1 << v for v in g.bipartitions[0][0])
    for a, na in _closed_sets(masks, side1):
        yield a, na, a
    for u in _members(side1):
        a = side1 & ~(1 << u)
        na = _union(masks, a)
        if a and not masks[u] & ~na:  # skip the closed ones, walked above
            yield a, na, a


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
    return _canonical(g, _candidates(g, max_vertices, _one_sided_sets))


def remove_redundant(g: Graph, rep: ConeRepresentation) -> ConeRepresentation:
    """Reduce the full representation of a connected bipartite graph to
    the canonical irreducible one.

    Keeps the coordinate and side-1 set halfspaces, the only tags
    ``_canonical_tag`` chooses, drops every one failing the facet rank
    criterion, merges those that cut the same facet, and re-tags each
    facet canonically.
    """
    side1 = set(_sides(g)[0])
    if rep.kind != "full":
        raise ValueError(f"expected a full representation, got kind={rep.kind!r}")
    side1_tags = ((sum(1 << idx for idx in _side_split(g, h.plane.normal)[0]),
                   h.plane.tag)
                  for h in rep.halfspaces
                  if not isinstance(h.plane.tag, IndependentSetTag)
                  or side1.issuperset(h.plane.tag.vertices))
    return _canonical(g, side1_tags)
