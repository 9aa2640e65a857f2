"""Facet detection and the canonical irreducible representation.

A facet is a face of dimension one less than the cone.  A supporting
hyperplane cuts a facet exactly when the edge vectors lying on it have
rank ``cone_dimension - 1``; that rank criterion works for arbitrary
graphs, and ``face_dimension`` and ``is_facet`` take it, the latter
also for ``bipartite_facet_check`` and ``dual_facet``.  The rank is the
edge-cone dimension of the subgraph those edges form, read off the
colouring search that builds ``Graph``, so no elimination runs here;
only the oracle eliminates.  ``facets`` takes no rank.  For a
connected bipartite graph the facets are the directed bonds, and
``facets``, ``canonical_representation`` and ``remove_redundant`` read
their tags off the bonds; the cone has a unique irreducible
representation whose halfspaces are tagged by independent sets
strictly inside side 1 plus coordinate halfspaces of side-2 vertices.

Facets are identified by their generator sets (the edge indices on the
bounding hyperplane): on the affine hull, distinct normals can cut the
same facet, so normals alone are not a usable identity.

The cone of a disjoint union is the product of its components' cones,
so ``facets`` searches one component at a time and adds the sides of
other bipartite components to a set tag where that makes it smaller.
On a bipartite component it tags each directed bond with the smallest
of the at most three tags that cut its facet, so its cost follows the
number of facets.  On a non-bipartite component its candidates are the
coordinate hyperplanes and the closed independent sets, the independent
extents of the formal concepts of the non-adjacency relation (Ganter
and Wille 1999), which Close-by-One lists on vertex bitmasks; ``facets``
proves both candidate lists complete.  Each candidate is decided by the
split it makes of the component, searched on vertex bitmasks (the
regular vertices and fundamental sets of Ohsugi and Hibi 1998), and a
``Halfspace`` is built only for the tag that a facet keeps, so that
cost follows the number of closed sets, not the number of independent
sets (``full_representation`` still lists all of those).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .cone import (ConeRepresentation, CoordinateTag, Halfspace, Hyperplane,
                   IndependentSetTag, Tag, _set_halfspace, _value, affine_hull,
                   cone_dimension, coordinate_halfspace, independent_set_halfspace)
from .errors import GraphRequirementError, NotSupportingHyperplaneError
from .graph import (DEFAULT_MAX_VERTICES, Graph, VertexSet, _colour_search, _frame,
                    _members, _union, check_gate)


@_value("generators_on")
class Facet:
    """A facet together with the edge indices spanning it."""

    halfspace: Halfspace
    generators_on: tuple[int, ...]


def _edge_rank(g: Graph, on: Sequence[int]) -> int:
    """Rank of the edge vectors with indices ``on``: the edge-cone
    dimension of the subgraph they form on all vertices of ``g``, its
    vertex count minus its bipartite components, read off the colouring
    search that builds ``Graph``.  A vertex no edge touches is a
    bipartite component and adds nothing."""
    adjacency: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for idx in on:
        i, j = g.edges[idx]
        adjacency[i].append(j)
        adjacency[j].append(i)
    return sum(len(reached) - (colour is not None)
               for reached, colour in _colour_search(adjacency))


def face_dimension(g: Graph, h: Hyperplane | Halfspace) -> int:
    """Dimension of the face cut by a supporting hyperplane: the rank of
    the edge vectors lying on it (the apex face has dimension 0).  Edge
    ``(i, j)`` is the sum of two unit vectors, so its value on the
    normal is ``normal[i] + normal[j]``."""
    normal = (h.plane if isinstance(h, Halfspace) else h).normal
    if len(normal) != g.vertex_count:
        raise ValueError(f"dimension mismatch: {len(normal)} vs {g.vertex_count}")
    values = [normal[i] + normal[j] for i, j in g.edges]
    if any(v > 0 for v in values) and any(v < 0 for v in values):
        raise NotSupportingHyperplaneError(
            f"hyperplane {normal} has edge vectors strictly on both "
            f"sides and does not support the edge cone")
    return _edge_rank(g, [idx for idx, v in enumerate(values) if v == 0])


def is_facet(g: Graph, h: Hyperplane | Halfspace) -> bool:
    """Rank criterion: the on-hyperplane edge vectors span dimension
    ``cone_dimension - 1``.  Cones of dimension at most 1 have no facet
    besides the apex, which is excluded."""
    dim = cone_dimension(g)
    if dim <= 1:
        return False
    return face_dimension(g, h) == dim - 1


def _closed_sets(masks: Sequence[int], universe: int) -> Iterator[tuple[int, int]]:
    """Close-by-One (Kuznetsov 1993) over the vertices of ``universe``:
    every nonempty independent set ``A`` inside ``universe`` that is
    closed, ``A = {u in universe : N(u) <= N(A)}``, exactly once, as the
    bitmasks ``(A, N(A))``.  ``universe`` is a connected non-bipartite
    component, which holds no isolated vertex, so the empty set is
    closed.

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


def _reach(masks: Sequence[int], seed: int, within: int) -> int:
    """The vertices of ``within`` that a path inside ``within`` joins to
    a vertex of ``seed``, a subset of ``within``, as a bitmask."""
    reached = frontier = seed
    while frontier:
        frontier = _union(masks, frontier) & within & ~reached
        reached |= frontier
    return reached


def _all_odd(masks: Sequence[int], part: int) -> bool:
    """Whether every component of the subgraph induced on the vertex
    bitmask ``part`` has an odd cycle.  Breadth-first layers from the
    lowest vertex of a component find one iff an edge joins two
    vertices of the same layer."""
    while part:
        reached = frontier = part & -part
        odd = False
        while frontier:
            near = _union(masks, frontier) & part
            odd = odd or bool(near & frontier)
            frontier = near & ~reached
            reached |= frontier
        if not odd:
            return False
        part &= ~reached
    return True


def _halfspace(g: Graph, tag: Tag) -> Halfspace:
    if isinstance(tag, CoordinateTag):
        return coordinate_halfspace(g, tag.vertex)
    return _set_halfspace(g, tag)


def _tag_sort_key(tag: Tag):
    if isinstance(tag, CoordinateTag):
        return (0, tag.vertex, ())
    return (1, -1, tag.vertices)


def _bond_tag(part: int, side: int) -> Tag:
    """The tag a directed bond gives through one of its halves ``part``:
    ``x_v`` when ``part = {v}``, else the members of ``part`` on
    ``side``, all as bitmasks."""
    if part & (part - 1) == 0:
        return CoordinateTag(part.bit_length() - 1)
    return IndependentSetTag(tuple(_members(part & side)))


def facets(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> tuple[Facet, ...]:
    """All facets of the edge cone, one entry per facet.

    Every facet is cut by a coordinate hyperplane or by an independent
    set's hyperplane; when several candidates cut the same facet the
    coordinate tag (smallest index) is preferred, then the
    lexicographically smallest set.  Output order: coordinate-tagged
    facets by index, then set-tagged facets lexicographically.  The
    generators of a facet are read off the normal of the tag it keeps:
    the edges ``(i, j)`` with ``normal[i] + normal[j] == 0``.

    The cone of a disjoint union is the product of its components'
    cones, so each facet is a facet ``F`` of one component ``C`` with
    every edge of the other components on it, and each component is
    searched on its own.  A candidate of ``G`` cuts that facet iff its
    hyperplane holds exactly those edges.  A coordinate ``x_v`` does
    iff ``v`` lies in ``C`` and ``x_v`` cuts ``F``.  An independent
    ``A`` does iff ``A & C`` cuts ``F`` in ``C`` and, for each other
    component ``D`` that ``A`` meets, every edge of ``D`` lies on the
    hyperplane.  Off it lie the edges that touch ``N(A)`` and miss
    ``A``, so that last condition leaves no vertex of ``D`` outside
    ``A + N(A)`` (a path would reach it from ``A`` through ``N(A)``)
    and no edge inside ``N(A) & D``: ``D`` is bipartite and ``A & D``
    is one of its sides.  An isolated vertex is a side 1 of size one.

    So a set tag is ``X`` plus a union of sides of other bipartite
    components, for one of ``C``'s own cutting sets ``X``, and the
    smallest one is found greedily.  Adding a block ``B`` to a disjoint
    ``X`` makes the sorted tuple smaller exactly when ``min B < max
    X``: the two agree below ``min B``, where ``X + B`` holds ``min B``
    and ``X`` a larger member or nothing more.  Side 1 holds its
    component's lowest vertex, so ``X`` plus side 1 is smaller than
    ``X`` plus side 2 whenever side 2 is not empty, and side 2 is never
    chosen.  Walking the other bipartite components by lowest vertex,
    side 1 is added while that vertex lies below the running maximum,
    for then it makes the tuple smaller whatever is added after it.  At
    the first component whose lowest vertex lies above, so do those of
    all later ones, and adding any of them would only lengthen the
    tuple.

    A connected bipartite component ``C`` has one facet per directed
    bond ``(S, T)`` (see ``_directed_bonds``): the edges inside ``S``
    and inside ``T`` lie on it and the cut does not, each cut edge
    running from side 2 in ``S`` to side 1 in ``T``.  Its cutting sets
    are ``_bond_tag(S, side1)``, ``_bond_tag(T, side2)`` and the set
    ``(S & side1) + (T & side2)``, and no rank is taken, for these are
    the only tags whose hyperplane holds exactly those edges of ``C``.
    Off the plane of ``x_v`` lie the edges at ``v``; they are the cut
    only if ``v`` has no neighbor in its own half, which is connected
    and so is ``{v}``; a single edge has two such halves, and the lower
    coordinate is kept.  Off the plane of an independent ``A`` lie the
    edges that touch ``N(A)`` and miss ``A``.  If ``A`` meets ``S``,
    the edges inside ``S`` are on the plane, so the neighbors in ``S``
    of a member lie in ``N(A)`` and theirs in ``A``: ``A`` holds a
    colour class of the connected ``S``.  It is not ``S & side2``, or
    the cut edges would touch ``A`` and lie on the plane.  Likewise
    ``A`` meets ``T`` in nothing or in ``T & side2``, and not in nothing
    both times.  Back, a side-1 vertex of ``S`` has no neighbor in
    ``T``, and in a connected ``S`` of two or more vertices every
    side-2 vertex has one on side 1, so ``N(S & side1) = S & side2``:
    the plane holds the edges inside ``S`` and inside the rest, ``T``,
    and not the cut.  ``T & side2`` is the mirror image.  No edge joins
    the two, and their union has the neighbors ``(S & side2) + (T &
    side1)``, which only the cut edges join to each other.

    A connected non-bipartite component ``C`` has a full-dimensional
    cone, so a candidate cuts a facet iff the edges of ``C`` on its
    hyperplane have rank ``|C| - 1``: iff the graph ``H`` they form on
    the vertices of ``C`` has exactly one bipartite component, an
    isolated vertex counted as one.  A facet has one normal up to a
    positive scale.  The candidate normals have entries in ``{-1, 0,
    1}``, a set's normal has a ``-1`` (every member has a neighbor) and
    distinct sets differ where the normal is 1, so each facet has at
    most one candidate, and no grouping is needed.  Off the plane of
    ``x_v`` lie the edges at ``v``, so ``H`` is ``C - v`` and ``v``
    alone: ``x_v`` cuts a facet iff every component of ``C - v`` has an
    odd cycle.  For an independent ``A`` let ``R = C - A - N(A)``.  An
    edge of ``C`` lies on ``A``'s hyperplane iff it joins ``A`` to
    ``N(A)`` or lies inside ``R``, so the ``A``-``N(A)`` edges form
    bipartite components of ``H`` that cover ``A + N(A)``, and the rest
    of ``H`` is the subgraph induced on ``R``: ``A`` cuts a facet iff its
    members are linked through common neighbors, so that those edges
    form one component, and every component of ``R`` has an odd cycle.
    These are the regular vertices and the fundamental sets of Ohsugi
    and Hibi (J. Algebra 207, 1998), and both are tested on vertex
    bitmasks.  Only closed sets are candidates, the independent ``A``
    such that every ``u`` in ``C`` with ``N(u) <= N(A)`` lies in ``A``;
    no other set cuts a facet, so each facet has exactly one.  For let
    ``u`` outside ``A`` have ``N(u) <= N(A)``.  Then ``u`` lies in ``R``
    (a neighbor of ``u`` in ``A`` would lie in ``N(A)``, next to a
    member of ``A``) with all its neighbors in ``N(A)``, so it is a
    component of ``R`` with no edge.  Close-by-One lists the closed
    sets, so the cost follows their number, not the number of
    independent sets.
    """
    dim = cone_dimension(g)
    if dim <= 1:
        return ()
    check_gate(g, max_vertices)
    masks, parts = _frame(g)

    def grown(x: int, own: int) -> tuple[int, ...]:
        """``x`` plus the sides 1 of other components that make it smaller."""
        for _, side in parts:  # by lowest vertex; 0 adds nothing
            if side & -side > x:
                break  # its lowest vertex lies above the running maximum
            if side != own:
                x |= side
        return tuple(_members(x))

    # the vertices two steps from each vertex: a closed set's members
    # are linked through common neighbors iff they reach each other on
    # these; only a non-bipartite component, whose side 1 is 0, reads it
    two = None if g.is_bipartite() else [_union(masks, m) for m in masks]
    chosen = []
    for universe, side1 in parts:
        if side1:
            for s in _directed_bonds(masks, side1, universe):
                t = universe & ~s
                singles = [p for p in (s, t) if p & (p - 1) == 0]
                if singles:  # a coordinate, which sorts first
                    tag = CoordinateTag(min(singles).bit_length() - 1)
                else:
                    s1, t2 = s & side1, t & ~side1
                    tag = IndependentSetTag(min(grown(x, side1) for x in (s1, t2, s1 | t2)))
                chosen.append(tag)
            continue
        chosen += [CoordinateTag(v) for v in _members(universe)
                   if _all_odd(masks, universe & ~(1 << v))]
        chosen += [IndependentSetTag(grown(a, 0)) for a, na in _closed_sets(masks, universe)
                   if _reach(two, a & -a, a) == a and _all_odd(masks, universe & ~(a | na))]
    out = []
    for tag in sorted(chosen, key=_tag_sort_key):
        h = _halfspace(g, tag)
        normal = h.plane.normal
        out.append(Facet(h, tuple([idx for idx, (i, j) in enumerate(g.edges)
                                   if normal[i] + normal[j] == 0])))
    return tuple(out)


def _sides(g: Graph) -> tuple[VertexSet, VertexSet]:
    if not g.vertices:
        raise GraphRequirementError(
            "operation requires a connected bipartite graph, got one "
            "with no vertices")
    if not g.is_connected() or not g.is_bipartite():
        raise GraphRequirementError(
            "operation requires a connected bipartite graph")
    return g.bipartitions[0]


def _side1_halfspace(g: Graph, a: Iterable[int]) -> Halfspace:
    """``independent_set_halfspace`` of ``a``, which must lie strictly
    inside side 1 of the connected bipartite ``g``."""
    side1 = _sides(g)[0]
    h = independent_set_halfspace(g, a)
    members = h.plane.tag.vertices
    if not set(members) < set(side1):
        raise ValueError(
            f"vertex set {members} is not strictly inside side 1 {side1}")
    return h


def bipartite_facet_check(g: Graph, a: Iterable[int]) -> bool:
    """Facet test for an independent set strictly inside side 1 of a
    connected bipartite graph: ``is_facet`` of its halfspace.

    The set cuts a facet iff the subgraph induced on the set plus its
    neighbors and the one induced on the remaining vertices are both
    connected (their union always spans the graph): the split is then a
    directed bond (see ``_directed_bonds``).
    """
    return is_facet(g, _side1_halfspace(g, a))


def dual_facet(g: Graph, a: Iterable[int]) -> Halfspace:
    """The side-2 description of a facet cut by an independent set
    strictly inside side 1.

    The set and its neighbors form the half ``S`` of a directed bond
    ``(S, T)`` (see ``_directed_bonds``), and the facet is tagged by the
    other half: ``x_v`` if ``T = {v}``, else ``T & side2``.  The normal
    of the set is 1 on it, -1 on its neighbors and 0 on ``T``.
    """
    h = _side1_halfspace(g, a)
    if not is_facet(g, h):
        raise ValueError(f"vertex set {h.plane.tag.vertices} does not cut a facet")
    normal = h.plane.normal
    rest = [v for v, c in enumerate(normal) if not c]
    if len(rest) == 1:
        return coordinate_halfspace(g, rest[0])
    return _set_halfspace(g, IndependentSetTag(
        [v for v in g.bipartitions[0][1] if not normal[v]]))


def _directed_bonds(masks: Sequence[int], side1: int, universe: int) -> Iterator[int]:
    """The directed bonds of the connected bipartite component whose
    vertex bitmask is ``universe``, as bitmasks of ``S``: the splits
    ``(S, T)`` of ``V = universe`` into two connected
    induced subgraphs where every edge between them has its side-1 end
    in ``T``, the minimal directed cuts of the orientation from side 2 to
    side 1 (Lucchesi and Younger 1978).

    They match the facets one to one when ``n >= 3``.  The on-edges of a
    facet have rank ``n - 2``, so they form two bipartite components; a
    normal vanishing on them is ``a`` and ``-a`` on the sides of one and
    ``b`` and ``-b`` on the other, so the off-edges join the two and are
    worth ``a - b`` or ``b - a`` by direction: they all run one way.
    Back, the halfspace of ``S & side1`` (of ``x_w`` if ``S = {w}``) has
    the edges inside ``S`` and ``T`` on it and the cut, which fixes the
    bond, on its open side.

    Flashlight search (Read and Tarjan 1975) grows ``I`` inside ``S``,
    connected and closed (a side-1 member brings its neighbors), and
    ``O`` inside ``T``.  A node is live iff ``I`` and ``O`` are disjoint,
    ``V - I`` is not empty and ``O`` lies in one component ``C`` of
    ``G - I``.  Then ``S = V - C`` is a bond: it is connected through
    ``I``, and an edge from ``C`` meets ``I`` on side 2, as side-1
    members of ``I`` have all their neighbors in ``I``.  A live node
    splits on the lowest ``v`` next to ``I`` and outside ``O``, into
    ``I + v`` closed and ``O + v``, live iff ``v`` is in ``C``.  With no
    such ``v``, every component of ``G - I`` meets ``O``, so ``S = I``.
    The root ``r = min S`` starts from ``{r}`` closed, with the vertices
    below ``r`` in ``O``.  Roots and ``O`` stay inside ``universe``, and
    an isolated vertex has no bond.

    Once ``O`` is nonempty, a live node moves every vertex of ``G - I``
    outside ``C`` into ``I`` at once.  In every bond ``(S, T)`` below
    it, ``T`` is connected, misses ``I`` and holds ``O``, so it lies
    inside ``C``, and ``S`` holds ``V - C``.  The moved set keeps ``I``
    closed, for a side-1 vertex outside ``C`` has no neighbor in ``C``,
    and connected, for each of its components is next to ``I``.  Then
    ``V = I + C``, every ``v`` next to ``I`` lies in ``C``, and the child
    ``O + v`` is live and costs no search.  Without the move, a node
    whose ``v`` lies outside ``C`` has the one live child ``I + v``, and
    on a path such single-child chains, one search each, made the walk
    cost ``Θ(n^3)``; with it the path's walk visits ``O(n)`` nodes.
    A live node with a frontier has a live child, ``O + v``, so a bond
    lies at most ``n`` levels below any node; a node costs at most two
    searches and a union, ``O(n + m)`` bitmask operations, so the delay
    is ``O(n (n + m))``.
    """

    def grow(inner: int, near: int, bit: int) -> tuple[int, int]:
        """``I + v`` closed, with its closed neighborhood ``near``."""
        v = bit.bit_length() - 1
        if bit & side1:
            return inner | bit | masks[v], near | masks[v] | _union(masks, masks[v])
        return inner | bit, near | bit | masks[v]

    def live(inner: int, near: int, outer: int):
        """The node with ``C`` (0 while ``O`` is empty), or None if dead."""
        rest = universe & ~inner
        if inner & outer or not rest:
            return None
        component = _reach(masks, outer & -outer, rest)
        if outer & ~component:
            return None
        forced = rest & ~component
        if outer and forced:  # every bond below puts them in S
            inner |= forced
            near |= forced | _union(masks, forced)
        return inner, near, outer, component

    roots = (live(*grow(0, 0, 1 << r), universe & ((1 << r) - 1)) for r in _members(universe))
    stack = [node for node in roots if node]
    while stack:
        inner, near, outer, component = stack.pop()
        frontier = near & ~inner & ~outer
        if not frontier:
            yield inner
            continue
        bit = frontier & -frontier
        if not outer:
            component = _reach(masks, bit, universe & ~inner)
        if bit & component:  # O + v stays in C
            stack.append((inner, near, outer | bit, component))
        node = live(*grow(inner, near, bit), outer)
        if node:
            stack.append(node)


def _bond_halfspaces(g: Graph) -> tuple[Halfspace, ...]:
    """The canonical halfspaces of the connected bipartite ``g``, in tag
    order: one per directed bond ``(S, T)`` (see ``_directed_bonds``),
    tagged ``_bond_tag(S, side1)``."""
    masks, ((universe, side1),) = _frame(g)
    tags = sorted((_bond_tag(s, side1) for s in _directed_bonds(masks, side1, universe)),
                  key=_tag_sort_key)
    return tuple(_halfspace(g, t) for t in tags)


def canonical_representation(g: Graph,
                             max_vertices: int = DEFAULT_MAX_VERTICES) -> ConeRepresentation:
    """The unique irreducible representation of a connected bipartite
    edge cone: the affine hull intersected with one halfspace per facet,
    each tagged by an independent set strictly inside side 1 or by a
    side-2 coordinate.

    Each directed bond ``(S, T)`` (see ``_directed_bonds``) is one
    facet, tagged ``x_w`` if ``S = {w}`` and else ``S & side1``: a
    connected ``T`` has a side-1 vertex, or its edges would run the
    wrong way.  No rank is taken.  A single edge has no facet, and its
    one bond gives the side-2 coordinate that carves out the ray.
    """
    _sides(g)
    if not g.edges:
        raise GraphRequirementError(
            "canonical representation requires at least one edge")
    if cone_dimension(g) > 1:
        check_gate(g, max_vertices)
    return ConeRepresentation(affine_hull(g), _bond_halfspaces(g), "canonical_bipartite")


def remove_redundant(g: Graph, rep: ConeRepresentation) -> ConeRepresentation:
    """Reduce ``rep = full_representation(g)`` of a connected bipartite
    graph to the canonical irreducible representation.

    Keeps, in tag order, the halfspaces of ``rep`` that the directed
    bonds give ``canonical_representation``, so no rank is taken; by
    uniqueness each facet has exactly one.  A single edge keeps its
    side-2 coordinate and a single vertex keeps nothing.  A halfspace
    of a hand-built ``rep`` that carries a canonical tag but another
    normal is dropped.
    """
    _sides(g)
    if rep.kind != "full":
        raise ValueError(f"expected a full representation, got kind={rep.kind!r}")
    wanted = {h.plane.tag: h for h in _bond_halfspaces(g)}
    kept = sorted((h for h in rep.halfspaces if wanted.get(h.plane.tag) == h),
                  key=lambda h: _tag_sort_key(h.plane.tag))
    return ConeRepresentation(affine_hull(g), tuple(kept), "canonical_bipartite")
