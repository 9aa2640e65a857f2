"""Halfspace descriptions of the edge cone and exact membership tests.

The edge cone of a graph is the cone spanned by its incidence column
vectors.  It equals the set of vectors with nonnegative coordinates
whose sum over any independent set ``A`` is at most the sum over the
neighbor set of ``A``; the affine hull contributes one balance equation
per bipartite component.  This module builds those constraint systems
and the one flow network that membership, decomposition and matching
route on: the bipartite double cover, halved on bipartite components.
A graph lays out that network's residual arcs once, on its first route,
and keeps them; each call fills in a capacity list for its point,
routes what it can greedily along the three-arc paths ``source -> v ->
w' -> sink``, edges with low-degree ends first, and finishes with one
maximum flow on those plain arrays.
Dimensions come from graph combinatorics; elimination is oracle-only.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Sequence, Union

from .graph import (DEFAULT_MAX_VERTICES, Graph, VertexSet, _frame,
                    bipartite_component_count, check_gate, vertex_set)
from .rational import Rational, all_int, clear_denominators, dot, is_int, is_primitive

SENSE_GE = ">=0"
SENSE_LE = "<=0"


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} {name!r}")


def _value(*sequences):
    """The recipe of every public value and result class: a slotted
    frozen dataclass whose fields named in ``sequences`` are copied into
    tuples, so a caller's list cannot change the object later.  Tuples
    are kept as they are, and so is ``None`` in a field whose default is
    ``None`` (``MatchingResult``'s ``matching`` and ``violator``); in
    any other field ``None`` raises ``TypeError``.  The class's own
    ``__post_init__`` runs after the copy and must not call ``super()``,
    for ``dataclass(slots=True)`` rebuilds the class.  For the same reason
    the ``__setattr__`` it generates still names the class it replaced,
    so on CPython 3.10-3.13 a name that is no field raises ``TypeError``
    from its ``super()`` call; every assignment and deletion goes to
    ``_refuse`` instead.  Construction, ``copy`` and ``pickle`` write
    through ``object.__setattr__`` and are unaffected."""

    def build(cls):
        check = cls.__dict__.get("__post_init__")
        optional = {name for name in sequences if cls.__dict__.get(name, ()) is None}

        def __post_init__(self):
            for name in sequences:
                value = getattr(self, name)
                if type(value) is not tuple and (value is not None or name not in optional):
                    object.__setattr__(self, name, tuple(value))
            if check:
                check(self)

        if sequences:
            cls.__post_init__ = __post_init__
        cls = dataclass(frozen=True, slots=True)(cls)
        cls.__setattr__ = cls.__delattr__ = _refuse
        return cls

    return build


@_value()
class CoordinateTag:
    """Hyperplane of a single vanishing coordinate."""
    vertex: int


@_value("vertices")
class IndependentSetTag:
    """Hyperplane equating an independent set's coordinate sum with its
    neighbor set's."""
    vertices: VertexSet


@_value()
class ComponentTag:
    """Affine-hull balance equation of one bipartite component."""
    component: int


Tag = Union[CoordinateTag, IndependentSetTag, ComponentTag, None]


@_value("normal")
class Hyperplane:
    """Primitive integer normal plus the combinatorial origin of the
    hyperplane (``None`` for raw normals, e.g. oracle output).

    The constructor checks that the normal is primitive, which leaves
    only integral ``Fraction`` entries to store as ``int``.  Halfspaces the
    library builds itself skip the copy and the check (``_trusted``):
    each of their normals is a tuple with an entry 1, so it is primitive
    by construction.
    """

    normal: tuple[int, ...]
    tag: Tag = None

    def __post_init__(self):
        if not is_primitive(self.normal):
            raise ValueError(f"normal must be primitive and nonzero: {self.normal}")
        if not all_int(self.normal):
            object.__setattr__(self, "normal", tuple(map(int, self.normal)))


@_value()
class Halfspace:
    """Closed halfspace ``<normal, x> >= 0`` or ``<= 0``.

    Coordinate halfspaces carry sense ``>=0``, independent-set ones
    ``<=0`` (the cone always lies on that side).  The constructor checks
    the sense against the tag; halfspaces the library builds itself skip
    that check too, as their builders fix the sense by the tag.
    """

    plane: Hyperplane
    sense: str

    def __post_init__(self):
        if self.sense not in (SENSE_GE, SENSE_LE):
            raise ValueError(f"bad sense {self.sense!r}")
        tag = self.plane.tag
        if isinstance(tag, CoordinateTag) and self.sense != SENSE_GE:
            raise ValueError("coordinate halfspaces carry sense >=0")
        if isinstance(tag, IndependentSetTag) and self.sense != SENSE_LE:
            raise ValueError("independent-set halfspaces carry sense <=0")

    def margin(self, x: Sequence[Rational]) -> Rational:
        """Nonnegative exactly when ``x`` satisfies the halfspace."""
        clear_denominators(x)  # the exact-input check alone: x keeps its scale
        value = dot(self.plane.normal, x)
        return value if self.sense == SENSE_GE else -value


@_value("equations", "halfspaces")
class ConeRepresentation:
    """Affine-hull equations plus halfspaces describing the edge cone."""

    equations: tuple[Hyperplane, ...]
    halfspaces: tuple[Halfspace, ...]
    kind: str  # "full" | "canonical_bipartite"

    def satisfied_by(self, x: Sequence[Rational]) -> bool:
        """Whether the exact ``x`` meets every constraint, rescaled to integers."""
        point = clear_denominators(x)
        return (all(dot(eq.normal, point) == 0 for eq in self.equations)
                and all(h.margin(point) >= 0 for h in self.halfspaces))


# The slot setters of the value classes, bound once: ``_trusted`` and
# the walk of ``full_representation`` fill in the slots through them,
# which skips ``__init__``, ``__post_init__`` and the frozen guard.
_new = object.__new__
_set_vertices = IndependentSetTag.vertices.__set__
_set_normal = Hyperplane.normal.__set__
_set_tag = Hyperplane.tag.__set__
_set_plane = Halfspace.plane.__set__
_set_sense = Halfspace.sense.__set__


def _trusted(normal: tuple[int, ...], tag: Tag, sense: str) -> Halfspace:
    """``Halfspace(Hyperplane(normal, tag), sense)`` without either
    ``__post_init__``, for the library's own builders: their normals
    have an entry 1, so are primitive, and ``sense`` is the one ``tag``
    fixes (``>=0`` for a coordinate, ``<=0`` for a set).  The slots are
    set through their member descriptors, as ``object.__setattr__``
    would set them, at half its cost."""
    plane = _new(Hyperplane)
    _set_normal(plane, normal)
    _set_tag(plane, tag)
    half = _new(Halfspace)
    _set_plane(half, plane)
    _set_sense(half, sense)
    return half


def coordinate_halfspace(g: Graph, vertex: int) -> Halfspace:
    n = g.vertex_count
    if not is_int(vertex):
        raise ValueError(f"vertex index must be an int, got {vertex!r}")
    if not 0 <= vertex < n:
        raise ValueError(f"vertex index out of range: {vertex}")
    normal = (0,) * vertex + (1,) + (0,) * (n - vertex - 1)
    return _trusted(normal, CoordinateTag(vertex), SENSE_GE)


def independent_set_halfspace(g: Graph, a: Iterable[int]) -> Halfspace:
    """Halfspace  sum_{v in A} x_v - sum_{v in N(A)} x_v <= 0."""
    members = vertex_set(g, a)
    if not members:
        raise ValueError("independent set must be nonempty")
    return _set_halfspace(g, IndependentSetTag(members))


def _set_halfspace(g: Graph, tag: IndependentSetTag) -> Halfspace:
    """``independent_set_halfspace`` of the members of ``tag``, which
    the caller has already made sorted, nonempty and in range; the
    halfspace carries ``tag`` itself."""
    members = tag.vertices
    normal = [0] * g.vertex_count
    for v in members:
        normal[v] = 1
    for v in members:
        for w in g.neighbors[v]:
            if normal[w] == 1:
                raise ValueError(f"vertex set {members} is not independent")
            normal[w] = -1
    return _trusted(tuple(normal), tag, SENSE_LE)


def cone_dimension(g: Graph) -> int:
    """Dimension of the edge cone, which is the rank of the incidence
    columns: vertex count minus the number of bipartite components.
    ``cross_validate`` compares it with exact elimination."""
    return g.vertex_count - bipartite_component_count(g)


def affine_hull(g: Graph) -> tuple[Hyperplane, ...]:
    """One balance equation per bipartite component, side-1 sum equal to
    side-2 sum (isolated vertices included as ``x_v = 0``);
    non-bipartite components contribute none."""
    equations = []
    for k, sides in enumerate(g.bipartitions):
        if sides is not None:
            normal = [0] * g.vertex_count
            for v in sides[0]:
                normal[v] = 1
            for v in sides[1]:
                normal[v] = -1
            equations.append(Hyperplane(tuple(normal), ComponentTag(k)))
    return tuple(equations)


def full_representation(g: Graph,
                        max_vertices: int = DEFAULT_MAX_VERTICES) -> ConeRepresentation:
    """The complete halfspace description: every coordinate halfspace and
    one halfspace per nonempty independent set, plus the affine hull.

    Halfspaces are ordered coordinates-by-index first, then independent
    sets lexicographically.  Refuses graphs above the vertex gate.

    One depth-first walk lists the sets in that order, so none is
    sorted: a set's children add one vertex above its last member and
    outside its members' neighbors, and are pushed highest vertex first,
    so the lowest comes off the stack first and the preorder is the
    lexicographic order of the tuples.  Each set carries the normal
    of its halfspace, 1 on the members, -1 on their neighbors and 0
    elsewhere; a child copies its parent's and marks the new member and
    the neighbors it adds, so a halfspace costs one copy of a vector of
    length ``n``, a few bit operations and its value objects, which are
    built through the slot setters of ``_trusted``.
    """
    check_gate(g, max_vertices)
    n = g.vertex_count
    masks = _frame(g)[0]
    halfspaces = [coordinate_halfspace(g, v) for v in range(n)]
    # (members, normal, members and their neighbors, vertices that may join)
    stack = [((), (0,) * n, 0, (1 << n) - 1)]
    while stack:
        members, normal, near, free = stack.pop()
        if members:
            tag = _new(IndependentSetTag)
            _set_vertices(tag, members)
            halfspaces.append(_trusted(normal, tag, SENSE_LE))
        rest = free
        while rest:
            w = rest.bit_length() - 1
            top = 1 << w
            rest ^= top
            child = [*normal]
            child[w] = 1
            added = masks[w] & ~near
            child_near = near | top | added
            while added:
                bit = added & -added
                added ^= bit
                child[bit.bit_length() - 1] = -1
            # the child may grow by the free vertices above w outside its near
            stack.append((members + (w,), tuple(child), child_near,
                          free & -(top << 1) & ~child_near))
    return ConeRepresentation(affine_hull(g), tuple(halfspaces), "full")


@_value()
class MembershipResult:
    """Decision plus, on rejection, a violated constraint: the coordinate
    halfspace of the lowest-index negative coordinate, or else the
    halfspace of a violated independent set from which no single vertex
    can be dropped."""

    is_member: bool
    violated: Halfspace | None = None

    def __bool__(self) -> bool:
        return self.is_member


def _layout(nodes: int, arcs: Iterable[tuple[int, int]]) -> tuple[tuple, tuple]:
    """The residual arcs of ``(tail, head)`` arcs on ``nodes`` nodes:
    ``(adj, to)``, the residual arcs leaving each node and each residual
    arc's head.  Arc ``k`` is residual arc ``2k`` and its reverse is
    ``2k + 1``, so ``cap[2k + 1]`` is the flow arc ``k`` carries."""
    adj: list[list[int]] = [[] for _ in range(nodes)]
    to: list[int] = []
    for tail, head in arcs:
        adj[tail].append(len(to))
        adj[head].append(len(to) + 1)
        to += (head, tail)
    return tuple(map(tuple, adj)), tuple(to)


def _max_flow(adj: Sequence[Sequence[int]], to: Sequence[int], cap: list[int],
              source: int, sink: int) -> tuple[int, list[int]]:
    """Dinic's maximum flow on integer capacities (Dinic 1970).

    Saturates ``cap``, the capacity of each residual arc of ``_layout``,
    in place and returns the flow value and the last phase's
    breadth-first levels: ``level[v] >= 0`` iff the residual network
    reaches ``v`` from the source, which is the source side of the
    minimal minimum cut, the same for every maximum flow.

    Each phase labels the residual network with breadth-first levels,
    then saturates it with a blocking flow: an iterative depth-first
    search along level-increasing arcs that keeps a current-arc pointer
    per node, so no arc is rescanned after it stops leading to the sink.
    After each augmenting path it restarts from the source: the
    current-arc pointers lead straight back down the path's unsaturated
    prefix to its first saturated arc, so the paths are those of
    resuming there.
    Unit networks such as the all-ones double cover take O(m sqrt(n))
    time (Even and Tarjan 1975).  Arcs are scanned in layout order, so
    results are deterministic.
    """
    total = 0
    while True:
        level = [-1] * len(adj)
        level[source] = 0
        queue = [source]
        for u in queue:
            depth = level[u] + 1
            for arc in adj[u]:
                v = to[arc]
                if cap[arc] and level[v] < 0:
                    level[v] = depth
                    queue.append(v)
            if level[sink] >= 0:
                break
        if level[sink] < 0:
            return total, level
        current = [0] * len(adj)
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                pushed = min([cap[arc] for arc in path])
                for arc in path:
                    cap[arc] -= pushed
                    cap[arc ^ 1] += pushed
                total += pushed
                u, path = source, []
                continue
            arcs = adj[u]
            depth = level[u] + 1
            k, end = current[u], len(arcs)
            while k < end:
                arc = arcs[k]
                if cap[arc] and level[to[arc]] == depth:
                    break
                k += 1
            current[u] = k
            if k < end:
                path.append(arc)
                u = to[arc]
            elif path:
                # dead end: retreat and skip the arc that led here
                u = to[path.pop() ^ 1]
                current[u] += 1
            else:
                break


def _reaching(adj: Sequence[Sequence[int]], to: Sequence[int], cap: Sequence[int],
              sink: int) -> list[bool]:
    """After ``_max_flow``: the nodes that reach ``sink`` in the residual
    network, outside the source side of the maximal minimum cut."""
    seen = [False] * len(adj)
    seen[sink] = True
    queue = [sink]
    for u in queue:
        for arc in adj[u]:
            v = to[arc]
            if cap[arc ^ 1] and not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen


def _network(g: Graph) -> tuple:
    """The part of ``_route``'s flow network that no point changes,
    which ``Graph._flow_network`` builds once per graph: ``(side2,
    left, right, edge_arcs, greedy, adj, to)``, immutable throughout.

    Nodes ``v`` and ``v'`` are ``v`` and ``n + v``, the source ``2n``
    and the sink ``2n + 1``.  A vertex on side 2 of a bipartite
    component has no left node, one on side 1 no right node.  The
    ``edge_arcs`` arcs ``v -> w'`` come first, in edge order, then
    ``source -> v`` per ``left`` vertex and ``v' -> sink`` per ``right``
    vertex; ``adj`` and ``to`` are their ``_layout``.  ``greedy`` holds
    the residual ids of the edge arcs in the order of ``_route``'s
    greedy pass: by the degree sum of the arc's two ends, lowest first,
    ties in layout order.  An end of low degree has few partners, so
    serving it first keeps the pass from spending its only partner on
    one that had others (Karp and Sipser 1981), and leaves Dinic fewer
    paths to repair.
    """
    n = g.vertex_count
    source, sink = 2 * n, 2 * n + 1
    side1 = {v for sides in g.bipartitions if sides for v in sides[0]}
    side2 = frozenset(v for sides in g.bipartitions if sides for v in sides[1])
    left = tuple(v for v in range(n) if v not in side2)
    right = tuple(v for v in range(n) if v not in side1)
    arcs = [(u, n + w) for i, j in g.edges
            for u, w in ((i, j), (j, i)) if u not in side2]
    edge_arcs = len(arcs)
    degree = [*map(len, g.neighbors)]
    sums = [degree[tail] + degree[head - n] for tail, head in arcs]
    greedy = tuple(2 * k for k in sorted(range(edge_arcs), key=sums.__getitem__))
    arcs += [(source, v) for v in left]
    arcs += [(n + v, sink) for v in right]
    return (side2, left, right, edge_arcs, greedy) + _layout(2 * n + 2, arcs)


def _route(g: Graph, point: Sequence[int]) -> list[int] | Halfspace:
    """The flows on the edge arcs of a maximum flow that routes the
    integer ``point``, or the halfspace it violates: the lowest-index
    negative coordinate, or else an independent set from which no
    single vertex can be dropped.

    ``point`` is in the cone iff ``(point, point)`` routes on the
    bipartite double cover: arcs ``source -> v``, ``v' -> sink`` of
    capacity ``point[v]`` and uncapped ``v -> w'``, ``w -> v'`` per edge
    ``vw``.  A bipartite component's cover is a copy from side 1 to side
    2' plus its exact reverse, so only the copy is built: on a bipartite
    graph edge arc ``k``, and entry ``k`` of the result, is edge ``k``.
    The arcs come from the graph (``_network``, built on its first
    route); a call fills in only its own ``cap``: the coordinate sum,
    which no flow on one arc exceeds, on each edge arc, and ``point[v]``
    on the source and sink arcs.  Every shortest path has three arcs,
    ``source -> v -> w' -> sink``, so a greedy pass first sends along
    each edge arc ``v -> w'`` what ``v`` still supplies and ``w'`` still
    takes, the warm start of Hopcroft and Karp (1973), and leaves the
    rest to ``_max_flow``.  It takes the arcs by the degree sum of their
    ends, lowest first (``_network``'s ``greedy``), so a vertex with few
    neighbors is served before a neighbor of it with others spends its
    amount elsewhere.  That saturates ``cap``, so its odd entries are
    then the flows.
    A short flow leaves reachable left vertices ``S`` with
    ``point(S) > point(N(S))`` (the reverse copy carries the reversed
    flow, so side-2 ``w`` is in ``S`` iff ``w'`` reaches the sink);
    those outside ``N(S)`` are independent, have no neighbor in ``S``
    and so keep that surplus.  Passes from the highest index down then
    drop vertices while the rest stays violated; dropping ``v`` takes
    from the neighbor set exactly the neighbors of ``v`` that no other
    member touches, so each test costs ``deg v``.
    """
    for v, c in enumerate(point):
        if c < 0:
            return coordinate_halfspace(g, v)
    n = g.vertex_count
    source, sink = 2 * n, 2 * n + 1
    side2, left, right, edge_arcs, greedy, adj, to = g._flow_network
    cap = [sum(point), 0] * edge_arcs + [0] * (2 * (len(left) + len(right)))
    left_over = list(point) * 2  # what node v still supplies, node n + v still takes
    pushed = 0
    for arc in greedy:
        head, tail = to[arc], to[arc + 1]
        sent = left_over[tail]
        if sent > left_over[head]:
            sent = left_over[head]
        if sent:
            left_over[tail] -= sent
            left_over[head] -= sent
            cap[arc] -= sent
            cap[arc + 1] = sent
            pushed += sent
    ends = [left_over[v] for v in left] + [left_over[n + v] for v in right]
    cap[2 * edge_arcs::2] = ends
    cap[2 * edge_arcs + 1::2] = [point[v] - c for v, c in zip(left + right, ends)]
    value, level = _max_flow(adj, to, cap, source, sink)
    if pushed + value == sum(point[v] for v in left) == sum(point[v] for v in right):
        return cap[1:2 * edge_arcs:2]
    reached = [depth >= 0 for depth in level]
    if side2:
        back = _reaching(adj, to, cap, sink)
        reached = [back[n + v] if v in side2 else reached[v] for v in range(n)]
    neighbors = g.neighbors
    members = [v for v in range(n)
               if reached[v] and not any(reached[w] for w in neighbors[v])]
    touching = [0] * n  # members adjacent to each vertex
    for v in members:
        for w in neighbors[v]:
            touching[w] += 1
    surplus = (sum(point[v] for v in members)
               - sum(point[w] for w in range(n) if touching[w]))
    while True:
        kept = []
        for v in reversed(members):
            change = sum(point[w] for w in neighbors[v] if touching[w] == 1) - point[v]
            if surplus + change > 0:
                surplus += change
                for w in neighbors[v]:
                    touching[w] -= 1
            else:
                kept.append(v)
        if len(kept) == len(members):
            return _set_halfspace(g, IndependentSetTag(members))
        members = kept[::-1]


def membership(g: Graph, x: Sequence[Rational]) -> MembershipResult:
    """Exact edge-cone membership by one maximum flow.

    ``x`` belongs to the cone iff every coordinate is nonnegative and,
    for every independent set, the set's coordinate sum is at most its
    neighbor set's; those inequalities imply the affine-hull equations
    (take both sides of each bipartite component).  A rejection carries
    the lowest-index negative coordinate or a violated independent set
    from which no single vertex can be dropped.
    """
    routed = _route(g, clear_denominators(x, g.vertex_count))
    if isinstance(routed, Halfspace):
        return MembershipResult(False, routed)
    return MembershipResult(True)
