"""Simple graphs with labeled vertices.

Vertices are identified by their position in ``Graph.vertices`` (the
first-appearance order of the input document); every vector in the rest
of the package is indexed the same way.  Graphs are immutable.  Their
neighbor tuples, components and bipartitions are computed eagerly, the
last two by ``_colour_search``, the one search for components and odd
cycles over neighbor lists; the rank of a face and the bond test of
``bipartite_facet_check`` and ``dual_facet`` run it on subgraphs.  One
cached view is built on first use and then only read: the arcs of the
flow network that membership, decomposition and matching route on.  So
instances are safe to share between threads.  A vertex set is handled
as a bitmask over vertex indices wherever it is searched or combined;
each walk over vertex bitmasks takes them from ``_frame`` and drops
them when it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import EdgeListParseError, EnumerationGateError
from .rational import all_int, is_int

# Enumerating independent sets, closed sets or directed bonds can take
# time exponential in the vertex count; the gate keeps that from being
# triggered by accident.  Override per call.
DEFAULT_MAX_VERTICES = 20

VertexSet = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: string labels, loop-free deduplicated edges.

    ``vertices`` and ``edges`` are copied into tuples, so a caller's
    list cannot change the graph later.  ``edges`` holds index pairs
    ``(i, j)`` with ``i < j``.  ``neighbors[v]`` lists the neighbors of
    ``v`` in increasing order.  ``components`` partitions the vertex
    indices; ``bipartitions[k]`` is ``(side1, side2)`` for a bipartite
    component (``side1`` contains the component's smallest index) and
    ``None`` for a non-bipartite one.  An isolated vertex is a bipartite
    component with an empty second side.  One cached view is built on
    first use and is read-only: ``_flow_network``, the point-independent
    part of the flow network (``cone._network``).  It takes no part in
    equality, hashing, ``repr`` or pickling.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[VertexSet, ...] = field(init=False, repr=False, compare=False)
    components: tuple[VertexSet, ...] = field(init=False, repr=False, compare=False)
    bipartitions: tuple[tuple[VertexSet, VertexSet] | None, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        n = len(self.vertices)
        if not {*map(type, self.vertices)} <= {str}:
            label = next(v for v in self.vertices if type(v) is not str)
            raise ValueError(f"vertex label must be a str, got {label!r}")
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertex labels")
        object.__setattr__(self, "edges", tuple(map(_pair, self.edges)))
        if not all_int(chain.from_iterable(self.edges)):
            vertex_set(self, chain.from_iterable(self.edges))  # raises the type error
        adjacency: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for edge in self.edges:
            i, j = edge
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if i > j:
                raise ValueError(f"edge ({i}, {j}) not normalized as i < j")
            if edge in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(edge)
            adjacency[i].append(j)
            adjacency[j].append(i)
        components = []
        bipartitions = []
        for reached, colour in _colour_search(adjacency):
            reached.sort()
            components.append(tuple(reached))
            bipartitions.append(None if colour is None else (
                tuple(v for v in reached if not colour[v]),
                tuple(v for v in reached if colour[v])))
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(a)) for a in adjacency))
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "bipartitions", tuple(bipartitions))

    @cached_property
    def _flow_network(self):
        from .cone import _network  # cone builds on this module
        return _network(self)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_flow_network"}

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def index_of(self, label: str) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise KeyError(f"no vertex labeled {label!r}") from None

    def is_bipartite(self) -> bool:
        return all(b is not None for b in self.bipartitions)

    def is_connected(self) -> bool:
        return len(self.components) <= 1


def _colour_search(adjacency: Sequence[Sequence[int]]
                   ) -> Iterator[tuple[list[int], list[int] | None]]:
    """The components of the graph whose neighbor lists are
    ``adjacency``, by lowest vertex: each one's vertices in search
    order, with the colours of all vertices searched so far, or ``None``
    if the component has an odd cycle.

    Breadth-first search from the lowest unseen vertex colours each
    vertex opposite to the one it is reached from, and an edge between
    equal colours closes an odd cycle.  An isolated vertex is a
    bipartite component of its own.
    """
    colour = [-1] * len(adjacency)
    for start in range(len(adjacency)):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        reached = [start]
        odd = False
        for v in reached:  # grows while it is read
            for w in adjacency[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    reached.append(w)
                elif colour[w] == colour[v]:
                    odd = True
        yield reached, None if odd else colour


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    One edge per line as two whitespace-separated labels; a line with a
    single label declares an isolated vertex; blank lines and lines
    starting with ``#`` are ignored.  Loops, duplicate edges and lines
    with more than two tokens are rejected with their line number.
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()

    def intern(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 1:
            intern(tokens[0])
        elif len(tokens) == 2:
            a, b = tokens
            if a == b:
                raise EdgeListParseError(f"loop edge {a!r} {b!r}", line=lineno)
            i, j = intern(a), intern(b)
            edge = (i, j) if i < j else (j, i)
            if edge in edge_set:
                raise EdgeListParseError(f"duplicate edge {a!r} {b!r}", line=lineno)
            edge_set.add(edge)
            edges.append(edge)
        else:
            raise EdgeListParseError(
                f"expected one or two labels, got {len(tokens)}", line=lineno)
    return Graph(tuple(labels), tuple(edges))


def _pair(edge) -> tuple[int, int]:
    """``edge`` copied into a tuple; it must be a tuple or list of two
    items."""
    if not isinstance(edge, (tuple, list)) or len(edge) != 2:
        raise ValueError(f"edge {edge!r} is not a pair of vertex indices")
    return tuple(edge)


def vertex_set(g: Graph, indices: Iterable[int]) -> VertexSet:
    """Normalize a collection of vertex indices: sorted, deduplicated,
    range-checked against ``g``.  Every index must pass ``is_int``: bools
    and other ``int`` subclasses are rejected, not read as integers."""
    given = list(indices)
    for v in given:
        if not is_int(v):
            raise ValueError(f"vertex index must be an int, got {v!r}")
    s = sorted(set(given))
    if s and not (0 <= s[0] and s[-1] < g.vertex_count):
        raise ValueError(
            f"vertex index out of range 0..{g.vertex_count - 1}: {s}")
    return tuple(s)


def neighbor_set(g: Graph, a: Iterable[int]) -> VertexSet:
    """All vertices adjacent to at least one member of ``a``."""
    return tuple(sorted({*chain.from_iterable(g.neighbors[v] for v in vertex_set(g, a))}))


def is_independent(g: Graph, a: Iterable[int]) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``a``; reads
    ``neighbors``, so it builds no bitmask."""
    members = vertex_set(g, a)
    return set(members).isdisjoint(chain.from_iterable(g.neighbors[v] for v in members))


def check_gate(g: Graph, max_vertices: int) -> None:
    """Refuse graphs above the vertex gate of an enumeration whose output
    can grow exponentially (independent sets, closed sets or directed
    bonds)."""
    if g.vertex_count > max_vertices:
        raise EnumerationGateError(
            f"{g.vertex_count} vertices exceed the gate of {max_vertices}: "
            f"refusing a possibly exponential enumeration; raise the gate "
            f"with max_vertices= (--max-n on the command line)")


def _frame(g: Graph) -> tuple[list[int], list[tuple[int, int]]]:
    """The bitmasks of a walk over ``g``: ``(masks, parts)``, where
    ``masks[v]`` holds the neighbors of ``v`` and ``parts`` holds one
    ``(universe, side1)`` pair per component, in ``components`` order,
    its vertices and its side 1, or 0 if it is not bipartite."""
    masks = [0] * g.vertex_count
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    parts = [(sum(1 << v for v in component), sum(1 << v for v in sides[0]) if sides else 0)
             for component, sides in zip(g.components, g.bipartitions)]
    return masks, parts


def _members(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _union(table: Sequence[int], mask: int) -> int:
    """The union of the bitmasks ``table[v]`` over the set bits ``v`` of
    ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= table[low.bit_length() - 1]
    return out


def independent_sets(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> Iterator[VertexSet]:
    """Yield every nonempty independent set exactly once.

    Order is deterministic: by cardinality, then lexicographically.  The
    empty set is excluded (its supporting hyperplane is degenerate and
    contributes nothing).  Each set costs a few bit operations, so the
    work follows the number of sets, not ``2**n``.  Refuses graphs above
    the vertex gate.
    """
    check_gate(g, max_vertices)
    masks = _frame(g)[0]
    # Each set carries the bitmask of vertices that may still join it:
    # above its last member and outside its members' neighbors, which is
    # the independence check.  The sets of one level are extended in
    # order, lowest vertex first, so the next level comes out in
    # lexicographic order too, and each set is yielded as it is built.
    level = [((), (1 << g.vertex_count) - 1)]
    while level:
        extended = []
        for members, free in level:
            while free:
                low = free & -free
                free ^= low
                w = low.bit_length() - 1
                child = members + (w,)
                yield child
                extended.append((child, free & ~masks[w]))
        level = extended


def bipartite_component_count(g: Graph) -> int:
    """Number of connected components that are bipartite; isolated
    vertices count."""
    return sum(1 for b in g.bipartitions if b is not None)


def edge_vectors(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Column vectors of the vertex-edge incidence matrix, one per edge:
    the sum of the two endpoint unit vectors, in edge order."""
    n = g.vertex_count
    out = []
    for i, j in g.edges:
        vec = [0] * n
        vec[i] = 1
        vec[j] = 1
        out.append(tuple(vec))
    return tuple(out)
