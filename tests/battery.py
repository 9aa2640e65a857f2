"""Graph batteries shared by the test modules.

Everything here is deterministic: exhaustive families are enumerated in
a fixed order and random families use fixed seeds.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache

from edgecone import (ConeRepresentation, CoordinateTag, EnumerationGateError,
                      Facet, Graph, IndependentSetTag, affine_hull,
                      canonical_representation, cone_dimension,
                      coordinate_halfspace, edge_vectors,
                      face_dimension, facets, full_representation,
                      has_perfect_matching, independent_set_halfspace,
                      independent_sets, integer_decompose, is_independent,
                      membership, neighbor_set, remove_redundant)
from edgecone.cone import SENSE_LE, Halfspace, Hyperplane
from edgecone.facets import _reach
from edgecone.graph import _members, _union
from edgecone.rational import dot, integer_kernel, integer_rref, primitive


def build(n: int, edges) -> Graph:
    return Graph(tuple(f"v{i + 1}" for i in range(n)),
                 tuple(sorted((min(i, j), max(i, j)) for i, j in edges)))


def path(n: int) -> Graph:
    return build(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    # center last, so side 1 (smallest index) is the leaf side
    return build(leaves + 1, [(i, leaves) for i in range(leaves)])


def spider(legs: int) -> Graph:
    """A center (vertex 0) joined to ``legs`` middle vertices, each with
    one leaf: the closed side-1 sets number ``2**legs``, the facets
    ``2 * legs``."""
    return build(2 * legs + 1, [(0, i) for i in range(1, legs + 1)]
                 + [(i, legs + i) for i in range(1, legs + 1)])


def disjoint_union(parts, label=None) -> Graph:
    """The graphs ``parts`` side by side, in order, vertex ``k`` then
    relabeled ``label[k]`` if a permutation ``label`` is given."""
    n = sum(g.vertex_count for g in parts)
    label = label or range(n)
    edges, offset = [], 0
    for g in parts:
        edges += [(label[offset + i], label[offset + j]) for i, j in g.edges]
        offset += g.vertex_count
    return build(n, edges)


def complete(n: int) -> Graph:
    return build(n, itertools.combinations(range(n), 2))


def complete_bipartite(m: int, n: int) -> Graph:
    return build(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def cube() -> Graph:
    edges = [(a, b) for a in range(8) for b in range(a + 1, 8)
             if bin(a ^ b).count("1") == 1]
    return build(8, edges)


def all_graphs(n: int):
    """Every labeled graph on ``n`` vertices, connected or not."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield build(n, [pairs[k] for k in range(len(pairs)) if bits >> k & 1])


@lru_cache(maxsize=None)
def connected_graphs_upto(max_n: int) -> tuple[Graph, ...]:
    """Every labeled connected graph on 1..max_n vertices."""
    return tuple(g for n in range(1, max_n + 1) for g in all_graphs(n)
                 if g.is_connected())


def random_connected(n: int, rng: random.Random, extra_probability: float) -> Graph:
    """Random spanning tree plus independent extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    # attach each vertex to one random earlier vertex, then sprinkle
    edges = set()
    for i in range(1, n):
        j = rng.choice(order[:i])
        edges.add((min(order[i], j), max(order[i], j)))
    for pair in itertools.combinations(range(n), 2):
        if pair not in edges and rng.random() < extra_probability:
            edges.add(pair)
    return build(n, edges)


def random_connected_bipartite(n: int, rng: random.Random,
                               extra_probability: float) -> Graph:
    """Random two-sided split, spanning tree across the split, extra
    cross edges."""
    split = rng.randint(1, n - 1)
    side = [0] * split + [1] * (n - split)
    rng.shuffle(side)
    order = sorted(range(n), key=lambda v: (0, v) if side[v] == 0 else (1, v))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        candidates = [order[j] for j in range(i) if side[order[j]] != side[order[i]]]
        if not candidates:
            # force an opposite-side earlier vertex by flipping this one
            side[order[i]] = 1 - side[order[i]]
            candidates = [order[j] for j in range(i) if side[order[j]] != side[order[i]]]
        j = rng.choice(candidates)
        edges.add((min(order[i], j), max(order[i], j)))
    for u, v in itertools.combinations(range(n), 2):
        if side[u] != side[v] and (u, v) not in edges and rng.random() < extra_probability:
            edges.add((u, v))
    return build(n, edges)


@lru_cache(maxsize=None)
def random_battery(count: int = 500) -> tuple[Graph, ...]:
    """Random connected graphs on 6-7 vertices, fixed seeds."""
    out = []
    probabilities = (0.25, 0.4, 0.6)
    for i in range(count):
        rng = random.Random(10_000 + i)
        out.append(random_connected(6 + i % 2, rng, probabilities[i % 3]))
    return tuple(out)


@lru_cache(maxsize=None)
def standard_battery() -> tuple[Graph, ...]:
    """Exhaustive labeled connected graphs on <= 5 vertices plus 500
    seeded random connected graphs on 6-7 vertices."""
    return connected_graphs_upto(5) + random_battery()


@lru_cache(maxsize=None)
def bipartite_battery() -> tuple[Graph, ...]:
    """Connected bipartite graphs on <= 8 vertices: the bipartite part of
    the standard battery, seeded random bipartite graphs on 6-8
    vertices, and a curated family."""
    seen = set()
    out = []

    def add(g: Graph):
        key = (g.vertex_count, g.edges)
        if key not in seen:
            seen.add(key)
            out.append(g)

    for g in standard_battery():
        if g.is_bipartite():
            add(g)
    for i in range(80):
        rng = random.Random(20_000 + i)
        add(random_connected_bipartite(6 + i % 3, rng, (0.2, 0.35, 0.5)[i % 3]))
    for n in range(2, 9):
        add(path(n))
    for n in (4, 6, 8):
        add(cycle(n))
    for leaves in range(2, 8):
        add(star(leaves))
    for m in range(1, 5):
        for n in range(m, 9 - m):
            add(complete_bipartite(m, n))
    add(cube())
    return tuple(out)


def seeded_unions(count: int, seed: int, max_vertices: int) -> tuple[Graph, ...]:
    """Disjoint unions of 2-4 connected graphs on at most 4 vertices,
    bipartite or not, single edges and isolated vertices, with at most
    ``max_vertices`` vertices in all, relabeled at random."""
    small = connected_graphs_upto(4)
    kinds = ([g for g in small if g.vertex_count > 2 and g.is_bipartite()],
             [g for g in small if not g.is_bipartite()], [path(2)], [build(1, [])])
    rng = random.Random(seed)
    unions = []
    while len(unions) < count:
        parts = [rng.choice(rng.choice(kinds)) for _ in range(rng.randint(2, 4))]
        n = sum(g.vertex_count for g in parts)
        if n <= max_vertices:
            unions.append(disjoint_union(parts, rng.sample(range(n), n)))
    return tuple(unions)


def colour_search_structure(g: Graph) -> tuple:
    """``(neighbors, components, bipartitions)`` of ``g`` from its edge
    list alone: neighbor sets, then a breadth-first search from the
    smallest unseen vertex that colours each vertex opposite to its
    parent and marks the component non-bipartite at an edge between
    equal colours.  Kept only to compare the library's structure
    against."""
    n = g.vertex_count
    adjacency = [set() for _ in range(n)]
    for i, j in g.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    neighbors = tuple(tuple(sorted(a)) for a in adjacency)
    unseen = set(range(n))
    components = []
    bipartitions = []
    while unseen:
        start = min(unseen)
        color = {start: 0}
        queue = deque([start])
        bipartite = True
        while queue:
            v = queue.popleft()
            for w in neighbors[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        members = tuple(sorted(color))
        unseen.difference_update(members)
        components.append(members)
        bipartitions.append(
            (tuple(v for v in members if color[v] == 0),
             tuple(v for v in members if color[v] == 1)) if bipartite else None)
    return neighbors, tuple(components), tuple(bipartitions)


def relaxed_witness(g: Graph, rep, dropped):
    """A point satisfying the affine hull and every halfspace of ``rep``
    except ``dropped``, while violating ``dropped``: start from the sum
    of the dropped facet's generators and step through it along a
    generator strictly off it."""
    from fractions import Fraction

    from edgecone import edge_vectors

    vectors = edge_vectors(g)
    on = [v for v in vectors if dropped.margin(v) == 0]
    interior = tuple(sum(v[k] for v in on) for k in range(g.vertex_count))
    off = next(v for v in vectors if dropped.margin(v) > 0)
    step = Fraction(1)
    for h in rep.halfspaces:
        if h == dropped:
            continue
        drop_rate = h.margin(off)
        if drop_rate > 0:
            step = min(step, Fraction(h.margin(interior), drop_rate) / 2)
    return tuple(Fraction(c) - step * o for c, o in zip(interior, off))


def surplus(g: Graph, x, a) -> int:
    """``x(A) - x(N(A))``: positive exactly when ``A``'s halfspace is
    violated."""
    return sum(x[v] for v in a) - sum(x[v] for v in neighbor_set(g, a))


def scan_membership(g: Graph, x) -> bool:
    """Exhaustive reference for membership: nonnegative coordinates and
    no independent set outweighing its neighbor set."""
    return (all(c >= 0 for c in x)
            and all(surplus(g, x, a) <= 0 for a in independent_sets(g)))


def check_witness(g: Graph, x, violated) -> None:
    """Assert the membership witness contract: the lowest-index negative
    coordinate, or else a violated independent set from which no single
    vertex can be dropped."""
    assert violated.margin(x) < 0
    tag = violated.plane.tag
    if isinstance(tag, CoordinateTag):
        assert x[tag.vertex] < 0 and all(c >= 0 for c in x[:tag.vertex])
        return
    a = tag.vertices
    assert all(c >= 0 for c in x)
    assert is_independent(g, a) and surplus(g, x, a) > 0
    assert all(surplus(g, x, [u for u in a if u != v]) <= 0 for v in a)


def fraction_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reference reduced row echelon form over ``Fraction``: the nonzero
    rows (leading coefficient 1, pivot columns cleared elsewhere) and
    their pivot columns.  Kept only to compare the library's integer
    elimination against."""
    mat = [[Fraction(c) for c in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [c * inv for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


_ROW_LIMIT = 200_000  # safety valve against Fourier-Motzkin blowup


@lru_cache(maxsize=128)
def fourier_motzkin_rows(generators: tuple[tuple[int, ...], ...],
                         dimension: int) -> tuple[tuple[int, ...], ...]:
    """Rows r with: x in cone(generators) iff r . x >= 0 for every row.

    The reference the oracle's double description is checked against:
    the multipliers of ``sum_i t_i g_i = x, t >= 0`` are eliminated,
    equalities by exact substitution and the rest by Fourier-Motzkin
    combination in index order, with Imbert's bound on the ancestries
    and ``_ROW_LIMIT`` as a valve."""
    q = len(generators)
    n = dimension
    # Equalities sum_i t_i g_i[v] - x_v = 0 over columns (t_0..t_{q-1}, x_0..x_{n-1}).
    equalities = []
    for v in range(n):
        row = [g[v] for g in generators] + [0] * n
        row[q + v] = -1
        equalities.append(row)
    reduced, pivots = integer_rref(equalities, q + n)

    outputs: set[tuple[int, ...]] = set()
    pivot_rows: dict[int, list[int]] = {}
    for row, piv in zip(reduced, pivots):
        if piv < q:
            pivot_rows[piv] = row
        else:
            # No multipliers left: an equality purely between coordinates.
            eq = primitive(row[q:])
            outputs.add(eq)
            outputs.add(tuple(-c for c in eq))
    free = [i for i in range(q) if i not in pivot_rows]
    rows: dict[tuple[int, ...], frozenset[int]] = {}
    for i in range(q):
        if i in pivot_rows:
            # t_i >= 0 with t_i substituted from its equality row, whose
            # pivot entry is positive.  Each equality has -1 in its own
            # coordinate column, so every reduced row, a nonzero
            # combination of them, has a nonzero coordinate part.
            src = pivot_rows[i]
            row = primitive([-src[j] for j in free] + [-c for c in src[q:]])
        else:
            row = tuple(int(j == i) for j in free) + (0,) * n
        if not any(row[:len(free)]):
            outputs.add(row[len(free):])
        elif row not in rows:
            rows[row] = frozenset([i])

    # A kept row is zero in every eliminated column and nonzero in a
    # later one, so no row is left after the last column.
    for col in range(len(free)):
        positive, negative, kept = [], [], {}
        for row, ancestors in rows.items():
            if row[col] > 0:
                positive.append((row, ancestors))
            elif row[col] < 0:
                negative.append((row, ancestors))
            else:
                kept[row] = ancestors
        built = len(kept)  # rows of this step's system, carried or combined
        for (prow, panc), (nrow, nanc) in itertools.product(positive, negative):
            ancestors = panc | nanc
            # Imbert's bound: wider ancestries are provably redundant.
            if len(ancestors) > col + 2:
                continue
            built += 1
            if built > _ROW_LIMIT:
                raise EnumerationGateError(
                    f"Fourier-Motzkin blowup: {built} rows built while "
                    f"eliminating multiplier {col + 1} of {len(free)}")
            combo = [prow[col] * b - nrow[col] * a for a, b in zip(prow, nrow)]
            # nonzero: kept rows r and -r make an equation, and equations have no t part
            row = primitive(combo)
            if not any(row[:len(free)]):
                outputs.add(row[len(free):])
            elif row not in kept or len(kept[row]) > len(ancestors):
                kept[row] = ancestors
        rows = kept
    return tuple(sorted(outputs))


def span_basis_facet_data(generators) -> tuple:
    """Reference for ``oracle._facet_data`` on integer generator tuples:
    the on-sets of ``fourier_motzkin_rows``, but each normal built
    in a span basis.  ``integer_rref`` gives the basis; the normal's
    coefficients in it span the kernel of the on-generators' products
    with the basis, whose Gram matrix is invertible, so that kernel is
    one-dimensional exactly when the on-set has rank d - 1.  Cones of
    rank <= 1 have no facet besides the apex."""
    width = len(generators[0]) if generators else 0
    reduced, pivots = integer_rref(generators, width)
    d = len(pivots)
    if d <= 1:
        return ()
    basis = [primitive(row) for row in reduced]
    found = []
    for on in {tuple(i for i, g in enumerate(generators) if dot(row, g) == 0)
               for row in fourier_motzkin_rows(generators, width)}:
        if len(on) == len(generators):  # an equation of the span
            continue
        coeffs = integer_kernel(
            [[dot(b, generators[i]) for b in basis] for i in on], d)
        if coeffs is None:
            continue
        normal = primitive([sum(c * b[col] for c, b in zip(coeffs, basis))
                            for col in range(width)])
        if all(dot(normal, g) <= 0 for g in generators):
            normal = tuple(-c for c in normal)
        found.append((normal, on))
    return tuple(sorted(found))


class EdmondsKarp:
    """Reference maximum flow: one breadth-first search of the whole
    residual network per augmenting path, arcs scanned in insertion
    order.  Kept only to compare the library's blocking-flow engine
    against."""

    def __init__(self, nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, capacity: int):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _search(self, source: int, sink: int) -> list[int]:
        """Residual breadth-first search to the sink: each node's entry arc."""
        parent_arc = [-1] * len(self.adj)
        parent_arc[source] = -2
        queue = deque([source])
        while queue and parent_arc[sink] == -1:
            u = queue.popleft()
            for arc in self.adj[u]:
                v = self.to[arc]
                if self.cap[arc] > 0 and parent_arc[v] == -1:
                    parent_arc[v] = arc
                    queue.append(v)
        return parent_arc

    def run(self, source: int, sink: int) -> int:
        total = 0
        while True:
            parent_arc = self._search(source, sink)
            if parent_arc[sink] == -1:
                return total
            path = []
            v = sink
            while v != source:
                path.append(parent_arc[v])
                v = self.to[parent_arc[v] ^ 1]
            bottleneck = min(self.cap[arc] for arc in path)
            for arc in path:
                self.cap[arc] -= bottleneck
                self.cap[arc ^ 1] += bottleneck
            total += bottleneck

    def reachable(self, source: int, sink: int) -> list[bool]:
        """After ``run``: the source side of a minimum cut."""
        return [arc != -1 for arc in self._search(source, sink)]


def reference_hall_violator(g: Graph, point) -> tuple[int, ...] | None:
    """Reference for the membership witness of a nonnegative integer
    point: Edmonds-Karp on the bipartite double cover, then the
    quadratic shrink that recomputes the neighbor set for every vertex
    in every pass from the highest index down.  None for members."""
    n = g.vertex_count
    total = sum(point)
    source, sink = 2 * n, 2 * n + 1
    flow = EdmondsKarp(2 * n + 2)
    for v in range(n):
        flow.add_arc(source, v, point[v])
        flow.add_arc(n + v, sink, point[v])
    for i, j in g.edges:
        flow.add_arc(i, n + j, total)
        flow.add_arc(j, n + i, total)
    if flow.run(source, sink) == total:
        return None
    reached = [v for v, hit in enumerate(flow.reachable(source, sink)[:n]) if hit]
    members = sorted(set(reached) - set(neighbor_set(g, reached)))
    shrinking = True
    while shrinking:
        shrinking = False
        for v in sorted(members, reverse=True):
            rest = [u for u in members if u != v]
            neighbors = neighbor_set(g, rest)
            if sum(point[u] for u in rest) > sum(point[u] for u in neighbors):
                members, shrinking = rest, True
    return tuple(members)


def kuhn_maximum_matching(g: Graph) -> int:
    """Independent matching oracle: classical augmenting-path maximum
    matching on one side of the bipartition, no flow machinery."""
    side1 = [v for sides in g.bipartitions for v in sides[0]]
    match: dict[int, int] = {}

    def try_augment(v: int, seen: set[int]) -> bool:
        for w in g.neighbors[v]:
            if w in seen:
                continue
            seen.add(w)
            if w not in match or try_augment(match[w], seen):
                match[w] = v
                return True
        return False

    size = 0
    for v in side1:
        if try_augment(v, set()):
            size += 1
    return size


def _induced_connected(g: Graph, members) -> bool:
    mset = set(members)
    if not mset:
        return False
    seen = {min(mset)}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in g.neighbors[v]:
            if w in mset and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == mset


def combinatorial_facet_sets(g: Graph) -> frozenset:
    """Facets of a connected bipartite graph via the two-sided
    connectivity characterization: an independent set strictly inside
    one side cuts a facet iff the subgraphs induced on the set plus its
    neighbors and on the remaining vertices are both connected (a single
    leftover vertex counts)."""
    side1, side2 = g.bipartitions[0]
    everything = set(range(g.vertex_count))
    found = set()
    for side in (side1, side2):
        sideset = set(side)
        for a in independent_sets(g):
            if not set(a) < sideset:
                continue
            closed = set(a) | set(neighbor_set(g, a))
            rest = everything - closed
            if not (_induced_connected(g, closed)
                    and (len(rest) == 1 or _induced_connected(g, rest))):
                continue
            h = independent_set_halfspace(g, a)
            on = frozenset(i for i, v in enumerate(edge_vectors(g))
                           if h.margin(v) == 0)
            found.add(on)
    return frozenset(found)


def _tag_key(h):
    tag = h.plane.tag
    if isinstance(tag, CoordinateTag):
        return (0, tag.vertex, ())
    return (1, -1, tag.vertices)


def _all_sets_groups(g: Graph, one_sided_only: bool = False) -> dict:
    """The all-sets candidate route: every coordinate halfspace and the
    halfspace of every nonempty independent set (or only of those inside
    one side of a connected bipartite graph), the facet-cutting ones
    grouped by the edges on their hyperplanes."""
    dim = cone_dimension(g)
    if dim <= 1:
        return {}
    candidates = [coordinate_halfspace(g, v) for v in range(g.vertex_count)]
    for a in independent_sets(g, g.vertex_count):
        if not one_sided_only or any(set(a) <= set(side)
                                     for side in g.bipartitions[0]):
            candidates.append(independent_set_halfspace(g, a))
    groups = {}
    for h in candidates:
        if face_dimension(g, h) == dim - 1:
            groups.setdefault(on_edges(g, h), []).append(h)
    return groups


def neighbor_halfspace(g: Graph, a) -> Halfspace:
    """The halfspace of the independent set ``a``, a sorted tuple, built
    from ``g.neighbors`` apart from the library's bitmask construction."""
    normal = [0] * g.vertex_count
    for v in a:
        for w in g.neighbors[v]:
            normal[w] = -1
    for v in a:
        normal[v] = 1
    return Halfspace(Hyperplane(tuple(normal), IndependentSetTag(a)), SENSE_LE)


def checked_rebuild(h: Halfspace) -> Halfspace:
    """``h`` rebuilt through the checked constructors, which raise on a
    normal that is not primitive or a sense that its tag rules out."""
    return Halfspace(Hyperplane(h.plane.normal, h.plane.tag), h.sense)


def library_halfspaces(g: Graph, full: ConeRepresentation,
                       found: tuple[Facet, ...]) -> list[tuple[str, Halfspace]]:
    """The halfspaces the library builds on ``g`` without the
    constructor checks, each with the function that returned it, those
    of ``full_representation`` first: every halfspace of ``full``,
    which is ``full_representation(g)``, of ``found``, which is
    ``facets(g)``, and (on a connected bipartite graph with an edge) of
    ``canonical_representation``; the last vertex's
    ``coordinate_halfspace`` and ``independent_set_halfspace``; and the
    witnesses of ``membership`` on a negative, a lone positive and the
    all-ones point, of ``integer_decompose`` on the lone positive one,
    and of ``has_perfect_matching`` as its violator's halfspace."""
    n = g.vertex_count
    bipartite = g.is_bipartite()
    out = [("full_representation", h) for h in full.halfspaces]
    out += [("facets", f.halfspace) for f in found]
    if g.edges and bipartite and g.is_connected():
        out += [("canonical_representation", h)
                for h in canonical_representation(g).halfspaces]
    if n:
        lone = (0,) * (n - 1) + (1,)
        out += [("coordinate_halfspace", coordinate_halfspace(g, n - 1)),
                ("independent_set_halfspace", independent_set_halfspace(g, (n - 1,)))]
        out += [("membership", membership(g, x).violated)
                for x in ((-1,) + (0,) * (n - 1), lone, (1,) * n)]
    if n and bipartite:
        out.append(("integer_decompose", integer_decompose(g, lone).violated))
        violator = has_perfect_matching(g).violator
        if violator is not None:
            out.append(("has_perfect_matching", independent_set_halfspace(g, violator)))
    return [(source, h) for source, h in out if h is not None]


def check_library_halfspaces(g: Graph, full: ConeRepresentation,
                             found: tuple[Facet, ...]) -> None:
    """Assert that every halfspace of ``library_halfspaces`` passes the
    constructor checks it skipped.  ``independent_set_halfspace`` takes
    the unchecked path too, so the set halfspaces of ``full`` are
    compared with ``neighbor_halfspace``, a checked construction (the
    tests of ``full_representation`` pin their tags to the sorted
    independent sets), and every other halfspace with its rebuild."""
    n = g.vertex_count
    built = library_halfspaces(g, full, found)
    end = sum(source == "full_representation" for source, _ in built)
    sets = [h for _, h in built[n:end]]
    assert sets == [neighbor_halfspace(g, h.plane.tag.vertices) for h in sets], g.edges
    for source, h in built[:n] + built[end:]:
        assert checked_rebuild(h) == h, (source, g.edges, h)


def check_full_sets(g: Graph, full: ConeRepresentation) -> None:
    """Assert that the set halfspaces of ``full``, which the walk builds
    each from its parent's normal, are what the one-set-at-a-time
    construction gives, in the order of the sorted independent sets."""
    assert list(full.halfspaces[g.vertex_count:]) == [
        independent_set_halfspace(g, a) for a in sorted(independent_sets(g))], g.edges


def check_all_sets_route(g: Graph, full: ConeRepresentation,
                         found: tuple[Facet, ...]) -> None:
    """Assert that ``found``, which is ``facets(g)``, and on a connected
    bipartite graph with an edge ``canonical_representation`` and
    ``remove_redundant`` of ``full``, equal the all-sets route."""
    assert found == reference_facets(g), (g.vertex_count, g.edges)
    if g.edges and g.is_connected() and g.is_bipartite():
        reference = reference_canonical(g)
        assert canonical_representation(g) == reference, g.edges
        assert remove_redundant(g, full) == reference, g.edges


@lru_cache(maxsize=None)
def labelled_graph_failures() -> dict[str, list]:
    """One pass over every labelled graph on at most 6 vertices, shared
    by three exhaustive tests: each graph, its ``full_representation``
    and its ``facets`` are built once and handed to the checks that
    cover it.  Returns the failures of each check, as ``(vertex count,
    edges, assertion message)``, by name:

    - ``"constructor"``: ``check_library_halfspaces``, on every graph;
    - ``"full"``: ``check_full_sets``, on every graph;
    - ``"all_sets"``: ``check_all_sets_route``, on every graph on at
      most 5 vertices (isolated vertices and disconnected graphs
      included), and on the 6-vertex graphs that are connected and
      bipartite, that have two or more components holding an edge, or
      that fall in a seeded sample of 1,500.
    """
    failures: dict[str, list] = {"constructor": [], "full": [], "all_sets": []}
    sample = set(random.Random(6).sample(range(1 << 15), 1500))  # 15 vertex pairs
    for n in range(7):
        for bits, g in enumerate(all_graphs(n)):
            full, found = full_representation(g), facets(g)
            checks = [("constructor", check_library_halfspaces, (g, full, found)),
                      ("full", check_full_sets, (g, full))]
            if (n < 6 or bits in sample or g.is_connected() and g.is_bipartite()
                    or sum(len(c) > 1 for c in g.components) >= 2):
                checks.append(("all_sets", check_all_sets_route, (g, full, found)))
            for name, check, args in checks:
                try:
                    check(*args)
                except AssertionError as error:
                    failures[name].append((n, g.edges, error.args))
    return failures


def reference_directed_bonds(masks, side1: int, universe: int):
    """The flashlight search of ``facets._directed_bonds`` without its
    forced move: the same directed bonds of the connected bipartite
    component ``universe``, as bitmasks of ``S``, but a node whose
    frontier vertex lies outside ``C`` steps to ``I + v`` alone, one
    search per step.  Kept only to compare the library's walk
    against."""

    def grow(inner, near, bit):
        v = bit.bit_length() - 1
        if bit & side1:
            return inner | bit | masks[v], near | masks[v] | _union(masks, masks[v])
        return inner | bit, near | bit | masks[v]

    def live(inner, near, outer):
        rest = universe & ~inner
        if inner & outer or not rest:
            return None
        component = _reach(masks, outer & -outer, rest)
        return None if outer & ~component else (inner, near, outer, component)

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
        if bit & component:
            stack.append((inner, near, outer | bit, component))
        node = live(*grow(inner, near, bit), outer)
        if node:
            stack.append(node)


def on_edges(g: Graph, h) -> tuple[int, ...]:
    """The indices of the edges on the hyperplane of the halfspace
    ``h``."""
    normal = h.plane.normal
    return tuple(idx for idx, (i, j) in enumerate(g.edges)
                 if normal[i] + normal[j] == 0)


def reference_facets(g: Graph) -> tuple:
    """``facets`` by the all-sets route, with the same tag preference
    (coordinate first, then the lexicographically smallest set) and
    order."""
    found = [Facet(min(hs, key=_tag_key), on)
             for on, hs in _all_sets_groups(g).items()]
    return tuple(sorted(found, key=lambda f: _tag_key(f.halfspace)))


def reference_canonical(g: Graph) -> ConeRepresentation:
    """``canonical_representation`` of a connected bipartite graph with
    an edge by the all-sets route: per facet, the smallest side-2
    coordinate, else the one set strictly inside side 1 among all
    one-sided independent sets."""
    side1, side2 = g.bipartitions[0]
    equations = affine_hull(g)
    if cone_dimension(g) <= 1:
        return ConeRepresentation(
            equations, tuple(coordinate_halfspace(g, v) for v in side2),
            "canonical_bipartite")
    chosen = []
    for hs in _all_sets_groups(g, one_sided_only=True).values():
        tags = [h.plane.tag for h in hs]
        coords = [h for h, t in zip(hs, tags)
                  if isinstance(t, CoordinateTag) and t.vertex in side2]
        sets = [h for h, t in zip(hs, tags)
                if isinstance(t, IndependentSetTag)
                and set(t.vertices) < set(side1)]
        if coords:
            chosen.append(min(coords, key=_tag_key))
        else:
            (only,) = sets
            chosen.append(only)
    return ConeRepresentation(equations, tuple(sorted(chosen, key=_tag_key)),
                              "canonical_bipartite")
