"""Seeded input generator for the benchmark.

Everything here is plain Python with no import of ``edgecone`` or of the
repository's tests, so neither a library change nor a test change can
alter the workloads.  A ``Spec`` is the benchmark's own description of a
graph; the library only ever sees ``Spec.text()`` and the vectors built
here.

Vertex ``i`` of a spec is declared on line ``i`` of its edge-list text,
so the library's first-appearance index of a vertex equals the spec's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Spec:
    """A simple graph: ``labels[i]`` names vertex ``i``; each edge is an
    index pair ``(i, j)`` with ``i < j``, listed in text order."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    kind: str

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def text(self) -> str:
        lines = [f"# {self.kind}: {self.n} vertices, {self.m} edges"]
        lines.extend(self.labels)
        lines.extend(f"{self.labels[i]} {self.labels[j]}" for i, j in self.edges)
        return "\n".join(lines) + "\n"

    def neighbors(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def reversed(self, tag: str) -> "Spec":
        """The same graph with vertex order reversed and fresh labels."""
        n = self.n
        edges = sorted((min(n - 1 - i, n - 1 - j), max(n - 1 - i, n - 1 - j))
                       for i, j in self.edges)
        return Spec(tuple(f"{tag}{k}" for k in range(n)), tuple(edges), self.kind)


def rng_for(seed: int, *parts) -> random.Random:
    """Independent deterministic stream per (seed, parts)."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _spec(prefix: str, n: int, edges: set[tuple[int, int]], kind: str,
          rng: random.Random) -> Spec:
    ordered = sorted(edges)
    rng.shuffle(ordered)
    return Spec(tuple(f"{prefix}{i}" for i in range(n)), tuple(ordered), kind)


def _norm(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _pick(rng: random.Random, candidates, degree: list[int] | None):
    """A random candidate or, with ``degree``, a random one of least degree."""
    if degree is None:
        return rng.choice(candidates)
    low = min(degree[v] for v in candidates)
    return rng.choice([v for v in candidates if degree[v] == low])


def bipartite(rng: random.Random, prefix: str, n: int, m: int,
              balanced: bool = False) -> Spec:
    """Connected bipartite graph on ``n`` vertices with ``m`` edges.

    Vertices are shuffled between the sides so that side membership is
    not readable from the index order.  A ``balanced`` graph has sides of
    n // 2 and n - n // 2 vertices and every edge joins vertices of least
    degree, so degrees differ by little and the number of independent
    sets (which sets the cost of facets) varies far less between seeds.
    """
    if balanced:
        a = n // 2
    else:
        sizes = [a for a in (n // 2 - 1, n // 2, n // 2 + 1)
                 if 0 < a < n and a * (n - a) >= m]
        a = rng.choice(sizes or [n // 2])
    order = list(range(n))
    rng.shuffle(order)
    left, right = order[:a], order[a:]
    if not (n - 1 <= m <= len(left) * len(right)):
        raise ValueError(f"no connected bipartite graph with n={n}, m={m}")
    degree = [0] * n if balanced else None

    def add(i, j):
        edges.add(_norm(i, j))
        if degree is not None:
            degree[i] += 1
            degree[j] += 1

    # Random spanning tree alternating between the sides.
    edges: set[tuple[int, int]] = set()
    placed_l, placed_r = [left[0]], []
    todo = left[1:] + right
    rng.shuffle(todo)
    while todo:
        for k, v in enumerate(todo):
            other = placed_r if v in left else placed_l
            if other:
                add(v, _pick(rng, other, degree))
                (placed_l if v in left else placed_r).append(v)
                del todo[k]
                break
    while len(edges) < m:
        if degree is None:
            add(rng.choice(left), rng.choice(right))
        else:
            u = _pick(rng, left, degree)
            add(u, _pick(rng, [w for w in right if _norm(u, w) not in edges], degree))
    return _spec(prefix, n, edges, "bipartite", rng)


def general(rng: random.Random, prefix: str, n: int, m: int,
            balanced: bool = False) -> Spec:
    """Connected non-bipartite graph on ``n`` vertices with ``m`` edges;
    ``balanced`` as for ``bipartite``."""
    if not (n >= 3 and n <= m <= n * (n - 1) // 2):
        raise ValueError(f"no connected non-bipartite graph with n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    if not balanced:
        edges = {_norm(order[k], order[rng.randrange(k)]) for k in range(1, n)}
        # One odd cycle guarantees the graph is not bipartite: close a
        # triangle on a tree path of length two.
        mid = order[rng.randrange(1, n)]
        nbrs = sorted({j for e in edges for j in e if mid in e and j != mid})
        while len(nbrs) < 2:
            mid = order[rng.randrange(n)]
            nbrs = sorted({j for e in edges for j in e if mid in e and j != mid})
        u, w = rng.sample(nbrs, 2)
        edges.add(_norm(u, w))
        while len(edges) < m:
            i, j = rng.sample(range(n), 2)
            edges.add(_norm(i, j))
        return _spec(prefix, n, edges, "general", rng)

    degree = [0] * n
    edges = set()

    def add(i, j):
        edges.add(_norm(i, j))
        degree[i] += 1
        degree[j] += 1

    for k in range(1, n):
        add(order[k], _pick(rng, order[:k], degree))
    mid = rng.choice([v for v in range(n) if degree[v] >= 2])
    u, w = rng.sample(sorted(j for e in edges if mid in e for j in e if j != mid), 2)
    add(u, w)  # the triangle u-mid-w
    while len(edges) < m:
        u = _pick(rng, range(n), degree)
        add(u, _pick(rng, [w for w in range(n) if w != u and _norm(u, w) not in edges], degree))
    return _spec(prefix, n, edges, "general", rng)


def union(rng: random.Random, prefix: str, parts: list[Spec], isolated: int) -> Spec:
    """Disjoint union of ``parts`` plus ``isolated`` isolated vertices."""
    edges = set()
    offset = 0
    for part in parts:
        edges.update((i + offset, j + offset) for i, j in part.edges)
        offset += part.n
    return _spec(prefix, offset + isolated, edges, "components", rng)


def sparse_matchable(rng: random.Random, prefix: str, n: int, extra: int) -> Spec:
    """Bipartite graph on ``n`` (even) vertices that has a perfect
    matching: a random matching between the sides plus ``extra`` random
    cross edges.  Not necessarily connected."""
    order = list(range(n))
    rng.shuffle(order)
    left, right = order[:n // 2], order[n // 2:]
    edges = {_norm(u, w) for u, w in zip(left, right)}
    target = len(edges) + extra
    while len(edges) < target:
        edges.add(_norm(rng.choice(left), rng.choice(right)))
    return _spec(prefix, n, edges, "bipartite", rng)


def sparse_unmatchable(rng: random.Random, prefix: str, n: int, extra: int) -> Spec:
    """Bipartite graph on ``n`` (even) vertices with equal sides and no
    perfect matching: two side-1 vertices share a single neighbour."""
    order = list(range(n))
    rng.shuffle(order)
    left, right = order[:n // 2], order[n // 2:]
    u, v, w = left[0], left[1], right[0]
    edges = {_norm(u, w), _norm(v, w)}
    edges.update(_norm(a, b) for a, b in zip(left[2:], right[1:]))
    free_left = left[2:]
    target = len(edges) + extra
    while len(edges) < target:
        edges.add(_norm(rng.choice(free_left), rng.choice(right)))
    return _spec(prefix, n, edges, "bipartite", rng)


# ---------------------------------------------------------------- points

def combination(spec: Spec, coeffs: list[int | Fraction]) -> tuple:
    """Sum of edge vectors weighted by ``coeffs`` (one per edge)."""
    x = [0] * spec.n
    for (i, j), c in zip(spec.edges, coeffs):
        x[i] += c
        x[j] += c
    return tuple(x)


def member_point(rng: random.Random, spec: Spec, integral: bool) -> tuple:
    """A nonnegative combination of edge vectors with every edge used
    (every coefficient at least 1), so the point is interior to the
    cone relative to its affine hull."""
    if integral:
        coeffs = [rng.randint(1, 5) for _ in spec.edges]
    else:
        coeffs = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in spec.edges]
    return combination(spec, coeffs)


def components(spec: Spec) -> list[tuple[tuple[int, ...], tuple | None]]:
    """(members, (side1, side2) or None) per connected component, in
    order of smallest member; side 1 holds that member, and ``None``
    marks a non-bipartite component."""
    adj = spec.neighbors()
    color: dict[int, int] = {}
    out = []
    for start in range(spec.n):
        if start in color:
            continue
        color[start] = 0
        stack, members, ok = [start], [start], True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                    members.append(w)
                elif color[w] == color[v]:
                    ok = False
        sides = None
        if ok:
            sides = (tuple(sorted(v for v in members if color[v] == 0)),
                     tuple(sorted(v for v in members if color[v] == 1)))
        out.append((tuple(sorted(members)), sides))
    return out


def early_nonmember(rng: random.Random, spec: Spec, integral: bool) -> tuple:
    """A point rejected by a constraint early in enumeration order: a
    negative coordinate, or a singleton {v} outweighing its neighbours."""
    x = list(member_point(rng, spec, integral))
    v = rng.randrange(spec.n)
    if rng.random() < 0.5:
        x[v] = -rng.randint(1, 3)
    else:
        x[v] = sum(x[w] for w in spec.neighbors()[v]) + rng.randint(1, 3)
    return tuple(x)


def late_nonmember(rng: random.Random, spec: Spec, integral: bool) -> tuple:
    """A point whose violated independent sets are all large.

    Bipartite graphs: an interior integer point plus a bump on one
    side-1 vertex.  Every independent set has integer slack, positive
    unless the set is a whole side of a component, so only a whole side
    (and the balance equation) is violated.  Non-bipartite graphs: a
    maximal independent set ``A`` gets a total bump just above its own
    slack while the edges between ``A`` and ``N(A)`` carry heavy weight,
    so proper subsets of ``A`` keep a large slack.
    """
    comps = components(spec)
    if all(s is not None for _, s in comps):
        coeffs = [rng.randint(1, 5) for _ in spec.edges]
        x = list(combination(spec, coeffs))
        _, (side1, _) = max(comps, key=lambda c: len(c[0]))
        x[rng.choice(side1)] += 1 if integral else Fraction(1, 2)
        return tuple(x)
    adj = spec.neighbors()
    order = list(range(spec.n))
    rng.shuffle(order)
    a: list[int] = []
    for v in order:
        if not adj[v] & set(a):
            a.append(v)
    aset = set(a)
    nbrs = set().union(*(adj[v] for v in a)) - aset
    coeffs = [rng.randint(20, 30) if (i in aset or j in aset) else 1
              for i, j in spec.edges]
    x = list(combination(spec, coeffs))
    slack = sum(x[v] for v in nbrs) - sum(x[v] for v in a)
    bump = slack + 1
    share, rest = divmod(bump, len(a))
    for k, v in enumerate(sorted(a)):
        x[v] += share + (1 if k < rest else 0)
    return tuple(x)
