"""Integer points of bipartite edge cones and perfect matchings.

For a bipartite graph the incidence matrix is totally unimodular, so an
integer vector lies in the edge cone exactly when it is a sum of edge
vectors with nonnegative integer multiplicities.  The decomposition is
computed as an integral transshipment (edges oriented side 1 to side 2,
supplies and demands given by the target vector) solved by the same
blocking-flow maximum flow that decides membership; the all-ones target
decides the perfect matching question.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cone import Halfspace, _MaxFlow, membership
from .errors import GraphRequirementError
from .graph import Graph, VertexSet


@dataclass(frozen=True)
class EdgeDecomposition:
    """Nonnegative integer multiplicity per edge index; zero entries are
    omitted.  The weighted sum of edge vectors equals the target."""

    multiplicities: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.multiplicities)

    def target(self, g: Graph) -> tuple[int, ...]:
        total = [0] * g.vertex_count
        for edge_index, count in self.multiplicities:
            i, j = g.edges[edge_index]
            total[i] += count
            total[j] += count
        return tuple(total)


@dataclass(frozen=True)
class DecompositionResult:
    decomposition: EdgeDecomposition | None = None
    violated: Halfspace | None = None

    def __bool__(self) -> bool:
        return self.decomposition is not None


@dataclass(frozen=True)
class MatchingResult:
    has_matching: bool
    matching: tuple[int, ...] | None = None   # edge indices
    violator: VertexSet | None = None          # independent set with |A| > |N(A)|

    def __bool__(self) -> bool:
        return self.has_matching


def parity_check(b) -> bool:
    """Necessary condition for an integer vector to lie in a bipartite
    edge cone: the coordinate sum is even (every edge vector adds 2)."""
    _require_integers(b)
    return sum(b) % 2 == 0


def _require_integers(b):
    for c in b:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"expected integer entries, got {c!r}")


def _require_bipartite(g: Graph, what: str):
    if not g.is_bipartite():
        raise GraphRequirementError(f"{what} requires a bipartite graph")


def _transshipment(g: Graph, b) -> dict[int, int] | None:
    """Edge multiplicities summing to ``b``, or None when infeasible.
    Requires a bipartite graph and nonnegative integer entries."""
    n = g.vertex_count
    side1 = set()
    for sides in g.bipartitions:
        side1.update(sides[0])
    supply = sum(b[v] for v in side1)
    demand = sum(b[v] for v in range(n) if v not in side1)
    if supply != demand:
        return None
    source, sink = n, n + 1
    arcs = [(i, j, supply) if i in side1 else (j, i, supply) for i, j in g.edges]
    arcs += [(source, v, b[v]) if v in side1 else (v, sink, b[v]) for v in range(n)]
    flow = _MaxFlow(n + 2, arcs)
    if flow.run(source, sink) != supply:
        return None
    sent = flow.cap[1:2 * len(g.edges):2]  # reverse residuals of the edge arcs
    return {idx: used for idx, used in enumerate(sent) if used}


def integer_decompose(g: Graph, b) -> DecompositionResult:
    """Write an integer vector as a nonnegative integer combination of
    edge vectors, or certify that none exists.

    Total unimodularity guarantees a decomposition for every integer
    vector in the cone, so infeasibility always comes with the
    certificate ``membership`` gives: a negative coordinate or a violated
    independent set.  Both searches take polynomial time.

    The multiplicities are some valid decomposition, the one the flow
    finds: deterministic for a fixed version of this library, but not
    canonical, so another version may return another one.
    """
    _require_bipartite(g, "integer decomposition")
    _require_integers(b)
    if len(b) != g.vertex_count:
        raise ValueError(
            f"vector has dimension {len(b)}, graph has {g.vertex_count} vertices")
    if all(c >= 0 for c in b):
        multiplicities = _transshipment(g, b)
        if multiplicities is not None:
            return DecompositionResult(
                EdgeDecomposition(tuple(sorted(multiplicities.items()))))
    verdict = membership(g, b)
    if verdict.is_member:
        raise AssertionError(
            "membership accepted an integer vector the integral flow "
            "could not decompose; total unimodularity violated")
    return DecompositionResult(violated=verdict.violated)


def has_perfect_matching(g: Graph) -> MatchingResult:
    """Decide the marriage problem with a certificate either way.

    A bipartite graph has a perfect matching iff the all-ones vector
    lies in its edge cone, i.e. iff every independent set is at most as
    large as its neighbor set.  Positive answers carry some perfect
    matching, deterministic for a fixed version of this library but not
    canonical; negative ones carry the violated independent set
    ``membership`` finds for the all-ones vector, from which no single
    vertex can be dropped.
    """
    _require_bipartite(g, "perfect matching decision")
    ones = (1,) * g.vertex_count
    result = integer_decompose(g, ones)
    if result:
        matching = []
        for edge_index, count in result.decomposition.multiplicities:
            if count != 1:
                raise AssertionError(
                    f"all-ones decomposition used edge {edge_index} "
                    f"{count} times")
            matching.append(edge_index)
        return MatchingResult(True, matching=tuple(matching))
    return MatchingResult(False, violator=result.violated.plane.tag.vertices)
