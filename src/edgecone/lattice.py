"""Integer points of bipartite edge cones and perfect matchings.

For a bipartite graph the incidence matrix is totally unimodular, so an
integer vector lies in the edge cone exactly when it is a sum of edge
vectors with nonnegative integer multiplicities.  The flow that decides
membership routes the target from side 1 to side 2 along the edges, so
its integral value on each edge is the decomposition; the all-ones
target decides the perfect matching question.  Integer vectors pass
``rational.integer_vector`` on entry: exact integers only, and of the
graph's length where one is given.
"""

from __future__ import annotations

from .cone import Halfspace, _route, _value
from .errors import GraphRequirementError
from .graph import Graph, VertexSet
from .rational import integer_vector


@_value("multiplicities")
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


@_value()
class DecompositionResult:
    decomposition: EdgeDecomposition | None = None
    violated: Halfspace | None = None

    def __bool__(self) -> bool:
        return self.decomposition is not None


@_value("matching", "violator")
class MatchingResult:
    """A perfect matching's edge indices, or a violated independent set."""

    has_matching: bool
    matching: tuple[int, ...] | None = None   # edge indices
    violator: VertexSet | None = None          # independent set with |A| > |N(A)|

    def __bool__(self) -> bool:
        return self.has_matching


def parity_check(b) -> bool:
    """Necessary condition for an integer vector to lie in a bipartite
    edge cone: the coordinate sum is even (every edge vector adds 2)."""
    return sum(integer_vector(b)) % 2 == 0


def _require_bipartite(g: Graph, what: str):
    if not g.is_bipartite():
        raise GraphRequirementError(f"{what} requires a bipartite graph")


def integer_decompose(g: Graph, b) -> DecompositionResult:
    """Write an integer vector as a nonnegative integer combination of
    edge vectors, or certify that none exists.

    Total unimodularity guarantees a decomposition for every integer
    vector in the cone, so one maximum flow either routes ``b`` or
    yields the certificate ``membership`` gives: a negative coordinate
    or a violated independent set.

    The multiplicities are some valid decomposition, the one the flow
    finds: deterministic for a fixed version of this library, but not
    canonical, so another version may return another one.
    """
    _require_bipartite(g, "integer decomposition")
    routed = _route(g, integer_vector(b, g.vertex_count))
    if isinstance(routed, Halfspace):
        return DecompositionResult(violated=routed)
    return DecompositionResult(EdgeDecomposition(
        [(k, used) for k, used in enumerate(routed) if used]))


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
    routed = _route(g, (1,) * g.vertex_count)
    if isinstance(routed, Halfspace):
        return MatchingResult(False, violator=routed.plane.tag.vertices)
    # an edge arc carries at most the unit its source arc brings in
    return MatchingResult(True, matching=[k for k, used in enumerate(routed) if used])
