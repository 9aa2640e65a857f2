"""Structured documents for CLI output and downstream consumers.

All documents are plain dicts of JSON-safe values built in a fixed
order, so serialized output is deterministic byte for byte.  Rational
coordinates are rendered as exact strings ("3/2"); normals are integer
arrays; vertex order is echoed in every document header.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .cone import (ComponentTag, ConeRepresentation, CoordinateTag, Halfspace,
                   Hyperplane, IndependentSetTag, MembershipResult)
from .facets import Facet
from .graph import Graph
from .lattice import DecompositionResult, MatchingResult
from .oracle import ValidationReport
from .rational import Rational


# ``Fraction("1e100000000")`` builds a 10**100000000 and does not return
# in any useful time; decimal exponents beyond this are rejected first.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")
# Parse errors quote at most this many characters of the input and of
# the underlying error, however long the argument is.
MAX_ECHOED_CHARS = 60


def _clip(text: str) -> str:
    if len(text) <= MAX_ECHOED_CHARS:
        return text
    return f"{text[:MAX_ECHOED_CHARS]}... ({len(text)} characters)"


def _parse_rational(part: str) -> Fraction:
    exponent = _EXPONENT.search(part)
    if exponent:
        digits = exponent.group(1).lstrip("+-").replace("_", "").lstrip("0")
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits or "0") > MAX_DECIMAL_EXPONENT):
            raise ValueError(
                f"decimal exponent exceeds {MAX_DECIMAL_EXPONENT} in absolute value")
    try:
        return Fraction(part)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def parse_rational_vector(text: str) -> tuple[Fraction, ...]:
    """Comma-separated exact rationals: "3/2,0,1" or decimals ("0.5" is
    exactly 1/2, "15e-1" is 3/2; exponents are capped at
    ``MAX_DECIMAL_EXPONENT`` in absolute value)."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ValueError("empty vector")
    values = []
    for position, part in enumerate(parts, 1):
        try:
            values.append(_parse_rational(part))
        except ValueError as exc:
            raise ValueError(
                f"bad rational vector: entry {position} of {len(parts)}, "
                f"{_clip(repr(part))}: {_clip(str(exc))}") from None
    return tuple(values)


def vector_doc(x: Sequence[Rational]) -> list[str]:
    return [str(Fraction(c)) for c in x]


def tag_doc(tag, g: Graph):
    if tag is None:
        return {"kind": "raw"}
    if isinstance(tag, CoordinateTag):
        return {"kind": "coordinate", "vertex": g.vertices[tag.vertex]}
    if isinstance(tag, IndependentSetTag):
        return {"kind": "independent_set",
                "vertices": [g.vertices[v] for v in tag.vertices]}
    if isinstance(tag, ComponentTag):
        return {"kind": "bipartite_component", "component": tag.component}
    raise TypeError(f"unknown tag {tag!r}")


def hyperplane_doc(plane: Hyperplane, g: Graph) -> dict:
    return {"normal": list(plane.normal), "sense": "=0", "tag": tag_doc(plane.tag, g)}


def halfspace_doc(h: Halfspace, g: Graph) -> dict:
    return {**hyperplane_doc(h.plane, g), "sense": h.sense}


def graph_header(g: Graph) -> dict:
    return {"vertices": list(g.vertices),
            "edges": [[g.vertices[i], g.vertices[j]] for i, j in g.edges]}


def representation_doc(rep: ConeRepresentation, g: Graph) -> dict:
    return {"kind": rep.kind,
            "equations": [hyperplane_doc(eq, g) for eq in rep.equations],
            "halfspaces": [halfspace_doc(h, g) for h in rep.halfspaces]}


def facets_doc(facet_list: Sequence[Facet], g: Graph,
               non_facet_faces: Sequence[tuple[int, int]] = ()) -> dict:
    """Facets with both the canonical tag and the generator index set;
    ``non_facet_faces`` lists (vertex, face dimension) pairs for
    coordinate hyperplanes that cut lower-dimensional faces."""
    return {
        "facet_count": len(facet_list),
        "facets": [dict(halfspace_doc(f.halfspace, g),
                        generators_on=list(f.generators_on))
                   for f in facet_list],
        "non_facet_coordinates": [
            {"vertex": g.vertices[v], "face_dimension": dim}
            for v, dim in non_facet_faces],
    }


def membership_doc(x: Sequence[Rational], result: MembershipResult, g: Graph) -> dict:
    doc = {"vector": vector_doc(x), "is_member": result.is_member, "violated": None}
    if result.violated is not None:
        doc["violated"] = halfspace_doc(result.violated, g)
    return doc


def decomposition_doc(b: Sequence[int], result: DecompositionResult, g: Graph) -> dict:
    doc = {"vector": vector_doc(b), "decomposable": bool(result)}
    if result:
        doc["decomposition"] = {
            f"{g.vertices[g.edges[e][0]]} {g.vertices[g.edges[e][1]]}": count
            for e, count in result.decomposition.multiplicities}
        doc["violated"] = None
    else:
        doc["decomposition"] = None
        doc["violated"] = halfspace_doc(result.violated, g)
    return doc


def matching_doc(result: MatchingResult, g: Graph) -> dict:
    doc = {"has_perfect_matching": result.has_matching}
    if result.has_matching:
        doc["matching"] = [[g.vertices[g.edges[e][0]], g.vertices[g.edges[e][1]]]
                           for e in result.matching]
        doc["violator"] = None
    else:
        doc["matching"] = None
        doc["violator"] = [g.vertices[v] for v in result.violator]
    return doc


def report_doc(report: ValidationReport) -> dict:
    return {"passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in report.checks]}
