"""Command-line interface over edge-list files.

Structured JSON goes to stdout (deterministic byte for byte for a fixed
input); a short human summary goes to stderr when it is a terminal.
Exit codes: 0 success, 1 domain rejection (hypothesis violated, gate
exceeded, validation failure), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cone import (cone_dimension, coordinate_halfspace, full_representation,
                   membership)
from .errors import (EdgeListParseError, EnumerationGateError,
                     GraphRequirementError)
from .facets import canonical_representation, face_dimension, facets
from .graph import DEFAULT_MAX_VERTICES, bipartite_component_count, parse_graph
from .lattice import has_perfect_matching, integer_decompose
from .oracle import cross_validate
from .serialize import (decomposition_doc, facets_doc, graph_header,
                        matching_doc, membership_doc, parse_rational_vector,
                        report_doc, representation_doc)


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)  # argparse reports it as an invalid value
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecone",
        description="Exact edge-cone computations over graph edge lists.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, vector_arg: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="edge-list file")
        if vector_arg:
            p.add_argument("vector",
                           help="comma-separated exact rationals, e.g. 3/2,0,1")
        if name in ("repr", "canonical", "facets"):  # the calls with a gate
            p.add_argument("--max-n", type=nonnegative_int, default=DEFAULT_MAX_VERTICES,
                           help="vertex gate of the enumeration")
        p.add_argument("--format", choices=("json", "plain"), default="json")
        if name != "validate":  # validate prints the oracle's report anyway
            p.add_argument("--oracle", action="store_true",
                           help="also cross-validate against the brute-force oracle")

    add("dim", "dimension of the edge cone")
    add("repr", "full halfspace representation")
    add("canonical", "canonical irreducible representation (connected bipartite)")
    add("facets", "all facets, plus non-facet coordinate faces")
    add("member", "exact membership test for a rational vector", vector_arg=True)
    add("decompose", "integer decomposition into edge vectors", vector_arg=True)
    add("matching", "perfect-matching decision with certificate")
    add("validate", "cross-validate both computation paths on this graph")
    return parser


def _plain_lines(doc, prefix="") -> list[str]:
    """A dict or list, one scalar per line: ``key: value`` or ``- value``,
    and a nested dict or list under its ``key:`` or ``-`` line, indented."""
    if isinstance(doc, dict):
        labelled = ((f"{key}:", value) for key, value in doc.items())
    else:
        labelled = (("-", value) for value in doc)
    lines = []
    for label, value in labelled:
        if isinstance(value, (dict, list)):
            lines.append(prefix + label)
            lines.extend(_plain_lines(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{label} {value}")
    return lines


def _emit(doc: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_plain_lines(doc)) + "\n")


def _summary(text: str):
    if sys.stderr.isatty():
        print(text, file=sys.stderr)


def _run_command(args) -> tuple[dict, int, str]:
    g = parse_graph(Path(args.path).read_text(encoding="utf-8-sig"))
    doc = {"command": args.command}
    doc.update(graph_header(g))
    exit_code = 0
    summary = ""

    if args.command == "dim":
        dim = cone_dimension(g)
        # the dimension is the rank of the incidence columns
        doc.update({"dimension": dim,
                    "incidence_rank": dim,
                    "bipartite_components": bipartite_component_count(g)})
        summary = f"dimension {dim}"
    elif args.command == "repr":
        rep = full_representation(g, args.max_n)
        doc["representation"] = representation_doc(rep, g)
        summary = (f"{len(rep.equations)} equations, "
                   f"{len(rep.halfspaces)} halfspaces")
    elif args.command == "canonical":
        rep = canonical_representation(g, args.max_n)
        doc["representation"] = representation_doc(rep, g)
        summary = (f"{len(rep.equations)} equations, "
                   f"{len(rep.halfspaces)} irreducible halfspaces")
    elif args.command == "facets":
        facet_list = facets(g, args.max_n)
        # x_v cuts a facet iff the edges off v are that facet's generators
        spans = {f.generators_on for f in facet_list}
        non_facet = [(v, face_dimension(g, coordinate_halfspace(g, v)))
                     for v in range(g.vertex_count)
                     if tuple(k for k, edge in enumerate(g.edges) if v not in edge)
                     not in spans]
        doc.update(facets_doc(facet_list, g, non_facet))
        summary = f"{len(facet_list)} facets"
    elif args.command == "member":
        x = parse_rational_vector(args.vector)
        result = membership(g, x)
        doc.update(membership_doc(x, result, g))
        summary = "member" if result else "not a member"
    elif args.command == "decompose":
        x = parse_rational_vector(args.vector)
        b = []
        for c in x:
            if c.denominator != 1:
                raise ValueError(f"decompose requires integer entries, got {c}")
            b.append(int(c))
        result = integer_decompose(g, b)
        doc.update(decomposition_doc(b, result, g))
        summary = "decomposed" if result else "no decomposition"
    elif args.command == "matching":
        result = has_perfect_matching(g)
        doc.update(matching_doc(result, g))
        summary = ("perfect matching found" if result
                   else "no perfect matching")
    elif args.command == "validate":
        report = cross_validate(g)
        doc["validation"] = report_doc(report)
        summary = "all checks passed" if report.passed else "checks FAILED"
        if not report.passed:
            exit_code = 1

    if getattr(args, "oracle", False):  # validate has no --oracle
        report = cross_validate(g)
        doc["validation"] = report_doc(report)
        if not report.passed:
            summary += " (cross-validation FAILED)"
            exit_code = 1
    return doc, exit_code, summary


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, exit_code, summary = _run_command(args)
    except EdgeListParseError as exc:
        print(f"edgecone: parse error: {exc}", file=sys.stderr)
        return 2
    except (GraphRequirementError, EnumerationGateError) as exc:
        print(f"edgecone: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"edgecone: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"edgecone: cannot read input: {exc}", file=sys.stderr)
        return 2
    _emit(doc, args.format)
    if summary:
        _summary(summary)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
