"""Command-line interface over edge-list files.

One table, ``COMMANDS``, lists each subcommand's help, its work and the
options it takes: a vector, and ``--max-n``, the vertex gate of the
enumeration.  Every subcommand but ``validate`` takes ``--oracle``,
which adds the brute-force oracle's cross-validation report;
``validate`` has no work of its own and is that report alone.

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
from .facets import canonical_representation, face_dimension, facets, is_facet
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


# The work of a subcommand takes the graph and the parsed arguments and
# returns the entries it adds to the document and a one-line summary.

def _dim(g, args) -> tuple[dict, str]:
    dim = cone_dimension(g)
    # the dimension is the rank of the incidence columns
    return ({"dimension": dim, "incidence_rank": dim,
             "bipartite_components": bipartite_component_count(g)}, f"dimension {dim}")


def _representation(build, kind: str):
    def work(g, args) -> tuple[dict, str]:
        rep = build(g, args.max_n)
        return ({"representation": representation_doc(rep, g)},
                f"{len(rep.equations)} equations, {len(rep.halfspaces)} {kind}")
    return work


def _facets(g, args) -> tuple[dict, str]:
    facet_list = facets(g, args.max_n)
    non_facet = [(v, face_dimension(g, h)) for v in range(g.vertex_count)
                 if not is_facet(g, h := coordinate_halfspace(g, v))]
    return facets_doc(facet_list, g, non_facet), f"{len(facet_list)} facets"


def _member(g, args) -> tuple[dict, str]:
    x = parse_rational_vector(args.vector)
    result = membership(g, x)
    return membership_doc(x, result, g), "member" if result else "not a member"


def _decompose(g, args) -> tuple[dict, str]:
    b = []
    for c in parse_rational_vector(args.vector):
        if c.denominator != 1:
            raise ValueError(f"decompose requires integer entries, got {c}")
        b.append(int(c))
    result = integer_decompose(g, b)
    return (decomposition_doc(b, result, g),
            "decomposed" if result else "no decomposition")


def _matching(g, args) -> tuple[dict, str]:
    result = has_perfect_matching(g)
    return (matching_doc(result, g),
            "perfect matching found" if result else "no perfect matching")


# name: (help, work or None for the oracle's report alone, takes a vector,
# takes --max-n)
COMMANDS = {
    "dim": ("dimension of the edge cone", _dim, False, False),
    "repr": ("full halfspace representation",
             _representation(full_representation, "halfspaces"), False, True),
    "canonical": ("canonical irreducible representation (connected bipartite)",
                  _representation(canonical_representation, "irreducible halfspaces"),
                  False, True),
    "facets": ("all facets, plus non-facet coordinate faces", _facets, False, True),
    "member": ("exact membership test for a rational vector", _member, True, False),
    "decompose": ("integer decomposition into edge vectors", _decompose, True, False),
    "matching": ("perfect-matching decision with certificate", _matching, False, False),
    "validate": ("cross-validate both computation paths on this graph", None, False, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecone",
        description="Exact edge-cone computations over graph edge lists.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, work, takes_vector, gated) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="edge-list file")
        if takes_vector:
            p.add_argument("vector",
                           help="comma-separated exact rationals, e.g. 3/2,0,1")
        if gated:
            p.add_argument("--max-n", type=nonnegative_int, default=DEFAULT_MAX_VERTICES,
                           help="vertex gate of the enumeration")
        p.add_argument("--format", choices=("json", "plain"), default="json")
        if work is None:  # the oracle's report is all validate prints
            p.set_defaults(oracle=True)
        else:
            p.add_argument("--oracle", action="store_true",
                           help="also cross-validate against the brute-force oracle")
    return parser


def _run_command(args) -> tuple[dict, int, str]:
    g = parse_graph(Path(args.path).read_text(encoding="utf-8-sig"))
    work = COMMANDS[args.command][1]
    entries, summary = work(g, args) if work else ({}, "")
    doc = {"command": args.command, **graph_header(g), **entries}
    if not args.oracle:
        return doc, 0, summary
    report = cross_validate(g)
    doc["validation"] = report_doc(report)
    if work is None:
        summary = "all checks passed" if report.passed else "checks FAILED"
    elif not report.passed:
        summary += " (cross-validation FAILED)"
    return doc, 0 if report.passed else 1, summary


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
    text = json.dumps(doc, indent=2) if args.format == "json" else "\n".join(_plain_lines(doc))
    sys.stdout.write(text + "\n")
    if sys.stderr.isatty():
        print(summary, file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
