"""The benchmark's workloads: seeded rounds of operations and the loop
that runs them.

A round is a fixed mix of graph sizes and operation kinds; the seed and
the round number choose the graphs and points.  A run executes whole
rounds, so every run measures the same mix.  Each round runs on a fresh
import of the library, and each graph carries labels unique to the run,
so it is new to the process and the library pays its per-graph costs
(constraint build, oracle tables) on the first call.  Every call takes
a mark of the host's speed first; see ``speed.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import check as ck
import gen
from spans import clock

GATE = 20  # the library's default vertex gate for exponential enumeration


@dataclass
class Op:
    kind: str                 # public call: membership, decompose, matching, ...
    arg: tuple | None = None  # the vector argument, if any
    expected: bool | None = None
    note: str = ""            # first / member / early / late


@dataclass
class Group:
    """One graph and the operations run on it, in order."""
    spec: gen.Spec
    ops: list[Op]
    text: str = field(init=False)

    def __post_init__(self):
        self.text = self.spec.text()


# ------------------------------------------------------------------ rounds
# Sizes are fixed per round; the seed varies structure and points.

DECIDE_BIPARTITE = [10, 12, 13, 14, 14, 14, 15, 16, 17, 18]
DECIDE_GENERAL = [12, 14, 14, 16, 18]
DECIDE_MATCHABLE = [40, 80, 120, 160, 200]
DECIDE_UNMATCHABLE = [50, 100, 200]   # negative matchings above the gate


def decide_round(seed: int, r: int) -> list[Group]:
    rng = gen.rng_for(seed, "decide", r)
    groups = []

    def name():
        return f"d{r}.{len(groups)}."

    for n in DECIDE_BIPARTITE:
        spec = gen.bipartite(rng, name(), n, round(1.35 * n))
        groups.append(Group(spec, [
            Op("membership", gen.member_point(rng, spec, False), True, "first"),
            Op("membership", gen.member_point(rng, spec, True), True, "member"),
            Op("membership", gen.member_point(rng, spec, False), True, "member"),
            Op("membership", gen.early_nonmember(rng, spec, False), False, "early"),
            Op("membership", gen.late_nonmember(rng, spec, False), False, "late"),
            Op("membership", gen.late_nonmember(rng, spec, True), False, "late"),
            Op("decompose", gen.member_point(rng, spec, True), True, "member"),
            Op("decompose", gen.early_nonmember(rng, spec, True), False, "early"),
            Op("decompose", gen.late_nonmember(rng, spec, True), False, "late"),
            Op("matching"),
        ]))
    for n in DECIDE_GENERAL:
        spec = gen.general(rng, name(), n, 2 * n)
        groups.append(Group(spec, [
            Op("membership", gen.member_point(rng, spec, False), True, "first"),
            Op("membership", gen.member_point(rng, spec, True), True, "member"),
            Op("membership", gen.member_point(rng, spec, False), True, "member"),
            Op("membership", gen.early_nonmember(rng, spec, False), False, "early"),
            Op("membership", gen.late_nonmember(rng, spec, False), False, "late"),
            Op("membership", gen.late_nonmember(rng, spec, True), False, "late"),
        ]))
    for n in DECIDE_MATCHABLE:
        spec = gen.sparse_matchable(rng, name(), n, n // 2)
        groups.append(Group(spec, [
            Op("decompose", gen.member_point(rng, spec, True), True, "member"),
            Op("decompose", gen.member_point(rng, spec, True), True, "member"),
            Op("matching"),
        ]))
    for n in DECIDE_UNMATCHABLE:
        spec = gen.sparse_unmatchable(rng, name(), n, n // 2)
        groups.append(Group(spec, [
            Op("decompose", gen.member_point(rng, spec, True), True, "member"),
            Op("matching"),
        ]))
    return groups


STRUCTURE_BIPARTITE = [8, 10, 11, 12, 12, 12, 13, 13, 14, 14, 15, 17]
STRUCTURE_GENERAL = [9, 11, 12, 12, 12, 13, 14, 16]
# A run holds only about six rounds, so the graphs are degree-balanced:
# the cost of facets follows the number of independent sets, which
# varies by about 12% between random graphs of one size and by 2-4%
# between balanced ones.


def structure_round(seed: int, r: int) -> list[Group]:
    rng = gen.rng_for(seed, "structure", r)
    groups = []

    def name():
        return f"s{r}.{len(groups)}."

    for n in STRUCTURE_BIPARTITE:
        spec = gen.bipartite(rng, name(), n, round(1.4 * n), balanced=True)
        groups.append(Group(spec, [Op("dimension"), Op("full"), Op("facets"),
                                   Op("canonical")]))
    for n in STRUCTURE_GENERAL:
        spec = gen.general(rng, name(), n, 2 * n, balanced=True)
        groups.append(Group(spec, [Op("dimension"), Op("full"), Op("facets")]))
    for parts, isolated in (([("b", 5, 5), ("g", 5, 7)], 1),
                            ([("b", 6, 7), ("b", 4, 3)], 0)):
        built = [gen.bipartite(rng, "", n, m) if k == "b" else gen.general(rng, "", n, m)
                 for k, n, m in parts]
        spec = gen.union(rng, name(), built, isolated)
        groups.append(Group(spec, [Op("dimension"), Op("full"), Op("facets")]))
    return groups


# (kind, n, m): small graphs from sparse to dense within the oracle's gates
VERIFY_GRAPHS = [
    ("b", 4, 3), ("b", 4, 4), ("b", 5, 4), ("b", 5, 6), ("b", 6, 5), ("b", 6, 7),
    ("b", 6, 9), ("b", 7, 6), ("b", 7, 8), ("b", 8, 7), ("b", 8, 9),
    ("g", 4, 5), ("g", 4, 6), ("g", 5, 5), ("g", 5, 7), ("g", 5, 9), ("g", 6, 6),
    ("g", 6, 8), ("g", 7, 7), ("g", 7, 9), ("g", 8, 8),
]


def verify_round(seed: int, r: int) -> list[Group]:
    rng = gen.rng_for(seed, "verify", r)
    groups = []
    for kind, n, m in VERIFY_GRAPHS:
        prefix = f"v{r}.{len(groups)}."
        spec = (gen.bipartite(rng, prefix, n, m) if kind == "b"
                else gen.general(rng, prefix, n, m))
        groups.append(Group(spec, [Op("validate")]))
    return groups


# ------------------------------------------------------------- execution

# kind -> (span name, library call, answer check)
CALLS = {
    "membership": ("cone.membership", lambda ec, g, op: ec.membership(g, op.arg),
                   lambda ref, op, r: ck.check_membership(ref, op.arg, op.expected, r)),
    "decompose": ("lattice.integer_decompose", lambda ec, g, op: ec.integer_decompose(g, op.arg),
                  lambda ref, op, r: ck.check_decomposition(ref, op.arg, op.expected, r)),
    "matching": ("lattice.has_perfect_matching", lambda ec, g, op: ec.has_perfect_matching(g),
                 lambda ref, op, r: ck.check_matching(ref, r)),
    "dimension": ("cone.cone_dimension", lambda ec, g, op: ec.cone_dimension(g),
                  lambda ref, op, r: ck.check_dimension(ref, r)),
    "full": ("cone.full_representation", lambda ec, g, op: ec.full_representation(g),
             lambda ref, op, r: ck.check_full(ref, r)),
    "facets": ("facets.facets", lambda ec, g, op: ec.facets(g),
               lambda ref, op, r: ck.check_facets(ref, r)),
    "canonical": ("facets.canonical_representation",
                  lambda ec, g, op: ec.canonical_representation(g),
                  lambda ref, op, r: ck.check_canonical(ref, r)),
    "validate": ("oracle.cross_validate", lambda ec, g, op: ec.cross_validate(g),
                 lambda ref, op, r: ck.check_report(ref, r)),
}


def _certificate(op: Op, result) -> bool:
    """True when the call returned a violated constraint or violator."""
    if op.kind == "decompose":
        return result.violated is not None
    if op.kind == "matching":
        return result.violator is not None
    return False


def _size(op: Op, result) -> int:
    """Halfspaces or facets returned, for the structure calls."""
    if op.kind in ("full", "canonical"):
        return len(result.halfspaces)
    if op.kind == "facets":
        return len(result)
    return 0


class Tally:
    """End-to-end counters shared by all workloads.  Times are kept as
    measured, each with the mark of the speed tick before it; the
    summaries take a ``factor(mark)`` that scales them (``speed.py``)."""

    def __init__(self):
        self.ops: list[tuple] = []     # (round, kind, seconds, mark, failed)
        self.parses: list[tuple] = []  # (round, seconds, mark): library time, not an op
        self.round = -1
        self.finished = 0              # rounds that ran to the end
        self.attempted = 0             # also the id of the latest op
        self.failed = 0

    def new_round(self):
        self.round += 1

    def end_round(self):
        self.finished = self.round + 1

    def busy(self, seconds: float, mark: int):
        self.parses.append((self.round, seconds, mark))

    def op(self, kind: str, seconds: float, mark: int, failed: bool):
        self.attempted += 1
        self.failed += failed
        self.ops.append((self.round, kind, seconds, mark, failed))

    def latencies(self, factor) -> list[tuple[str, float]]:
        """(kind, scaled seconds) per operation of the finished rounds;
        a failed operation counts as inf."""
        return [(kind, math.inf if failed else x * factor(mark))
                for r, kind, x, mark, failed in self.ops if r < self.finished]

    def throughput(self, factor) -> float:
        """Succeeded operations per second of library time over the
        finished rounds; parsing and failed calls count as time."""
        done = sum(1 for r, *_, failed in self.ops if r < self.finished and not failed)
        busy = sum(x * factor(mark) for r, _, x, mark, _ in self.ops if r < self.finished)
        busy += sum(x * factor(mark) for r, x, mark in self.parses if r < self.finished)
        return done / busy


def run_groups(ec, groups: list[Group], tally: Tally, tracer, speed, probes):
    """Run one round of an in-process workload, checking every answer."""
    for group in groups:
        gid = tracer.new_id()
        g_start = clock()
        mark = speed.mark()
        t0 = clock()
        g = ec.parse_graph(group.text)
        t1 = clock()
        tally.busy(t1 - t0, mark)
        tracer.record("graph.parse", t0, t1, parent=gid)
        c0 = clock()
        ref = ck.Reference(group.spec)
        ck.check_parse(g, group.spec)
        tracer.record("bench.check", c0, clock(), parent=gid)
        for op in group.ops:
            span, call, check = CALLS[op.kind]
            mark = speed.mark()
            t0 = clock()
            try:
                result = call(ec, g, op)
                failed = False
            except ec.EnumerationGateError:
                failed = True
            t1 = clock()
            tally.op(f"{op.kind} {op.note}".strip(), t1 - t0, mark, failed)
            if failed:
                tracer.record(span, t0, t1, gid, tally.attempted, note=op.note, failed=True)
                continue
            tracer.record(span, t0, t1, gid, tally.attempted, note=op.note,
                          certificate=_certificate(op, result), size=_size(op, result))
            c0 = clock()
            check(ref, op, result)
            tracer.record("bench.check", c0, clock(), parent=gid, op=tally.attempted)
        if probes:
            p0 = clock()
            for probe in probes:
                probe(ec, g, group, ref, tracer, gid)
            tracer.probing += clock() - p0
        tracer.record("bench.group", g_start, clock(), id=gid)


# ---------------------------------------------------------------- probes
# Traced runs only: extra calls that attribute time to one layer.

def probe_independent_sets(ec, g, group, ref, tracer, gid):
    if g.vertex_count > GATE:
        return
    t0 = clock()
    count = sum(1 for _ in ec.independent_sets(g))
    t1 = clock()
    tracer.record("graph.independent_sets", t0, t1, parent=gid, count=count)
    ck.require(count == len(ref.independent_sets),
               f"independent_sets yielded {count}, expected {len(ref.independent_sets)}")


def probe_rank(ec, g, group, ref, tracer, gid):
    t0 = clock()
    rank = ec.rational_rank(ec.edge_vectors(g))
    t1 = clock()
    tracer.record("rational.rational_rank", t0, t1, parent=gid)
    ck.require(rank == ref.dimension, f"rational_rank {rank}, expected {ref.dimension}")


def probe_oracle(ec, g, group, ref, tracer, gid):
    """The oracle's two halves, called on a copy of the graph with its
    vertex order reversed: the oracle caches per generator tuple, so a
    call on the same graph would only read the cache left by
    ``cross_validate``."""
    spec = group.spec.reversed(group.spec.labels[0] + "r")
    rref = ck.Reference(spec)
    vectors = ec.edge_vectors(ec.parse_graph(spec.text()))
    t0 = clock()
    sets = ec.brute_force_facet_generator_sets(vectors)
    t1 = clock()
    tracer.record("oracle.brute_force_facet_generator_sets", t0, t1, parent=gid)
    ck.require(sets == frozenset(frozenset(on) for on in rref.facet_groups),
               "brute-force facets differ from the reference")
    rng = gen.rng_for(0, "fm", spec.labels[0])
    points = [gen.combination(spec, [int(k == e) for k in range(spec.m)])
              for e in range(spec.m)]
    points += [gen.combination(spec, [rng.randint(0, 6) for _ in range(spec.m)])
               for _ in range(25)]
    points += [tuple(rng.randint(-4, 8) for _ in range(spec.n)) for _ in range(25)]
    points.append((1,) * spec.n)
    for x in points:
        t0 = clock()
        inside = ec.fm_membership(vectors, x)
        t1 = clock()
        tracer.record("oracle.fm_membership", t0, t1, parent=gid)
        ck.require(inside == rref.contains(x), f"fm_membership({x}) = {inside}")


PROBES = {
    "decide": [probe_independent_sets],
    "structure": [probe_independent_sets, probe_rank],
    "verify": [probe_independent_sets, probe_rank, probe_oracle],
}

ROUNDS = {"decide": decide_round, "structure": structure_round, "verify": verify_round}


# ------------------------------------------------------------------- cli

@dataclass
class Call:
    """One ``edgecone`` subprocess invocation."""
    spec: gen.Spec
    file: str
    sub: str
    vector: tuple | None = None
    expected: bool | None = None
    plain: bool = False
    oracle: bool = False

    def argv(self, directory: str) -> list[str]:
        out = [self.sub, os.path.join(directory, self.file)]
        if self.vector is not None:
            out.append(",".join(str(c) for c in self.vector))
        if self.plain:
            out += ["--format", "plain"]
        if self.oracle:
            out.append("--oracle")
        return out


def cli_round(seed: int, r: int) -> list[Call]:
    rng = gen.rng_for(seed, "cli", r)
    small_b = gen.bipartite(rng, f"c{r}.sb.", 6, 7)
    small_g = gen.general(rng, f"c{r}.sg.", 6, 8)
    tiny_g = gen.general(rng, f"c{r}.tg.", 5, 6)
    # Degree-balanced, as in structure: the medium files carry most of
    # the library's work in a round, and a run holds only about eight.
    mid_b = gen.bipartite(rng, f"c{r}.mb.", 14, 19, balanced=True)
    mid_g = gen.general(rng, f"c{r}.mg.", 13, 24, balanced=True)
    files = {"small_b.txt": small_b, "small_g.txt": small_g, "tiny_g.txt": tiny_g,
             "mid_b.txt": mid_b, "mid_g.txt": mid_g}
    f = {id(s): name for name, s in files.items()}

    def call(spec, sub, **kw):
        return Call(spec, f[id(spec)], sub, **kw)

    return [
        call(small_g, "dim"),
        call(mid_b, "dim", plain=True),
        call(small_b, "repr"),
        call(mid_g, "repr"),
        call(small_b, "canonical", plain=True),
        call(mid_b, "canonical"),
        call(small_g, "facets"),
        call(mid_b, "facets"),
        call(small_g, "member", vector=gen.member_point(rng, small_g, False), expected=True),
        call(mid_g, "member", vector=gen.late_nonmember(rng, mid_g, False), expected=False),
        call(mid_b, "member", vector=gen.member_point(rng, mid_b, False), expected=True,
             plain=True),
        call(mid_b, "decompose", vector=gen.member_point(rng, mid_b, True), expected=True),
        call(small_b, "decompose", vector=gen.late_nonmember(rng, small_b, True),
             expected=False),
        call(mid_b, "matching"),
        call(small_b, "matching", plain=True),
        call(small_b, "validate"),
        call(tiny_g, "validate"),
        call(tiny_g, "dim", oracle=True),
    ]


def write_files(calls: list[Call], directory: str):
    os.makedirs(directory, exist_ok=True)
    for c in calls:
        path = os.path.join(directory, c.file)
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(c.spec.text())


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(calls: list[Call], directory: str, env: dict, tally: Tally, tracer, speed,
            modules=None):
    """Run one round of ``edgecone`` subprocesses, checking every answer.
    ``modules`` = (edgecone, edgecone.cli, edgecone.serialize) enables
    the in-process probes of a traced run."""
    refs: dict[str, ck.Reference] = {}
    if tracer.enabled:
        p0 = clock()
        for _ in range(2):
            t0 = clock()
            subprocess.run([sys.executable, "-c", "import edgecone.cli"], env=env,
                           check=True, timeout=120)
            tracer.record("cli.startup", t0, clock())
        tracer.probing += clock() - p0
    for c in calls:
        argv = c.argv(directory)
        mark = speed.mark()
        t0 = clock()
        proc = subprocess.run([sys.executable, "-m", "edgecone.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        t1 = clock()
        failed = proc.returncode == 1 and "gate" in proc.stderr
        tally.op(c.sub, t1 - t0, mark, failed)
        tracer.record("cli.subprocess", t0, t1, op=tally.attempted, sub=c.sub, failed=failed)
        if failed:
            continue
        c0 = clock()
        ref = refs.setdefault(c.file, ck.Reference(c.spec))
        ck.require(proc.returncode == 0,
                   f"edgecone {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
        ck.check_cli(ref, c, proc.stdout)
        tracer.record("bench.check", c0, clock(), op=tally.attempted)
        if modules is not None:
            p0 = clock()
            probe_cli(modules, c, argv, proc.stdout, tracer, tally.attempted)
            tracer.probing += clock() - p0


def probe_cli(modules, c: Call, argv, stdout: str, tracer, op_id):
    ec, cli, ser = modules
    with open(argv[1], encoding="utf-8") as fh:
        text = fh.read()
    t0 = clock()
    g = ec.parse_graph(text)
    tracer.record("graph.parse", t0, clock(), op=op_id)

    out = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    tracer.record("cli.main", t0, clock(), op=op_id)
    ck.require(code == 0 and out.getvalue() == stdout,
               f"in-process main({argv}) differs from the subprocess")

    # Serialization of the same result, built from in-process library calls.
    x = c.vector
    if c.sub == "dim":
        part = lambda: {}
    elif c.sub in ("repr", "canonical"):
        rep = (ec.full_representation(g) if c.sub == "repr"
               else ec.canonical_representation(g))
        part = lambda: {"representation": ser.representation_doc(rep, g)}
    elif c.sub == "facets":
        facet_list = ec.facets(g)
        part = lambda: ser.facets_doc(facet_list, g)
    elif c.sub == "member":
        res = ec.membership(g, x)
        part = lambda: ser.membership_doc(x, res, g)
    elif c.sub == "decompose":
        res = ec.integer_decompose(g, x)
        part = lambda: ser.decomposition_doc(x, res, g)
    elif c.sub == "matching":
        res = ec.has_perfect_matching(g)
        part = lambda: ser.matching_doc(res, g)
    else:
        res = ec.cross_validate(g)
        part = lambda: {"validation": ser.report_doc(res)}
    t0 = clock()
    doc = {"command": c.sub, **ser.graph_header(g), **part()}
    json.dumps(doc, indent=2)
    tracer.record("serialize.document", t0, clock(), op=op_id)
