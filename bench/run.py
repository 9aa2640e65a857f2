"""Seeded benchmark for edgecone.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Runs one workload (decide, structure, verify or cli) as a closed loop
with a single caller: the next call starts only after the previous one
returned.  Every answer is checked; a wrong answer aborts the run.
Times are reported at a fixed reference speed of the host (``speed.py``);
the result file keeps them as measured under ``wall_clock``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller
result file (environment, input statistics, sample counts) goes to
``bench/out/``; a traced run also writes its spans there.

Run from the repository root; the library is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import check as ck  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NullTracer, Tracer, clock  # noqa: E402
from speed import Speedometer, process_kernel, python_kernel  # noqa: E402

WORKLOADS = ("decide", "structure", "verify", "cli")
SETUP_REPEATS = 3  # before the loop; one more after every round
RSS_ROUNDS = 4     # in-process peak RSS is read after this many rounds
WINDOW = 0.02      # a percentile averages the ranks within this of it

END_TO_END_UNITS = {"throughput_ops_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}
LAYERS = ("graph", "rational", "cone", "facets", "lattice", "oracle", "serialize", "cli",
          "bench")


# ----------------------------------------------------------------- setup

def import_library(workload: str):
    """Import edgecone afresh (dropping any earlier import) and return
    the modules the workload calls."""
    for name in [m for m in sys.modules if m == "edgecone" or m.startswith("edgecone.")]:
        del sys.modules[name]
    ec = importlib.import_module("edgecone")
    if workload == "cli":
        return ec, importlib.import_module("edgecone.cli"), importlib.import_module(
            "edgecone.serialize")
    return ec, None, None


def clear_caches():
    """Empty the functools caches of the imported library.  A dropped
    import can outlive its ``sys.modules`` entries (typing's own caches
    keep its classes, and so its functions), and its caches with it."""
    for name, module in list(sys.modules.items()):
        if name == "edgecone" or name.startswith("edgecone."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def setup(workload: str, seed: int, workdir: str):
    """Import the library, generate round 0 and, for ``cli``, write its
    edge-list files.  Returns (modules, round 0, seconds)."""
    t0 = clock()
    modules = import_library(workload)
    if workload == "cli":
        inputs = wl.cli_round(seed, 0)
        shutil.rmtree(workdir, ignore_errors=True)
        wl.write_files(inputs, os.path.join(workdir, "r0"))
    else:
        inputs = wl.ROUNDS[workload](seed, 0)
    return modules, inputs, clock() - t0


# ------------------------------------------------------------- measuring

def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile as the mean of the values ranked within
    ``q`` ± ``WINDOW``.  The latencies cluster by graph size, and a
    nearest-rank quantile that sits between two clusters jumps from one
    to the other when a single operation changes rank; the window
    blends them instead.  Failed operations sort last as inf."""
    ordered = sorted(values)
    lo = max(0, math.ceil((q - WINDOW) * len(ordered)) - 1)
    hi = max(lo + 1, math.ceil((q + WINDOW) * len(ordered)))
    return statistics.fmean(ordered[lo:hi])


def input_stats(workload: str, inputs) -> dict:
    """Size of round 0, which every run executes first."""
    if workload == "cli":
        specs = list({c.file: c.spec for c in inputs}.values())
        kinds = [c.sub + (" plain" if c.plain else "") + (" --oracle" if c.oracle else "")
                 for c in inputs]
    else:
        specs = [grp.spec for grp in inputs]
        kinds = [f"{op.kind} {op.note}".strip() for grp in inputs for op in grp.ops]
    small = [s for s in specs if s.n <= wl.GATE]
    return {
        "graphs": len(specs),
        "n_range": [min(s.n for s in specs), max(s.n for s in specs)],
        "m_range": [min(s.m for s in specs), max(s.m for s in specs)],
        "independent_sets": sum(len(ck.Reference(s).independent_sets) for s in small),
        "graphs_above_gate": len(specs) - len(small),
        "operations": len(kinds),
        "operations_by_kind": {k: kinds.count(k) for k in sorted(set(kinds))},
    }


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def layer_metrics(tracer: Tracer, tally: wl.Tally, rounds: int, loop_seconds: float) -> dict:
    """Per-layer metrics from the spans.  Times are means per call over
    the run; counts are taken from round 0, which is fixed by the seed."""

    def mean(name, scale=1e3, **match):
        spans = [s for s in tracer.select(name, **match) if not s.attrs.get("failed")]
        return statistics.fmean(s.duration for s in spans) * scale if spans else 0.0

    def count(name, **match):
        return len(tracer.select(name, round=0, **match))

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in tracer.select(name, round=0))

    lattice = [s for s in tracer.spans if s.layer == "lattice" and s.attrs.get("certificate")]
    nonmember = [s for s in tracer.select("cone.membership")
                 if s.attrs.get("note") in ("early", "late")]
    extra = tracer.bookkeeping + tracer.probing
    m = {
        "graph.parse_ms": mean("graph.parse"),
        "graph.indep_enum_ms": mean("graph.independent_sets"),
        "graph.indep_sets": total("graph.independent_sets", "count"),
        "rational.rank_ms": mean("rational.rational_rank"),
        "rational.rank_calls": count("rational.rational_rank"),
        "cone.dimension_ms": mean("cone.cone_dimension"),
        "cone.full_repr_ms": mean("cone.full_representation"),
        "cone.halfspaces": total("cone.full_representation", "size"),
        "cone.membership_first_ms": mean("cone.membership", note="first"),
        "cone.membership_member_us": mean("cone.membership", 1e6, note="member"),
        "cone.membership_nonmember_us": (statistics.fmean(s.duration for s in nonmember) * 1e6
                                         if nonmember else 0.0),
        "cone.membership_calls": count("cone.membership"),
        "facets.facets_ms": mean("facets.facets"),
        "facets.canonical_ms": mean("facets.canonical_representation"),
        "facets.count": total("facets.facets", "size"),
        "lattice.decompose_ms": mean("lattice.integer_decompose"),
        "lattice.matching_ms": mean("lattice.has_perfect_matching"),
        "lattice.certificate_ms": (statistics.fmean(s.duration for s in lattice) * 1e3
                                   if lattice else 0.0),
        "lattice.gate_errors": sum(1 for s in tracer.spans
                                   if s.round == 0 and s.attrs.get("failed")),
        "oracle.cross_validate_ms": mean("oracle.cross_validate"),
        "oracle.brute_facets_ms": mean("oracle.brute_force_facet_generator_sets"),
        "oracle.fm_membership_ms": mean("oracle.fm_membership"),
        "oracle.fm_calls": count("oracle.fm_membership"),
        "serialize.doc_ms": mean("serialize.document"),
        "cli.startup_ms": mean("cli.startup"),
        "cli.main_ms": mean("cli.main"),
    }
    self_times = tracer.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_times.get(layer, 0.0) * 1e3 / rounds
    m["trace.overhead_pct"] = 100 * extra / (loop_seconds - extra)
    m["trace.span_us"] = tracer.bookkeeping * 1e6 / max(1, len(tracer.spans))
    m["failed_ratio"] = tally.failed / tally.attempted
    return m


LAYER_UNITS = {"_ms": "ms", "_us": "us", "_pct": "%", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "edgecone" / "__init__.py").is_file():
        print(f"bench: no edgecone package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    workload, seed = args.workload, args.seed
    speed = Speedometer(process_kernel if workload == "cli" else python_kernel)
    setups = []  # (seconds as measured, mark)
    for _ in range(SETUP_REPEATS):
        mark = speed.tick()
        modules, inputs, seconds = setup(workload, seed, workdir)
        setups.append((seconds, mark))
    stats = input_stats(workload, inputs)

    tracer = Tracer() if args.trace else NullTracer()
    tally = wl.Tally()
    env = wl.child_env(str(SRC))
    rss_mb = None
    rounds = 0
    correct, error = True, None
    start = clock()
    try:
        while True:
            tracer.round = rounds
            tally.new_round()
            if workload == "cli":
                directory = os.path.join(workdir, f"r{rounds}")
                if rounds:
                    inputs = wl.cli_round(seed, rounds)
                    wl.write_files(inputs, directory)
                wl.run_cli(inputs, directory, env, tally, tracer, speed,
                           modules if tracer.enabled else None)
            else:
                if rounds:
                    inputs = wl.ROUNDS[workload](seed, rounds)
                wl.run_groups(modules[0], inputs, tally, tracer, speed,
                              wl.PROBES[workload] if tracer.enabled else ())
            tally.end_round()
            rounds += 1
            if rounds <= RSS_ROUNDS and workload != "cli":
                # In-process: the peak over a fixed amount of work.  Each
                # round starts on a fresh import, so the library's caches
                # do not carry over and the peak does not grow with speed.
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # Set-up is timed again between rounds, so that its median
            # spans the whole run rather than one moment of it.  Its
            # fresh import of the library serves the next round, so the
            # library's caches start empty as in a new process.
            clear_caches()
            modules = None
            gc.collect()
            mark = speed.tick()
            modules, _, seconds = setup(workload, seed, os.path.join(workdir, "setup"))
            setups.append((seconds, mark))
            if clock() - start >= args.seconds:
                break
    except ck.WrongAnswer as exc:
        correct, error = False, str(exc)
        print(f"bench: WRONG ANSWER in {workload} round {rounds}: {exc}", file=sys.stderr)
    loop_seconds = clock() - start
    speed.tick()  # closes the bracket of the last set-up
    if workload == "cli":
        # Largest child: every cli subprocess has been waited for.
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def times(factor) -> dict:
        lat = [x for _, x in tally.latencies(factor)]
        return {
            "throughput_ops_s": tally.throughput(factor) if tally.finished else 0.0,
            "p50_ms": percentile(lat, 0.5) * 1e3 if lat else 0.0,
            "p90_ms": percentile(lat, 0.9) * 1e3 if lat else 0.0,
            "setup_s": statistics.median(x * factor(mark) for x, mark in setups),
        }

    e2e = {**times(speed.factor), "peak_rss_mb": rss_mb or 0.0}
    wall_clock = times(lambda mark: 1.0)
    kinds_lat = tally.latencies(speed.factor)
    samples = {"throughput_ops_s": len(kinds_lat), "p50_ms": len(kinds_lat),
               "p90_ms": len(kinds_lat), "peak_rss_mb": 1, "setup_s": len(setups)}
    if args.trace:
        metrics = layer_metrics(tracer, tally, max(rounds, 1), loop_seconds)
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics, units = e2e, END_TO_END_UNITS

    by_kind = {}
    for kind in sorted({k for k, _ in kinds_lat}):
        ks = [x for k, x in kinds_lat if k == kind]
        by_kind[kind] = {"count": len(ks), "p50_ms": percentile(ks, 0.5) * 1e3,
                         "p90_ms": percentile(ks, 0.9) * 1e3}
    result = {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "error": error,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else 0.0,
        "rounds": rounds, "loop_seconds": loop_seconds,
        "speed_ticks_s": speed.ticks,
        "speed_kernel": speed.kernel.__name__, "reference_kernel_s": speed.reference_s,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        # With tracing on these are perturbed by the probes; kept to
        # compare with the untraced run of the same seed.
        "end_to_end": e2e,
        "wall_clock": wall_clock,
        "samples": samples,
        "latency_by_kind": by_kind,
        "setup_samples_s": [x for x, _ in setups],
        "inputs_round0": stats,
        "environment": {
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "git_commit": git_commit(), "seed": seed,
            "loop": "closed, one caller: the next call starts when the previous returns, "
                    "so nothing queues and no wait time is recorded",
        },
    }
    name = f"{workload}-seed{seed}-trace{args.trace}"
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(OUT / f"{workload}-seed{seed}-spans.json", "w", encoding="utf-8") as fh:
            json.dump([s.as_dict(start) for s in tracer.spans], fh)

    for k, v in metrics.items():
        print(f"{k:32s} {v:14.4f} {units[k]}")
    print(f"rounds {rounds}, attempted {tally.attempted}, failed {tally.failed}, "
          f"result file {OUT / name}.json")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
