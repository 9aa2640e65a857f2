"""Self-test of the benchmark: a tiny smoke pass of every workload, and
proof that the correctness gate rejects forged answers.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check as ck  # noqa: E402
import edgecone as ec  # noqa: E402
import gen  # noqa: E402
import workloads as wl  # noqa: E402


def _graph(spec: gen.Spec):
    g = ec.parse_graph(spec.text())
    ck.check_parse(g, spec)
    return g


def _small(seed=7):
    rng = gen.rng_for(seed, "test")
    return gen.bipartite(rng, "b", 7, 9), gen.general(rng, "g", 7, 11), rng


# ------------------------------------------------------------ smoke pass

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["decide", "structure", "verify", "cli"])
def test_one_round_of_each_workload_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # Only negative matchings above the vertex gate fail, and only in decide.
    assert (result["failed"] > 0) == (workload == "decide")


def test_without_the_library_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "decide", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    for build in wl.ROUNDS.values():
        a, b, c = build(5, 1), build(5, 1), build(6, 1)
        assert [(x.text, [o.arg for o in x.ops]) for x in a] == \
               [(x.text, [o.arg for o in x.ops]) for x in b]
        assert [x.text for x in a] != [x.text for x in c]
    assert [c.spec.text() for c in wl.cli_round(5, 0)] == \
           [c.spec.text() for c in wl.cli_round(5, 0)]


# ------------------------------------------------- the reference itself

def test_reference_facets_match_the_brute_force_oracle():
    rng = gen.rng_for(1, "oracle")
    for kind, n, m in [("b", 5, 5), ("b", 6, 8), ("g", 5, 7), ("g", 6, 8)]:
        spec = gen.bipartite(rng, "x", n, m) if kind == "b" else gen.general(rng, "x", n, m)
        expected = ec.brute_force_facet_generator_sets(ec.edge_vectors(_graph(spec)))
        assert frozenset(frozenset(on) for on in ck.Reference(spec).facet_groups) == expected


def test_edge_rank_matches_rational_rank():
    spec, other, _ = _small()
    for s in (spec, other):
        vectors = ec.edge_vectors(_graph(s))
        for size in range(len(s.edges) + 1):
            for subset in itertools.islice(itertools.combinations(range(len(s.edges)), size), 20):
                assert ck.edge_rank(s.n, [s.edges[k] for k in subset]) == \
                    ec.rational_rank([vectors[k] for k in subset])


def test_constructed_points_have_the_labels_they_claim():
    spec, other, rng = _small()
    for s in (spec, other):
        ref = ck.Reference(s)
        for integral in (False, True):
            assert ref.contains(gen.member_point(rng, s, integral))
            assert not ref.contains(gen.early_nonmember(rng, s, integral))
            assert not ref.contains(gen.late_nonmember(rng, s, integral))


# --------------------------------------------- the gate rejects forgeries

def test_forged_membership_witness_is_rejected():
    spec, _, rng = _small()
    g, ref = _graph(spec), ck.Reference(spec)
    x = gen.late_nonmember(rng, spec, False)
    result = ec.membership(g, x)
    ck.check_membership(ref, x, False, result)          # the genuine answer passes
    satisfied = next(v for v in range(spec.n) if x[v] > 0)
    forged = [
        ec.coordinate_halfspace(g, satisfied),          # a constraint x satisfies
        ec.Halfspace(ec.Hyperplane((1,) * spec.n, ec.IndependentSetTag(spec.edges[0])),
                     "<=0"),                            # not an independent set
        ec.independent_set_halfspace(g, (spec.edges[0][0],)),  # not violated
    ]
    for witness in forged:
        with pytest.raises(ck.WrongAnswer):
            ck.check_membership(ref, x, False, dataclasses.replace(result, violated=witness))
    with pytest.raises(ck.WrongAnswer):
        ck.check_membership(ref, x, True, result)       # wrong verdict


def test_forged_decomposition_is_rejected():
    spec, _, rng = _small()
    g, ref = _graph(spec), ck.Reference(spec)
    b = gen.member_point(rng, spec, True)
    result = ec.integer_decompose(g, b)
    ck.check_decomposition(ref, b, True, result)
    pairs = list(result.decomposition.multiplicities)
    pairs[0] = (pairs[0][0], pairs[0][1] + 1)
    forged = dataclasses.replace(result, decomposition=ec.EdgeDecomposition(tuple(pairs)))
    with pytest.raises(ck.WrongAnswer):
        ck.check_decomposition(ref, b, True, forged)


def test_forged_matching_and_violator_are_rejected():
    spec = gen.sparse_matchable(gen.rng_for(2, "m"), "m", 10, 4)
    g, ref = _graph(spec), ck.Reference(spec)
    result = ec.has_perfect_matching(g)
    ck.check_matching(ref, result)
    with pytest.raises(ck.WrongAnswer):
        ck.check_matching(ref, dataclasses.replace(result, matching=result.matching[1:]))
    side1 = ref.components[0][1][0]
    with pytest.raises(ck.WrongAnswer):
        ck.check_matching(ref, ec.MatchingResult(False, violator=(side1[0],)))


# ------------------------------------------------------------ host speed

def test_times_are_scaled_by_the_ticks_that_bracket_them():
    from speed import Speedometer
    speed = Speedometer()
    ref = speed.reference_s
    speed.ticks = [2 * ref, 2 * ref, ref / 2]
    assert speed.factor(0) == 0.5                 # host at half speed
    assert speed.factor(1) == pytest.approx(0.8)  # speeding up during the call
    assert speed.factor(2) == 2.0                 # the last tick has no successor
    tally = wl.Tally()
    tally.new_round()
    tally.busy(0.002, 0)
    tally.op("membership", 0.018, 0, False)
    tally.op("matching", 0.001, 2, True)
    tally.end_round()
    assert tally.latencies(speed.factor) == [("membership", 0.009), ("matching", math.inf)]
    assert tally.throughput(speed.factor) == pytest.approx(1 / (0.001 + 0.009 + 0.002))
