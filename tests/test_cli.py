import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import edgecone
from edgecone.cli import main

TRIANGLE = "a b\nb c\nc a\n"
K13 = "a\nb\nc\nd\na d\nb d\nc d\n"
SINGLE = "a b\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="graph.txt"):
        target = tmp_path / name
        target.write_text(text, encoding="utf-8")
        return str(target)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_triangle(graph_file, capsys):
    code, out, _ = run(capsys, "dim", graph_file(TRIANGLE))
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3
    assert doc["vertices"] == ["a", "b", "c"]
    assert doc["incidence_rank"] == 3


def test_matching_star(graph_file, capsys):
    code, out, _ = run(capsys, "matching", graph_file(K13))
    assert code == 0
    doc = json.loads(out)
    assert doc["has_perfect_matching"] is False
    violator = doc["violator"]
    assert set(violator) <= {"a", "b", "c"} and len(violator) >= 2


def test_matching_found(graph_file, capsys):
    # a 6-cycle with a chord, plus a separate edge: 8 vertices, matchable
    text = "a b\nb c\nc d\nd e\ne f\nf a\na d\ng h\n"
    code, out, _ = run(capsys, "matching", graph_file(text))
    assert code == 0
    doc = json.loads(out)
    assert doc["has_perfect_matching"] is True and doc["violator"] is None
    edges = {frozenset(e) for e in doc["edges"]}
    matched = [v for pair in doc["matching"] for v in pair]
    assert all(frozenset(pair) in edges for pair in doc["matching"])
    assert sorted(matched) == sorted(doc["vertices"])  # each vertex once


def test_matching_above_the_enumeration_gate(graph_file, capsys):
    # a 28-vertex path plus two leaves sharing its last vertex: 30 vertices
    lines = [f"v{i} v{i + 1}" for i in range(27)] + ["v27 x", "v27 y"]
    code, out, _ = run(capsys, "matching", graph_file("\n".join(lines)))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 30 and doc["has_perfect_matching"] is False
    violator = set(doc["violator"])
    neighbors = {w for a, b in doc["edges"] for v, w in ((a, b), (b, a))
                 if v in violator}
    assert not violator & neighbors and len(violator) > len(neighbors)


def test_canonical_rejects_triangle_naming_hypothesis(graph_file, capsys):
    code, _, err = run(capsys, "canonical", graph_file(TRIANGLE))
    assert code == 1
    assert "connected bipartite" in err


def test_canonical_star(graph_file, capsys):
    code, out, _ = run(capsys, "canonical", graph_file(K13))
    assert code == 0
    doc = json.loads(out)
    rep = doc["representation"]
    assert rep["kind"] == "canonical_bipartite"
    assert len(rep["equations"]) == 1
    assert [h["tag"]["vertices"] for h in rep["halfspaces"]] == [
        ["a", "b"], ["a", "c"], ["b", "c"]]


def test_facets_star_reports_non_facet_center(graph_file, capsys):
    code, out, _ = run(capsys, "facets", graph_file(K13))
    assert code == 0
    doc = json.loads(out)
    assert doc["facet_count"] == 3
    assert doc["non_facet_coordinates"] == [
        {"vertex": "d", "face_dimension": 0}]


def test_facets_counts_a_facet_coordinate_that_lost_the_tag(graph_file, capsys):
    # x_a and x_b cut the same facet, tagged x_a; neither is a non-facet
    code, out, _ = run(capsys, "facets", graph_file("a b\nc d\nd e\n"))
    assert code == 0
    doc = json.loads(out)
    assert [f["tag"] for f in doc["facets"]] == [
        {"kind": "coordinate", "vertex": "a"}, {"kind": "coordinate", "vertex": "c"},
        {"kind": "coordinate", "vertex": "e"}]
    assert doc["non_facet_coordinates"] == [
        {"vertex": "d", "face_dimension": 1}]


def test_member_round_trip(graph_file, capsys):
    code, out, _ = run(capsys, "member", graph_file(TRIANGLE), "1/2,1/2,1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_member"] is True
    assert doc["vector"] == ["1/2", "1/2", "1/2"]
    code, out, _ = run(capsys, "member", graph_file(TRIANGLE), "0.5,0.5,0.5")
    assert json.loads(out)["is_member"] is True


def test_member_rejects_huge_exponent_fast(graph_file, capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "member", graph_file(SINGLE), "1e100000000,1")
    assert time.perf_counter() - started < 5.0
    assert code == 2 and out == ""
    assert "exponent" in err


def test_member_parse_error_stays_short(graph_file, capsys):
    code, out, err = run(capsys, "member", graph_file(SINGLE), "1e" + "9" * 5000)
    assert code == 2 and out == ""
    assert "entry 1 of 1" in err and "exponent" in err
    assert len(err) < 300


def test_member_violation_witness(graph_file, capsys):
    code, out, _ = run(capsys, "member", graph_file(K13), "1,1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_member"] is False
    assert doc["violated"]["tag"]["kind"] == "independent_set"


def test_decompose(graph_file, capsys):
    code, out, _ = run(capsys, "decompose", graph_file(K13), "1,1,1,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["decomposable"] is True
    assert doc["decomposition"] == {"a d": 1, "b d": 1, "c d": 1}
    code, out, _ = run(capsys, "decompose", graph_file(SINGLE), "1,0")
    doc = json.loads(out)
    assert doc["decomposable"] is False
    assert doc["violated"] is not None


def test_decompose_rejects_fractions(graph_file, capsys):
    code, _, err = run(capsys, "decompose", graph_file(SINGLE), "1/2,1/2")
    assert code == 2
    assert "integer" in err


def test_repr_full(graph_file, capsys):
    code, out, _ = run(capsys, "repr", graph_file(SINGLE))
    assert code == 0
    rep = json.loads(out)["representation"]
    assert rep["kind"] == "full"
    assert len(rep["halfspaces"]) == 4


def test_validate(graph_file, capsys):
    code, out, _ = run(capsys, "validate", graph_file(TRIANGLE))
    assert code == 0
    doc = json.loads(out)
    assert doc["validation"]["passed"] is True
    assert {c["name"] for c in doc["validation"]["checks"]} == {
        "facets", "membership", "dimension"}


def test_oracle_flag(graph_file, capsys):
    code, out, _ = run(capsys, "dim", graph_file(TRIANGLE), "--oracle")
    assert code == 0
    assert json.loads(out)["validation"]["passed"] is True


def test_failed_validation_exits_1(graph_file, capsys, monkeypatch):
    # a library that finds no facets fails the oracle's facet check
    monkeypatch.setattr("edgecone.oracle.facets", lambda g: ())
    path = graph_file(TRIANGLE)
    for argv in (("validate", path), ("dim", path, "--oracle")):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        validation = json.loads(out)["validation"]
        assert validation["passed"] is False
        assert validation["checks"][0] == {
            "name": "facets", "passed": False,
            "detail": "facet mismatch: oracle-only [[0, 1], [0, 2], [1, 2]], "
                      "library-only []"}


def test_parse_error_exit_2(graph_file, capsys):
    code, _, err = run(capsys, "dim", graph_file("a a\n"))
    assert code == 2
    assert "line 1" in err


def test_leading_byte_order_mark_is_not_a_label(graph_file, capsys):
    code, out, _ = run(capsys, "dim", graph_file("\ufeffa b\nb c\n"))
    assert code == 0
    assert json.loads(out)["vertices"] == ["a", "b", "c"]


def test_usage_error_exit_2(capsys):
    assert run(capsys, "no-such-command", "x")[0] == 2
    assert run(capsys)[0] == 2


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "dim", "/no/such/file")
    assert code == 2


def test_gate_override(graph_file, capsys):
    path = graph_file("\n".join(f"v{i} v{i + 1}" for i in range(6)))
    code, _, err = run(capsys, "repr", path, "--max-n", "3")
    assert code == 1
    assert "exponential enumeration" in err
    code, out, _ = run(capsys, "repr", path, "--max-n", "7")
    assert code == 0


def test_facets_and_canonical_gate(graph_file, capsys):
    path = graph_file("\n".join(f"v{i} v{i + 1}" for i in range(6)))
    for command in ("facets", "canonical"):
        code, out, err = run(capsys, command, path, "--max-n", "3")
        assert code == 1 and out == ""
        assert "7 vertices exceed the gate of 3" in err


def test_validate_beyond_the_oracle_gate(graph_file, capsys):
    path = graph_file("\n".join(f"v{i} v{i + 1}" for i in range(10)))
    code, out, err = run(capsys, "validate", path)
    assert code == 1 and out == ""
    assert "dimension 11 exceeds the oracle gate of 10" in err


def test_flags_only_where_they_act(graph_file, capsys):
    path = graph_file(SINGLE)
    for argv in (("dim", path, "--max-n", "3"),
                 ("member", path, "1,1", "--max-n", "3"),
                 ("validate", path, "--oracle")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err


def test_canonical_rejects_the_empty_graph(graph_file, capsys):
    code, out, err = run(capsys, "canonical", graph_file(""))
    assert code == 1 and out == ""
    assert err.startswith("edgecone: ") and "no vertices" in err


def test_negative_gate_is_a_usage_error(graph_file, capsys):
    code, _, err = run(capsys, "repr", graph_file(SINGLE), "--max-n", "-1")
    assert code == 2
    assert "--max-n" in err and "nonnegative" in err


def test_output_deterministic_bytes(graph_file, capsys):
    path = graph_file(K13)
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "facets", path)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_plain_format(graph_file, capsys):
    code, out, _ = run(capsys, "dim", graph_file(TRIANGLE), "--format", "plain")
    assert code == 0
    assert "dimension: 3" in out
    assert not out.startswith("{")


def test_plain_format_nests_lists_and_dicts(graph_file, capsys):
    code, out, _ = run(capsys, "matching", graph_file(SINGLE), "--format", "plain")
    assert code == 0
    assert out == (
        "command: matching\nvertices:\n  - a\n  - b\nedges:\n  -\n    - a\n"
        "    - b\nhas_perfect_matching: True\nmatching:\n  -\n    - a\n"
        "    - b\nviolator: None\n")


class Terminal(io.StringIO):
    def isatty(self):
        return True


def test_summary_goes_to_a_terminal_only(graph_file, capsys, monkeypatch):
    # a library that finds no facets fails the oracle's facet check
    monkeypatch.setattr("edgecone.oracle.facets", lambda g: ())
    path = graph_file(TRIANGLE)
    cases = [(("dim", path), "dimension 3"),
             (("member", path, "3,0,0"), "not a member"),
             (("validate", path), "checks FAILED"),
             (("dim", path, "--oracle"), "dimension 3 (cross-validation FAILED)")]
    for argv, summary in cases:
        code, out, err = run(capsys, *argv)
        assert err == ""
        terminal = Terminal()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stderr", terminal)
            assert run(capsys, *argv)[:2] == (code, out)
        assert terminal.getvalue() == summary + "\n"


def test_module_entry_point_matches_main(graph_file, capsys):
    src = str(Path(edgecone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for argv in (("dim", graph_file(TRIANGLE)),
                 ("canonical", graph_file(TRIANGLE), "--format", "plain")):
        code, out, _ = run(capsys, *argv)
        done = subprocess.run([sys.executable, "-m", "edgecone.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (code, out)
