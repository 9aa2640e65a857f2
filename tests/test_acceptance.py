"""Acceptance suite: one test per exit criterion, exact tolerances,
printed pass lines with timings (run with ``pytest -s`` to see them).

The graph battery is fixed and deterministic: every labeled connected
graph on at most 5 vertices, 500 seeded random connected graphs on 6-7
vertices, and (for the bipartite criteria) the connected bipartite
graphs on at most 8 vertices from ``battery.bipartite_battery``.
"""

import random
import time
from fractions import Fraction

from edgecone import (CoordinateTag,
                      bipartite_component_count, bipartite_facet_check,
                      brute_force_facet_generator_sets,
                      canonical_representation, cone_dimension,
                      coordinate_halfspace, dual_facet, edge_vectors,
                      face_dimension, facets, fm_membership,
                      independent_set_halfspace, independent_sets, is_facet,
                      has_perfect_matching, integer_decompose, membership,
                      neighbor_set, parity_check, rational_rank)
from battery import (bipartite_battery, combinatorial_facet_sets,
                     complete_bipartite, kuhn_maximum_matching,
                     relaxed_witness, standard_battery, star)


def _report(number: int, label: str, started: float, budget: float | None = None,
            split: dict[str, float] | None = None):
    """Print the pass line; ``split`` names where the time went."""
    elapsed = time.perf_counter() - started
    line = f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.2f}s"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"
        line += f" < {budget:.0f}s"
    if split:
        line += ": " + ", ".join(f"{part} {seconds:.2f}s"
                                 for part, seconds in split.items())
    print(line + "]")


def test_criterion_1_star_facets_and_center_face():
    started = time.perf_counter()
    k13 = star(3)  # leaves 0,1,2 ; center 3
    facet_list = facets(k13)
    assert len(facet_list) == 3
    assert [f.halfspace.plane.tag for f in facet_list] == [
        CoordinateTag(0), CoordinateTag(1), CoordinateTag(2)]
    center = coordinate_halfspace(k13, 3)
    assert not is_facet(k13, center)
    # the center hyperplane cuts a proper face: no edge vector lies on
    # it, so the face is the apex and its dimension is 0
    on_center = [v for v in edge_vectors(k13) if v[3] == 0]
    assert on_center == []
    assert face_dimension(k13, center) == rational_rank(on_center) == 0
    _report(1, "star facets and center face", started, budget=1.0)


def test_criterion_2_complete_bipartite_facets_and_hull():
    started = time.perf_counter()
    for m in range(2, 5):
        for n in range(m, 5):
            g = complete_bipartite(m, n)
            facet_list = facets(g)
            assert len(facet_list) == m + n
            assert [f.halfspace.plane.tag for f in facet_list] == [
                CoordinateTag(v) for v in range(m + n)]
            from edgecone import affine_hull
            (equation,) = affine_hull(g)
            assert equation.normal == (1,) * m + (-1,) * n
    _report(2, "complete bipartite facet counts", started, budget=5.0)


def test_criterion_3_dimension_identity():
    started = time.perf_counter()
    mismatches = 0
    for g in standard_battery():
        formula = g.vertex_count - bipartite_component_count(g)
        if formula != rational_rank(edge_vectors(g)):
            mismatches += 1
    assert mismatches == 0
    _report(3, f"dimension identity on {len(standard_battery())} graphs",
            started, budget=60.0)


def test_criterion_4_membership_agreement():
    started = time.perf_counter()
    split = {"points": 0.0, "membership": 0.0, "fm_membership": 0.0}
    disagreements = 0
    for index, g in enumerate(standard_battery()):
        t0 = time.perf_counter()
        vectors = edge_vectors(g)
        n = g.vertex_count
        rng = random.Random(9_000 + index)
        points = [tuple(v) for v in vectors]
        for _ in range(50):
            # coefficients a/b with b in 1..4, summed in twelfths
            twelfths = [0] * n
            for i, j in g.edges:
                weight = rng.randint(0, 6) * (12 // rng.randint(1, 4))
                twelfths[i] += weight
                twelfths[j] += weight
            points.append(tuple(Fraction(t, 12) for t in twelfths))
        for _ in range(50):
            points.append(tuple(Fraction(rng.randint(-4, 8), rng.randint(1, 3))
                                for _ in range(n)))
        points.append((1,) * n)
        t1 = time.perf_counter()
        by_flow = [membership(g, point).is_member for point in points]
        t2 = time.perf_counter()
        by_elimination = [fm_membership(vectors, point) for point in points]
        t3 = time.perf_counter()
        disagreements += sum(a != b for a, b in zip(by_flow, by_elimination))
        split["points"] += t1 - t0
        split["membership"] += t2 - t1
        split["fm_membership"] += t3 - t2
    assert disagreements == 0
    _report(4, "membership vs elimination oracle", started, budget=600.0,
            split=split)


def test_criterion_5_facet_triple_agreement():
    started = time.perf_counter()
    mismatches = []
    for g in bipartite_battery():
        if cone_dimension(g) <= 1:
            by_rank = frozenset()
        else:
            by_rank = frozenset(frozenset(f.generators_on) for f in facets(g))
        by_connectivity = combinatorial_facet_sets(g)
        by_brute_force = brute_force_facet_generator_sets(edge_vectors(g))
        if not (by_rank == by_connectivity == by_brute_force):
            mismatches.append(g.edges)
            continue
        # the side-2 description of every side-1 facet cuts the same facet
        side1 = set(g.bipartitions[0][0])
        for a in independent_sets(g):
            if set(a) < side1 and bipartite_facet_check(g, a):
                dual = dual_facet(g, a)
                original = independent_set_halfspace(g, a)
                vectors = edge_vectors(g)
                if [original.margin(v) == 0 for v in vectors] != \
                        [dual.margin(v) == 0 for v in vectors]:
                    mismatches.append((g.edges, a))
    assert mismatches == []
    _report(5, f"facet triple agreement on {len(bipartite_battery())} "
            "bipartite graphs", started)


def test_criterion_6_irreducibility_and_uniqueness():
    started = time.perf_counter()
    failures = []
    for g in bipartite_battery():
        if not g.edges:
            continue  # no-edge graphs have no representation to reduce
        rep = canonical_representation(g)
        vectors = edge_vectors(g)
        for dropped in rep.halfspaces:
            point = relaxed_witness(g, rep, dropped)
            in_relaxation = (
                all(sum(a * b for a, b in zip(eq.normal, point)) == 0
                    for eq in rep.equations)
                and all(h.margin(point) >= 0
                        for h in rep.halfspaces if h != dropped))
            outside_cone = (dropped.margin(point) < 0
                            and not fm_membership(vectors, point))
            if not (in_relaxation and outside_cone):
                failures.append((g.edges, dropped.plane.tag))
        # no two distinct side-1 sets cut the same facet
        side1 = set(g.bipartitions[0][0])
        seen = {}
        for a in independent_sets(g):
            if set(a) < side1 and bipartite_facet_check(g, a):
                h = independent_set_halfspace(g, a)
                on = frozenset(i for i, v in enumerate(vectors)
                               if h.margin(v) == 0)
                if on in seen:
                    failures.append((g.edges, seen[on], a))
                seen[on] = a
    assert failures == []
    _report(6, "irreducibility and uniqueness of the canonical form", started)


def test_criterion_7_marriage_equivalence():
    started = time.perf_counter()
    disagreements = []
    for g in bipartite_battery():
        ones = (1,) * g.vertex_count
        by_membership = membership(g, ones).is_member
        by_hall = all(len(a) <= len(neighbor_set(g, a))
                      for a in independent_sets(g))
        by_augmenting = kuhn_maximum_matching(g) * 2 == g.vertex_count
        verdict = has_perfect_matching(g)
        if not (by_membership == by_hall == by_augmenting
                == verdict.has_matching):
            disagreements.append(g.edges)
            continue
        if verdict.has_matching:
            covered = sorted(v for e in verdict.matching for v in g.edges[e])
            if covered != list(range(g.vertex_count)):
                disagreements.append((g.edges, verdict.matching))
        else:
            a = verdict.violator
            if len(a) <= len(neighbor_set(g, a)):
                disagreements.append((g.edges, a))
    assert disagreements == []
    _report(7, f"marriage equivalence on {len(bipartite_battery())} "
            "bipartite graphs", started)


def test_criterion_8_lattice_identity():
    started = time.perf_counter()
    failures = []
    for index, g in enumerate(bipartite_battery()):
        n = g.vertex_count
        rng = random.Random(30_000 + index)
        for _ in range(200):
            target = [0] * n
            for i, j in g.edges:
                count = rng.randint(0, 3)
                target[i] += count
                target[j] += count
            target = tuple(target)
            result = integer_decompose(g, target)
            if not result or result.decomposition.target(g) != target \
                    or not parity_check(target):
                failures.append((g.edges, target))
        # membership of an integer point implies decomposability
        for _ in range(30):
            point = tuple(rng.randint(-1, 3) for _ in range(n))
            decomposed = integer_decompose(g, point)
            if membership(g, point).is_member != bool(decomposed):
                failures.append((g.edges, point))
            if decomposed and not parity_check(point):
                failures.append((g.edges, point))
    assert failures == []
    _report(8, "integer decomposition identity", started)
