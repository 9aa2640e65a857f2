import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from edgecone import (EnumerationGateError, brute_force_facet_generator_sets,
                      brute_force_facets, cross_validate, edge_vectors,
                      facets, fm_membership, membership, parse_graph)
from battery import (bipartite_battery, build, complete, complete_bipartite,
                     connected_graphs_upto, cycle, fourier_motzkin_rows,
                     random_connected, seeded_unions, span_basis_facet_data,
                     standard_battery, star)
from edgecone import oracle
from edgecone.rational import clear_denominators

TRIANGLE = parse_graph("a b\nb c\nc a")
K13 = star(3)


def test_brute_force_facets_star():
    # three facets, the ones the leaf coordinates cut; the oracle's
    # normals are the in-span representatives of those halfspaces
    sets = brute_force_facet_generator_sets(edge_vectors(K13))
    assert sets == {frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1})}
    planes = brute_force_facets(edge_vectors(K13))
    assert sorted(p.normal for p in planes) == [
        (-3, 1, 1, -1), (1, -3, 1, -1), (1, 1, -3, -1)]


def test_brute_force_star_normals_equal_leaf_coordinates_modulo_hull():
    from edgecone import affine_hull, rational_rank
    from edgecone.oracle import _facet_data
    from edgecone.rational import dot
    hull = [eq.normal for eq in affine_hull(K13)]
    vectors = edge_vectors(K13)
    facet_normals = {frozenset(on): inward for inward, on in _facet_data(vectors)}
    for leaf in range(3):
        coordinate = tuple(1 if k == leaf else 0 for k in range(4))
        inward = facet_normals[frozenset(i for i in range(3) if i != leaf)]
        # neither normal lies in the hull's span and both span the same
        # line modulo it: inward = h + c * coordinate with c != 0
        assert (rational_rank(hull + [inward])
                == rational_rank(hull + [coordinate])
                == rational_rank(hull + [inward, coordinate])
                == len(hull) + 1)
        # hull normals vanish on every edge vector, so the leaf's own
        # edge vector (coordinate value 1) has the sign of c
        assert dot(inward, vectors[leaf]) > 0


def test_brute_force_facets_ray_is_empty():
    assert brute_force_facets([(1, 1)]) == ()
    assert brute_force_facets([]) == ()


def test_brute_force_facets_triangle():
    # the triangle cone is simplicial: three facets, cut by the
    # singleton-set hyperplanes, not by the coordinate hyperplanes
    planes = brute_force_facets(edge_vectors(TRIANGLE))
    assert sorted(p.normal for p in planes) == [
        (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]
    sets = brute_force_facet_generator_sets(edge_vectors(TRIANGLE))
    assert sets == {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}


def test_brute_force_sign_convention():
    # every generator on one closed side: unit normals point with the
    # generators, all others against
    for g in (K13, TRIANGLE, cycle(6)):
        for plane in brute_force_facets(edge_vectors(g)):
            values = [sum(a * b for a, b in zip(plane.normal, v))
                      for v in edge_vectors(g)]
            if sum(plane.normal) == 1 and all(c in (0, 1) for c in plane.normal):
                assert all(v >= 0 for v in values)
            else:
                assert all(v <= 0 for v in values)


def test_brute_force_gate():
    too_many = [(1, 1)] * 25
    with pytest.raises(EnumerationGateError):
        brute_force_facets(too_many)
    wide = [tuple(1 if k in (0, 1) else 0 for k in range(11))]
    with pytest.raises(EnumerationGateError):
        brute_force_facets(wide)


def test_fm_membership_examples():
    assert fm_membership(edge_vectors(TRIANGLE), (1, 1, 1))  # weights 1/2 each
    assert not fm_membership(edge_vectors(parse_graph("a b")), (1, 2))
    assert fm_membership(edge_vectors(TRIANGLE), (0, 0, 0))
    assert fm_membership([], (0, 0))
    assert not fm_membership([], (1, 0))


def test_fm_membership_dimension_check():
    with pytest.raises(ValueError):
        fm_membership(edge_vectors(TRIANGLE), (1, 1))


def test_oracle_rejects_generators_of_mixed_dimension():
    mixed = [(1, 1, 0), (1, 1)]
    for call in (brute_force_facets, brute_force_facet_generator_sets,
                 lambda gens: fm_membership(gens, (1, 1, 0))):
        with pytest.raises(ValueError, match="generators of mixed dimension"):
            call(mixed)


def test_oracle_outputs_are_pinned():
    """sha256 over ``repr`` of the reference Fourier-Motzkin rows and the
    oracle's facet data of the standard battery, and of the
    ``cross_validate`` reports of the connected graphs on at most 4
    vertices and of the bipartite battery plus 60 seeded unions on at
    most 10 vertices.  The first three digests were taken before the
    projection dropped its dead branches, and kept when the oracle moved
    to the double description; the fourth was taken while the point
    battery was still built from ``Fraction`` entries.  Any change to
    the rows, their order, the facet data or the reports shows here."""
    rows, data, reports = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    wider = hashlib.sha256()
    for g in standard_battery():
        gens = edge_vectors(g)
        rows.update(repr(fourier_motzkin_rows(gens, g.vertex_count)).encode())
        data.update(repr(oracle._facet_data(gens)).encode())
    for g in connected_graphs_upto(4):
        reports.update(repr(cross_validate(g)).encode())
    for g in bipartite_battery() + seeded_unions(60, 7, 10):
        wider.update(repr(cross_validate(g)).encode())
    assert rows.hexdigest() == \
        "8783e8d01a12ad57c778a7de5170b66c66029c8a67bf1729340b7dd66ea93cf9"
    assert data.hexdigest() == \
        "dd5b143f0434ceb19cc5b7d8fcb0d24fe758742b869f5273e445047a8666799b"
    assert reports.hexdigest() == \
        "f86ce54a7fea9b6bd26ab8bcc0a042fda01d2d79407b09da82cd034becbdfaa1"
    assert wider.hexdigest() == \
        "b04ee3c52d552ce65f2bca19454adedb6f9e63f8e832c23dd701414fe3e4f7ba"


def test_oracle_reads_fraction_generators_exactly():
    # (1, 1) = 2 * g0 + g1; truncating 1/2 to 0 would lose g0
    halves = [(Fraction(1, 2), 0), (0, 1)]
    assert fm_membership(halves, (1, 1))
    assert not fm_membership(halves, (-1, 1))
    assert brute_force_facet_generator_sets(halves) == {
        frozenset({0}), frozenset({1})}
    assert brute_force_facets(halves) == brute_force_facets([(1, 0), (0, 1)])
    # a positive rescale changes neither the cone nor the generator indices
    vectors = edge_vectors(K13)
    scaled = [tuple(Fraction(c, k + 2) for c in v) for k, v in enumerate(vectors)]
    assert (brute_force_facet_generator_sets(scaled)
            == brute_force_facet_generator_sets(vectors))
    assert fm_membership(scaled, (1, 1, 1, 3))
    assert not fm_membership(scaled, (1, 1, 1, 1))


@pytest.mark.parametrize("inexact", [1.9, "3", True])
def test_oracle_rejects_inexact_generators(inexact):
    generators = [(inexact, 0), (0, 1)]
    for call in (brute_force_facets, brute_force_facet_generator_sets,
                 lambda gens: fm_membership(gens, (1, 1))):
        with pytest.raises(ValueError, match="int or Fraction"):
            call(generators)


def test_fm_membership_on_random_combinations():
    rng = random.Random(59)
    for trial in range(15):
        g = random_connected(rng.randint(2, 7), rng, 0.4)
        vectors = edge_vectors(g)
        coeffs = [Fraction(rng.randint(0, 7), rng.randint(1, 5))
                  for _ in vectors]
        point = tuple(sum(c * v[k] for c, v in zip(coeffs, vectors))
                      for k in range(g.vertex_count))
        assert fm_membership(vectors, point)


def test_oracle_results_independent_of_generator_order():
    rng = random.Random(61)
    g = cycle(6)
    vectors = list(edge_vectors(g))
    base_normals = {p.normal for p in brute_force_facets(vectors)}
    points = [tuple(Fraction(rng.randint(-2, 4)) for _ in range(6))
              for _ in range(20)]
    base_answers = [fm_membership(vectors, x) for x in points]
    for _ in range(5):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert {p.normal for p in brute_force_facets(shuffled)} == base_normals
        assert [fm_membership(shuffled, x) for x in points] == base_answers


def test_facet_halfspaces_contain_all_generators():
    for g in (TRIANGLE, K13, cycle(6), complete_bipartite(2, 3)):
        vectors = edge_vectors(g)
        for normal, on in __import__("edgecone.oracle", fromlist=["_facet_data"])._facet_data(vectors):
            values = [sum(a * b for a, b in zip(normal, v)) for v in vectors]
            assert all(v >= 0 for v in values)
            assert tuple(i for i, v in enumerate(values) if v == 0) == on


@pytest.mark.parametrize("g", [
    random_connected(10, random.Random(36), 0.4),
    complete_bipartite(4, 6),
    build(10, [(i, 5 + j) for i in range(5) for j in range(5)][1:]),
], ids=["random-10-24-edges", "K4,6", "K5,5-minus-an-edge"])
def test_brute_force_facets_at_the_generator_gate(g):
    vectors = edge_vectors(g)
    assert len(vectors) == oracle.ORACLE_MAX_GENERATORS
    assert (brute_force_facet_generator_sets(vectors)
            == frozenset(frozenset(f.generators_on) for f in facets(g)))


HAND_MADE_GENERATORS = {
    "zero generator": [(1, 0, 1), (0, 0, 0), (0, 1, 1)],
    "fractions": [(Fraction(1, 2), 0, 1), (0, Fraction(2, 3), 1),
                  (1, 1, Fraction(5, 4))],
    "ray plus zero": [(2, 1), (0, 0)],
    "all zero": [(0, 0, 0), (0, 0, 0)],
    "half-plane": [(1, 0), (-1, 0), (0, 1)],
}


def test_double_description_equals_fourier_motzkin():
    """The oracle's double description gives the facet data of the
    span-basis route over the Fourier-Motzkin reference, on-sets and
    order included, and the reference rows' membership verdicts.  Its
    inputs: both batteries, seeded random graphs and disjoint unions
    within the gates (points of ``_point_battery``), and the hand-made
    cones, the empty cone of width 3 and seeded random generator sets
    (random points and sums of generators)."""
    rng = random.Random(83)
    seeded = [random_connected(rng.randint(1, 10), rng, rng.choice((0.1, 0.25, 0.4)))
              for _ in range(120)]
    graphs = standard_battery() + bipartite_battery() + tuple(
        g for g in seeded + list(seeded_unions(40, 27, 10))
        if len(g.edges) <= oracle.ORACLE_MAX_GENERATORS)
    cases = [(edge_vectors(g), g.vertex_count, oracle._point_battery(g, 3, 3, 0))
             for g in graphs]
    # the reference's row valve fires on about one random set of these
    # shapes in fifty; this seed's twelve stay below it
    rng = random.Random(2)
    sets = list(HAND_MADE_GENERATORS.values()) + [[]]
    sets += [[tuple(rng.randint(0, 3) for _ in range(width))
              for _ in range(count)]
             for count, width in [(rng.randint(12, 20), rng.randint(6, 8))
                                  for _ in range(12)]]
    for raw in sets:
        width = len(raw[0]) if raw else 3
        points = [tuple(rng.randint(-2, 6) for _ in range(width))
                  for _ in range(20)]
        points += [tuple(map(sum, zip(*rng.sample(raw, k))))
                   for k in range(1, len(raw) + 1)]
        cases.append((raw, width, points))
    for raw, width, points in cases:
        gens = oracle._intake(raw, width)
        assert oracle._facet_data(gens) == span_basis_facet_data(gens), raw
        rows = fourier_motzkin_rows(gens, width)
        assert [fm_membership(gens, x) for x in points] == [
            oracle._satisfies(rows, clear_denominators(x)) for x in points], raw


def test_facet_data_of_hand_made_cones():
    def data(name):
        return oracle._facet_data(oracle._intake(HAND_MADE_GENERATORS[name]))
    # a ray's only proper face is its apex, which counts as no facet
    assert data("ray plus zero") == () and data("all zero") == ()
    assert data("half-plane") == (((0, 1), (0, 1)),)
    # the normals lie in the span, and each facet holds the zero generator
    assert data("zero generator") == (((-1, 2, 1), (0, 1)), ((2, -1, 1), (1, 2)))


def test_span_equations_are_not_facets():
    # K2,3's span has the equation x_left = x_right, an oracle row that
    # vanishes on every generator
    vectors = edge_vectors(complete_bipartite(2, 3))
    sets = brute_force_facet_generator_sets(vectors)
    assert sets and all(len(on) < len(vectors) for on in sets)


def test_point_battery_equals_fraction_combinations():
    # the battery's integer points are 12 times the Fraction combinations
    # and 6 times the Fraction random points
    from edgecone.oracle import _point_battery
    rng = random.Random(71)
    graphs = [TRIANGLE, K13, parse_graph("a b\nc d\nlonely")]
    graphs += [random_connected(rng.randint(1, 7), rng, 0.4) for _ in range(8)]
    for seed, g in enumerate(graphs):
        vectors = edge_vectors(g)
        draw = random.Random(seed)
        expected = [tuple(v) for v in vectors]
        for _ in range(6):
            coeffs = [Fraction(draw.randint(0, 6), draw.randint(1, 4))
                      for _ in vectors]
            expected.append(tuple(12 * sum(c * v[k] for c, v in zip(coeffs, vectors))
                                  for k in range(g.vertex_count)))
        for _ in range(4):
            expected.append(tuple(6 * Fraction(draw.randint(-4, 8), draw.randint(1, 3))
                                  for _ in range(g.vertex_count)))
        expected.append((1,) * g.vertex_count)
        points = _point_battery(g, 6, 4, seed)
        assert points == expected
        assert all(type(c) is int for point in points for c in point)


def test_cross_validate_triangle():
    report = cross_validate(TRIANGLE)
    assert report.passed
    assert [c.name for c in report.checks] == ["facets", "membership", "dimension"]


def test_cross_validate_k23_facet_count():
    report = cross_validate(complete_bipartite(2, 3))
    assert report.passed
    assert "5 facets" in report.checks[0].detail


def test_cross_validate_c6_facet_count():
    report = cross_validate(cycle(6))
    assert report.passed
    assert "9 facets" in report.checks[0].detail
    assert len(facets(cycle(6))) == 9


def test_cross_validate_random_graphs():
    rng = random.Random(67)
    for trial in range(10):
        g = random_connected(rng.randint(1, 7), rng, 0.4)
        assert cross_validate(g).passed, g.edges


def test_cross_validate_reports_mismatches(monkeypatch):
    # a library that loses two triangle facets, invents one, and flips
    # every membership verdict: each check names its witness
    real_membership = oracle.membership
    monkeypatch.setattr("edgecone.oracle.facets", lambda g: [
        SimpleNamespace(generators_on=on) for on in ((0, 1), (2,))])
    monkeypatch.setattr("edgecone.oracle.membership", lambda g, x: SimpleNamespace(
        is_member=not real_membership(g, x).is_member))
    report = cross_validate(TRIANGLE)
    assert not report.passed
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("facets", False,
         "facet mismatch: oracle-only [[0, 2], [1, 2]], library-only [[2]]"),
        ("membership", False,
         "membership mismatch at (1, 1, 0): flow says False, elimination says True"),
        ("dimension", True, "vertex count minus bipartite components = 3, rank = 3")]


@pytest.mark.parametrize("g, message", [
    (complete(8), "28 generators exceed the oracle gate of 24"),
    (build(15, []), "dimension 15 exceeds the oracle gate of 10"),
])
def test_cross_validate_refuses_before_library_work(g, message, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("facets ran on a graph the oracle refuses")
    monkeypatch.setattr("edgecone.oracle.facets", unexpected)
    with pytest.raises(EnumerationGateError, match=message):
        cross_validate(g)
