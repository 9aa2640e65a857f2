"""Brute-force polyhedral ground truth, independent of the graph theory.

One generator-only computation cross-checks every combinatorial answer
in the package.  ``_double_description`` turns the generators into the
cone's facets and a halfspace description of it by the double
description method, and caches both per generator tuple and width (for
the most recent ``_CACHE_SIZE`` pairs):

* ``brute_force_facets`` and ``brute_force_facet_generator_sets`` read
  the facets, not generator subsets;
* ``fm_membership`` decides cone membership against the rows: a point
  is in the cone iff it meets every facet normal and every span
  equation.

It knows nothing about graphs.

Every entry point takes its generators through ``_intake``, which
checks the generator-count gate before reading any entry, then the
width and the dimension gate, and then passes each generator through
``clear_denominators``; a point passes ``clear_denominators`` before
the cone is computed.  A positive rescale of a generator leaves the
cone and the generator indices unchanged.  From there on all
arithmetic, elimination included, is on integers.

The gates here are deliberately tight: the oracle exists for
verification, not production.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

from .cone import Hyperplane, _value, cone_dimension, membership
from .errors import EnumerationGateError
from .facets import facets
from .graph import Graph, edge_vectors
from .rational import (Rational, clear_denominators, dot, integer_kernel,
                       integer_rref, primitive)

ORACLE_MAX_GENERATORS = 24
ORACLE_MAX_DIMENSION = 10
_CACHE_SIZE = 128  # (generator tuple, width) pairs whose facets and rows are kept
_COMBINATIONS, _RANDOM_POINTS, _SEED = 25, 25, 0  # cross_validate's point battery


def _intake(generators, width: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The generators, gated and then cleared: the oracle's one entry check.

    The count gate comes first, so an oversized input is refused before
    any entry is read.  The width is ``width`` when given, else the
    first generator's; the dimension gate applies to it, and every
    generator must have it.
    """
    gens = tuple(generators)
    if len(gens) > ORACLE_MAX_GENERATORS:
        raise EnumerationGateError(
            f"{len(gens)} generators exceed the oracle gate of "
            f"{ORACLE_MAX_GENERATORS}")
    if width is None:
        width = len(gens[0]) if gens else 0
    if width > ORACLE_MAX_DIMENSION:
        raise EnumerationGateError(
            f"dimension {width} exceeds the oracle gate of {ORACLE_MAX_DIMENSION}")
    if not {*map(len, gens)} <= {width}:
        raise ValueError(
            f"generators of mixed dimension: expected {width} entries each")
    return tuple(map(clear_denominators, gens))


@lru_cache(maxsize=_CACHE_SIZE)
def _double_description(generators: tuple[tuple[int, ...], ...], width: int):
    """(facet data, membership rows, rank) of the cone the generators
    span.

    The facet data is the sorted (inward primitive normal, on-generator
    indices) of every facet; the rows ``r`` are every extreme ray's
    normal and each span equation with both signs, so x lies in the
    cone iff ``r . x >= 0`` for every row.  ``width`` comes from the
    caller, so generators of an edgeless graph still give the equations
    ``x_v = 0``.  The rank is ``d`` below, the dimension of the span.

    The double description method (Motzkin, Raiffa, Thompson and Thrall
    1953; Fukuda and Prodon 1996).  ``integer_rref`` gives a basis
    ``b_1..b_d`` of the span, and ``integer_kernel`` the equations, the
    complement of its row space.  A normal inside the span is
    ``sum_k c_k b_k``; it is >= 0 on generator ``g`` iff ``a_g . c >= 0``
    with ``a_g = (b_k . g)_k``.  The ``a_g`` span all d coordinates, so
    that cone of ``c`` is pointed, and its extreme rays are the
    facets' normals.  It starts as the simplicial cone of the first d
    independent generators, whose rays come from ``integer_kernel``;
    each further generator, in index order, keeps the rays on its
    nonnegative side and joins each adjacent pair ``p``, ``n`` across it
    by ``primitive(<a, p> n - <a, n> p)``.  Two rays are adjacent when
    their common zero set has at least d - 2 rows and no third ray's
    zero set contains it.  Zero sets are generator bitmasks, counted by
    ``int.bit_count`` (Python 3.10, the package's floor).  Each ray maps
    back to ``primitive(sum_k c_k b_k)``, its zero set is its on-set,
    and for d = 1 the one ray is the apex, no facet.

    No valve on the ray count is needed: every intermediate cone is
    pointed, of dimension d <= 10 with at most 24 facets, so by the
    upper bound theorem (McMullen 1970) it has at most
    2 * C(19, 4) = 7,752 rays within the gates.
    """
    reduced, pivots = integer_rref(generators, width)
    d = len(pivots)
    basis = [primitive(row) for row in reduced]
    free = [j for j in range(width) if j not in pivots]
    rows = []
    for f in free:
        units = [tuple(int(k == j) for k in range(width)) for j in free if j != f]
        equation = integer_kernel(basis + units, width)
        rows += [equation, tuple(-c for c in equation)]
    coords = [tuple(dot(b, g) for b in basis) for g in generators]

    # the pivot columns of the generators as columns: the first d
    # independent ones in index order
    simplicial = integer_rref(list(zip(*coords)), len(coords))[1]
    rays = []  # (ray, bitmask of the added generators it vanishes on)
    for i in simplicial:
        others = [k for k in simplicial if k != i]
        ray = integer_kernel([coords[k] for k in others], d)
        if dot(coords[i], ray) < 0:
            ray = tuple(-c for c in ray)
        rays.append((ray, sum(1 << k for k in others)))
    for i, a in enumerate(coords):
        if i in simplicial:
            continue
        values = [dot(a, ray) for ray, _ in rays]
        zeros = [zero for _, zero in rays]
        kept = [(ray, zero | 1 << i if value == 0 else zero)
                for (ray, zero), value in zip(rays, values) if value >= 0]
        positive = [k for k, value in enumerate(values) if value > 0]
        negative = [k for k, value in enumerate(values) if value < 0]
        for p in positive:
            for n in negative:
                common = zeros[p] & zeros[n]
                if common.bit_count() < d - 2 or any(
                        zero & common == common
                        for k, zero in enumerate(zeros) if k != p and k != n):
                    continue
                joined = [values[p] * y - values[n] * x
                          for x, y in zip(rays[p][0], rays[n][0])]
                kept.append((primitive(joined), common | 1 << i))
        rays = kept

    found = []
    for ray, zero in rays:
        normal = primitive([dot(ray, column) for column in zip(*basis)])
        rows.append(normal)
        if d > 1:  # for d = 1 the cone is a ray, and this is its apex
            found.append((normal, tuple(k for k in range(len(generators))
                                        if zero >> k & 1)))
    return tuple(sorted(found)), tuple(rows), d


def _facet_data(generators: tuple[tuple[int, ...], ...]):
    """(inward primitive normal, on-generator indices) per facet, of
    generators of the first generator's width."""
    return _double_description(generators, len(generators[0]) if generators else 0)[0]


def _is_unit_vector(normal: tuple[int, ...]) -> bool:
    return sum(normal) == 1 and all(c in (0, 1) for c in normal)


def brute_force_facets(generators) -> tuple[Hyperplane, ...]:
    """Facet hyperplanes of the cone spanned by the generators.

    Normals are primitive and untagged; a coordinate normal is presented
    with the generators on its nonnegative side, any other with the
    generators on its nonpositive side (matching the orientation the
    graph-derived halfspaces use).
    """
    planes = []
    for inward, _ in _facet_data(_intake(generators)):
        presented = inward if _is_unit_vector(inward) else tuple(-c for c in inward)
        planes.append(Hyperplane(presented, None))
    return tuple(planes)


def brute_force_facet_generator_sets(generators) -> frozenset[frozenset[int]]:
    """Facets identified by their generator index sets."""
    return frozenset(frozenset(on) for _, on in _facet_data(_intake(generators)))


def fm_membership(generators, x: Sequence[Rational]) -> bool:
    """Do nonnegative multipliers exist with ``sum_i t_i g_i = x``?

    Decided against the double description of the cone: its facet
    normals and its span equations, ``x`` in the cone iff it meets
    each; agrees with any nonnegative-combination certificate.  The
    ``fm_`` prefix stays for compatibility: no Fourier-Motzkin
    elimination runs.
    """
    gens = _intake(generators, len(x))
    point = clear_denominators(x)  # before the cone is computed
    return _satisfies(_double_description(gens, len(x))[1], point)


def _satisfies(rows, point: Sequence[int]) -> bool:
    """Does the integer ``point`` meet ``r . x >= 0`` for every row?"""
    return all(dot(row, point) >= 0 for row in rows)


@_value()
class Check:
    name: str
    passed: bool
    detail: str


@_value("checks")
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _point_battery(g: Graph, combinations: int, random_points: int, seed: int):
    points = [tuple(v) for v in edge_vectors(g)]
    rng = random.Random(seed)
    for _ in range(combinations):
        # coefficients a/b with b in 1..4, summed in twelfths: 12 times the point
        twelfths = [0] * g.vertex_count
        for i, j in g.edges:
            weight = rng.randint(0, 6) * (12 // rng.randint(1, 4))
            twelfths[i] += weight
            twelfths[j] += weight
        points.append(tuple(twelfths))
    for _ in range(random_points):
        # entries a/b with b in 1..3, in sixths: 6 times the point
        points.append(tuple(rng.randint(-4, 8) * (6 // rng.randint(1, 3))
                            for _ in range(g.vertex_count)))
    points.append((1,) * g.vertex_count)
    return points


def cross_validate(g: Graph) -> ValidationReport:
    """Run both computation paths against each other on one graph.

    Checks that (1) the rank-criterion facets and the brute-force facets
    coincide as generator sets, (2) the flow membership and the
    oracle's membership agree on edge vectors, random
    nonnegative combinations, random points and the all-ones vector, and
    (3) ``cone_dimension``'s component-count formula matches the rank.
    Failures are reported with a minimal witness, not raised.  The gate
    is the oracle's (edges, then vertices), checked before any other
    work; it is tighter than the vertex gate of ``facets``.  The
    generators are cleared and their double description fetched once;
    the oracle's facets, every point's verdict and the rank come from
    it, so one elimination runs per graph.  The rows are the facet
    normals plus the span's equations, so a facet missing from them
    shows as a facet mismatch.  The points are built as integers, each
    a positive rescale of a rational point, which keeps membership, and
    both paths judge the same integer point.
    """
    gens = _intake(edge_vectors(g), g.vertex_count)
    checks = []

    library_sets = frozenset(frozenset(f.generators_on) for f in facets(g))
    facet_data, rows, rank = _double_description(gens, g.vertex_count)
    oracle_sets = frozenset(frozenset(on) for _, on in facet_data)
    if library_sets == oracle_sets:
        detail = f"{len(oracle_sets)} facets agree"
    else:
        missing = oracle_sets - library_sets
        extra = library_sets - oracle_sets
        detail = (f"facet mismatch: oracle-only {sorted(map(sorted, missing))}, "
                  f"library-only {sorted(map(sorted, extra))}")
    checks.append(Check("facets", library_sets == oracle_sets, detail))

    disagreement = None
    tested = 0
    for point in _point_battery(g, _COMBINATIONS, _RANDOM_POINTS, _SEED):
        tested += 1
        lib = membership(g, point).is_member
        orc = _satisfies(rows, point)
        if lib != orc:
            disagreement = (point, lib, orc)
            break
    if disagreement is None:
        detail = f"{tested} points agree"
    else:
        point, lib, orc = disagreement
        detail = (f"membership mismatch at {point}: "
                  f"flow says {lib}, elimination says {orc}")
    checks.append(Check("membership", disagreement is None, detail))

    formula = cone_dimension(g)
    checks.append(Check(
        "dimension", formula == rank,
        f"vertex count minus bipartite components = {formula}, rank = {rank}"))
    return ValidationReport(checks)
