"""Brute-force polyhedral ground truth, independent of the graph theory.

Two generator-only computations cross-check every combinatorial answer
in the package:

* ``fm_membership`` decides cone membership by eliminating the
  multiplier variables of ``sum_i t_i g_i = x, t >= 0`` — equalities by
  exact substitution, the remaining multipliers by Fourier-Motzkin
  combination in index order.  The surviving rows describe the cone in
  point space and are cached per generator tuple (for the most recent
  ``_CACHE_SIZE`` tuples);
* ``brute_force_facets`` reads the facet hyperplanes off those same
  rows, not off generator subsets: a row whose on-generators have rank
  d - 1 supports a facet.  It knows nothing about graphs.

Every entry point takes its generators through ``_intake``, which
checks the generator-count gate before reading any entry, then the
width and the dimension gate, and then passes each generator through
``clear_denominators``; a point passes ``clear_denominators`` before
any elimination.  A positive rescale of a generator leaves the cone
and the generator indices unchanged.  From there on all arithmetic,
elimination included, is on integers.

The gates here are deliberately tight: the oracle exists for
verification, not production.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cone import Hyperplane, cone_dimension, membership
from .errors import EnumerationGateError
from .facets import facets
from .graph import Graph, edge_vectors
from .rational import (Rational, clear_denominators, dot, integer_kernel,
                       integer_rref, primitive, rational_rank)

ORACLE_MAX_GENERATORS = 24
ORACLE_MAX_DIMENSION = 10
_ROW_LIMIT = 200_000  # safety valve against Fourier-Motzkin blowup
_CACHE_SIZE = 128  # generator tuples whose facets or projection rows are kept
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
def _facet_data(generators: tuple[tuple[int, ...], ...]):
    """(inward primitive normal, on-generator indices) per facet.

    Read off the rows ``r . x >= 0`` of ``_projection_rows``.  Every
    facet-defining inequality appears among the rows of any
    H-description of the cone.  A face is the cone of the generators it
    vanishes on, so a row's on-set identifies its face, and the face is
    a facet exactly when the on-set has rank d - 1 (d = rank of the
    generators); that rejects rows that support only a lower face.

    The rows that vanish on every generator are the span's equations:
    the cone's implicit equalities, so they span the orthogonal
    complement of the span.  The kernel of the on-generators stacked
    over those equations is therefore the set of vectors inside the
    span orthogonal to the on-set, of dimension d minus the on-set's
    rank.  It is one-dimensional exactly when the on-set has rank
    d - 1, so ``integer_kernel`` returning None is the rank test (it
    rejects the equations' own on-set, of rank d), and its primitive
    vector is the normal.  An on-set of zero generators alone is the
    apex: it is a facet only of a ray (d = 1), which counts none.
    """
    width = len(generators[0]) if generators else 0
    rows = _projection_rows(generators, width)
    on_sets = [tuple(i for i, g in enumerate(generators) if dot(row, g) == 0)
               for row in rows]
    equations = [row for row, on in zip(rows, on_sets)
                 if len(on) == len(generators)]
    found = []
    for on in set(on_sets):
        if not any(any(generators[i]) for i in on):  # the apex
            continue
        normal = integer_kernel([generators[i] for i in on] + equations, width)
        if normal is None:
            continue
        if all(dot(normal, g) <= 0 for g in generators):
            normal = tuple(-c for c in normal)
        found.append((normal, on))
    return tuple(sorted(found))


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


@lru_cache(maxsize=_CACHE_SIZE)
def _projection_rows(generators: tuple[tuple[int, ...], ...],
                     dimension: int) -> tuple[tuple[int, ...], ...]:
    """Rows r with: x in cone(generators) iff r . x >= 0 for every row."""
    q = len(generators)
    n = dimension
    # Equalities sum_i t_i g_i[v] - x_v = 0 over columns (t_0..t_{q-1}, x_0..x_{n-1}).
    equalities = []
    for v in range(n):
        row = [g[v] for g in generators] + [0] * n
        row[q + v] = -1
        equalities.append(row)
    reduced, pivots = integer_rref(equalities, q + n)

    outputs: set[tuple[int, ...]] = set()
    pivot_rows: dict[int, list[int]] = {}
    for row, piv in zip(reduced, pivots):
        if piv < q:
            pivot_rows[piv] = row
        else:
            # No multipliers left: an equality purely between coordinates.
            eq = primitive(row[q:])
            outputs.add(eq)
            outputs.add(tuple(-c for c in eq))
    free = [i for i in range(q) if i not in pivot_rows]
    rows: dict[tuple[int, ...], frozenset[int]] = {}
    for i in range(q):
        if i in pivot_rows:
            # t_i >= 0 with t_i substituted from its equality row, whose
            # pivot entry is positive.  Each equality has -1 in its own
            # coordinate column, so every reduced row, a nonzero
            # combination of them, has a nonzero coordinate part.
            src = pivot_rows[i]
            row = primitive([-src[j] for j in free] + [-c for c in src[q:]])
        else:
            row = tuple(int(j == i) for j in free) + (0,) * n
        if not any(row[:len(free)]):
            outputs.add(row[len(free):])
        elif row not in rows:
            rows[row] = frozenset([i])

    # A kept row is zero in every eliminated column and nonzero in a
    # later one, so no row is left after the last column.
    for col in range(len(free)):
        positive, negative, kept = [], [], {}
        for row, ancestors in rows.items():
            if row[col] > 0:
                positive.append((row, ancestors))
            elif row[col] < 0:
                negative.append((row, ancestors))
            else:
                kept[row] = ancestors
        built = len(kept)  # rows of this step's system, carried or combined
        for (prow, panc), (nrow, nanc) in itertools.product(positive, negative):
            ancestors = panc | nanc
            # Imbert's bound: wider ancestries are provably redundant.
            if len(ancestors) > col + 2:
                continue
            built += 1
            if built > _ROW_LIMIT:
                raise EnumerationGateError(
                    f"Fourier-Motzkin blowup: {built} rows built while "
                    f"eliminating multiplier {col + 1} of {len(free)}")
            combo = [prow[col] * b - nrow[col] * a for a, b in zip(prow, nrow)]
            # nonzero: kept rows r and -r make an equation, and equations have no t part
            row = primitive(combo)
            if not any(row[:len(free)]):
                outputs.add(row[len(free):])
            elif row not in kept or len(kept[row]) > len(ancestors):
                kept[row] = ancestors
        rows = kept
    return tuple(sorted(outputs))


def fm_membership(generators, x: Sequence[Rational]) -> bool:
    """Do nonnegative multipliers exist with ``sum_i t_i g_i = x``?

    Decided against the Fourier-Motzkin projection of the multiplier
    system; agrees with any nonnegative-combination certificate.
    """
    gens = _intake(generators, len(x))
    point = clear_denominators(x)  # before any elimination
    return _satisfies(_projection_rows(gens, len(x)), point)


def _satisfies(rows, point: Sequence[int]) -> bool:
    """Does the integer ``point`` meet ``r . x >= 0`` for every row?"""
    return all(dot(row, point) >= 0 for row in rows)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _point_battery(g: Graph, combinations: int, random_points: int, seed: int):
    points = [tuple(v) for v in edge_vectors(g)]
    rng = random.Random(seed)
    for _ in range(combinations):
        # coefficients a/b with b in 1..4, summed in twelfths
        twelfths = [0] * g.vertex_count
        for i, j in g.edges:
            weight = rng.randint(0, 6) * (12 // rng.randint(1, 4))
            twelfths[i] += weight
            twelfths[j] += weight
        points.append(tuple(Fraction(t, 12) for t in twelfths))
    for _ in range(random_points):
        points.append(tuple(
            Fraction(rng.randint(-4, 8), rng.randint(1, 3))
            for _ in range(g.vertex_count)))
    points.append((1,) * g.vertex_count)
    return points


def cross_validate(g: Graph) -> ValidationReport:
    """Run both computation paths against each other on one graph.

    Checks that (1) the rank-criterion facets and the brute-force facets
    coincide as generator sets, (2) the flow membership and the
    Fourier-Motzkin membership agree on edge vectors, random
    nonnegative combinations, random points and the all-ones vector, and
    (3) ``cone_dimension``'s component-count formula matches the rank.
    Failures are reported with a minimal witness, not raised.  The gate
    is the oracle's (edges, then vertices), checked before any other
    work; it is tighter than the vertex gate of ``facets``.  The
    generators are cleared and their Fourier-Motzkin rows fetched once;
    the oracle's facets and every point's verdict come from those rows,
    so a row missing from the projection shows as a facet mismatch.
    Each point is cleared once, and both paths judge the same integer
    point: a positive rescale keeps membership.
    """
    gens = _intake(edge_vectors(g), g.vertex_count)
    checks = []

    library_sets = frozenset(frozenset(f.generators_on) for f in facets(g))
    oracle_sets = frozenset(frozenset(on) for _, on in _facet_data(gens))
    if library_sets == oracle_sets:
        detail = f"{len(oracle_sets)} facets agree"
    else:
        missing = oracle_sets - library_sets
        extra = library_sets - oracle_sets
        detail = (f"facet mismatch: oracle-only {sorted(map(sorted, missing))}, "
                  f"library-only {sorted(map(sorted, extra))}")
    checks.append(Check("facets", library_sets == oracle_sets, detail))

    rows = _projection_rows(gens, g.vertex_count)
    disagreement = None
    tested = 0
    for point in _point_battery(g, _COMBINATIONS, _RANDOM_POINTS, _SEED):
        tested += 1
        cleared = clear_denominators(point)
        lib = membership(g, cleared).is_member
        orc = _satisfies(rows, cleared)
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
    rank = rational_rank(gens)
    checks.append(Check(
        "dimension", formula == rank,
        f"vertex count minus bipartite components = {formula}, rank = {rank}"))
    return ValidationReport(tuple(checks))
