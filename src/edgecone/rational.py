"""Exact rational linear algebra on small dense matrices.

Everything here works over ``int`` and ``fractions.Fraction`` only; no
floating point is used anywhere in the package.  The library computes
ranks from graph combinatorics; elimination here serves the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Rational = int | Fraction


def dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def primitive(vector: Sequence[Rational]) -> tuple[int, ...]:
    """Smallest integer vector with the same direction.

    The result has coprime nonzero entries and keeps the sign of the
    input (no orientation flip).  An ``int`` vector needs only its gcd;
    any other entry makes every entry go through ``Fraction``.
    """
    if not any(vector):
        raise ValueError("zero vector has no primitive form")
    if all(type(c) is int for c in vector):
        ints = vector
    else:
        scale = math.lcm(*(Fraction(c).denominator for c in vector))
        ints = [int(c * scale) for c in vector]
    g = math.gcd(*ints)
    return tuple(ints) if g == 1 else tuple(c // g for c in ints)


def is_primitive(vector: Sequence[Rational]) -> bool:
    return any(vector) and tuple(vector) == primitive(vector)


def _integer_rows(vectors: Sequence[Sequence[Rational]]) -> list[list[int]]:
    """Clear denominators row by row (rank-preserving), dropping zero rows."""
    rows = []
    for v in vectors:
        if any(v):
            if all(type(c) is int for c in v):
                rows.append(list(v))
            else:
                scale = math.lcm(*(Fraction(c).denominator for c in v))
                rows.append([int(c * scale) for c in v])
    return rows


def rational_rank(vectors: Sequence[Sequence[Rational]]) -> int:
    """Rank over the rationals via exact fraction-free elimination."""
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return 0
    ncols = len(vecs[0])
    for v in vecs:
        if len(v) != ncols:
            raise ValueError(f"dimension mismatch: {len(v)} vs {ncols}")
    rows = _integer_rows(vecs)

    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                p = lead[col]
                new = [p * a - f * b for a, b in zip(rows[i], lead)]
                g = math.gcd(*new)
                rows[i] = [c // g for c in new] if g > 1 else new
        rank += 1
        col += 1
    return rank


def rref(rows: Sequence[Sequence[Rational]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (leading coefficient 1, pivot columns
    cleared elsewhere) and the list of pivot column indices.
    """
    mat = [[Fraction(c) for c in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [c * inv for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...] | None:
    """Primitive integer vector spanning the right kernel {x : A x = 0} of
    an ``ncols``-column integer matrix, or None when that kernel is not
    one-dimensional.

    Fraction-free Gauss-Jordan: each row combination ``p * row - f * lead``
    is divided by its gcd, so entries stay small integers.  The sign of
    the result is unspecified.
    """
    mat = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r]
        p = lead[col]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != r and f:
                new = [p * a - f * b for a, b in zip(mat[i], lead)]
                g = math.gcd(*new)
                mat[i] = [c // g for c in new] if g > 1 else new
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    if ncols - len(pivots) != 1:
        return None
    (free,) = set(range(ncols)).difference(pivots)
    # row k reads mat[k][pivot] * x[pivot] + mat[k][free] * x[free] = 0
    scale = math.lcm(*(mat[k][piv] for k, piv in enumerate(pivots)))
    vec = [0] * ncols
    vec[free] = scale
    for k, piv in enumerate(pivots):
        vec[piv] = -mat[k][free] * (scale // mat[k][piv])
    return primitive(vec)
