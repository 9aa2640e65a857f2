"""Exact rational linear algebra on small dense matrices, and the
package's checks on exact input.

An exact integer is a value whose type is ``int`` (``is_int``): bools
and other ``int`` subclasses fail that rule, so ``True`` is never read
as 1.  Exact rationals are exact integers or ``fractions.Fraction``; no
floating point is used anywhere in the package.  Rational vectors enter
through ``clear_denominators``, which also checks their length, and
become integers there; ``integer_vector`` holds integer vectors to the
integer rule and the same length check.  So the one elimination
routine, ``integer_rref``, runs on integers alone.  The library computes ranks from graph combinatorics;
elimination here serves the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

Rational = int | Fraction


def dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def is_int(c) -> bool:
    """The one exact-integer rule: the type is ``int`` itself, so bools
    and ``IntEnum`` members fail."""
    return type(c) is int


def all_int(x: Iterable) -> bool:
    """``is_int`` of every entry, read off the set of entry types."""
    return {*map(type, x)} <= {int}


def clear_denominators(x: Sequence[Rational],
                       length: int | None = None) -> tuple[int, ...]:
    """Positive rescale to integers, the one exact-input gate.

    Callers ask only what a positive rescale keeps: a direction, a rank,
    membership in a cone or the cone a generator spans.  Only exact
    integers and ``Fraction`` entries are exact: floats, bools and
    strings are rejected, not converted.  Given ``length``, a vector of
    another length is rejected first.
    """
    if length is not None and len(x) != length:
        raise ValueError(f"vector has dimension {len(x)}, expected {length}")
    if all_int(x):
        return tuple(x)
    for c in x:
        if not is_int(c) and type(c) is not Fraction:
            raise ValueError(
                f"coordinates must be int or Fraction, got {type(c).__name__} {c!r}")
    scale = math.lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (scale // c.denominator) for c in x)


def integer_vector(x: Sequence[int], length: int | None = None) -> tuple[int, ...]:
    """``x`` as a tuple, with every entry an exact integer (a
    ``Fraction`` is refused even when its denominator is 1) and, given
    ``length``, ``clear_denominators``'s length check."""
    for c in x:
        if not is_int(c):
            raise ValueError(f"expected integer entries, got {c!r}")
    return clear_denominators(x, length)


def primitive(vector: Sequence[Rational]) -> tuple[int, ...]:
    """Smallest integer vector with the same direction.

    The result has coprime nonzero entries and keeps the sign of the
    input (no orientation flip).  An ``int`` vector needs only its gcd;
    any other goes through ``clear_denominators`` first.
    """
    if not any(vector):
        raise ValueError("zero vector has no primitive form")
    ints = vector if all_int(vector) else clear_denominators(vector)
    g = math.gcd(*ints)
    return tuple(ints) if g == 1 else tuple(c // g for c in ints)


def is_primitive(vector: Sequence[Rational]) -> bool:
    """Whether ``vector`` is nonzero and equals its ``primitive`` form.
    A vector of exact integers needs only its gcd."""
    if all_int(vector):
        return math.gcd(*vector) == 1
    return any(vector) and tuple(vector) == primitive(vector)


def integer_rref(rows: Sequence[Sequence[int]],
                 ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of an ``ncols``-column integer matrix,
    kept on integers: the nonzero rows and their pivot columns.

    Fraction-free Gauss-Jordan (Bareiss 1968): each row combination
    ``p * row - f * lead`` is divided by its gcd, so entries stay small
    integers.  Zero rows are dropped, and every returned row is a
    positive integer multiple of the true reduced row (its pivot is
    positive and every other pivot column is zero).
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
    for k, col in enumerate(pivots):
        if mat[k][col] < 0:
            mat[k] = [-c for c in mat[k]]
    return mat[:len(pivots)], pivots


def rational_rank(vectors: Sequence[Sequence[Rational]]) -> int:
    """Rank over the rationals via exact fraction-free elimination."""
    vecs = list(vectors)
    ncols = len(vecs[0]) if vecs else 0
    return len(integer_rref([clear_denominators(v, ncols) for v in vecs], ncols)[1])


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...] | None:
    """Primitive integer vector spanning the right kernel {x : A x = 0} of
    an ``ncols``-column integer matrix, or None when that kernel is not
    one-dimensional.  The sign of the result is unspecified.
    """
    mat, pivots = integer_rref(rows, ncols)
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
