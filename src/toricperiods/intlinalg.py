"""Exact linear algebra over Z: lattice maps and the Smith form.

Vectors are tuples of ints, matrices are tuples of row tuples.  Everything
runs on unbounded Python integers; no floats appear anywhere.  The run reads
every rank, index, invariant, saturation, kernel and coordinate off one
Smith form per matrix.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import mul

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def vec(xs) -> Vector:
    out = []
    for x in xs:
        i = int(x)
        if i != x:
            raise ValueError(f"non-integer entry {x!r} in lattice vector")
        out.append(i)
    return tuple(out)


def mat(rows) -> Matrix:
    return tuple(vec(r) for r in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def dot(a: Vector, b: Vector) -> int:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def sub_vec(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def scale_vec(c: int, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def neg_vec(a: Vector) -> Vector:
    return tuple(-x for x in a)


def mat_vec_mul(a: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def primitive(v: Vector) -> Vector:
    """v divided by the gcd of its entries; the zero vector stays zero."""
    g = gcd(*v)
    if g <= 1:
        return vec(v)
    return tuple(x // g for x in v)


class LatticeMap(namedtuple("LatticeMap", "source_rank target_rank matrix")):
    """Homomorphism of free abelian groups Z^source_rank -> Z^target_rank.

    Columns of `matrix` are the images of the source basis vectors.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.matrix) != self.target_rank:
            raise ValueError("row count does not match target rank")
        if any(len(row) != self.source_rank for row in self.matrix):
            raise ValueError("column count does not match source rank")
        return self

    @staticmethod
    def from_columns(columns, target_rank: int) -> "LatticeMap":
        cols = [vec(c) for c in columns]
        rows = tuple(tuple(c[i] for c in cols) for i in range(target_rank))
        return LatticeMap(len(cols), target_rank, rows)

    def apply(self, v: Vector) -> Vector:
        return mat_vec_mul(self.matrix, vec(v))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.matrix)


class SmithDecomposition(namedtuple(
        "SmithDecomposition",
        "left diag right left_inverse rows cols")):
    """left @ original @ right == diag, with left/right unimodular.

    The diagonal d_1 | d_2 | ... consists of the elementary divisors
    (nonnegative, with the divisibility chain); the rank is the number of
    nonzero ones and, for a square matrix, the index of the column span
    is their product (zero when the span is not of full rank).  The
    first rank columns of left_inverse are a basis of the saturated
    column span, and left carries that span onto the first rank
    coordinates; right reads off kernels.
    """

    __slots__ = ()

    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)


def smith_normal_form(m) -> SmithDecomposition:
    """Smith normal form of an arbitrary integer matrix.

    Repeatedly moves a smallest nonzero entry of the working submatrix to
    the pivot, clears its row and column with exact row/column operations,
    and restarts whenever a division leaves a remainder (the pivot then
    strictly shrinks, so this terminates).  A final sweep enforces the
    divisibility chain by folding any offending entry into the pivot.
    """
    m = mat(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(r) for r in m]
    left = [list(r) for r in identity_matrix(rows)]
    left_inv = [list(r) for r in identity_matrix(rows)]
    right = [list(r) for r in identity_matrix(cols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        left[i], left[j] = left[j], left[i]
        for r in left_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src; inverse op on left_inv columns.
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        left[dst] = [x + c * y for x, y in zip(left[dst], left[src])]
        for r in left_inv:
            r[src] -= c * r[dst]

    def add_col(src, dst, c):
        for r in d:
            r[dst] += c * r[src]
        for r in right:
            r[dst] += c * r[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        left[i] = [-x for x in left[i]]
        for r in left_inv:
            r[i] = -r[i]

    t = 0
    while t < min(rows, cols):
        # Locate a smallest-magnitude nonzero entry in the trailing block.
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best != (t, t):
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Pivot must divide every remaining entry; if not, fold the bad row in.
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    diag = tuple(d[i][i] for i in range(min(rows, cols)))
    return SmithDecomposition(
        left=mat(left), diag=diag, right=mat(right),
        left_inverse=mat(left_inv), rows=rows, cols=cols)

