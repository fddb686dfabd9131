"""Exact linear algebra over Z: Smith form, saturations, quotients, kernels.

Vectors are tuples of ints, matrices are tuples of row tuples.  Everything
runs on unbounded Python integers; no floats appear anywhere.  The run reads
every invariant off one Smith form; `determinant`, `lattice_index`,
`solve_integer`, `mat_mul`, `saturate_sublattice` and `annihilator_basis`
are the tests' independent oracles for it.
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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec_mul(a: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def content(v: Vector) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v: Vector) -> Vector:
    """v divided by the gcd of its entries; the zero vector stays zero."""
    g = content(v)
    if g <= 1:
        return vec(v)
    return tuple(x // g for x in v)


def determinant(m: Matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    def identity(n: int) -> "LatticeMap":
        return LatticeMap(n, n, identity_matrix(n))

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

    def diagonal_matrix(self) -> Matrix:
        return tuple(tuple(self.diag[i] if i == j and i < len(self.diag) else 0
                           for j in range(self.cols)) for i in range(self.rows))

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


def _columns_matrix(vectors, n: int) -> Matrix:
    return tuple(tuple(v[i] for v in vectors) for i in range(n))


def hermite_column_basis(vectors, n: int) -> list[Vector]:
    """Canonical (column-Hermite) basis of the lattice spanned by vectors.

    Pivot entries are positive, entries left of a pivot in its row are
    reduced to [0, pivot).  Used so that equal sublattices always print the
    same basis.
    """
    cols = [list(vec(v)) for v in vectors if any(v)]
    pivots = []
    row = 0
    j = 0
    while row < n and j < len(cols):
        k = next((i for i in range(j, len(cols)) if cols[i][row] != 0), None)
        if k is None:
            row += 1
            continue
        cols[j], cols[k] = cols[k], cols[j]
        for i in range(j + 1, len(cols)):
            while cols[i][row] != 0:
                q = cols[i][row] // cols[j][row]
                cols[i] = [a - q * b for a, b in zip(cols[i], cols[j])]
                if cols[i][row] != 0:
                    cols[i], cols[j] = cols[j], cols[i]
        if cols[j][row] < 0:
            cols[j] = [-a for a in cols[j]]
        pivots.append((row, j))
        row += 1
        j += 1
    cols = cols[:j]
    # Top-down: a reduction at pivot row r only changes rows >= r, so
    # entries already normalised at earlier pivot rows stay normalised.
    for row, jj in pivots:
        for i in range(jj):
            q = cols[i][row] // cols[jj][row]
            if q:
                cols[i] = [a - q * b for a, b in zip(cols[i], cols[jj])]
    return [tuple(c) for c in cols]


def saturate_sublattice(gens, ambient_rank: int) -> list[Vector]:
    """Basis of the saturation (Q-span intersected with Z^n) of span(gens)."""
    gens = [vec(g) for g in gens]
    for g in gens:
        if len(g) != ambient_rank:
            raise ValueError("generator has wrong length")
    gens = [g for g in gens if any(g)]
    if not gens:
        return []
    snf = smith_normal_form(_columns_matrix(gens, ambient_rank))
    r = snf.rank()
    # span(gens) = Linv D Rinv-image, so the first r columns of Linv give a
    # basis of the saturation (they are part of a basis of Z^n).
    basis = [tuple(row[j] for row in snf.left_inverse) for j in range(r)]
    return hermite_column_basis(basis, ambient_rank)


def kernel_basis(m) -> list[Vector]:
    """Basis (saturated) of the integer kernel {x : m @ x = 0}."""
    m = mat(m)
    if not m:
        raise ValueError("kernel of a matrix with no rows is ambiguous; pass identity constraints")
    snf = smith_normal_form(m)
    r = snf.rank()
    basis = [tuple(row[j] for row in snf.right) for j in range(r, snf.cols)]
    return hermite_column_basis(basis, snf.cols)


def annihilator_basis(vectors, n: int) -> list[Vector]:
    """Basis of {x in Z^n : <x, v> = 0 for all v}; all of Z^n when vectors is empty."""
    vs = [vec(v) for v in vectors if any(v)]
    if not vs:
        return [tuple(row) for row in identity_matrix(n)]
    return kernel_basis(tuple(vs))


class QuotientData(namedtuple(
        "QuotientData",
        "ambient_rank free_projection section torsion_invariants torsion_rows")):
    """Presentation of Z^n / span(sub_basis).

    free_projection maps onto the free part; section is a right inverse of
    it (projection o section = identity).  torsion_invariants lists the
    invariant factors > 1; torsion_rows paired with them read off the
    torsion classes of a vector.
    """

    __slots__ = ()

    @property
    def free_rank(self) -> int:
        return self.free_projection.target_rank

    def project(self, v: Vector) -> Vector:
        return self.free_projection.apply(v)

    def torsion_classes(self, v: Vector) -> tuple[int, ...]:
        return tuple(dot(row, vec(v)) % inv
                     for row, inv in zip(self.torsion_rows, self.torsion_invariants))

    def in_sublattice(self, v: Vector) -> bool:
        return (not any(self.project(v))) and (not any(self.torsion_classes(v)))


def quotient_lattice(ambient_rank: int, sub_basis) -> QuotientData:
    """Quotient of Z^n by the span of sub_basis, split into free and torsion parts."""
    subs = [vec(v) for v in sub_basis]
    for v in subs:
        if len(v) != ambient_rank:
            raise ValueError("sublattice vector has wrong length")
    subs = [v for v in subs if any(v)]
    if not subs:
        return QuotientData(
            ambient_rank=ambient_rank,
            free_projection=LatticeMap.identity(ambient_rank),
            section=LatticeMap.identity(ambient_rank),
            torsion_invariants=(),
            torsion_rows=())
    snf = smith_normal_form(_columns_matrix(subs, ambient_rank))
    r = snf.rank()
    free_idx = list(range(r, ambient_rank))
    tors_idx = [i for i in range(r) if snf.diag[i] > 1]
    proj_rows = tuple(snf.left[i] for i in free_idx)
    section_cols = [tuple(row[j] for row in snf.left_inverse) for j in free_idx]
    return QuotientData(
        ambient_rank=ambient_rank,
        free_projection=LatticeMap(ambient_rank, len(free_idx), proj_rows),
        section=LatticeMap.from_columns(section_cols, ambient_rank),
        torsion_invariants=tuple(snf.diag[i] for i in tors_idx),
        torsion_rows=tuple(snf.left[i] for i in tors_idx))


def lattice_index(sub: LatticeMap) -> int | None:
    """Index of the image of `sub` in its target; None when infinite."""
    if sub.source_rank != sub.target_rank:
        snf = smith_normal_form(sub.matrix)
        if snf.rank() < sub.target_rank:
            return None
        idx = 1
        for d in snf.diag:
            if d:
                idx *= d
        return idx
    det = determinant(sub.matrix)
    return abs(det) if det else None


def solve_integer(columns, target: Vector) -> Vector | None:
    """Integer coordinates of `target` in the given columns, or None.

    Solves sum_j x_j * columns[j] = target exactly via Smith form.
    """
    cols = [vec(c) for c in columns]
    n = len(target)
    if not cols:
        return () if not any(target) else None
    a = _columns_matrix(cols, n)
    snf = smith_normal_form(a)
    y = mat_vec_mul(snf.left, vec(target))
    x_mid = []
    for i in range(snf.cols):
        di = snf.diag[i] if i < len(snf.diag) else 0
        yi = y[i] if i < len(y) else 0
        if di == 0:
            if i < len(y) and yi != 0:
                return None
            x_mid.append(0)
        else:
            if yi % di != 0:
                return None
            x_mid.append(yi // di)
    if any(y[i] != 0 for i in range(snf.cols, len(y))):
        return None
    return mat_vec_mul(snf.right, tuple(x_mid))
