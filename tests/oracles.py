"""Oracles the tests compare the package against, and shared random inputs; src/ never calls them.

pytest puts this directory on sys.path and, having no tests to find here,
does not collect it.  `log` and `exp` run one series through the packed
kernel that `periods.euler_product` uses only as a whole.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, lcm

from toricperiods.characters import character_from_spec
from toricperiods.cones import NotStronglyConvex, faces, image_cone, make_cone
from toricperiods.curve import Curve, place_counts
from toricperiods.cyclotomic import Cyc, _canonical
from toricperiods.intlinalg import (
    LatticeMap, Matrix, Vector, dot, identity_matrix, mat, mat_vec_mul,
    smith_normal_form, vec)
from toricperiods.regularization import (
    VANISHED_CUSPIDALITY, VANISHED_DOMINATED, VANISHED_NOT_FIXED, VANISHED_TRIVIALITY)
from toricperiods.series import EXACT, TruncatedSeries, _RowPacking, _zp_add_term


def from_integers(order: int, nums, den: int = 1) -> Cyc:
    """The element sum_k nums[k] zeta^k / den, brought to canonical form.

    Refuses a zero denominator and a coordinate count other than the
    degree of Q(zeta_order).
    """
    nums = tuple(int(x) for x in nums)
    den = int(den)
    if len(nums) != Cyc.degree(order):
        raise ValueError(f"Q(zeta_{order}) needs {Cyc.degree(order)} coordinates, "
                         f"got {len(nums)}")
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        nums, den = tuple(-x for x in nums), -den
    return _canonical(order, nums, den)


def cyc(order: int, coeffs) -> Cyc:
    """The element of Q(zeta_order) with the given rational power-basis coordinates."""
    fracs = [Fraction(c) for c in coeffs]
    den = lcm(*(f.denominator for f in fracs))
    return from_integers(order, [f.numerator * (den // f.denominator) for f in fracs], den)


def _columns_matrix(vectors, n: int) -> Matrix:
    return tuple(tuple(v[i] for v in vectors) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


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


def diagonal_matrix(snf) -> Matrix:
    """D in left @ m @ right == D: the Smith diagonal of snf, zeros elsewhere."""
    return tuple(tuple(snf.diag[i] if i == j else 0 for j in range(snf.cols))
                 for i in range(snf.rows))


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


class QuotientData(namedtuple(
        "QuotientData", "free_projection section torsion_invariants")):
    """Presentation of Z^n / span(sub_basis).

    free_projection maps Z^n onto the free part; section is a right
    inverse of it (projection o section = identity).  torsion_invariants
    lists the invariant factors > 1, empty exactly when the span is
    saturated.
    """

    __slots__ = ()


def quotient_lattice(ambient_rank: int, sub_basis) -> QuotientData:
    """Quotient of Z^n by the span of sub_basis, split into free and torsion parts."""
    subs = [vec(v) for v in sub_basis]
    for v in subs:
        if len(v) != ambient_rank:
            raise ValueError("sublattice vector has wrong length")
    subs = [v for v in subs if any(v)]
    if not subs:
        identity = LatticeMap(ambient_rank, ambient_rank, identity_matrix(ambient_rank))
        return QuotientData(free_projection=identity, section=identity, torsion_invariants=())
    snf = smith_normal_form(_columns_matrix(subs, ambient_rank))
    r = snf.rank()
    free_idx = list(range(r, ambient_rank))
    proj_rows = tuple(snf.left[i] for i in free_idx)
    section_cols = [tuple(row[j] for row in snf.left_inverse) for j in free_idx]
    return QuotientData(
        free_projection=LatticeMap(ambient_rank, len(free_idx), proj_rows),
        section=LatticeMap.from_columns(section_cols, ambient_rank),
        torsion_invariants=tuple(d for d in snf.diag[:r] if d > 1))


def dim(cone) -> int:
    """Dimension of a cone: the length of its saturated span."""
    return len(saturate_sublattice(cone.rays, cone.ambient_rank))


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


def face_ray_sets_by_facet_subsets(c) -> set:
    """The ray sets of the faces of c, one per subset of its facets: 2^facets intersections.

    The reference for `cones.faces`, which closes the full ray set under
    intersection with each facet's rays instead.
    """
    return {frozenset(r for r in c.rays if all(dot(f, r) == 0 for f in sel))
            for k in range(len(c.facets) + 1)
            for sel in combinations(c.facets, k)}


def closure_cuspidality_witness(cone, psi):
    """First face with nontrivial proper stabilizer that psi kills, or None.

    The stabilizer of a face is its saturated span; the faces tested are
    those whose span is neither zero nor the ambient lattice.  Applied to
    an orbit closure cone with the descended character, the reference for
    the orbit check's cuspidality test on the cone's own stabilized faces.
    """
    lattice = faces(cone)
    for i, face in enumerate(lattice.faces):
        span = lattice.span(i)
        if 0 < len(span) < cone.ambient_rank and psi.is_trivial_on_all(span):
            return face
    return None


def automorphic_support(cone, psi, i):
    """Why the orbit of faces(cone).faces[i] vanishes on the automorphic side, or None.

    The reference: the span test, then cuspidality on the face lattice of
    the orbit closure cone, with psi descended along the section.
    """
    lattice = faces(cone)
    if not psi.is_trivial_on_all(lattice.span(i)):
        return VANISHED_TRIVIALITY
    projection, section = lattice.span_quotient(i)
    closure = image_cone(cone, projection)
    if closure_cuspidality_witness(closure, psi.compose(section)) is not None:
        return VANISHED_CUSPIDALITY
    return None


def spectral_support(cone, psi, i):
    """Why the orbit of faces(cone).faces[i] vanishes on the spectral side, or None.

    The reference: the annihilator test, then a rescan of every face for
    a smaller one that psi also fixes.
    """
    lattice = faces(cone)
    if not psi.is_trivial_on_all(lattice.annihilator(i)):
        return VANISHED_NOT_FIXED
    rays = lattice.faces[i].ray_set()
    if any(other.ray_set() < rays and psi.is_trivial_on_all(lattice.annihilator(j))
           for j, other in enumerate(lattice.faces)):
        return VANISHED_DOMINATED
    return None


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a + b, exact to the smaller trunc: the general sum, which the package no longer forms."""
    a._require_compatible(b)
    trunc = min(a.trunc, b.trunc)
    data: dict = {}
    for series in (a, b):
        for u, terms in series.coeffs:
            if u <= trunc:
                for z, c in terms:
                    _zp_add_term(data.setdefault(u, {}), z, c)
    return TruncatedSeries.from_dict(data, a.nvars, a.order, trunc)


def from_monomials(monomials, nvars: int, order: int, trunc: int) -> TruncatedSeries:
    """1 plus the sum of the monomials, exact to trunc: a local factor built term by term.

    One `Cyc.root_power` and one `Cyc` sum per monomial, the reference for
    `TruncatedSeries.from_keys`.
    """
    data = {0: {(0,) * nvars: Cyc.one(order)}}
    for mon in monomials:
        _zp_add_term(data.setdefault(mon.u, {}), mon.z, Cyc.root_power(mon.zeta, order))
    return TruncatedSeries.from_dict(data, nvars, order, trunc)


def lift_periods_per_lift(period, datum, curve, lifts, order) -> list:
    """One period per lift, each computed: summed, the reference for `stacks.lift_sum`."""
    return [period(datum, curve, lift, order) for lift in lifts]


def in_cone(rays, v) -> bool:
    """Whether v is a nonnegative rational combination of the rays.

    By Caratheodory's theorem it is exactly when some linearly independent
    subset of the rays writes v with nonnegative coefficients; each subset
    is solved by Gauss-Jordan elimination over Fractions.
    """
    if not any(v):
        return True
    rays = [r for r in rays if any(r)]
    for k in range(1, min(len(rays), len(v)) + 1):
        for subset in combinations(rays, k):
            coeffs = _independent_coordinates(subset, v)
            if coeffs is not None and min(coeffs) >= 0:
                return True
    return False


def _independent_coordinates(columns, v):
    """The coefficients writing v in the columns; None if they are dependent or miss v."""
    k = len(columns)
    rows = [[Fraction(c[i]) for c in columns] + [Fraction(x)] for i, x in enumerate(v)]
    for j in range(k):
        pivot = next((r for r in range(j, len(rows)) if rows[r][j]), None)
        if pivot is None:
            return None
        rows[j], rows[pivot] = rows[pivot], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for r in range(len(rows)):
            if r != j and rows[r][j]:
                f = rows[r][j]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[j])]
    if any(row[k] for row in rows[k:]):
        return None
    return [row[k] for row in rows[:k]]


def random_generated_cone(rng, rank: int):
    """(generators, cone): a strongly convex cone on 1 to rank + 2 random generators with entries in [-3, 3]."""
    while True:
        k = rng.randint(1, rank + 2)
        rays = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(k)]
        if not any(any(r) for r in rays):
            continue
        try:
            return rays, make_cone(rays, rank)
        except NotStronglyConvex:
            continue


def random_cone(rng, rank: int):
    """The cone of random_generated_cone."""
    return random_generated_cone(rng, rank)[1]


def random_character(rng, rank: int, order: int = 4):
    """A character with a random root of unity and u-slope in [-2, 2] per coordinate."""
    return character_from_spec(
        [(rng.randrange(order), rng.randint(-2, 2)) for _ in range(rank)],
        order=order, nvars=rank)


def divisor_count_series(curve: Curve, order: int) -> TruncatedSeries:
    """Closed form: the t^m coefficient is (q^(m+1)-1)/(q-1), genus zero."""
    data = {m: {(): Cyc.rational((curve.q ** (m + 1) - 1) // (curve.q - 1), 1)}
            for m in range(order + 1)}
    return TruncatedSeries.from_dict(data, 0, 1, order)


def mobius(n: int) -> int:
    """The Mobius function, by trial division."""
    m, p, rest = 1, 2, n
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return 0
            m = -m
        p += 1
    return -m if rest > 1 else m


def mobius_place_counts(curve: Curve, cutoff: int) -> tuple[int, ...]:
    """Closed points of each degree up to cutoff: a_d = (1/d) sum_(e | d) mu(e) N_(d/e)."""
    return tuple(sum(mobius(e) * curve.point_count(d // e)
                     for e in range(1, d + 1) if d % e == 0) // d
                 for d in range(1, cutoff + 1))


def binary_powering_euler_product(local_factor, curve, order):
    """Oracle: prod over degrees d <= order of local_factor(d).power(a_d)."""
    top = max(order, 0)
    if top < 1:
        return local_factor(1).power(0)
    table = place_counts(curve, top)
    out = None
    for d in range(1, top + 1):
        piece = local_factor(d).power(table[d - 1])
        out = piece if out is None else out * piece
    return out


def _finite_trunc(series: TruncatedSeries, name: str) -> int:
    if series.trunc >= EXACT:
        raise ValueError(f"{name} needs a finite truncation order")
    return series.trunc


def log(series: TruncatedSeries) -> TruncatedSeries:
    """Logarithm of 1 + (terms at u > 0), exact to the same order (`_RowPacking.log_rows`)."""
    top = _finite_trunc(series, "log")
    pack = _RowPacking.spanning((series,), top)
    return pack.series(pack.log_rows(series, top), top)


def exp(series: TruncatedSeries) -> TruncatedSeries:
    """Exponential of terms at u > 0 only, exact to the same order (`_RowPacking.exp_rows`)."""
    top = _finite_trunc(series, "exp")
    if series.low is not None and series.low <= 0:
        raise ValueError("exp needs a series with terms at u > 0 only")
    pack = _RowPacking.spanning((series,), top)
    rows = {k: pack.pack(terms) for k, terms in series.coeffs if k <= top}
    return pack.series(pack.exp_rows(rows, top), top)


def weight_box(rays, weights, bound: int, n: int):
    """`periods._weight_box` over Fractions: per coordinate, the ceiling of the
    negative and the floor of the positive bound * r[j] / w_r summed over the rays."""
    lo = [Fraction(0)] * n
    hi = [Fraction(0)] * n
    for r, wr in zip(rays, weights):
        for j in range(n):
            t = Fraction(bound * r[j], wr)
            if t > 0:
                hi[j] += t
            else:
                lo[j] += t
    return [ceil(x) for x in lo], [floor(x) for x in hi]
