"""Rational polyhedral cones: dual descriptions, faces, Hilbert bases.

A cone is stored with both generators (primitive extreme rays) and an
outer description (primitive facet covectors); the two are tied together
by an incremental double-description computation, so equality of cones is
plain value equality of the canonical sorted data.  Each face keeps one
Smith transform, from which its span, its annihilator and both orbit
quotients are sliced.  `check_grading` is the one positivity check: a
level set, a Hilbert basis and every engine input go through it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import product
from operator import mul

from .intlinalg import (
    LatticeMap,
    Vector,
    dot,
    identity_matrix,
    neg_vec,
    primitive,
    scale_vec,
    smith_normal_form,
    sub_vec,
    transpose,
    vec,
)


class NotStronglyConvex(ValueError):
    """Raised when cone construction meets a full line."""

    def __init__(self, witness: Vector):
        self.witness = witness
        super().__init__(f"cone contains the line through {witness}")


class NotAFace(ValueError):
    pass


class NotPositiveGrading(ValueError):
    """Raised when a weight covector is not strictly positive on a ray of a cone.

    The weight is a grading, or the u-slopes of an engine's character;
    witness is the ray and value the weight there.
    """

    def __init__(self, witness: Vector, value: int):
        self.witness = witness
        self.value = value
        super().__init__(f"grading takes value {value} on ray {witness}")


def dual_description(vectors, n: int) -> tuple[list[Vector], list[Vector]]:
    """Lineality basis and extreme rays of {y : <v, y> >= 0 for all v}.

    Incremental double description.  The running cone is span(lineality)
    + cone(rays); each constraint either splits off a lineality generator
    or recombines adjacent positive/negative ray pairs.  Adjacency uses
    the combinatorial (zero-set inclusion) test, which is exact because
    the stored rays are extreme at every step.
    """
    lineality: list[Vector] = [tuple(row) for row in identity_matrix(n)]
    rays: list[Vector] = []
    zerosets: list[set[int]] = []
    for idx, a in enumerate(a for a in map(vec, vectors) if any(a)):
        pivots = [(l, dot(a, l)) for l in lineality]
        pivot = next(((l, s) for l, s in pivots if s != 0), None)
        if pivot is not None:
            l0, s0 = pivot
            if s0 < 0:
                l0, s0 = neg_vec(l0), -s0
            new_lin = []
            for l in lineality:
                s = dot(a, l)
                if l in (l0, neg_vec(l0)):
                    continue
                new_lin.append(primitive(sub_vec(scale_vec(s0, l), scale_vec(s, l0))))
            new_rays, new_zero = [], []
            for r, z in zip(rays, zerosets):
                s = dot(a, r)
                new_rays.append(primitive(sub_vec(scale_vec(s0, r), scale_vec(s, l0))))
                new_zero.append(z | {idx})
            new_rays.append(l0)
            new_zero.append(set(range(idx)))
            lineality, rays, zerosets = new_lin, new_rays, new_zero
            continue
        pos = [i for i, r in enumerate(rays) if dot(a, r) > 0]
        neg = [i for i, r in enumerate(rays) if dot(a, r) < 0]
        zero = [i for i, r in enumerate(rays) if dot(a, r) == 0]
        if not neg:
            for i in zero:
                zerosets[i].add(idx)
            continue
        combos = []
        for i in pos:
            for j in neg:
                meet = zerosets[i] & zerosets[j]
                adjacent = not any(k for k in range(len(rays))
                                   if k != i and k != j and meet <= zerosets[k])
                if not adjacent:
                    continue
                w = primitive(sub_vec(scale_vec(dot(a, rays[i]), rays[j]),
                                      scale_vec(dot(a, rays[j]), rays[i])))
                if any(w):
                    combos.append((w, meet | {idx}))
        keep_rays = [rays[i] for i in pos + zero]
        keep_zero = [zerosets[i] | ({idx} if i in zero else set()) for i in pos + zero]
        for w, z in combos:
            if w not in keep_rays:
                keep_rays.append(w)
                keep_zero.append(z)
        rays, zerosets = keep_rays, keep_zero
    return lineality, rays


def _canonical(vectors) -> tuple[Vector, ...]:
    return tuple(sorted(set(vectors)))


class Cone(namedtuple(
        "Cone", "ambient_rank rays facets strongly_convex full_dimensional")):
    """Rational polyhedral cone with matched inner and outer descriptions.

    rays generate the cone; facets cut it out: cone = {x : <f, x> >= 0 for
    every facet covector f}.  Cones that are not full-dimensional carry
    the +/- pair of each covector vanishing on their span inside facets,
    and non-strongly-convex cones (only ever produced as duals or images)
    carry +/- ray pairs for their lines.
    """

    __slots__ = ()

    def contains(self, v) -> bool:
        v = vec(v)
        return all(dot(f, v) >= 0 for f in self.facets)

    def ray_set(self) -> frozenset:
        return frozenset(self.rays)


def _facets(gens, n: int) -> tuple[list[Vector], bool]:
    """Facet covectors of cone(gens) and whether it is full-dimensional.

    A cone that is not full-dimensional gets the +/- pair of each
    covector vanishing on its span.
    """
    lin, dual_rays = dual_description(gens, n)
    facets = list(dual_rays)
    for l in lin:
        facets.extend((l, neg_vec(l)))
    return facets, not lin


def _build_cone(generators, n: int, allow_lines: bool) -> Cone:
    gens = [primitive(vec(g)) for g in generators]
    gens = [g for g in gens if any(g)]
    facets, full_dimensional = _facets(gens, n)
    lin_r, rays = dual_description(facets, n)
    if lin_r and not allow_lines:
        raise NotStronglyConvex(lin_r[0])
    all_rays = list(rays)
    for l in lin_r:
        all_rays.extend((l, neg_vec(l)))
    return Cone(
        ambient_rank=n,
        rays=_canonical(all_rays),
        facets=_canonical(facets),
        strongly_convex=not lin_r,
        full_dimensional=full_dimensional)


def make_cone(rays, ambient_rank: int | None = None) -> Cone:
    """Cone generated by the given integer vectors; empty list gives {0}.

    Raises NotStronglyConvex (with a witness line) if the generators span
    a line inside the cone.
    """
    rays = [vec(r) for r in rays]
    if ambient_rank is None:
        if not rays:
            raise ValueError("ambient_rank required for the zero cone")
        ambient_rank = len(rays[0])
    for r in rays:
        if len(r) != ambient_rank:
            raise ValueError("ray has wrong length")
    return _build_cone(rays, ambient_rank, allow_lines=False)


def dual_cone(c: Cone) -> Cone:
    """{x : <x, r> >= 0 for all rays r of c}; exact involution on stored data."""
    return Cone(
        ambient_rank=c.ambient_rank,
        rays=c.facets,
        facets=c.rays,
        strongly_convex=c.full_dimensional,
        full_dimensional=c.strongly_convex)


class FaceLattice(namedtuple("FaceLattice", "faces transforms")):
    """The faces of a cone with the Smith transform of each face.

    transforms[i] is (dim, left, left_inverse) for faces[i]: the saturated
    span of the face (the stabilizer of its orbit), its annihilator (the
    character lattice of the orbit) and both orbit quotients are slices
    of it.  Both run parallel, so the face count is len(faces).
    """

    __slots__ = ()

    def index(self, rays) -> int:
        """Position of the face with exactly these rays; NotAFace if none."""
        key = _canonical(vec(r) for r in rays)
        for i, face in enumerate(self.faces):
            if face.rays == key:
                return i
        raise NotAFace(f"rays {list(key)} do not generate a face")

    def span(self, i: int) -> tuple[Vector, ...]:
        """A basis of the saturated span of faces[i]: the first dim columns of left_inverse."""
        dim, _, left_inverse = self.transforms[i]
        return transpose(left_inverse)[:dim]

    def annihilator(self, i: int) -> tuple[Vector, ...]:
        """A basis of the covectors vanishing on faces[i]: the rows of left past dim."""
        dim, left, _ = self.transforms[i]
        return left[dim:]

    def span_quotient(self, i: int) -> tuple[LatticeMap, LatticeMap]:
        """(projection, section) presenting N / span(i), where the orbit closure lives.

        The annihilator projects and the columns of left_inverse past dim
        are the section, so projection o section is the identity.
        """
        dim, left, left_inverse = self.transforms[i]
        n = len(left)
        return (LatticeMap(n, n - dim, self.annihilator(i)),
                LatticeMap(n - dim, n, tuple(row[dim:] for row in left_inverse)))

    def annihilator_quotient(self, i: int) -> tuple[LatticeMap, LatticeMap]:
        """(projection, section) presenting M / annihilator(i), onto which the character monoid maps.

        The span projects and the first dim rows of left are the section,
        so projection o section is the identity.
        """
        dim, left, _ = self.transforms[i]
        n = len(left)
        return (LatticeMap(n, dim, self.span(i)),
                LatticeMap.from_columns(left[:dim], n))


@lru_cache(maxsize=None)
def faces(c: Cone) -> FaceLattice:
    """All faces of a strongly convex cone, as cones in the same ambient space.

    Every face is the intersection of the facet hyperplanes it saturates,
    so the ray sets of the faces are the closure of the full ray set
    under intersection with each facet's rays; it includes {0} and the
    cone itself.  Each round intersects only the sets the last one
    found, so this costs faces x facets intersections, not the 2^facets
    of enumerating facet subsets.  The rays of a face are primitive
    extreme rays of c, so one double description, rays to facets,
    builds it.  One Smith form of its ray columns gives the rest, and
    the lattice keeps only its transform (dim, left, left_inverse): dim
    is the face's dimension, the first dim columns of left_inverse span
    its saturation and the rows of left past dim its annihilator
    (`FaceLattice.span` and `annihilator`), and the same slices present
    both orbit quotients (`FaceLattice.span_quotient` and
    `annihilator_quotient`).  The zero face and a full-dimensional face
    take identity transforms (any basis of Z^n presents {0} and Z^n), so
    the dense orbit's quotient is the cone's own lattice and its Euler
    products are the full period's.
    """
    if not c.strongly_convex:
        raise ValueError("face lattice requires a strongly convex cone")
    facet_rays = [frozenset(r for r in c.rays if dot(f, r) == 0) for f in c.facets]
    ray_subsets = set()
    new = {frozenset(c.rays)}
    while new:
        ray_subsets |= new
        new = {rs & fr for rs in new for fr in facet_rays} - ray_subsets
    n = c.ambient_rank
    built = []
    for rs in ray_subsets:
        rays = _canonical(rs)
        facets, full_dimensional = _facets(rays, n)
        face = Cone(n, rays, _canonical(facets), True, full_dimensional)
        if rays and not full_dimensional:
            snf = smith_normal_form(transpose(rays))
            dim, left, left_inverse = snf.rank(), snf.left, snf.left_inverse
        else:
            dim, left = (n if full_dimensional else 0), identity_matrix(n)
            left_inverse = left
        built.append((dim, rays, face, (dim, left, left_inverse)))
    built.sort(key=lambda b: b[:2])
    _, _, *fields = zip(*built)
    return FaceLattice(*fields)


def face_of(c: Cone, ray_subset) -> Cone:
    """The face of c whose rays are exactly the given ones; NotAFace if none."""
    lattice = faces(c)
    return lattice.faces[lattice.index(ray_subset)]


def face_dual(tau: Cone, sigma: Cone) -> Cone:
    """The face tau* = {y in dual : <y, tau> = 0} of the dual cone.

    sigma is full-dimensional and strongly convex, so tau* is the face of
    the dual cone whose rays are the facets of sigma vanishing on tau.
    """
    faces(sigma).index(tau.rays)  # NotAFace unless tau is a face of sigma
    return face_of(dual_cone(sigma), [f for f in sigma.facets
                                      if all(dot(f, r) == 0 for r in tau.rays)])


def _level_box(rays, weights, m: int, n: int):
    """Per-coordinate bounds for {sum a_i r_i : a_i >= 0, sum a_i w_i <= m}.

    Coordinate j is bounded by the sums of m * r_j / w_i over the rays
    with r_j of one sign, taken over the common denominator lcm(w_i) so
    that the floor and ceiling are integer divisions.
    """
    den = math.lcm(*weights)
    scaled = [(r, m * (den // w)) for r, w in zip(rays, weights)]
    lo, hi = [], []
    for j in range(n):
        lo.append(-(sum(-s * r[j] for r, s in scaled if r[j] < 0) // den))
        hi.append(sum(s * r[j] for r, s in scaled if r[j] > 0) // den)
    return lo, hi


def check_grading(c: Cone, w: Vector) -> list[int]:
    """<w, r> for each ray r of the cone; NotPositiveGrading at the first where it is <= 0."""
    values = []
    for r in c.rays:
        v = dot(w, r)
        if v <= 0:
            raise NotPositiveGrading(r, v)
        values.append(v)
    return values


def points_at_level(c: Cone, w: Vector, m: int) -> tuple[Vector, ...]:
    """Lattice points x of the cone with <w, x> == m, sorted, without duplicates.

    Requires w strictly positive on every nonzero ray, which bounds the
    level slice inside a box derived from the rays.  The coordinate j
    with the largest |w_j| = W is solved for, x_j = (m - <w, rest>) / w_j,
    and a second free coordinate k is clipped: the heads run over the
    box in the other coordinates, and after the substitution, scaled by
    W, each facet f bounds x_k by one integer floor or ceiling (its x_k
    coefficient is W * f_k - sgn(w_j) * f_j * w_k).  x_j is integral
    exactly when w_k * x_k = m - <w, head> mod W, so x_k runs over a
    progression of step W / gcd(w_k, W), and a head is skipped when the
    gcd does not divide m - <w, head>.  Every point visited is in the slice.  A
    cone that is not full-dimensional goes through the same cuts by its
    +/- facet pairs; at rank 1 the slice is m / w_0 when w_0 divides m.
    """
    w = vec(w)
    weights = check_grading(c, w)
    n = c.ambient_rank
    if m < 0:
        return ()
    if m == 0:
        return (tuple([0] * n),)
    if not c.rays:
        return ()
    if n == 1:
        # The one ray r has <w, r> > 0, so the slice is m / w_0 when integral.
        x, r = divmod(m, w[0])
        return () if r else ((x,),)
    lo, hi = _level_box(c.rays, weights, m, n)
    j = max(range(n), key=lambda i: abs(w[i]))
    k = n - 1 if j != n - 1 else n - 2
    rest = [i for i in range(n) if i not in (j, k)]
    big, sign = abs(w[j]), (1 if w[j] > 0 else -1)
    g = math.gcd(w[k], big)
    step = big // g
    inverse = pow(w[k] // g, -1, step) if step > 1 else 0
    xj_step = -(w[k] * step) // w[j]
    w_rest = [w[i] for i in rest]
    # Facets as cuts cn * x_k + <ch, head> + c0 >= 0 after the substitution.
    cuts = [([big * f[i] - sign * f[j] * w[i] for i in rest],
             big * f[k] - sign * f[j] * w[k], sign * f[j] * m) for f in c.facets]
    out = []
    for head in product(*(range(lo[i], hi[i] + 1) for i in rest)):
        a = m - sum(map(mul, w_rest, head))
        if a % g:
            continue
        first, last = lo[k], hi[k]
        for ch, cn, c0 in cuts:
            s = sum(map(mul, ch, head)) + c0
            if cn > 0:
                first = max(first, -(s // cn))
            elif cn < 0:
                last = min(last, s // -cn)
            elif s < 0:
                last = first - 1
        xk = first + (a // g * inverse - first) % step
        if xk > last:
            continue
        xj = (a - w[k] * xk) // w[j]
        point = [0] * n
        for i, x in zip(rest, head):
            point[i] = x
        for xk in range(xk, last + 1, step):
            point[k], point[j] = xk, xj
            out.append(tuple(point))
            xj += xj_step
    out.sort()
    return tuple(out)


def monoid_points(c: Cone, w: Vector, bound: int):
    """Nonzero lattice points x of the cone with <w, x> <= bound, level by level.

    Each level is the points_at_level slice, so w must be strictly
    positive on every ray.  No slice is cached (see `periods.euler_memo`).
    """
    for m in range(1, bound + 1):
        yield from points_at_level(c, w, m)


def hilbert_basis(c: Cone) -> tuple[Vector, ...]:
    """Minimal generating set of the monoid (cone intersect Z^n).

    Level-wise saturation: enumerate points up to the level bound given by
    the sum of ray levels (any point reduces modulo a simplicial subcone
    spanned by rays, so generators live below that bound), then keep the
    points that are not a sum of two nonzero monoid points.  The monoid is
    saturated, so membership of a difference is just cone membership.
    """
    if not c.strongly_convex:
        raise ValueError("Hilbert basis requires a strongly convex cone")
    if not c.rays:
        return ()
    if not c.full_dimensional:
        # left carries the saturated span of the rays onto the first k
        # coordinates, and the first k columns of left_inverse span it.
        snf = smith_normal_form(transpose(c.rays))
        k = snf.rank()
        inner = make_cone([[dot(row, r) for row in snf.left[:k]] for r in c.rays], k)
        return tuple(sorted(tuple(dot(row[:k], h) for row in snf.left_inverse)
                            for h in hilbert_basis(inner)))
    grading = tuple(sum(col) for col in zip(*c.facets))
    pts = list(monoid_points(c, grading, sum(check_grading(c, grading))))
    pts.sort(key=lambda p: (dot(grading, p), p))
    basis = []
    for h in pts:
        reducible = False
        for p in pts:
            if dot(grading, p) >= dot(grading, h):
                break
            diff = sub_vec(h, p)
            if any(diff) and c.contains(diff):
                reducible = True
                break
        if not reducible:
            basis.append(h)
    return tuple(sorted(basis))


def image_cone(c: Cone, proj) -> Cone:
    """Image of the cone under a lattice projection (a LatticeMap).

    The image of a strongly convex cone can contain lines; the result
    reports that through its flags rather than raising.
    """
    gens = [proj.apply(r) for r in c.rays]
    return _build_cone(gens, proj.target_rank, allow_lines=True)
