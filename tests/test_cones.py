import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricperiods.cones import (
    Cone,
    NotAFace,
    NotPositiveGrading,
    NotStronglyConvex,
    _build_cone,
    dual_cone,
    face_dual,
    face_of,
    faces,
    hilbert_basis,
    image_cone,
    make_cone,
    monoid_points,
    points_at_level,
)
from oracles import (
    annihilator_basis, determinant, dim, face_ray_sets_by_facet_subsets, hermite_column_basis,
    in_cone, mat_mul, quotient_lattice, random_generated_cone, saturate_sublattice, solve_integer)
from toricperiods.intlinalg import LatticeMap, dot, identity_matrix
from toricperiods.scenario import catalog_emit, catalog_names, parse_scenario

QUADRIC = make_cone([(1, 0), (1, 2)])
ORTHANT = make_cone([(1, 0), (0, 1)])
SQUARE3D = make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def brute_force_membership(c, v, depth=None):
    """v is an N-combination of Hilbert basis elements (oracle for contains)."""
    basis = hilbert_basis(c)
    if not any(v):
        return True

    def rec(target, idx):
        if not any(target):
            return True
        if idx == len(basis):
            return False
        h = basis[idx]
        # Cap the multiplicity by the coordinates.
        cap = max(abs(x) for x in target) + 1
        for k in range(cap + 1):
            rest = tuple(t - k * hh for t, hh in zip(target, h))
            if rec(rest, idx + 1):
                return True
        return False

    return rec(tuple(v), 0)


def test_make_cone_orthant():
    assert ORTHANT.rays == ((0, 1), (1, 0))
    assert ORTHANT.facets == ((0, 1), (1, 0))
    assert ORTHANT.strongly_convex and ORTHANT.full_dimensional


def test_make_cone_quadric():
    assert QUADRIC.rays == ((1, 0), (1, 2))
    assert set(QUADRIC.facets) == {(0, 1), (2, -1)}
    assert dot((2, -1), (1, 0)) == 2
    assert dot((2, -1), (1, 2)) == 0
    # Brute-force facet search over small covectors: the stored facets must
    # be exactly the primitive covectors valid on both rays that vanish on
    # at least one ray (up to the cone's dimension worth of them).
    found = set()
    for f in product(range(-3, 4), repeat=2):
        if f == (0, 0):
            continue
        vals = [dot(f, r) for r in QUADRIC.rays]
        if all(v >= 0 for v in vals) and 0 in vals:
            from toricperiods.intlinalg import primitive
            found.add(primitive(f))
    assert found == set(QUADRIC.facets)


def test_make_cone_line_rejected():
    with pytest.raises(NotStronglyConvex):
        make_cone([(1, 0), (-1, 0)])


def test_cone_from_nonminimal_generators():
    c = make_cone([(1, 0), (1, 1), (0, 1)])
    assert c == ORTHANT
    c2 = make_cone([(2, 0), (0, 3)])
    assert c2 == ORTHANT


def test_dual_cone_examples():
    assert dual_cone(ORTHANT) == ORTHANT
    d = dual_cone(QUADRIC)
    assert d.rays == ((0, 1), (2, -1))
    zero = make_cone([], 2)
    dz = dual_cone(zero)
    assert dz.facets == ()
    assert not dz.strongly_convex


def test_dual_is_involution_and_recomputable():
    for c in (ORTHANT, QUADRIC, SQUARE3D):
        assert dual_cone(dual_cone(c)) == c
        # Recomputing the dual from scratch gives the same cone.
        assert make_cone(dual_cone(c).rays) == dual_cone(c)


def test_faces_counts():
    assert len(faces(ORTHANT).faces) == 4
    assert len(faces(QUADRIC).faces) == 4
    assert len(faces(SQUARE3D).faces) == 10
    zero = make_cone([], 2)
    assert len(faces(zero).faces) == 1


def test_face_order_closed_under_intersection():
    fl = faces(SQUARE3D)
    sets = [f.ray_set() for f in fl.faces]
    for a in sets:
        for b in sets:
            assert (a & b) in sets


def test_face_dual_examples():
    e1 = face_of(ORTHANT, [(1, 0)])
    fd = face_dual(e1, ORTHANT)
    assert fd.rays == ((0, 1),)
    ray12 = face_of(QUADRIC, [(1, 2)])
    fd2 = face_dual(ray12, QUADRIC)
    assert fd2.rays == ((2, -1),)
    zero = face_of(QUADRIC, [])
    assert face_dual(zero, QUADRIC) == dual_cone(QUADRIC)


def test_face_dual_rejects_non_face():
    not_face = make_cone([(1, 1)])
    with pytest.raises(NotAFace):
        face_dual(not_face, QUADRIC)
    # Two rays of the square cone that span a diagonal, not a face.
    with pytest.raises(NotAFace):
        face_of(SQUARE3D, [(0, 0, 1), (1, 1, 1)])


def test_face_dual_is_order_reversing_bijection():
    for c in (ORTHANT, QUADRIC, SQUARE3D):
        n = c.ambient_rank
        fl = faces(c)
        dl = faces(dual_cone(c))
        image = {}
        for f in fl.faces:
            g = face_dual(f, c)
            assert dim(f) + dim(g) == n
            assert face_dual(g, dual_cone(c)) == f
            image[f.ray_set()] = g.ray_set()
        assert sorted(image.values(), key=sorted) == sorted(
            (g.ray_set() for g in dl.faces), key=sorted)
        # Containment reverses.
        for a in fl.faces:
            for b in fl.faces:
                if a.ray_set() <= b.ray_set():
                    assert image[b.ray_set()] <= image[a.ray_set()]


def vertex_enumeration_face_dual(tau, sigma):
    """tau* rebuilt from the dual rays vanishing on tau, after a facet face test."""
    saturated = [f for f in sigma.facets if all(dot(f, r) == 0 for r in tau.rays)]
    cut = frozenset(r for r in sigma.rays if all(dot(f, r) == 0 for f in saturated))
    if not tau.ray_set() <= sigma.ray_set() or cut != tau.ray_set():
        raise NotAFace(f"{tau} is not a face of {sigma}")
    rays = [g for g in dual_cone(sigma).rays if all(dot(g, r) == 0 for r in tau.rays)]
    return make_cone(rays, sigma.ambient_rank)


@st.composite
def full_cones(draw):
    """A full-dimensional strongly convex cone of rank <= 3.

    n independent generators span a simplicial cone; each of up to two
    more is kept when the cone stays strongly convex.
    """
    n = draw(st.integers(1, 3))
    entries = st.tuples(*[st.integers(-2, 2)] * n)
    gens = draw(st.lists(entries, min_size=n, max_size=n))
    assume(determinant(gens) != 0)
    cone = make_cone(gens, n)
    for extra in draw(st.lists(entries, max_size=2)):
        try:
            cone = make_cone(cone.rays + (extra,), n)
        except NotStronglyConvex:
            pass
    return cone


@settings(max_examples=60, deadline=None)
@given(full_cones())
def test_face_lattice_against_vertex_enumeration(c):
    n = c.ambient_rank
    d = dual_cone(c)
    lattice, dual_lattice = faces(c), faces(d)
    image = {}
    for i, f in enumerate(lattice.faces):
        span, ann = lattice.span(i), lattice.annihilator(i)
        g = face_dual(f, c)
        assert g == vertex_enumeration_face_dual(f, c)
        assert face_dual(g, d) == f
        # The span of a face is the annihilator of its dual face, as a lattice.
        assert hermite_column_basis(span, n) == hermite_column_basis(
            dual_lattice.annihilator(dual_lattice.index(g.rays)), n)
        assert len(span) == dim(f) and len(span) + len(ann) == n
        assert all(dot(s, a) == 0 for s in span for a in ann)
        image[f.ray_set()] = g.ray_set()
    for a in lattice.faces:
        for b in lattice.faces:
            if a.ray_set() <= b.ray_set():
                assert image[b.ray_set()] <= image[a.ray_set()]
    # Every subset of the rays is a face exactly when the facet test says so.
    for k in range(len(c.rays) + 1):
        for subset in combinations(c.rays, k):
            try:
                expected = vertex_enumeration_face_dual(make_cone(subset, n), c)
            except NotAFace:
                with pytest.raises(NotAFace):
                    face_of(c, subset)
            else:
                assert face_dual(face_of(c, subset), c) == expected


def _kernel(projection):
    return hermite_column_basis(annihilator_basis(projection.matrix, projection.source_rank),
                                projection.source_rank)


@settings(max_examples=60, deadline=None)
@given(full_cones())
def test_face_quotients_against_the_oracle(c):
    # N / span and M / annihilator of every face of the cone and of its
    # dual, against the oracle's own elimination of the same bases.
    n = c.ambient_rank
    identity = identity_matrix(n)
    for cone in (c, dual_cone(c)):
        lattice = faces(cone)
        for i, face in enumerate(lattice.faces):
            span, ann = lattice.span(i), lattice.annihilator(i)
            span_quotient, ann_quotient = lattice.span_quotient(i), lattice.annihilator_quotient(i)
            d = len(span)
            for (projection, section), basis, rank in ((span_quotient, span, n - d),
                                                       (ann_quotient, ann, d)):
                assert (projection.source_rank, projection.target_rank) == (n, rank)
                assert (section.source_rank, section.target_rank) == (rank, n)
                assert mat_mul(projection.matrix, section.matrix) == identity_matrix(rank)
                assert not any(any(projection.apply(v)) for v in basis)
                assert _kernel(projection) == _kernel(
                    quotient_lattice(n, basis).free_projection)
            if not face.rays:
                assert span_quotient[0].matrix == span_quotient[1].matrix == identity
            if face.full_dimensional:
                assert ann_quotient[0].matrix == ann_quotient[1].matrix == identity


def faces_by_build_per_subset(c):
    """(faces, spans, annihilators) of faces(c), each face built from scratch.

    A subset of the rays is a face when the facets vanishing on it cut out
    exactly it; each face goes through both passes of the double
    description, and its span and annihilator through their own Smith forms.
    """
    n = c.ambient_rank
    built = []
    for k in range(len(c.rays) + 1):
        for subset in combinations(c.rays, k):
            saturated = [f for f in c.facets if all(dot(f, r) == 0 for r in subset)]
            if set(subset) == {r for r in c.rays
                               if all(dot(f, r) == 0 for f in saturated)}:
                built.append(_build_cone(subset, n, allow_lines=False))
    built.sort(key=lambda f: (dim(f), f.rays))
    return (tuple(built),
            tuple(tuple(saturate_sublattice(f.rays, n)) for f in built),
            tuple(tuple(annihilator_basis(f.rays, n)) for f in built))


def assert_faces_match_build_per_subset(c):
    lattice = faces(c)
    want_faces, want_spans, want_annihilators = faces_by_build_per_subset(c)
    assert len(lattice.faces) == len(want_faces)
    for got, want in zip(lattice.faces, want_faces):
        assert type(got) is Cone
        for field in Cone._fields:
            assert getattr(got, field) == getattr(want, field), field
    # Each slice of a face's Smith transform, in Hermite form, is the
    # oracle's basis of the same lattice.
    n = c.ambient_rank
    slices = [(lattice.span(i), lattice.annihilator(i)) for i in range(len(want_faces))]
    assert tuple(tuple(hermite_column_basis(s, n)) for s, _ in slices) == want_spans
    assert tuple(tuple(hermite_column_basis(a, n)) for _, a in slices) == want_annihilators
    # The face ray sets also match every intersection of facet ray sets.
    assert {face.ray_set() for face in lattice.faces} == face_ray_sets_by_facet_subsets(c)


@st.composite
def strongly_convex_cones(draw):
    """A strongly convex cone of rank <= 3, of any dimension, {0} included."""
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=4))
    try:
        return make_cone(gens, n)
    except NotStronglyConvex:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(strongly_convex_cones())
def test_faces_match_build_per_subset(c):
    assert_faces_match_build_per_subset(c)


def test_catalog_faces_match_build_per_subset():
    for name in catalog_names():
        pair = parse_scenario(catalog_emit(name)).build_pair()
        for c in (pair.side_x.cone, pair.side_xcheck.cone):
            assert_faces_match_build_per_subset(c)
            assert_faces_match_build_per_subset(dual_cone(c))


def test_faces_of_a_cone_over_a_40_gon_in_seconds():
    # 40 facets: 2^40 facet subsets would never finish, while the face
    # lattice has {0}, 40 rays, 40 two-dimensional faces and the cone.  The
    # polygon's edges are ten primitive directions of slope 0 to 5, turned
    # by quarter turns, so its 40 vertices are in convex position.
    code = (
        "from toricperiods.cones import dual_cone, faces, make_cone\n"
        "base = [(1, 0), (3, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 3), (1, 4), (1, 5)]\n"
        "edges = base + [(-b, a) for a, b in base] + [(-a, -b) for a, b in base]"
        " + [(b, -a) for a, b in base]\n"
        "x = y = 0\n"
        "rays = []\n"
        "for a, b in edges:\n"
        "    rays.append((x, y, 1))\n"
        "    x, y = x + a, y + b\n"
        "c = make_cone(rays)\n"
        "assert len(c.rays) == len(c.facets) == 40\n"
        "print(len(faces(c).faces), len(faces(dual_cone(c)).faces))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-B", "-c", code], env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=5)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.split() == ["82", "82"]


def test_hilbert_basis_examples():
    assert hilbert_basis(ORTHANT) == ((0, 1), (1, 0))
    dual_quadric = make_cone([(0, 1), (2, -1)])
    assert hilbert_basis(dual_quadric) == ((0, 1), (1, 0), (2, -1))
    ray = make_cone([(2,)])
    assert ray.rays == ((1,),)
    assert hilbert_basis(ray) == ((1,),)


def test_hilbert_basis_non_full_dimensional():
    c = make_cone([(1, 1, 0)], 3)
    assert hilbert_basis(c) == ((1, 1, 0),)
    c2 = make_cone([(2, 0, 2), (0, 1, 1)], 3)
    hb = hilbert_basis(c2)
    for h in hb:
        assert c2.contains(h)
    # Random cones spanning a rank-2 sublattice of Z^3, often not saturated.
    rng = random.Random(2026)
    tried = 0
    while tried < 25:
        b = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2)]
        a = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2)]
        minors = [determinant([(u[i], u[j]) for u in b])
                  for i, j in combinations(range(3), 2)]
        if determinant(a) == 0 or not any(minors):
            continue
        tried += 1
        c = make_cone([tuple(x * b[0][i] + y * b[1][i] for i in range(3))
                       for x, y in a], 3)
        assert not c.full_dimensional and dim(c) == 2
        hb = hilbert_basis(c)
        assert hb == _hilbert_basis_through_solves(c)
        # The +/- facet pairs cancel, so the facet sum grades the cone.
        grading = tuple(sum(col) for col in zip(*c.facets))
        top = max(dot(grading, h) for h in hb)
        levels = [points_at_level(c, grading, m) for m in range(2 * top + 1)]
        monoid = {p for level in levels[1:top + 1] for p in level}
        for h in hb:
            assert c.contains(h)
            for p in monoid:
                q = tuple(x - y for x, y in zip(h, p))
                assert not (any(q) and q in monoid), (c, h, p)
        # Generation, level by level: a point is a basis element plus a
        # point already generated (brute_force_membership's multiplicity
        # search is exponential in the basis size on these cones).
        generated = set(levels[0])
        for level in levels[1:]:
            for p in level:
                assert any(tuple(x - y for x, y in zip(p, h)) in generated
                           for h in hb), (c, p)
            generated.update(level)


def _hilbert_basis_through_solves(c):
    """Hilbert basis in integer coordinates on a saturated span basis."""
    span = saturate_sublattice(c.rays, c.ambient_rank)
    inner = make_cone([solve_integer(span, r) for r in c.rays], len(span))
    return tuple(sorted(
        tuple(sum(h[j] * span[j][i] for j in range(len(span)))
              for i in range(c.ambient_rank))
        for h in hilbert_basis(inner)))


def test_hilbert_basis_irreducibility_brute_force():
    for c in (ORTHANT, QUADRIC, SQUARE3D, make_cone([(0, 1), (2, -1)])):
        hb = hilbert_basis(c)
        monoid = set()
        grading = tuple(sum(col) for col in zip(*c.facets))
        top = max(dot(grading, h) for h in hb)
        for m in range(1, 2 * top + 1):
            monoid.update(points_at_level(c, grading, m))
        for h in hb:
            for p in monoid:
                q = tuple(a - b for a, b in zip(h, p))
                if any(q) and q in monoid:
                    pytest.fail(f"{h} = {p} + {q} is reducible")
        # And every low point decomposes into basis elements.
        for p in sorted(monoid)[:40]:
            assert brute_force_membership(c, p)


def test_contains_point_examples():
    assert QUADRIC.contains((1, 1))
    assert not QUADRIC.contains((0, 1))
    assert QUADRIC.contains((0, 0))
    assert SQUARE3D.contains((1, 1, 2))


def test_contains_agrees_with_hilbert_combination():
    rng = random.Random(5)
    for c in (ORTHANT, QUADRIC):
        for _ in range(40):
            v = (rng.randint(-3, 5), rng.randint(-3, 5))
            assert c.contains(v) == brute_force_membership(c, v)


def test_points_at_level_quadric_counts():
    counts = [len(points_at_level(QUADRIC, (1, 1), n)) for n in range(5)]
    assert counts == [1, 1, 2, 3, 3]
    for n in range(5):
        assert counts[n] == 2 * n // 3 + 1


def test_points_at_level_orthant():
    for n in range(8):
        assert len(points_at_level(ORTHANT, (1, 1), n)) == n + 1


def test_points_at_level_zero_level():
    assert points_at_level(QUADRIC, (1, 1), 0) == ((0, 0),)


def test_points_at_level_rejects_bad_grading():
    # (0,1) vanishes on the ray (1,0), so level slices are infinite.
    with pytest.raises(NotPositiveGrading):
        points_at_level(QUADRIC, (0, 1), 1)
    with pytest.raises(NotPositiveGrading):
        points_at_level(ORTHANT, (1, -1), 2)


def test_points_at_level_brute_force_box():
    for c in (ORTHANT, QUADRIC, SQUARE3D):
        w = tuple(sum(col) for col in zip(*c.facets))
        n = c.ambient_rank
        for m in range(11):
            got = set(points_at_level(c, w, m))
            box = set()
            bound = m if m else 0
            for cand in product(range(-bound, bound + 1), repeat=n):
                if dot(w, cand) == m and c.contains(cand):
                    box.add(cand)
            assert got == box, (c, m)
        for bound in range(8):
            got = list(monoid_points(c, w, bound))
            box = {cand for cand in product(range(-bound, bound + 1), repeat=n)
                   if 0 < dot(w, cand) <= bound and c.contains(cand)}
            assert len(got) == len(box) and set(got) == box, (c, bound)
            levels = [dot(w, p) for p in got]
            assert levels == sorted(levels), (c, bound)


def test_image_cone_examples():
    proj2 = LatticeMap(2, 1, ((0, 1),))
    img = image_cone(QUADRIC, proj2)
    assert img.rays == ((1,),)
    ident = LatticeMap(2, 2, identity_matrix(2))
    assert image_cone(QUADRIC, ident) == QUADRIC
    proj1 = LatticeMap(2, 1, ((1, 0),))
    assert image_cone(ORTHANT, proj1).rays == ((1,),)


def test_image_cone_can_contain_lines():
    proj = LatticeMap(2, 1, ((1, -1),))
    img = image_cone(ORTHANT, proj)
    assert not img.strongly_convex


def test_random_cone_property_suite():
    rng = random.Random(424242)
    checked = 0
    for _ in range(220):
        rank = rng.randint(1, 3)
        gens, c = random_generated_cone(rng, rank)
        d = dual_cone(c)
        assert dual_cone(d) == c
        if c.full_dimensional:
            assert make_cone(d.rays, rank) == d
        # The facet description cuts out the cone of the generators: each
        # random point is checked against nonnegative combinations of them.
        for _ in range(12):
            v = tuple(rng.randint(-6, 6) for _ in range(rank))
            assert c.contains(v) == in_cone(gens, v), (gens, v)
        checked += 1
    assert checked == 220
