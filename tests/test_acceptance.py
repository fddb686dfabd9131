"""Acceptance suite: one test per criterion, one printed verdict line each.

Every comparison here is an exact coefficientwise equality of truncated
series (or an exact integer identity); there are no tolerances to tune.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import random
import time
from itertools import product

from oracles import (
    determinant,
    diagonal_matrix,
    dim,
    divisor_count_series,
    lattice_index,
    mat_mul,
    quotient_lattice,
    random_character,
    random_cone,
    saturate_sublattice,
    solve_integer,
)
from toricperiods.characters import character_from_spec, formal_character
from toricperiods.cli import main
from toricperiods.cones import (
    dual_cone,
    face_dual,
    faces,
    hilbert_basis,
    make_cone,
    points_at_level,
)
from toricperiods.curve import Curve, place_counts, zeta_series
from toricperiods.cyclotomic import Cyc
from toricperiods.duality import GradedToricDatum, toric_dual
from toricperiods.heights import height_fourier_local, make_height
from toricperiods.intlinalg import LatticeMap, dot, smith_normal_form
from toricperiods.periods import (
    automorphic_local_factor,
    automorphic_period,
    certified,
    spectral_local_factor,
    verify_weak_duality,
)
from toricperiods.regularization import is_cuspidal, is_generic, verify_langlands_dual_periods
from toricperiods.scenario import catalog_emit
from toricperiods.stacks import IncompatibleField, make_isogeny, verify_stack_duality

TATE = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
ORTHANT = GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]), rho=(1, 1), eta=(1, 1))
QUADRIC = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(1, 1))
QUADRIC21 = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(2, 1))
SQUARE3D = GradedToricDatum(
    cone=make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
    rho=(1, 1, 2), eta=(1, 0, 1))

CATALOG_DATA = ((TATE, 1), (ORTHANT, 2), (QUADRIC, 2), (QUADRIC21, 2), (SQUARE3D, 3))


def verdict(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_tate_self_duality():
    chi = formal_character(1)
    pair = toric_dual(TATE)
    ok = True
    for q in (2, 3, 5):
        start = time.monotonic()
        report = verify_weak_duality(pair, Curve(q=q), chi, 16)
        ok = ok and report.equal and report.duality_exponent == 0
        series = automorphic_period(TATE, Curve(q=q), chi, 16)
        for m in range(17):
            expected = {(m + 1,): Cyc.rational((q ** (m + 1) - 1) // (q - 1), 1)}
            ok = ok and series.coefficient(m) == expected
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 1.0
    verdict(1, ok, "rank-1 self-duality at q=2,3,5, U=16, with the "
                   "divisor-count closed form, each under 1 s")


def test_criterion_02_weak_duality_catalog():
    start = time.monotonic()
    ok = True
    for datum, rank in ((ORTHANT, 2), (QUADRIC, 2), (SQUARE3D, 3)):
        chi = formal_character(rank)
        pair = toric_dual(datum)
        for q in (2, 3):
            report = verify_weak_duality(pair, Curve(q=q), chi, 10)
            ok = ok and report.equal and report.duality_exponent == 0
    for q in (2, 3):
        rep21 = verify_weak_duality(toric_dual(QUADRIC21), Curve(q=q),
                                    formal_character(2), 10)
        ok = ok and rep21.equal and rep21.duality_exponent == -1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    verdict(2, ok, f"weak duality on the catalog at q=2,3, U=10, exponent 0 "
                   f"(and -1 for the (2,1) eigenform) in {elapsed:.1f}s")


def test_criterion_03_engine_independence():
    ok = True
    for datum, rank in CATALOG_DATA:
        chi = formal_character(rank)
        pair = toric_dual(datum)
        monoid = dual_cone(pair.side_xcheck.cone)
        for deg in range(1, 7):
            a = automorphic_local_factor(
                datum.cone, certified(datum.cone, chi.shift_u(datum.eta)), deg, 12)
            s = spectral_local_factor(
                monoid, certified(monoid, chi.shift_u(pair.side_xcheck.rho)), deg, 12)
            ok = ok and a.first_mismatch(s) is None
    verdict(3, ok, "dual-membership and primal-level engines agree exactly, "
                   "all catalog data, deg <= 6, U <= 12")


def test_criterion_04_cone_property_suite():
    rng = random.Random(1618)
    ok = True
    cases = 0
    while cases < 200:
        rank = rng.randint(1, 3)
        c = random_cone(rng, rank)
        cases += 1
        d = dual_cone(c)
        ok = ok and dual_cone(d) == c
        if not c.strongly_convex or not c.full_dimensional:
            continue
        lattice = faces(c)
        dual_lattice = faces(d)
        ok = ok and len(lattice.faces) == len(dual_lattice.faces)
        for f in lattice.faces:
            g = face_dual(f, c)
            ok = ok and dim(f) + dim(g) == rank
        for a, b in (
            (lattice.faces[0], lattice.faces[-1]),
        ):
            if a.ray_set() <= b.ray_set():
                ok = ok and face_dual(b, c).ray_set() <= face_dual(a, c).ray_set()
    # Hilbert-basis irreducibility against bounded brute force.
    for c in (QUADRIC.cone, ORTHANT.cone, make_cone([(0, 1), (2, -1)]), SQUARE3D.cone):
        hb = hilbert_basis(c)
        grading = tuple(sum(col) for col in zip(*c.facets))
        monoid = set()
        top = 2 * max(dot(grading, h) for h in hb)
        for m in range(1, top + 1):
            monoid.update(points_at_level(c, grading, m))
        for h in hb:
            for p in monoid:
                q2 = tuple(x - y for x, y in zip(h, p))
                if any(q2) and q2 in monoid:
                    ok = False
    # points_at_level against an independent fixed-box enumeration.
    counts = [len(points_at_level(QUADRIC.cone, (1, 1), n)) for n in range(5)]
    ok = ok and counts == [1, 1, 2, 3, 3]
    for c in (QUADRIC.cone, ORTHANT.cone, SQUARE3D.cone):
        w = tuple(sum(col) for col in zip(*c.facets))
        for n in range(11):
            got = set(points_at_level(c, w, n))
            box = {cand for cand in product(range(-n, n + 1), repeat=c.ambient_rank)
                   if dot(w, cand) == n and c.contains(cand)}
            ok = ok and got == box
    verdict(4, ok, f"cone property suite over {cases} random cones plus "
                   "brute-force Hilbert and level checks, zero failures")


def test_criterion_05_cuspidal_iff_generic():
    rng = random.Random(5150)
    ok = True
    total = 0
    for datum, rank in CATALOG_DATA:
        pair = toric_dual(datum)
        done = 0
        while done < 200:
            chi = random_character(rng, rank)
            psi = chi.shift_u(datum.eta)
            basis = [tuple(1 if i == j else 0 for i in range(rank))
                     for j in range(rank)]
            if psi.is_trivial_on_all(basis):
                # Identity extended parameter: fixed locus not discrete,
                # the spectral period is undefined there.
                continue
            done += 1
            total += 1
            cusp, _ = is_cuspidal(datum, chi)
            gen, _ = is_generic(pair.side_xcheck, chi)
            ok = ok and cusp == gen
    verdict(5, ok, f"cuspidal <=> generic, exact agreement on {total} "
                   "specialized characters across the catalog pairs")


def test_criterion_06_orbitwise_duality():
    chi = character_from_spec([(0, -1), "formal"], order=1, nvars=2)
    pair = toric_dual(QUADRIC)
    fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2), chi, 8)
    ok = fwd.equal and bwd.equal
    statuses = {p.face_rays: (p.automorphic.status, p.spectral.status)
                for p in fwd.pairs}
    ok = ok and statuses[((1, 0),)] == ("computed", "computed")
    ok = ok and all(a == s for a, s in statuses.values())
    verdict(6, ok, "orbitwise duality for the quadric pair with the "
                   "z1 = 1/u specialization, U=8, q=2: every pair matches")


def test_criterion_07_stack_duality():
    ok = True
    for n, q in ((2, 3), (3, 4)):
        rep = verify_stack_duality(toric_dual(TATE), make_isogeny([[n]]), Curve(q=q),
                                   formal_character(1, n), 10)
        ok = ok and rep.equal
        ok = ok and rep.direct_comparison is not None
    try:
        verify_stack_duality(toric_dual(TATE), make_isogeny([[2]]), Curve(q=2),
                             formal_character(1, 2), 4)
        ok = False
    except IncompatibleField:
        pass
    verdict(7, ok, "stack duality identities at (n,q) = (2,3) and (3,4), "
                   "U=10; incompatible fields rejected; direct model diffed")


def test_criterion_08_arithmetic_substrate():
    ok = place_counts(Curve(q=2), 4) == (3, 1, 2, 3)
    for q in (2, 3, 5):
        got = zeta_series(Curve(q=q), 12)
        ok = ok and got.first_mismatch(divisor_count_series(Curve(q=q), 12)) is None
    # Smith / saturation / quotient properties.
    rng = random.Random(88)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(cols))
                  for _ in range(rows))
        snf = smith_normal_form(m)
        lhs = mat_mul(mat_mul(snf.left, m), snf.right)
        ok = ok and lhs == diagonal_matrix(snf)
        ok = ok and determinant(snf.left) in (1, -1)
        for a, b in zip(snf.diag, snf.diag[1:]):
            ok = ok and (b % a == 0 if a else b == 0)
    for _ in range(60):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(0, n))]
        sat = saturate_sublattice(gens, n)
        ok = ok and sat == saturate_sublattice(sat, n)
        for g in gens:
            ok = ok and solve_integer(sat, g) is not None
    for _ in range(60):
        n = rng.randint(1, 3)
        cols = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        idx = lattice_index(LatticeMap.from_columns(cols, n))
        if idx is not None:
            q2 = quotient_lattice(n, cols)
            prod_t = 1
            for t in q2.torsion_invariants:
                prod_t *= t
            ok = ok and prod_t == idx and q2.free_projection.target_rank == 0
    verdict(8, ok, "place counts (3,1,2,3) at q=2, zeta matches "
                   "1/((1-t)(1-qt)) to U=12, lattice property suite green")


def test_criterion_09_height_bridge():
    ok = True
    for datum, slope in (
        (GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(2,)), (1,)),
        (GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]), rho=(1, 1),
                          eta=(2, 2)), (1, 1)),
    ):
        fan = make_height([datum.cone.rays], [slope], datum.cone.ambient_rank)
        chi = formal_character(datum.rank)
        for deg in (1, 2, 3):
            lhs = height_fourier_local(fan, chi, deg, 8)
            rhs = automorphic_local_factor(
                datum.cone, certified(datum.cone, chi.shift_u(datum.eta)), deg, 8)
            ok = ok and lhs.first_mismatch(rhs) is None
    verdict(9, ok, "height transform with slope eta/2 equals the "
                   "automorphic local factor exactly (rank 1 and orthant, U=8)")


def test_criterion_10_determinism(tmp_path):
    names = [("tate", {}), ("orthant_a2", {}), ("quadric_cone", {}),
             ("quadric_cone_eta21", {}), ("square_cone_3d", {}),
             ("weight_n_stack", {"n": 2}), ("weight_n_stack", {"n": 3}),
             ("height_p1", {})]
    ok = True
    for name, kwargs in names:
        data = catalog_emit(name, **kwargs)
        path = tmp_path / f"{data['name']}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        blobs = []
        for jobs in (None, 1, 4):
            args = ["verify", str(path),
                    "--out", str(tmp_path / f"{data['name']}.{jobs}.json")]
            if jobs:
                args += ["--jobs", str(jobs)]
            code = main(args)
            ok = ok and code == 0
            blobs.append((tmp_path / f"{data['name']}.{jobs}.json").read_bytes())
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    verdict(10, ok, "full catalog passes and reports are byte-identical "
                    "for --jobs unset, 1, and 4")
