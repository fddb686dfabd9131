import contextlib
import random
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    automorphic_support,
    closure_cuspidality_witness,
    dim,
    random_character,
    spectral_support,
)
from toricperiods import cones, intlinalg, periods, regularization
from toricperiods.characters import Character, character_from_spec, formal_character
from toricperiods.cones import NotAFace, NotStronglyConvex, face_of, faces, make_cone
from toricperiods.curve import Curve
from toricperiods.cyclotomic import Cyc
from toricperiods.duality import GradedToricDatum, toric_dual
from toricperiods.periods import automorphic_period, spectral_period
from toricperiods.regularization import (
    VANISHED_CUSPIDALITY,
    VANISHED_DOMINATED,
    VANISHED_NOT_FIXED,
    VANISHED_TRIVIALITY,
    fixed_orbit_faces,
    is_cuspidal,
    is_generic,
    regularized_automorphic_contribution,
    regularized_spectral_contribution,
    verify_langlands_dual_periods,
)
from toricperiods.scenario import catalog_emit, parse_scenario

TATE = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
QUADRIC = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(1, 1))
ORTHANT = GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]), rho=(1, 1), eta=(1, 1))
SQUARE3D = GradedToricDatum(
    cone=make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
    rho=(1, 1, 2), eta=(1, 0, 1))

Z1_IS_UINV = character_from_spec([(0, -1), "formal"], order=1, nvars=2)


def test_cuspidal_formal_character():
    ok, witness = is_cuspidal(QUADRIC, formal_character(2))
    assert ok and witness is None


def test_cuspidal_fails_with_monomial_cancellation():
    ok, witness = is_cuspidal(QUADRIC, Z1_IS_UINV)
    assert not ok
    assert witness.rays == ((1, 0),)


def test_cuspidal_tate_vacuous():
    # Rank one has no nontrivial proper stabilizers at all.
    chi = character_from_spec([(0, -1)], order=1)
    ok, witness = is_cuspidal(TATE, chi)
    assert ok and witness is None


def test_generic_formal():
    pair = toric_dual(QUADRIC)
    ok, fixed = is_generic(pair.side_xcheck, formal_character(2))
    assert ok
    assert len(fixed) == 1 and dim(fixed[0]) == 2


def test_generic_fails_and_names_fixed_orbit():
    pair = toric_dual(QUADRIC)
    ok, fixed = is_generic(pair.side_xcheck, Z1_IS_UINV)
    assert not ok
    rays = sorted(f.rays for f in fixed)
    # The dual of the cuspidality witness ray(1,0) is the face ray(0,1).
    assert rays == [((0, 1),), ((0, 1), (2, -1))]


def test_generic_tate_single_condition():
    pair = toric_dual(TATE)
    good = character_from_spec([(1, 0)], order=4)
    assert is_generic(pair.side_xcheck, good)[0]
    degenerate = character_from_spec([(0, -1)], order=1)
    ok, fixed = is_generic(pair.side_xcheck, degenerate)
    assert not ok and len(fixed) == 2


def test_fixed_faces_form_up_set():
    rng = random.Random(7)
    pair = toric_dual(SQUARE3D)
    from toricperiods.cones import faces
    lattice = faces(pair.side_xcheck.cone)
    for _ in range(60):
        chi = character_from_spec(
            [(rng.randrange(4), rng.randint(-2, 2)) for _ in range(3)],
            order=4, nvars=3)
        fixed = {f.ray_set() for f in fixed_orbit_faces(pair.side_xcheck, chi)}
        for f in lattice.faces:
            for g in lattice.faces:
                if f.ray_set() <= g.ray_set() and f.ray_set() in fixed:
                    assert g.ray_set() in fixed


def test_dense_orbit_recovers_main_period():
    chi = formal_character(2)
    dense = face_of(QUADRIC.cone, [])
    contrib = regularized_automorphic_contribution(
        QUADRIC, dense, Curve(q=2), chi, 6)
    assert contrib.status == "computed"
    full = automorphic_period(QUADRIC, Curve(q=2), chi, 6)
    assert contrib.series.first_mismatch(full) is None


def test_full_face_recovers_spectral_period():
    chi = formal_character(2)
    pair = toric_dual(QUADRIC)
    full_face = pair.side_xcheck.cone
    contrib = regularized_spectral_contribution(
        pair.side_xcheck, full_face, Curve(q=2), chi, 6)
    assert contrib.status == "computed"
    expected = spectral_period(pair.side_xcheck, Curve(q=2), chi, 6)
    assert contrib.series.first_mismatch(expected) is None


def test_small_orbit_formal_vanishes():
    chi = formal_character(2)
    ray_face = face_of(QUADRIC.cone, [(1, 0)])
    contrib = regularized_automorphic_contribution(
        QUADRIC, ray_face, Curve(q=2), chi, 6)
    assert contrib.vanished and contrib.reason == VANISHED_TRIVIALITY


def test_small_orbit_computed_with_matched_character():
    ray_face = face_of(QUADRIC.cone, [(1, 0)])
    contrib = regularized_automorphic_contribution(
        QUADRIC, ray_face, Curve(q=2), Z1_IS_UINV, 6)
    assert contrib.status == "computed"
    # Prefactor chi(rho) = z1 z2 = u^{-1} z2; local factor sum_k (z2 u)^{dk}.
    assert contrib.series.low == -1
    assert contrib.series.coefficient(-1) == {(0, 1): Cyc.one(1)}
    # Coefficient of u^0: prefactor times (a_1 = 3 places) * (z2 u)^1.
    assert contrib.series.coefficient(0) == {(0, 2): Cyc.rational(3, 1)}


def test_spectral_vanishing_reasons():
    chi = formal_character(2)
    pair = toric_dual(QUADRIC)
    dense = face_of(pair.side_xcheck.cone, [])
    c = regularized_spectral_contribution(pair.side_xcheck, dense, Curve(q=2), chi, 6)
    assert c.vanished and c.reason == VANISHED_NOT_FIXED
    # With the matched degenerate character, the full face is dominated.
    c2 = regularized_spectral_contribution(
        pair.side_xcheck, pair.side_xcheck.cone, Curve(q=2), Z1_IS_UINV, 6)
    assert c2.vanished and c2.reason == VANISHED_DOMINATED


def test_spectral_contribution_rejects_non_face():
    pair = toric_dual(QUADRIC)
    # A ray of the automorphic cone, not a face of the dual-side cone.
    with pytest.raises(NotAFace):
        regularized_spectral_contribution(
            pair.side_xcheck, make_cone([(1, 2)]), Curve(q=2),
            formal_character(2), 6)


def test_automorphic_contribution_rejects_non_face():
    pair = toric_dual(QUADRIC)
    # A ray of the dual-side cone, not a face of the automorphic cone.
    with pytest.raises(NotAFace):
        regularized_automorphic_contribution(
            pair.side_x, make_cone([(0, 1)]), Curve(q=2),
            formal_character(2), 6)


def test_face_lattice_data_computed_once_per_cone():
    # Every face's span, annihilator and Smith transform (which the
    # quotients are sliced from) are built inside cones.faces, so its
    # cache misses count the lattices built.
    cones.faces.cache_clear()
    pair = toric_dual(SQUARE3D)
    # Both support tests read face sets off the two cones' own lattices,
    # so a run that vanishes orbits by cuspidality builds those two and no
    # closure's, and the second run reads only them.
    degenerate = character_from_spec([(0, -1), (0, -1), (0, -2)], order=1,
                                     nvars=3)
    fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2), degenerate, 4)
    assert VANISHED_CUSPIDALITY in {p.automorphic.reason for p in fwd.pairs + bwd.pairs}
    built = cones.faces.cache_info().misses
    assert built == 2
    chi = character_from_spec([(0, -1), "formal", (1, 0)], order=2, nvars=3)
    fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2), chi, 4)
    for report in (fwd, bwd):
        assert [p for p in report.pairs if not p.automorphic.vanished]
    assert cones.faces.cache_info().misses == built


def _spy_on_every_binding(monkeypatch, original, spy):
    """Replace every binding of original in the package, not just the defining one."""
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "toricperiods"
                and getattr(module, original.__name__, None) is original):
            monkeypatch.setattr(module, original.__name__, spy)


def test_orbit_quotients_built_only_past_the_support_test(monkeypatch):
    calls = []
    original = cones.image_cone

    def image_cone(*args):
        calls.append(args)
        return original(*args)

    _spy_on_every_binding(monkeypatch, original, image_cone)
    pair = toric_dual(SQUARE3D)
    reports = verify_langlands_dual_periods(pair, Curve(q=2),
                                            formal_character(3), 4)
    pairs = [p for report in reports for p in report.pairs]
    # One image per orbit that passes its side's support tests; the 20
    # faces of the two automorphic sides build none up front, and the
    # cuspidality test builds no closure.
    expected = sum((not p.automorphic.vanished) + (not p.spectral.vanished)
                   for p in pairs)
    assert len(pairs) == 20
    assert len(calls) == expected == 4
    calls.clear()
    for datum in (pair.side_x, pair.side_xcheck):
        is_cuspidal(datum, formal_character(3))
    assert calls == []


@pytest.mark.parametrize("name", ["quadric_cone", "square_cone_3d"])
def test_orbit_check_makes_no_elimination_of_its_own(monkeypatch, name):
    # Both orbit quotients come from the Smith forms cones.faces made, and
    # the dense orbit's quotient is the cone's own lattice, so once the
    # weak check has run, a formal character's orbit check walks no level
    # set: its only computed orbits are the dense one and the full face.
    sc = parse_scenario(catalog_emit(name))
    pair = sc.build_pair()
    characters = [(spec.name, spec.build(1, sc.rank)) for spec in sc.characters]
    faces_code = cones.faces.__wrapped__.__code__
    outside, levels = [], []
    snf, points = intlinalg.smith_normal_form, cones.points_at_level

    def smith_normal_form(m):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not faces_code:
            frame = frame.f_back
        if frame is None:
            outside.append(m)
        return snf(m)

    def points_at_level(*args):
        levels.append(args)
        return points(*args)

    with periods.euler_memo():
        for c in (pair.side_x.cone, pair.side_xcheck.cone):
            cones.faces(c)
        for _, chi in characters:
            # z1-is-u-inverse is divergent there, as in the catalog report.
            with contextlib.suppress(cones.NotPositiveGrading):
                periods.verify_weak_duality(pair, sc.curve, chi, sc.truncation)
        _spy_on_every_binding(monkeypatch, snf, smith_normal_form)
        _spy_on_every_binding(monkeypatch, points, points_at_level)
        for character, chi in characters:
            levels.clear()
            verify_langlands_dual_periods(pair, sc.curve, chi, sc.truncation)
            if character == "formal":
                assert levels == []
    assert len(characters) == (2 if name == "quadric_cone" else 1)
    assert outside == []


def test_orbitwise_duality_quadric_specialized():
    pair = toric_dual(QUADRIC)
    fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2), Z1_IS_UINV, 8)
    assert fwd.equal
    nonzero = [p for p in fwd.pairs if p.automorphic.status == "computed"]
    assert len(nonzero) == 1
    assert nonzero[0].face_rays == ((1, 0),)
    assert nonzero[0].dual_face_rays == ((0, 1),)
    reasons = {p.face_rays: (p.automorphic.reason, p.spectral.reason)
               for p in fwd.pairs}
    assert reasons[()] == (VANISHED_CUSPIDALITY, VANISHED_DOMINATED)
    assert reasons[((1, 2),)] == (VANISHED_TRIVIALITY, VANISHED_NOT_FIXED)
    # The mirror direction: the non-unitary specialization makes the
    # dense/full pair divergent on both sides, matching statuses.
    assert bwd.equal
    statuses = {p.face_rays: p.automorphic.status for p in bwd.pairs}
    assert statuses[()] == "divergent"


def test_orbitwise_duality_formal_characters():
    for datum in (TATE, QUADRIC, ORTHANT):
        pair = toric_dual(datum)
        chi = formal_character(datum.rank)
        fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2), chi, 6)
        assert fwd.equal and bwd.equal
        # Only the dense/full pair is nonzero for a generic character.
        nonzero = [p for p in fwd.pairs if not p.automorphic.vanished]
        assert len(nonzero) == 1
        assert nonzero[0].face_rays == ()


def degenerate(chi, datum):
    psi = chi.shift_u(datum.eta)
    basis = [tuple(1 if i == j else 0 for i in range(datum.rank))
             for j in range(datum.rank)]
    return psi.is_trivial_on_all(basis)


def test_cuspidal_iff_generic_random():
    # The identity extended parameter is excluded: the fixed locus is then
    # all of the dual variety and the spectral period is undefined.
    rng = random.Random(20250808)
    for datum in (TATE, QUADRIC, ORTHANT, SQUARE3D):
        pair = toric_dual(datum)
        count = 0
        while count < 200:
            chi = random_character(rng, datum.rank)
            if degenerate(chi, datum):
                continue
            count += 1
            cusp, _ = is_cuspidal(datum, chi)
            gen, _ = is_generic(pair.side_xcheck, chi)
            assert cusp == gen, (datum, chi)


def test_vanishing_duality_random():
    rng = random.Random(424243)
    pair = toric_dual(QUADRIC)
    for _ in range(40):
        chi = random_character(rng, 2)
        if degenerate(chi, QUADRIC):
            continue
        fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2), chi, 3)
        for p in fwd.pairs + bwd.pairs:
            assert p.automorphic.status == p.spectral.status


@st.composite
def cones_and_slopes(draw):
    """(generators, N, (root exponent, u-slope) of psi per coordinate) at rank <= 3."""
    rank = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank),
                         min_size=rank, max_size=rank + 2))
    order = draw(st.sampled_from((1, 2, 3, 4, 6)))
    specs = draw(st.lists(st.tuples(st.integers(0, order - 1), st.integers(-1, 1)),
                          min_size=rank, max_size=rank))
    return gens, order, specs


def _reason(contribution):
    return contribution.reason if contribution.vanished else None


@given(cones_and_slopes())
# psi kills the ray (1,0): the dense orbit is not relatively cuspidal, and
# on the dual side the full face is dominated.
@example(([(1, 0), (1, 2)], 1, [(0, 0), (0, 1)]))
@settings(max_examples=80, deadline=None)
def test_support_rules_match_their_oracles(case):
    gens, order, specs = case
    try:
        cone = make_cone(gens, len(specs))
    except NotStronglyConvex:
        assume(False)
    assume(cone.full_dimensional)
    # Graded by the sums of its rays and of its facets, which are interior
    # and pole-free; chi is drawn through psi = chi.shift_u(eta).
    datum = GradedToricDatum(cone, tuple(map(sum, zip(*cone.rays))),
                             tuple(map(sum, zip(*cone.facets))))
    pair = toric_dual(datum)
    chi = character_from_spec(specs, order).shift_u(tuple(-e for e in datum.eta))
    sides = ((pair.side_x, pair.side_xcheck), (pair.side_xcheck, pair.side_x))
    built = []
    is_trivial_on_all = Character.is_trivial_on_all

    def spy(psi, vectors):
        built.append(psi)
        return is_trivial_on_all(psi, vectors)

    with periods.euler_memo(), mock.patch.object(Character, "is_trivial_on_all", spy):
        reports = verify_langlands_dual_periods(pair, Curve(q=2), chi, 0)
        assert verify_langlands_dual_periods(pair, Curve(q=2), chi, 0) == reports
        predicates = [(is_cuspidal(aut, chi), is_generic(spec, chi)) for aut, spec in sides]
    # Each face is tested once per face set: one stabilized and one fixed
    # set per (cone, psi) serve both runs and the predicates.
    sets = ({("stabilized", aut.cone, chi.shift_u(aut.eta)) for aut, _ in sides}
            | {("fixed", spec.cone, chi.shift_u(spec.rho)) for _, spec in sides})
    assert len(built) == sum(len(faces(c).faces) for _, c, _ in sets)
    for report, (aut, spec), (cuspidal, generic) in zip(reports, sides, predicates):
        aut_psi, spec_psi = chi.shift_u(aut.eta), chi.shift_u(spec.rho)
        aut_faces, spec_faces = faces(aut.cone), faces(spec.cone)
        for p in report.pairs:
            assert _reason(p.automorphic) == automorphic_support(
                aut.cone, aut_psi, aut_faces.index(p.face_rays))
            assert _reason(p.spectral) == spectral_support(
                spec.cone, spec_psi, spec_faces.index(p.dual_face_rays))
            if not degenerate(chi, aut):
                assert p.automorphic.status == p.spectral.status
        assert cuspidal[1] == closure_cuspidality_witness(aut.cone, aut_psi)
        assert list(generic[1]) == [
            face for k, face in enumerate(spec_faces.faces)
            if spectral_support(spec.cone, spec_psi, k) != VANISHED_NOT_FIXED]
        if not degenerate(chi, aut):
            assert cuspidal[0] == generic[0]


def _replace_bindings(monkeypatch, original, wrapper):
    """Bind wrapper wherever the package binds original."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "toricperiods":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("name", ("square_cone_3d", "quadric_cone"))
def test_orbit_contributions_take_factors_from_their_own_engine(monkeypatch, name):
    # The orbit check compares two independent computations only if the
    # automorphic contribution's Euler product is fed by the box scan and
    # the spectral one's by the level sets; a shared enumeration would
    # make every computed pair agree by construction.
    inside = []   # the contribution being computed, innermost last
    made = []     # (engine side, factor) of the current class factor
    fed = []      # (contribution side, engine sides, identical) per class factor
    computed = {"automorphic": 0, "spectral": 0}
    products = {"automorphic": 0, "spectral": 0}

    def engine_spy(side, original):
        def spy(*args):
            factor = original(*args)
            made.append((side, factor))
            return factor
        return spy

    def contribution_spy(side, original):
        def spy(*args):
            inside.append(side)
            try:
                result = original(*args)
            finally:
                inside.pop()
            computed[side] += result.status == "computed"
            return result
        return spy

    def euler_spy(original):
        def spy(local_factor, *args):
            if not inside:
                return original(local_factor, *args)
            side = inside[-1]
            products[side] += 1

            def checked(g):
                made.clear()
                factor = local_factor(g)
                fed.append((side, tuple(s for s, _ in made),
                            all(f is factor for _, f in made)))
                return factor
            return original(checked, *args)
        return spy

    for side, engine, contribution in (
            ("automorphic", periods.automorphic_local_factor,
             regularization.regularized_automorphic_contribution),
            ("spectral", periods.spectral_local_factor,
             regularization.regularized_spectral_contribution)):
        _replace_bindings(monkeypatch, engine, engine_spy(side, engine))
        _replace_bindings(monkeypatch, contribution,
                          contribution_spy(side, contribution))
    _replace_bindings(monkeypatch, periods.euler_product,
                      euler_spy(periods.euler_product))
    sc = parse_scenario(catalog_emit(name, order=6))
    pair = sc.build_pair()
    for spec in sc.characters:
        chi = spec.build(sc.cyclotomic_order, sc.rank)
        for report in verify_langlands_dual_periods(pair, sc.curve, chi, 6):
            assert report.equal
    assert computed["automorphic"] > 0 and computed["spectral"] > 0
    assert products == computed
    assert fed
    for side, engines, identical in fed:
        assert engines == (side,) and identical, (side, engines)
