import random
import sys

import pytest

from toricperiods import cones, intlinalg, periods, regularization
from toricperiods.characters import character_from_spec, formal_character
from toricperiods.cones import NotAFace, face_of, make_cone
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
    assert len(fixed) == 1 and fixed[0].dim() == 2


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


def test_face_lattice_data_computed_once_per_cone(monkeypatch):
    calls = []

    def counting(original):
        def wrapper(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapper

    # Replace every binding in the package, not just the defining one.
    for original in (intlinalg.saturate_sublattice, intlinalg.annihilator_basis):
        wrapper = counting(original)
        for name, module in list(sys.modules.items()):
            if (name.partition(".")[0] == "toricperiods"
                    and getattr(module, original.__name__, None) is original):
                monkeypatch.setattr(module, original.__name__, wrapper)
    cones.faces.cache_clear()
    pair = toric_dual(SQUARE3D)
    # This character reaches the cuspidality test of every orbit closure,
    # so the first run builds every face lattice the second one reads.
    degenerate = character_from_spec([(0, -1), (0, -1), (0, -2)], order=1,
                                     nvars=3)
    verify_langlands_dual_periods(pair, Curve(q=2), degenerate, 4)
    assert calls
    calls.clear()
    chi = character_from_spec([(0, -1), "formal", (1, 0)], order=2, nvars=3)
    fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2), chi, 4)
    assert fwd.nonzero_pairs() and bwd.nonzero_pairs()
    assert calls == []


def test_orbit_quotients_built_only_past_the_support_test(monkeypatch):
    calls = []
    original = intlinalg.quotient_lattice

    def quotient_lattice(*args):
        calls.append(args)
        return original(*args)

    # Replace every binding in the package, not just the defining one.
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "toricperiods"
                and getattr(module, "quotient_lattice", None) is original):
            monkeypatch.setattr(module, "quotient_lattice", quotient_lattice)
    pair = toric_dual(SQUARE3D)
    reports = verify_langlands_dual_periods(pair, Curve(q=2),
                                            formal_character(3), 4)
    pairs = [p for report in reports for p in report.pairs]
    # One quotient per automorphic orbit that passes the triviality test
    # and one per spectral orbit that is fixed and not dominated; the 20
    # faces of the two automorphic sides build none up front.
    expected = (sum(p.automorphic.reason != VANISHED_TRIVIALITY for p in pairs)
                + sum(not p.spectral.vanished for p in pairs))
    assert len(pairs) == 20
    assert len(calls) == expected == 4
    calls.clear()
    for datum in (pair.side_x, pair.side_xcheck):
        is_cuspidal(datum, formal_character(3))
    assert calls == []


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
        assert len(fwd.nonzero_pairs()) == 1
        assert fwd.nonzero_pairs()[0].face_rays == ()


def sample_character(rng, rank, order=4):
    return character_from_spec(
        [(rng.randrange(order), rng.randint(-2, 2)) for _ in range(rank)],
        order=order, nvars=rank)


def degenerate(chi, datum):
    from toricperiods.characters import extended_character
    psi = extended_character(chi, datum.eta)
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
            chi = sample_character(rng, datum.rank)
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
        chi = sample_character(rng, 2)
        if degenerate(chi, QUADRIC):
            continue
        fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2), chi, 3)
        for p in fwd.pairs + bwd.pairs:
            assert p.automorphic.status == p.spectral.status


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
