"""Cross-module cases: higher rank, middle orbits, roots of unity, spin."""

import pytest

from toricperiods.characters import character_from_spec, formal_character
from toricperiods.cones import dual_cone, make_cone
from toricperiods.curve import Curve
from toricperiods.cyclotomic import Cyc
from toricperiods.duality import GradedToricDatum, toric_dual
from toricperiods.periods import (
    automorphic_local_factor,
    automorphic_prefactor,
    engine_input,
    spectral_local_factor,
    spectral_prefactor,
    verify_weak_duality,
)
from toricperiods.regularization import verify_langlands_dual_periods
from toricperiods.series import Monomial
from toricperiods.stacks import induced_pair, make_isogeny, verify_stack_duality

SQUARE_SYM = GradedToricDatum(
    cone=make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
    rho=(1, 1, 2), eta=(1, 1, 1))


def test_spectral_engine_degree_substitution():
    # The spectral factor obeys the same (z, u) -> (z^d, u^d) rule as the
    # automorphic one, via its own enumeration.
    for datum in (SQUARE_SYM,
                  GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]),
                                   rho=(1, 1), eta=(1, 1))):
        pair = toric_dual(datum)
        chi = formal_character(datum.rank)
        monoid = dual_cone(pair.side_xcheck.cone)
        args = (monoid, *engine_input(monoid, chi, pair.side_xcheck.rho))
        base = spectral_local_factor(*args, 1, 4)
        for d in (2, 3):
            direct = spectral_local_factor(*args, d, 12)
            subst = base.substitute_u_power(d)
            assert direct.first_mismatch(subst) is None


def test_rank3_middle_orbit_computed_pair():
    # z3 = 1/u kills the stabilizer of the ray (0,0,1); with the symmetric
    # eigenform the descended weight stays positive, so that orbit pair is
    # computed and must match its dual 2-face, everything else vanishing.
    chi = character_from_spec(["formal", "formal", (0, -1)], order=1, nvars=3)
    pair = toric_dual(SQUARE_SYM)
    assert pair.discrepancy == 3 - 4
    fwd, _ = verify_langlands_dual_periods(pair, Curve(q=2), chi, 6)
    assert fwd.equal
    by_face = {p.face_rays: p for p in fwd.pairs}
    hit = by_face[((0, 0, 1),)]
    assert hit.automorphic.status == "computed"
    assert hit.dual_face_rays == ((0, 1, 0), (1, 0, 0))
    for rays, p in by_face.items():
        if rays != ((0, 0, 1),):
            assert p.automorphic.status == "vanished"
            assert p.spectral.status == "vanished"
    # The surviving Euler factor is a two-variable geometric product; at
    # u^0 the prefactor z1 z2 z3 * u^{<rho,(1,1,1)>...} reduces to
    # z1 z2 u^{3 - 1} shifted by the prefactor's own u-power.
    series = hit.automorphic.series
    low = series.low
    assert series.coefficient(low) == {(1, 1, 0): Cyc.one(1)}


def test_weak_duality_with_root_of_unity_character():
    # Fourth roots of unity flowing through both engines and the verifier.
    quadric = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]),
                               rho=(1, 1), eta=(1, 1))
    pair = toric_dual(quadric)
    chi = character_from_spec([(1, 1), (3, 0)], order=4, nvars=2)
    rep = verify_weak_duality(pair, Curve(q=3), chi, 8)
    assert rep.equal
    f = automorphic_local_factor(
        quadric.cone, *engine_input(quadric.cone, chi, quadric.eta), 1, 4)
    # lambda = (1,0): value zeta * u^{1+1}; check the zeta lands in Q(i).
    assert f.coefficient(2) == {(0, 0): Cyc.root_power(1, 4)}


def test_weak_duality_square_cone_specialized():
    # The slope (0, 0, 1) keeps the effective weight positive on the rays
    # of both cones, so both directions certify.
    chi = character_from_spec([(1, 0), "formal", (2, 1)], order=4, nvars=3)
    pair = toric_dual(SQUARE_SYM)
    rep = verify_weak_duality(pair, Curve(q=2), chi, 8)
    assert rep.equal


def test_nondiagonal_rank2_isogeny():
    # Inclusion [[2,1],[0,3]] has invariants (1,6): needs q = 1 mod 6.
    orthant = GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]),
                               rho=(1, 1), eta=(1, 1))
    iso = make_isogeny([[2, 1], [0, 3]])
    assert iso.invariants == (6,)
    pair = induced_pair(toric_dual(orthant), iso)
    rep = verify_stack_duality(pair, Curve(q=7), formal_character(2, 6), 6)
    assert rep.equal
    assert rep.index == 6


def test_spin_override_keeps_prefactors():
    # Any admissible spin datum keeps the same total degree, hence the
    # same prefactors for unramified characters.
    tate = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
    pair = toric_dual(tate)
    chi = formal_character(1)
    weird_curve = Curve(q=2, spin=((1, -2), (1, 1)))
    assert automorphic_prefactor(pair.side_x, chi) == Monomial(0, 0, (1,))
    default = spectral_prefactor(pair.side_xcheck, Curve(q=2), chi)
    weird = spectral_prefactor(pair.side_xcheck, weird_curve, chi)
    assert default == weird
    rep = verify_weak_duality(pair, Curve(q=2, spin=((1, -2), (1, 1))), chi, 6)
    assert rep.equal


def test_orbitwise_duality_square_cone_formal():
    pair = toric_dual(SQUARE_SYM)
    fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2),
                                             formal_character(3), 5)
    assert fwd.equal and bwd.equal
    assert len(fwd.pairs) == 10


def test_weak_duality_positive_discrepancy():
    # epsilon = 1 < r = 2: the comparison carries u^{+1}; both directions.
    subunit = GradedToricDatum(cone=make_cone([(2, 1), (2, -1)]),
                               rho=(1, 0), eta=(1, 0))
    pair = toric_dual(subunit)
    assert pair.discrepancy == 1
    rep = verify_weak_duality(pair, Curve(q=2), formal_character(2), 8)
    assert rep.equal
    fwd, bwd = verify_langlands_dual_periods(pair, Curve(q=2),
                                             formal_character(2), 5)
    assert fwd.equal and bwd.equal
