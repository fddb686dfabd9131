import pytest

from toricperiods.characters import character_from_spec, formal_character
from toricperiods.cones import NotPositiveGrading, make_cone
from toricperiods.curve import Curve, zeta_series
from toricperiods.cyclotomic import Cyc
from toricperiods.duality import GradedToricDatum
from toricperiods.heights import (
    height_fourier_global,
    height_fourier_local,
    make_height,
)
from toricperiods.periods import automorphic_local_factor, certified

HALF_LINE = make_height([[(1,)]], [(1,)], 1)
COMPLETE_LINE = make_height([[(1,)], [(-1,)]], [(1,), (-1,)], 1)


def test_continuity_enforced():
    # Two half-planes sharing the ray (0,1): slopes must agree there.
    with pytest.raises(ValueError):
        make_height([[(1, 0), (0, 1)], [(-1, 0), (0, 1)]],
                    [(1, 1), (1, 2)], 2)
    # Agreeing on the shared ray is accepted.
    make_height([[(1, 0), (0, 1)], [(-1, 0), (0, 1)]],
                [(1, 1), (-1, 1)], 2)


def test_local_transform_half_line():
    chi = formal_character(1)
    f = height_fourier_local(HALF_LINE, chi, 1, 6)
    for lam in range(4):
        assert f.coefficient(2 * lam) == {(lam,): Cyc.one(1)}
        if lam:
            assert f.coefficient(2 * lam - 1) == {}


def test_local_transform_complete_fan():
    chi = formal_character(1)
    f = height_fourier_local(COMPLETE_LINE, chi, 1, 4)
    assert f.coefficient(0) == {(0,): Cyc.one(1)}
    assert f.coefficient(2) == {(1,): Cyc.one(1), (-1,): Cyc.one(1)}
    assert f.coefficient(4) == {(2,): Cyc.one(1), (-2,): Cyc.one(1)}


def test_zero_slope_rejected():
    flat = make_height([[(1,)]], [(0,)], 1)
    with pytest.raises(NotPositiveGrading):
        height_fourier_local(flat, formal_character(1), 1, 4)


def test_global_transform_matches_zeta_substitution():
    chi = formal_character(1)
    g = height_fourier_global(HALF_LINE, Curve(q=2), chi, 4)
    zeta = zeta_series(Curve(q=2), 2)
    for m in range(3):
        expected = zeta.coefficient(m)[()]
        assert g.coefficient(2 * m) == {(m,): expected}
        if m:
            assert g.coefficient(2 * m - 1) == {}


def test_global_complete_fan_degree_one_term():
    g = height_fourier_global(COMPLETE_LINE, Curve(q=2), formal_character(1), 2)
    assert g.coefficient(2) == {(1,): Cyc.rational(3, 1), (-1,): Cyc.rational(3, 1)}


def test_trivial_fan():
    point = make_height([[]], [(0,)], 1)
    g = height_fourier_global(point, Curve(q=2), formal_character(1), 4)
    assert g.coefficient(0) == {(0,): Cyc.one(1)}
    assert all(g.coefficient(m) == {} for m in range(1, 5))


def bridge_case(datum, slope):
    """Local transform on the cone's face fan with slope eta/2 equals the
    automorphic local factor with the doubled eigenform, exactly."""
    fan = make_height([datum.cone.rays], [slope], datum.cone.ambient_rank)
    chi = formal_character(datum.rank)
    for deg in (1, 2, 3):
        lhs = height_fourier_local(fan, chi, deg, 8)
        rhs = automorphic_local_factor(
            datum.cone, certified(datum.cone, chi.shift_u(datum.eta)), deg, 8)
        assert lhs.first_mismatch(rhs) is None, deg


def test_bridge_tate_doubled():
    datum = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(2,))
    bridge_case(datum, (1,))


def test_bridge_orthant_doubled():
    datum = GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]),
                             rho=(1, 1), eta=(2, 2))
    bridge_case(datum, (1, 1))


def test_bridge_odd_eta_via_substitution():
    # For odd eta, the transform with slope eta relates to the automorphic
    # factor by doubling the u-exponent: alf(u) under u -> u^2, z fixed.
    datum = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
    fan = make_height([[(1,)]], [(1,)], 1)
    chi = formal_character(1)
    lhs = height_fourier_local(fan, chi, 1, 8)
    rhs = automorphic_local_factor(
        datum.cone, certified(datum.cone, chi.shift_u(datum.eta)), 1, 4)
    # Double only the u-exponents of rhs: coefficient at 2m matches.
    for m in range(5):
        assert lhs.coefficient(2 * m) == rhs.coefficient(m)


def test_antipodal_symmetry():
    # The complete symmetric fan transform is invariant under inverting
    # the character.
    chi = character_from_spec([(1, 0)], order=4)
    inv = character_from_spec([(3, 0)], order=4)
    a = height_fourier_local(COMPLETE_LINE, chi, 1, 6)
    b = height_fourier_local(COMPLETE_LINE, inv, 1, 6)
    assert a.first_mismatch(b) is None


def test_specialized_character_combined_weight():
    chi = character_from_spec([(0, -1)], order=1)
    f = height_fourier_local(HALF_LINE, chi, 1, 6)
    # Combined weight 2*1 - 1 = 1: the point lam contributes u^lam.
    assert f.coefficient(1) == {(0,): Cyc.one(1)}
    assert f.coefficient(2) == {(0,): Cyc.one(1)}


def test_global_transform_keeps_points_below_the_ray_minimum():
    # (1,0) sits in cone((2,1),(2,-1)) at slope value 1, half of every
    # ray's value; a degree bound read off the rays would drop its
    # degree-2 contribution at u^4.
    from toricperiods.periods import euler_product
    h = make_height([[(2, 1), (2, -1)]], [(1, 0)], 2)
    chi = formal_character(2)
    g = height_fourier_global(h, Curve(q=2), chi, 6)
    full = euler_product(lambda d: height_fourier_local(h, chi, d, 6),
                         Curve(q=2), 6, (2, 1))
    assert g.first_mismatch(full) is None
    assert g.coefficient(4)[(2, 0)] == Cyc.rational(7, 1)
