import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricperiods import periods
from toricperiods.characters import character_from_spec, formal_character
from toricperiods.cones import dual_cone, make_cone, points_at_level
from toricperiods.curve import Curve, divisor_count_series
from toricperiods.cyclotomic import Cyc
from toricperiods.duality import GradedToricDatum, toric_dual
from toricperiods.heights import (
    height_fourier_global,
    height_fourier_local,
    make_height,
)
from toricperiods.periods import (
    PositivityViolation,
    automorphic_local_factor,
    automorphic_period,
    engine_input,
    prefactored_period,
    spectral_local_factor,
    spectral_period,
    verify_weak_duality,
)
from toricperiods.series import Monomial, TruncatedSeries

TATE = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
QUADRIC = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(1, 1))
QUADRIC21 = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(2, 1))
ORTHANT = GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]), rho=(1, 1), eta=(1, 1))
SQUARE3D = GradedToricDatum(
    cone=make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
    rho=(1, 1, 2), eta=(1, 0, 1))


def aut_args(datum, chi):
    """(cone, psi, w) of the automorphic engine on datum at chi."""
    return (datum.cone, *engine_input(datum.cone, chi, datum.eta))


def spec_args(datum_check, phi):
    """(monoid cone, psi, w) of the spectral engine on datum_check at phi."""
    monoid = dual_cone(datum_check.cone)
    return (monoid, *engine_input(monoid, phi, datum_check.rho))


def test_tate_local_factor_geometric():
    chi = formal_character(1)
    f = automorphic_local_factor(*aut_args(TATE, chi), 1, 3)
    for k in range(4):
        assert f.coefficient(k) == {(k,): Cyc.one(1)}
    f2 = automorphic_local_factor(*aut_args(TATE, chi), 2, 3)
    assert f2.coefficient(0) == {(0,): Cyc.one(1)}
    assert f2.coefficient(1) == {}
    assert f2.coefficient(2) == {(2,): Cyc.one(1)}
    assert f2.coefficient(3) == {}


def test_quadric_local_factor():
    chi = formal_character(2)
    f = automorphic_local_factor(*aut_args(QUADRIC, chi), 1, 2)
    assert f.coefficient(1) == {(1, 0): Cyc.one(1)}
    assert f.coefficient(2) == {(2, 0): Cyc.one(1), (1, 1): Cyc.one(1)}


def test_spectral_factor_matches_by_independent_path():
    chi = formal_character(1)
    pair = toric_dual(TATE)
    f = spectral_local_factor(*spec_args(pair.side_xcheck, chi), 1, 3)
    g = automorphic_local_factor(*aut_args(TATE, chi), 1, 3)
    assert f.first_mismatch(g) is None
    assert spectral_local_factor(*spec_args(pair.side_xcheck, chi), 1, 0).coefficient(0) \
        == {(0,): Cyc.one(1)}


def test_engine_independence_catalog():
    cases = [(TATE, 1), (ORTHANT, 2), (QUADRIC, 2), (QUADRIC21, 2), (SQUARE3D, 3)]
    for datum, rank in cases:
        chi = formal_character(rank)
        pair = toric_dual(datum)
        for deg in range(1, 7):
            a = automorphic_local_factor(*aut_args(datum, chi), deg, 12)
            s = spectral_local_factor(*spec_args(pair.side_xcheck, chi), deg, 12)
            assert a.first_mismatch(s) is None, (datum, deg)


def test_degree_substitution_property():
    # The degree-d factor is the degree-1 factor under (z, u) -> (z^d, u^d).
    for datum, rank in ((TATE, 1), (QUADRIC, 2), (SQUARE3D, 3)):
        chi = formal_character(rank)
        for d in (2, 3):
            base = automorphic_local_factor(*aut_args(datum, chi), 1, 12 // d)
            subst = base.substitute_u_power(d)
            direct = automorphic_local_factor(*aut_args(datum, chi), d, 12)
            assert direct.first_mismatch(subst) is None


def test_tate_period_counts_effective_divisors():
    chi = formal_character(1)
    for q in (2, 3):
        p = automorphic_period(TATE, Curve(q=q), chi, 3)
        counts = divisor_count_series(Curve(q=q), 3)
        for m in range(4):
            c = p.coefficient(m)
            expected = counts.coefficient(m)[()]
            assert c == {(m + 1,): expected}


def test_period_truncation_zero_is_prefactor():
    chi = formal_character(1)
    p = automorphic_period(TATE, Curve(q=2), chi, 0)
    assert p.coefficient(0) == {(1,): Cyc.one(1)}
    l = spectral_period(toric_dual(TATE).side_xcheck, Curve(q=2), chi, 0)
    assert l.coefficient(0) == {(1,): Cyc.one(1)}


def test_spectral_period_carries_discrepancy_shift():
    pair = toric_dual(QUADRIC21)
    chi = formal_character(2)
    l = spectral_period(pair.side_xcheck, Curve(q=2), chi, 4)
    # epsilon - r = 1: the prefactor sits at u^(+1).
    assert l.low == 1
    assert l.coefficient(1) == {(1, 1): Cyc.one(1)}


def test_weak_duality_tate():
    chi = formal_character(1)
    pair = toric_dual(TATE)
    for q in (2, 3, 5):
        report = verify_weak_duality(pair, Curve(q=q), chi, 10)
        assert report.equal
        assert report.duality_exponent == 0


def test_weak_duality_quadric_and_variant():
    chi = formal_character(2)
    rep = verify_weak_duality(toric_dual(QUADRIC), Curve(q=2), chi, 8)
    assert rep.equal and rep.duality_exponent == 0
    rep21 = verify_weak_duality(toric_dual(QUADRIC21), Curve(q=2), chi, 8)
    assert rep21.equal and rep21.duality_exponent == -1


def test_weak_duality_specialized_character():
    # z1 = zeta_4 u, z2 formal: still a valid positive-weight scenario.
    chi = character_from_spec([(1, 1), "formal"], order=4, nvars=2)
    rep = verify_weak_duality(toric_dual(QUADRIC), Curve(q=2), chi, 8)
    assert rep.equal


def test_monotone_truncation_of_periods():
    chi = formal_character(2)
    small = automorphic_period(QUADRIC, Curve(q=2), chi, 5)
    large = automorphic_period(QUADRIC, Curve(q=2), chi, 9)
    for m in range(6):
        assert small.coefficient(m) == large.coefficient(m)


def test_positivity_violation_raised():
    # z1 = u^{-1} cancels the eigenform weight along the ray (1,0).
    chi = character_from_spec([(0, -1), "formal"], order=1, nvars=2)
    with pytest.raises(PositivityViolation):
        automorphic_local_factor(*aut_args(QUADRIC, chi), 1, 4)
    with pytest.raises(PositivityViolation):
        spectral_local_factor(*spec_args(toric_dual(QUADRIC).side_xcheck, chi), 1, 4)


def test_spectral_level_rescaling_with_negative_slopes():
    # z1 = u^{-1} against eta = (2, 1) keeps the effective weight (1, 1)
    # positive while grading levels outrun the u-bound: the spectral
    # enumeration must walk level sets of the effective weight, not of
    # the grading, to stop exactly at the truncation.
    chi = character_from_spec([(0, -1), "formal"], order=1, nvars=2)
    pair = toric_dual(QUADRIC21)
    for deg in (1, 2):
        a = automorphic_local_factor(*aut_args(QUADRIC21, chi), deg, 8)
        s = spectral_local_factor(*spec_args(pair.side_xcheck, chi), deg, 8)
        assert a.first_mismatch(s) is None
    lhs = automorphic_period(QUADRIC21, Curve(q=2), chi, 8)
    rhs = spectral_period(pair.side_xcheck, Curve(q=2), chi, 8)
    assert lhs.first_mismatch(rhs.shift_u(pair.discrepancy)) is None
    # The mirror direction genuinely diverges for this character: the
    # combined weight is negative on the dual ray (2, -1).
    with pytest.raises(PositivityViolation):
        automorphic_period(pair.side_xcheck, Curve(q=2), chi, 8)


def test_products_keep_points_below_the_ray_minimum():
    # The subunit cone: (1,0) weighs 1 while both rays weigh 2, so a
    # degree bound read off the rays would drop the places of degree > U/2.
    from toricperiods.periods import euler_product
    subunit = GradedToricDatum(cone=make_cone([(2, 1), (2, -1)]),
                               rho=(1, 0), eta=(1, 0))
    chi = formal_character(2)
    tight = automorphic_period(subunit, Curve(q=2), chi, 6)
    full = euler_product(
        lambda d: automorphic_local_factor(*aut_args(subunit, chi), d, 6),
        Curve(q=2), 6, (2, 1)) * TruncatedSeries.from_monomial(
            chi.value(subunit.rho), 2, 1)
    assert tight.first_mismatch(full) is None
    # The same holds for the orbit product and the height transform; a
    # character slope of (1, 0) puts the weight (1, 0) on both.
    sloped = character_from_spec([(0, 1), "formal"], order=1, nvars=2)
    orbit = prefactored_period(
        spectral_local_factor, subunit.cone,
        *engine_input(subunit.cone, sloped, (0, 0)), Monomial(0, 0, (0, 0)),
        Curve(q=2), 6)
    level_sums = euler_product(
        lambda d: TruncatedSeries.from_monomials(
            (sloped.value(pt, d) for level in range(1, 6 // d + 1)
             for pt in points_at_level(subunit.cone, (1, 0), level)),
            2, 1, 6),
        Curve(q=2), 6, (2, 1))
    assert orbit.first_mismatch(level_sums) is None
    flat = make_height([[(2, 1), (2, -1)]], [(0, 0)], 2)
    tight = height_fourier_global(flat, Curve(q=2), sloped, 6)
    full = euler_product(lambda d: height_fourier_local(flat, sloped, d, 6),
                         Curve(q=2), 6, (2, 1))
    assert tight.first_mismatch(full) is None
    # With eigenform (2,1)-style weights every point weighs at least 2,
    # and the two periods still agree.
    pair21 = toric_dual(QUADRIC21)
    a = automorphic_period(QUADRIC21, Curve(q=3), chi, 9)
    s = spectral_period(pair21.side_xcheck, Curve(q=3), chi, 9)
    assert a.first_mismatch(s.shift_u(pair21.discrepancy)) is None


def test_automorphic_period_asks_for_every_class_up_to_the_truncation(monkeypatch):
    # eta = (2, 2) weighs at least 2 on every nonzero point of the quadric
    # cone, so the class-6 factor at U = 10 is exactly 1.  The product
    # still asks for it: the degree range depends on N and U alone.
    heavy = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(2, 2))
    chi = character_from_spec(["formal", "formal"], order=12)
    asked = []

    def recording(cone, psi, w, deg, order):
        asked.append(deg)
        return automorphic_local_factor(cone, psi, w, deg, order)

    monkeypatch.setattr(periods, "automorphic_local_factor", recording)
    got = periods.automorphic_period(heavy, Curve(q=2), chi, 10)
    assert asked == [1, 2, 3, 4, 6]
    assert automorphic_local_factor(*aut_args(heavy, chi), 6, 10) == TruncatedSeries.one(2, 12, 10)
    pair = toric_dual(heavy)
    rhs = spectral_period(pair.side_xcheck, Curve(q=2), chi, 10)
    assert got.first_mismatch(rhs.shift_u(pair.discrepancy)) is None


CATALOG_DATA = (TATE, QUADRIC, QUADRIC21, ORTHANT, SQUARE3D)


@st.composite
def sloped_characters(draw):
    """A catalog datum and a character mixing formal, u-slope and zeta coordinates."""
    datum = draw(st.sampled_from(CATALOG_DATA))
    order = draw(st.sampled_from((1, 2, 3, 4)))
    specs = draw(st.lists(
        st.just("formal") | st.tuples(st.integers(0, order - 1), st.integers(-1, 2)),
        min_size=datum.rank, max_size=datum.rank))
    return datum, character_from_spec(specs, order=order, nvars=datum.rank)


@settings(max_examples=80, deadline=None)
@given(sloped_characters(), st.integers(1, 3), st.integers(0, 8))
def test_engines_agree_off_the_grading(case, deg, trunc):
    # Characters with u-slopes move the effective weight w = rho + slopes
    # away from rho, which the formal characters of criterion 3 never do.
    datum, chi = case
    dual_side = toric_dual(datum).side_xcheck
    try:
        a = automorphic_local_factor(*aut_args(datum, chi), deg, trunc)
        s = spectral_local_factor(*spec_args(dual_side, chi), deg, trunc)
    except PositivityViolation:
        return
    assert a.first_mismatch(s) is None
