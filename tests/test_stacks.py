import random
from functools import reduce
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import add, determinant, lattice_index, lift_periods_per_lift, solve_integer
from toricperiods import stacks
from toricperiods.characters import Character, character_from_spec, formal_character
from toricperiods.cones import make_cone
from toricperiods.curve import Curve, is_prime_power
from toricperiods.cyclotomic import Cyc
from toricperiods.duality import GradedToricDatum, toric_dual
from toricperiods.intlinalg import LatticeMap, dot
from toricperiods.periods import automorphic_period, spectral_period
from toricperiods.series import EXACT, Monomial, TruncatedSeries
from toricperiods.stacks import (
    IncompatibleField,
    MissingRoots,
    _pulled_back_cone,
    _rescaling,
    lift_sum,
    make_isogeny,
    stack_spectral_period_unramified,
    torsion_twists,
    unramified_automorphic_period_direct,
    unramified_automorphic_period_liftsum,
    unramified_lifts,
    verify_stack_duality,
)

TATE = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
ORTHANT = GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]), rho=(1, 1), eta=(1, 1))
TATE_PAIR = toric_dual(TATE)


def test_isogeny_invariants():
    iso = make_isogeny([[2]])
    assert iso.index == 2 and iso.invariants == (2,) and iso.exponent == 2
    iso2 = make_isogeny([[2, 0], [0, 3]])
    assert iso2.index == 6 and iso2.invariants == (6,)
    ident = make_isogeny([[1, 0], [0, 1]])
    assert ident.index == 1 and ident.invariants == () and ident.exponent == 1
    with pytest.raises(ValueError):
        make_isogeny([[1, 1], [1, 1]])


def test_curve_compatibility():
    with pytest.raises(IncompatibleField):
        verify_stack_duality(TATE_PAIR, make_isogeny([[2]]), Curve(q=2),
                             formal_character(1, 2), 4)
    # q = 2 against n = 3 likewise fails (2 != 1 mod 3).
    with pytest.raises(IncompatibleField):
        verify_stack_duality(TATE_PAIR, make_isogeny([[3]]), Curve(q=2),
                             formal_character(1, 3), 4)


def test_pulled_back_cone_is_the_preimage():
    # The direct model's small cone: lambda is in it exactly when
    # inclusion(lambda) is in the covering cone.
    for m in ([[2, 1], [-1, 3]], [[2, 1], [0, 3]]):
        iso = make_isogeny(m)
        for cover in (make_cone([(1, 0), (0, 1)]), make_cone([(1, 0), (1, 2)])):
            small = _pulled_back_cone(iso, cover)
            assert small.strongly_convex and small.full_dimensional
            for lam in _box(2, 6):
                assert small.contains(lam) == cover.contains(
                    iso.inclusion.apply(lam)), (m, cover, lam)


def test_isogeny_invariants_against_determinant():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 3)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        det = determinant(m)
        if det == 0:
            with pytest.raises(ValueError):
                make_isogeny(m)
            continue
        iso = make_isogeny(m)
        assert iso.index == abs(det) == lattice_index(LatticeMap(n, n, m))
        assert prod(iso.invariants) == iso.index


def test_torsion_twists_fourier_inversion():
    # (1/m) sum of twists is the indicator of the image lattice.
    for mat in ([[2]], [[3]], [[2, 0], [0, 2]], [[2, 1], [0, 3]]):
        iso = make_isogeny(mat)
        order = iso.exponent if iso.exponent > 1 else 1
        twists = torsion_twists(iso, order)
        assert len(twists) == iso.index
        n = iso.rank
        for y in _box(n, 3):
            total = Cyc.rational(0, order)
            for t in twists:
                zeta = sum(m.zeta * c for m, c in zip(t, y))
                total = total + Cyc.root_power(zeta, order)
            in_image = _in_image(iso, y)
            expected = Cyc.rational(iso.index if in_image else 0, order)
            assert total == expected, (mat, y)


def _box(n, b):
    from itertools import product
    return product(range(-b, b + 1), repeat=n)


def _in_image(iso, y):
    cols = [iso.inclusion.column(j) for j in range(iso.rank)]
    return solve_integer(cols, tuple(y)) is not None


def test_unramified_lifts_weight_two():
    iso = make_isogeny([[2]])
    w = formal_character(1, 2)
    lifts = unramified_lifts(iso, w)
    assert len(lifts) == 2
    values = sorted(m.coords[0].zeta for m in lifts)
    assert values == [0, 1]  # w and -w


def test_unramified_lifts_weight_three():
    iso = make_isogeny([[3]])
    w = formal_character(1, 3)
    lifts = unramified_lifts(iso, w)
    assert len(lifts) == 3
    assert sorted(m.coords[0].zeta for m in lifts) == [0, 1, 2]
    with pytest.raises(MissingRoots):
        unramified_lifts(iso, formal_character(1, 2))
    with pytest.raises(ValueError, match="wrong rank"):
        unramified_lifts(iso, formal_character(2, 3))


def test_lift_restriction_check():
    iso = make_isogeny([[2]])
    w = formal_character(1, 2)
    chi = w.compose(iso.inclusion)
    assert chi.coords[0] == Monomial(0, 0, (2,))
    # Every lift restricts to the base lift's restriction.
    for lift in unramified_lifts(iso, w):
        assert lift.compose(iso.inclusion).coords == chi.coords


def test_lifts_agree_on_degrees_killed_by_exponent():
    iso = make_isogeny([[3]])
    lifts = unramified_lifts(iso, formal_character(1, 3))
    for lam in ((1,), (2,), (-1,)):
        vals = {m.value(lam, 3) for m in lifts}
        assert len(vals) == 1
        vals2 = {(m.value(lam, 1).zeta % 3, m.value(lam, 1).z)
                 for m in lifts}
        assert len(vals2) == 3


def test_pullback_doubles_degree():
    iso = make_isogeny([[2]])
    chi = formal_character(1, 2)
    pulled = chi.compose(iso.transpose)
    assert pulled.coords[0] == Monomial(0, 0, (2,))
    rank_two = make_isogeny([[2, 1], [0, 3]])
    assert rank_two.transpose.matrix == ((2, 0), (1, 3))


def test_index_one_degenerations():
    iso = make_isogeny([[1]])
    curve = Curve(q=2)
    chi = formal_character(1)
    lifts = unramified_lifts(iso, chi)
    assert chi.compose(iso.transpose) == chi
    assert [lift.coords for lift in lifts] == [chi.coords]
    assert stack_spectral_period_unramified(TATE_PAIR, curve, lifts, 6) == \
        spectral_period(TATE_PAIR.side_xcheck, curve, chi, 6)
    liftsum = unramified_automorphic_period_liftsum(TATE_PAIR, curve, lifts, 6)
    assert liftsum == automorphic_period(TATE_PAIR.side_x, curve, chi, 6)
    direct = unramified_automorphic_period_direct(TATE_PAIR, iso, curve, chi, 6)
    assert direct.first_mismatch(liftsum) is None


def test_weight_two_series_against_closed_form():
    # Frozen from the divisor-count closed form: the average of the two
    # twisted products keeps exactly the odd-degree terms,
    # sum_{m odd} h_m w^(m+1) u^m with h_m = (q^(m+1)-1)/(q-1).
    iso = make_isogeny([[2]])
    curve = Curve(q=3)
    w = formal_character(1, 2)
    lhs = unramified_automorphic_period_liftsum(
        TATE_PAIR, curve, unramified_lifts(iso, w), 6)
    expected = {1: 4, 3: 40, 5: 364}
    for m in range(7):
        coeff = lhs.coefficient(m)
        if m in expected:
            assert coeff == {(m + 1,): Cyc.rational(expected[m], 2)}
        else:
            assert coeff == {}
    # Lift-family independence: replacing the base lift by its twist.
    other = w.twist(torsion_twists(iso, 2)[1])
    assert stack_spectral_period_unramified(
        TATE_PAIR, curve, unramified_lifts(iso, other), 6) == \
        stack_spectral_period_unramified(TATE_PAIR, curve, unramified_lifts(iso, w), 6)


def test_weight_three_sum_keeps_multiples_of_three():
    curve = Curve(q=4)
    lifts = unramified_lifts(make_isogeny([[3]]), formal_character(1, 3))
    rhs = stack_spectral_period_unramified(TATE_PAIR, curve, lifts, 6)
    h = lambda m: (4 ** (m + 1) - 1) // 3
    for m in range(7):
        coeff = rhs.coefficient(m)
        if (m + 1) % 3 == 0:
            assert coeff == {(m + 1,): Cyc.rational(3 * h(m), 3)}, m
        else:
            assert coeff == {}


def test_verify_stack_duality():
    for n, q in ((2, 3), (3, 4)):
        rep = verify_stack_duality(TATE_PAIR, make_isogeny([[n]]), Curve(q=q),
                                   formal_character(1, n), 10)
        assert rep.equal
        assert rep.index == n
        assert rep.discrepancy == 0
        # The experimental direct sum is recorded but not asserted equal.
        assert rep.direct_comparison is not None
    with pytest.raises(ValueError, match="isogeny rank does not match"):
        verify_stack_duality(TATE_PAIR, make_isogeny([[2, 0], [0, 1]]), Curve(q=3),
                             formal_character(2, 2), 6)


def test_stack_duality_rank_two_isogeny():
    rep = verify_stack_duality(toric_dual(ORTHANT), make_isogeny([[2, 0], [0, 1]]),
                               Curve(q=3), formal_character(2, 2), 6)
    assert rep.equal


@pytest.mark.parametrize("datum, matrix, q, order", [
    (TATE, [[3]], 4, 3),
    (ORTHANT, [[2, 1], [0, 3]], 7, 6),
], ids=["weight-3", "orthant-2-1-0-3"])
def test_one_lift_family_per_character(monkeypatch, datum, matrix, q, order):
    calls = {"unramified_lifts": 0, "torsion_twists": 0}
    for name in calls:
        def spy(*args, _original=getattr(stacks, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(stacks, name, spy)
    rep = verify_stack_duality(toric_dual(datum), make_isogeny(matrix), Curve(q=q),
                               formal_character(datum.rank, order), 6)
    assert rep.equal
    assert calls == {"unramified_lifts": 1, "torsion_twists": 1}


def test_vectors_must_be_integral():
    from fractions import Fraction as F
    with pytest.raises(ValueError):
        GradedToricDatum(cone=make_cone([(1,)]), rho=(F(1, 2),), eta=(1,))


def test_liftsum_independent_of_base_extension():
    iso = make_isogeny([[2]])
    curve = Curve(q=3)
    w = formal_character(1, 2)
    swapped = w.twist(torsion_twists(iso, 2)[1])
    a = unramified_automorphic_period_liftsum(TATE_PAIR, curve, unramified_lifts(iso, w), 6)
    b = unramified_automorphic_period_liftsum(
        TATE_PAIR, curve, unramified_lifts(iso, swapped), 6)
    assert a == b


# --- one period per coset of rescalings -----------------------------------

PAIRS = {1: TATE_PAIR, 2: toric_dual(ORTHANT)}
PERIODS = {"automorphic": (automorphic_period, "side_x"),
           "spectral": (spectral_period, "side_xcheck")}


@st.composite
def lift_families(draw):
    """(pair, curve, lifts, U): the lift family of a base lift zeta^j u^c z^e per coordinate.

    e is zero, a unit vector, twice one or the sum of all of them, so a
    coordinate is a root of unity, formal, formal times a root, or a
    monomial that z-rescaling cannot read s off; c >= 0 keeps both
    periods convergent.  A formal coordinate beside a root of unity gives
    families whose cosets of rescalings hold more than one lift and
    leave some lifts unreached.
    """
    matrix = draw(st.sampled_from([[[n]] for n in range(1, 13)]
                                  + [[[2, 1], [0, 3]], [[2, 0], [0, 3]]]))
    iso = make_isogeny(matrix)
    order = iso.exponent * draw(st.integers(1, 2))
    q = draw(st.sampled_from([q for q in range(2, 50)
                              if is_prime_power(q) and q % iso.exponent == 1 % iso.exponent]))
    rank = iso.rank
    units = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    exponents = [(0,) * rank, *units, tuple(2 * x for x in units[0]),
                 tuple(map(sum, zip(*units)))]
    coord = st.builds(Monomial, st.integers(0, order - 1), st.integers(0, 2),
                      st.sampled_from(exponents))
    base = Character(order, rank, tuple(draw(coord) for _ in range(rank)))
    return PAIRS[rank], Curve(q=q), unramified_lifts(iso, base), draw(st.integers(0, 6))


# (z_1, zeta) at order 12: the lifts are (+-z_1, zeta^j) for odd j, one
# sign each, and no rescaling maps one onto another: six cosets of one.
ORTHANT_FAMILY = (PAIRS[2], Curve(q=7), unramified_lifts(
    make_isogeny([[2, 1], [0, 3]]), character_from_spec(["formal", (1, 0)], 12)), 6)
# (zeta z_1, 1) at order 6: the lifts are (zeta z_1, zeta^(2j)) and
# (zeta^4 z_1, zeta^(2j+1)), each with its own root on the coordinate that
# has no z, so every lift is computed.
ZETA_Z_FAMILY = (PAIRS[2], Curve(q=7), unramified_lifts(
    make_isogeny([[2, 1], [0, 3]]),
    Character(6, 2, (Monomial(1, 0, (1, 0)), Monomial(0, 0, (0, 0))))), 6)
# (z_1, zeta) at order 6: the lifts are (+-z_1, zeta^(2j+1)).  z_1 -> -z_1
# pairs them, so three cosets of |H| = 2 are computed and the automorphic
# sum is scaled by 2/6 once.
SPLIT_FAMILY = (PAIRS[2], Curve(q=7), unramified_lifts(
    make_isogeny([[2, 0], [0, 3]]), character_from_spec(["formal", (1, 0)], 6)), 6)
# z_1 at order 7: z_1 -> zeta^s z_1 reaches every lift, with s of order 7,
# so -s differs from s.
WEIGHT_SEVEN_FAMILY = (PAIRS[1], Curve(q=8), unramified_lifts(
    make_isogeny([[7]]), formal_character(1, 7)), 6)


def _den(kind, lifts):
    return len(lifts) if kind == "automorphic" else 1


@pytest.mark.parametrize("kind", sorted(PERIODS))
@settings(max_examples=60, deadline=None)
@given(family=lift_families())
@example(family=ORTHANT_FAMILY)
@example(family=ZETA_Z_FAMILY)
@example(family=SPLIT_FAMILY)
def test_lift_sums_against_one_period_per_lift(kind, family):
    pair, curve, lifts, order = family
    period, side = PERIODS[kind]
    datum = getattr(pair, side)
    den = _den(kind, lifts)
    want = reduce(add, lift_periods_per_lift(period, datum, curve, lifts, order))
    want = want.scale(1, den)
    assert lift_sum(period, datum, curve, lifts, order, den) == want
    public = (unramified_automorphic_period_liftsum if kind == "automorphic"
              else stack_spectral_period_unramified)
    assert public(pair, curve, lifts, order) == want


@settings(max_examples=60, deadline=None)
@given(family=lift_families())
@example(family=ORTHANT_FAMILY)
@example(family=WEIGHT_SEVEN_FAMILY)
def test_automorphism_maps_the_source_onto_the_target(family):
    # A lift sum cannot see a flipped s (s and -s fix the same z^e), so
    # apply each rescaling z_i -> zeta^(s_i) z_i to the coordinates directly.
    lifts = family[2]
    n = lifts[0].order
    for source in lifts:
        for target in lifts:
            s = _rescaling(source, target)
            if s is None:
                continue
            assert len(s) == source.nvars
            for a, b in zip(source.coords, target.coords):
                assert (a.u, a.z) == (b.u, b.z)
                assert (a.zeta + dot(s, a.z) - b.zeta) % n == 0


def _completed(period, seed):
    """period, with one to three rows of in-ring terms added above each result's trunc."""
    rng = random.Random(seed)

    def completed(datum, curve, lift, order):
        series = period(datum, curve, lift, order)
        n, nvars = series.order, series.nvars
        above = tuple(
            (series.trunc + step, (
                (tuple(rng.randint(-3, 3) for _ in range(nvars)),
                 Cyc.root_power(rng.randrange(n), n) * rng.randint(1, 5)),))
            for step in sorted(rng.sample(range(1, 4), rng.randint(1, 3))))
        return TruncatedSeries(nvars, n, EXACT, series.coeffs + above)
    return completed


@pytest.mark.parametrize("kind", sorted(PERIODS))
@settings(max_examples=30, deadline=None)
@given(family=lift_families(), seed=st.integers(0, 2 ** 16))
@example(family=ORTHANT_FAMILY, seed=0)
@example(family=ZETA_Z_FAMILY, seed=1)
@example(family=SPLIT_FAMILY, seed=2)
def test_lift_sum_claims_only_what_the_periods_fix(kind, family, seed):
    pair, curve, lifts, order = family
    period, side = PERIODS[kind]
    datum = getattr(pair, side)
    den = _den(kind, lifts)
    claimed = lift_sum(period, datum, curve, lifts, order, den)
    completed = lift_sum(_completed(period, seed), datum, curve, lifts, order, den)
    assert completed.trunc == EXACT
    rows = [tuple(row for row in s.coeffs if row[0] <= claimed.trunc)
            for s in (claimed, completed)]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("matrix, q, base, calls", [
    # A formal base lift reaches every lift zeta^j z by z -> zeta^j z.
    ([[7]], 8, formal_character(1, 7), 1),
    ([[12]], 13, formal_character(1, 12), 1),
    # zeta and zeta^4 at order 6 have no z to rescale, so each is computed.
    ([[2]], 3, character_from_spec([(1, 0)], 6), 2),
    # ORTHANT_FAMILY: the roots on the second coordinate differ, so each
    # of the six lifts is computed.
    ([[2, 1], [0, 3]], 7, character_from_spec(["formal", (1, 0)], 12), 6),
    # SPLIT_FAMILY: three cosets of two.
    ([[2, 0], [0, 3]], 7, character_from_spec(["formal", (1, 0)], 6), 3),
], ids=["weight-7", "weight-12", "order-6-no-z", "orthant-2-1-0-3", "orthant-2-0-0-3"])
def test_one_period_per_coset(monkeypatch, matrix, q, base, calls):
    lifts = unramified_lifts(make_isogeny(matrix), base)
    pair = PAIRS[base.rank]
    curve = Curve(q=q)
    made = {"automorphic_period": 0, "spectral_period": 0}
    for name in made:
        def spy(*args, _original=getattr(stacks, name), _name=name):
            made[_name] += 1
            return _original(*args)
        monkeypatch.setattr(stacks, name, spy)
    unramified_automorphic_period_liftsum(pair, curve, lifts, 6)
    stack_spectral_period_unramified(pair, curve, lifts, 6)
    assert made == {"automorphic_period": calls, "spectral_period": calls}
