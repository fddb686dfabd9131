import random

import pytest

from oracles import divisor_count_series, mobius, mobius_place_counts
from toricperiods.characters import character_from_spec, formal_character
from toricperiods.cones import make_cone
from toricperiods.curve import (
    Curve,
    InvalidSpin,
    is_prime_power,
    place_counts,
    zeta_series,
)
from toricperiods.cyclotomic import Cyc
from toricperiods.duality import GradedToricDatum, toric_dual
from toricperiods.intlinalg import LatticeMap
from toricperiods.periods import automorphic_prefactor, spectral_prefactor
from toricperiods.series import Monomial


def test_place_counts_q2():
    curve = Curve(q=2)
    assert place_counts(curve, 4) == (3, 1, 2, 3)


def test_place_counts_q3():
    assert place_counts(Curve(q=3), 3) == (4, 3, 8)


def test_place_counts_degree_one():
    for q in (2, 3, 4, 5, 7):
        assert place_counts(Curve(q=q), 1) == (q + 1,)


def test_place_counts_match_mobius_inversion():
    for q in (2, 3, 4, 5, 7, 8, 9, 13, 1009):
        curve = Curve(q=q)
        for cutoff in range(1, 41):
            assert place_counts(curve, cutoff) == mobius_place_counts(curve, cutoff), (q, cutoff)


def test_place_counts_mobius_consistency():
    # sum over d | n of d * a_d recovers the point counts.
    for q in (2, 3, 4, 5):
        curve = Curve(q=q)
        table = place_counts(curve, 12)
        for n in range(1, 13):
            total = sum(d * table[d - 1] for d in range(1, n + 1) if n % d == 0)
            assert total == curve.point_count(n)


def test_zeta_series_small():
    s = zeta_series(Curve(q=2), 3)
    assert s.coefficient(0) == {(): Cyc.one(1)}
    assert s.coefficient(1) == {(): Cyc.rational(3, 1)}
    assert s.coefficient(2) == {(): Cyc.rational(7, 1)}
    assert s.coefficient(3) == {(): Cyc.rational(15, 1)}
    t = zeta_series(Curve(q=3), 2)
    assert t.coefficient(1) == {(): Cyc.rational(4, 1)}
    assert t.coefficient(2) == {(): Cyc.rational(13, 1)}
    assert zeta_series(Curve(q=2), 0).coefficient(0) == {(): Cyc.one(1)}


def test_zeta_matches_rational_function():
    # 1/((1-t)(1-qt)) expanded to order 12.
    for q in (2, 3, 5):
        got = zeta_series(Curve(q=q), 12)
        closed = divisor_count_series(Curve(q=q), 12)
        assert got.first_mismatch(closed) is None


def test_curve_rejects_bad_spin():
    with pytest.raises(ValueError):
        Curve(q=2, spin=((1, 0),))
    # A legal override: two marked places with m = -1 and m = 0 elsewhere...
    Curve(q=2, spin=((1, -2), (1, 1)))
    # ...but a place of degree < 1 is refused even at degree sum -2.
    for spin in (((-1, 1),), ((0, 5), (1, -1))):
        with pytest.raises(InvalidSpin) as err:
            Curve(q=2, spin=spin)
        assert err.value.index == 0


def test_curve_requires_a_prime_power():
    def trial_division(q):
        p = next(p for p in range(2, q + 1) if q % p == 0)
        while q % p == 0:
            q //= p
        return q == 1

    for q in range(2, 600):
        assert is_prime_power(q) == trial_division(q), q
    assert not any(is_prime_power(q) for q in (-4, 0, 1))
    assert is_prime_power(3 ** 80) and is_prime_power(2 ** 127 - 1)
    assert not is_prime_power((2 ** 61 - 1) * (2 ** 31 - 1))
    # psi_12 = 318665857834031151167461, the least strong pseudoprime to
    # every prime base up to 37; the base 41 exposes it.
    psi_12 = 399165290221 * 798330580441
    assert not is_prime_power(psi_12)
    for q in (4, 8, 9, 25, 27):
        Curve(q=q)
    for q in (-3, 0, 1, 6, 10, 12, 36, 100, psi_12):
        with pytest.raises(ValueError, match="prime power"):
            Curve(q=q)


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_character_monomial_formal():
    chi = formal_character(1)
    assert chi.value((2,), 3) == Monomial(0, 0, (6,))


def test_character_monomial_specialized():
    chi = character_from_spec([(1, 0)], order=4)
    m = chi.value((1,), 2)
    assert Cyc.root_power(m.zeta, 4) == Cyc.rational(-1, 4)
    chi2 = character_from_spec([(0, -1)], order=1)
    assert chi2.value((1,), 1) == Monomial(0, -1, (0,))


def test_character_multiplicative():
    rng = random.Random(2)
    chi = character_from_spec(["formal", (1, -1), (3, 2)], order=4)
    for _ in range(40):
        lam = tuple(rng.randint(-3, 3) for _ in range(3))
        mu = tuple(rng.randint(-3, 3) for _ in range(3))
        d = rng.randint(1, 4)
        both = chi.value(tuple(a + b for a, b in zip(lam, mu)), d)
        prod = chi.value(lam, d) * chi.value(mu, d)
        assert both.u == prod.u and both.z == prod.z
        assert (both.zeta - prod.zeta) % 4 == 0


def test_character_compose_pullback():
    chi = formal_character(1)
    doubling = LatticeMap(1, 1, ((2,),))
    pulled = chi.compose(doubling)
    assert pulled.coords == (Monomial(0, 0, (2,)),)


def test_extended_character():
    chi = formal_character(2)
    psi = chi.shift_u((1, 3))
    assert (chi.slopes, psi.slopes) == ((0, 0), (1, 3))
    assert psi.value((1, 1)) == Monomial(0, 4, (1, 1))
    assert not psi.is_trivial_on((1, 0))


def test_triviality_detection():
    # z = u^{-1} with eta = 1 makes the combined monomial trivial.
    chi = character_from_spec([(0, -1)], order=1)
    psi = chi.shift_u((1,))
    assert psi.is_trivial_on((1,))
    assert psi.is_trivial_on((5,))


def test_prefactors_tate():
    datum = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
    pair = toric_dual(datum)
    chi = formal_character(1)
    assert automorphic_prefactor(pair.side_x, chi) == Monomial(0, 0, (1,))
    assert spectral_prefactor(pair.side_xcheck, Curve(q=2), chi) == Monomial(0, 0, (1,))
    assert pair.rank - pair.epsilon == 0


def test_prefactors_quadric_eta21():
    datum = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(2, 1))
    pair = toric_dual(datum)
    chi = formal_character(2)
    assert pair.rank - pair.epsilon == -1
    assert automorphic_prefactor(pair.side_x, chi) == Monomial(0, 0, (1, 1))
    # The spectral prefactor carries Delta^{(eps - r)/4} = u^{3-2} = u.
    spec = spectral_prefactor(pair.side_xcheck, Curve(q=2), chi)
    assert spec == Monomial(0, 1, (1, 1))


def test_prefactors_matched_weights_exponent_zero():
    datum = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(1, 1))
    pair = toric_dual(datum)
    assert pair.rank - pair.epsilon == 0
