from collections import namedtuple
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import add, from_integers, from_monomials
from toricperiods.characters import Character
from toricperiods.cyclotomic import Cyc
from toricperiods.series import EXACT, Monomial, MonomialKeys, TruncatedSeries


def geometric(nvars, order, trunc, zexp=(1,)):
    """1 + z*u + z^2*u^2 + ... as a test workhorse."""
    data = {}
    for k in range(trunc + 1):
        data[k] = {tuple(k * e for e in zexp): Cyc.one(order)}
    return TruncatedSeries.from_dict(data, nvars, order, trunc)


def test_monomial_algebra():
    a = Monomial(1, 2, (3,))
    b = Monomial(2, -1, (0,))
    assert a * b == Monomial(3, 1, (3,))
    assert Monomial.one(2).is_one(4)
    assert Monomial(4, 0, (0,)).is_one(4)
    assert not Monomial(1, 0, (0,)).is_one(4)


def test_from_monomials_buckets_and_cancels():
    # 1 + zeta_2^0 z u + zeta_2^1 z u (cancels) + 2 u^2 + u^5 (beyond trunc)
    mons = [Monomial(0, 1, (1,)), Monomial(1, 1, (1,)), Monomial(0, 2, (0,)),
            Monomial(2, 2, (0,)), Monomial(0, 5, (0,))]
    # The oracle sums them term by term; from_keys counts their packed keys.
    packing = MonomialKeys(2, (1, 2))
    keys = packing.keys(Character(2, 1, tuple(mons)), 1)
    for s in (from_monomials(mons, 1, 2, 4), TruncatedSeries.from_keys(keys, packing, 4)):
        assert s.trunc == 4
        assert s.coeffs == ((0, (((0,), Cyc.one(2)),)), (2, (((0,), Cyc.rational(2, 2)),)))
    assert from_monomials([], 1, 2, 4) == TruncatedSeries.one(1, 2, 4)
    assert TruncatedSeries.from_keys([], packing, 4) == TruncatedSeries.one(1, 2, 4)


def test_add_and_mul_truncate():
    s = geometric(1, 1, 4)
    t = s * s
    # Coefficient of u^k in the square is (k+1) z^k.
    for k in range(5):
        assert t.coefficient(k) == {(k,): Cyc.rational(k + 1, 1)}
    assert t.trunc == 4


def test_mul_truncation_with_shifts():
    s = geometric(1, 1, 4)
    shifted = s.shift_u(-1)
    assert shifted.low == -1
    assert shifted.trunc == 3
    prod = shifted * s
    assert prod.trunc == 3 + 0  # min(3 + 0, 4 + (-1))
    assert prod.coefficient(-1) == {(0,): Cyc.one(1)}


def test_zero_times_a_shift_is_exact_only_as_far_as_known():
    # O(u^6) * u^-2 is O(u^4): exact to u^3, as shift_u(-2) says.
    zero = TruncatedSeries.zero(1, 1, 5)
    mon = TruncatedSeries.from_monomial(Monomial(0, -2, (0,)), 1, 1)
    assert (zero * mon).trunc == (mon * zero).trunc == zero.shift_u(-2).trunc == 3
    assert (zero * mon).is_zero()
    # O(u^6) * (u + z u^2 + O(u^4)) is O(u^7): min(5 + low, 5 + 1 + trunc).
    s = TruncatedSeries.from_dict({1: {(0,): Cyc.one(1)}, 2: {(1,): Cyc.one(1)}}, 1, 1, 3)
    assert (zero * s).trunc == (s * zero).trunc == 6
    # A side known only to u^1 (its row at u^4 is not trusted): O(u^6) * O(u^2).
    vague = TruncatedSeries.from_monomial(Monomial(0, 4, (0,)), 1, 1, 1)
    assert (zero * vague).trunc == (vague * zero).trunc == 7
    # Two zero series keep the smaller order.
    assert (zero * TruncatedSeries.zero(1, 1, 2)).trunc == 2


SHIFT_ORDERS = (1, 2, 3, 4, 7, 12)


def cyc_values(order):
    """Random elements of Q(zeta_order), zero included."""
    coords = st.lists(st.integers(-9, 9), min_size=Cyc.degree(order),
                      max_size=Cyc.degree(order))
    return st.builds(lambda nums, den: from_integers(order, nums, den),
                     coords, st.integers(1, 6))


@st.composite
def shifted_series(draw):
    """(series, monomial): a random series of a random ring and a monomial of it."""
    order = draw(st.sampled_from(SHIFT_ORDERS))
    nvars = draw(st.integers(0, 2))
    zexps = st.tuples(*[st.integers(-3, 3)] * nvars)
    rows = draw(st.dictionaries(st.integers(-3, 6),
                                st.dictionaries(zexps, cyc_values(order), max_size=3),
                                max_size=4))
    trunc = draw(st.integers(-2, 8) | st.just(EXACT))
    series = TruncatedSeries.from_dict(rows, nvars, order, trunc)
    mon = Monomial(draw(st.integers(-2 * order, 2 * order)), draw(st.integers(-4, 4)),
                   draw(zexps))
    return series, mon


@settings(max_examples=150, deadline=None)
@given(shifted_series())
def test_times_monomial_is_the_product_with_the_monomial(case):
    series, mon = case
    shifted = series.times_monomial(mon)
    product = series * TruncatedSeries.from_monomial(mon, series.nvars, series.order)
    assert shifted.coeffs == product.coeffs
    assert shifted.trunc == product.trunc


def test_times_monomial_covers_roots_that_are_one():
    s = geometric(1, 3, 4)
    assert s.times_monomial(Monomial(3, 0, (0,))) == s
    assert s.times_monomial(Monomial(-6, 2, (1,))) == s.shift_u(2).times_monomial(
        Monomial(0, 0, (1,)))
    assert s.times_monomial(Monomial(1, 0, (0,))).coefficient(0) == {
        (0,): Cyc.root_power(1, 3)}
    # A row held above the truncation is dropped, as by the product.
    high = TruncatedSeries.from_monomial(Monomial(0, 7, (0,)), 1, 3, 5)
    down = Monomial(0, -1, (0,))
    assert high.times_monomial(down) == high * TruncatedSeries.from_monomial(down, 1, 3)
    assert high.times_monomial(down).coeffs == ()


def test_monotone_truncation():
    # Recomputing with a larger truncation only extends the series.
    small = geometric(1, 1, 5)
    large = geometric(1, 1, 9)
    for k in range(6):
        assert small.coefficient(k) == large.coefficient(k)


def test_power_binary():
    s = geometric(1, 1, 6)
    assert s.power(0) == TruncatedSeries.one(1, 1, 6)
    p3 = s.power(3)
    explicit = s * s * s
    assert p3.first_mismatch(explicit) is None
    # Large exponents stay exact (binomial coefficients appear).
    p = geometric(1, 1, 3).power(1000)
    assert p.coefficient(1) == {(1,): Cyc.rational(1000, 1)}
    assert p.coefficient(2) == {(2,): Cyc.rational(1000 * 1001 // 2, 1)}


def test_scale_and_subtract():
    s = geometric(1, 1, 3)
    z = add(s, s.scale(-1, 1))
    assert z.is_zero()
    half = s.scale(1, 2)
    assert half.coefficient(0) == {(0,): Cyc.rational(Fraction(1, 2), 1)}


def test_substitute_u_power():
    s = geometric(1, 1, 3)
    d = s.substitute_u_power(2)
    assert d.coefficient(2) == {(2,): Cyc.one(1)}
    assert d.coefficient(1) == {}
    assert d.trunc == 7


def adams_term_by_term(series, d, k):
    """psi^d_k as the general per-term map: c z^e u^m goes to sigma_k(c) z^(d*e) u^(d*m)."""
    data = {}
    for u, terms in series.coeffs:
        for z, c in terms:
            data.setdefault(u * d, {})[tuple(d * a for a in z)] = c.conjugate(k)
    trunc = EXACT if series.trunc >= EXACT else series.trunc * d + d - 1
    return TruncatedSeries.from_dict(data, series.nvars, series.order, trunc)


@settings(max_examples=100, deadline=None)
@given(shifted_series(), st.sampled_from((1, 1, 2, 3)), st.data())
def test_substitute_u_power_is_the_per_term_map(case, d, data):
    series, order = case[0], case[0].order
    units = [k for k in range(1, order + 1) if gcd(k, order) == 1]
    unit = data.draw(st.sampled_from(units))
    k = unit + order * data.draw(st.integers(0, 2))
    image = series.substitute_u_power(d, k)
    assert image == adams_term_by_term(series, d, k)
    if d == 1 and unit == 1:
        assert image is series


def test_truncate_keeps_the_rows_up_to_the_new_order():
    s = geometric(1, 1, 5)
    t = s.truncate(2)
    assert t.trunc == 2
    assert t.coeffs == tuple(row for row in s.coeffs if row[0] <= 2)
    assert s.truncate(9).trunc == 5



# --- perturbation: a claimed trunc does not depend on the unknown terms --------

class Perturbed(namedtuple("Perturbed", "series perturbed mon t d k")):
    """A series, one completion of it and the arguments of the shifts.

    perturbed keeps the rows of series up to its trunc, adds nonzero terms
    at one to three exponents above it, and is exact: it is one series
    that the truncated one may stand for.  Each shift claims its rows up
    to its result's trunc, so the completion must give the same rows
    there.
    """

    __slots__ = ()


@st.composite
def perturbed_series(draw):
    series, mon = draw(shifted_series())
    order, nvars = series.order, series.nvars
    known = tuple(row for row in series.coeffs if row[0] <= series.trunc)
    above = []
    for step in sorted(draw(st.sets(st.integers(1, 3), min_size=1, max_size=3))):
        value = draw(cyc_values(order).filter(lambda c: not c.is_zero()))
        above.append((series.trunc + step,
                      ((draw(st.tuples(*[st.integers(-3, 3)] * nvars)), value),)))
    perturbed = TruncatedSeries(nvars, order, EXACT, known + tuple(above))
    units = [k for k in range(1, order + 1) if gcd(k, order) == 1]
    k = draw(st.sampled_from(units)) + order * draw(st.integers(0, 1))
    return Perturbed(series, perturbed, mon, draw(st.integers(-3, 10)),
                     draw(st.sampled_from((1, 2, 3))), k)


def rows_up_to(series, top):
    return tuple(row for row in series.coeffs if row[0] <= top)


def claims_hold(series, perturbed, shift):
    claimed = shift(series)
    assert rows_up_to(shift(perturbed), claimed.trunc) == rows_up_to(claimed, claimed.trunc)


# O(u^5) times zeta u^-2 z is O(u^3): the term at u^5 lands at u^3.
ZERO_SHIFTED_DOWN = Perturbed(
    TruncatedSeries.zero(1, 3, 4),
    TruncatedSeries(1, 3, EXACT, ((5, (((1,), Cyc.one(3)),)),)),
    Monomial(1, -2, (1,)), 0, 2, 2)
# Truncation 0 with a term at u^1 above it.
TRUNCATION_ZERO = Perturbed(
    TruncatedSeries.one(1, 1, 0),
    TruncatedSeries(1, 1, EXACT, ((0, (((0,), Cyc.one(1)),)), (1, (((1,), Cyc.one(1)),)))),
    Monomial(0, -1, (0,)), 0, 3, 1)


@settings(max_examples=40, deadline=None)
@given(perturbed_series())
@example(ZERO_SHIFTED_DOWN)
@example(TRUNCATION_ZERO)
def test_times_monomial_claims_only_what_the_input_fixes(case):
    claims_hold(case.series, case.perturbed, lambda s: s.times_monomial(case.mon))


@settings(max_examples=25, deadline=None)
@given(perturbed_series())
@example(ZERO_SHIFTED_DOWN)
@example(TRUNCATION_ZERO)
def test_shift_u_claims_only_what_the_input_fixes(case):
    claims_hold(case.series, case.perturbed, lambda s: s.shift_u(case.mon.u))


@settings(max_examples=25, deadline=None)
@given(perturbed_series())
@example(ZERO_SHIFTED_DOWN)
@example(TRUNCATION_ZERO)
def test_truncate_claims_only_what_the_input_fixes(case):
    claims_hold(case.series, case.perturbed, lambda s: s.truncate(case.t))


@settings(max_examples=25, deadline=None)
@given(perturbed_series())
@example(ZERO_SHIFTED_DOWN)
@example(TRUNCATION_ZERO)
def test_substitute_u_power_claims_only_what_the_input_fixes(case):
    claims_hold(case.series, case.perturbed, lambda s: s.substitute_u_power(case.d, case.k))

def test_first_mismatch_reports_lowest():
    a = geometric(1, 1, 5)
    data = {u: dict(terms) for u, terms in a.coeffs}
    data[3] = {(3,): Cyc.rational(2, 1)}
    b = TruncatedSeries.from_dict(data, 1, 1, 5)
    mism = a.first_mismatch(b)
    assert mism is not None and mism[0] == 3


def test_first_mismatch_compares_up_to_the_smaller_trunc():
    # Both pairs agree below t = min(trunc) = 5; row t is exact on both sides
    # and must be compared, row t + 1 is exact only on one side and must not.
    t = 5
    short = geometric(1, 1, t)
    for row, expected in ((t, t), (t + 1, None)):
        data = {u: dict(terms) for u, terms in geometric(1, 1, t + 2).coeffs}
        data[row] = {(row,): Cyc.rational(2, 1)}
        long = TruncatedSeries.from_dict(data, 1, 1, t + 2)
        for a, b in ((short, long), (long, short)):
            mism = a.first_mismatch(b)
            assert (mism and mism[0]) == expected, (row, a.trunc)


def test_serialize_shape():
    s = TruncatedSeries.from_monomial(Monomial(1, 2, (0, -1)), 2, 4,
                                      trunc=5).scale(3, 2)
    ser = s.serialize()
    assert ser == [["2", [["3", "2", "1", ["0", "-1"]]]]]


def _serialize_through_fractions(series):
    """The serialization read through Cyc.coeffs, one Fraction per coordinate."""
    rows = []
    for u, terms in series.coeffs:
        row_terms = []
        for z, c in terms:
            for k, frac in enumerate(c.coeffs):
                if frac:
                    row_terms.append([str(frac.numerator), str(frac.denominator),
                                      str(k), [str(e) for e in z]])
        rows.append([str(u), row_terms])
    return rows


def test_serialize_matches_fraction_coordinates():
    # Over 6 the coordinates of the order-12 element reduce to 1/2, 1/3,
    # 0 and 5/6; the others mix zero coordinates, negative numerators and
    # negative z-exponents.
    cases = {
        1: [from_integers(1, (-4,), 6), from_integers(1, (7,), 1)],
        4: [from_integers(4, (0, -3), 9), from_integers(4, (2, 4), 8),
            from_integers(4, (-5, 0), 1)],
        12: [from_integers(12, (3, 2, 0, 5), 6),
             from_integers(12, (0, -7, 14, 0), 21),
             from_integers(12, (1, 1, 1, 1), 1)],
    }
    for order, values in cases.items():
        data = {
            -1: {(0, -2): values[0]},
            0: {(0, 0): Cyc.one(order), (-1, 3): values[-1]},
            2: {(-3, -1): values[1], (2, 0): values[0]},
        }
        s = TruncatedSeries.from_dict(data, 2, order, 4)
        assert s.serialize() == _serialize_through_fractions(s)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 4, 12)), st.data())
def test_serialize_matches_fraction_coordinates_random(order, data):
    coords = st.lists(st.integers(-40, 40), min_size=Cyc.degree(order),
                      max_size=Cyc.degree(order))
    rows = data.draw(st.dictionaries(
        st.integers(-3, 5),
        st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                        st.builds(lambda nums, den: from_integers(order, nums, den),
                                  coords, st.integers(1, 36)),
                        max_size=3),
        max_size=4))
    s = TruncatedSeries.from_dict(rows, 2, order, 5)
    assert s.serialize() == _serialize_through_fractions(s)


def test_incompatible_rings_rejected():
    a = TruncatedSeries.one(1, 1, 3)
    b = TruncatedSeries.one(2, 1, 3)
    with pytest.raises(ValueError):
        _ = a * b
