from fractions import Fraction

import pytest

from toricperiods.cyclotomic import Cyc
from toricperiods.series import EXACT, Monomial, TruncatedSeries


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
    assert a.power(2) == Monomial(2, 4, (6,))
    assert Monomial.one(2).is_one(4)
    assert Monomial(4, 0, (0,)).is_one(4)
    assert not Monomial(1, 0, (0,)).is_one(4)


def test_from_monomials_buckets_and_cancels():
    # 1 + zeta_2^0 z u + zeta_2^1 z u (cancels) + 2 u^2 + u^5 (beyond trunc)
    mons = [Monomial(0, 1, (1,)), Monomial(1, 1, (1,)), Monomial(0, 2, (0,)),
            Monomial(2, 2, (0,)), Monomial(0, 5, (0,))]
    s = TruncatedSeries.from_monomials(mons, 1, 2, 4)
    assert s.trunc == 4
    assert s.as_dict() == {0: {(0,): Cyc.one(2)}, 2: {(0,): Cyc.rational(2, 2)}}
    assert TruncatedSeries.from_monomials([], 1, 2, 4) == TruncatedSeries.one(1, 2, 4)


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
    z = s - s
    assert z.is_zero()
    half = s.scale(Fraction(1, 2))
    assert half.coefficient(0) == {(0,): Cyc.rational(Fraction(1, 2), 1)}


def test_substitute_u_power():
    s = geometric(1, 1, 3)
    d = s.substitute_u_power(2)
    assert d.coefficient(2) == {(2,): Cyc.one(1)}
    assert d.coefficient(1) == {}
    assert d.trunc == 7


def test_truncate_keeps_the_rows_up_to_the_new_order():
    s = geometric(1, 1, 5)
    t = s.truncate(2)
    assert t.trunc == 2
    assert t.as_dict() == {u: s.coefficient(u) for u in range(3)}
    assert s.truncate(9).trunc == 5


def test_first_mismatch_reports_lowest():
    a = geometric(1, 1, 5)
    data = a.as_dict()
    data[3] = {(3,): Cyc.rational(2, 1)}
    b = TruncatedSeries.from_dict(data, 1, 1, 5)
    mism = a.first_mismatch(b)
    assert mism is not None and mism[0] == 3


def test_serialize_shape():
    s = TruncatedSeries.from_monomial(Monomial(1, 2, (0, -1)), 2, 4, trunc=5,
                                      scale=Fraction(3, 2))
    ser = s.serialize()
    assert ser == [["2", [["3", "2", "1", ["0", "-1"]]]]]


def test_incompatible_rings_rejected():
    a = TruncatedSeries.one(1, 1, 3)
    b = TruncatedSeries.one(2, 1, 3)
    with pytest.raises(ValueError):
        _ = a * b
