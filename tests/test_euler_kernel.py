"""The log/exp Euler-product kernel against binary powering of local factors.

`oracles.binary_powering_euler_product` is the direct product: each local factor
raised to its place count by repeated squaring, multiplied in degree
order.  It shares only series multiplication with the kernel, so exact
agreement on random local factors checks the logarithm, the exponential,
the Adams operations that carry one factor per gcd class to every degree,
and the place-count bookkeeping together.

`reference_log` and `reference_exp` are the same recurrences term by
term, one `Cyc` product and one `Cyc` sum per pair of terms, through the
row helper of series multiplication; the packed integer rows of
`oracles.log`/`exp` (`_RowPacking.log_rows`/`exp_rows` on one series)
must give exactly their result.
"""

import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import add, binary_powering_euler_product, cyc, exp, log
from toricperiods.curve import Curve, zeta_series
from toricperiods.cyclotomic import Cyc
from toricperiods.periods import euler_product
from toricperiods.series import (
    EXACT,
    TruncatedSeries,
    _RowPacking,
    _zp_mul_add,
    _zp_scale,
)

ORDERS = (1, 3, 4, 7, 12)
PRIME_POWERS = (2, 3, 4, 5, 8, 9)


def reference_log(f):
    """n g_n = n f_n - sum_{k<n} k g_k f_{n-k}, one Cyc product per term pair."""
    rows = dict(f.coeffs[1:])
    neg = {u: [(z, c * -1) for z, c in terms] for u, terms in rows.items()}
    dg = {}
    for n in range(1, f.trunc + 1):
        acc = _zp_scale(dict(rows.get(n, ())), n, 1)
        for k, row in dg.items():
            if neg.get(n - k):
                _zp_mul_add(acc, row.items(), neg[n - k])
        if acc:
            dg[n] = acc
    data = {n: _zp_scale(row, 1, n) for n, row in dg.items()}
    return TruncatedSeries.from_dict(data, f.nvars, f.order, f.trunc)


def reference_exp(g):
    """n h_n = sum_{k<=n} k G_k h_{n-k}, one Cyc product per term pair."""
    dG = [(k, [(z, c * k) for z, c in terms]) for k, terms in g.coeffs]
    h = {0: {(0,) * g.nvars: Cyc.one(g.order)}}
    for n in range(1, g.trunc + 1):
        acc = {}
        for k, row in dG:
            if k <= n and h.get(n - k):
                _zp_mul_add(acc, row, h[n - k].items())
        if acc:
            h[n] = _zp_scale(acc, 1, n)
    return TruncatedSeries.from_dict(h, g.nvars, g.order, g.trunc)


@st.composite
def cyc_elements(draw, order):
    deg = Cyc.degree(order)
    coords = draw(st.lists(st.integers(-2, 2), min_size=deg, max_size=deg))
    den = draw(st.sampled_from((1, 1, 2, 3)))
    return cyc(order, tuple(Fraction(c, den) for c in coords))


@st.composite
def rows(draw, nvars, order, trunc, low=1, max_rows=3, max_terms=2):
    """{u: {z: Cyc}} with low <= u <= trunc and z-exponents in [-1, 2]."""
    data = {}
    if trunc < low:
        return data
    for u in draw(st.lists(st.integers(low, trunc), max_size=max_rows, unique=True)):
        zs = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * nvars),
                           min_size=1, max_size=max_terms, unique=True))
        data[u] = {z: draw(cyc_elements(order)) for z in zs}
    return data


@st.composite
def ring(draw, max_trunc=10):
    order = draw(st.sampled_from(ORDERS))
    nvars = draw(st.integers(0, 3))
    # Keep the oracle's dense powers small in the larger rings.
    cap = max_trunc if nvars <= 1 and Cyc.degree(order) <= 2 else max_trunc - 3
    return nvars, order, draw(st.integers(0, cap))


def one_plus(data, nvars, order, trunc):
    data = dict(data)
    data[0] = {(0,) * nvars: Cyc.one(order)}
    return TruncatedSeries.from_dict(data, nvars, order, trunc)


@st.composite
def class_monomials(draw, nvars, order, trunc):
    """(c, j, a, e): the term c * zeta^j * u^a * z^e with 1 <= a <= trunc.

    Few u- and z-exponents, so terms often share a row and a z-monomial
    and their coefficients are sums of several roots of unity.
    """
    if trunc < 1:
        return []
    term = st.tuples(st.fractions(-2, 2, max_denominator=3), st.integers(0, order - 1),
                     st.integers(1, trunc), st.tuples(*[st.integers(-1, 2)] * nvars))
    return draw(st.lists(term, max_size=4))


def adams_factor(terms, g, d1, nvars, order, trunc):
    """1 + sum c * zeta^(g*j*d1) * u^(a*d1) * z^(e*d1), exact to trunc."""
    data = {0: {(0,) * nvars: Cyc.one(order)}}
    for c, j, a, e in terms:
        if a * d1 <= trunc:
            row = data.setdefault(a * d1, {})
            z = tuple(x * d1 for x in e)
            row[z] = row.get(z, Cyc.rational(0, order)) + Cyc.root_power(g * j * d1, order) * c
    return TruncatedSeries.from_dict(data, nvars, order, trunc)


@st.composite
def euler_inputs(draw, narrow=None, extra=0):
    """(factors, curve, U, ring, M): local factors that keep the contract over Q(zeta_M), M | N.

    One set of terms is drawn per gcd class g | M, with the roots
    zeta^((N/M) j), so every factor lies in Q(zeta_M).  Its factor L_g
    has the roots zeta^(g*(N/M)*j), and every L_d with gcd(d, M) = g,
    d = g * d', is built from the same terms raised to the d'-th power
    monomial by monomial, which is also the factor the contract over N
    asks for.  Nothing here calls the Galois action or the substitution
    that the kernel uses.  The factors are exact to their truncation t
    and drawn for every degree up to U = t + (0 to extra).  narrow picks
    M < N (True), M = N (False) or any divisor (None).
    """
    nvars, order, trunc = draw(ring().filter(lambda r: r[1] > 1) if narrow else ring())
    field = draw(st.sampled_from([m for m in range(1, order + 1) if order % m == 0
                                  and (narrow is None or (m < order) == narrow)]))
    top = trunc + draw(st.integers(0, extra))
    terms = {g: [(c, j * (order // field), a, e)
                 for c, j, a, e in draw(class_monomials(nvars, order, trunc))]
             for g in range(1, max(top, 1) + 1) if field % g == 0}
    factors = {}
    for d in range(1, max(top, 1) + 1):
        g = gcd(d, field)
        factors[d] = adams_factor(terms[g], g, d // g, nvars, order, trunc)
    q = draw(st.sampled_from(PRIME_POWERS))
    return factors, Curve(q=q), top, (nvars, order), field


PACKED_ORDERS = (1, 2, 3, 4, 7, 12)
# Small exponents make terms collide and cancel; the large ones make the
# packing radix 2 * trunc * 10**6 + 1, so a key of three variables is a
# multi-digit integer.
Z_EXPONENT = st.one_of(st.integers(-2, 2),
                       st.sampled_from((-10 ** 6, 10 ** 6 - 1, 10 ** 6)))


@st.composite
def packed_case(draw, low):
    """A series of the given lowest u-exponent, coordinates with denominators up to 6."""
    order = draw(st.sampled_from(PACKED_ORDERS))
    nvars = draw(st.integers(0, 3))
    trunc = draw(st.integers(1, 6 if Cyc.degree(order) <= 2 else 4))
    data = {}
    for u in draw(st.lists(st.integers(1, trunc), min_size=1, max_size=3, unique=True)):
        zs = draw(st.lists(st.tuples(*[Z_EXPONENT] * nvars),
                           min_size=1, max_size=2, unique=True))
        row = data[u] = {}
        for z in zs:
            deg = Cyc.degree(order)
            coords = draw(st.lists(st.fractions(-3, 3, max_denominator=6),
                                   min_size=deg, max_size=deg))
            row[z] = cyc(order, coords)
    if low == 0:
        data[0] = {(0,) * nvars: Cyc.one(order)}
    return TruncatedSeries.from_dict(data, nvars, order, trunc)


@settings(max_examples=80, deadline=None)
@given(packed_case(low=0))
def test_packed_log_matches_term_by_term_recurrence(f):
    assert log(f) == reference_log(f)


@settings(max_examples=80, deadline=None)
@given(packed_case(low=1))
def test_packed_exp_matches_term_by_term_recurrence(g):
    assert exp(g) == reference_exp(g)


@st.composite
def terms_above(draw, series, half):
    """{u: {z: Cyc}}: nonzero terms of the series' ring at one to three exponents
    above its trunc, with z-exponents that a packing of half-width half holds."""
    reach = min(half, 2)
    above = {}
    for step in draw(st.sets(st.integers(1, 3), min_size=1, max_size=3)):
        z = draw(st.tuples(*[st.integers(-reach, reach)] * series.nvars))
        above[series.trunc + step] = {
            z: draw(cyc_elements(series.order).filter(lambda c: not c.is_zero()))}
    return above


@settings(max_examples=60, deadline=None)
@given(packed_case(low=0), st.data())
def test_packed_log_and_exp_claim_only_rows_up_to_top(f, data):
    # A series exact to top stands for every completion of it above top, so
    # log_rows and exp_rows must return the same rows up to top for each.
    top = f.trunc
    packing = _RowPacking.spanning([f], top)
    above = data.draw(terms_above(f, packing.half))
    completed = TruncatedSeries.from_dict(
        {**{u: dict(terms) for u, terms in f.coeffs}, **above}, f.nvars, f.order, EXACT)
    rows = packing.log_rows(f, top)
    assert packing.log_rows(completed, top) == rows
    more = {u: packing.pack(terms.items()) for u, terms in above.items()}
    assert packing.exp_rows({**rows, **more}, top) == packing.exp_rows(rows, top)


def test_packed_log_of_a_product_is_the_sum_of_logs():
    # (1 + x u)(1 - x u) = 1 - x^2 u^2 with x = zeta/2 * z1^-1: the odd rows
    # cancel, and the powers of zeta^2 reduce modulo Phi_N for N > 2.
    for order in PACKED_ORDERS:
        x = Cyc.root_power(1, order) * Fraction(1, 2)
        one = {(0, 0): Cyc.one(order)}
        a, b = (TruncatedSeries.from_dict({0: one, 1: {(-1, 0): c}}, 2, order, 12)
                for c in (x, x * -1))
        f = a * b
        assert log(f) == add(log(a), log(b)) == reference_log(f)
        assert {u % 2 for u, _ in log(f).coeffs} == {0}
        assert exp(log(f)) == f


def test_finished_packed_rows_are_reduced_and_in_lowest_terms():
    # Q(zeta_3): zeta^2 = -1 - zeta, and R = 2 * phi(3) = 4 keys per z-monomial.
    packing = _RowPacking(1, 3, 4)
    z1 = 1 * 4  # zeta^0 * z^1
    # (2 zeta^2 + 4 zeta) z / 6 = (-2 + 2 zeta) z / 6 = (-1 + zeta) z / 3
    assert packing.finish(defaultdict(int, {z1 + 2: 2, z1 + 1: 4}), 6) == (
        {z1: -1, z1 + 1: 1}, 3)
    assert packing.finish(defaultdict(int, {z1: 3, z1 + 1: 0}), 3) == ({z1: 1}, 1)
    # 1 + zeta + zeta^2 = 0
    assert packing.finish(defaultdict(int, {z1: 1, z1 + 1: 1, z1 + 2: 1}), 5) is None


@settings(max_examples=60, deadline=None)
@given(euler_inputs())
def test_log_exp_kernel_matches_binary_powering(case):
    # Over the field M of the factors the product asks only for the classes
    # g | M, and it equals the product over the whole ring Q(zeta_N).
    factors, curve, trunc, ring_, field = case
    asked = []

    def factor(d):
        asked.append(d)
        return factors[d]

    got = euler_product(factor, curve, trunc, ring_, field)
    assert asked == [g for g in range(1, trunc + 1) if field % g == 0]
    assert got == binary_powering_euler_product(factors.__getitem__, curve, trunc)
    assert got == euler_product(factors.__getitem__, curve, trunc, ring_)


@pytest.mark.parametrize("narrow", [True, False], ids=["M<N", "M=N"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_euler_product_claims_only_what_the_class_factors_fix(narrow, data):
    # Complete each class factor with nonzero terms of Q(zeta_M) at one to
    # three exponents above its trunc and make it exact: one set of
    # factors the truncated ones may stand for.  The product claims its
    # rows up to the least factor trunc, so the completion must give the
    # same rows there.
    factors, curve, order, (nvars, n), field = data.draw(euler_inputs(narrow=narrow, extra=3))
    completed = {}
    for d, f in factors.items():
        above = []
        for step in sorted(data.draw(st.sets(st.integers(1, 3), min_size=1, max_size=3))):
            root = Cyc.root_power(data.draw(st.integers(0, field - 1)) * (n // field), n)
            value = root * data.draw(st.fractions(-2, 2, max_denominator=3).filter(bool))
            above.append((f.trunc + step,
                          ((data.draw(st.tuples(*[st.integers(-1, 2)] * nvars)), value),)))
        completed[d] = TruncatedSeries(nvars, n, EXACT, f.coeffs + tuple(above))
    claimed = euler_product(factors.__getitem__, curve, order, (nvars, n), field)
    got = euler_product(completed.__getitem__, curve, order, (nvars, n), field)
    assert claimed.trunc == min(order, factors[1].trunc)
    assert tuple(row for row in got.coeffs if row[0] <= claimed.trunc) == claimed.coeffs


@settings(max_examples=80, deadline=None)
@given(packed_case(low=1), st.integers(1, 4), st.data())
def test_packed_adams_map_matches_substitution(s, d, data):
    # The packing is as tight as the image allows, so a z-exponent of
    # ±10**6 lands at ±d * 10**6, on the edge of the half-width.
    k = data.draw(st.sampled_from([k for k in range(1, 2 * s.order + 1)
                                   if gcd(k, s.order) == 1]))
    widest = max((abs(e) for _, terms in s.coeffs for z, _ in terms for e in z),
                 default=0)
    packing = _RowPacking(s.nvars, s.order, d * widest)
    images = {u * d: packing.adams_sum([(1, d, k, packing.pack(terms))])
              for u, terms in s.coeffs}
    want = s.substitute_u_power(d, k)
    assert packing.series(images, want.trunc) == want


EDGE_EXPONENT = st.sampled_from((-10 ** 6, 10 ** 6 - 1, 10 ** 6))


@st.composite
def edge_euler_inputs(draw):
    """Local factors keeping the Euler contract, z-exponents near ±10**6.

    Every class factor has a term at u = 1 whose exponents are drawn
    from the edge values or from small ones, so the class factors differ
    in their widest exponent, and the log rows m and their Adams images
    at u = d' * m reach the truncation order with exponents up to order
    times as wide.  A packing sized from one class factor, or from the
    widest input exponent without the factor order, refuses or aliases
    them.
    """
    order = draw(st.sampled_from((1, 2, 3, 4, 12)))
    nvars = draw(st.integers(1, 2))
    trunc = draw(st.integers(2, 5 if Cyc.degree(order) <= 2 else 3))
    exponent = st.one_of(st.integers(-2, 2), EDGE_EXPONENT)
    coefficient = st.fractions(-2, 2, max_denominator=3).filter(bool)
    terms = {}
    for g in range(1, trunc + 1):
        if order % g == 0:
            first = (draw(coefficient), draw(st.integers(0, order - 1)), 1,
                     draw(st.tuples(*[exponent] * nvars)))
            terms[g] = [first] + draw(st.lists(st.tuples(
                coefficient, st.integers(0, order - 1), st.integers(1, trunc),
                st.tuples(*[exponent] * nvars)), max_size=2))
    factors = {}
    for d in range(1, trunc + 1):
        g = gcd(d, order)
        factors[d] = adams_factor(terms[g], g, d // g, nvars, order, trunc)
    q = draw(st.sampled_from((2, 3, 4)))
    return factors, Curve(q=q), trunc, (nvars, order)


@settings(max_examples=60, deadline=None)
@given(edge_euler_inputs())
def test_shared_packing_holds_the_widest_euler_rows(case):
    factors, curve, trunc, ring_ = case
    got = euler_product(factors.__getitem__, curve, trunc, ring_)
    assert got == binary_powering_euler_product(factors.__getitem__, curve, trunc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exp_inverts_log(data):
    nvars, order, trunc = data.draw(ring())
    f = one_plus(data.draw(rows(nvars, order, trunc)), nvars, order, trunc)
    assert exp(log(f)) == f


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_log_inverts_exp(data):
    nvars, order, trunc = data.draw(ring())
    g = TruncatedSeries.from_dict(data.draw(rows(nvars, order, trunc)),
                                  nvars, order, trunc)
    assert log(exp(g)) == g


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_adams_operation_is_a_ring_map_that_commutes_with_log(data):
    nvars, order, trunc = data.draw(ring(max_trunc=8))
    f = one_plus(data.draw(rows(nvars, order, trunc)), nvars, order, trunc)
    h = one_plus(data.draw(rows(nvars, order, trunc)), nvars, order, trunc)
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.sampled_from([k for k in range(1, 2 * order + 1)
                                   if gcd(k, order) == 1]))

    def psi(s):
        return s.substitute_u_power(d, k)

    assert psi(f * h) == psi(f) * psi(h)
    assert psi(add(f, h)) == add(psi(f), psi(h))
    assert psi(log(f)) == log(psi(f))


def test_zeta_series_matches_binary_powering():
    one = Cyc.one(1)
    for q in PRIME_POWERS:
        def geometric(d):
            return TruncatedSeries.from_dict(
                {k: {(): one} for k in range(0, 9, d)}, 0, 1, 8)
        assert zeta_series(Curve(q=q), 8) == binary_powering_euler_product(
            geometric, Curve(q=q), 8)


def test_log_of_geometric_series():
    # log 1/(1 - z u) = sum z^n u^n / n.
    geo = TruncatedSeries.from_dict(
        {k: {(k,): Cyc.one(1)} for k in range(7)}, 1, 1, 6)
    assert log(geo).coeffs == tuple(
        (n, (((n,), Cyc.rational(Fraction(1, n), 1)),)) for n in range(1, 7))


def _series(rows_, nvars=1, order=1, trunc=4):
    return TruncatedSeries.from_dict(
        {u: {z: Cyc.rational(c, order) for z, c in terms.items()}
         for u, terms in rows_.items()}, nvars, order, trunc)


@pytest.mark.parametrize("series, reason", [
    (_series({0: {(0,): 2}, 1: {(1,): 1}}), "constant row"),
    (_series({0: {(0,): 1, (1,): 1}}), "constant row"),
    (_series({1: {(1,): 1}}), "constant row"),
    (TruncatedSeries.zero(1, 1, 4), "constant row"),
    (_series({-1: {(1,): 1}, 0: {(0,): 1}}), "negative"),
    (_series({0: {(0,): 1}, 1: {(1,): 1}}, trunc=EXACT), "finite truncation"),
])
def test_log_refuses(series, reason):
    with pytest.raises(ValueError, match=reason):
        log(series)


@pytest.mark.parametrize("series, reason", [
    (_series({0: {(1,): 1}}), "u > 0"),
    (_series({0: {(0,): 1}, 1: {(1,): 1}}), "u > 0"),
    (_series({-2: {(1,): 1}, 1: {(1,): 1}}), "u > 0"),
    (_series({1: {(1,): 1}}, trunc=EXACT), "finite truncation"),
])
def test_exp_refuses(series, reason):
    with pytest.raises(ValueError, match=reason):
        exp(series)


def test_refusals_hold_under_optimize():
    code = (
        "from oracles import exp, log\n"
        "from toricperiods.cyclotomic import Cyc\n"
        "from toricperiods.series import TruncatedSeries\n"
        "s = TruncatedSeries.from_dict({0: {(): Cyc.rational(2, 1)}}, 0, 1, 3)\n"
        "for f in (log, exp):\n"
        "    try:\n"
        "        f(s)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f.__name__ + ' accepted a bad series')\n")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join((str(here.parent / "src"), str(here)))
    done = subprocess.run([sys.executable, "-B", "-O", "-c", code],
                          env={"PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_packing_guard_holds_under_optimize():
    # An exponent outside the radix would alias another monomial; the guard
    # is a ValueError, not an assert, so it survives python -O.
    code = (
        "from toricperiods.cyclotomic import Cyc\n"
        "from toricperiods.series import _RowPacking\n"
        "packing = _RowPacking(2, 4, 5)\n"
        "packing.pack((((5, -5), Cyc.one(4)),))\n"
        "for z in ((6, 0), (0, -6), (11, -5)):\n"
        "    try:\n"
        "        packing.pack(((z, Cyc.one(4)),))\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'packed {z} into radix 11')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-B", "-O", "-c", code],
                          env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
