"""The integer-coordinate `Cyc` kernel against independent oracles.

`FractionOracle` is the Fraction-coordinate arithmetic that `Cyc` used
before it carried integer coordinates over one denominator: products
reduced through x^k mod Phi_N rows of Fractions, coordinatewise sums, and
an inverse solved as a linear system over Q (independent of the library's
inverse, which divides the product of the Galois conjugates by the norm).
A sympy differential test checks the cyclotomic polynomials and the field
operations against sympy's own polynomial arithmetic; it is skipped when
sympy is not installed.
"""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cyc, from_integers
from toricperiods.cyclotomic import Cyc, cyclotomic_polynomial

ORDERS = (1, 2, 3, 4, 7, 12)


class FractionOracle:
    """Q(zeta_N) with one Fraction per power-basis coordinate."""

    def __init__(self, order):
        self.order = order
        phi = cyclotomic_polynomial(order)
        self.deg = deg = len(phi) - 1
        rows = []
        cur = [Fraction(0)] * deg
        cur[0] = Fraction(1)
        for _ in range(2 * deg - 1):
            rows.append(tuple(cur))
            overflow = cur[-1]
            nxt = ([Fraction(0)] + cur[:-1])[:deg]
            if overflow:
                for i in range(deg):
                    nxt[i] -= overflow * phi[i]
            cur = nxt
        self.table = rows

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        acc = [Fraction(0)] * self.deg
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                row = self.table[i + j]
                for t in range(self.deg):
                    acc[t] += x * y * row[t]
        return tuple(acc)

    def inverse(self, a):
        """Solve a * x = 1: column j of the system is a * zeta^j."""
        n = self.deg
        basis = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
        cols = [self.mul(a, e) for e in basis]
        aug = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))]
               for i in range(n)]
        for col in range(n):
            piv = next(i for i in range(col, n) if aug[i][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [x / aug[col][col] for x in aug[col]]
            for i in range(n):
                if i != col and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
        return tuple(aug[i][n] for i in range(n))


def assert_canonical(c):
    assert c.den > 0
    assert gcd(c.den, *c.nums) == 1
    assert len(c.nums) == Cyc.degree(c.order)
    assert all(isinstance(x, int) for x in c.nums + (c.den,))


@st.composite
def coords(draw, order):
    """Rational coordinates over a shared denominator; sometimes zero."""
    deg = Cyc.degree(order)
    if draw(st.integers(0, 7)) == 0:
        return (Fraction(0),) * deg
    nums = draw(st.lists(st.integers(-30, 30) | st.integers(-10 ** 20, 10 ** 20),
                         min_size=deg, max_size=deg))
    den = draw(st.sampled_from((1, 1, 2, 3, 4, 6, 7, 12, 35, 10 ** 12)))
    return tuple(Fraction(x, den) for x in nums)


@st.composite
def operands(draw, count=2):
    order = draw(st.sampled_from(ORDERS))
    return (order,) + tuple(draw(coords(order)) for _ in range(count))


@settings(max_examples=200, deadline=None)
@given(operands())
def test_mul_and_add_match_fraction_oracle(case):
    order, a, b = case
    oracle = FractionOracle(order)
    x, y = cyc(order, a), cyc(order, b)
    for got, want in ((x * y, oracle.mul(a, b)), (x + y, oracle.add(a, b)),
                      (x + y * -1, oracle.add(a, tuple(-t for t in b))),
                      (-1 * x, tuple(-t for t in a))):
        assert_canonical(got)
        assert got.coeffs == want
        assert got == cyc(order, want)
        assert hash(got) == hash(cyc(order, want))


@settings(max_examples=100, deadline=None)
@given(operands(count=1), st.integers(-50, 50), st.fractions(max_denominator=40))
def test_scalar_multiples_match_fraction_oracle(case, k, r):
    order, a = case
    x = cyc(order, a)
    for scalar in (k, r):
        for got in (x * scalar, scalar * x):
            assert_canonical(got)
            assert got.coeffs == tuple(t * scalar for t in a)


@settings(max_examples=150, deadline=None)
@given(operands(count=1))
@example(case=(1, (Fraction(-3),)))  # a negative norm: its sign moves to the numerators
@example(case=(2, (Fraction(-3, 2),)))
def test_inverse_matches_fraction_oracle(case):
    order, a = case
    x = cyc(order, a)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert_canonical(inv)
    assert inv.coeffs == FractionOracle(order).inverse(a)
    assert x * inv == Cyc.one(order)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 60)).flatmap(lambda n: st.tuples(st.just(n), coords(n))))
def test_inverse_at_orders_2_and_60(case):
    # Order 2 has no Galois conjugate besides the identity and order 60
    # has 15.  The oracle multiplies back with Fraction coordinates; a
    # 16 x 16 solve over Q per example would dominate the suite.
    order, a = case
    if not any(a):
        return
    inv = cyc(order, a).inverse()
    assert_canonical(inv)
    assert FractionOracle(order).mul(a, inv.coeffs) == (1,) + (0,) * (len(a) - 1)


@settings(max_examples=100, deadline=None)
@given(operands(count=1), st.integers(-9, 9).filter(bool))
def test_canonical_form_is_unique(case, k):
    """Any integer presentation of the same element is the same object state."""
    order, a = case
    x = cyc(order, a)
    y = from_integers(order, [n * k for n in x.nums], x.den * k)
    assert_canonical(x)
    assert (y.order, y.nums, y.den) == (x.order, x.nums, x.den)
    assert hash(y) == hash(x)


def test_zero_and_one_are_canonical():
    for order in ORDERS:
        zero = from_integers(order, (0,) * Cyc.degree(order), -6)
        assert zero == Cyc.rational(0, order) and zero.den == 1 and zero.is_zero()
        x = from_integers(order, (3,) + (0,) * (Cyc.degree(order) - 1), 3)
        assert x == Cyc.one(order)
        assert x + x * -1 == Cyc.rational(0, order)


def test_bad_presentations_are_refused():
    with pytest.raises(ZeroDivisionError):
        from_integers(4, (1, 2), 0)
    with pytest.raises(ValueError, match="coordinates"):
        from_integers(4, (1, 2, 3), 1)
    with pytest.raises(ValueError, match="coordinates"):
        cyc(3, (Fraction(1, 2),))
    with pytest.raises(ValueError, match="mixed"):
        Cyc.one(3) * Cyc.one(4)


def test_canonical_form_holds_under_optimize():
    code = (
        "from math import gcd\n"
        "from oracles import from_integers\n"
        "x = from_integers(12, (4, -8, 0, 6), -10)\n"
        "y = from_integers(12, (1, 0, 3, 0), 6)\n"
        "for c in (x, y, x * y, x + y, x + x * -1, x.inverse(), x * 3):\n"
        "    if c.den <= 0 or gcd(c.den, *c.nums) != 1:\n"
        "        raise SystemExit(f'not canonical: {c!r}')\n"
        "if (x.nums, x.den) != ((-2, 4, 0, -3), 5):\n"
        "    raise SystemExit(f'wrong normal form: {x!r}')\n"
        "for bad in (lambda: from_integers(12, (1, 0, 0, 0), 0),\n"
        "            lambda: from_integers(12, (1, 0), 1)):\n"
        "    try:\n"
        "        bad()\n"
        "    except (ValueError, ZeroDivisionError):\n"
        "        continue\n"
        "    raise SystemExit('a bad presentation was accepted')\n")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join((str(here.parent / "src"), str(here)))
    done = subprocess.run([sys.executable, "-B", "-O", "-c", code],
                          env={"PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


# --- sympy differential --------------------------------------------------

SYMPY_ORDERS = ORDERS + (5, 9, 15, 30)


def _sympy():
    return pytest.importorskip("sympy")


def _to_poly(sympy, x, values):
    return sympy.Poly(list(reversed(values)) or [0], x, domain="QQ")


def _coords_of(sympy, poly, deg):
    out = [Fraction(0)] * deg
    for (k,), c in poly.terms():
        out[k] = Fraction(int(c.p), int(c.q))
    return tuple(out)


def test_cyclotomic_polynomial_matches_sympy():
    sympy = _sympy()
    x = sympy.Symbol("x")
    for n in range(1, 61):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in want), n


@st.composite
def sympy_operands(draw):
    order = draw(st.sampled_from(SYMPY_ORDERS))
    return order, draw(coords(order)), draw(coords(order))


@settings(max_examples=60, deadline=None)
@given(sympy_operands())
def test_mul_and_inverse_match_sympy(case):
    sympy = _sympy()
    x = sympy.Symbol("x")
    order, a, b = case
    deg = Cyc.degree(order)
    phi = sympy.Poly(list(reversed(cyclotomic_polynomial(order))), x, domain="QQ")
    pa, pb = _to_poly(sympy, x, a), _to_poly(sympy, x, b)
    got = cyc(order, a) * cyc(order, b)
    assert got.coeffs == _coords_of(sympy, (pa * pb).rem(phi), deg)
    if pa.is_zero:
        return
    assert cyc(order, a).inverse().coeffs == _coords_of(sympy, pa.invert(phi), deg)
