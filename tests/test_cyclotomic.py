import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from oracles import cyc

from toricperiods.cyclotomic import (
    Cyc,
    _poly_divexact_int,
    cyclotomic_polynomial,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_conjugate_is_the_galois_action():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5, 8, 12, 15):
        units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
        elems = [cyc(n, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                         for _ in range(Cyc.degree(n))]) for _ in range(4)]
        for k in units:
            for j in range(2 * n):
                assert Cyc.root_power(j, n).conjugate(k) == Cyc.root_power(j * k, n)
            for x, y in zip(elems, elems[1:]):
                assert (x * y).conjugate(k) == x.conjugate(k) * y.conjugate(k)
                assert (x + y).conjugate(k) == x.conjugate(k) + y.conjugate(k)
                assert x.conjugate(k + n) == x.conjugate(k)
                for m in units:
                    assert x.conjugate(k).conjugate(m) == x.conjugate(k * m)
    with pytest.raises(ValueError, match="not an automorphism"):
        Cyc.root_power(1, 12).conjugate(2)


def test_root_powers_small_orders():
    # zeta_2 = -1
    assert Cyc.root_power(1, 2) == Cyc.rational(-1, 2)
    # zeta_4^2 = -1
    z = Cyc.root_power(1, 4)
    assert z * z == Cyc.rational(-1, 4)
    # zeta_3^3 = 1 and 1 + zeta_3 + zeta_3^2 = 0
    w = Cyc.root_power(1, 3)
    assert w * w * w == Cyc.one(3)
    assert (Cyc.one(3) + w + w * w).is_zero()


def test_root_power_wraps():
    for n in (2, 3, 4, 6, 12):
        for k in range(2 * n):
            assert Cyc.root_power(k, n) == Cyc.root_power(k % n, n)


def test_ring_axioms_random():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 6):
        deg = Cyc.degree(n)
        rand = lambda: cyc(n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                    for _ in range(deg)))
        for _ in range(25):
            a, b, c = rand(), rand(), rand()
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)


def test_inverse():
    rng = random.Random(9)
    for n in (1, 2, 3, 4, 12):
        deg = Cyc.degree(n)
        for _ in range(20):
            a = cyc(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(deg)))
            if a.is_zero():
                continue
            assert a * a.inverse() == Cyc.one(n)
    with pytest.raises(ZeroDivisionError):
        Cyc.rational(0, 4).inverse()


def test_rational_embedding():
    a = Cyc.rational(Fraction(2, 3), 4)
    b = Cyc.rational(3, 4)
    assert a * b == Cyc.rational(2, 4)
    assert (a + a * -1).is_zero()
    assert Cyc.rational(1, 4) == Cyc.one(4)


def test_scalar_products_are_field_products():
    # A Cyc is a tuple, so an int or Fraction on either side of * must
    # still reach the field product, never tuple repetition, and + must
    # be the field sum, never concatenation.
    c = Cyc.root_power(1, 12) + Cyc.rational(Fraction(2, 5), 12)
    d = Cyc.root_power(3, 12) * Cyc.rational(-7, 12)
    for scalar in (2, -3, 0, Fraction(1, 3)):
        want = c * Cyc.rational(scalar, 12)
        for got in (scalar * c, c * scalar):
            assert type(got) is Cyc
            assert got == want
            assert got.coeffs == tuple(x * scalar for x in c.coeffs)
    total = c + d
    assert type(total) is Cyc
    assert total.coeffs == tuple(x + y for x, y in zip(c.coeffs, d.coeffs))


def test_inexact_polynomial_division_raises():
    # x^2 + 1 = (x + 1)(x - 1) + 2
    with pytest.raises(ValueError, match="non-exact"):
        _poly_divexact_int((1, 0, 1), (1, 1))


def test_inexact_polynomial_division_raises_under_optimize():
    code = (
        "from toricperiods.cyclotomic import _poly_divexact_int\n"
        "try:\n"
        "    _poly_divexact_int((1, 0, 1), (1, 1))\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('an inexact division was accepted')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-B", "-O", "-c", code],
                          env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
