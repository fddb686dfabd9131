"""Arithmetic in Q(zeta_N) as the polynomial quotient Q[x]/Phi_N(x).

An element is a tuple of integer coordinates in the power basis
1, zeta, ..., zeta^(phi(N)-1) over one positive common denominator.
Phi_N is monic, so reducing x^k modulo it never divides: a product is an
integer convolution, one integer reduction, one denominator product and
one gcd.  Equality is syntactic on the canonical form, which is what
makes coefficientwise series comparison exact.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd
from operator import add


def _poly_divexact_int(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        if c % lead:
            raise ValueError("non-exact polynomial division")
        q = c // lead
        out[i - dn] = q
        for j, d in enumerate(den):
            num[i - dn + j] -= q * d
    if any(num):
        raise ValueError("non-exact polynomial division")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact_int(num, cyclotomic_polynomial(d))
    return num


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_n as integer rows of length deg(Phi_n).

    Phi_n is monic, so every row is integral.  Covers k up to
    max(2*deg - 2, n - 1): enough for products of two reduced elements
    and for any root power zeta^k with k < n.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(max(2 * deg - 1, n)):
        rows.append(tuple(cur))
        overflow = cur[-1]
        cur = [0] + cur[:-1]
        if overflow:
            for i in range(deg):
                cur[i] -= overflow * phi[i]
    return tuple(rows)


@lru_cache(maxsize=None)
def _overflow_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (index, value) pairs of x^k mod Phi_n for deg <= k <= 2*deg - 2."""
    table = _reduction_table(n)
    deg = len(table[0])
    return tuple(tuple((t, r) for t, r in enumerate(table[k]) if r)
                 for k in range(deg, 2 * deg - 1))


@lru_cache(maxsize=None)
def _galois_rows(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (index, value) pairs of x^(ik mod n) mod Phi_n for 0 <= i < deg.

    Row i is sigma_k(zeta^i) in the power basis, read off the reduction
    table: the image of each basis element under zeta -> zeta^k.
    """
    table = _reduction_table(n)
    return tuple(tuple((j, r) for j, r in enumerate(table[i * k % n]) if r)
                 for i in range(len(table[0])))


_new = tuple.__new__


def _canonical(order: int, nums: tuple[int, ...], den: int) -> "Cyc":
    """The element nums / den (den > 0), with the common factor divided out."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([x // g for x in nums])
            den //= g
    return _new(Cyc, (order, nums, den))


class Cyc(namedtuple("Cyc", "order nums den")):
    """An element of Q(zeta_order): integer coordinates over one denominator.

    `nums` are the power-basis coordinates times `den`.  The form is
    canonical (den > 0 and gcd(den, *nums) == 1; zero is all zeros over
    1), so equality and hashing are those of the tuple
    (order, nums, den), and a `Cyc` equals that plain tuple.  Only
    `_canonical` and the constructors below build one; `+` and `*` are
    field operations, never tuple concatenation or repetition.
    """

    __slots__ = ()

    @staticmethod
    def degree(order: int) -> int:
        return len(cyclotomic_polynomial(order)) - 1

    @staticmethod
    def rational(value, order: int) -> "Cyc":
        """value (an int or any rational with numerator and denominator) in Q(zeta_order)."""
        nums = (value.numerator,) + (0,) * (Cyc.degree(order) - 1)
        return _canonical(order, nums, value.denominator)

    @staticmethod
    def one(order: int) -> "Cyc":
        return Cyc.rational(1, order)

    @staticmethod
    def root_power(k: int, order: int) -> "Cyc":
        """zeta_order^k, reduced."""
        return _canonical(order, _reduction_table(order)[k % order], 1)

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as reduced fractions."""
        # Imported here: the package computes with nums and den alone, and
        # only bench/tracer.py and the tests read the coordinates this way.
        from fractions import Fraction
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __add__(self, other: "Cyc") -> "Cyc":
        if self.order != other.order:
            raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _canonical(self.order, tuple(map(add, self.nums, other.nums)), d1)
        return _canonical(self.order, tuple([a * d2 + b * d1 for a, b in
                                             zip(self.nums, other.nums)]), d1 * d2)

    def __mul__(self, other) -> "Cyc":
        a = self.nums
        if isinstance(other, Cyc):
            if self.order != other.order:
                raise ValueError(
                    f"mixed cyclotomic orders {self.order} and {other.order}")
            b = other.nums
            den = self.den * other.den
            if len(a) == 1:
                return _canonical(self.order, (a[0] * b[0],), den)
            deg = len(a)
            conv = [0] * (2 * deg - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            conv[i + j] += x * y
            acc = conv[:deg]
            for c, row in zip(conv[deg:], _overflow_rows(self.order)):
                if c:
                    for t, r in row:
                        acc[t] += c * r
            return _canonical(self.order, tuple(acc), den)
        n = getattr(other, "numerator", None)  # a rational scalar, an int included
        if n is None:
            return NotImplemented
        return _canonical(self.order, tuple([x * n for x in a]), self.den * other.denominator)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.nums)

    def conjugate(self, k: int) -> "Cyc":
        """sigma_k(x): the Galois automorphism zeta -> zeta^k, k prime to the order.

        sum_i nums[i] zeta^i / den goes to sum_i nums[i] zeta^(ik) / den,
        with each zeta^(ik) read off `_galois_rows`.
        """
        n = self.order
        if gcd(k, n) != 1:
            raise ValueError(f"sigma_{k} is not an automorphism of Q(zeta_{n})")
        conj = [0] * len(self.nums)
        for x, image in zip(self.nums, _galois_rows(n, k)):
            if x:
                for j, r in image:
                    conj[j] += x * r
        return _canonical(n, tuple(conj), self.den)

    def inverse(self) -> "Cyc":
        """x^-1 = prod_{k != 1} sigma_k(x) / N(x), k running over (Z/N)^x.

        The norm N(x) = x * prod_{k != 1} sigma_k(x) is a rational s / d,
        so the division is integer: d, signed as s, times the numerators,
        over |s| times the denominator.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        n = self.order
        cofactor = Cyc.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                cofactor = cofactor * self.conjugate(k)
        norm = self * cofactor
        s = norm.nums[0]
        d = norm.den if s > 0 else -norm.den
        return _canonical(n, tuple([x * d for x in cofactor.nums]), cofactor.den * abs(s))
