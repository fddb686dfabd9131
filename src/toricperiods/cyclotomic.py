"""Arithmetic in Q(zeta_N) as the polynomial quotient Q[x]/Phi_N(x).

Elements are coefficient tuples of Fractions in the power basis
1, zeta, ..., zeta^(phi(N)-1).  Equality is syntactic on the reduced
form, which is what makes coefficientwise series comparison exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


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
def _reduction_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^k mod Phi_n as Fraction rows of length deg(Phi_n).

    Covers k up to max(2*deg - 2, n - 1): enough for products of two
    reduced elements and for any root power zeta^k with k < n.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    for _ in range(max(2 * deg - 1, n)):
        rows.append(tuple(cur))
        overflow = cur[-1]
        nxt = [Fraction(0)] + cur[:-1]
        nxt = nxt[:deg]
        if overflow:
            for i in range(deg):
                nxt[i] -= overflow * phi[i]
        cur = nxt
    return tuple(rows)


@dataclass(frozen=True)
class Cyc:
    """An element of Q(zeta_order)."""

    order: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def degree(order: int) -> int:
        return len(cyclotomic_polynomial(order)) - 1

    @staticmethod
    def zero(order: int) -> "Cyc":
        return Cyc(order, (Fraction(0),) * Cyc.degree(order))

    @staticmethod
    def rational(value, order: int) -> "Cyc":
        c = [Fraction(0)] * Cyc.degree(order)
        c[0] = Fraction(value)
        return Cyc(order, tuple(c))

    @staticmethod
    def one(order: int) -> "Cyc":
        return Cyc.rational(1, order)

    @staticmethod
    def root_power(k: int, order: int) -> "Cyc":
        """zeta_order^k, reduced."""
        return Cyc(order, _reduction_table(order)[k % order])

    def _require_same(self, other: "Cyc"):
        if self.order != other.order:
            raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")

    def __add__(self, other: "Cyc") -> "Cyc":
        self._require_same(other)
        return Cyc(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyc") -> "Cyc":
        self._require_same(other)
        return Cyc(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyc":
        return Cyc(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "Cyc":
        if isinstance(other, (int, Fraction)):
            return Cyc(self.order, tuple(a * other for a in self.coeffs))
        self._require_same(other)
        deg = len(self.coeffs)
        table = _reduction_table(self.order)
        acc = [Fraction(0)] * deg
        for i, x in enumerate(self.coeffs):
            if not x:
                continue
            for j, y in enumerate(other.coeffs):
                if not y:
                    continue
                row = table[i + j]
                p = x * y
                for t in range(deg):
                    if row[t]:
                        acc[t] += p * row[t]
        return Cyc(self.order, tuple(acc))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def inverse(self) -> "Cyc":
        """Inverse via the extended Euclidean algorithm against Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = list(self.coeffs)
        # r0 = Phi, r1 = self; maintain r = s * self (mod Phi).
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _poly_deg(r1) > 0:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _poly_deg(r1) < 0:
            raise ZeroDivisionError("element is a zero divisor (Phi_N not coprime?)")
        c = r1[0]
        inv = [x / c for x in s1]
        deg = len(self.coeffs)
        out = [Fraction(0)] * deg
        table = _reduction_table(self.order)
        for i, x in enumerate(inv):
            if x:
                row = table[i]
                for t in range(deg):
                    out[t] += x * row[t]
        return Cyc(self.order, tuple(out))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*zeta")
            else:
                parts.append(f"{c}*zeta^{i}")
        return " + ".join(parts)


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_deg(p):
    p = _trim(p)
    return -1 if p == [0] else len(p) - 1


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _poly_divmod(a, b):
    a = _trim(a)
    b = _trim(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while _poly_deg(r) >= _poly_deg(b):
        shift = _poly_deg(r) - _poly_deg(b)
        c = r[_poly_deg(r)] / b[_poly_deg(b)]
        q[shift] += c
        for i in range(len(b)):
            r[shift + i] -= c * b[i]
        r = _trim(r)
        if r == [0]:
            break
    return _trim(q), _trim(r)


def lcm_orders(orders) -> int:
    from math import lcm
    out = 1
    for n in orders:
        out = lcm(out, int(n))
    return out
