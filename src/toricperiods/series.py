"""Truncated Laurent series in u with Laurent-polynomial coefficients.

The coefficient ring is Q(zeta_N)[z_1^{±1}, ..., z_s^{±1}] for a fixed
cyclotomic order N and a fixed tuple of formal character variables.  A
series knows the largest u-exponent it is exact up to (`trunc`), so a
product of series each known modulo u^{U+1} correctly tracks how far the
result can be trusted, including through negative-exponent prefactors.

Everything is exact; nothing is ever evaluated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add

from .cyclotomic import Cyc

ZExp = tuple[int, ...]

# A practically-infinite truncation order for exact monomials.
EXACT = 10 ** 9


@dataclass(frozen=True)
class Monomial:
    """zeta_N^zeta * u^u * z^z with z an exponent vector of the formal variables."""

    zeta: int
    u: int
    z: ZExp

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.zeta + other.zeta, self.u + other.u,
                        tuple(a + b for a, b in zip(self.z, other.z)))

    def power(self, k: int) -> "Monomial":
        return Monomial(self.zeta * k, self.u * k, tuple(a * k for a in self.z))

    def is_one(self, order: int) -> bool:
        return self.zeta % order == 0 and self.u == 0 and not any(self.z)

    @staticmethod
    def one(nvars: int) -> "Monomial":
        return Monomial(0, 0, (0,) * nvars)


def _zp_add_term(poly: dict, zexp: ZExp, val: Cyc):
    cur = poly.get(zexp)
    if cur is None:
        if not val.is_zero():
            poly[zexp] = val
        return
    new = cur + val
    if new.is_zero():
        del poly[zexp]
    else:
        poly[zexp] = new


def _zp_mul_add(acc: dict, a, b):
    """acc += a * b for z-polynomials given as iterables of (z_exp, Cyc)."""
    for za, ca in a:
        for zb, cb in b:
            _zp_add_term(acc, tuple(map(add, za, zb)), ca * cb)


def _zp_scale(a: dict, c) -> dict:
    out = {}
    for z, v in a.items():
        w = v * c
        if not w.is_zero():
            out[z] = w
    return out


def serialize_row(u: int, terms) -> list:
    """[u_exp, [[num, den, zeta_exp, z_exps], ...]] with string ints.

    terms are (z_exp, Cyc) pairs.  Each nonzero power-basis coordinate
    nums[k] / den of a coefficient becomes one term, in lowest terms.
    """
    out = []
    for z, c in terms:
        zs = [str(e) for e in z]
        den = c.den
        for k, x in enumerate(c.nums):
            if x:
                g = gcd(x, den)
                out.append([str(x // g), str(den // g), str(k), zs])
    return [str(u), out]


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients by u-exponent, exact for every exponent <= trunc."""

    nvars: int
    order: int
    trunc: int
    coeffs: tuple  # sorted tuple of (u_exp, tuple of (z_exp, Cyc))

    # --- construction -------------------------------------------------

    @staticmethod
    def zero(nvars: int, order: int, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries(nvars, order, trunc, ())

    @staticmethod
    def one(nvars: int, order: int, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries.from_monomial(Monomial.one(nvars), nvars, order, trunc)

    @staticmethod
    def from_monomial(mon: Monomial, nvars: int, order: int,
                      trunc: int = EXACT, scale=1) -> "TruncatedSeries":
        c = Cyc.root_power(mon.zeta, order) * Fraction(scale)
        if c.is_zero():
            return TruncatedSeries.zero(nvars, order, trunc)
        return TruncatedSeries(nvars, order, trunc,
                               ((mon.u, ((mon.z, c),)),))

    @staticmethod
    def from_monomials(monomials, nvars: int, order: int,
                       trunc: int) -> "TruncatedSeries":
        """1 plus the sum of the monomials, exact to trunc (a local factor)."""
        data = {0: {(0,) * nvars: Cyc.one(order)}}
        for mon in monomials:
            _zp_add_term(data.setdefault(mon.u, {}), mon.z,
                         Cyc.root_power(mon.zeta, order))
        return TruncatedSeries.from_dict(data, nvars, order, trunc)

    @staticmethod
    def from_dict(data: dict, nvars: int, order: int, trunc: int) -> "TruncatedSeries":
        rows = []
        for u in sorted(data):
            poly = data[u]
            terms = tuple(sorted(((z, c) for z, c in poly.items() if not c.is_zero()),
                                 key=lambda t: t[0]))
            if terms and u <= trunc:
                rows.append((u, terms))
        return TruncatedSeries(nvars, order, trunc, tuple(rows))

    # --- views ---------------------------------------------------------

    def as_dict(self) -> dict:
        return {u: dict(terms) for u, terms in self.coeffs}

    def coefficient(self, u: int) -> dict:
        for uu, terms in self.coeffs:
            if uu == u:
                return dict(terms)
        return {}

    @property
    def low(self) -> int | None:
        return self.coeffs[0][0] if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    # --- arithmetic ----------------------------------------------------

    def _require_compatible(self, other: "TruncatedSeries"):
        if self.nvars != other.nvars or self.order != other.order:
            raise ValueError("incompatible series rings")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_compatible(other)
        trunc = min(self.trunc, other.trunc)
        data: dict = {}
        for u, terms in self.coeffs:
            if u <= trunc:
                for z, c in terms:
                    _zp_add_term(data.setdefault(u, {}), z, c)
        for u, terms in other.coeffs:
            if u <= trunc:
                for z, c in terms:
                    _zp_add_term(data.setdefault(u, {}), z, c)
        return TruncatedSeries.from_dict(data, self.nvars, self.order, trunc)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_compatible(other)
        if self.is_zero() or other.is_zero():
            return TruncatedSeries.zero(self.nvars, self.order,
                                        min(self.trunc, other.trunc))
        # Exactness of the product: a term at exponent e needs every split
        # e = e1 + e2 with e1 from self known and e2 from other known.
        trunc = min(self.trunc + other.low, other.trunc + self.low, EXACT)
        data: dict = {}
        for u1, t1 in self.coeffs:
            for u2, t2 in other.coeffs:
                u = u1 + u2
                if u > trunc:
                    continue
                _zp_mul_add(data.setdefault(u, {}), t1, t2)
        return TruncatedSeries.from_dict(data, self.nvars, self.order, trunc)

    def scale(self, c) -> "TruncatedSeries":
        """Every coefficient times c (a Cyc of the same order, int or Fraction)."""
        data = {u: _zp_scale(dict(terms), c) for u, terms in self.coeffs}
        return TruncatedSeries.from_dict(data, self.nvars, self.order, self.trunc)

    def power(self, k: int) -> "TruncatedSeries":
        """Binary powering; k must be nonnegative."""
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = TruncatedSeries.one(self.nvars, self.order, self.trunc)
        if k == 0:
            return result
        base = self
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def shift_u(self, e: int) -> "TruncatedSeries":
        rows = tuple((u + e, terms) for u, terms in self.coeffs)
        return TruncatedSeries(self.nvars, self.order,
                               min(self.trunc + e, EXACT), rows)

    def truncate(self, trunc: int) -> "TruncatedSeries":
        """The rows at u <= trunc, exact to min(trunc, self.trunc)."""
        rows = tuple(row for row in self.coeffs if row[0] <= trunc)
        return TruncatedSeries(self.nvars, self.order, min(trunc, self.trunc), rows)

    def substitute_u_power(self, d: int, k: int = 1) -> "TruncatedSeries":
        """The Adams operation psi^d_k: u -> u^d, z -> z^d, sigma_k on every coefficient.

        A ring endomorphism for d >= 1 and k prime to the order, so it
        commutes with log and exp.  The image is exact to u^(d*trunc + d - 1)
        and is cut there.  Scaling z by d > 0 keeps each row's z-order, so
        rows and terms stay sorted.
        """
        if d < 1:
            raise ValueError("substitution degree must be >= 1")
        rows = tuple((u * d, tuple((tuple(a * d for a in z), c.conjugate(k))
                                   for z, c in terms))
                     for u, terms in self.coeffs)
        trunc = self.trunc * d + d - 1 if self.trunc < EXACT else EXACT
        return TruncatedSeries(self.nvars, self.order, min(trunc, EXACT), rows)

    def _finite_trunc(self, name: str) -> int:
        if self.trunc >= EXACT:
            raise ValueError(f"{name} needs a finite truncation order")
        return self.trunc

    def log(self) -> "TruncatedSeries":
        """Logarithm of 1 + (terms at u > 0), exact to the same order.

        Solves f * g' = f' row by row: n g_n = n f_n - sum_{k<n} k g_k f_{n-k}.
        The recurrence carries the rows k g_k, so a row is scaled by n once
        and divided by n once; products visit only nonzero row pairs.
        """
        top = self._finite_trunc("log")
        if self.low is not None and self.low < 0:
            raise ValueError("log needs a series with no negative u-exponents")
        one = ((0,) * self.nvars, Cyc.one(self.order))
        if not self.coeffs or self.coeffs[0] != (0, (one,)):
            raise ValueError("log needs a constant row of exactly 1")
        rows = dict(self.coeffs[1:])
        neg = {u: [(z, -c) for z, c in terms] for u, terms in rows.items()}
        dg: dict = {}  # n -> n * g_n, nonzero rows only
        for n in range(1, top + 1):
            acc = _zp_scale(dict(rows.get(n, ())), n)
            for k, row in dg.items():
                f = neg.get(n - k)
                if f:
                    _zp_mul_add(acc, row.items(), f)
            if acc:
                dg[n] = acc
        data = {n: _zp_scale(row, Fraction(1, n)) for n, row in dg.items()}
        return TruncatedSeries.from_dict(data, self.nvars, self.order, top)

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with terms at u > 0 only, exact to the same order.

        Solves h' = G' h row by row: n h_n = sum_{k<=n} k G_k h_{n-k}, with
        each row k G_k scaled once and each sum divided by n once.
        """
        top = self._finite_trunc("exp")
        if self.low is not None and self.low <= 0:
            raise ValueError("exp needs a series with terms at u > 0 only")
        dG = [(k, [(z, c * k) for z, c in terms]) for k, terms in self.coeffs]
        h = {0: {(0,) * self.nvars: Cyc.one(self.order)}}
        for n in range(1, top + 1):
            acc: dict = {}
            for k, row in dG:
                if k > n:
                    break
                prev = h.get(n - k)
                if prev:
                    _zp_mul_add(acc, row, prev.items())
            if acc:
                h[n] = _zp_scale(acc, Fraction(1, n))
        return TruncatedSeries.from_dict(h, self.nvars, self.order, top)

    # --- comparison and output ------------------------------------------

    def first_mismatch(self, other: "TruncatedSeries"):
        """First (u_exp, mine, theirs) where the series differ, else None.

        Compares every exponent up to the common exactness order.
        """
        self._require_compatible(other)
        top = min(self.trunc, other.trunc)
        exps = sorted({u for u, _ in self.coeffs} | {u for u, _ in other.coeffs})
        for u in exps:
            if u > top:
                break
            a = self.coefficient(u)
            b = other.coefficient(u)
            if a != b:
                return (u, a, b)
        return None

    def serialize(self) -> list:
        """[[u_exp, [[num, den, zeta_exp, z_exps], ...]], ...] with string ints."""
        return [serialize_row(u, terms) for u, terms in self.coeffs]

    def __str__(self):
        if self.is_zero():
            return f"O(u^{self.trunc + 1})"
        parts = []
        for u, terms in self.coeffs:
            bits = []
            for z, c in terms:
                zs = "".join(f"*z{i + 1}^{e}" for i, e in enumerate(z) if e)
                bits.append(f"({c}){zs}")
            parts.append(f"[{' + '.join(bits)}]*u^{u}")
        return " + ".join(parts) + f" + O(u^{self.trunc + 1})"
