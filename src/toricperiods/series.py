"""Truncated Laurent series in u with Laurent-polynomial coefficients.

The coefficient ring is Q(zeta_N)[z_1^{±1}, ..., z_s^{±1}] for a fixed
cyclotomic order N and a fixed tuple of formal character variables.  A
series knows the largest u-exponent it is exact up to (`trunc`), so a
product of series each known modulo u^{U+1} correctly tracks how far the
result can be trusted, including through negative-exponent prefactors.

Everything is exact; nothing is ever evaluated numerically.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import groupby
from math import gcd, lcm
from operator import add

from .cyclotomic import Cyc, _canonical, _galois_rows, _overflow_rows, _reduction_table

ZExp = tuple[int, ...]

# A practically-infinite truncation order for exact monomials.
EXACT = 10 ** 9


class Monomial(namedtuple("Monomial", "zeta u z")):
    """zeta_N^zeta * u^u * z^z with z an exponent vector of the formal variables."""

    __slots__ = ()

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.zeta + other.zeta, self.u + other.u,
                        tuple(map(add, self.z, other.z)))

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


def _zp_scale(a: dict, num: int, den: int) -> dict:
    """Every term of a z-polynomial times num / den (den > 0)."""
    return {z: _canonical(v.order, tuple([x * num for x in v.nums]), v.den * den)
            for z, v in a.items()}


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


class SeriesRows(list):
    """The rows of `TruncatedSeries.serialize`, marked for the report writer (`rows_json`)."""

    __slots__ = ()


def rows_json(rows, pad: str) -> str:
    """Series rows as json.dumps(rows, indent=1) writes them, at the indent pad.

    pad is the newline and indent of the line the rows start on.  One
    loop over rows and terms: every string is a str(int), so none needs
    escaping.
    """
    if not rows:
        return "[]"
    p1, p2, p3, p4, p5 = (pad + " " * depth for depth in range(1, 6))
    row_open = "[" + p2 + '"'
    terms_open = '",' + p2 + "[" + p3
    term_open = "[" + p4 + '"'
    field = '",' + p4 + '"'
    z_open = '",' + p4 + "[" + p5 + '"'
    z_sep = '",' + p5 + '"'
    z_close = '"' + p4 + "]" + p3 + "]"
    no_z = '",' + p4 + "[]" + p3 + "]"
    term_sep = "," + p3
    row_close = p2 + "]" + p1 + "]"
    out = []
    for u, terms in rows:
        texts = []
        for num, den, k, zs in terms:
            texts.append(term_open + num + field + den + field + k
                         + (z_open + z_sep.join(zs) + z_close if zs else no_z))
        out.append(row_open + u + (terms_open + term_sep.join(texts) + row_close
                                   if texts else '",' + p2 + "[]" + p1 + "]"))
    return "[" + p1 + ("," + p1).join(out) + pad + "]"


class _RowPacking:
    """One row of z-polynomials over Q(zeta_N) as a dict of integers over one denominator.

    A term x * zeta^i * z^e / den of a row is the entry key -> x with

        key = i + R * zkey,   R = 2 * phi(N),

    where zkey holds e_1, ..., e_nvars as balanced digits in radix
    2 * half + 1, e_1 most significant.  Packed keys add as the monomials
    multiply: the index of a product of two reduced coordinates is at
    most 2 * phi(N) - 2 < R, and while every exponent stays within
    [-half, half] no digit carries into the next.  Integer order of the
    keys is then lexicographic order of the exponents, then of i.  The
    packing is linear in the exponents too: d * zkey packs z^(d*e).

    One packing serves a whole Euler product up to u^top: the logarithm
    of every class factor, the Adams images of those logarithms, their
    sum and its exponential.  Its half-width is top * max|z|, the maximum
    taken over the rows at u <= top of every class factor (`spanning`).
    A row that log or exp builds at u <= top is a sum of products of
    input terms whose u-exponents (each >= 1) add up to u, so its
    exponents are bounded by u * max|z|; the Adams image psi^(d')_k of a
    logarithm row m multiplies them by d' and survives only at
    u = d' * m <= top, so it is bounded the same way.
    """

    ONE = ({0: 1}, 1)  # the constant 1: z = 0, zeta^0, over 1

    def __init__(self, nvars: int, order: int, half: int):
        self.nvars = nvars
        self.order = order
        self.deg = Cyc.degree(order)
        self.half = half
        self.radix = 2 * half + 1
        self.width = 2 * self.deg
        self.over = _overflow_rows(order)

    @staticmethod
    def spanning(series, top: int) -> "_RowPacking":
        """The packing of every row built from these series (of one ring) up to u^top."""
        widest = max((abs(e) for s in series for u, terms in s.coeffs if u <= top
                      for z, _ in terms for e in z), default=0)
        return _RowPacking(series[0].nvars, series[0].order, top * widest)

    def pack(self, terms) -> tuple[dict, int]:
        """(packed row, positive denominator) for (z_exp, Cyc) terms.

        An exponent outside [-half, half] raises ValueError: it would
        alias another monomial.
        """
        den = lcm(*(c.den for _, c in terms))
        row = {}
        for z, c in terms:
            zkey = 0
            for e in z:
                if not -self.half <= e <= self.half:
                    raise ValueError(f"z-exponent {e} does not fit the packing "
                                     f"radix {self.radix}")
                zkey = zkey * self.radix + e
            base = zkey * self.width
            scale = den // c.den
            for i, x in enumerate(c.nums):
                if x:
                    row[base + i] = x * scale
        return row, den

    def combine(self, products, div: int) -> tuple[dict, int] | None:
        """sum m * a * b / div over (a, b, m), a and b packed rows: one convolution each."""
        den = lcm(*(a[1] * b[1] for a, b, _ in products))
        acc = defaultdict(int)
        for (a, da), (b, db), m in products:
            m *= den // (da * db)
            for ka, x in a.items():
                x *= m
                for kb, y in b.items():
                    acc[ka + kb] += x * y
        return self.finish(acc, den * div)

    def finish(self, acc: defaultdict, den: int) -> tuple[dict, int] | None:
        """acc / den reduced modulo Phi_N and to lowest terms; None if zero."""
        deg, width = self.deg, self.width
        if deg > 1:
            for key in [k for k in acc if k % width >= deg]:
                x = acc.pop(key)
                i = key % width
                for t, r in self.over[i - deg]:
                    acc[key - i + t] += x * r
        row = {k: x for k, x in acc.items() if x}
        if not row:
            return None
        g = gcd(den, *row.values())
        if g != 1:
            row = {k: x // g for k, x in row.items()}
            den //= g
        return row, den

    def log_rows(self, series: "TruncatedSeries", top: int) -> dict:
        """{n: g_n} with log(series) = sum_n g_n u^n up to u^top, g_n a packed row.

        Solves f * g' = f' row by row: n g_n = n f_n - sum_{k<n} k g_k f_{n-k}.
        The recurrence carries the rows k g_k: each row pair is one
        integer-dict convolution, each finished row is reduced modulo
        Phi_N and by its gcd once, and the division by n is left to the
        row's denominator.
        """
        if series.low is not None and series.low < 0:
            raise ValueError("log needs a series with no negative u-exponents")
        one = ((0,) * series.nvars, Cyc.one(series.order))
        if not series.coeffs or series.coeffs[0] != (0, (one,)):
            raise ValueError("log needs a constant row of exactly 1")
        f = {u: self.pack(terms) for u, terms in series.coeffs[1:] if u <= top}
        dg: dict = {}  # n -> n * g_n, nonzero rows only
        for n in range(1, top + 1):
            products = [(dg[k], f[n - k], -1) for k in dg if n - k in f]
            if n in f:
                products.append((f[n], self.ONE, n))
            if products and (row := self.combine(products, 1)):
                dg[n] = row
        return {n: (row, den * n) for n, (row, den) in dg.items()}

    def exp_rows(self, rows: dict, top: int) -> dict:
        """{n: h_n} with exp(sum_k G_k u^k) = sum_n h_n u^n up to u^top, for {k: G_k}, k >= 1.

        Solves h' = G' h row by row: n h_n = sum_{k<=n} k G_k h_{n-k}, one
        convolution per row pair with the factor k folded into that pair's
        integer multiplier, and the division by n taken with the row's
        gcd when the row is finished.
        """
        h = {0: self.ONE}
        for n in range(1, top + 1):
            products = [(a, h[n - k], k) for k, a in rows.items() if n - k in h]
            if products and (row := self.combine(products, n)):
                h[n] = row
        return h

    def adams_sum(self, images) -> tuple[dict, int] | None:
        """sum m * psi^d_k(row / den) over (m, d, k, (row, den)), finished once; None if zero.

        The packed Adams map moves the key i + R * zkey to t + R * d * zkey
        for each term r * zeta^t of the reduced zeta^(ik) (`_galois_rows`):
        z -> z^d scales the z part of the key, sigma_k acts on the index.
        The caller moves the row from u to d * u.
        """
        den = lcm(*(rd for *_, (_, rd) in images))
        acc = defaultdict(int)
        width = self.width
        for m, d, k, (row, rd) in images:
            m *= den // rd
            galois = _galois_rows(self.order, k)
            for key, x in row.items():
                i = key % width
                base = (key - i) * d
                x *= m
                for t, r in galois[i]:
                    acc[base + t] += x * r
        return self.finish(acc, den)

    def series(self, rows: dict, top: int) -> "TruncatedSeries":
        """The series exact to u^top with the packed rows {u: (row, den)}, u ascending."""
        return TruncatedSeries(self.nvars, self.order, top,
                               tuple((u, self.unpack(row, den)) for u, (row, den) in rows.items()))

    def unpack(self, row: dict, den: int) -> tuple:
        """The row as sorted (z_exp, Cyc) terms over den, one canonical Cyc per z."""
        terms = []
        for zkey, keys in groupby(sorted(row), lambda k: k // self.width):
            nums = [0] * self.deg
            for k in keys:
                nums[k % self.width] = row[k]
            terms.append((self._exponents(zkey), _canonical(self.order, tuple(nums), den)))
        return tuple(terms)

    def _exponents(self, zkey: int) -> ZExp:
        out = []
        for _ in range(self.nvars):
            e = (zkey + self.half) % self.radix - self.half
            out.append(e)
            zkey = (zkey - e) // self.radix
        return tuple(reversed(out))


class MonomialKeys(namedtuple("MonomialKeys", "order halves")):
    """The monomials zeta^k u^e z^z of one ring packed into integers.

    A key has balanced digits, most significant first: e, then z_1, ...,
    z_s with halves[i] bounding |z_(i+1)|, then k with halves[-1]
    bounding |k| (e is not bounded).  Keys add as the monomials multiply
    while every digit of the sum stays within its half-width, so the key
    of psi(x)^deg is the dot product of x with the keys of psi(e_j)^deg
    (`keys`).  Integer order of keys is lexicographic order of (e, z, k).
    """

    __slots__ = ()

    @staticmethod
    def spanning(psi, reach, deg: int) -> "MonomialKeys":
        """The packing of psi(x)^deg for every x with |x_j| <= reach[j].

        psi is a character: its coords are the monomials psi(e_j), whose
        zeta exponents are read mod psi.order.
        """
        pairs = list(zip(psi.coords, reach))
        halves = [deg * sum(r * abs(m.z[i]) for m, r in pairs) for i in range(psi.nvars)]
        halves.append(deg * sum(r * (m.zeta % psi.order) for m, r in pairs))
        return MonomialKeys(psi.order, tuple(halves))

    def keys(self, psi, deg: int) -> tuple[int, ...]:
        """The key of psi(e_j)^deg for each coordinate j of the character psi."""
        out = []
        for m in psi.coords:
            key = deg * m.u
            for e, h in zip(m.z, self.halves):
                key = key * (2 * h + 1) + deg * e
            out.append(key * (2 * self.halves[-1] + 1) + deg * (m.zeta % self.order))
        return tuple(out)


class TruncatedSeries(namedtuple("TruncatedSeries", "nvars order trunc coeffs")):
    """Coefficients by u-exponent, exact for every exponent <= trunc.

    coeffs is a sorted tuple of (u_exp, tuple of (z_exp, Cyc)).
    """

    __slots__ = ()

    # --- construction -------------------------------------------------

    @staticmethod
    def zero(nvars: int, order: int, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries(nvars, order, trunc, ())

    @staticmethod
    def one(nvars: int, order: int, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries.from_monomial(Monomial.one(nvars), nvars, order, trunc)

    @staticmethod
    def from_monomial(mon: Monomial, nvars: int, order: int,
                      trunc: int = EXACT) -> "TruncatedSeries":
        c = Cyc.root_power(mon.zeta, order)
        return TruncatedSeries(nvars, order, trunc, ((mon.u, ((mon.z, c),)),))

    @staticmethod
    def from_keys(keys, packing: MonomialKeys, trunc: int) -> "TruncatedSeries":
        """1 plus the sum of the monomials with these packed keys, exact to trunc (a local factor).

        The keys are counted, and each (u, z) coefficient is formed once,
        as sum count * zeta^k over its keys, from `_reduction_table` rows.
        The (u, z) are then decoded once each, in sorted order, which is
        the series' own row and term order.
        """
        counts = Counter(keys)
        counts[0] += 1  # the key of 1
        order = packing.order
        table = _reduction_table(order)
        *halves, half = packing.halves
        if half:  # the keys of one (u, z) differ in their last digit, k
            sums = {}
            for key, c in counts.items():
                g, k = divmod(key + half, 2 * half + 1)
                if (nums := sums.get(g)) is None:
                    nums = sums[g] = [0] * len(table[0])
                for i, r in enumerate(table[(k - half) % order]):
                    nums[i] += c * r
        else:
            sums = counts
        zero = (0,) * (len(table[0]) - 1)
        offset = 0  # the key, without k, of u = 0 and every z_i at its half-width
        for h in halves:
            offset = offset * (2 * h + 1) + h
        digits = [(2 * h + 1, h) for h in reversed(halves)]
        rows: dict = {}
        for g in sorted(sums):
            u = g + offset  # its z digits are now z_i + half_i, in [0, 2 * half_i]
            z = []
            for radix, h in digits:
                u, d = divmod(u, radix)
                z.append(d - h)
            if u > trunc:
                break
            nums = tuple(sums[g]) if half else (sums[g],) + zero
            if any(nums):
                z.reverse()
                rows.setdefault(u, []).append((tuple(z), _canonical(order, nums, 1)))
        return TruncatedSeries(len(halves), order, trunc,
                               tuple((u, tuple(terms)) for u, terms in rows.items()))

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

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The general product, one Cyc product and one Cyc sum per pair of terms.

        No product of the package runs through it: a prefactor is a
        `times_monomial` shift.  It stays as the tests' oracle for that
        shift and for the packed kernel (through `power`), and as the
        benchmark tracer's hook.
        """
        self._require_compatible(other)
        if self.is_zero() and other.is_zero():
            return TruncatedSeries.zero(self.nvars, self.order,
                                        min(self.trunc, other.trunc))
        if self.is_zero() or other.is_zero():
            # The zero side's unknown terms start at its trunc + 1.
            z, s = (self, other) if self.is_zero() else (other, self)
            return TruncatedSeries.zero(self.nvars, self.order,
                                        min(z.trunc + s.low, z.trunc + 1 + s.trunc, EXACT))
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

    def times_monomial(self, mon: Monomial) -> "TruncatedSeries":
        """The series times zeta^mon.zeta * u^mon.u * z^mon.z: a shift of every term.

        Rows move by mon.u and z-exponents by mon.z, which keeps every
        order, and each coefficient is multiplied by the root of unity
        only when it is not 1.  Exact to min(trunc + mon.u, EXACT + low,
        EXACT), as the general product with the exact monomial is.
        """
        du, dz = mon.u, mon.z
        if self.coeffs:
            trunc = min(self.trunc + du, EXACT + self.low, EXACT)
        else:
            trunc = min(self.trunc + du, EXACT)
        root = Cyc.root_power(mon.zeta, self.order) if mon.zeta % self.order else None
        rows = tuple(
            (u + du, tuple((tuple(map(add, z, dz)), c if root is None else c * root)
                           for z, c in terms))
            for u, terms in self.coeffs if u + du <= trunc)
        return TruncatedSeries(self.nvars, self.order, trunc, rows)

    def scale(self, num: int, den: int) -> "TruncatedSeries":
        """Every coefficient times the rational num / den, den > 0."""
        data = {u: _zp_scale(dict(terms), num, den) for u, terms in self.coeffs}
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
        rows and terms stay sorted.  sigma_k is skipped when k = 1 mod the
        order, and psi^1_k is then the identity: the series itself.
        """
        if d < 1:
            raise ValueError("substitution degree must be >= 1")
        same = k % self.order == 1 % self.order
        if d == 1 and same:
            return self
        rows = tuple((u * d, tuple((tuple(a * d for a in z),
                                    c if same else c.conjugate(k))
                                   for z, c in terms))
                     for u, terms in self.coeffs)
        trunc = self.trunc * d + d - 1 if self.trunc < EXACT else EXACT
        return TruncatedSeries(self.nvars, self.order, min(trunc, EXACT), rows)

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

    def serialize(self) -> SeriesRows:
        """[[u_exp, [[num, den, zeta_exp, z_exps], ...]], ...] with string ints.

        A `SeriesRows` list, which `rows_json` writes into a report.
        """
        return SeriesRows([serialize_row(u, terms) for u, terms in self.coeffs])
