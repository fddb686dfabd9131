"""The base projective line over F_q: places, zeta series, normalizations.

Only genus zero is supported.  A place of degree e has e points over
F_(q^d) when e | d, so the point counts N_d = q^d + 1 = sum_(e | d) e a_e
give the closed-point counts a_d degree by degree.  The half-canonical
divisor data (one marked degree-one place with twist -1) realises the
degree constraint 2 * sum(m_v deg v) = -2, so the spin idele has degree
1 - g = 1 and the period prefactors (`periods.automorphic_prefactor`,
`periods.spectral_prefactor`) need no spin datum.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclotomic import Cyc
from .series import TruncatedSeries


class InvalidSpin(ValueError):
    """The spin entry at `index` names a place of degree < 1."""

    def __init__(self, index: int, degree: int):
        self.index = index
        super().__init__(f"place degree {degree} is not >= 1")


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first thirteen prime bases.

    Exact below psi_13 = 3317044064679887385961981, the least strong
    pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86, 2017);
    above that bound it is a strong probable-prime test.
    """
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by integer Newton iteration from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime_power(q: int) -> bool:
    """True when q = p^k for a prime p and k >= 1, i.e. a field F_q exists."""
    if q < 2:
        return False
    for k in range(1, q.bit_length() + 1):
        r = _iroot(q, k)
        if r ** k == q and _is_prime(r):
            return True
    return False


class Curve(namedtuple("Curve", "q genus spin", defaults=(0, ((1, -1),)))):
    """P^1 over F_q with its canonical spin data.

    spin lists (place_degree, m_v) pairs for the marked places; all other
    places carry m_v = 0.  The default is the divisor of dx: a single
    double pole at infinity, so m_infinity = -1 at a degree-one place.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not is_prime_power(self.q):
            raise ValueError(f"q = {self.q} is not a prime power")
        if self.genus != 0:
            raise ValueError("only genus zero is supported")
        for i, (d, _) in enumerate(self.spin):
            if d < 1:
                raise InvalidSpin(i, d)
        total = sum(2 * m * d for d, m in self.spin)
        if total != 2 * self.genus - 2:
            raise ValueError(
                f"spin degree sum {total} != 2g-2 = {2 * self.genus - 2}")
        return self

    def point_count(self, n: int) -> int:
        return self.q ** n + 1


def place_counts(curve: Curve, cutoff: int) -> tuple[int, ...]:
    """Closed points of each degree up to cutoff: a_d = (N_d - sum_(e | d, e < d) e a_e) / d."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    counts = []
    for d in range(1, cutoff + 1):
        total = curve.point_count(d) - sum(e * counts[e - 1] for e in range(1, d) if d % e == 0)
        if total % d:
            raise ValueError(f"{total} points of degree {d} are not a whole number of places")
        counts.append(total // d)
    return tuple(counts)


def zeta_series(curve: Curve, order: int) -> TruncatedSeries:
    """prod over places (1 - t^deg)^(-1), truncated at t^order.

    Returned as a series in a single formal exponent slot (the u-slot
    doubles as the t-slot; there are no character variables).  The
    product goes through the same kernel as every period.
    """
    from .periods import euler_product

    one = Cyc.one(1)

    def geometric(d: int) -> TruncatedSeries:
        return TruncatedSeries.from_dict(
            {k: {(): one} for k in range(0, order + 1, d)}, 0, 1, order)

    return euler_product(geometric, curve, order, (0, 1))
