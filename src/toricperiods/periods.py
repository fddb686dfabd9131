"""The two period computations and the weak-duality verifier.

The automorphic engine walks the cocharacter lattice and keeps a point
when it pairs nonnegatively with every Hilbert-basis element of the dual
monoid (integrality read off the dual description).  The spectral engine
sums graded slices of the monoid algebra at the fixed point, enumerated
through primal level sets.  The two code paths share nothing but series
arithmetic; their agreement, coefficient by coefficient, is the content
being verified.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .characters import Character, extended_character
from .cones import Cone, dual_cone, hilbert_basis, monoid_points
from .curve import Curve, place_counts
from .duality import GradedDualPair, GradedToricDatum
from .intlinalg import Vector, dot, vec
from .series import Monomial, TruncatedSeries


# Local factors of degree 1..SAMPLE_DEGREES are reported beside a check.
SAMPLE_DEGREES = 3

# The memo of the innermost euler_memo() scope, None outside every scope.
_EULER_MEMO: ContextVar[dict | None] = ContextVar("euler_memo", default=None)


class PositivityViolation(ValueError):
    """The effective weight functional is not strictly positive on a ray."""

    def __init__(self, witness, value):
        self.witness = witness
        self.value = value
        super().__init__(
            f"effective weight {value} on ray {witness}: truncation undefined")


def effective_weight(chi: Character, eta) -> Vector:
    """Covector of total u-growth: eigenform weight plus specialization slopes."""
    eta = vec(eta)
    return tuple(e + m.u for e, m in zip(eta, chi.coords))


def positivity_certificate(cone: Cone, chi: Character, eta) -> Vector:
    w = effective_weight(chi, eta)
    for r in cone.rays:
        v = dot(w, r)
        if v <= 0:
            raise PositivityViolation(r, v)
    return w


def _weight_box(rays, weights, bound: int, n: int):
    lo = [Fraction(0)] * n
    hi = [Fraction(0)] * n
    for r, wr in zip(rays, weights):
        for j in range(n):
            t = Fraction(bound * r[j], wr)
            if t > 0:
                hi[j] += t
            else:
                lo[j] += t
    return [math.ceil(x) for x in lo], [math.floor(x) for x in hi]


def automorphic_local_factor(datum: GradedToricDatum, chi: Character,
                             place_degree: int, order: int) -> TruncatedSeries:
    """Local integral over the torus against the integral-point indicator.

    Membership of a cocharacter is decided purely through the dual
    description: nonnegative pairing with every Hilbert-basis element of
    the dual monoid.  Candidate points come from a ray-derived box large
    enough for the requested truncation.
    """
    psi = extended_character(chi, datum.eta)
    w = positivity_certificate(datum.cone, chi, datum.eta)
    n = datum.rank
    terms = []
    bound = order // place_degree
    if bound >= 1 and datum.cone.rays:
        dual_basis = hilbert_basis(dual_cone(datum.cone))
        weights = [dot(w, r) for r in datum.cone.rays]
        lo, hi = _weight_box(datum.cone.rays, weights, bound, n)
        for cand in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            if not any(cand):
                continue
            if any(dot(cand, h) < 0 for h in dual_basis):
                continue
            mon = psi.value(cand, place_degree)
            if 0 < mon.u <= order:
                terms.append(mon)
    return TruncatedSeries.from_monomials(terms, chi.nvars, chi.order, order)


def spectral_local_factor(datum_check: GradedToricDatum, phi: Character,
                          place_degree: int, order: int) -> TruncatedSeries:
    """Graded trace of Frobenius on the monoid algebra at the fixed point.

    Enumerates the character monoid of the dual-side variety by primal
    level sets of the effective weight (grading plus u-slopes), so level
    m sits at u^(m * place_degree); independent of the automorphic path
    by construction.
    """
    monoid_cone = dual_cone(datum_check.cone)
    w = positivity_certificate(monoid_cone, phi, datum_check.rho)
    psi = extended_character(phi, datum_check.rho)
    return level_set_factor(monoid_cone, psi, w, place_degree, order)


def level_set_factor(cone: Cone, psi: Character, w: Vector, deg: int,
                     order: int) -> TruncatedSeries:
    """1 plus psi summed over the nonzero monoid points of w-level <= order // deg.

    psi must carry u-slopes w, so the point x lands at u^(deg * <w, x>):
    the level bound is the truncation, and no term needs filtering.
    """
    return TruncatedSeries.from_monomials(
        (psi.value(pt, deg) for pt in monoid_points(cone, w, order // deg)),
        psi.nvars, psi.order, order)


def euler_product(local_factor, curve: Curve, order: int,
                  max_degree: int | None = None) -> TruncatedSeries:
    """prod over degrees d of local_factor(d)^(a_d), a_d the places of degree d.

    Computed as exp(sum_d a_d * log local_factor(d)): every local factor
    is 1 plus terms at u > 0, so its logarithm and the one exponential of
    the sum are exact O(U^2) row recurrences over Q(zeta_N)[z^{±1}], and
    the cost no longer grows with log2(a_d) as binary powering does.  The
    factor for each degree is still enumerated at that degree; it is not
    obtained from the degree-one factor by u -> u^d, because zeta -> zeta^d
    is not an automorphism of Q(zeta_N) when gcd(d, N) > 1.

    Places of degree above the truncation order cannot contribute, and a
    caller holding a sharper bound on the minimal weight of a nonzero
    point may tighten the cutoff further through max_degree.

    Inside an `euler_memo()` scope the result is remembered under the
    local factors in degree order and the place counts a_d.  The product
    is a function of exactly that key, so a remembered result is never
    stale, whichever engine enumerated the factors.
    """
    top = max(order, 0)
    if max_degree is not None:
        top = min(top, max_degree)
    if top < 1:
        f = local_factor(1)
        return TruncatedSeries.one(f.nvars, f.order, f.trunc)
    table = place_counts(curve, top)
    factors = tuple(local_factor(d) for d in range(1, top + 1))
    counts = tuple(table.a(d) for d in range(1, top + 1))
    memo = _EULER_MEMO.get()
    key = (factors, counts)
    if memo is not None and (hit := memo.get(key)) is not None:
        return hit
    total = None
    for f, a in zip(factors, counts):
        term = f.log().scale(a)
        total = term if total is None else total + term
    result = total.exp()
    if memo is not None:
        memo[key] = result
    return result


@contextmanager
def euler_memo():
    """A scope in which euler_product remembers its results.

    The memo lives as long as the scope: leaving it drops every entry, and
    outside any scope euler_product computes without caching.
    """
    token = _EULER_MEMO.set({})
    try:
        yield
    finally:
        _EULER_MEMO.reset(token)


def monoid_weight_minimum(cone: Cone, weight: Vector) -> int:
    """Minimum of a ray-positive weight over the nonzero monoid points.

    Realised on a Hilbert-basis element: every nonzero point is a sum of
    them with positive weights.  A ray minimum is not enough; interior
    generators can sit strictly below every ray.
    """
    basis = hilbert_basis(cone)
    if not basis:
        return 1
    return min(dot(weight, b) for b in basis)


def automorphic_prefactor(datum: GradedToricDatum, chi: Character) -> Monomial:
    """chi at the grading cocharacter pushed through the spin idele.

    The class of rho(spin^(-1/2)) is (1 - g) * rho = rho at genus zero, so
    this is the character value at rho.  The global normalization constant
    Delta^((dim X - dim T)/4) is 1 because the variety and the torus share
    the same dimension.
    """
    return chi.value(datum.rho)


def spectral_prefactor(datum_check: GradedToricDatum, curve: Curve,
                       phi: Character) -> Monomial:
    """Eigenform scalar times the quarter-discriminant power u^((1-g)(epsilon - r))."""
    epsilon = dot(datum_check.rho, datum_check.eta)
    shift = (1 - curve.genus) * (epsilon - datum_check.rank)
    scalar = phi.value(datum_check.eta)
    return Monomial(scalar.zeta, scalar.u + shift, scalar.z)


def automorphic_period(datum: GradedToricDatum, curve: Curve, chi: Character,
                       order: int) -> TruncatedSeries:
    """Prefactored Euler product of automorphic local factors."""
    w = positivity_certificate(datum.cone, chi, datum.eta)
    cutoff = order // monoid_weight_minimum(datum.cone, w)
    series = euler_product(
        lambda d: automorphic_local_factor(datum, chi, d, order),
        curve, order, max_degree=cutoff)
    pref = automorphic_prefactor(datum, chi)
    return series * TruncatedSeries.from_monomial(pref, chi.nvars, chi.order)


def spectral_period(datum_check: GradedToricDatum, curve: Curve, phi: Character,
                    order: int) -> TruncatedSeries:
    """Normalized product of graded Frobenius traces at the unique fixed point."""
    monoid_cone = dual_cone(datum_check.cone)
    w = positivity_certificate(monoid_cone, phi, datum_check.rho)
    cutoff = order // monoid_weight_minimum(monoid_cone, w)
    series = euler_product(
        lambda d: spectral_local_factor(datum_check, phi, d, order),
        curve, order, max_degree=cutoff)
    pref = spectral_prefactor(datum_check, curve, phi)
    return series * TruncatedSeries.from_monomial(pref, phi.nvars, phi.order)


@dataclass(frozen=True)
class DirectionVerdict:
    automorphic_side: str
    spectral_side: str
    equal: bool
    mismatch: tuple | None
    automorphic_series: TruncatedSeries
    compared_spectral_series: TruncatedSeries


@dataclass(frozen=True)
class PeriodReport:
    duality_exponent: int
    directions: tuple[DirectionVerdict, ...]
    local_samples: dict

    @property
    def equal(self) -> bool:
        return all(d.equal for d in self.directions)


def _compare_direction(aut_datum, spec_datum, name_a, name_s, curve, chi,
                       order, exponent) -> DirectionVerdict:
    lhs = automorphic_period(aut_datum, curve, chi, order)
    rhs = spectral_period(spec_datum, curve, chi, order)
    rhs_scaled = rhs.shift_u(exponent)
    mism = lhs.first_mismatch(rhs_scaled)
    return DirectionVerdict(
        automorphic_side=name_a, spectral_side=name_s,
        equal=mism is None, mismatch=mism,
        automorphic_series=lhs, compared_spectral_series=rhs_scaled)


def verify_weak_duality(pair: GradedDualPair, curve: Curve, chi: Character,
                        order: int) -> PeriodReport:
    """Check both period identities of the pair at one character.

    Direction one pairs the automorphic engine on the primal side against
    the spectral engine on the dual side (scaled by u^(r - epsilon));
    direction two exchanges the roles.
    """
    expo = pair.discrepancy
    d1 = _compare_direction(pair.side_x, pair.side_xcheck, "X", "X-check",
                            curve, chi, order, expo)
    d2 = _compare_direction(pair.side_xcheck, pair.side_x, "X-check", "X",
                            curve, chi, order, expo)
    samples = {}
    for deg in range(1, min(SAMPLE_DEGREES, max(order, 1)) + 1):
        samples[deg] = {
            "automorphic": automorphic_local_factor(pair.side_x, chi, deg, order),
            "spectral": spectral_local_factor(pair.side_xcheck, chi, deg, order),
        }
    return PeriodReport(duality_exponent=expo, directions=(d1, d2),
                        local_samples=samples)
