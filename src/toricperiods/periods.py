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
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from itertools import product

from .characters import Character, extended_character
from .cones import Cone, dual_cone, hilbert_basis, monoid_points
from .curve import Curve, place_counts
from .duality import GradedDualPair, GradedToricDatum
from .intlinalg import Vector, dot, vec
from .series import Monomial, TruncatedSeries, _RowPacking


# Local factors of degree 1..SAMPLE_DEGREES are reported beside a check.
SAMPLE_DEGREES = 3

# The memos of the innermost euler_memo() scope, None outside every scope:
# Euler products, and level-set factors under their whole input.
_EULER_MEMO: ContextVar[dict | None] = ContextVar("euler_memo", default=None)
_LEVEL_SET_MEMO: ContextVar[dict | None] = ContextVar("level_set_memo", default=None)


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
    """The effective weight, or PositivityViolation at a ray where it is <= 0.

    The periods call it before their Euler product, so a divergent
    character is reported at every truncation, 0 included, where no local
    factor is enumerated.
    """
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
    the dual monoid.  The scan walks the first n - 1 coordinates of a
    ray-derived box large enough for the requested truncation.  For each
    such head, every dual basis element, and the truncation
    <w, x> <= order // place_degree, bounds the last coordinate by one
    integer floor or ceiling, so each point visited along it is kept; its
    monomial advances by psi(e_n)^place_degree per step.
    """
    psi = extended_character(chi, datum.eta)
    w = positivity_certificate(datum.cone, chi, datum.eta)
    n = datum.rank
    terms = []
    bound = order // place_degree
    if bound >= 1 and datum.cone.rays:
        # Half-spaces <c, x> >= b, as (c without its last entry, c_n, b).
        cuts = [(h[:-1], h[-1], 0) for h in hilbert_basis(dual_cone(datum.cone))]
        cuts.append((tuple(-x for x in w[:-1]), -w[-1], -bound))
        weights = [dot(w, r) for r in datum.cone.rays]
        lo, hi = _weight_box(datum.cone.rays, weights, bound, n)
        step = psi.value((0,) * (n - 1) + (1,), place_degree)
        for head in product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))):
            first, last = lo[-1], hi[-1]
            for c, cn, b in cuts:
                s = sum(x * y for x, y in zip(c, head)) - b  # cn * x_n >= -s
                if cn > 0:
                    first = max(first, -(s // cn))
                elif cn < 0:
                    last = min(last, s // -cn)
                elif s < 0:
                    last = first - 1
            if first > last:
                continue
            mon = psi.value(head + (first,), place_degree)
            nonzero_head = any(head)
            for x in range(first, last + 1):
                if x or nonzero_head:
                    terms.append(mon)
                mon = mon * step
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

    Inside an `euler_memo()` scope the factor is remembered under its
    whole input (cone, psi, w, deg, order), so a slice sum that the
    spectral period and an orbit's descended product both need is
    enumerated once per run.
    """
    memo = _LEVEL_SET_MEMO.get()
    key = (cone, psi, w, deg, order)
    if memo is not None and (hit := memo.get(key)) is not None:
        return hit
    result = TruncatedSeries.from_monomials(
        (psi.value(pt, deg) for pt in monoid_points(cone, w, order // deg)),
        psi.nvars, psi.order, order)
    if memo is not None:
        memo[key] = result
    return result


def _adams_index(d: int, n: int) -> tuple[int, int, int]:
    """(g, d', k): g = gcd(d, n), d = g * d', and k = d' mod n/g with gcd(k, n) = 1.

    On Q(zeta_(n/g)), where the degree-g factor's roots of unity live,
    sigma_k raises zeta to the d'-th power; k exists because d' is prime
    to n/g, and it is found among d', d' + n/g, d' + 2n/g, ...
    """
    g = math.gcd(d, n)
    k = d // g
    while math.gcd(k, n) != 1:
        k += n // g
    return g, d // g, k


def euler_product(local_factor, curve: Curve, order: int,
                  ring: tuple[int, int]) -> TruncatedSeries:
    """prod over degrees d of L_d^(a_d), a_d the places of degree d, L_d = local_factor(d).

    ring = (nvars, N) names the series ring Q(zeta_N)[z_1^{±1}, ..., z_nvars^{±1}].
    Frobenius at a place of degree d is the d-th power of the degree-one
    Frobenius, so the contract on local_factor is L_d = psi^(d')_k(L_g):
    g = gcd(d, N), d = g * d', and the Adams operation u -> u^(d'),
    z -> z^(d'), sigma_k on coefficients (`substitute_u_power`), with k
    prime to N and k = d' mod N/g.  (zeta -> zeta^d itself is not an
    automorphism of Q(zeta_N) when g > 1, so each gcd class needs its
    own L_g.)  Every local factor is 1 plus terms at u > 0, and psi is a
    ring endomorphism, so the product is

        exp(sum_d a_d * psi^(d')_k(log L_g)):

    local_factor is called once for each g | N with g <= order.  The
    whole computation stays in the packed integer rows of one
    `_RowPacking`, sized from every class factor: one exact O(U^2)
    logarithm of each L_g hands over its rows packed; the Adams sum maps
    each logarithm row m to u = d' * m by the packed psi^(d')_k and
    accumulates a_d times it into one integer row per u over one
    denominator, finished once; the exponential starts from those rows,
    and one `TruncatedSeries` is built at the end, with one `Cyc` per
    output coefficient.  The result is exact to the truncation order of
    the least exact factor, at most `order`.

    Places of degree above the truncation order cannot contribute, so the
    degrees run to the truncation and no further; a class factor whose
    nonzero points all lie above it is exactly 1 and adds nothing.  At
    truncation 0 the product is 1 and nothing is enumerated.

    Inside an `euler_memo()` scope the result is remembered under the
    factors L_g in order of g and the place counts a_d.  The product is
    a function of exactly that key, so a remembered result is never
    stale, whichever engine enumerated the factors.
    """
    nvars, n = ring
    top = max(order, 0)
    if top < 1:
        return TruncatedSeries.one(nvars, n, order)
    counts = place_counts(curve, top).counts
    classes = [g for g in range(1, top + 1) if n % g == 0]
    factors = tuple(local_factor(g) for g in classes)
    if any((f.nvars, f.order) != ring for f in factors):
        raise ValueError(f"a local factor lies outside the ring {ring}")
    memo = _EULER_MEMO.get()
    key = (factors, counts)
    if memo is not None and (hit := memo.get(key)) is not None:
        return hit
    exact = min(order, *(f.trunc for f in factors))
    pack = _RowPacking.spanning(factors, exact)
    logs = {g: pack.log_rows(f, exact) for g, f in zip(classes, factors)}
    images: dict = {}  # u -> (a_d, d', k, log row m) with d' * m = u
    for d, a in enumerate(counts, start=1):
        g, d1, k = _adams_index(d, n)
        for m, row in logs[g].items():
            if m * d1 > exact:
                break
            images.setdefault(m * d1, []).append((a, d1, k, row))
    total = {u: row for u in sorted(images) if (row := pack.adams_sum(images[u]))}
    result = pack.series(pack.exp_rows(total, exact), exact)
    if memo is not None:
        memo[key] = result
    return result


@contextmanager
def euler_memo():
    """A scope in which euler_product and level_set_factor remember results.

    Each keeps its own mapping, and both live as long as the scope:
    leaving it drops every entry, and outside any scope both compute
    without caching.
    """
    token = _EULER_MEMO.set({})
    level_token = _LEVEL_SET_MEMO.set({})
    try:
        yield
    finally:
        _LEVEL_SET_MEMO.reset(level_token)
        _EULER_MEMO.reset(token)


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
    return _automorphic_period(datum, curve, chi, order, automorphic_local_factor)


def _automorphic_period(datum, curve, chi, order, engine) -> TruncatedSeries:
    positivity_certificate(datum.cone, chi, datum.eta)
    series = euler_product(lambda d: engine(datum, chi, d, order),
                           curve, order, (chi.nvars, chi.order))
    pref = automorphic_prefactor(datum, chi)
    return series * TruncatedSeries.from_monomial(pref, chi.nvars, chi.order)


def spectral_period(datum_check: GradedToricDatum, curve: Curve, phi: Character,
                    order: int) -> TruncatedSeries:
    """Normalized product of graded Frobenius traces at the unique fixed point."""
    return _spectral_period(datum_check, curve, phi, order, spectral_local_factor)


def _spectral_period(datum_check, curve, phi, order, engine) -> TruncatedSeries:
    positivity_certificate(dual_cone(datum_check.cone), phi, datum_check.rho)
    series = euler_product(lambda d: engine(datum_check, phi, d, order),
                           curve, order, (phi.nvars, phi.order))
    pref = spectral_prefactor(datum_check, curve, phi)
    return series * TruncatedSeries.from_monomial(pref, phi.nvars, phi.order)


class DirectionVerdict(namedtuple(
        "DirectionVerdict",
        "automorphic_side spectral_side equal mismatch automorphic_series "
        "compared_spectral_series")):
    __slots__ = ()


class PeriodReport(namedtuple(
        "PeriodReport", "duality_exponent directions local_samples")):
    __slots__ = ()

    @property
    def equal(self) -> bool:
        return all(d.equal for d in self.directions)


def _compare_direction(aut_datum, spec_datum, name_a, name_s, curve, chi,
                       order, exponent, engines) -> DirectionVerdict:
    lhs = _automorphic_period(aut_datum, curve, chi, order, engines[0])
    rhs = _spectral_period(spec_datum, curve, chi, order, engines[1])
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
    direction two exchanges the roles.  The local samples are those of
    direction one: the sample of degree d is the Adams image
    psi^(d')_k of the class factor L_g its products enumerated, cut at
    the truncation order (the contract of `euler_product`).  It is
    enumerated directly only at truncation 0, where the products
    enumerate nothing.
    """
    expo = pair.discrepancy
    engines = (automorphic_local_factor, spectral_local_factor)
    seen = {}  # (engine, degree) -> a local factor direction one enumerated

    def kept(engine):
        def local(datum, chi_, deg, order_):
            seen[engine, deg] = factor = engine(datum, chi_, deg, order_)
            return factor
        return local

    d1 = _compare_direction(pair.side_x, pair.side_xcheck, "X", "X-check",
                            curve, chi, order, expo, tuple(map(kept, engines)))
    d2 = _compare_direction(pair.side_xcheck, pair.side_x, "X-check", "X",
                            curve, chi, order, expo, engines)
    samples = {}
    for deg in range(1, min(SAMPLE_DEGREES, max(order, 1)) + 1):
        g, d_, k = _adams_index(deg, chi.order)
        samples[deg] = {
            name: (seen[engine, g].substitute_u_power(d_, k).truncate(order)
                   if (engine, g) in seen else engine(side, chi, deg, order))
            for name, engine, side in zip(("automorphic", "spectral"), engines,
                                          (pair.side_x, pair.side_xcheck))}
    return PeriodReport(duality_exponent=expo, directions=(d1, d2),
                        local_samples=samples)
