"""The two local-factor engines, the period formula and the weak-duality verifier.

Both engines take (cone, psi, w, deg, order): psi is a character
extended by a grading and w its weight, certified positive on the rays
of the cone (`engine_input`).  The automorphic engine walks the
cocharacter lattice and keeps a point when it pairs nonnegatively with
every Hilbert-basis element of the dual monoid (integrality read off the
dual description).  The spectral engine sums graded slices of the monoid
algebra at the fixed point, enumerated through primal level sets.  The
two code paths share nothing but series arithmetic; their agreement,
coefficient by coefficient, is the content being verified.  Every
period, global or orbitwise, is `prefactored_period`: a prefactor
monomial times the Euler product of one engine's local factors.
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

    Every period calls it, through `engine_input`, before its Euler
    product, so a divergent character is reported at every truncation, 0
    included, where no local factor is enumerated.
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


def engine_input(cone: Cone, chi: Character, grading) -> tuple[Character, Vector]:
    """(psi, w) for an engine on cone: chi extended by the grading, and its weight.

    w = grading + the u-slopes of chi is the u-slope vector of psi,
    certified positive on every ray (PositivityViolation otherwise).
    """
    return (extended_character(chi, grading),
            positivity_certificate(cone, chi, grading))


def automorphic_local_factor(cone: Cone, psi: Character, w: Vector, deg: int,
                             order: int) -> TruncatedSeries:
    """Local integral over the torus against the integral-point indicator.

    psi must carry u-slopes w (see `engine_input`).  Membership of a
    cocharacter is decided purely through the dual description:
    nonnegative pairing with every Hilbert-basis element of the dual
    monoid.  The scan walks the first n - 1 coordinates of a ray-derived
    box large enough for the requested truncation.  For each such head,
    every dual basis element, and the truncation <w, x> <= order // deg,
    bounds the last coordinate by one integer floor or ceiling, so each
    point visited along it is kept; its monomial advances by psi(e_n)^deg
    per step.
    """
    n = cone.ambient_rank
    terms = []
    bound = order // deg
    if bound >= 1 and cone.rays:
        # Half-spaces <c, x> >= b, as (c without its last entry, c_n, b).
        cuts = [(h[:-1], h[-1], 0) for h in hilbert_basis(dual_cone(cone))]
        cuts.append((tuple(-x for x in w[:-1]), -w[-1], -bound))
        weights = [dot(w, r) for r in cone.rays]
        lo, hi = _weight_box(cone.rays, weights, bound, n)
        step = psi.value((0,) * (n - 1) + (1,), deg)
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
            mon = psi.value(head + (first,), deg)
            nonzero_head = any(head)
            for x in range(first, last + 1):
                if x or nonzero_head:
                    terms.append(mon)
                mon = mon * step
    return TruncatedSeries.from_monomials(terms, psi.nvars, psi.order, order)


def spectral_local_factor(cone: Cone, psi: Character, w: Vector, deg: int,
                          order: int) -> TruncatedSeries:
    """Graded trace of Frobenius on the monoid algebra of cone at the fixed point.

    1 plus psi summed over the nonzero monoid points of w-level
    <= order // deg, enumerated by primal level sets; psi must carry
    u-slopes w (see `engine_input`), so the point x lands at
    u^(deg * <w, x>): the level bound is the truncation, and no term
    needs filtering.  Independent of the automorphic scan by construction.

    Inside an `euler_memo()` scope the factor is remembered under its
    whole input (cone, psi, w, deg, order), so a slice sum that the
    spectral period and an orbit contribution both need is enumerated
    once per run.
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
    """A scope in which euler_product and spectral_local_factor remember results.

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


def prefactored_period(engine, cone: Cone, psi: Character, w: Vector,
                       pref: Monomial, curve: Curve, order: int) -> TruncatedSeries:
    """pref times the Euler product of the local factors engine(cone, psi, w, d, order).

    The one period formula: both global periods, both orbit
    contributions and the direct stack model are this product, each
    with its own engine, cone and prefactor.
    """
    series = euler_product(lambda d: engine(cone, psi, w, d, order),
                           curve, order, (psi.nvars, psi.order))
    return series * TruncatedSeries.from_monomial(pref, psi.nvars, psi.order)


def _automorphic_input(datum: GradedToricDatum, chi: Character):
    """(cone, psi, w, prefactor) of the automorphic period."""
    return (datum.cone, *engine_input(datum.cone, chi, datum.eta),
            automorphic_prefactor(datum, chi))


def _spectral_input(datum_check: GradedToricDatum, curve: Curve, phi: Character):
    """(monoid cone, psi, w, prefactor) of the spectral period."""
    monoid_cone = dual_cone(datum_check.cone)
    return (monoid_cone, *engine_input(monoid_cone, phi, datum_check.rho),
            spectral_prefactor(datum_check, curve, phi))


def automorphic_period(datum: GradedToricDatum, curve: Curve, chi: Character,
                       order: int) -> TruncatedSeries:
    """Prefactored Euler product of automorphic local factors."""
    return prefactored_period(automorphic_local_factor,
                              *_automorphic_input(datum, chi), curve, order)


def spectral_period(datum_check: GradedToricDatum, curve: Curve, phi: Character,
                    order: int) -> TruncatedSeries:
    """Normalized product of graded Frobenius traces at the unique fixed point."""
    return prefactored_period(spectral_local_factor,
                              *_spectral_input(datum_check, curve, phi), curve, order)


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
        def local(cone, psi, w, deg, order_):
            seen[engine, deg] = factor = engine(cone, psi, w, deg, order_)
            return factor
        return local

    first = (_automorphic_input(pair.side_x, chi),
             _spectral_input(pair.side_xcheck, curve, chi))
    second = (_automorphic_input(pair.side_xcheck, chi),
              _spectral_input(pair.side_x, curve, chi))
    directions = []
    for (aut, spec), names, local in (
            (first, ("X", "X-check"), tuple(map(kept, engines))),
            (second, ("X-check", "X"), engines)):
        lhs = prefactored_period(local[0], *aut, curve, order)
        rhs = prefactored_period(local[1], *spec, curve, order).shift_u(expo)
        mism = lhs.first_mismatch(rhs)
        directions.append(DirectionVerdict(*names, mism is None, mism, lhs, rhs))
    samples = {}
    for deg in range(1, min(SAMPLE_DEGREES, max(order, 1)) + 1):
        g, d_, k = _adams_index(deg, chi.order)
        samples[deg] = {
            name: (seen[engine, g].substitute_u_power(d_, k).truncate(order)
                   if (engine, g) in seen else engine(*args[:3], deg, order))
            for name, engine, args in zip(("automorphic", "spectral"), engines,
                                          first)}
    return PeriodReport(duality_exponent=expo, directions=tuple(directions),
                        local_samples=samples)
