"""The two local-factor engines, the period formula and the weak-duality verifier.

Both engines take (cone, psi, deg, order): psi is a character extended
by a grading, `chi.shift_u(grading)`, and `certified` positive on the
rays of the cone; each engine reads its weight off psi, as its u-slopes
`psi.slopes`.  The automorphic engine walks the cocharacter lattice and
keeps a point when it pairs nonnegatively with every facet covector of
the cone, that is with every ray of the dual cone (integrality read off
the dual description).  The spectral engine sums graded slices of the
monoid algebra at the fixed point, enumerated through primal level sets.
The two code paths share nothing but series arithmetic; their agreement,
coefficient by coefficient, is the content being verified.  Every period, global or orbitwise, is
`prefactored_period`: a prefactor monomial times the Euler product of
one engine's local factors.  Neither engine makes an object per lattice
point: each packs the monomial psi(x)^deg into one integer key
(`series.MonomialKeys`), and `TruncatedSeries.from_keys` counts the
keys into the local factor.  Within an `euler_memo()` scope both
engines, the Euler product and the period formula remember their
results in one mapping, keyed by (kind, input), which the scope drops.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, product, repeat
from operator import mul, neg

from .characters import Character
from .cones import Cone, check_grading, dual_cone, monoid_points
from .curve import Curve, place_counts
from .duality import GradedDualPair, GradedToricDatum
from .intlinalg import dot
from .series import Monomial, MonomialKeys, TruncatedSeries, _RowPacking


# Local factors of degree 1..SAMPLE_DEGREES are reported beside a check.
SAMPLE_DEGREES = 3

# The mapping of the innermost euler_memo() scope, None outside every scope.
# Its keys are (kind, input), kind "period" (a prefactored period, keyed by
# engine, cone, psi, prefactor, curve and truncation), "euler", "places"
# (the place counts, keyed by curve and truncation), "automorphic", "spectral",
# "orbit-closure", "orbit-image" (the closure or image cone of each side's
# orbit, keyed by cone and face rays), "stabilized", "fixed" (each side's
# face set, keyed by cone and psi) or "rows" (a series' report rows, keyed
# by its coeffs): at tate both engines get the same input, and only the
# kind keeps them apart.
_RUN_MEMO: ContextVar[dict | None] = ContextVar("run_memo", default=None)


def _remembered(kind: str, key, compute):
    """compute(), remembered under (kind, key) in the innermost euler_memo() scope."""
    memo = _RUN_MEMO.get()
    if memo is None:
        return compute()
    if (hit := memo.get((kind, key))) is None:
        hit = memo[kind, key] = compute()
    return hit


def certified(cone: Cone, psi: Character) -> Character:
    """psi, once its u-slopes are checked positive on every ray of the cone.

    NotPositiveGrading names the first ray where they are not.  Every
    period certifies its psi before its Euler product, so a divergent
    character is reported at every truncation, 0 included, where no
    local factor is enumerated.
    """
    check_grading(cone, psi.slopes)
    return psi


def _weight_box(rays, weights, bound: int, n: int):
    """(lo, hi): coordinate j lies between the ceiling of the negative and the
    floor of the positive bound * r[j] / w_r summed over the rays r.

    Each sum is an integer over L = lcm(weights), so the floor and the
    ceiling are integer divisions by L.
    """
    den = math.lcm(*weights)
    lo = [0] * n
    hi = [0] * n
    for r, wr in zip(rays, weights):
        for j in range(n):
            t = bound * r[j] * (den // wr)
            if t > 0:
                hi[j] += t
            else:
                lo[j] += t
    return [-(-x // den) for x in lo], [x // den for x in hi]


def automorphic_local_factor(cone: Cone, psi: Character, deg: int,
                             order: int) -> TruncatedSeries:
    """Local integral over the torus against the integral-point indicator.

    psi must be `certified` on the cone; its u-slopes w are the weight.
    Membership of a cocharacter is decided purely through the dual
    description: pairing with the facet covectors, the rays of sigma^vee,
    is nonnegative.  The scan walks the first n - 1 coordinates of a
    ray-derived box large enough for the requested truncation.  For each
    such head, every facet covector, and the truncation
    <w, x> <= order // deg, bounds the last coordinate by one integer
    floor or ceiling, so every point visited along it is a term, and
    the line is one range of packed keys (`series.MonomialKeys`) that
    steps by the key of psi(e_n)^deg; no point becomes an object.
    Inside an `euler_memo()` scope the factor is remembered under its
    whole input, as the spectral engine's is.
    """
    return _remembered("automorphic", (cone, psi, deg, order),
                       lambda: _box_scan(cone, psi, deg, order))


def _box_scan(cone: Cone, psi: Character, deg: int, order: int) -> TruncatedSeries:
    n = cone.ambient_rank
    w = psi.slopes
    bound = order // deg
    if bound < 1 or not cone.rays:
        return TruncatedSeries.from_keys((), MonomialKeys.spanning(psi, (), deg), order)
    # Half-spaces <c, x> >= b, as (c without its last entry, c_n, b).
    cuts = [(f[:-1], f[-1], 0) for f in cone.facets]
    cuts.append((tuple(-x for x in w[:-1]), -w[-1], -bound))
    weights = [dot(w, r) for r in cone.rays]
    lo, hi = _weight_box(cone.rays, weights, bound, n)
    packing = MonomialKeys.spanning(psi, map(max, map(neg, lo), hi), deg)
    *head_keys, step = packing.keys(psi, deg)
    lines = []
    for head in product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))):
        first, last = lo[-1], hi[-1]
        for c, cn, b in cuts:
            s = sum(map(mul, c, head)) - b  # cn * x_n >= -s
            if cn > 0:
                first = max(first, -(s // cn))
            elif cn < 0:
                last = min(last, s // -cn)
            elif s < 0:
                last = first - 1
        if first > last:
            continue
        if any(head):
            lines.append(_line(sum(map(mul, head_keys, head)), step, first, last + 1))
        else:  # the origin's line: first <= 0 <= last, and x_n = 0 is skipped
            lines += [_line(0, step, first, 0), _line(0, step, 1, last + 1)]
    return TruncatedSeries.from_keys(chain.from_iterable(lines), packing, order)


def _line(base: int, step: int, start: int, stop: int):
    """The keys base + x * step for start <= x < stop."""
    if step:
        return range(base + start * step, base + stop * step, step)
    return repeat(base, stop - start)


def spectral_local_factor(cone: Cone, psi: Character, deg: int,
                          order: int) -> TruncatedSeries:
    """Graded trace of Frobenius on the monoid algebra of cone at the fixed point.

    1 plus psi summed over the nonzero monoid points of w-level
    <= order // deg, enumerated by primal level sets, where w is the
    u-slopes of psi (which must be `certified` on the cone), so the
    point x lands at u^(deg * <w, x>): the level bound is the
    truncation, and no term needs filtering.  Each point's packed key is
    one dot product with the keys of psi(e_j)^deg.  Independent of the
    automorphic scan by construction.

    Inside an `euler_memo()` scope the factor is remembered under its
    whole input (cone, psi, deg, order), so a slice sum that the
    spectral period and an orbit contribution both need is enumerated
    once per run.
    """
    return _remembered("spectral", (cone, psi, deg, order),
                       lambda: _level_sums(cone, psi, deg, order))


def _level_sums(cone: Cone, psi: Character, deg: int, order: int) -> TruncatedSeries:
    points = list(monoid_points(cone, psi.slopes, order // deg))
    packing = MonomialKeys.spanning(psi, [max(map(abs, col)) for col in zip(*points)], deg)
    keys = packing.keys(psi, deg)
    return TruncatedSeries.from_keys([sum(map(mul, keys, pt)) for pt in points],
                                     packing, order)


def _adams_index(d: int, n: int, m: int) -> tuple[int, int, int]:
    """(g, d', k): g = gcd(d, m), d = g * d', and k = d' mod m/g with gcd(k, n) = 1.

    m | n is the order of the roots of unity that the local factors'
    coefficients lie in.  On Q(zeta_(m/g)), where the degree-g factor's
    roots of unity live, sigma_k raises zeta to the d'-th power; k exists
    by the Chinese remainder theorem, because d' is prime to m/g, and the
    least positive one is found by steps of m/g.
    """
    g = math.gcd(d, m)
    k = (d // g - 1) % (m // g) + 1
    while math.gcd(k, n) != 1:
        k += m // g
    return g, d // g, k


def euler_product(local_factor, curve: Curve, order: int,
                  ring: tuple[int, int], field: int | None = None) -> TruncatedSeries:
    """prod over degrees d of L_d^(a_d), a_d the places of degree d, L_d = local_factor(d).

    ring = (nvars, N) names the series ring Q(zeta_N)[z_1^{±1}, ..., z_nvars^{±1}].
    field = M, a divisor of N (N when omitted), says that every local
    factor has its coefficients in Q(zeta_M).  Frobenius at a place of
    degree d is the d-th power of the degree-one Frobenius, so the
    contract on local_factor is L_d = psi^(d')_k(L_g): g = gcd(d, M),
    d = g * d', and the Adams operation u -> u^(d'), z -> z^(d'),
    sigma_k on coefficients (`substitute_u_power`), with k prime to N and
    k = d' mod M/g (`_adams_index`).  (zeta -> zeta^d itself is not an
    automorphism of Q(zeta_M) when g > 1, so each gcd class needs its
    own L_g.)  Every local factor is 1 plus terms at u > 0, and psi is a
    ring endomorphism, so the product is

        exp(sum_d a_d * psi^(d')_k(log L_g)):

    local_factor is called once for each g | M with g <= order.  The
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

    Inside an `euler_memo()` scope the place counts are remembered under
    (curve, order), and the result under the factors L_g in order of g,
    the place counts a_d and M.  The product is a function of exactly
    that key, so a remembered result is never stale, whichever engine
    enumerated the factors.
    """
    nvars, n = ring
    field = n if field is None else field
    top = max(order, 0)
    if top < 1:
        return TruncatedSeries.one(nvars, n, order)
    counts = _remembered("places", (curve, top), lambda: place_counts(curve, top))
    classes = [g for g in range(1, top + 1) if field % g == 0]
    factors = tuple(local_factor(g) for g in classes)
    if any((f.nvars, f.order) != ring for f in factors):
        raise ValueError(f"a local factor lies outside the ring {ring}")

    def packed():
        exact = min(order, *(f.trunc for f in factors))
        pack = _RowPacking.spanning(factors, exact)
        logs = {g: pack.log_rows(f, exact) for g, f in zip(classes, factors)}
        images: dict = {}  # u -> (a_d, d', k, log row m) with d' * m = u
        for d, a in enumerate(counts, start=1):
            g, d1, k = _adams_index(d, n, field)
            for m, row in logs[g].items():
                if m * d1 > exact:
                    break
                images.setdefault(m * d1, []).append((a, d1, k, row))
        total = {u: row for u in sorted(images) if (row := pack.adams_sum(images[u]))}
        return pack.series(pack.exp_rows(total, exact), exact)

    return _remembered("euler", (factors, counts, field), packed)


@contextmanager
def euler_memo():
    """A scope in which both engines and euler_product remember their results.

    `scenario` keeps the report rows of each series there too, and each
    side of the orbit check its face set and closure or image cones.  One
    mapping, keyed by (kind, input), lives as long as the scope:
    leaving it drops every entry, and outside any scope everything is
    computed without caching.
    """
    token = _RUN_MEMO.set({})
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)


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


def prefactored_period(engine, cone: Cone, psi: Character, pref: Monomial,
                       curve: Curve, order: int) -> TruncatedSeries:
    """pref times the Euler product of the local factors engine(cone, psi, d, order).

    The product with pref is a shift (`TruncatedSeries.times_monomial`).
    The engines evaluate psi only at lattice points, so every local
    factor has its coefficients in the field of psi's values
    (`_root_field`), and the Euler product asks only for that field's
    gcd classes.

    The one period formula: both global periods, both orbit
    contributions and the direct stack model are this product, each
    with its own engine, cone and prefactor.  Inside an `euler_memo()`
    scope the period is remembered whole under its input, so a period
    asked for twice in a run is multiplied out and shifted once.
    """
    return _remembered("period", (engine, cone, psi, pref, curve, order),
                       lambda: euler_product(
                           lambda d: engine(cone, psi, d, order), curve, order,
                           (psi.nvars, psi.order), _root_field(psi)).times_monomial(pref))


def _root_field(psi: Character) -> int:
    """M = N / gcd(N, zeta exponents of psi), the order of the roots psi's values generate."""
    return psi.order // math.gcd(psi.order, *(m.zeta for m in psi.coords))


def _automorphic_input(datum: GradedToricDatum, chi: Character):
    """(cone, psi, prefactor) of the automorphic period."""
    return (datum.cone, certified(datum.cone, chi.shift_u(datum.eta)),
            automorphic_prefactor(datum, chi))


def _spectral_input(datum_check: GradedToricDatum, curve: Curve, phi: Character):
    """(monoid cone, psi, prefactor) of the spectral period."""
    monoid_cone = dual_cone(datum_check.cone)
    return (monoid_cone, certified(monoid_cone, phi.shift_u(datum_check.rho)),
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
    psi^(d')_k of the class factor L_g, g = gcd(d, M) over the field M of
    chi's values, cut at the truncation order (the contract of
    `euler_product`).  Inside an `euler_memo()` scope L_g is
    the factor the products enumerated; it is enumerated directly only
    at truncation 0, where the products enumerate nothing.
    """
    expo = pair.discrepancy
    engines = (automorphic_local_factor, spectral_local_factor)
    first = (_automorphic_input(pair.side_x, chi),
             _spectral_input(pair.side_xcheck, curve, chi))
    second = (_automorphic_input(pair.side_xcheck, chi),
              _spectral_input(pair.side_x, curve, chi))
    directions = []
    for (aut, spec), names in ((first, ("X", "X-check")), (second, ("X-check", "X"))):
        lhs = prefactored_period(engines[0], *aut, curve, order)
        rhs = prefactored_period(engines[1], *spec, curve, order).shift_u(expo)
        mism = lhs.first_mismatch(rhs)
        directions.append(DirectionVerdict(*names, mism is None, mism, lhs, rhs))
    samples = {}
    for deg in range(1, min(SAMPLE_DEGREES, max(order, 1)) + 1):
        g, d_, k = _adams_index(deg, chi.order, _root_field(chi))
        samples[deg] = {
            name: engine(*args[:2], g, order).truncate(order // d_)
            .substitute_u_power(d_, k).truncate(order)
            for name, engine, args in zip(("automorphic", "spectral"), engines, first)}
    return PeriodReport(duality_exponent=expo, directions=tuple(directions),
                        local_samples=samples)
