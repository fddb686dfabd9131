"""Finite-stabilizer quotients: isogeny data, lifts, stack periods.

A finite subgroup of the torus is presented by a full-rank inclusion of
cocharacter lattices; the character group of the kernel is the torsion of
the cokernel, realised through Smith invariants as tuples of roots of
unity.  A stack check starts from one character of the covering class
group, the base lift; the downstairs character is its restriction (the
base lift composed with the inclusion), and its index-many lifts are the
base lift times those torsion twists, built once per check.  The two
stack periods are assembled from the plain engines on the covering pair:
the automorphic one at the formal character pulled back along the
transpose of the inclusion, which `IsogenyDatum` keeps, the spectral one
by summing the covering spectral period over the lifts (each lift keeps
its own monomial prefactor, which is what makes the sum independent of
which lift is the base).  Both lift sums compute one period per coset of
the family under the rescalings z_i -> zeta^(s_i) z_i that map one lift
onto another (`lift_sum`); they fix u.  The lifts differ from the base
lift only by roots of unity on its coordinates, so a formal base lift
reaches the whole family this way.  The engines only evaluate the
character at lattice points and the prefactors are character values,
so the period of a rescaled lift is exactly the rescaled period,
truncation included.  Summed over a coset, the rescalings keep the
terms c z^e that they all fix and cancel the others (orthogonality of
characters).  A lift that no rescaling reaches is computed itself,
through the same loop.  The field is checked once per verification, by
`verify_stack_duality`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from math import prod

from .characters import Character, formal_character
from .cones import Cone, dual_cone, make_cone
from .curve import Curve
from .duality import GradedDualPair, GradedToricDatum
from .intlinalg import LatticeMap, dot, smith_normal_form, transpose, vec
from .periods import (
    automorphic_local_factor,
    automorphic_period,
    automorphic_prefactor,
    certified,
    prefactored_period,
    spectral_period,
)
from .series import EXACT, Monomial, TruncatedSeries, _zp_add_term


class IncompatibleField(ValueError):
    pass


class MissingRoots(ValueError):
    pass


class IsogenyDatum(namedtuple(
        "IsogenyDatum", "inclusion transpose index invariants exponent smith")):
    """Full-rank inclusion of cocharacter lattices presenting a finite kernel.

    Columns of `inclusion` express the small-torus basis in the covering
    basis; `transpose` is its transpose, the map of character lattices.
    The kernel's character group has the torsion invariants of the
    cokernel; `exponent` is the largest one.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.inclusion.source_rank


def make_isogeny(matrix) -> IsogenyDatum:
    m = tuple(vec(r) for r in matrix)
    rank = len(m)
    snf = smith_normal_form(m)
    index = prod(snf.diag)
    if not index:
        raise ValueError("inclusion must have full rank")
    invariants = tuple(d for d in snf.diag if d > 1)
    exponent = max(invariants) if invariants else 1
    return IsogenyDatum(inclusion=LatticeMap(rank, rank, m),
                        transpose=LatticeMap(rank, rank, transpose(m)), index=index,
                        invariants=invariants, exponent=exponent, smith=snf)


def check_curve_compatibility(iso: IsogenyDatum, curve: Curve):
    if iso.exponent > 1:
        if curve.q % iso.exponent != 1:
            raise IncompatibleField(
                f"q = {curve.q} is not 1 mod the exponent {iso.exponent}")


def torsion_twists(iso: IsogenyDatum, order: int) -> list[tuple[Monomial, ...]]:
    """The index-many characters of the cokernel, as coordinate monomials.

    Built from the Smith transform: the class of a covering-lattice vector
    y is (L y mod d_i), and a twist sends it to a product of d_i-th roots
    of unity.  Ordered lexicographically in the invariant-factor
    coordinates, so the family is deterministic.
    """
    snf = iso.smith
    rank = iso.rank
    for d in snf.diag:
        if d > 1 and order % d != 0:
            raise MissingRoots(
                f"order {order} lacks roots of unity of order {d}")
    twists = []
    counters = [range(d) for d in snf.diag]
    for ks in product(*counters):
        coords = []
        for j in range(rank):
            zeta = 0
            for i, (k, d) in enumerate(zip(ks, snf.diag)):
                if d > 1 and k:
                    zeta += (order // d) * k * snf.left[i][j]
            coords.append(Monomial(zeta % order, 0, (0,) * rank))
        twists.append(tuple(coords))
    return twists


def unramified_lifts(iso: IsogenyDatum, base_lift: Character) -> tuple[Character, ...]:
    """All extensions to the covering class group of base_lift's restriction.

    They are base_lift times the torsion twists, in the order of
    `torsion_twists`: pairwise distinct, and the same set whichever of
    them is named the base.
    """
    if base_lift.rank != iso.rank:
        raise ValueError("base lift has wrong rank")
    lifts = tuple(base_lift.twist(t) for t in torsion_twists(iso, base_lift.order))
    if len({lift.coords for lift in lifts}) != len(lifts):
        raise ValueError("torsion twists are not pairwise distinct")
    return lifts


def lift_sum(period, datum: GradedToricDatum, curve: Curve,
             lifts: tuple[Character, ...], order: int, den: int) -> TruncatedSeries:
    """sum(period(datum, curve, lift, order) for lift in lifts) / den, in one pass.

    The first lift not yet reached is computed, and reaches the lifts
    that `_rescaling` maps it onto, itself included: its coset of a
    group H of twists, so every coset has |H| lifts.  A rescaling by s
    sends c z^e to zeta^<s, e> c z^e, and <s, e> mod n is additive in
    the twist, so summed over the coset the images of c z^e are |H| c z^e
    when every shift fixes e and 0 otherwise.  Each computed period
    keeps its terms at such e, checked once per distinct z, and the sum
    is scaled by |H| / den once.
    """
    n = lifts[0].order
    reached = [False] * len(lifts)
    data: dict = {}
    trunc = EXACT
    for i, lift in enumerate(lifts):
        if reached[i]:
            continue
        shifts = []
        for j in range(i, len(lifts)):
            if (s := _rescaling(lift, lifts[j])) is not None:
                reached[j] = True
                shifts.append(s)
        series = period(datum, curve, lift, order)
        trunc = min(trunc, series.trunc)
        fixed = {z for z in {z for _, terms in series.coeffs for z, _ in terms}
                 if all(dot(s, z) % n == 0 for s in shifts)}
        for u, terms in series.coeffs:
            row = data.setdefault(u, {})
            for z, c in terms:
                if z in fixed:
                    _zp_add_term(row, z, c)
    return TruncatedSeries.from_dict(data, series.nvars, n, trunc).scale(len(shifts), den)


def _rescaling(source: Character, target: Character) -> tuple | None:
    """s with z_i -> zeta^(s_i) z_i mapping source onto target coordinate by coordinate, else None.

    The rescaling fixes u.  s_i is read off a coordinate of source whose
    z-part is the unit vector e_i (0 where there is none), and s is
    accepted only if it maps every coordinate onto target's.
    """
    n = source.order
    s = [0] * source.nvars
    for a, b in zip(source.coords, target.coords):
        if a.z.count(1) == 1 and a.z.count(0) == len(a.z) - 1:
            s[a.z.index(1)] = b.zeta - a.zeta
    if all(a.u == b.u and a.z == b.z and (a.zeta + dot(s, a.z) - b.zeta) % n == 0
           for a, b in zip(source.coords, target.coords)):
        return tuple(x % n for x in s)
    return None


def stack_spectral_period_unramified(pair: GradedDualPair, curve: Curve,
                                     lifts: tuple[Character, ...],
                                     order: int) -> TruncatedSeries:
    """Sum of covering spectral periods over a lift family, in one `lift_sum` pass.

    Each lift carries its own eigenform scalar, so the sum is invariant
    under replacing the base lift by any other lift.  The lifts are
    declared on the covering torus: downstairs, the dual grading of a
    nontrivial kernel is a rational cocharacter, and its prefactor would
    need a fractional power of a formal variable.
    """
    return lift_sum(spectral_period, pair.side_xcheck, curve, lifts, order, 1)


def unramified_automorphic_period_liftsum(pair: GradedDualPair, curve: Curve,
                                          lifts: tuple[Character, ...],
                                          order: int) -> TruncatedSeries:
    """Average of covering automorphic periods over a lift family.

    This is the normative unramified period: (1/index) times the sum over
    all extensions of the downstairs character to the covering class
    group, formed in one `lift_sum` pass that scales by 1/index once.
    """
    return lift_sum(automorphic_period, pair.side_x, curve, lifts, order, len(lifts))


def _pulled_back_cone(iso: IsogenyDatum, cover: Cone) -> Cone:
    """{lambda : M lambda in cover}, the dual of the cone on M^T f for the facets f."""
    return dual_cone(make_cone([iso.transpose.apply(f) for f in cover.facets], iso.rank))


def unramified_automorphic_period_direct(pair: GradedDualPair, iso: IsogenyDatum,
                                         curve: Curve, base_lift: Character,
                                         order: int) -> TruncatedSeries:
    """Experimental direct orbit-sum model of the unramified period.

    Counts the unramified rational orbits (index-many at genus zero),
    corrects by the rational kernel order, and runs one Euler product over
    the small cocharacter lattice filtered by covering-cone membership.
    The stack verifier diffs it against the lift-sum period; the
    comparison is informational only.
    """
    side = pair.side_x
    small_cone = _pulled_back_cone(iso, side.cone)
    psi = base_lift.compose(iso.inclusion).shift_u(iso.transpose.apply(side.eta))
    return prefactored_period(
        automorphic_local_factor, small_cone, certified(small_cone, psi),
        automorphic_prefactor(side, base_lift), curve, order)


class StackCheck(namedtuple("StackCheck", "name equal mismatch lhs rhs")):
    __slots__ = ()


class StackReport(namedtuple(
        "StackReport", "index discrepancy checks direct_comparison")):
    __slots__ = ()

    @property
    def equal(self) -> bool:
        return all(c.equal for c in self.checks)


def verify_stack_duality(pair: GradedDualPair, iso: IsogenyDatum, curve: Curve,
                         base_lift: Character, order: int) -> StackReport:
    """The two stack identities for the quotient of pair's covering by iso.

    Each identity is computed through distinct engines: (i) the stack
    automorphic period at a downstairs dual-side character, that is the
    covering automorphic period at the pulled-back character, equals
    Delta^(a/4) times the covering spectral period there; (ii) the
    lift-sum unramified automorphic period equals Delta^(a/4)/index times
    the unramified stack spectral period.  The experimental direct orbit
    sum is recorded but never gates.  The field is checked here once, and
    the lift family built once, for all of them.
    """
    if iso.rank != pair.rank:
        raise ValueError("isogeny rank does not match the pair")
    check_curve_compatibility(iso, curve)
    lifts = unramified_lifts(iso, base_lift)
    expo = pair.discrepancy

    # (i): character downstairs on the dual side, engines on the covering.
    pulled = formal_character(pair.rank, base_lift.order).compose(iso.transpose)
    lhs1 = automorphic_period(pair.side_xcheck, curve, pulled, order)
    rhs1 = spectral_period(pair.side_x, curve, pulled, order)
    mism1 = lhs1.first_mismatch(rhs1.shift_u(expo))
    check1 = StackCheck("stack-automorphic-vs-covering-spectral",
                        mism1 is None, mism1, lhs1, rhs1)

    # (ii): lift-sum unramified automorphic vs unramified stack spectral.
    lhs2 = unramified_automorphic_period_liftsum(pair, curve, lifts, order)
    rhs2 = stack_spectral_period_unramified(pair, curve, lifts, order)
    mism2 = lhs2.first_mismatch(rhs2.scale(1, iso.index).shift_u(expo))
    check2 = StackCheck("unramified-automorphic-vs-stack-spectral",
                        mism2 is None, mism2, lhs2, rhs2)

    direct = unramified_automorphic_period_direct(pair, iso, curve, base_lift, order)
    direct_mism = direct.first_mismatch(lhs2)
    return StackReport(index=iso.index, discrepancy=expo, checks=(check1, check2),
                       direct_comparison=(direct_mism is None, direct_mism))
