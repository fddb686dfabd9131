"""Finite-stabilizer quotients: isogeny data, lift families, stack periods.

A finite subgroup of the torus is presented by a full-rank inclusion of
cocharacter lattices; the character group of the kernel is the torsion of
the cokernel, realised through Smith invariants as tuples of roots of
unity.  Characters of the small class group extend to the covering class
group in exactly index-many ways, differing by those torsion twists, and
the two stack periods are assembled from the plain engines on the
covering pair: the automorphic one by pulling the character back along
the covering map, the spectral one by summing the covering spectral
period over the lift family (each lift keeps its own monomial prefactor,
which is what makes the family sum independent of the chosen base lift).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import lcm

from .characters import Character, formal_character
from .cones import make_cone
from .curve import BranchAmbiguity, Curve
from .duality import GradedDualPair
from .intlinalg import (
    LatticeMap,
    SmithDecomposition,
    Vector,
    dot,
    lattice_index,
    mat_vec_mul,
    smith_normal_form,
    transpose,
    vec,
)
from .periods import (
    automorphic_local_factor,
    automorphic_period,
    automorphic_prefactor,
    engine_input,
    prefactored_period,
    spectral_period,
)
from .series import Monomial, TruncatedSeries


class IncompatibleField(ValueError):
    pass


class NotALift(ValueError):
    pass


class MissingRoots(ValueError):
    pass


class IsogenyDatum(namedtuple(
        "IsogenyDatum", "inclusion index invariants exponent smith")):
    """Full-rank inclusion of cocharacter lattices presenting a finite kernel.

    Columns of `inclusion` express the small-torus basis in the covering
    basis.  The kernel's character group has the torsion invariants of
    the cokernel; `exponent` is the largest one.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.inclusion.source_rank


def make_isogeny(matrix) -> IsogenyDatum:
    m = tuple(vec(r) for r in matrix)
    rank = len(m)
    inc = LatticeMap(rank, rank, m)
    idx = lattice_index(inc)
    if idx is None:
        raise ValueError("inclusion must have full rank")
    snf = smith_normal_form(m)
    invariants = tuple(d for d in snf.diag if d > 1)
    exponent = max(invariants) if invariants else 1
    return IsogenyDatum(inclusion=inc, index=idx, invariants=invariants,
                        exponent=exponent, smith=snf)


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
                f"cyclotomic order {order} lacks roots of order {d}")
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


class LiftFamily(namedtuple("LiftFamily", "base_lift twists members")):
    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)


def restrict_character(lift: Character, iso: IsogenyDatum) -> Character:
    """The character of the small class group induced by a covering character."""
    return lift.compose(iso.inclusion)


def unramified_lifts(phi: Character | None, iso: IsogenyDatum,
                     base_lift: Character) -> LiftFamily:
    """All extensions of phi to the covering class group.

    base_lift must restrict to phi along the inclusion (checked as exact
    monomial identities); the family is base_lift times the torsion
    twists, pairwise distinct and independent of which member is named
    the base.
    """
    if base_lift.rank != iso.rank:
        raise NotALift("base lift has wrong rank")
    if phi is not None:
        got = restrict_character(base_lift, iso)
        if got.coords != phi.coords:
            raise NotALift(
                f"base lift restricts to {got.coords}, expected {phi.coords}")
    twists = tuple(torsion_twists(iso, base_lift.order))
    members = tuple(base_lift.twist(t) for t in twists)
    if len({m.coords for m in members}) != len(members):
        raise ValueError("torsion twists are not pairwise distinct")
    return LiftFamily(base_lift=base_lift, twists=twists, members=members)


class InducedGradedPair(namedtuple("InducedGradedPair", "base_pair isogeny")):
    """A covering dual pair together with the isogeny presenting the quotient.

    All prefactors are computed on the covering, where they are integral.
    """

    __slots__ = ()

    @property
    def index(self) -> int:
        return self.isogeny.index


def induced_pair(base_pair: GradedDualPair, iso: IsogenyDatum) -> InducedGradedPair:
    if iso.rank != base_pair.rank:
        raise ValueError("isogeny rank does not match the pair")
    return InducedGradedPair(base_pair=base_pair, isogeny=iso)


def _smith_solve(snf: SmithDecomposition, target: Vector) -> tuple[Fraction, ...]:
    """Exact solution of M x = target over Q for invertible M.

    left @ M @ right == diag, so x = right @ diag^-1 @ left @ target.
    """
    mid = [Fraction(y, d) for y, d in zip(mat_vec_mul(snf.left, target), snf.diag)]
    return tuple(sum(r * m for r, m in zip(row, mid)) for row in snf.right)


def pullback_along_covering(chi_small: Character, iso: IsogenyDatum) -> Character:
    """Character of the covering-dual class group induced by one downstairs.

    The class map goes through the transpose of the inclusion.
    """
    t = LatticeMap(iso.rank, iso.rank, transpose(iso.inclusion.matrix))
    return chi_small.compose(t)


def stack_automorphic_period(pair: InducedGradedPair, curve: Curve,
                             chi_on_dual: Character, order: int) -> TruncatedSeries:
    """Automorphic period of the quotient stack at a downstairs character.

    Equals the covering automorphic period at the pulled-back character.
    """
    check_curve_compatibility(pair.isogeny, curve)
    pulled = pullback_along_covering(chi_on_dual, pair.isogeny)
    return automorphic_period(pair.base_pair.side_xcheck, curve, pulled, order)


def stack_spectral_period_unramified(pair: InducedGradedPair, curve: Curve,
                                     phi: Character | None,
                                     base_lift: Character | None,
                                     order: int) -> TruncatedSeries:
    """Sum of covering spectral periods over the unramified lift family.

    Each lift carries its own eigenform scalar, so the sum is invariant
    under replacing the base lift by any other member of its family.  The
    base lift is mandatory for a nontrivial kernel: without it the dual
    grading is a rational cocharacter and its prefactor would need a
    fractional power of a formal variable.
    """
    check_curve_compatibility(pair.isogeny, curve)
    if base_lift is None:
        if pair.index == 1:
            base_lift = phi
        else:
            raise BranchAmbiguity(
                f"the isogeny has index {pair.index}: declare the character "
                "on the covering torus to fix the branch")
    fam = unramified_lifts(phi, pair.isogeny, base_lift)
    total = None
    for member in fam.members:
        term = spectral_period(pair.base_pair.side_xcheck, curve, member, order)
        total = term if total is None else total + term
    return total


def unramified_automorphic_period_liftsum(pair: InducedGradedPair, curve: Curve,
                                          chi: Character | None,
                                          base_extension: Character,
                                          order: int) -> TruncatedSeries:
    """Average of covering automorphic periods over the extension family.

    This is the normative unramified period: (1/index) times the sum over
    all extensions of the downstairs character to the covering class
    group.
    """
    check_curve_compatibility(pair.isogeny, curve)
    fam = unramified_lifts(chi, pair.isogeny, base_extension)
    total = None
    for member in fam.members:
        term = automorphic_period(pair.base_pair.side_x, curve, member, order)
        total = term if total is None else total + term
    return total.scale(Fraction(1, fam.size))


def unramified_automorphic_period_direct(pair: InducedGradedPair, curve: Curve,
                                         base_extension: Character,
                                         order: int) -> TruncatedSeries:
    """Experimental direct orbit-sum model of the unramified period.

    Counts the unramified rational orbits (index-many at genus zero),
    corrects by the rational kernel order, and runs one Euler product over
    the small cocharacter lattice filtered by covering-cone membership.
    The stack verifier diffs it against the lift-sum period; the
    comparison is informational only.
    """
    check_curve_compatibility(pair.isogeny, curve)
    iso = pair.isogeny
    cover_cone = pair.base_pair.side_x.cone
    # Pull the covering cone back to the small lattice: membership of
    # lambda is membership of inclusion(lambda).
    pulled_chi = restrict_character(base_extension, iso)
    eta_small = tuple(dot(pair.base_pair.side_x.eta, iso.inclusion.column(j))
                      for j in range(iso.rank))
    small_rays = []
    for r in cover_cone.rays:
        x = _smith_solve(iso.smith, r)
        den = lcm(*(c.denominator for c in x))
        small_rays.append(tuple(int(c * den) for c in x))
    small_cone = make_cone(small_rays, iso.rank)
    return prefactored_period(
        automorphic_local_factor, small_cone,
        *engine_input(small_cone, pulled_chi, eta_small),
        automorphic_prefactor(pair.base_pair.side_x, base_extension), curve, order)


class StackCheck(namedtuple("StackCheck", "name equal mismatch lhs rhs")):
    __slots__ = ()


class StackReport(namedtuple(
        "StackReport", "index discrepancy checks direct_comparison")):
    __slots__ = ()

    @property
    def equal(self) -> bool:
        return all(c.equal for c in self.checks)


def verify_stack_duality(pair: InducedGradedPair, curve: Curve,
                         base_lift: Character, order: int) -> StackReport:
    """The two stack identities, each computed through distinct engines.

    (i) the stack automorphic period at a downstairs dual-side character
    equals Delta^(a/4) times the covering spectral period at the pulled
    back parameter; (ii) the lift-sum unramified automorphic period
    equals Delta^(a/4)/index times the unramified stack spectral period.
    The experimental direct orbit sum is recorded but never gates.
    """
    check_curve_compatibility(pair.isogeny, curve)
    base = pair.base_pair
    expo = base.discrepancy
    m = pair.index

    # (i): character downstairs on the dual side, engines on the covering.
    chi_dual = formal_character(base.rank, base_lift.order)
    lhs1 = stack_automorphic_period(pair, curve, chi_dual, order)
    pulled = pullback_along_covering(chi_dual, pair.isogeny)
    rhs1 = spectral_period(base.side_x, curve, pulled, order)
    mism1 = lhs1.first_mismatch(rhs1.shift_u(expo))
    check1 = StackCheck("stack-automorphic-vs-covering-spectral",
                        mism1 is None, mism1, lhs1, rhs1)

    # (ii): lift-sum unramified automorphic vs unramified stack spectral.
    chi_small = restrict_character(base_lift, pair.isogeny)
    lhs2 = unramified_automorphic_period_liftsum(
        pair, curve, chi_small, base_lift, order)
    rhs2 = stack_spectral_period_unramified(
        pair, curve, chi_small, base_lift, order)
    rhs2_scaled = rhs2.scale(Fraction(1, m)).shift_u(expo)
    mism2 = lhs2.first_mismatch(rhs2_scaled)
    check2 = StackCheck("unramified-automorphic-vs-stack-spectral",
                        mism2 is None, mism2, lhs2, rhs2)

    direct = unramified_automorphic_period_direct(pair, curve, base_lift, order)
    direct_mism = direct.first_mismatch(lhs2)
    return StackReport(index=m, discrepancy=expo, checks=(check1, check2),
                       direct_comparison=(direct_mism is None, direct_mism))
