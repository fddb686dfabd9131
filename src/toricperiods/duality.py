"""Graded toric data and dual pairs.

A graded datum is a full-dimensional strongly convex cone together with
an interior grading cocharacter rho and a pole-free eigenform character
eta.  Its dual swaps the cone for the dual cone and exchanges the roles
of rho and eta; the weight epsilon = <rho, eta> controls the discrepancy
exponent r - epsilon of the period comparison.
"""

from __future__ import annotations

from collections import namedtuple

from .cones import Cone, dual_cone
from .intlinalg import Vector, dot, vec


class InvalidGrading(ValueError):
    pass


class InvalidEigenform(ValueError):
    pass


class GradedToricDatum(namedtuple("GradedToricDatum", "cone rho eta")):
    """One side of a pair: cone sigma, grading rho, eigenform eta."""

    __slots__ = ()

    def __new__(cls, cone, rho, eta):
        rho, eta = vec(rho), vec(eta)
        if len(rho) != cone.ambient_rank or len(eta) != cone.ambient_rank:
            raise ValueError("rho/eta length must match the ambient rank")
        return super().__new__(cls, cone, rho, eta)

    @property
    def rank(self) -> int:
        return self.cone.ambient_rank


class GradedDualPair(namedtuple("GradedDualPair", "side_x side_xcheck epsilon")):
    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.side_x.rank

    @property
    def discrepancy(self) -> int:
        """Exponent a in the comparison P = Delta^(a/4) L."""
        return self.rank - self.epsilon


def grading_witness(cone: Cone, rho: Vector) -> Vector | None:
    """A dual-cone ray pairing nonpositively with rho, if any."""
    for y in dual_cone(cone).rays:
        if dot(rho, y) <= 0:
            return y
    return None


def eigenform_witness(cone: Cone, eta: Vector) -> Vector | None:
    """A ray of the cone on which eta fails the pole-free bound <eta, r> >= 1."""
    for r in cone.rays:
        if dot(eta, r) < 1:
            return r
    return None


def toric_dual(datum: GradedToricDatum) -> GradedDualPair:
    """The graded dual pair built from one side.

    The dual side lives on the dual cone with rho and eta exchanged; both
    sides are validated (interior grading, pole-free eigenform).
    """
    w = grading_witness(datum.cone, datum.rho)
    if w is not None:
        raise InvalidGrading(
            f"rho={datum.rho} is not interior to the cone (witness {w})")
    w = eigenform_witness(datum.cone, datum.eta)
    if w is not None:
        raise InvalidEigenform(
            f"eta={datum.eta} has a pole along ray {w}")
    return unchecked_dual(datum)


def unchecked_dual(datum: GradedToricDatum) -> GradedDualPair:
    """The dual pair without invariant enforcement; pair with validate_pair."""
    dual = GradedToricDatum(cone=dual_cone(datum.cone), rho=datum.eta, eta=datum.rho)
    return GradedDualPair(side_x=datum, side_xcheck=dual,
                          epsilon=dot(datum.rho, datum.eta))


class ValidationEntry(namedtuple("ValidationEntry", "side condition ok witness")):
    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "entries")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[ValidationEntry]:
        return [e for e in self.entries if not e.ok]


def validate_pair(pair: GradedDualPair) -> ValidationReport:
    """Check the three equivalent grading conditions on both sides.

    For each side: the grading cocharacter is interior (every dual ray
    pairs strictly positively), the level sets of the grading on the dual
    monoid are finite with nonnegative values (same pairing, phrased on
    the opposite description), and the eigenform has no poles (pairs >= 1
    with every ray).  Failures carry a witness vector.
    """
    entries = []
    for label, datum in (("X", pair.side_x), ("X-check", pair.side_xcheck)):
        w = grading_witness(datum.cone, datum.rho)
        entries.append(ValidationEntry(label, "grading-interior", w is None, w))
        finite = datum.cone.full_dimensional and w is None
        entries.append(ValidationEntry(
            label, "level-sets-finite-nonnegative", finite, w))
        w2 = eigenform_witness(datum.cone, datum.eta)
        entries.append(ValidationEntry(label, "eigenform-pole-free", w2 is None, w2))
    entries.append(ValidationEntry(
        "pair", "weight-positive", pair.epsilon > 0, None))
    role_swap = (pair.side_xcheck.rho == pair.side_x.eta
                 and pair.side_xcheck.eta == pair.side_x.rho
                 and pair.side_xcheck.cone == dual_cone(pair.side_x.cone))
    entries.append(ValidationEntry("pair", "roles-swapped", role_swap, None))
    return ValidationReport(entries=tuple(entries))
