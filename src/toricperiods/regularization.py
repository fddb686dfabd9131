"""Per-orbit regularized contributions and the orbitwise duality check.

An orbit on the primal side contributes only when the combined monomial
character is trivial on its stabilizer sublattice and stays nontrivial on
every intermediate stabilizer of the closure (relative cuspidality); the
surviving integral is the automorphic box scan's Euler product over the
closure cone in the quotient lattice.  On the dual side an orbit
contributes only when it is fixed by the extended parameter and no
smaller orbit is, and the surviving trace is the spectral level sets'
Euler product over the image of the character monoid in the transverse
quotient.  Both are `periods.prefactored_period` with the prefactor of
the full period, so the two sides of an orbit pair share nothing but
series arithmetic.  Orbit by orbit these are compared through the
inclusion-reversing face bijection.
"""

from __future__ import annotations

from collections import namedtuple

from .characters import Character, extended_character
from .cones import Cone, dual_cone, face_dual, faces, image_cone
from .curve import Curve
from .duality import GradedDualPair, GradedToricDatum
from .intlinalg import quotient_lattice
from .periods import (
    PositivityViolation,
    automorphic_local_factor,
    automorphic_prefactor,
    engine_input,
    prefactored_period,
    spectral_local_factor,
    spectral_prefactor,
)

VANISHED_TRIVIALITY = "triviality-failed"
VANISHED_CUSPIDALITY = "not-relatively-cuspidal"
VANISHED_NOT_FIXED = "not-fixed"
VANISHED_DOMINATED = "dominated-by-larger-fixed-orbit"


class OrbitContribution(namedtuple("OrbitContribution", "status reason series")):
    """Status is "computed", "vanished", or "divergent".

    Divergent appears only in verifier reports: the contribution survives
    the support conditions but its effective weight is not positive, so
    no truncated series certifies it (a non-unitary specialization artefact;
    the matching orbit on the other side diverges the same way).
    """

    __slots__ = ()

    @property
    def vanished(self) -> bool:
        return self.status == "vanished"


def _vanished(reason):
    return OrbitContribution(status="vanished", reason=reason, series=None)


def _cuspidality_witness(cone: Cone, psi: Character) -> Cone | None:
    """First face with nontrivial proper stabilizer that psi kills, or None.

    The stabilizer of a face is its saturated span; the faces tested are
    those whose span is neither zero nor the ambient lattice.
    """
    lattice = faces(cone)
    for face, span in zip(lattice.faces, lattice.spans):
        if 0 < len(span) < cone.ambient_rank and psi.is_trivial_on_all(span):
            return face
    return None


def is_cuspidal(datum: GradedToricDatum, chi: Character):
    """Nontriviality of the combined character on every intermediate stabilizer.

    Returns (flag, witness_face): the witness is a face whose stabilizer
    sublattice the combined monomial kills.  Stabilizers here are the
    nontrivial proper ones; the trivial stabilizer of the dense orbit
    would make the condition vacuously false and is excluded.
    """
    witness = _cuspidality_witness(datum.cone,
                                   extended_character(chi, datum.eta))
    return witness is None, witness


def fixed_orbit_faces(datum_check: GradedToricDatum, phi: Character):
    """Faces of the dual-side cone whose orbits the extended parameter fixes.

    The acting element evaluates on a character mu as z^mu * u^<rho, mu>;
    the orbit of a face is fixed pointwise when that monomial is trivial
    on the annihilator lattice of the face span (the character lattice of
    the orbit torsor).  The full face is always in the list.
    """
    psi = extended_character(phi, datum_check.rho)
    lattice = faces(datum_check.cone)
    return [face for face, ann in zip(lattice.faces, lattice.annihilators)
            if psi.is_trivial_on_all(ann)]


def is_generic(datum_check: GradedToricDatum, phi: Character):
    """True when the extended parameter fixes only the full-face orbit."""
    fixed = fixed_orbit_faces(datum_check, phi)
    return len(fixed) == 1, fixed


def regularized_automorphic_contribution(
        datum: GradedToricDatum, face: Cone, curve: Curve,
        chi: Character, order: int) -> OrbitContribution:
    """Contribution of the orbit of one face; a non-face raises NotAFace.

    Vanishes unless the combined character is trivial on the stabilizer
    (the span of the face, tested before any lattice work) and its descent
    to the quotient torus is cuspidal relative to the orbit closure;
    otherwise it is the prefactored Euler product of automorphic box
    scans over the closure cone in the quotient lattice.
    """
    lattice = faces(datum.cone)
    stab = lattice.spans[lattice.index(face.rays)]
    psi = extended_character(chi, datum.eta)
    if not psi.is_trivial_on_all(stab):
        return _vanished(VANISHED_TRIVIALITY)
    quot = quotient_lattice(datum.rank, stab)
    if quot.torsion_invariants != ():
        raise ValueError("stabilizer basis not saturated")
    psi_bar = psi.compose(quot.section)
    closure = image_cone(datum.cone, quot.free_projection)
    if _cuspidality_witness(closure, psi_bar) is not None:
        return _vanished(VANISHED_CUSPIDALITY)
    series = prefactored_period(
        automorphic_local_factor, closure,
        *engine_input(closure, psi_bar, (0,) * closure.ambient_rank),
        automorphic_prefactor(datum, chi), curve, order)
    return OrbitContribution(status="computed", reason=None, series=series)


def regularized_spectral_contribution(
        datum_check: GradedToricDatum, face: Cone, curve: Curve,
        phi: Character, order: int) -> OrbitContribution:
    """Contribution of the orbit of one face of the dual-side cone.

    Takes the face, which is all these conditions and the trace depend
    on; a cone that is not a face raises NotAFace.  Not fixed pointwise:
    zero.  Fixed but dominated by a larger fixed orbit (a smaller fixed
    face): zero; only the faces whose rays lie among this face's are
    tested.  Otherwise the Euler product of spectral level-set traces
    over the image of the character monoid in the transverse quotient,
    normalized like the full spectral period.
    """
    lattice = faces(datum_check.cone)
    i = lattice.index(face.rays)
    psi = extended_character(phi, datum_check.rho)
    if not psi.is_trivial_on_all(lattice.annihilators[i]):
        return _vanished(VANISHED_NOT_FIXED)
    rays = lattice.faces[i].ray_set()
    if any(other.ray_set() < rays and psi.is_trivial_on_all(ann)
           for other, ann in zip(lattice.faces, lattice.annihilators)):
        return _vanished(VANISHED_DOMINATED)
    quot = quotient_lattice(datum_check.rank, lattice.annihilators[i])
    if quot.torsion_invariants != ():
        raise ValueError("annihilator of the face is not saturated")
    image = image_cone(dual_cone(datum_check.cone), quot.free_projection)
    series = prefactored_period(
        spectral_local_factor, image,
        *engine_input(image, psi.compose(quot.section), (0,) * image.ambient_rank),
        spectral_prefactor(datum_check, curve, phi), curve, order)
    return OrbitContribution(status="computed", reason=None, series=series)


class OrbitPairVerdict(namedtuple(
        "OrbitPairVerdict",
        "face_rays dual_face_rays automorphic spectral equal mismatch")):
    __slots__ = ()


class OrbitDualityReport(namedtuple(
        "OrbitDualityReport", "direction duality_exponent pairs")):
    __slots__ = ()

    @property
    def equal(self) -> bool:
        return all(p.equal for p in self.pairs)

    def nonzero_pairs(self):
        return [p for p in self.pairs if not p.automorphic.vanished]


def _contribution_or_divergent(contribution, *args) -> OrbitContribution:
    try:
        return contribution(*args)
    except PositivityViolation as err:
        return OrbitContribution(
            "divergent", f"weight {err.value} on ray {err.witness}", None)


def _orbit_pair_verdicts(aut_datum, spec_datum, curve, chi, order, expo):
    verdicts = []
    for face in faces(aut_datum.cone).faces:
        dual_face = face_dual(face, aut_datum.cone)
        aut = _contribution_or_divergent(regularized_automorphic_contribution,
                                         aut_datum, face, curve, chi, order)
        spec = _contribution_or_divergent(regularized_spectral_contribution,
                                          spec_datum, dual_face, curve, chi,
                                          order)
        if aut.status != spec.status:
            equal, mism = False, ("support", aut.status, spec.status)
        elif aut.status == "computed":
            mism = aut.series.first_mismatch(spec.series.shift_u(expo))
            equal = mism is None
        else:
            equal, mism = True, None
        verdicts.append(OrbitPairVerdict(
            face_rays=face.rays, dual_face_rays=dual_face.rays,
            automorphic=aut, spectral=spec, equal=equal, mismatch=mism))
    return tuple(verdicts)


def verify_langlands_dual_periods(pair: GradedDualPair, curve: Curve,
                                  chi: Character,
                                  order: int) -> tuple[OrbitDualityReport, ...]:
    """Orbit-by-orbit comparison in both directions.

    For every orbit pair under the face bijection: vanished must match
    vanished, and computed contributions must agree after the discrepancy
    shift u^(r - epsilon).
    """
    expo = pair.discrepancy
    fwd = OrbitDualityReport(
        direction="X-to-X-check", duality_exponent=expo,
        pairs=_orbit_pair_verdicts(pair.side_x, pair.side_xcheck, curve, chi,
                                   order, expo))
    bwd = OrbitDualityReport(
        direction="X-check-to-X", duality_exponent=expo,
        pairs=_orbit_pair_verdicts(pair.side_xcheck, pair.side_x, curve, chi,
                                   order, expo))
    return fwd, bwd
