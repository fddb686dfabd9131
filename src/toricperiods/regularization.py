"""Per-orbit regularized contributions and the orbitwise duality check.

Each side decides the support of every orbit from one face set per
(cone, psi): the faces whose stabilizer (span) psi kills on the primal
side, and the faces whose orbit psi fixes (whose annihilator it kills)
on the dual side.  A primal orbit contributes when its face is
stabilized and no stabilized face but the cone lies strictly above it
(relative cuspidality); the surviving integral is the automorphic box
scan's Euler product over the closure cone in the quotient lattice.  A
dual orbit contributes when its face is fixed and no fixed face lies
strictly below it; the surviving trace is the spectral level sets' Euler
product over the image of the character monoid in the transverse
quotient.  Both quotients are the (projection, section) pairs that
`cones.faces` reads off each face's Smith form, so no lattice
elimination happens here.  Both contributions are
`periods.prefactored_period` with the prefactor of the full period, so
the two sides of an orbit pair share nothing but series arithmetic.
Orbit by orbit these are compared through the inclusion-reversing face
bijection.
"""

from __future__ import annotations

from collections import namedtuple

from .characters import Character
from .cones import Cone, NotPositiveGrading, dual_cone, face_dual, faces, image_cone
from .curve import Curve
from .duality import GradedDualPair, GradedToricDatum
from .periods import (
    _remembered,
    automorphic_local_factor,
    automorphic_prefactor,
    certified,
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


def _face_set(kind: str, cone: Cone, psi: Character) -> tuple[Cone, ...]:
    """The faces, in lattice order, whose span ("stabilized") or annihilator ("fixed") psi kills.

    Built once per (cone, psi) inside an `euler_memo()` scope; every
    support test and predicate of its side reads it.
    """
    lattice = faces(cone)
    sublattice = lattice.span if kind == "stabilized" else lattice.annihilator
    return _remembered(kind, (cone, psi), lambda: tuple(
        face for i, face in enumerate(lattice.faces)
        if psi.is_trivial_on_all(sublattice(i))))


def _cuspidality_witness(cone: Cone, stabilized, rays) -> Cone | None:
    """First stabilized face other than the cone strictly above the face with these rays.

    The faces above a face are those of its orbit closure, and psi kills
    a closure face's stabilizer exactly when it kills that face's span.
    """
    return next((g for g in stabilized
                 if rays < g.ray_set() and g.rays != cone.rays), None)


def is_cuspidal(datum: GradedToricDatum, chi: Character):
    """Nontriviality of the combined character on every intermediate stabilizer.

    Returns (flag, witness_face): the witness is a face whose stabilizer
    sublattice the combined monomial kills.  Stabilizers here are the
    nontrivial proper ones; the trivial stabilizer of the dense orbit
    would make the condition vacuously false and is excluded: this is the
    orbit check's cuspidality test at the zero face.
    """
    stabilized = _face_set("stabilized", datum.cone, chi.shift_u(datum.eta))
    witness = _cuspidality_witness(datum.cone, stabilized, frozenset())
    return witness is None, witness


def fixed_orbit_faces(datum_check: GradedToricDatum, phi: Character):
    """Faces of the dual-side cone whose orbits the extended parameter fixes.

    The acting element evaluates on a character mu as z^mu * u^<rho, mu>;
    the orbit of a face is fixed pointwise when that monomial is trivial
    on the annihilator lattice of the face span (the character lattice of
    the orbit torsor).  The full face is always among them.
    """
    return _face_set("fixed", datum_check.cone, phi.shift_u(datum_check.rho))


def is_generic(datum_check: GradedToricDatum, phi: Character):
    """True when the extended parameter fixes only the full-face orbit."""
    fixed = fixed_orbit_faces(datum_check, phi)
    return len(fixed) == 1, fixed


def regularized_automorphic_contribution(
        datum: GradedToricDatum, face: Cone, curve: Curve,
        chi: Character, order: int) -> OrbitContribution:
    """Contribution of the orbit of one face; a non-face raises NotAFace.

    Vanishes unless the face is stabilized and its descent to the
    quotient torus is cuspidal relative to the orbit closure; otherwise
    it is the prefactored Euler product of automorphic box scans over the
    closure cone in the quotient lattice.
    """
    lattice = faces(datum.cone)
    i = lattice.index(face.rays)
    face = lattice.faces[i]
    psi = chi.shift_u(datum.eta)
    stabilized = _face_set("stabilized", datum.cone, psi)
    if face not in stabilized:
        return OrbitContribution("vanished", VANISHED_TRIVIALITY, None)
    if _cuspidality_witness(datum.cone, stabilized, face.ray_set()) is not None:
        return OrbitContribution("vanished", VANISHED_CUSPIDALITY, None)
    projection, section = lattice.span_quotient(i)
    closure = _remembered("orbit-closure", (datum.cone, face.rays),
                          lambda: image_cone(datum.cone, projection))
    series = prefactored_period(
        automorphic_local_factor, closure, certified(closure, psi.compose(section)),
        automorphic_prefactor(datum, chi), curve, order)
    return OrbitContribution(status="computed", reason=None, series=series)


def regularized_spectral_contribution(
        datum_check: GradedToricDatum, face: Cone, curve: Curve,
        phi: Character, order: int) -> OrbitContribution:
    """Contribution of the orbit of one face of the dual-side cone.

    Takes the face, which is all these conditions and the trace depend
    on; a cone that is not a face raises NotAFace.  Not fixed pointwise:
    zero.  Fixed but dominated by a larger fixed orbit (a fixed face
    strictly below it): zero.  Otherwise the Euler product of spectral
    level-set traces over the image of the character monoid in the
    transverse quotient, normalized like the full spectral period.
    """
    lattice = faces(datum_check.cone)
    i = lattice.index(face.rays)
    face = lattice.faces[i]
    psi = phi.shift_u(datum_check.rho)
    fixed = fixed_orbit_faces(datum_check, phi)
    if face not in fixed:
        return OrbitContribution("vanished", VANISHED_NOT_FIXED, None)
    if any(g.ray_set() < face.ray_set() for g in fixed):
        return OrbitContribution("vanished", VANISHED_DOMINATED, None)
    projection, section = lattice.annihilator_quotient(i)
    image = _remembered("orbit-image", (datum_check.cone, face.rays),
                        lambda: image_cone(dual_cone(datum_check.cone), projection))
    series = prefactored_period(
        spectral_local_factor, image, certified(image, psi.compose(section)),
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


def _contribution_or_divergent(contribution, *args) -> OrbitContribution:
    try:
        return contribution(*args)
    except NotPositiveGrading as err:
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
