import pytest

from oracles import dim, quotient_lattice
from toricperiods.cones import dual_cone, faces, image_cone, make_cone
from toricperiods.duality import (
    GradedToricDatum,
    InvalidEigenform,
    InvalidGrading,
    toric_dual,
    validate_pair,
)

TATE = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
QUADRIC = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(1, 1))
QUADRIC21 = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(2, 1))
ORTHANT = GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]), rho=(1, 1), eta=(1, 1))
SQUARE3D = GradedToricDatum(
    cone=make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
    rho=(1, 1, 2), eta=(1, 0, 1))

CATALOG = (TATE, ORTHANT, QUADRIC, QUADRIC21, SQUARE3D)


def test_tate_self_dual():
    pair = toric_dual(TATE)
    assert pair.side_xcheck == TATE
    assert pair.epsilon == 1
    assert pair.discrepancy == 0


def test_quadric_dual():
    pair = toric_dual(QUADRIC)
    assert pair.side_xcheck.cone.rays == ((0, 1), (2, -1))
    assert pair.side_xcheck.rho == (1, 1)
    assert pair.side_xcheck.eta == (1, 1)
    assert pair.epsilon == 2
    assert pair.discrepancy == 0


def test_quadric_eta21():
    pair = toric_dual(QUADRIC21)
    assert pair.epsilon == 3
    assert pair.discrepancy == -1
    assert validate_pair(pair).ok


def test_square_cone_matched_weight():
    pair = toric_dual(SQUARE3D)
    assert pair.epsilon == 3
    assert pair.discrepancy == 0
    assert validate_pair(pair).ok


def test_invalid_grading_rejected():
    bad = GradedToricDatum(cone=QUADRIC.cone, rho=(1, 0), eta=(1, 1))
    with pytest.raises(InvalidGrading):
        toric_dual(bad)


def test_lower_dimensional_cone_rejected():
    # A ray in the plane: the dual cone carries the line (0, ±1), and one
    # of the two pairs nonpositively with any rho.
    flat = GradedToricDatum(cone=make_cone([(1, 0)], 2), rho=(1, 0), eta=(1, 0))
    with pytest.raises(InvalidGrading, match="witness"):
        toric_dual(flat)


def test_invalid_eigenform_rejected():
    bad = GradedToricDatum(cone=QUADRIC.cone, rho=(1, 1), eta=(0, 1))
    with pytest.raises(InvalidEigenform):
        toric_dual(bad)


def orbit_geometry(datum):
    """Per face: the face, its stabilizer span, quotient and closure cone."""
    lattice = faces(datum.cone)
    for i, face in enumerate(lattice.faces):
        span = lattice.span(i)
        quot = quotient_lattice(datum.rank, span)
        yield face, span, quot, image_cone(datum.cone, quot.free_projection)


def test_orbit_counts():
    assert len(faces(TATE.cone).faces) == 2
    assert len(faces(QUADRIC.cone).faces) == 4
    assert len(faces(SQUARE3D.cone).faces) == 10


def test_orbit_extremes():
    orbs = list(orbit_geometry(QUADRIC))
    dense = [span for face, span, _, _ in orbs if not face.rays]
    fixed = [span for _, span, quot, _ in orbs if quot.free_projection.target_rank == 0]
    assert len(dense) == 1 and len(fixed) == 1
    assert dense[0] == ()
    assert len(fixed[0]) == 2


def test_orbit_quotient_has_no_torsion():
    for datum in CATALOG:
        for _, _, quot, _ in orbit_geometry(datum):
            assert quot.torsion_invariants == ()


def test_closure_cone_dimensions():
    for datum in CATALOG:
        r = datum.rank
        for face, _, _, closure in orbit_geometry(datum):
            assert dim(face) + dim(closure) == r
            assert closure.full_dimensional


def test_validate_pair_witnesses():
    good = validate_pair(toric_dual(TATE))
    assert good.ok
    # Hand-build an invalid pair to exercise the report.
    bad_datum = GradedToricDatum(cone=QUADRIC.cone, rho=(1, 0), eta=(1, 1))
    from toricperiods.duality import GradedDualPair
    pair = GradedDualPair(
        side_x=bad_datum,
        side_xcheck=GradedToricDatum(cone=dual_cone(QUADRIC.cone), rho=(1, 1), eta=(1, 0)),
        epsilon=1)
    report = validate_pair(pair)
    assert not report.ok
    fail = next(e for e in report.failures() if e.condition == "grading-interior")
    assert fail.witness == (0, 1)
    bad_eta = GradedDualPair(
        side_x=GradedToricDatum(cone=QUADRIC.cone, rho=(1, 1), eta=(0, 1)),
        side_xcheck=GradedToricDatum(cone=dual_cone(QUADRIC.cone), rho=(0, 1), eta=(1, 1)),
        epsilon=1)
    report2 = validate_pair(bad_eta)
    fail2 = next(e for e in report2.failures() if e.condition == "eigenform-pole-free")
    assert fail2.witness == (1, 0)


def test_weight_equal_rank_achievable_on_catalog():
    # For every catalog cone there is an eigenform making epsilon == rank.
    for datum in (TATE, ORTHANT, QUADRIC, SQUARE3D):
        pair = toric_dual(datum)
        assert pair.epsilon == datum.rank


def test_epsilon_always_positive():
    for datum in CATALOG:
        assert toric_dual(datum).epsilon > 0
