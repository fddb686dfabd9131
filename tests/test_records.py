"""The package's records: immutable named tuples that check their input.

Every record is a `collections.namedtuple` subclass with empty
`__slots__`, so it compares and hashes by value exactly as a tuple of its
fields, has no instance `__dict__`, and refuses assignment.  The four
records that validate do so in `__new__`, for positional and keyword
construction alike, with a raise that `python -O` keeps.  `Cyc` and
`FaceLattice` are records too: a `Cyc` equals the plain tuple
(order, nums, den), and a face lattice's face count is `len(faces)`, not
its own length.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricperiods import (
    characters,
    cones,
    curve,
    cyclotomic,
    duality,
    heights,
    intlinalg,
    periods,
    regularization,
    scenario,
    series,
    stacks,
)
from toricperiods.cones import FaceLattice, faces, make_cone
from toricperiods.curve import Curve, InvalidSpin
from toricperiods.duality import GradedToricDatum
from toricperiods.heights import PiecewiseLinearHeight
from toricperiods.intlinalg import LatticeMap
from toricperiods.series import Monomial

MODULES = (characters, cones, curve, cyclotomic, duality, heights, intlinalg,
           periods, regularization, scenario, series, stacks)

RECORDS = (
    characters.Character,
    cones.Cone, cones.FaceLattice,
    curve.Curve,
    cyclotomic.Cyc,
    duality.GradedToricDatum, duality.GradedDualPair,
    duality.ValidationEntry, duality.ValidationReport,
    heights.PiecewiseLinearHeight,
    intlinalg.LatticeMap, intlinalg.SmithDecomposition,
    periods.DirectionVerdict, periods.PeriodReport,
    regularization.OrbitContribution, regularization.OrbitPairVerdict,
    regularization.OrbitDualityReport,
    scenario.CharacterSpec, scenario.Scenario,
    series.Monomial, series.MonomialKeys, series.TruncatedSeries,
    stacks.IsogenyDatum, stacks.StackCheck, stacks.StackReport,
)

SRC = Path(__file__).resolve().parents[1] / "src"
CONE = make_cone([(1, 0), (1, 2)])


def _sample(cls, offset=0):
    """An instance with distinct hashable fields; _make skips __new__'s checks."""
    return cls._make((offset + i, f"f{i}") for i in range(len(cls._fields)))


def test_every_record_class_is_listed_and_none_is_a_dataclass():
    found = {v for m in MODULES for v in vars(m).values()
             if isinstance(v, type) and v.__module__ == m.__name__}
    assert not [c for c in found if hasattr(c, "__dataclass_fields__")]
    assert {c for c in found if issubclass(c, tuple) and hasattr(c, "_fields")} \
        == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_is_a_frozen_slotted_tuple(cls):
    rec = _sample(cls)
    assert cls.__slots__ == ()
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        setattr(rec, cls._fields[0], 1)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_equality_and_hash_are_those_of_its_fields(cls):
    a, b, other = _sample(cls), _sample(cls), _sample(cls, offset=1)
    fields = tuple(getattr(a, f) for f in cls._fields)
    assert a == b and a is not b and a != other
    assert hash(a) == hash(b) == hash(fields)
    copy = a._replace(**{cls._fields[-1]: "changed"})
    assert type(copy) is cls and copy != a


def test_repr_names_the_fields():
    assert repr(Monomial(1, 2, (3,))) == "Monomial(zeta=1, u=2, z=(3,))"


def test_defaults_and_normalization():
    assert Curve(5) == Curve(q=5) == Curve(5, 0, ((1, -1),))
    # A Scenario has no defaults of its own: the parser fills them into `fields`.
    assert scenario.Scenario._field_defaults == {}
    sc = scenario.parse_scenario({
        "name": "t", "rank": 1, "rays": [[1]], "rho": [1], "eta": ["1"], "curve": {"q": 3},
        "truncation": 2, "characters": [{"name": "c", "coords": [{}]}], "checks": []})
    assert sc.fields["curve"] == {"q": 3, "genus": 0, "spin": ((1, -1),)}
    assert sc.fields["cyclotomic_order"] == sc.cyclotomic_order == 1
    assert sc.fields["eta"] == sc.eta == (1,)
    assert sc.fields["characters"] == ({"name": "c", "coords": ({"zeta": 0, "u": 0},)},)
    assert sc.characters[0].coords == ((0, 0),)
    assert "isogeny" not in sc.fields and sc.isogeny is sc.height is None
    datum = GradedToricDatum(cone=CONE, rho=[1, 1], eta=(1.0, 1))
    assert datum == GradedToricDatum(CONE, (1, 1), (1, 1))
    assert type(datum.rho) is tuple and type(datum.eta[0]) is int


@pytest.mark.parametrize("build", [
    lambda: Curve(6),
    lambda: Curve(q=6),
    lambda: Curve(5, 0, ((1, -2),)),
    lambda: Curve(q=5, spin=((1, -2),)),
    lambda: Curve(5, 1),
    lambda: GradedToricDatum(CONE, (1,), (1, 1)),
    lambda: GradedToricDatum(cone=CONE, rho=(1, 1), eta=(1, 1, 1)),
    lambda: LatticeMap(2, 2, ((1, 0),)),
    lambda: LatticeMap(source_rank=2, target_rank=1, matrix=((1,),)),
    lambda: PiecewiseLinearHeight((), ()),
    lambda: PiecewiseLinearHeight(cones=(), slopes=()),
    lambda: PiecewiseLinearHeight(cones=(CONE,), slopes=((1,),)),
], ids=["curve-q", "curve-q-kw", "spin-sum", "spin-sum-kw", "genus",
        "rho-length", "eta-length-kw", "map-rows", "map-columns-kw",
        "height-empty", "height-empty-kw", "slope-length-kw"])
def test_bad_input_raises_from_new(build):
    with pytest.raises(ValueError):
        build()


def test_bad_spin_degree_names_its_index():
    with pytest.raises(InvalidSpin) as err:
        Curve(q=5, spin=((0, -1), (1, -1)))
    assert err.value.index == 0


def test_face_lattice_counts_its_faces_in_faces():
    lattice = faces(CONE)
    assert FaceLattice._fields == ("faces", "transforms")
    assert len(lattice) == len(FaceLattice._fields)
    assert len(lattice.faces) == len(lattice.transforms) == 4
    assert lattice.faces[lattice.index(CONE.rays)] == CONE
    n = CONE.ambient_rank
    assert [(len(lattice.span(i)), len(lattice.annihilator(i))) for i in range(4)] \
        == [(dim, n - dim) for dim, _, _ in lattice.transforms]


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips site hooks, which may import typing and hide a regression.
    probe = ("import sys, toricperiods, toricperiods.scenario; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
