"""Scenario files, the built-in catalog, and report assembly.

A scenario bundles a graded cone, a curve, characters, a truncation
order and a list of checks.  One table of fields, `SCENARIO_FIELDS`,
reads every field with its pointer and default; the parsed `Scenario`
keeps the fields read, and reports echo them and serialize all compared
series so a failure pinpoints a face/character/coefficient.
Integers are encoded as strings throughout the JSON so arbitrarily large
exact values survive round-trips unchanged.  The catalog is one table,
`CATALOG`: each name maps to its one-line summary and to the scenario
fields that differ from a shared default; `catalog_emit` fills in the
rest.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from itertools import count
from json.encoder import encode_basestring_ascii as _json_string

from . import __version__
from .characters import Character, character_from_spec
from .cones import NotPositiveGrading, NotStronglyConvex, make_cone
from .curve import Curve, InvalidSpin, is_prime_power
from .duality import (
    GradedDualPair,
    GradedToricDatum,
    unchecked_dual,
    validate_pair,
)
from .periods import (
    SAMPLE_DEGREES,
    _remembered,
    automorphic_local_factor,
    certified,
    euler_memo,
    verify_weak_duality,
)
from .regularization import verify_langlands_dual_periods
from .series import SeriesRows, rows_json, serialize_row

# `stacks` and `heights` are imported where an isogeny or a height block is
# parsed or checked, so a scenario without one never compiles them.

KNOWN_CHECKS = ("weak_duality", "orbit_duality", "stack_duality", "height_bridge")


class SchemaError(ValueError):
    """Scenario file problem, reported with the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class CharacterSpec(namedtuple("CharacterSpec", "name coords")):
    """coords entries are "formal" or (zeta_exp, u_exp)."""

    __slots__ = ()

    def build(self, order: int, nvars: int) -> Character:
        return character_from_spec(self.coords, order=order, nvars=nvars)


class Scenario(namedtuple("Scenario", "name rank cone rho eta curve cyclotomic_order "
                                      "truncation characters checks isogeny height fields")):
    """A parsed scenario: `fields` is the input with every default filled in,
    and the cone, curve, isogeny and height are built from it once."""

    __slots__ = ()

    def build_pair(self) -> GradedDualPair:
        """Unchecked pair; run_scenario gates on validate_pair first."""
        return unchecked_dual(GradedToricDatum(cone=self.cone, rho=self.rho, eta=self.eta))


# ----------------------------------------------------------------------
# The schema.  A reader takes (value, pointer, top), where top is the
# scenario's fields read so far (None for the scenario object itself), and
# returns the value read or raises SchemaError at the pointer.

_REQUIRED = object()


def _int(value, pointer, top):
    if isinstance(value, bool):
        raise SchemaError(pointer, "expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise SchemaError(pointer, f"not an integer: {value!r}") from None
    raise SchemaError(pointer, f"expected an integer, got {type(value).__name__}")


def _where(test, message, read=_int):
    """A reader: read by read, then refuse v where test(v) fails, with message.format(v)."""
    def checked(value, pointer, top):
        value = read(value, pointer, top)
        if not test(value):
            raise SchemaError(pointer, message.format(value))
        return value
    return checked


def _str(value, pointer, top):
    if not isinstance(value, str):
        raise SchemaError(pointer, f"expected str, got {type(value).__name__}")
    return value


def _list(item, not_list=None, length=None, wrong_length="expected length {0}, got {1}"):
    """A list reader, as a tuple of items; length is None, a number or "rank"."""
    def read(value, pointer, top):
        if not isinstance(value, list):
            raise SchemaError(pointer, not_list or f"expected list, got {type(value).__name__}")
        n = top["rank"] if length == "rank" else length
        if n is not None and len(value) != n:
            raise SchemaError(pointer, wrong_length.format(n, len(value)))
        return tuple(item(v, f"{pointer}[{i}]", top) for i, v in enumerate(value))
    return read


def _object(table, not_object=None):
    """An object reader over (key, reader, default) rows.

    A missing key takes its default (_REQUIRED: a schema error; None: left
    out); a present value is read, null included; any other key is refused.
    """
    keys = [key for key, _, _ in table]

    def read(value, pointer, top):
        if not isinstance(value, dict):
            raise SchemaError(pointer, not_object or f"expected dict, got {type(value).__name__}")
        for key in value:
            if key not in keys:
                raise SchemaError(f"{pointer}.{key}", "unknown field")
        out = {}
        for key, reader, default in table:
            if key in value:
                out[key] = reader(value[key], f"{pointer}.{key}", out if top is None else top)
            elif default is _REQUIRED:
                raise SchemaError(f"{pointer}.{key}", "missing required field")
            elif default is not None:
                out[key] = default
        return out
    return read


_VECTOR = _list(_int, "expected a list of integers", "rank")
COORD_FIELDS = (("zeta", _int, 0), ("u", _int, 0))
_COORD = _object(COORD_FIELDS, 'expected "formal" or {"zeta": k, "u": c}')


def _coord(value, pointer, top):
    return value if value == "formal" else _COORD(value, pointer, top)


CURVE_FIELDS = (
    ("q", _where(is_prime_power, "{} is not a prime power"), _REQUIRED),
    ("genus", _where(lambda g: g == 0, "only genus 0 is supported"), 0),
    ("spin", _list(_list(_int, "expected a list of integers", 2), "expected a list of pairs"),
     ((1, -1),)),
)
CHARACTER_FIELDS = (
    ("name", _str, _REQUIRED),
    ("coords", _list(_coord, None, "rank", "expected {0} coordinates"), _REQUIRED),
)
ISOGENY_FIELDS = (("inclusion", _list(_VECTOR, None, "rank", "expected {0} rows"), _REQUIRED),)
HEIGHT_FIELDS = (
    ("cones", _list(_list(_VECTOR, "expected a list of rays")), _REQUIRED),
    ("slopes", _list(_VECTOR), _REQUIRED),
)
SCENARIO_FIELDS = (
    ("name", _str, _REQUIRED),
    ("rank", _where(lambda n: n >= 1, "rank must be >= 1"), _REQUIRED),
    ("rays", _list(_VECTOR), _REQUIRED),
    ("rho", _VECTOR, _REQUIRED),
    ("eta", _VECTOR, _REQUIRED),
    ("curve", _object(CURVE_FIELDS), _REQUIRED),
    ("cyclotomic_order", _where(lambda n: n >= 1, "must be >= 1"), 1),
    ("truncation", _where(lambda n: n >= 0, "must be >= 0"), _REQUIRED),
    ("characters", _list(_object(CHARACTER_FIELDS, "expected an object")), _REQUIRED),
    ("checks", _list(_where(KNOWN_CHECKS.__contains__,
                            f"unknown check {{!r}}; known: {KNOWN_CHECKS}",
                            lambda value, pointer, top: value)), _REQUIRED),
    ("isogeny", _object(ISOGENY_FIELDS), None),
    ("height", _object(HEIGHT_FIELDS), None),
)
_read_scenario = _object(SCENARIO_FIELDS, "expected a JSON object")


def parse_scenario(data: dict, pointer: str = "scenario") -> Scenario:
    """Read data by SCENARIO_FIELDS, then apply the rules that span fields."""
    f = _read_scenario(data, pointer, None)
    rank, checks = f["rank"], f["checks"]
    try:
        curve = Curve(**f["curve"])
    except InvalidSpin as err:
        raise SchemaError(f"{pointer}.curve.spin[{err.index}]", str(err)) from None
    except ValueError as err:
        raise SchemaError(f"{pointer}.curve", str(err)) from None
    if not f["characters"]:
        raise SchemaError(f"{pointer}.characters", "at least one character")
    for i, chk in enumerate(checks):
        if chk in checks[:i]:
            raise SchemaError(f"{pointer}.checks[{i}]",
                              f"check {chk!r} repeats checks[{checks.index(chk)}]")
    iso = height = None
    if "isogeny" in f:
        from .stacks import IncompatibleField, check_curve_compatibility, make_isogeny
        try:
            iso = make_isogeny(f["isogeny"]["inclusion"])
        except ValueError as err:
            raise SchemaError(f"{pointer}.isogeny.inclusion", str(err)) from None
        try:
            check_curve_compatibility(iso, curve)
        except IncompatibleField as err:
            raise SchemaError(f"{pointer}.isogeny", str(err)) from None
    if "height" in f:
        from .heights import make_height
        cones, slopes = f["height"]["cones"], f["height"]["slopes"]
        if len(cones) != len(slopes):
            raise SchemaError(f"{pointer}.height", "one slope per cone")
        try:
            height = make_height(cones, slopes, rank)
        except ValueError as err:
            raise SchemaError(f"{pointer}.height", str(err)) from None
    if "stack_duality" in checks and iso is None:
        raise SchemaError(f"{pointer}.checks", "stack_duality needs an isogeny block")
    if "height_bridge" in checks and height is None:
        raise SchemaError(f"{pointer}.checks", "height_bridge needs a height block")
    try:
        cone = make_cone(f["rays"], rank)
    except NotStronglyConvex as err:
        raise SchemaError(f"{pointer}.rays", f"NotStronglyConvex: {err}") from None
    if "height_bridge" in checks and cone not in height.cones:
        raise SchemaError(f"{pointer}.height.cones",
                          "no height cone is the scenario cone: nothing to compare")
    characters = tuple(
        CharacterSpec(c["name"], tuple(v if v == "formal" else (v["zeta"], v["u"])
                                       for v in c["coords"]))
        for c in f["characters"])
    return Scenario(f["name"], rank, cone, f["rho"], f["eta"], curve, f["cyclotomic_order"],
                    f["truncation"], characters, checks, iso, height, f)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise SchemaError(str(path), f"invalid JSON: {err}") from None
    except UnicodeDecodeError as err:
        raise SchemaError(str(path), f"not valid UTF-8: {err.reason} "
                                     f"at byte {err.start}") from None
    return parse_scenario(data)


# ----------------------------------------------------------------------
# Report assembly.  Every integer is serialized as a string.


def _strings(value):
    """value with every integer written as a string and every tuple as a list."""
    if isinstance(value, dict):
        return {k: _strings(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strings(v) for v in value]
    return value if isinstance(value, str) else str(value)


def _rows(series) -> SeriesRows:
    """series.serialize(), made once per distinct series in a run (the run memo).

    Equal series of one report then share one list, which the writer
    formats once per indent.
    """
    return _remembered("rows", series.coeffs, series.serialize)


def _mismatch_rows(mismatch) -> dict:
    """The two differing coefficient rows of a (u, mine, theirs) mismatch."""
    u, mine, theirs = mismatch
    return {"automorphic": serialize_row(u, mine.items()),
            "spectral": serialize_row(u, theirs.items())}


def _per_character(sc, order, check_one):
    """Run check_one(chi) -> (row, ok) on every character of the scenario.

    A character whose effective weight is not positive on some ray gets a
    divergent-skip row and does not fail the check.
    """
    rows = []
    ok = True
    for spec in sc.characters:
        try:
            row, good = check_one(spec.build(order, sc.rank))
        except NotPositiveGrading as err:
            row, good = {"status": "divergent-skip",
                         "witness_ray": _strings(err.witness),
                         "weight": str(err.value)}, True
        rows.append({"character": spec.name, **row})
        ok = ok and good
    return {"status": "pass" if ok else "fail", "per_character": rows}, ok


def _run_weak_duality(sc, pair, order):
    def check_one(chi):
        report = verify_weak_duality(pair, sc.curve, chi, sc.truncation)
        directions = []
        for d in report.directions:
            dd = {
                "automorphic_side": d.automorphic_side,
                "spectral_side": d.spectral_side,
                "equal": d.equal,
                "automorphic_series": _rows(d.automorphic_series),
                "compared_spectral_series": _rows(d.compared_spectral_series),
            }
            if d.mismatch is not None:
                dd["first_mismatch_exponent"] = str(d.mismatch[0])
                dd["first_mismatch_rows"] = _mismatch_rows(d.mismatch)
            directions.append(dd)
        return {
            "status": "equal" if report.equal else "mismatch",
            "duality_exponent": str(report.duality_exponent),
            "directions": directions,
            "local_samples": {
                str(deg): {side: _rows(s) for side, s in sample.items()}
                for deg, sample in report.local_samples.items()},
        }, report.equal

    return _per_character(sc, order, check_one)


def _run_orbit_duality(sc, pair, order):
    def check_one(chi):
        fwd, bwd = verify_langlands_dual_periods(pair, sc.curve, chi, sc.truncation)
        directions = []
        for rep in (fwd, bwd):
            pairs = []
            for p in rep.pairs:
                row = {
                    "face": _strings(p.face_rays),
                    "dual_face": _strings(p.dual_face_rays),
                    "automorphic_status": p.automorphic.status,
                    "spectral_status": p.spectral.status,
                    "equal": p.equal,
                }
                if p.automorphic.reason:
                    row["automorphic_reason"] = p.automorphic.reason
                if p.spectral.reason:
                    row["spectral_reason"] = p.spectral.reason
                if p.automorphic.series is not None:
                    row["automorphic_series"] = _rows(p.automorphic.series)
                if p.spectral.series is not None:
                    row["spectral_series"] = _rows(p.spectral.series)
                if p.mismatch is not None:
                    row["first_mismatch"] = str(p.mismatch[0])
                    if p.mismatch[0] != "support":
                        row["first_mismatch_rows"] = _mismatch_rows(p.mismatch)
                pairs.append(row)
            directions.append({
                "direction": rep.direction,
                "duality_exponent": str(rep.duality_exponent),
                "equal": rep.equal,
                "pairs": pairs,
            })
        all_eq = fwd.equal and bwd.equal
        return {"status": "equal" if all_eq else "mismatch",
                "directions": directions}, all_eq

    return _per_character(sc, order, check_one)


def _run_stack_duality(sc, pair, order):
    from .stacks import verify_stack_duality

    def check_one(base_lift):
        rep = verify_stack_duality(pair, sc.isogeny, sc.curve, base_lift, sc.truncation)
        agrees, difference = rep.direct_comparison
        checks = []
        for c in rep.checks:
            row = {"name": c.name, "equal": c.equal,
                   "lhs": _rows(c.lhs), "rhs": _rows(c.rhs)}
            if c.mismatch is not None:
                row["first_mismatch_exponent"] = str(c.mismatch[0])
                row["first_mismatch_rows"] = _mismatch_rows(c.mismatch)
            checks.append(row)
        return {
            "index": str(rep.index),
            "discrepancy": str(rep.discrepancy),
            "status": "equal" if rep.equal else "mismatch",
            "checks": checks,
            "direct_orbit_model": {
                "agrees_with_liftsum": agrees,
                "first_difference_exponent":
                    str(difference[0]) if difference else None,
            },
        }, rep.equal

    return _per_character(sc, order, check_one)


def _run_height_bridge(sc, pair, order):
    from .heights import PiecewiseLinearHeight, height_fourier_global, height_fourier_local
    top = min(SAMPLE_DEGREES, max(sc.truncation, 1))

    def check_one(chi):
        # Certify every cone first, so a divergent character names its first bad ray.
        global_series = height_fourier_global(sc.height, sc.curve, chi, sc.truncation)
        degrees = []
        good = True
        for cone, slope in zip(sc.height.cones, sc.height.slopes):
            if cone != pair.side_x.cone:
                continue
            own = PiecewiseLinearHeight((cone,), (slope,))
            psi = certified(cone, chi.shift_u(tuple(2 * s for s in slope)))
            for deg in range(1, top + 1):
                lhs = height_fourier_local(own, chi, deg, sc.truncation)
                rhs = automorphic_local_factor(cone, psi, deg, sc.truncation)
                mism = lhs.first_mismatch(rhs)
                degrees.append({
                    "degree": str(deg),
                    "equal": mism is None,
                    "transform": _rows(lhs),
                    "local_factor": _rows(rhs),
                })
                good = good and mism is None
        return {"degrees": degrees,
                "global_transform": _rows(global_series),
                "status": "equal" if good else "mismatch"}, good

    return _per_character(sc, order, check_one)


def run_scenario(sc: Scenario, jobs=None) -> tuple[dict, bool]:
    """Execute all requested checks; returns (report dict, all passed).

    The worker-count keyword is accepted for old callers and ignored.
    Euler products and the local factors of both engines are remembered
    for the checks of this run only: the run memo is dropped when the run
    ends.
    """
    report = {
        "engine": f"toricperiods {__version__}",
        "seed": "0",
        "scenario": _strings(sc.fields),
        "checks": {},
    }
    order = math.lcm(sc.cyclotomic_order,
                     sc.isogeny.exponent if sc.isogeny else 1)
    pair = sc.build_pair()
    validation = validate_pair(pair)
    report["pair"] = {
        "epsilon": str(pair.epsilon),
        "discrepancy": str(pair.discrepancy),
        "dual_rays": _strings(pair.side_xcheck.cone.rays),
        "validation": [
            {"side": e.side, "condition": e.condition, "ok": e.ok,
             **({"witness": _strings(e.witness)} if e.witness is not None else {})}
            for e in validation.entries],
        "unitary_note": (
            "characters mixing u-powers into coordinates are not unitary; "
            "small-orbit regularized contributions vanish identically for "
            "purely unitary data"),
    }
    all_ok = validation.ok
    if not validation.ok:
        report["status"] = "fail"
        return report, False
    # Built per run, so a module attribute patched after import is the one called.
    runners = {"weak_duality": _run_weak_duality, "orbit_duality": _run_orbit_duality,
               "stack_duality": _run_stack_duality, "height_bridge": _run_height_bridge}
    with euler_memo():
        for check in sc.checks:
            block, ok = runners[check](sc, pair, order)
            report["checks"][check] = block
            all_ok = all_ok and ok
    report["status"] = "pass" if all_ok else "fail"
    return report, all_ok


def report_to_json(report: dict) -> str:
    """The report as json.dumps(report, sort_keys=True, indent=1) + newline.

    json.dumps takes its pure-Python encoder whenever indent is set, so
    the same bytes are written here directly: a report holds only dicts
    with string keys, lists, strings, booleans and None.  Every piece
    goes onto one list, joined once.  Series rows (`SeriesRows`) go to
    `rows_json`, and a rows list held more than once at one indent is
    written once.
    """
    out: list[str] = []
    _write_json(report, "\n", {}, out)
    out.append("\n")
    return "".join(out)


def _write_json(value, pad: str, written: dict, out: list) -> None:
    """Append value to out as indented JSON; pad is the newline and indent of its line.

    written maps (id, pad) of each SeriesRows already written to the
    object and its text; holding the object keeps its id from being reused.
    """
    inner = pad + " "
    if isinstance(value, str):
        out.append(_json_string(value))
    elif type(value) is SeriesRows:
        if (hit := written.get((id(value), pad))) is None:
            hit = written[id(value), pad] = (value, rows_json(value, pad))
        out.append(hit[1])
    elif isinstance(value, list):
        out.append("[")
        for i, v in enumerate(value):
            out.append("," + inner if i else inner)
            _write_json(v, inner, written, out)
        out.append(pad + "]" if value else "]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(sorted(value.items())):
            out.append(("," if i else "") + inner + _json_string(k) + ": ")
            _write_json(v, inner, written, out)
        out.append(pad + "}" if value else "}")
    elif value is None:
        out.append("null")
    elif type(value) is bool:
        out.append("true" if value else "false")
    else:
        raise TypeError(f"a report holds no {type(value).__name__}")


# ----------------------------------------------------------------------
# Catalog.

# name -> (summary, the fields that differ from the shared default: q = 2,
# cyclotomic order 1, truncation 10 and one formal character).
# weight_n_stack is built from n by _weight_n_fields.
CATALOG = {
    "tate": ("rank-1 self-dual affine line, formal character", {
        "rank": 1, "rays": [[1]], "rho": [1], "eta": [1], "truncation": 16,
        "checks": ["weak_duality", "orbit_duality"]}),
    "orthant_a2": ("rank-2 orthant, matched gradings", {
        "rank": 2, "rays": [[1, 0], [0, 1]], "rho": [1, 1], "eta": [1, 1],
        "checks": ["weak_duality", "orbit_duality"]}),
    "quadric_cone": ("rank-2 quadric cone, formal and specialized characters", {
        "rank": 2, "rays": [[1, 0], [1, 2]], "rho": [1, 1], "eta": [1, 1],
        "characters": [{"name": "formal", "coords": ["formal", "formal"]},
                       {"name": "z1-is-u-inverse",
                        "coords": [{"zeta": 0, "u": -1}, "formal"]}],
        "checks": ["weak_duality", "orbit_duality"]}),
    "quadric_cone_eta21": ("quadric cone with eigenform (2,1): discrepancy -1", {
        "rank": 2, "rays": [[1, 0], [1, 2]], "rho": [1, 1], "eta": [2, 1],
        "checks": ["weak_duality"]}),
    "square_cone_3d": ("rank-3 non-simplicial cone over the unit square", {
        "rank": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
        "rho": [1, 1, 2], "eta": [1, 0, 1],
        "checks": ["weak_duality", "orbit_duality"]}),
    "weight_n_stack": ("rank-1 weight-n quotient (pick n with --n; default 2)", None),
    "height_p1": ("rank-1 height transform and the local-factor bridge", {
        "rank": 1, "rays": [[1]], "rho": [1], "eta": [2], "truncation": 8,
        "checks": ["height_bridge", "weak_duality"],
        "height": {"cones": [[[1]]], "slopes": [[1]]}}),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def catalog_emit(name: str, q: int | None = None, order: int | None = None,
                 n: int | None = None) -> dict:
    """The named catalog scenario, with q and the truncation replaced when given.

    Every call builds a new dict, which the caller may change.
    """
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"known: {', '.join(catalog_names())}")
    if name == "weight_n_stack":
        fields = _weight_n_fields(2 if n is None else n)
    elif n is not None:
        raise KeyError("--n only applies to weight_n_stack")
    else:
        fields = json.loads(json.dumps(CATALOG[name][1]))  # a deep copy
    data = {"name": name, "curve": {"q": 2, "genus": 0}, "cyclotomic_order": 1,
            "truncation": 10,
            "characters": [{"name": "formal", "coords": ["formal"] * fields["rank"]}],
            **fields}
    if q is not None:
        data["curve"]["q"] = q
    if order is not None:
        data["truncation"] = order
    return data


def _weight_n_fields(n):
    if n < 1:
        raise KeyError("weight must be >= 1")
    return {
        "name": f"weight_{n}_stack", "rank": 1, "rays": [[1]], "rho": [1], "eta": [1],
        # The least prime power q = 1 mod n: the field must hold the n-th roots.
        "curve": {"q": next(q for q in count(n + 1, n) if is_prime_power(q)), "genus": 0},
        "cyclotomic_order": n, "checks": ["stack_duality"],
        "isogeny": {"inclusion": [[n]]}}
