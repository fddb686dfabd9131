"""Scenario files, the built-in catalog, and report assembly.

A scenario bundles a graded cone, a curve, characters, a truncation
order and a list of checks; reports echo the scenario and serialize all
compared series so a failure pinpoints a face/character/coefficient.
Integers are encoded as strings throughout the JSON so arbitrarily large
exact values survive round-trips unchanged.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from itertools import count
from json.encoder import encode_basestring_ascii as _json_string

from . import __version__
from .characters import Character, character_from_spec
from .cones import NotStronglyConvex, make_cone
from .curve import Curve, InvalidSpin, is_prime_power
from .duality import (
    GradedDualPair,
    GradedToricDatum,
    unchecked_dual,
    validate_pair,
)
from .heights import (
    height_fourier_global,
    height_fourier_local,
    make_height,
)
from .periods import (
    SAMPLE_DEGREES,
    PositivityViolation,
    automorphic_local_factor,
    engine_input,
    euler_memo,
    verify_weak_duality,
)
from .regularization import verify_langlands_dual_periods
from .series import serialize_row
from .stacks import (
    IncompatibleField,
    check_curve_compatibility,
    induced_pair,
    make_isogeny,
    verify_stack_duality,
)

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


class Scenario(namedtuple(
        "Scenario",
        "name rank rays rho eta curve cyclotomic_order truncation characters "
        "checks isogeny height_cones height_slopes",
        defaults=(None, None, None))):
    __slots__ = ()

    def build_pair(self) -> GradedDualPair:
        """Unchecked pair; run_scenario gates on validate_pair first."""
        datum = GradedToricDatum(cone=make_cone(self.rays, self.rank),
                                 rho=self.rho, eta=self.eta)
        return unchecked_dual(datum)


def _expect(data, key, pointer, kind=None):
    if key not in data:
        raise SchemaError(f"{pointer}.{key}", "missing required field")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{pointer}.{key}",
                          f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _int_of(value, pointer):
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


def _int_vector(value, pointer, length=None):
    if not isinstance(value, list):
        raise SchemaError(pointer, "expected a list of integers")
    out = tuple(_int_of(v, f"{pointer}[{i}]") for i, v in enumerate(value))
    if length is not None and len(out) != length:
        raise SchemaError(pointer, f"expected length {length}, got {len(out)}")
    return out


def _parse_coord(value, pointer):
    if value == "formal":
        return "formal"
    if isinstance(value, dict):
        zeta = _int_of(value.get("zeta", 0), f"{pointer}.zeta")
        u = _int_of(value.get("u", 0), f"{pointer}.u")
        return (zeta, u)
    raise SchemaError(pointer, 'expected "formal" or {"zeta": k, "u": c}')


def parse_scenario(data: dict, pointer: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError(pointer, "expected a JSON object")
    name = _expect(data, "name", pointer, str)
    rank = _int_of(_expect(data, "rank", pointer), f"{pointer}.rank")
    if rank < 1:
        raise SchemaError(f"{pointer}.rank", "rank must be >= 1")
    rays_raw = _expect(data, "rays", pointer, list)
    rays = tuple(_int_vector(r, f"{pointer}.rays[{i}]", rank)
                 for i, r in enumerate(rays_raw))
    rho = _int_vector(_expect(data, "rho", pointer), f"{pointer}.rho", rank)
    eta = _int_vector(_expect(data, "eta", pointer), f"{pointer}.eta", rank)
    curve_raw = _expect(data, "curve", pointer, dict)
    q = _int_of(_expect(curve_raw, "q", f"{pointer}.curve"), f"{pointer}.curve.q")
    if not is_prime_power(q):
        raise SchemaError(f"{pointer}.curve.q", f"{q} is not a prime power")
    genus = _int_of(curve_raw.get("genus", 0), f"{pointer}.curve.genus")
    if genus != 0:
        raise SchemaError(f"{pointer}.curve.genus", "only genus 0 is supported")
    spin_raw = curve_raw.get("spin")
    if spin_raw is None:
        spin = ((1, -1),)
    elif not isinstance(spin_raw, list):
        raise SchemaError(f"{pointer}.curve.spin", "expected a list of pairs")
    else:
        spin = tuple(_int_vector(p, f"{pointer}.curve.spin[{i}]", 2)
                     for i, p in enumerate(spin_raw))
    try:
        curve = Curve(q=q, genus=genus, spin=spin)
    except InvalidSpin as err:
        raise SchemaError(f"{pointer}.curve.spin[{err.index}]", str(err)) from None
    except ValueError as err:
        raise SchemaError(f"{pointer}.curve", str(err)) from None
    order = _int_of(data.get("cyclotomic_order", 1), f"{pointer}.cyclotomic_order")
    if order < 1:
        raise SchemaError(f"{pointer}.cyclotomic_order", "must be >= 1")
    trunc = _int_of(_expect(data, "truncation", pointer), f"{pointer}.truncation")
    if trunc < 0:
        raise SchemaError(f"{pointer}.truncation", "must be >= 0")
    chars_raw = _expect(data, "characters", pointer, list)
    if not chars_raw:
        raise SchemaError(f"{pointer}.characters", "at least one character")
    characters = []
    for i, c in enumerate(chars_raw):
        cp = f"{pointer}.characters[{i}]"
        if not isinstance(c, dict):
            raise SchemaError(cp, "expected an object")
        cname = _expect(c, "name", cp, str)
        coords_raw = _expect(c, "coords", cp, list)
        if len(coords_raw) != rank:
            raise SchemaError(f"{cp}.coords", f"expected {rank} coordinates")
        coords = tuple(_parse_coord(v, f"{cp}.coords[{j}]")
                       for j, v in enumerate(coords_raw))
        characters.append(CharacterSpec(name=cname, coords=coords))
    checks_raw = _expect(data, "checks", pointer, list)
    checks = []
    for i, chk in enumerate(checks_raw):
        if chk not in KNOWN_CHECKS:
            raise SchemaError(f"{pointer}.checks[{i}]",
                              f"unknown check {chk!r}; known: {KNOWN_CHECKS}")
        if chk in checks:
            raise SchemaError(f"{pointer}.checks[{i}]",
                              f"check {chk!r} repeats checks[{checks.index(chk)}]")
        checks.append(chk)
    iso = None
    if "isogeny" in data:
        iso_raw = _expect(data, "isogeny", pointer, dict)
        inc = _expect(iso_raw, "inclusion", f"{pointer}.isogeny", list)
        iso_matrix = tuple(_int_vector(r, f"{pointer}.isogeny.inclusion[{i}]", rank)
                           for i, r in enumerate(inc))
        if len(iso_matrix) != rank:
            raise SchemaError(f"{pointer}.isogeny.inclusion",
                              f"expected {rank} rows")
        try:
            iso = make_isogeny(iso_matrix)
        except ValueError as err:
            raise SchemaError(f"{pointer}.isogeny.inclusion", str(err)) from None
        try:
            check_curve_compatibility(iso, curve)
        except IncompatibleField as err:
            raise SchemaError(f"{pointer}.isogeny", str(err)) from None
    height_cones = height_slopes = None
    if "height" in data:
        h = _expect(data, "height", pointer, dict)
        cones_raw = _expect(h, "cones", f"{pointer}.height", list)
        slopes_raw = _expect(h, "slopes", f"{pointer}.height", list)
        if len(cones_raw) != len(slopes_raw):
            raise SchemaError(f"{pointer}.height", "one slope per cone")
        for i, cone in enumerate(cones_raw):
            if not isinstance(cone, list):
                raise SchemaError(f"{pointer}.height.cones[{i}]",
                                  "expected a list of rays")
        height_cones = tuple(
            tuple(_int_vector(r, f"{pointer}.height.cones[{i}][{j}]", rank)
                  for j, r in enumerate(cone))
            for i, cone in enumerate(cones_raw))
        height_slopes = tuple(
            _int_vector(s, f"{pointer}.height.slopes[{i}]", rank)
            for i, s in enumerate(slopes_raw))
        try:
            make_height(height_cones, height_slopes, rank)
        except ValueError as err:
            raise SchemaError(f"{pointer}.height", str(err)) from None
    if "stack_duality" in checks and iso is None:
        raise SchemaError(f"{pointer}.checks", "stack_duality needs an isogeny block")
    if "height_bridge" in checks and height_cones is None:
        raise SchemaError(f"{pointer}.checks", "height_bridge needs a height block")
    return Scenario(name=name, rank=rank, rays=rays, rho=rho, eta=eta,
                    curve=curve, cyclotomic_order=order, truncation=trunc,
                    characters=tuple(characters), checks=tuple(checks),
                    isogeny=iso, height_cones=height_cones,
                    height_slopes=height_slopes)


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


def _vec_s(v):
    return [str(c) for c in v]


def _scenario_echo(sc: Scenario) -> dict:
    echo = {
        "name": sc.name,
        "rank": str(sc.rank),
        "rays": [_vec_s(r) for r in sc.rays],
        "rho": _vec_s(sc.rho),
        "eta": _vec_s(sc.eta),
        "curve": {"q": str(sc.curve.q), "genus": str(sc.curve.genus),
                  "spin": [[str(d), str(m)] for d, m in sc.curve.spin]},
        "cyclotomic_order": str(sc.cyclotomic_order),
        "truncation": str(sc.truncation),
        "characters": [{"name": c.name,
                        "coords": [v if v == "formal" else
                                   {"zeta": str(v[0]), "u": str(v[1])}
                                   for v in c.coords]}
                       for c in sc.characters],
        "checks": list(sc.checks),
    }
    if sc.isogeny is not None:
        echo["isogeny"] = {"inclusion": [_vec_s(r)
                                         for r in sc.isogeny.inclusion.matrix]}
    if sc.height_cones is not None:
        echo["height"] = {"cones": [[_vec_s(r) for r in c] for c in sc.height_cones],
                          "slopes": [_vec_s(s) for s in sc.height_slopes]}
    return echo


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
        except PositivityViolation as err:
            row, good = {"status": "divergent-skip",
                         "witness_ray": _vec_s(err.witness),
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
                "automorphic_series": d.automorphic_series.serialize(),
                "compared_spectral_series": d.compared_spectral_series.serialize(),
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
                str(deg): {side: s.serialize() for side, s in sample.items()}
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
                    "face": [_vec_s(r) for r in p.face_rays],
                    "dual_face": [_vec_s(r) for r in p.dual_face_rays],
                    "automorphic_status": p.automorphic.status,
                    "spectral_status": p.spectral.status,
                    "equal": p.equal,
                }
                if p.automorphic.reason:
                    row["automorphic_reason"] = p.automorphic.reason
                if p.spectral.reason:
                    row["spectral_reason"] = p.spectral.reason
                if p.automorphic.series is not None:
                    row["automorphic_series"] = p.automorphic.series.serialize()
                if p.spectral.series is not None:
                    row["spectral_series"] = p.spectral.series.serialize()
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
    induced = induced_pair(pair, sc.isogeny)

    def check_one(base_lift):
        rep = verify_stack_duality(induced, sc.curve, base_lift, sc.truncation)
        agrees, difference = rep.direct_comparison
        return {
            "index": str(rep.index),
            "discrepancy": str(rep.discrepancy),
            "status": "equal" if rep.equal else "mismatch",
            "checks": [{"name": c.name, "equal": c.equal,
                        "lhs": c.lhs.serialize(), "rhs": c.rhs.serialize()}
                       for c in rep.checks],
            "direct_orbit_model": {
                "agrees_with_liftsum": agrees,
                "first_difference_exponent":
                    str(difference[0]) if difference else None,
            },
        }, rep.equal

    return _per_character(sc, order, check_one)


def _run_height_bridge(sc, pair, order):
    height = make_height(sc.height_cones, sc.height_slopes, sc.rank)
    top = min(SAMPLE_DEGREES, max(sc.truncation, 1))

    def check_one(chi):
        degrees = []
        good = True
        for cone, slope in zip(height.cones, height.slopes):
            if cone != pair.side_x.cone:
                continue
            doubled = tuple(2 * s for s in slope)
            for deg in range(1, top + 1):
                # The transform runs first: it certifies the height's cones
                # in order, so a divergent character names its first bad ray.
                lhs = height_fourier_local(height, chi, deg, sc.truncation)
                rhs = automorphic_local_factor(
                    cone, *engine_input(cone, chi, doubled), deg, sc.truncation)
                mism = lhs.first_mismatch(rhs)
                degrees.append({
                    "degree": str(deg),
                    "equal": mism is None,
                    "transform": lhs.serialize(),
                    "local_factor": rhs.serialize(),
                })
                good = good and mism is None
        global_series = height_fourier_global(height, sc.curve, chi, sc.truncation)
        return {"degrees": degrees,
                "global_transform": global_series.serialize(),
                "status": "equal" if good else "mismatch"}, good

    return _per_character(sc, order, check_one)


def run_scenario(sc: Scenario, jobs=None) -> tuple[dict, bool]:
    """Execute all requested checks; returns (report dict, all passed).

    The worker-count keyword is accepted for old callers and ignored.
    Euler products and level-set factors are remembered for the checks
    of this run only: the memos are dropped when the run ends.
    """
    report = {
        "engine": f"toricperiods {__version__}",
        "seed": "0",
        "scenario": _scenario_echo(sc),
        "checks": {},
    }
    order = math.lcm(sc.cyclotomic_order,
                     sc.isogeny.exponent if sc.isogeny else 1)
    try:
        pair = sc.build_pair()
    except NotStronglyConvex as err:
        raise SchemaError("scenario.rays",
                          f"NotStronglyConvex: {err}") from None
    validation = validate_pair(pair)
    report["pair"] = {
        "epsilon": str(pair.epsilon),
        "discrepancy": str(pair.discrepancy),
        "dual_rays": [_vec_s(r) for r in pair.side_xcheck.cone.rays],
        "validation": [
            {"side": e.side, "condition": e.condition, "ok": e.ok,
             **({"witness": _vec_s(e.witness)} if e.witness is not None else {})}
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
    with euler_memo():
        for check in sc.checks:
            if check == "weak_duality":
                block, ok = _run_weak_duality(sc, pair, order)
            elif check == "orbit_duality":
                block, ok = _run_orbit_duality(sc, pair, order)
            elif check == "stack_duality":
                block, ok = _run_stack_duality(sc, pair, order)
            elif check == "height_bridge":
                block, ok = _run_height_bridge(sc, pair, order)
            else:  # pragma: no cover - guarded by the parser
                raise AssertionError(check)
            report["checks"][check] = block
            all_ok = all_ok and ok
    report["status"] = "pass" if all_ok else "fail"
    return report, all_ok


def report_to_json(report: dict) -> str:
    """The report as json.dumps(report, sort_keys=True, indent=1) + newline.

    json.dumps takes its pure-Python encoder whenever indent is set, so
    the same bytes are written here directly: a report holds only dicts
    with string keys, lists, strings, booleans and None.
    """
    return _json_value(report, "\n") + "\n"


def _json_value(value, pad: str) -> str:
    """value as indented JSON, pad being the newline and indent of its line."""
    inner = pad + " "
    if isinstance(value, list):
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join(
            [_json_string(v) if isinstance(v, str) else _json_value(v, inner)
             for v in value]) + pad + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [_json_string(k) + ": " + (_json_string(v) if isinstance(v, str)
                                       else _json_value(v, inner))
             for k, v in sorted(value.items())]) + pad + "}")
    if isinstance(value, str):
        return _json_string(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"a report holds no {type(value).__name__}")


# ----------------------------------------------------------------------
# Catalog.

def _catalog_entries():
    return {
        "tate": _tate_scenario,
        "orthant_a2": _orthant_scenario,
        "quadric_cone": _quadric_scenario,
        "quadric_cone_eta21": _quadric21_scenario,
        "square_cone_3d": _square_scenario,
        "weight_n_stack": _weight_n_scenario,
        "height_p1": _height_scenario,
    }


def catalog_names() -> list[str]:
    return sorted(_catalog_entries())


def catalog_emit(name: str, q: int | None = None, order: int | None = None,
                 n: int | None = None) -> dict:
    """The named catalog scenario, with q and the truncation replaced when given."""
    entries = _catalog_entries()
    if name not in entries:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"known: {', '.join(catalog_names())}")
    if name == "weight_n_stack":
        data = entries[name](2 if n is None else n)
    elif n is not None:
        raise KeyError("--n only applies to weight_n_stack")
    else:
        data = entries[name]()
    if q is not None:
        data["curve"]["q"] = q
    if order is not None:
        data["truncation"] = order
    return data


def _formal_chars(rank):
    return [{"name": "formal", "coords": ["formal"] * rank}]


def _tate_scenario():
    return {
        "name": "tate",
        "rank": 1,
        "rays": [[1]],
        "rho": [1],
        "eta": [1],
        "curve": {"q": 2, "genus": 0},
        "cyclotomic_order": 1,
        "truncation": 16,
        "characters": _formal_chars(1),
        "checks": ["weak_duality", "orbit_duality"],
    }


def _orthant_scenario():
    return {
        "name": "orthant_a2",
        "rank": 2,
        "rays": [[1, 0], [0, 1]],
        "rho": [1, 1],
        "eta": [1, 1],
        "curve": {"q": 2, "genus": 0},
        "cyclotomic_order": 1,
        "truncation": 10,
        "characters": _formal_chars(2),
        "checks": ["weak_duality", "orbit_duality"],
    }


def _quadric_scenario():
    return {
        "name": "quadric_cone",
        "rank": 2,
        "rays": [[1, 0], [1, 2]],
        "rho": [1, 1],
        "eta": [1, 1],
        "curve": {"q": 2, "genus": 0},
        "cyclotomic_order": 1,
        "truncation": 10,
        "characters": _formal_chars(2) + [
            {"name": "z1-is-u-inverse",
             "coords": [{"zeta": 0, "u": -1}, "formal"]}],
        "checks": ["weak_duality", "orbit_duality"],
    }


def _quadric21_scenario():
    return {
        "name": "quadric_cone_eta21",
        "rank": 2,
        "rays": [[1, 0], [1, 2]],
        "rho": [1, 1],
        "eta": [2, 1],
        "curve": {"q": 2, "genus": 0},
        "cyclotomic_order": 1,
        "truncation": 10,
        "characters": _formal_chars(2),
        "checks": ["weak_duality"],
    }


def _square_scenario():
    return {
        "name": "square_cone_3d",
        "rank": 3,
        "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
        "rho": [1, 1, 2],
        "eta": [1, 0, 1],
        "curve": {"q": 2, "genus": 0},
        "cyclotomic_order": 1,
        "truncation": 10,
        "characters": _formal_chars(3),
        "checks": ["weak_duality", "orbit_duality"],
    }


def _weight_n_scenario(n):
    if n < 1:
        raise KeyError("weight must be >= 1")
    # The least prime power q = 1 mod n: the field must hold the n-th roots.
    default_q = next(q for q in count(n + 1, n) if is_prime_power(q))
    return {
        "name": f"weight_{n}_stack",
        "rank": 1,
        "rays": [[1]],
        "rho": [1],
        "eta": [1],
        "curve": {"q": default_q, "genus": 0},
        "cyclotomic_order": n,
        "truncation": 10,
        "characters": _formal_chars(1),
        "checks": ["stack_duality"],
        "isogeny": {"inclusion": [[n]]},
    }


def _height_scenario():
    return {
        "name": "height_p1",
        "rank": 1,
        "rays": [[1]],
        "rho": [1],
        "eta": [2],
        "curve": {"q": 2, "genus": 0},
        "cyclotomic_order": 1,
        "truncation": 8,
        "characters": _formal_chars(1),
        "checks": ["height_bridge", "weak_duality"],
        "height": {"cones": [[[1]]], "slopes": [[1]]},
    }
