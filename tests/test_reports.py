"""Report bytes: the direct JSON writer, the recorded digests and mismatch detail.

`report_to_json` writes what json.dumps(sort_keys=True, indent=1) would;
json.dumps stays here as its oracle.  The digest test recomputes the
sha256 of every benchmark scenario's report the way `bench/worker.py`
does and compares it with `bench/digests.json`, reading `bench/` only.
"""

import functools
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import add, from_integers
from toricperiods import periods, regularization
from toricperiods.cli import main
from toricperiods.scenario import (
    catalog_emit,
    catalog_names,
    parse_scenario,
    report_to_json,
    run_scenario,
)
from toricperiods.cyclotomic import Cyc
from toricperiods.series import Monomial, SeriesRows, TruncatedSeries, rows_json

BENCH = Path(__file__).resolve().parent.parent / "bench"
ENGINE = re.compile(rb'^ "engine": "[^"\n]*"', re.MULTILINE)


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=1) + "\n"


@functools.cache
def _report_of(text):
    return run_scenario(parse_scenario(json.loads(text)))[0]


def report_of(data):
    """The report of a scenario, run once per distinct scenario in this module."""
    return _report_of(json.dumps(data, sort_keys=True))


def catalog_reports():
    return [report_of(catalog_emit(name)) for name in catalog_names()]


# ----------------------------------------------------------------------
# Writer against json.dumps.


def test_writer_matches_json_dumps_on_catalog_reports():
    for report in catalog_reports():
        assert report_to_json(report) == oracle(report)


TRICKY = ('', '"', '\\', '"\\"', '\x00\x1f\n\t\r\x7f', 'é', 'ß€',
          '  ', '\U0001f600', '\ud800', '"key": [1]')
strings = st.text(max_size=6) | st.sampled_from(TRICKY)
json_values = st.recursive(
    st.none() | st.booleans() | strings,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(strings, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps_on_nested_values(value):
    assert report_to_json(value) == oracle(value)


def test_writer_writes_empty_containers_and_literals():
    value = {"b": [], "a": {}, "c": [True, False, None, [], {}], "": [[]]}
    assert report_to_json(value) == oracle(value)
    assert report_to_json({}) == "{}\n"


@pytest.mark.parametrize("leaf", [1, 1.5, ("a",)])
def test_writer_refuses_values_a_report_never_holds(leaf):
    with pytest.raises(TypeError):
        report_to_json({"rows": ["x", {"value": leaf}]})


# Series rows: `rows_json` writes them in one loop, and a rows object held
# twice at one indent is written once.

PADS = ("\n", "\n ", "\n   ", "\n" + " " * 9)


@st.composite
def random_series(draw):
    """A series with nvars 0-3, negative exponents and coefficients beyond 2**64."""
    order = draw(st.sampled_from((1, 3, 4, 12)))
    nvars = draw(st.integers(0, 3))
    big = st.integers(-(2 ** 80), 2 ** 80) | st.integers(-5, 5)
    values = st.builds(lambda nums, den: from_integers(order, nums, den),
                       st.lists(big, min_size=Cyc.degree(order),
                                max_size=Cyc.degree(order)),
                       st.integers(1, 2 ** 70))
    rows = draw(st.dictionaries(
        st.integers(-4, 6),
        st.dictionaries(st.tuples(*[st.integers(-12, 12)] * nvars), values, max_size=3),
        max_size=4))
    return TruncatedSeries.from_dict(rows, nvars, order, 6)


@settings(max_examples=80, deadline=None)
@given(random_series())
def test_rows_writer_matches_json_dumps(series):
    rows = series.serialize()
    assert type(rows) is SeriesRows and rows == json.loads(json.dumps(rows))
    text = json.dumps(rows, sort_keys=True, indent=1)
    for pad in PADS:
        assert rows_json(rows, pad) == text.replace("\n", pad)
    nested = {"series": rows, "list": [rows, {"deeper": [rows]}]}
    assert report_to_json(nested) == oracle(nested)


def test_rows_writer_writes_empty_rows_and_terms():
    for rows in (SeriesRows(), SeriesRows([["3", []]]),
                 SeriesRows([["0", [["1", "1", "0", []]]], ["2", []]])):
        for pad in PADS:
            assert rows_json(rows, pad) == json.dumps(rows, indent=1).replace("\n", pad)


def test_shared_rows_are_written_once_per_indent_and_only_for_that_object():
    series = TruncatedSeries.from_dict(
        {-1: {(2, -3): from_integers(4, (5, -7), 3)}, 2: {(0, 1): Cyc.one(4)}}, 2, 4, 5)
    shared = series.serialize()
    twin = series.serialize()
    assert twin == shared and twin is not shared
    report = {"a": shared, "b": shared, "deep": {"c": shared, "d": [shared, twin]},
              "twin": twin, "plain": [list(r) for r in shared]}
    assert report_to_json(report) == oracle(report)
    # Fresh rows between calls often reuse a dead object's id: no text carries over.
    for k in range(30):
        rows = SeriesRows([[str(k), [[str(k), "1", "0", []]]]])
        report = {"a": rows, "b": [rows]}
        assert report_to_json(report) == oracle(report)
        del rows, report


# ----------------------------------------------------------------------
# Digests of the benchmark scenarios.


def test_reports_match_recorded_digests():
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    paths = sorted((BENCH / "scenarios").glob("*.json"))
    assert [p.stem for p in paths] == sorted(recorded)
    for path in paths:
        report = report_of(json.loads(path.read_text(encoding="utf-8")))
        payload = report_to_json(report).encode("utf-8")
        digest = hashlib.sha256(
            ENGINE.sub(b' "engine": ""', payload, count=1)).hexdigest()
        assert digest == recorded[path.stem], path.stem


# Digests of the scaled variants CI runs end to end, recorded with `engine`
# blanked before the level-set slice was clipped, by test id: the catalog
# name, and the reduced weight for the second weight_n_stack run.
# square_cone_3d at U = 14 is the rank-3 run where the clipped slice does
# the most work; the weight-12 stack is the one run over Q(zeta_12).
SCALED_DIGESTS = {
    "square_cone_3d": ("square_cone_3d", {"order": 14},
                       "9f83dcaa1fe946c0266289334c0b4c633cc012f8028e4964dc5c1bb0dc5bf285"),
    "quadric_cone": ("quadric_cone", {"order": 14, "q": 5},
                     "a205e178297b7bfd549acd7875310e6af1a70c187c1ec61f2d398d73c9ba7e0d"),
    "weight_n_stack": ("weight_n_stack", {"n": 7, "order": 20, "q": 8},
                       "e04d79325af3ebde9f2803fdac51ff38f4abd1988f666b03d5de5368e93c898c"),
    "weight_12_stack": ("weight_n_stack", {"n": 12, "order": 20, "q": 13},
                        "484bb66de4b2f0b2b2c66e412b0da0ba8e42531a72eb026370575361f98d867b"),
}


@pytest.mark.parametrize("variant", sorted(SCALED_DIGESTS))
def test_scaled_variants_match_recorded_digests(variant):
    name, overrides, recorded = SCALED_DIGESTS[variant]
    payload = report_to_json(report_of(catalog_emit(name, **overrides)))
    digest = hashlib.sha256(
        ENGINE.sub(b' "engine": ""', payload.encode("utf-8"), count=1)).hexdigest()
    assert digest == recorded


# ----------------------------------------------------------------------
# A constructed mismatch: one extra term in the spectral engine.


def _plus_one_term(series, u):
    extra = Monomial(0, u, (0,) * series.nvars)
    return add(series, TruncatedSeries.from_monomial(extra, series.nvars, series.order))


@pytest.fixture
def spectral_extra_term(monkeypatch):
    """Spectral local factors and orbit contributions each gain one term."""
    local = periods.spectral_local_factor
    orbit = regularization.regularized_spectral_contribution

    def spectral_local_factor(cone, psi, d, order):
        return _plus_one_term(local(cone, psi, d, order), 2)

    def regularized_spectral_contribution(*args):
        c = orbit(*args)
        if c.series is None:
            return c
        return c._replace(series=_plus_one_term(c.series, c.series.low or 0))

    monkeypatch.setattr(periods, "spectral_local_factor", spectral_local_factor)
    monkeypatch.setattr(regularization, "regularized_spectral_contribution",
                        regularized_spectral_contribution)


def _row_at(rows, u):
    return next((r for r in rows if r[0] == u), [u, []])


def test_mismatch_rows_name_the_differing_coefficients(spectral_extra_term):
    report, ok = run_scenario(parse_scenario(catalog_emit("tate")))
    assert not ok and report["status"] == "fail"
    (weak,) = report["checks"]["weak_duality"]["per_character"]
    assert weak["status"] == "mismatch"
    failing = [d for d in weak["directions"] if not d["equal"]]
    assert len(failing) == 2
    for d in failing:
        rows = d["first_mismatch_rows"]
        u = d["first_mismatch_exponent"]
        assert rows["automorphic"] == _row_at(d["automorphic_series"], u)
        assert rows["spectral"] == _row_at(d["compared_spectral_series"], u)
        assert rows["automorphic"] != rows["spectral"]
    (orbit,) = report["checks"]["orbit_duality"]["per_character"]
    pairs = [p for d in orbit["directions"] for p in d["pairs"]
             if "first_mismatch_rows" in p]
    assert pairs
    for p in pairs:
        rows = p["first_mismatch_rows"]
        u = p["first_mismatch"]
        assert rows["automorphic"] == _row_at(p["automorphic_series"], u)
        assert rows["automorphic"] != rows["spectral"]
        assert rows["spectral"][0] == u
    assert report_to_json(report) == oracle(report)


def test_failing_stack_identities_show_the_compared_rows(spectral_extra_term):
    report, ok = run_scenario(parse_scenario(catalog_emit("weight_n_stack", n=2)))
    assert not ok
    (row,) = report["checks"]["stack_duality"]["per_character"]
    assert row["status"] == "mismatch"
    assert [c["equal"] for c in row["checks"]] == [False, False]
    for c in row["checks"]:
        u = c["first_mismatch_exponent"]
        rows = c["first_mismatch_rows"]
        assert rows["automorphic"] == _row_at(c["lhs"], u)
        assert rows["spectral"][0] == u
        assert rows["automorphic"] != rows["spectral"]
    assert report_to_json(report) == oracle(report)


def test_human_output_prints_failing_stack_rows(tmp_path, capsys,
                                                spectral_extra_term):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(catalog_emit("weight_n_stack", n=2)),
                    encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "stack.report.json").read_text(encoding="utf-8"))
    (row,) = report["checks"]["stack_duality"]["per_character"]
    for c in row["checks"]:
        assert f"first mismatch, stack identity {c['name']}:" in out
        for side in ("automorphic", "spectral"):
            assert f"{side}: {json.dumps(c['first_mismatch_rows'][side])}" in out


def test_mismatch_rows_of_a_passing_report_are_absent():
    for name in ("tate", "weight_n_stack"):
        assert "first_mismatch" not in report_to_json(report_of(catalog_emit(name)))


def test_human_output_prints_both_rows(tmp_path, capsys, spectral_extra_term):
    path = tmp_path / "tate.json"
    path.write_text(json.dumps(catalog_emit("tate")), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "tate.report.json").read_text(encoding="utf-8"))
    (weak,) = report["checks"]["weak_duality"]["per_character"]
    d = weak["directions"][0]
    assert "first mismatch, automorphic on X vs spectral on X-check:" in out
    assert f"automorphic: {json.dumps(d['first_mismatch_rows']['automorphic'])}" in out
    assert f"spectral: {json.dumps(d['first_mismatch_rows']['spectral'])}" in out
    (orbit,) = report["checks"]["orbit_duality"]["per_character"]
    direction = next(d for d in orbit["directions"]
                     if any("first_mismatch_rows" in p for p in d["pairs"]))
    assert f"first mismatch, {direction['direction']} face" in out
