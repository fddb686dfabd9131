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

from toricperiods import periods, regularization
from toricperiods.cli import main
from toricperiods.scenario import (
    catalog_emit,
    catalog_names,
    parse_scenario,
    report_to_json,
    run_scenario,
)
from toricperiods.series import Monomial, TruncatedSeries

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
# blanked before the level-set slice was clipped.  square_cone_3d at U = 14
# is the rank-3 run where the clipped slice does the most work.
SCALED_DIGESTS = {
    ("square_cone_3d", (("order", 14),)):
        "9f83dcaa1fe946c0266289334c0b4c633cc012f8028e4964dc5c1bb0dc5bf285",
    ("quadric_cone", (("order", 14), ("q", 5))):
        "a205e178297b7bfd549acd7875310e6af1a70c187c1ec61f2d398d73c9ba7e0d",
    ("weight_n_stack", (("n", 7), ("order", 20), ("q", 8))):
        "e04d79325af3ebde9f2803fdac51ff38f4abd1988f666b03d5de5368e93c898c",
}


@pytest.mark.parametrize("name, overrides", sorted(SCALED_DIGESTS),
                         ids=[name for name, _ in sorted(SCALED_DIGESTS)])
def test_scaled_variants_match_recorded_digests(name, overrides):
    payload = report_to_json(report_of(catalog_emit(name, **dict(overrides))))
    digest = hashlib.sha256(
        ENGINE.sub(b' "engine": ""', payload.encode("utf-8"), count=1)).hexdigest()
    assert digest == SCALED_DIGESTS[name, overrides]


# ----------------------------------------------------------------------
# A constructed mismatch: one extra term in the spectral engine.


def _plus_one_term(series, u):
    extra = Monomial(0, u, (0,) * series.nvars)
    return series + TruncatedSeries.from_monomial(extra, series.nvars, series.order)


@pytest.fixture
def spectral_extra_term(monkeypatch):
    """Spectral local factors and orbit contributions each gain one term."""
    local = periods.spectral_local_factor
    orbit = regularization.regularized_spectral_contribution

    def spectral_local_factor(cone, psi, w, d, order):
        return _plus_one_term(local(cone, psi, w, d, order), 2)

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


def test_mismatch_rows_of_a_passing_report_are_absent():
    text = report_to_json(report_of(catalog_emit("tate")))
    assert "first_mismatch" not in text


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
