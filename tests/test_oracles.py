"""Closed-form oracles that share no code path with the engines."""

import json

from toricperiods.characters import formal_character
from toricperiods.cones import make_cone
from toricperiods.curve import Curve
from toricperiods.cyclotomic import Cyc
from toricperiods.duality import GradedToricDatum, toric_dual
from toricperiods.periods import automorphic_period, spectral_period
from toricperiods.scenario import parse_scenario, run_scenario
from toricperiods.series import TruncatedSeries


def h(q, m):
    return (q ** (m + 1) - 1) // (q - 1)


def test_orthant_period_is_product_of_two_lines():
    # The orthant integral splits coordinatewise, so the period must equal
    # z1 z2 * Z(z1 u) * Z(z2 u) with Z the divisor-count series: the
    # u^m coefficient is sum over a+b=m of h_a h_b z1^(a+1) z2^(b+1).
    orthant = GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]),
                               rho=(1, 1), eta=(1, 1))
    chi = formal_character(2)
    for q in (2, 3):
        got = automorphic_period(orthant, Curve(q=q), chi, 8)
        data = {}
        for m in range(9):
            data[m] = {(a + 1, m - a + 1): Cyc.rational(h(q, a) * h(q, m - a), 1)
                       for a in range(m + 1)}
        expected = TruncatedSeries.from_dict(data, 2, 1, 8)
        assert got.first_mismatch(expected) is None
        spec = spectral_period(toric_dual(orthant).side_xcheck,
                               Curve(q=q), chi, 8)
        assert spec.first_mismatch(expected) is None


def test_weight_two_stack_closed_form_all_orders():
    # Both displayed stack series reduce to odd divisor counts; freeze the
    # identity at several q against the closed form rather than the engines.
    from toricperiods.stacks import (
        make_isogeny,
        stack_spectral_period_unramified,
        unramified_automorphic_period_liftsum,
        unramified_lifts,
    )
    tate = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
    for q in (3, 5, 9):
        pair = toric_dual(tate)
        lifts = unramified_lifts(make_isogeny([[2]]), formal_character(1, 2))
        lhs = unramified_automorphic_period_liftsum(pair, Curve(q=q), lifts, 7)
        rhs = stack_spectral_period_unramified(pair, Curve(q=q), lifts, 7)
        for m in range(8):
            if m % 2 == 1:
                expected = {(m + 1,): Cyc.rational(h(q, m), 2)}
                doubled = {(m + 1,): Cyc.rational(2 * h(q, m), 2)}
            else:
                expected = {}
                doubled = {}
            assert lhs.coefficient(m) == expected, (q, m)
            assert rhs.coefficient(m) == doubled, (q, m)


def test_scenario_infers_cyclotomic_order_from_isogeny():
    # A stack scenario that forgets to raise the coefficient order still
    # gets roots of unity for the torsion twists via the lcm rule.
    data = {
        "name": "implicit-order",
        "rank": 1,
        "rays": [[1]],
        "rho": [1],
        "eta": [1],
        "curve": {"q": 3, "genus": 0},
        "cyclotomic_order": 1,
        "truncation": 6,
        "characters": [{"name": "formal", "coords": ["formal"]}],
        "checks": ["stack_duality"],
        "isogeny": {"inclusion": [[2]]},
    }
    report, ok = run_scenario(parse_scenario(data))
    assert ok
    block = report["checks"]["stack_duality"]["per_character"][0]
    assert block["status"] == "equal"


def test_report_round_trips_through_json():
    data = {
        "name": "roundtrip",
        "rank": 1,
        "rays": [[1]],
        "rho": [1],
        "eta": [1],
        "curve": {"q": 2, "genus": 0},
        "cyclotomic_order": 1,
        "truncation": 5,
        "characters": [{"name": "formal", "coords": ["formal"]}],
        "checks": ["weak_duality"],
    }
    report, ok = run_scenario(parse_scenario(data))
    assert ok
    blob = json.dumps(report, sort_keys=True)
    again = json.loads(blob)
    assert again == report
    # Series rows carry only strings: no raw ints survive serialization.
    def only_strings(node):
        if isinstance(node, dict):
            return all(only_strings(v) for v in node.values())
        if isinstance(node, list):
            return all(only_strings(v) for v in node)
        return not isinstance(node, int) or isinstance(node, bool)
    assert only_strings(report["checks"]["weak_duality"]["per_character"][0]
                        ["directions"][0]["automorphic_series"])
