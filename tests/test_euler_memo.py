"""The per-run memos: exact hits, a scope per run, no cache outside.

euler_memo() opens one mapping for Euler products and one for
level-set factors; both are dropped with the scope.
"""

import pytest

from toricperiods import periods, scenario
from toricperiods.characters import character_from_spec, extended_character
from toricperiods.cones import make_cone
from toricperiods.curve import Curve
from toricperiods.periods import (
    automorphic_period,
    euler_memo,
    euler_product,
    spectral_local_factor,
    spectral_period,
)
from toricperiods.scenario import catalog_emit, parse_scenario, report_to_json, run_scenario
from toricperiods.series import Monomial, TruncatedSeries


RING = (1, 3)  # one formal variable over Q(zeta_3), the ring of `factor`


def factor(d):
    """A fresh (equal, not identical) local factor on every call."""
    mons = [Monomial(k, d * k, (k,)) for k in range(1, 4)]
    return TruncatedSeries.from_monomials(mons, 1, 3, 6)


def memo_size():
    memo = periods._EULER_MEMO.get()
    return None if memo is None else len(memo)


def level_memo_size():
    memo = periods._LEVEL_SET_MEMO.get()
    return None if memo is None else len(memo)


# A level-set input: the quadric cone graded by w = (1, 1), and psi
# carrying u-slopes w, over Q(zeta_3) with two formal variables.
CHI = character_from_spec([(1, 0), "formal"], order=3)
LEVEL_INPUT = dict(cone=make_cone([(1, 0), (1, 2)]), psi=extended_character(CHI, (1, 1)),
                   w=(1, 1), deg=1, order=5)


def test_memo_hit_equals_uncached_product():
    curve = Curve(q=4)
    uncached = euler_product(factor, curve, 6, RING)
    with euler_memo():
        first = euler_product(factor, curve, 6, RING)
        again = euler_product(factor, curve, 6, RING)
        assert memo_size() == 1
    assert again is first
    assert first == uncached


def test_memo_key_is_the_full_input():
    with euler_memo():
        by_q = {q: euler_product(factor, Curve(q=q), 6, RING) for q in (2, 3)}
        # A shorter truncation reads fewer place counts: a third key.
        short = euler_product(factor, Curve(q=2), 2, RING)
        assert memo_size() == 3
    assert by_q[2] != by_q[3]
    assert by_q[2] == euler_product(factor, Curve(q=2), 6, RING)
    assert by_q[3] == euler_product(factor, Curve(q=3), 6, RING)
    assert short == euler_product(factor, Curve(q=2), 2, RING)


def test_memo_is_shared_across_engines():
    sc = parse_scenario(catalog_emit("tate"))
    pair = sc.build_pair()
    chi = sc.characters[0].build(sc.cyclotomic_order, sc.rank)
    with euler_memo():
        aut = automorphic_period(pair.side_x, sc.curve, chi, sc.truncation)
        spec = spectral_period(pair.side_xcheck, sc.curve, chi, sc.truncation)
        # The box scan and the level sets enumerate equal factors here.
        assert memo_size() == 1
    assert aut == automorphic_period(pair.side_x, sc.curve, chi, sc.truncation)
    assert spec == spectral_period(pair.side_xcheck, sc.curve, chi, sc.truncation)


def test_no_cache_outside_a_scope():
    assert memo_size() is None
    curve = Curve(q=2)
    first = euler_product(factor, curve, 6, RING)
    assert euler_product(factor, curve, 6, RING) is not first
    assert memo_size() is None


def test_scope_is_dropped_on_error():
    try:
        with euler_memo():
            euler_product(factor, Curve(q=2), 6, RING)
            raise RuntimeError("stop")
    except RuntimeError:
        pass
    assert memo_size() is None


def test_run_scenario_owns_the_scope(monkeypatch):
    seen = []
    original = scenario._run_weak_duality

    def spy(*args):
        out = original(*args)
        seen.append(memo_size())
        return out

    monkeypatch.setattr(scenario, "_run_weak_duality", spy)
    sc = parse_scenario(catalog_emit("quadric_cone", order=4))
    first, ok = run_scenario(sc)
    assert ok and seen and seen[0] > 0
    assert memo_size() is None
    second, _ = run_scenario(sc)
    assert memo_size() is None
    assert report_to_json(first) == report_to_json(second)


def level_factor(**changes):
    return spectral_local_factor(**{**LEVEL_INPUT, **changes})


def test_level_set_hit_equals_uncached_factor():
    uncached = level_factor()
    with euler_memo():
        first = level_factor()
        again = level_factor()
        assert level_memo_size() == 1
    assert again is first
    assert first == uncached


@pytest.mark.parametrize("field, value", [
    ("cone", make_cone([(1, 0), (1, 1)])),
    ("psi", extended_character(character_from_spec([(2, 0), "formal"], order=3),
                               (1, 1))),
    ("w", (1, 2)),
    ("deg", 2),
    ("order", 4),
])
def test_level_set_key_is_the_whole_input(field, value):
    # w = (1, 2) alone breaks the slope contract but keeps the call well
    # defined: it reaches other points, and (3, 2) at u^5 drops out.
    with euler_memo():
        base = level_factor()
        changed = level_factor(**{field: value})
        assert level_memo_size() == 2
    assert changed != base
    assert changed == level_factor(**{field: value})


def test_level_set_no_cache_outside_a_scope_or_after_an_error():
    assert level_memo_size() is None
    first = level_factor()
    assert level_factor() is not first
    with pytest.raises(RuntimeError):
        with euler_memo():
            level_factor()
            raise RuntimeError("stop")
    assert level_memo_size() is None
    assert level_factor() is not first


def test_memo_size_counts_euler_products_only():
    with euler_memo():
        level_factor()
        level_factor(deg=2)
        assert (memo_size(), level_memo_size()) == (0, 2)
        euler_product(lambda d: level_factor(deg=d), Curve(q=2), 5, (2, 3))
        # The product asked for deg 1 and 3 (the classes g | 3): one new factor.
        assert (memo_size(), level_memo_size()) == (1, 3)
