"""The per-run Euler-product memo: exact hits, a scope per run, no cache outside."""

from toricperiods import periods, scenario
from toricperiods.curve import Curve
from toricperiods.periods import (
    automorphic_period,
    euler_memo,
    euler_product,
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
        cut = euler_product(factor, Curve(q=2), 6, RING, max_degree=2)
        assert memo_size() == 3
    assert by_q[2] != by_q[3]
    assert by_q[2] == euler_product(factor, Curve(q=2), 6, RING)
    assert by_q[3] == euler_product(factor, Curve(q=3), 6, RING)
    assert cut == euler_product(factor, Curve(q=2), 6, RING, max_degree=2)


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
