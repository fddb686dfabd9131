"""The run memo: exact hits, a scope per run, no cache outside.

euler_memo() opens one mapping, keyed by (kind, input), for Euler
products and the local factors of both engines; it is dropped with the
scope.  The report rows of each distinct series live there too, under
the kind "rows", and the place counts of each curve and truncation,
under "places".  memo_size and level_memo_size count the keys of one kind.
"""

import importlib
import pkgutil

import pytest

import toricperiods
from oracles import from_monomials
from toricperiods import periods, scenario
from toricperiods.characters import character_from_spec
from toricperiods.cones import make_cone
from toricperiods.curve import Curve, place_counts
from toricperiods.periods import (
    automorphic_local_factor,
    automorphic_period,
    euler_memo,
    euler_product,
    spectral_local_factor,
    spectral_period,
)
from toricperiods.scenario import catalog_emit, parse_scenario, report_to_json, run_scenario
from toricperiods.series import Monomial


RING = (1, 3)  # one formal variable over Q(zeta_3), the ring of `factor`


def factor(d):
    """A fresh (equal, not identical) local factor on every call."""
    mons = [Monomial(k, d * k, (k,)) for k in range(1, 4)]
    return from_monomials(mons, 1, 3, 6)


def kind_size(kind):
    memo = periods._RUN_MEMO.get()
    return None if memo is None else sum(key[0] == kind for key in memo)


def memo_size():
    return kind_size("euler")


def level_memo_size():
    return kind_size("spectral")


# A level-set input: the quadric cone and psi with u-slopes (1, 1), the
# grading of its level sets, over Q(zeta_3) with two formal variables.
CHI = character_from_spec([(1, 0), "formal"], order=3)
LEVEL_INPUT = dict(cone=make_cone([(1, 0), (1, 2)]), psi=CHI.shift_u((1, 1)),
                   deg=1, order=5)


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


def test_memo_key_holds_the_field():
    # At U = 2 fields 1 and 3 ask for the same class factor L_1 but carry
    # it to degree 2 by different sigma_k; factor's zeta terms are outside
    # Q(zeta_1), so the two products differ, and each keeps its own key.
    with euler_memo():
        narrow = euler_product(factor, Curve(q=2), 2, RING, 1)
        full = euler_product(factor, Curve(q=2), 2, RING)
        assert memo_size() == 2
    assert narrow != full
    assert full == euler_product(factor, Curve(q=2), 2, RING, 3)


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


def test_place_counts_are_remembered_per_curve_and_order(monkeypatch):
    asked = []
    monkeypatch.setattr(periods, "place_counts",
                        lambda *args: asked.append(args) or place_counts(*args))
    with euler_memo():
        for q in (2, 3, 2):
            euler_product(factor, Curve(q=q), 6, RING)
        euler_product(factor, Curve(q=2), 2, RING)
        assert kind_size("places") == 3
    assert asked == [(Curve(q=2), 6), (Curve(q=3), 6), (Curve(q=2), 2)]
    euler_product(factor, Curve(q=2), 6, RING)
    assert asked[3:] == [(Curve(q=2), 6)]


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


def test_a_passing_direction_writes_one_rows_list(monkeypatch):
    seen = []
    original = scenario._run_weak_duality

    def spy(*args):
        out = original(*args)
        seen.append(kind_size("rows"))
        return out

    monkeypatch.setattr(scenario, "_run_weak_duality", spy)
    report, ok = run_scenario(parse_scenario(catalog_emit("quadric_cone")))
    assert ok and seen and seen[0] > 0
    directions = [d for row in report["checks"]["weak_duality"]["per_character"]
                  for d in row.get("directions", ())]
    assert len(directions) == 2
    for d in directions:
        assert d["equal"]
        assert d["automorphic_series"] is d["compared_spectral_series"]
    # The rows entries go with the run memo.
    assert kind_size("rows") is None


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
    ("psi", character_from_spec([(2, 0), "formal"], order=3).shift_u((1, 1))),
    ("psi", CHI.shift_u((1, 2))),
    ("deg", 2),
    ("order", 4),
])
def test_level_set_key_is_the_whole_input(field, value):
    # The weight is psi's u-slopes, so it is in the key through psi: the
    # slopes (1, 2) grade other level sets, and (3, 2) at u^7 drops out.
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


def test_engines_keep_apart_in_one_memo(monkeypatch):
    sc = parse_scenario(catalog_emit("tate"))
    pair = sc.build_pair()
    chi = sc.characters[0].build(sc.cyclotomic_order, sc.rank)
    x = periods._automorphic_input(pair.side_x, chi)[:2]
    # At tate both engines get the same (cone, psi): only the kind in
    # the key keeps the spectral engine from the automorphic factor.
    assert periods._spectral_input(pair.side_xcheck, sc.curve, chi)[:2] == x
    slices = []
    monoid_points = periods.monoid_points
    monkeypatch.setattr(periods, "monoid_points",
                        lambda *args: slices.append(args) or monoid_points(*args))
    with euler_memo():
        aut = automorphic_local_factor(*x, 1, sc.truncation)
        spec = spectral_local_factor(*x, 1, sc.truncation)
    assert spec is not aut and slices
    assert spec == aut


def cached_functions():
    """Every function of the package that has cache_info, by qualified name."""
    for info in pkgutil.iter_modules(toricperiods.__path__):
        importlib.import_module(f"toricperiods.{info.name}")
    found = {}
    for name, module in sorted(vars(toricperiods).items()):
        if not isinstance(module, type(toricperiods)):
            continue
        for value in vars(module).values():
            inner = list(vars(value).values()) if isinstance(value, type) else []
            for obj in [value, *inner]:
                if (hasattr(obj, "cache_info")
                        and obj.__module__.startswith("toricperiods")):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_only_bounded_caches_outlive_a_run():
    cached = cached_functions()
    assert set(cached) == {
        "toricperiods.cones.faces", "toricperiods.cyclotomic.cyclotomic_polynomial",
        "toricperiods.cyclotomic._reduction_table",
        "toricperiods.cyclotomic._overflow_rows", "toricperiods.cyclotomic._galois_rows"}
    run_scenario(parse_scenario(catalog_emit("square_cone_3d", order=6)))
    before = {name: fn.cache_info().currsize for name, fn in cached.items()}
    run_scenario(parse_scenario(catalog_emit("square_cone_3d", order=10)))
    grown = {name: fn.cache_info().currsize - before[name]
             for name, fn in cached.items()}
    # faces is keyed by cone and the cyclotomic tables by order: a larger
    # truncation adds nothing to any of them.
    assert set(grown.values()) == {0}
