"""The Adams-operation Euler product and the two output-sensitive scans.

Three kinds of oracle, none of which shares the code it checks:
- a closed form for smooth cones that needs no place counts;
- the full-box automorphic scan and the box-and-hyperplane level filter,
  the scans the engines ran before they clipped and solved;
- per-degree enumeration, against which L_d = psi^(d')_k(L_g) is checked
  for each engine.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricperiods.characters import character_from_spec, extended_character
from toricperiods.cones import (
    NotStronglyConvex,
    dual_cone,
    hilbert_basis,
    make_cone,
    points_at_level,
)
from toricperiods.curve import Curve, divisor_count_series
from toricperiods.cyclotomic import Cyc
from toricperiods.duality import GradedToricDatum, toric_dual
from toricperiods.intlinalg import dot, matrix_rank
from toricperiods.periods import (
    _weight_box,
    automorphic_local_factor,
    effective_weight,
    engine_input,
    euler_product,
    spectral_local_factor,
)
from toricperiods.series import TruncatedSeries

TATE = GradedToricDatum(cone=make_cone([(1,)]), rho=(1,), eta=(1,))
ORTHANT = GradedToricDatum(cone=make_cone([(1, 0), (0, 1)]), rho=(1, 1), eta=(1, 1))
QUADRIC = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(1, 1))
SQUARE3D = GradedToricDatum(
    cone=make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
    rho=(1, 1, 2), eta=(1, 0, 1))


# --- slow oracles ------------------------------------------------------------

def full_box_factor(datum, chi, place_degree, order):
    """The automorphic factor by the full box scan.

    Every candidate of the ray-derived box meets the dual-basis test and
    Character.value, and the truncation filters the monomials.
    """
    psi = extended_character(chi, datum.eta)
    w = effective_weight(chi, datum.eta)
    terms = []
    bound = order // place_degree
    if bound >= 1 and datum.cone.rays:
        dual_basis = hilbert_basis(dual_cone(datum.cone))
        weights = [dot(w, r) for r in datum.cone.rays]
        lo, hi = _weight_box(datum.cone.rays, weights, bound, datum.rank)
        for cand in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            if not any(cand) or any(dot(cand, h) < 0 for h in dual_basis):
                continue
            mon = psi.value(cand, place_degree)
            if 0 < mon.u <= order:
                terms.append(mon)
    return TruncatedSeries.from_monomials(terms, chi.nvars, chi.order, order)


def level_box(rays, weights, m, n):
    """Per-coordinate bounds for {sum a_i r_i : a_i >= 0, sum a_i w_i <= m}, in Fractions."""
    lo = [Fraction(0)] * n
    hi = [Fraction(0)] * n
    for r, w in zip(rays, weights):
        for j in range(n):
            t = Fraction(m * r[j], w)
            if t > 0:
                hi[j] += t
            else:
                lo[j] += t
    return [ceil(x) for x in lo], [floor(x) for x in hi]


def box_level_points(cone, w, m):
    """Points of the level-m slice by scanning the box and filtering to the hyperplane."""
    if m == 0:
        return ((0,) * cone.ambient_rank,)
    weights = [dot(w, r) for r in cone.rays]
    lo, hi = level_box(cone.rays, weights, m, cone.ambient_rank)
    return tuple(sorted(
        cand for cand in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if dot(w, cand) == m and cone.contains(cand)))


def adams_index(d, n):
    """g = gcd(d, n), d' = d / g and the least k > 0 prime to n with k = d' mod n/g."""
    g = gcd(d, n)
    k = next(k for k in range(1, n * d + 2)
             if gcd(k, n) == 1 and (k - d // g) % (n // g) == 0)
    return g, d // g, k


def divisor_series_at(curve, mon, nvars, order, trunc):
    """Z(T) = sum_n (q^(n+1) - 1)/(q - 1) T^n at T = mon, exact to u^trunc."""
    counts = divisor_count_series(curve, trunc)
    data = {mon.u * n: {tuple(e * n for e in mon.z):
                        Cyc.root_power(mon.zeta * n, order)
                        * counts.coefficient(n)[()].coeffs[0]}
            for n in range(trunc // mon.u + 1)}
    return TruncatedSeries.from_dict(data, nvars, order, trunc)


# --- the closed form on smooth cones -----------------------------------------

# Each coordinate is "formal" or (k, c): zeta_N^k * u^c.  With N = 12 the
# degrees 1..12 meet every gcd class and every sigma_k, k in (Z/12)^x.
SMOOTH_CHARACTERS = (
    (1, ["formal", (0, 1)]),
    (3, [(1, 0), (2, 1)]),
    (4, [(3, 1), "formal"]),
    (12, [(1, 0), (6, 0)]),
    (12, [(5, 1), "formal"]),
)


@pytest.mark.parametrize("datum", (TATE, ORTHANT), ids=("tate", "orthant_a2"))
@pytest.mark.parametrize("order, specs", SMOOTH_CHARACTERS)
def test_smooth_cone_euler_product_closed_form(datum, order, specs):
    # On a smooth cone L_1 = prod_i 1/(1 - m_i), m_i = psi(r_i) at the rays,
    # so the Euler product is prod_i Z(m_i) for every q.
    chi = character_from_spec(specs[:datum.rank], order=order)
    psi = extended_character(chi, datum.eta)
    dual_side = toric_dual(datum).side_xcheck
    monoid = dual_cone(dual_side.cone)
    aut_args = engine_input(datum.cone, chi, datum.eta)
    spec_args = engine_input(monoid, chi, dual_side.rho)
    ring = (chi.nvars, chi.order)
    trunc = 12
    for q in (2, 3):
        curve = Curve(q=q)
        want = TruncatedSeries.one(chi.nvars, order, trunc)
        for r in datum.cone.rays:
            want = want * divisor_series_at(curve, psi.value(r), chi.nvars, order, trunc)
        aut = euler_product(
            lambda d: automorphic_local_factor(datum.cone, *aut_args, d, trunc),
            curve, trunc, ring)
        spec = euler_product(
            lambda d: spectral_local_factor(monoid, *spec_args, d, trunc),
            curve, trunc, ring)
        assert aut == want
        assert spec == want


def test_cutoff_below_one_enumerates_nothing():
    def refuse(d):
        raise AssertionError(f"local factor {d} enumerated at truncation 0")

    got = euler_product(refuse, Curve(q=2), 0, (2, 3))
    assert got == TruncatedSeries.one(2, 3, 0)


@pytest.mark.parametrize("n, trunc", ((1, 6), (12, 10), (7, 14), (3, 0)))
def test_euler_product_asks_for_each_class_up_to_the_truncation(n, trunc):
    asked = []

    def trivial(g):
        asked.append(g)
        return TruncatedSeries.one(1, n, trunc)

    got = euler_product(trivial, Curve(q=2), trunc, (1, n))
    assert asked == [g for g in range(1, trunc + 1) if n % g == 0]
    assert got == TruncatedSeries.one(1, n, trunc)


def brute_weight_minimum(cone, w):
    """min <w, x> over the nonzero lattice points of the cone, by a box search.

    R = min over rays of <w, r> bounds the minimum, and the points of
    weight <= R lie in the hull of 0 and the R r / <w, r>, whose
    coordinates are no larger than the rays' own.
    """
    m = max(abs(x) for r in cone.rays for x in r)
    return min(dot(w, x) for x in product(range(-m, m + 1), repeat=cone.ambient_rank)
               if any(x) and cone.contains(x))


SUBUNIT = GradedToricDatum(cone=make_cone([(2, 1), (2, -1)]), rho=(1, 0), eta=(1, 0))
QUADRIC21 = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(2, 1))
HEAVY = GradedToricDatum(cone=make_cone([(1, 0), (1, 2)]), rho=(1, 1), eta=(2, 2))


@pytest.mark.parametrize("datum", (TATE, ORTHANT, QUADRIC, QUADRIC21, SQUARE3D,
                                   SUBUNIT, HEAVY),
                         ids=("tate", "orthant", "quadric", "quadric21",
                              "square_cone_3d", "subunit", "heavy"))
@pytest.mark.parametrize("sloped", (False, True), ids=("formal", "sloped"))
def test_class_factors_above_the_weight_minimum_are_one(datum, sloped):
    # A class g contributes u^(g <w, x>) for nonzero x, so it is exactly 1
    # once g * w_min exceeds the truncation; euler_product asks for it
    # anyway, and the engines must return 1 rather than a stray term.
    order, trunc = 6, 5
    chi = character_from_spec([(1, 1) if sloped else "formal"] * datum.rank,
                              order=order)
    dual_side = toric_dual(datum).side_xcheck
    for engine, cone, grading in (
            (automorphic_local_factor, datum.cone, datum.eta),
            (spectral_local_factor, dual_cone(dual_side.cone), dual_side.rho)):
        w_min = brute_weight_minimum(cone, effective_weight(chi, grading))
        for g in (1, 2, 3, 6):
            factor = engine(cone, *engine_input(cone, chi, grading), g, trunc)
            if g * w_min > trunc:
                assert factor == TruncatedSeries.one(chi.nvars, order, trunc)
            elif not sloped:
                # Formal coordinates give each point its own monomial, so
                # the point of weight w_min leaves a term: the bound is sharp.
                assert factor != TruncatedSeries.one(chi.nvars, order, trunc)


# --- the per-degree contract L_d = psi^(d')_k(L_g) ---------------------------

@pytest.mark.parametrize("order", (1, 3, 4, 12))
@pytest.mark.parametrize("datum, trunc", ((QUADRIC, 12), (SQUARE3D, 8)),
                         ids=("quadric_cone", "square_cone_3d"))
def test_degree_factor_is_adams_image_of_class_factor(datum, trunc, order):
    specs = [(1, 0), "formal", (order - 1, 1)][:datum.rank]
    chi = character_from_spec(specs, order=order)
    dual_side = toric_dual(datum).side_xcheck
    for engine, cone, grading in (
            (automorphic_local_factor, datum.cone, datum.eta),
            (spectral_local_factor, dual_cone(dual_side.cone), dual_side.rho)):
        args = (cone, *engine_input(cone, chi, grading))
        for d in range(1, trunc + 1):
            g, d1, k = adams_index(d, order)
            direct = engine(*args, d, trunc)
            image = engine(*args, g, trunc).substitute_u_power(d1, k)
            assert direct.first_mismatch(image) is None, (engine.__name__, d)


# --- the scans against their slow oracles ------------------------------------

@st.composite
def graded_cones(draw):
    """A full-dimensional strongly convex cone of rank <= 3 with a ray-positive weight.

    n independent generators span a simplicial cone, and one more is
    added when the cone stays strongly convex.  The weight is twice the
    facet sum plus a small shift, when that stays positive on the rays;
    it and its split into grading eta and u-slopes may be zero or
    negative in some coordinates.
    """
    n = draw(st.integers(1, 3))
    entries = st.tuples(*[st.integers(-1, 2)] * n)
    gens = draw(st.lists(entries, min_size=n, max_size=n))
    assume(matrix_rank(gens) == n)
    extra = draw(st.none() | entries)
    try:
        cone = make_cone(gens + [extra] if extra else gens, n)
    except NotStronglyConvex:
        cone = make_cone(gens, n)
    facet_sum = [sum(col) for col in zip(*cone.facets)]
    shift = draw(st.tuples(*[st.integers(-1, 1)] * n))
    w = tuple(2 * f + s for f, s in zip(facet_sum, shift))
    if any(dot(w, r) <= 0 for r in cone.rays):
        w = tuple(facet_sum)
    slopes = draw(st.tuples(*[st.integers(-1, 2)] * n))
    eta = tuple(x - s for x, s in zip(w, slopes))
    return cone, eta, slopes


@settings(max_examples=80, deadline=None)
@given(graded_cones(), st.sampled_from((1, 2, 3, 4, 6)), st.data())
def test_clipped_box_scan_matches_full_box(case, order, data):
    cone, eta, slopes = case
    n = cone.ambient_rank
    specs = [data.draw(st.just("formal") | st.tuples(st.integers(0, order - 1),
                                                     st.just(s)))
             for s in slopes]
    # A formal coordinate carries no u-slope; move its slope into eta.
    eta = tuple(e + (s if spec == "formal" else 0)
                for e, s, spec in zip(eta, slopes, specs))
    datum = GradedToricDatum(cone=cone, rho=tuple(map(sum, zip(*cone.rays))), eta=eta)
    chi = character_from_spec(specs, order=order, nvars=n)
    deg = data.draw(st.integers(1, 3))
    trunc = data.draw(st.integers(0, 6))
    got = automorphic_local_factor(cone, *engine_input(cone, chi, eta), deg, trunc)
    assert got == full_box_factor(datum, chi, deg, trunc)


def test_clipped_scan_drops_heads_cut_off_by_a_flat_facet():
    # The facet (-1, 1, 0) and the weight (0, 1, 0) do not involve x_3, so
    # a head outside either leaves no last coordinate at all; random cones
    # seldom meet such a head.
    cone = make_cone([(0, 1, 0), (1, 1, 0), (1, 1, 1)])
    assert (-1, 1, 0) in cone.facets
    datum = GradedToricDatum(cone=cone, rho=(2, 3, 1), eta=(0, 1, 0))
    for order, specs in ((1, ["formal"] * 3), (4, [(1, 0), "formal", (3, 0)])):
        chi = character_from_spec(specs, order=order, nvars=3)
        for deg in (1, 2):
            for trunc in range(7):
                got = automorphic_local_factor(
                    cone, *engine_input(cone, chi, datum.eta), deg, trunc)
                assert got == full_box_factor(datum, chi, deg, trunc), (specs, deg, trunc)


def level_case(rays, w, rank=None):
    """A graded_cones() case whose weight is w, with zero slopes."""
    return make_cone(rays, rank), tuple(w), (0,) * len(w)


# The solved coordinate j has the largest |w_j| = W and the clipped one k
# is the last other coordinate.
@settings(max_examples=80, deadline=None)
@given(graded_cones())
# W = 5, gcd(w_k, W) = 1: x_k steps by 5 from an offset.
@example(level_case([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (2, 5, 3)))
# W = 6, gcd(w_k, W) = 2 on a lower-dimensional cone: x_k steps by 3, heads
# with m - <w, head> odd are skipped, and the facet (1, 0, 0) has no x_k
# coefficient after the substitution.
@example(level_case([(1, 0, 0), (0, 1, 0)], (2, 4, 6), 3))
# A negative weight on the clipped coordinate of the quadric cone.
@example(level_case([(1, 0), (1, 2)], (3, -1)))
# square_cone_3d's cone: the facet (1, 0, 0) loses its x_k coefficient
# and reads only the head.
@example(level_case([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], (1, 1, 2)))
# A two-dimensional cone in rank 3: the +/- facet pair cuts x_k to a point.
@example(level_case([(1, 0, 1), (0, 1, 1)], (1, 1, 1), 3))
# Rank 1, with no free coordinate: the ray is negative, and W = 3.
@example(level_case([(-1,)], (-3,)))
@example(level_case([(1,)], (1,)))
def test_solved_level_slice_matches_box_filter(case):
    cone, eta, slopes = case
    w = tuple(e + s for e, s in zip(eta, slopes))
    for m in range(6):
        assert points_at_level(cone, w, m) == box_level_points(cone, w, m), m
