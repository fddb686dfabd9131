"""At cyclotomic order 1 every period is its prefactor times a product of zeta values.

The degree-one local factor L of a cone and a character psi is an integer
series 1 + ... in monomials M = u^a z^b with a >= 1, and it factors
uniquely as prod_M (1 - M)^(-e_M) with integer e_M.  The factor at a
place of degree d raises every monomial to the d-th power, so the Euler
product over the places of P^1/F_q is prod_M Z(M)^(e_M), where
Z(t) = 1 / ((1 - t)(1 - q t)) is the zeta function of P^1.  So each
period equals its prefactor times prod_M ((1 - M)(1 - q M))^(-e_M),
whatever the place counts and the Euler kernel do.

The oracle shares nothing with `cones` or `periods` beyond `vec` and
`dot`: it scans a box for the lattice points of the cone, with the facet
inequalities written out (the normal to each ray in rank 2, to each pair
of rays in rank 3), peels L one monomial at a time, and rebuilds the
product from binomial series.  Both engines on both sides of the pair are
compared with it.
"""

from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricperiods.cones import NotPositiveGrading
from toricperiods.intlinalg import dot, vec
from toricperiods.periods import automorphic_period, spectral_period
from toricperiods.scenario import catalog_emit, parse_scenario


def _inequalities(rays):
    """The primitive inward facet normals of the full-dimensional cone on the rays (rank <= 3).

    A normal to n - 1 of the rays that pairs nonnegatively with every ray
    is a facet's; they are also the rays of the dual cone.
    """
    n = len(rays[0])
    if n == 1:
        normals = [(1,)]
    elif n == 2:
        normals = [(-b, a) for a, b in rays]
    else:
        normals = [(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0]) for a, b in combinations(rays, 2)]
    facets = set()
    for normal in normals:
        g = gcd(*normal)
        for sign in (1, -1) if g else ():
            f = tuple(sign * x // g for x in normal)
            if all(dot(f, r) >= 0 for r in rays):
                facets.add(f)
    return sorted(facets)


def _local_factor(rays, inequalities, slopes, zs, top):
    """{(u, z): count} of the lattice points x of the cone with <slopes, x> <= top.

    x contributes the monomial u^<slopes, x> z^(sum_j x_j zs[j]).  Every
    such point is a nonnegative combination of the rays with coefficient
    at most top / <slopes, r> on the ray r, which bounds the box.
    """
    reach = [[-(-top * abs(x) // dot(slopes, r)) for x in r] for r in rays]
    box = [range(-sum(b for b, x in zip(col, axis) if x < 0),
                 sum(b for b, x in zip(col, axis) if x > 0) + 1)
           for col, axis in zip(zip(*reach), zip(*rays))]
    factor = {}
    for x in product(*box):
        u = dot(slopes, x)
        if u <= top and all(dot(f, x) >= 0 for f in inequalities):
            key = (u, tuple(dot(x, col) for col in zip(*zs)))
            factor[key] = factor.get(key, 0) + 1
    return factor


def _times_power(series, monomial, c, x, top):
    """series * (1 - c M)^x up to u^top, by the binomial series of (1 - c M)^x."""
    a, z = monomial
    terms, binom, k = [], 1, 0
    while k * a <= top:
        terms.append((k * a, tuple(k * e for e in z), binom * (-c) ** k))
        k += 1
        binom = binom * (x - k + 1) // k
    out = {}
    for (u, zu), value in series.items():
        for du, dz, t in terms:
            if u + du <= top:
                key = (u + du, tuple(map(sum, zip(zu, dz))))
                out[key] = out.get(key, 0) + value * t
    return {key: value for key, value in out.items() if value}


def _exponents(factor, top):
    """[(M, e_M)] with factor = prod_M (1 - M)^(-e_M) up to u^top, lowest M first."""
    one = {key: 1 for key in factor if key[0] == 0}
    exponents = []
    for a in range(1, top + 1):
        for key in sorted(k for k in factor if k[0] == a):
            # Multiplying by (1 - M)^x changes row a only at M itself.
            if x := factor.get(key, 0):
                exponents.append((key, x))
                factor = _times_power(factor, key, 1, x, top)
    assert factor == one and len(one) == 1
    return exponents


def _zeta_product(exponents, q, zero, top):
    """prod_M ((1 - M)(1 - q M))^(-e_M) up to u^top."""
    series = {(0, zero): 1}
    for monomial, e in exponents:
        series = _times_power(_times_power(series, monomial, 1, -e, top), monomial, q, -e, top)
    return series


def _rows(period):
    """(trunc, {(u, z): integer coefficient}) of a period at cyclotomic order 1."""
    rows = {}
    for u, row in period.coeffs:
        for z, c in row:
            assert c.order == 1 and c.den == 1
            if u <= period.trunc:
                rows[u, z] = c.nums[0]
    return period.trunc, rows


def _shifted(series, monomial, top):
    a, z = monomial
    return top + a, {(u + a, tuple(map(sum, zip(zu, z)))): value
                     for (u, zu), value in series.items()}


def check_closed_form(data):
    """Both engines' periods on both sides of the scenario's pair, against the closed form.

    The automorphic period of a side and the spectral period of the other
    sum over one cone with one psi: the primal cone with psi graded by eta,
    or its dual with psi graded by rho.  Their prefactors are the
    character at the other grading, the spectral one times u^(epsilon - rank).
    """
    sc = parse_scenario(data)
    pair = sc.build_pair()
    curve, top, n = sc.curve, sc.truncation, sc.rank
    rays = [vec(r) for r in data["rays"]]
    facets = _inequalities(rays)
    rho, eta = vec(data["rho"]), vec(data["eta"])
    sides = ((pair.side_x, pair.side_xcheck, rays, facets, eta, rho),
             (pair.side_xcheck, pair.side_x, facets, rays, rho, eta))
    for spec, raw in zip(sc.characters, data["characters"]):
        chi = spec.build(1, n)
        # Coordinate j is u^c_j z^zs[j]: formal coordinates are z_j, the others u^c.
        cs = [0 if c == "formal" else c["u"] for c in raw["coords"]]
        zs = [tuple(int(c == "formal" and i == j) for i in range(n))
              for j, c in enumerate(raw["coords"])]
        for datum, other, cone_rays, inequalities, grading, outer in sides:
            slopes = tuple(c + g for c, g in zip(cs, grading))
            if any(dot(slopes, r) <= 0 for r in cone_rays):
                with pytest.raises(NotPositiveGrading):
                    automorphic_period(datum, curve, chi, top)
                with pytest.raises(NotPositiveGrading):
                    spectral_period(other, curve, chi, top)
                continue
            factor = _local_factor(cone_rays, inequalities, slopes, zs, top)
            closed = _zeta_product(_exponents(factor, top), curve.q, (0,) * n, top)
            prefactor = (dot(cs, outer), tuple(dot(outer, col) for col in zip(*zs)))
            spectral_shift = (prefactor[0] + dot(rho, eta) - n, prefactor[1])
            assert _rows(automorphic_period(datum, curve, chi, top)) == _shifted(
                closed, prefactor, top)
            assert _rows(spectral_period(other, curve, chi, top)) == _shifted(
                closed, spectral_shift, top)


# Every catalog and bench scenario at cyclotomic order 1, at its own truncation.
SCENARIOS = {
    "tate": catalog_emit("tate"),
    "orthant_a2": catalog_emit("orthant_a2"),
    "quadric_cone": catalog_emit("quadric_cone"),
    "quadric_cone_eta21": catalog_emit("quadric_cone_eta21"),
    "square_cone_3d": catalog_emit("square_cone_3d"),
    "height_p1": catalog_emit("height_p1"),
    "quadric_cone_q5_u14": catalog_emit("quadric_cone", q=5, order=14),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_periods_are_zeta_products(name):
    check_closed_form(SCENARIOS[name])


def _graded(draw, entry, rays, top):
    """The catalog entry on the rays at q <= 5 and U <= top, with rho inside
    the cone and eta inside its dual (weights 1 or 2 on each ray) and a
    character of formal and u-power coordinates."""
    n = len(rays[0])
    base = catalog_emit(entry, q=draw(st.sampled_from([2, 3, 4, 5])),
                        order=draw(st.integers(2, top)))

    def inside(generators):
        weights = draw(st.lists(st.integers(1, 2), min_size=len(generators),
                                max_size=len(generators)))
        return [sum(w * g[j] for w, g in zip(weights, generators)) for j in range(n)]

    coord = st.one_of(st.just("formal"), st.builds(lambda c: {"zeta": 0, "u": c},
                                                   st.integers(-1, 1)))
    return {**base, "rays": [list(r) for r in rays], "rho": inside(rays),
            "eta": inside(_inequalities(rays)),
            "characters": [{"name": "drawn", "coords": draw(st.lists(
                coord, min_size=n, max_size=n))}]}


@st.composite
def rank_two_scenarios(draw):
    """A rank-2 cone on two independent rays, gradings inside it and its dual,
    a character of formal and u-power coordinates, q and U <= 8."""
    ray = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    rays = draw(st.lists(ray, min_size=2, max_size=2))
    assume(rays[0][0] * rays[1][1] != rays[0][1] * rays[1][0])
    return _graded(draw, "orthant_a2", rays, 8)


@settings(max_examples=40, deadline=None)
@given(rank_two_scenarios())
def test_rank_two_periods_are_zeta_products(data):
    check_closed_form(data)


@st.composite
def rank_three_scenarios(draw):
    """A rank-3 cone, simplicial or on four extremal rays with entries in
    [-2, 2], gradings inside it and its dual, a character of formal and
    u-power coordinates, q and U <= 6."""
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=3, max_size=4))
    # A rank-3 cone has as many facets as extremal rays, and only a strongly
    # convex, full-dimensional one has more than two: so three rays on three
    # facets span a simplicial cone, and four on four a quadrilateral one.
    assume(len(_inequalities(rays)) == len(rays))
    return _graded(draw, "square_cone_3d", rays, 6)


@settings(max_examples=20, deadline=None)
@given(rank_three_scenarios())
def test_rank_three_periods_are_zeta_products(data):
    check_closed_form(data)
