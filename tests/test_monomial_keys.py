"""The packed-key path of the local factors against a point-by-point oracle.

Both engines and the height transform pack each monomial psi(x)^deg
into one integer (`series.MonomialKeys`) and count the keys
(`TruncatedSeries.from_keys`).  The oracle takes the same points, the
nonzero monoid points of w-level <= order // deg, evaluates each with
`Character.value` and sums the monomials term by term
(`oracles.from_monomials`).
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import determinant, from_monomials
from toricperiods.characters import Character
from toricperiods.cones import NotPositiveGrading, NotStronglyConvex, make_cone, monoid_points
from toricperiods.cyclotomic import Cyc
from toricperiods.heights import height_fourier_local, make_height
from toricperiods.intlinalg import dot
from toricperiods.periods import automorphic_local_factor, spectral_local_factor
from toricperiods.series import Monomial, MonomialKeys, TruncatedSeries


def point_by_point(cone, psi, deg, order):
    """1 plus psi(x)^deg over the nonzero points x of the cone with <w, x> <= order // deg."""
    points = monoid_points(cone, psi.slopes, order // deg)
    return from_monomials([psi.value(x, deg) for x in points], psi.nvars, psi.order, order)


def height_point_by_point(h, chi, deg, order):
    """The height transform, each point of the fan counted once, at its first cone."""
    points = {}
    for cone, slope in zip(h.cones, h.slopes):
        psi = chi.shift_u(tuple(2 * a for a in slope))
        for x in monoid_points(cone, psi.slopes, order // deg):
            points.setdefault(x, psi)
    return from_monomials([psi.value(x, deg) for x, psi in points.items()],
                          chi.nvars, chi.order, order)


def monomials(nvars, order):
    """Monomials with zeta exponents at and above the order and z-exponents of both signs."""
    return st.builds(Monomial, st.integers(0, 2 * order), st.integers(-2, 3),
                     st.tuples(*[st.integers(-2, 2)] * nvars))


@st.composite
def keyed_cases(draw):
    """(cone, psi, deg, order): a rank <= 3 cone and a character graded positively on it.

    The character's u-slopes are a weight positive on the rays; its zeta
    exponents run to twice the order, its z-exponents are of both signs,
    and its variable count is independent of the rank.
    """
    n = draw(st.integers(1, 3))
    entries = st.tuples(*[st.integers(-1, 2)] * n)
    gens = draw(st.lists(entries, min_size=n, max_size=n))
    assume(determinant(gens) != 0)
    extra = draw(st.none() | entries)
    try:
        cone = make_cone(gens + [extra] if extra else gens, n)
    except NotStronglyConvex:
        cone = make_cone(gens, n)
    facet_sum = [sum(col) for col in zip(*cone.facets)]
    shift = draw(st.tuples(*[st.integers(-1, 1)] * n))
    w = tuple(f + s for f, s in zip(facet_sum, shift))
    if any(dot(w, r) <= 0 for r in cone.rays):
        w = tuple(facet_sum)
    order = draw(st.sampled_from((1, 2, 3, 4, 6)))
    nvars = draw(st.integers(0, 3))
    coords = tuple(Monomial(draw(st.integers(0, 2 * order)), slope,
                            draw(st.tuples(*[st.integers(-2, 2)] * nvars)))
                   for slope in w)
    return cone, Character(order, nvars, coords), draw(st.integers(1, 3)), draw(st.integers(0, 7))


@settings(max_examples=80, deadline=None)
@given(keyed_cases())
def test_both_engines_match_the_point_by_point_oracle(case):
    cone, psi, deg, order = case
    want = point_by_point(cone, psi, deg, order)
    assert automorphic_local_factor(cone, psi, deg, order) == want
    assert spectral_local_factor(cone, psi, deg, order) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.sampled_from((1, 2, 3, 5, 12)), st.data())
@example(1, 2, None)  # zeta + zeta^3 cancels the row
def test_from_keys_matches_the_term_by_term_sum(nvars, order, data):
    if data is None:
        mons = [Monomial(1, 1, (1,)), Monomial(3, 1, (1,)), Monomial(0, 2, (-1,))]
    else:
        mons = data.draw(st.lists(monomials(nvars, order), max_size=12))
    # A character whose coordinates are the monomials packs each at x = e_j.
    psi = Character(order, nvars, tuple(mons))
    packing = MonomialKeys.spanning(psi, [1] * len(mons), 1)
    for trunc in (-1, 0, 2, 5):
        assert (TruncatedSeries.from_keys(packing.keys(psi, 1), packing, trunc)
                == from_monomials(mons, nvars, order, trunc))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.sampled_from((1, 2, 3, 5, 12)), st.sampled_from((-1, 0, 2, 5)),
       st.data())
def test_from_keys_claims_only_rows_up_to_trunc(nvars, order, trunc, data):
    # Perturbation: keys of the same ring above trunc change no claimed row.
    mons = data.draw(st.lists(monomials(nvars, order), max_size=8))
    above = data.draw(st.lists(st.builds(
        Monomial, st.integers(0, 2 * order), st.integers(trunc + 1, trunc + 3),
        st.tuples(*[st.integers(-2, 2)] * nvars)), min_size=1, max_size=4))
    psi = Character(order, nvars, tuple(mons + above))
    packing = MonomialKeys.spanning(psi, [1] * len(psi.coords), 1)
    keys = packing.keys(psi, 1)
    want = from_monomials(mons, nvars, order, trunc)
    assert TruncatedSeries.from_keys(keys[:len(mons)], packing, trunc) == want
    assert TruncatedSeries.from_keys(keys, packing, trunc) == want


def test_digits_at_the_half_widths():
    # On the ray (1,), psi(x) = zeta_3^(2x) u^x z_1^x z_2^(-x): at order 3
    # the point x = 3 puts z_1 at +half, z_2 at -half and k at +half.
    cone = make_cone([(1,)])
    psi = Character(3, 2, (Monomial(2, 1, (1, -1)),))
    # At degree 2 the point x = 1 does the same at the half-widths 2, 2, 4.
    for deg, x in ((1, 3), (2, 1)):
        d = deg * x
        assert MonomialKeys.spanning(psi, (x,), deg).halves == (d, d, 2 * d)
        want = point_by_point(cone, psi, deg, 3)
        assert want.coefficient(d) == {(d, -d): Cyc.root_power(2 * d, 3)}
        assert automorphic_local_factor(cone, psi, deg, 3) == want
        assert spectral_local_factor(cone, psi, deg, 3) == want


def test_a_height_counts_each_shared_point_once():
    # Two quadrants share the ray (0, 1), and chi(x) = z^(x_1 + x_2) sends
    # (1, 0) and (0, 1) to one monomial: at u^2 the first cone gives z twice
    # and the second z^-1 once.  Counting the shared point (0, 1) twice
    # would give z three times; counting keys, not points, z once.
    h = make_height([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]], [(1, 1), (-1, 1)], 2)
    chi = Character(1, 1, (Monomial(0, 0, (1,)), Monomial(0, 0, (1,))))
    got = height_fourier_local(h, chi, 1, 4)
    assert got.coefficient(2) == {(-1,): Cyc.one(1), (1,): Cyc.rational(2, 1)}
    assert got == height_point_by_point(h, chi, 1, 4)


FANS = (
    make_height([[(1,)], [(-1,)]], [(1,), (-1,)], 1),
    make_height([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]], [(1, 1), (-1, 1)], 2),
    make_height([[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]],
                [(1, 1), (-2, 1), (1, -2)], 2),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FANS), st.sampled_from((1, 2, 3, 4)), st.integers(0, 3),
       st.integers(1, 3), st.integers(0, 6), st.data())
def test_height_transform_matches_the_point_by_point_oracle(h, order, nvars, deg, trunc, data):
    rank = h.cones[0].ambient_rank
    coords = tuple(Monomial(data.draw(st.integers(0, 2 * order)), data.draw(st.integers(0, 1)),
                            data.draw(st.tuples(*[st.integers(-2, 2)] * nvars)))
                   for _ in range(rank))
    chi = Character(order, nvars, coords)
    try:
        got = height_fourier_local(h, chi, deg, trunc)
    except NotPositiveGrading:
        return
    assert got == height_point_by_point(h, chi, deg, trunc)
