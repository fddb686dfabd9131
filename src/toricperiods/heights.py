"""Piecewise-linear heights on fans and their character transforms.

A height is a fan of maximal cones with one integer slope covector per
cone, agreeing on shared faces.  Its local transform against a character
sums q_v^(-slope value) over the lattice points of the support, which in
u-coordinates doubles the exponent relative to the half-density weight
used by the period engines; with slope equal to half the eigenform the
two local factors coincide on the nose.
"""

from __future__ import annotations

from collections import namedtuple

from .characters import Character
from .cones import Cone, dual_description, make_cone, monoid_points
from .curve import Curve
from .intlinalg import Vector, dot, vec
from .periods import euler_product, positivity_certificate
from .series import TruncatedSeries


class OutsideSupport(ValueError):
    pass


class PiecewiseLinearHeight(namedtuple("PiecewiseLinearHeight", "cones slopes")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.cones:
            raise ValueError("a height needs at least one cone")
        if len(self.cones) != len(self.slopes):
            raise ValueError("one slope covector per maximal cone")
        for c, s in zip(self.cones, self.slopes):
            if len(s) != c.ambient_rank:
                raise ValueError("slope has wrong length")
        _check_continuity(self.cones, self.slopes)
        return self

    @property
    def ambient_rank(self) -> int:
        return self.cones[0].ambient_rank


def _check_continuity(cones, slopes):
    """Slopes of overlapping cones must agree on the intersection."""
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            constraints = list(cones[i].facets) + list(cones[j].facets)
            lin, rays = dual_description(constraints, cones[i].ambient_rank)
            for v in list(rays) + list(lin):
                if dot(slopes[i], v) != dot(slopes[j], v):
                    raise ValueError(
                        f"slopes disagree at {v} on cones {i} and {j}")


def make_height(cone_rays, slopes, ambient_rank: int) -> PiecewiseLinearHeight:
    cones = tuple(make_cone(rs, ambient_rank) for rs in cone_rays)
    return PiecewiseLinearHeight(cones=cones, slopes=tuple(vec(s) for s in slopes))


def height_exponent(h: PiecewiseLinearHeight, lam) -> int:
    """Value of the piecewise-linear function at a lattice point of the support."""
    lam = vec(lam)
    for c, s in zip(h.cones, h.slopes):
        if c.contains(lam):
            return dot(s, lam)
    raise OutsideSupport(f"{lam} is outside the fan support")


def height_fourier_local(h: PiecewiseLinearHeight, chi: Character,
                         place_degree: int, order: int) -> TruncatedSeries:
    """Local transform: sum over support of chi-value times q_v^(-height).

    The height exponent enters as u^(2 * deg * height); there is no
    half-density twist here.  The combined functional 2*slope + character
    slope must be strictly positive on every ray of every cone.
    """
    terms = []
    seen = set()
    for c, s in zip(h.cones, h.slopes):
        psi = chi.shift_u(tuple(2 * a for a in s))
        for pt in monoid_points(c, _combined_weight(c, s, chi), order // place_degree):
            if pt not in seen:
                seen.add(pt)
                terms.append(psi.value(pt, place_degree))
    return TruncatedSeries.from_monomials(terms, chi.nvars, chi.order, order)


def _combined_weight(cone: Cone, slope: Vector, chi: Character) -> Vector:
    """2*slope + character slope, certified positive on the rays of the cone."""
    return positivity_certificate(cone, chi, tuple(2 * a for a in slope))


def height_fourier_global(h: PiecewiseLinearHeight, curve: Curve,
                          chi: Character, order: int) -> TruncatedSeries:
    """Euler product of local transforms over the place degrees up to the order.

    The combined weight is certified positive on every cone first, so a
    divergent transform raises even at truncation 0, where no local
    transform is computed.
    """
    for c, s in zip(h.cones, h.slopes):
        _combined_weight(c, s, chi)
    return euler_product(lambda d: height_fourier_local(h, chi, d, order),
                         curve, order, (chi.nvars, chi.order))
