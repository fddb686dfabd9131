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
from operator import mul

from .characters import Character
from .cones import dual_description, make_cone, monoid_points
from .curve import Curve
from .intlinalg import dot, vec
from .periods import certified, euler_product
from .series import MonomialKeys, TruncatedSeries


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


def height_fourier_local(h: PiecewiseLinearHeight, chi: Character,
                         place_degree: int, order: int) -> TruncatedSeries:
    """Local transform: sum over support of chi-value times q_v^(-height).

    The height exponent enters as u^(2 * deg * height); there is no
    half-density twist here.  The combined functional 2*slope + character
    slope must be strictly positive on every ray of every cone.
    """
    points = {}  # point -> the psi of the first cone holding it
    for c, psi in _doubled_characters(h, chi):
        for pt in monoid_points(c, psi.slopes, order // place_degree):
            points.setdefault(pt, psi)
    packing = MonomialKeys.spanning(chi, [max(map(abs, col)) for col in zip(*points)],
                                    place_degree)
    keys = {psi: packing.keys(psi, place_degree) for psi in set(points.values())}
    return TruncatedSeries.from_keys(
        [sum(map(mul, keys[psi], pt)) for pt, psi in points.items()], packing, order)


def _doubled_characters(h: PiecewiseLinearHeight, chi: Character):
    """(cone, chi * u^<2 * slope, .>) for each cone, every one `certified` first."""
    return [(c, certified(c, chi.shift_u(tuple(2 * a for a in s))))
            for c, s in zip(h.cones, h.slopes)]


def height_fourier_global(h: PiecewiseLinearHeight, curve: Curve,
                          chi: Character, order: int) -> TruncatedSeries:
    """Euler product of local transforms over the place degrees up to the order.

    The combined weight is certified positive on every cone first, so a
    divergent transform raises even at truncation 0, where no local
    transform is computed.
    """
    _doubled_characters(h, chi)
    return euler_product(lambda d: height_fourier_local(h, chi, d, order),
                         curve, order, (chi.nvars, chi.order))
