"""Unramified characters and their parameter avatars, as monomial data.

Over the genus-zero curve the class group of a rank-r torus is the
cocharacter lattice itself, so an unramified character is determined by
one monomial value per basis vector: a root of unity times a power of
u = q^(-1/2) times a Laurent monomial in the scenario's formal variables.
The same tuple read at Frobenius is the parameter of the character; the
sign of the identification is pinned by requiring the rank-one line to
verify (see README, Conventions).

Pullback along a lattice map, descent to a quotient, torsion twists and
the eigenform shift are all coordinate-wise monomial operations here.
Both engines take a character extended by a grading, `chi.shift_u(grading)`,
and read their weight off it: `Character.slopes`, its u-exponents.
"""

from __future__ import annotations

from collections import namedtuple

from .intlinalg import LatticeMap, Vector, vec
from .series import Monomial


class Character(namedtuple("Character", "order nvars coords")):
    """Character of the class group of a rank-len(coords) torus.

    coords[j] is the value at the class of the j-th basis cocharacter at
    a degree-one place; the value at the class of lambda over a place of
    degree d is prod_j coords[j]^(d * lambda_j).
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def slopes(self) -> Vector:
        """The u-exponent of each coordinate: the weight the engines grade by."""
        return tuple(m.u for m in self.coords)

    def value(self, lam, deg: int = 1) -> Monomial:
        lam = vec(lam)
        if len(lam) != self.rank:
            raise ValueError("lattice vector has wrong length")
        zeta = 0
        u = 0
        z = [0] * self.nvars
        for m, c in zip(self.coords, lam):
            if not c:
                continue
            zeta += m.zeta * c
            u += m.u * c
            for i, e in enumerate(m.z):
                z[i] += e * c
        return Monomial(zeta * deg % self.order, u * deg,
                        tuple(e * deg for e in z))

    def is_trivial_on(self, lam) -> bool:
        return self.value(lam).is_one(self.order)

    def is_trivial_on_all(self, vectors) -> bool:
        return all(self.is_trivial_on(v) for v in vectors)

    def shift_u(self, exponents) -> "Character":
        """Multiply the j-th coordinate by u^exponents[j] (eigenform twist)."""
        exponents = vec(exponents)
        coords = tuple(Monomial(m.zeta, m.u + e, m.z)
                       for m, e in zip(self.coords, exponents))
        return Character(self.order, self.nvars, coords)

    def twist(self, monomials) -> "Character":
        coords = tuple(m * t for m, t in zip(self.coords, monomials))
        return Character(self.order, self.nvars,
                         tuple(Monomial(m.zeta % self.order, m.u, m.z)
                               for m in coords))

    def compose(self, lattice_map: LatticeMap) -> "Character":
        """Character on the source lattice: value at v is self.value(map(v)).

        Covers pullback along a covering map and descent along a section
        of a quotient alike.
        """
        if lattice_map.target_rank != self.rank:
            raise ValueError("lattice map target does not match character rank")
        coords = tuple(self.value(lattice_map.column(j))
                       for j in range(lattice_map.source_rank))
        return Character(self.order, self.nvars, coords)


def formal_character(rank: int, order: int = 1) -> Character:
    """The generic character: coordinate j takes the formal value z_j."""
    coords = tuple(Monomial(0, 0, tuple(1 if i == j else 0 for i in range(rank)))
                   for j in range(rank))
    return Character(order, rank, coords)


def character_from_spec(coord_specs, order: int, nvars: int | None = None) -> Character:
    """Build a character from per-coordinate specs.

    Each spec is either the string "formal" (the coordinate keeps its own
    formal variable) or a pair (root_exponent, u_exponent) meaning
    zeta_order^k * u^c.
    """
    rank = len(coord_specs)
    if nvars is None:
        nvars = rank
    coords = []
    for j, spec in enumerate(coord_specs):
        if spec == "formal":
            if j >= nvars:
                raise ValueError("formal coordinate beyond variable count")
            coords.append(Monomial(0, 0, tuple(1 if i == j else 0
                                               for i in range(nvars))))
        else:
            k, c = spec
            coords.append(Monomial(int(k) % order, int(c), (0,) * nvars))
    return Character(order, nvars, tuple(coords))

