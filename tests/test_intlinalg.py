import random
from itertools import combinations
from math import gcd, prod

import pytest

from oracles import (
    annihilator_basis,
    determinant,
    diagonal_matrix,
    kernel_basis,
    lattice_index,
    mat_mul,
    quotient_lattice,
    saturate_sublattice,
    solve_integer,
)
from toricperiods.intlinalg import LatticeMap, identity_matrix, smith_normal_form


def check_decomposition(m, snf):
    m = tuple(tuple(r) for r in m)
    lhs = mat_mul(mat_mul(snf.left, m), snf.right)
    assert lhs == diagonal_matrix(snf)
    for a, b in zip(snf.diag, snf.diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(d >= 0 for d in snf.diag)
    assert determinant(snf.left) in (1, -1)
    assert determinant(snf.right) in (1, -1)
    assert mat_mul(snf.left, snf.left_inverse) == identity_matrix(snf.rows)


def minor_gcd(m, k):
    """gcd of all k x k minors, the brute-force invariant-factor oracle."""
    rows = range(len(m))
    cols = range(len(m[0]))
    g = 0
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = tuple(tuple(m[i][j] for j in ci) for i in ri)
            g = gcd(g, abs(determinant(sub)))
    return g


def test_smith_identity():
    snf = smith_normal_form(identity_matrix(2))
    assert snf.diag == (1, 1)
    assert snf.left == identity_matrix(2)
    assert snf.right == identity_matrix(2)


def test_smith_2x2_example():
    m = ((2, 0), (1, 3))
    snf = smith_normal_form(m)
    assert snf.diag == (1, 6)
    check_decomposition(m, snf)
    # Independent oracle: d_1 = gcd of entries, d_1*d_2 = gcd of 2x2 minors.
    assert minor_gcd(m, 1) == 1
    assert minor_gcd(m, 2) == 6


def test_smith_zero_matrix():
    snf = smith_normal_form(((0, 0), (0, 0)))
    assert snf.diag == (0, 0)
    check_decomposition(((0, 0), (0, 0)), snf)


def test_smith_nonsquare():
    m = ((2, 4, 6),)
    snf = smith_normal_form(m)
    assert snf.diag == (2,)
    check_decomposition(m, snf)


def test_smith_random_property_suite():
    rng = random.Random(20240)
    for _ in range(250):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(cols)) for _ in range(rows))
        snf = smith_normal_form(m)
        check_decomposition(m, snf)
        # Invariant-factor products against minor gcds, up to 3x3.
        for k in range(1, min(rows, cols, 3) + 1):
            expected = minor_gcd(m, k)
            got = prod(snf.diag[:k])
            assert got == expected, (m, snf.diag)


def test_saturate_index_two():
    basis = saturate_sublattice([(2, 0)], 2)
    assert basis == [(1, 0)]
    # (1,0) is in the Q-span and integral, so it must be reachable.
    assert solve_integer(basis, (1, 0)) is not None


def test_saturate_empty():
    assert saturate_sublattice([], 2) == []


def test_saturate_full_rank_determinant_two():
    basis = saturate_sublattice([(1, 1), (1, -1)], 2)
    assert len(basis) == 2
    # The saturation is all of Z^2: both unit vectors must be integer combos.
    assert solve_integer(basis, (1, 0)) is not None
    assert solve_integer(basis, (0, 1)) is not None


def test_saturate_idempotent():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        once = saturate_sublattice(gens, n)
        twice = saturate_sublattice(once, n)
        assert once == twice
        # Oracle for the lattice itself: every generator is an integer
        # combination of the saturation basis.
        for g in gens:
            assert solve_integer(once, g) is not None


def test_quotient_primitive_vector():
    q = quotient_lattice(2, [(1, 1)])
    assert q.free_projection.target_rank == 1
    assert q.torsion_invariants == ()
    assert not any(q.free_projection.apply((1, 1)))


def test_quotient_finite():
    q = quotient_lattice(2, [(2, 0), (0, 3)])
    assert q.free_projection.target_rank == 0
    assert q.torsion_invariants == (6,)


def test_quotient_trivial_sub():
    q = quotient_lattice(2, [])
    assert q.free_projection.target_rank == 2
    assert q.torsion_invariants == ()


def test_quotient_section_is_right_inverse():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        q = quotient_lattice(n, gens)
        pi_s = mat_mul(q.free_projection.matrix, q.section.matrix)
        assert pi_s == identity_matrix(q.free_projection.target_rank)
        # The projection kills the sublattice.
        for _ in range(10):
            coeffs = [rng.randint(-2, 2) for _ in gens]
            v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n))
            assert not any(q.free_projection.apply(v))


def test_lattice_index_examples():
    assert lattice_index(LatticeMap(1, 1, ((2,),))) == 2
    assert lattice_index(LatticeMap(2, 2, identity_matrix(2))) == 1
    assert lattice_index(LatticeMap.from_columns([(2, 1), (0, 3)], 2)) == 6
    assert lattice_index(LatticeMap.from_columns([(1, 0)], 2)) is None


def test_quotient_torsion_matches_index():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 3)
        cols = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        sub = LatticeMap.from_columns(cols, n)
        idx = lattice_index(sub)
        if idx is None:
            continue
        q = quotient_lattice(n, cols)
        assert q.free_projection.target_rank == 0
        assert prod(q.torsion_invariants) == idx


def test_kernel_and_annihilator():
    k = kernel_basis(((1, 1, 1),))
    assert len(k) == 2
    for v in k:
        assert sum(v) == 0
    ann = annihilator_basis([(1, 2)], 2)
    assert len(ann) == 1
    assert ann[0][0] * 1 + ann[0][1] * 2 == 0
    assert annihilator_basis([], 2) == [(1, 0), (0, 1)]


def test_solve_integer():
    assert solve_integer([(2, 0), (1, 1)], (3, 1)) == (1, 1)
    assert solve_integer([(2, 0)], (1, 0)) is None
    assert solve_integer([], (0, 0)) == ()
    assert solve_integer([], (1, 0)) is None


def test_lattice_map_validation():
    with pytest.raises(ValueError):
        LatticeMap(2, 2, ((1, 0),))
    m = LatticeMap.from_columns([(1, 2), (0, 1)], 2)
    assert m.apply((1, 1)) == (1, 3)
    assert m.column(0) == (1, 2)
