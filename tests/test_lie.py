"""Root-system data: Weyl groups, orbit tables, Gram anchors, weight systems."""

from fractions import Fraction
from itertools import product

import pytest

from torus_tails.lie import LieError, get_root_system
from weight_systems import (dim_irrep, dominates, inner, norm2,
                            to_root_coords, weight_system)

A1 = get_root_system("A1")
A2 = get_root_system("A2")
B2 = get_root_system("B2")
G2 = get_root_system("G2")


def test_lookup_case_insensitive():
    assert get_root_system("b2") is B2
    with pytest.raises(LieError):
        get_root_system("C2")


def test_weyl_group_orders():
    # A1 is held as A1 x A1, whose Weyl group has 2 * 2 elements
    assert [len(rs.orbit_pairs) for rs in (A1, A2, B2, G2)] == [4, 6, 8, 12]


def test_positive_roots_sum_to_2rho():
    for rs in (A1, A2, B2, G2):
        total = tuple(sum(a[i] for a in rs.positive_roots)
                      for i in range(rs.rank))
        assert total == tuple(2 * c for c in rs.rho)


def test_orbit_table_A2():
    # the (2,-1) entry is sometimes misprinted as (1,-2); the reflection
    # computation gives (2,-1), and (1,-2) is not a nonnegative sum of
    # positive roots
    expected = {((0, 0), 1), ((2, -1), -1), ((-1, 2), -1), ((0, 3), 1),
                ((3, 0), 1), ((2, 2), -1)}
    assert set(A2.orbit_pairs) == expected


def test_orbit_table_B2():
    expected = {((0, 0), 1), ((2, -2), -1), ((-1, 2), -1), ((-1, 4), 1),
                ((3, -2), 1), ((3, 0), -1), ((0, 4), -1), ((2, 2), 1)}
    assert set(B2.orbit_pairs) == expected


def test_orbit_identity_entry():
    for rs in (A1, A2, B2, G2):
        assert ((0,) * rs.rank, 1) in rs.orbit_pairs


def test_orbit_pairs_cache_matches_fresh_computation():
    # the signed orbit of v = lambda + rho, strictly dominant, against its
    # definition: |W| distinct points, each signed (-1)^l(sigma), where
    # l(sigma) counts the positive roots alpha with (sigma(v), alpha) < 0
    orders = {"A1": 4, "A2": 6, "B2": 8, "G2": 12}
    for rs in (A1, A2, B2, G2):
        for lam in product(range(5), repeat=2):
            v = tuple(c + r for c, r in zip(lam, rs.rho))
            orbit = rs.signed_orbit(v)
            assert len({x for x, _ in orbit}) == len(orbit) == orders[rs.name]
            for x, sign in orbit:
                flips = sum(inner(rs, x, alpha) < 0
                            for alpha in rs.positive_roots)
                assert sign == (-1) ** flips, (rs.name, v, x)
        rho = rs.rho
        assert rs.orbit_pairs == tuple(sorted(
            (tuple(r - c for r, c in zip(rho, x)), sign)
            for x, sign in rs.signed_orbit(rho)))
        assert rs.orbit_pairs is rs.orbit_pairs


def test_orbit_entries_are_positive_root_sums():
    # Kostant: rho - sigma(rho) is a sum of distinct positive roots
    for rs in (A2, B2, G2):
        for w, _ in rs.orbit_pairs:
            rc = to_root_coords(rs, w)
            assert all(c.denominator == 1 and c >= 0 for c in rc), (rs.name, w)


def test_gram_anchored_quadratic_forms():
    for m1 in range(5):
        for m2 in range(5):
            lam = (m1, m2)
            assert norm2(A2, lam) == \
                Fraction(2, 3) * (m1 * m1 + m1 * m2 + m2 * m2)
            assert norm2(B2, lam) == m1 * m1 + m1 * m2 + Fraction(m2 * m2, 2)
            assert norm2(G2, lam) == 2 * m1 * m1 + 6 * m1 * m2 + 6 * m2 * m2


def test_inner_examples():
    assert inner(A2, (1, 0), (1, 0)) == Fraction(2, 3)
    assert inner(B2, (1, 1), (1, 1)) == Fraction(5, 2)
    assert inner(A2, (0, 0), (3, 1)) == 0


def test_reflections_preserve_inner_product():
    for rs in (A2, B2, G2):
        probes = [(1, 0), (0, 1), (2, 3), (-1, 4)]
        # the simple reflections generate W
        for i in range(rs.rank):
            for mu in probes:
                for nu in probes:
                    assert inner(rs, rs.reflect(mu, i), rs.reflect(nu, i)) \
                        == inner(rs, mu, nu)


def test_root_lattice_membership():
    assert A2.in_root_lattice((1, 1))
    assert not A2.in_root_lattice((1, 0))
    assert not B2.in_root_lattice((0, 1))
    assert B2.in_root_lattice((3, 2))
    for mu in [(0, 0), (1, 0), (0, 1), (2, 3)]:
        assert G2.in_root_lattice(mu)
    assert A1.in_root_lattice((2, 0)) and not A1.in_root_lattice((1, 0))


def test_fundamental_group_orders():
    # the fundamental group order is the Cartan determinant root_det; A1 is
    # held as A1 x A1, so its 2 is squared
    assert (A2.root_det, B2.root_det, G2.root_det, A1.root_det) \
        == (3, 2, 1, 4)


def test_positive_roots_in_root_coordinates():
    # derived from the weight coordinates; pinned to the tables once typed in
    assert A1.positive_roots_rc == ((1, 0), (0, 1))
    assert A2.positive_roots_rc == ((1, 0), (0, 1), (1, 1))
    assert B2.positive_roots_rc == ((1, 0), (0, 1), (1, 1), (1, 2))
    assert G2.positive_roots_rc == ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1),
                                    (3, 2))


def test_weight_system_trivial_and_fundamental():
    assert weight_system(A2, (0, 0)) == {(0, 0)}
    assert weight_system(A2, (1, 0)) == {(1, 0), (-1, 1), (0, -1)}


def test_weight_system_requires_dominant():
    with pytest.raises(LieError):
        weight_system(A2, (-1, 0))


def test_dominant_weights_match_the_dominance_order():
    # the row scan against the definition on a box that holds every
    # dominant mu <= lam
    for rs in (A1, A2, B2, G2):
        for lam in product(range(5), repeat=2):
            box = product(range(2 * sum(lam) + 2), repeat=rs.rank)
            assert rs.dominant_weights(lam) == \
                [mu for mu in box if dominates(rs, lam, mu)], (rs.name, lam)
    with pytest.raises(LieError):
        A2.dominant_weights((-1, 0))


def test_weight_count_matches_weight_system():
    # orbit sizes over the dominant weights count Pi_lambda without it
    for rs in (A1, A2, B2, G2):
        for lam in product(range(7), repeat=2):
            assert rs.weight_count(lam) == len(weight_system(rs, lam)), \
                (rs.name, lam)
    with pytest.raises(LieError):
        A2.weight_count((-1, 0))


def test_weight_system_closed_under_weyl():
    for rs in (A2, B2, G2):
        for lam in [(1, 0), (1, 1), (0, 2)]:
            system = weight_system(rs, lam)
            for i in range(rs.rank):
                for mu in system:
                    assert rs.reflect(mu, i) in system


def test_dimension_oracle_adjoint():
    # adjoint representations: A2 at rho has dim 8
    assert dim_irrep(A2, (1, 1)) == 8
    assert dim_irrep(B2, (1, 0)) == 5      # vector rep of so(5)
    assert dim_irrep(B2, (0, 1)) == 4      # spinor
    assert dim_irrep(B2, (0, 2)) == 10     # adjoint, highest root a1+2a2
    assert dim_irrep(G2, (1, 0)) == 7      # alpha1 short in this labeling
    assert dim_irrep(G2, (0, 1)) == 14     # adjoint
    assert dim_irrep(A1, (3, 0)) == 4
    assert dim_irrep(A1, (3, 2)) == 12     # A1 x A1: the dimensions multiply


def test_multiplicity_sums_match_dimension():
    from torus_tails.mult import weight_mult
    for rs in (A2, B2, G2):
        for m1 in range(7):
            for m2 in range(7 - m1):
                lam = (m1, m2)
                total = sum(weight_mult(rs, lam, mu)
                            for mu in weight_system(rs, lam))
                assert total == dim_irrep(rs, lam), (rs.name, lam)


def _gram_inner(rs, mu, nu):
    # reference: the Fraction Gram matrix, summed directly
    return sum(rs.gram[i][j] * mu[i] * nu[j]
               for i in range(rs.rank) for j in range(rs.rank))


GRID = list(product(range(-4, 5), repeat=2))


def test_integer_kernel_matches_fraction_gram():
    assert [rs.gram_scale for rs in (A1, A2, B2, G2)] == [2, 3, 2, 1]
    for rs in (A1, A2, B2, G2):
        assert all(Fraction(g, rs.gram_scale) == f
                   for row_i, row_f in zip(rs.gram_int, rs.gram)
                   for g, f in zip(row_i, row_f))
        grid = GRID
        for mu in grid:
            assert norm2(rs, mu) == _gram_inner(rs, mu, mu)
            assert rs.norm2_int(mu) == rs.gram_scale * norm2(rs, mu)
            for nu in grid[::5]:
                ref = _gram_inner(rs, mu, nu)
                assert inner(rs, mu, nu) == ref, (rs.name, mu, nu)
                assert rs.inner_int(mu, nu) == rs.gram_scale * ref


def test_integer_root_coords_match_fraction_reference():
    for rs in (A1, A2, B2, G2):
        for mu in GRID:
            rc = to_root_coords(rs, mu)
            assert rc == tuple(Fraction(c, rs.root_det)
                               for c in rs.root_coords_int(mu))
            # the definition: mu = sum_i rc_i alpha_i
            assert tuple(sum(rc[i] * rs.simple_roots[i][j]
                             for i in range(rs.rank))
                         for j in range(rs.rank)) == mu, (rs.name, mu)
            assert rs.in_root_lattice(mu) == \
                all(c.denominator == 1 for c in rc)
            for lam in GRID[::3]:
                diff = to_root_coords(
                    rs, tuple(lam[i] - mu[i] for i in range(rs.rank)))
                assert dominates(rs, lam, mu) == all(
                    c.denominator == 1 and c >= 0 for c in diff), \
                    (rs.name, lam, mu)
