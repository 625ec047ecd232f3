"""Kostant partition functions: closed chamber formulas against the DP."""

from itertools import product

import pytest

from torus_tails import kostant as kostant_module
from torus_tails.kostant import (MAX_DP_CELLS, OracleLimitError, kostant,
                                 kostant_closed_A1, kostant_closed_A2,
                                 kostant_closed_B2, kostant_closed_G2,
                                 kostant_dp)
from torus_tails.lie import get_root_system
from torus_tails.mult import weight_mult

A2 = get_root_system("A2")
B2 = get_root_system("B2")
G2 = get_root_system("G2")
A1 = get_root_system("A1")


def test_empty_combination():
    for rs in (A1, A2, B2, G2):
        assert kostant_dp(rs, (0,) * rs.rank) == 1


def test_a2_examples():
    assert kostant_closed_A2((2, 3)) == 3
    assert kostant_closed_A2((4, 1)) == 2
    assert kostant_closed_A2((0, 7)) == 1
    assert kostant_closed_A2((-1, 3)) == 0


def test_b2_examples():
    assert kostant_closed_B2((5, 2)) == 4
    assert kostant_closed_B2((2, 2)) == 4
    assert kostant_closed_B2((1, 2)) == 3
    # the outer chamber value is (u+1)(u+2)/2: the direct count and the
    # middle chamber on the wall v = 2u both give it (a published (u+1)(v+2)/2
    # variant fails already at p(0,1))
    assert kostant_closed_B2((1, 3)) == 3 == kostant_dp(B2, (1, 3))
    assert kostant_closed_B2((0, 2)) == 1 == kostant_dp(B2, (0, 2))


def test_g2_examples():
    assert kostant_closed_G2((0, 0)) == 1
    assert kostant_closed_G2((3, 2)) == 7 == kostant_dp(G2, (3, 2))
    assert kostant_closed_G2((7, 2)) == 11 == kostant_dp(G2, (7, 2))


def test_negative_coordinates_vanish():
    for fn in (kostant_closed_A2, kostant_closed_B2, kostant_closed_G2):
        assert fn((-1, 4)) == 0
        assert fn((4, -1)) == 0


@pytest.mark.parametrize("name,closed", [
    ("A2", kostant_closed_A2), ("B2", kostant_closed_B2),
    ("G2", kostant_closed_G2)])
def test_closed_equals_dp_grid(name, closed):
    rs = get_root_system(name)
    for u in range(26):
        for v in range(26):
            assert closed((u, v)) == kostant_dp(rs, (u, v)), (name, u, v)


def test_chamber_walls_agree():
    # evaluate both adjacent branches on the walls by nudging the chamber test
    for v in range(0, 20):
        u = 2 * v
        if v:
            assert kostant_closed_B2((v, v)) == kostant_closed_B2((v, v))
        mid = kostant_closed_B2((v, 2 * v))
        outer = (v + 1) * (v + 2) // 2
        assert mid == outer


def test_monotone_along_simple_roots():
    for rs, closed in ((A2, kostant_closed_A2), (B2, kostant_closed_B2),
                       (G2, kostant_closed_G2)):
        for u in range(15):
            for v in range(15):
                here = closed((u, v))
                assert here <= closed((u + 1, v))
                assert here <= closed((u, v + 1))


def test_zero_outside_positive_root_span():
    # G2's cone over positive roots is the whole positive quadrant only after
    # mixing; single-coordinate walls stay countable
    assert kostant(G2, (0, 3)) == 1
    assert kostant(A2, (0, 5)) == 1
    assert kostant(B2, (4, 0)) == 1
    assert kostant(A1, (3,)) == 1
    assert kostant(A1, (-1,)) == 0


def test_fast_path_matches_dp_for_a1():
    for u in range(-3, 2001):
        assert kostant(A1, (u,)) == kostant_closed_A1((u,)) == \
            kostant_dp(A1, (u,)), u


def test_package_attribute_is_the_submodule():
    import types

    import torus_tails
    assert isinstance(torus_tails.kostant, types.ModuleType)
    assert torus_tails.kostant.kostant is kostant


def _brute_force_counts(rs, bound):
    """p(alpha) on [0, bound]^rank by listing every nonnegative integer
    combination of positive roots that stays in the box."""
    roots = rs.positive_roots_rc
    counts = {}

    def walk(k, point):
        if k == len(roots):
            counts[point] = counts.get(point, 0) + 1
            return
        while max(point) <= bound:
            walk(k + 1, point)
            point = tuple(c + r for c, r in zip(point, roots[k]))

    walk(0, (0,) * rs.rank)
    return counts


@pytest.mark.parametrize("rs,bound", [(A1, 30), (A2, 12), (B2, 10),
                                      (G2, 9)],
                         ids=["A1", "A2", "B2", "G2"])
def test_dp_equals_brute_force_count(rs, bound, monkeypatch):
    # a cold table, filled for the box by growth from the first query
    monkeypatch.setattr(kostant_module, "_tables", {})
    counts = _brute_force_counts(rs, bound)
    for alpha in product(range(bound + 1), repeat=rs.rank):
        assert kostant_dp(rs, alpha) == counts.get(alpha, 0), \
            (rs.name, alpha)


def test_dp_table_is_bounded_by_the_grid(monkeypatch):
    # each coordinate grows to the query and at most doubles, so the three
    # 0..40 grids leave tables within twice the grid, and asking the grid
    # again refills nothing
    tables = {}
    monkeypatch.setattr(kostant_module, "_tables", tables)
    grid = list(product(range(41), repeat=2))
    for rs in (A2, B2, G2):
        for alpha in grid:
            kostant_dp(rs, alpha)
    assert len(tables) == 3
    filled = {name: id(rows) for name, rows in tables.items()}
    for rows in tables.values():
        assert 41 <= len(rows) <= 2 * 41 and 41 <= len(rows[0]) <= 2 * 41
    for rs in (A2, B2, G2):
        for alpha in grid:
            kostant_dp(rs, alpha)
    assert {name: id(rows) for name, rows in tables.items()} == filled


def test_dp_guard_raises_before_filling(monkeypatch):
    tables = {}
    monkeypatch.setattr(kostant_module, "_tables", tables)
    with pytest.raises(OracleLimitError, match="exceeds the oracle limit"):
        kostant_dp(G2, (1100, 1000))
    with pytest.raises(OracleLimitError):
        kostant_dp(A1, (MAX_DP_CELLS,))
    assert not tables
    # a query that fits alone is answered even when the doubled box would
    # not fit
    assert kostant_dp(A1, (MAX_DP_CELLS - 1,)) == 1
    assert kostant_dp(A1, (MAX_DP_CELLS - 2,)) == 1
    assert issubclass(OracleLimitError, ValueError)


def test_oracle_limit_error_is_shared_with_mult():
    from torus_tails import mult
    assert mult.OracleLimitError is OracleLimitError


def test_production_routes_leave_the_dp_table_alone(monkeypatch):
    tables = {}
    monkeypatch.setattr(kostant_module, "_tables", tables)
    for rs in (A1, A2, B2, G2):
        kostant(rs, (5000,) * rs.rank)
        lam = (3,) * rs.rank
        weight_mult(rs, lam, (1,) * rs.rank)
    assert not tables
