"""Kostant vector partition functions.

``kostant_dp`` counts the ways of writing u*alpha1 + v*alpha2 as a
nonnegative integer combination of positive roots.  It reads one table per
root system over the box [0, U] x [0, V], stored with its longer side as the
inner lists (a tall box transposed, its roots swapped) and filled by one
coin-change pass per positive root, rows in increasing order; a query
outside the box refills it at least to the query and at most twice as large
per coordinate, and a box above ``MAX_DP_CELLS`` raises
``OracleLimitError``.
The closed forms (A1 x A1, and the chamber formulas for A2, B2 and G2) are the
production route; the DP reads no closed form, and is the independent oracle
they are tested against on the full 0..40 grid.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

from .lie import RootSystem

RootCoords = tuple[int, ...]

# the largest DP box: about 40 MB of rows (G2 at (1000, 1000))
MAX_DP_CELLS = 1 << 20


class OracleLimitError(ValueError):
    """An oracle refused an input above its size guard."""


# root-system name -> (transposed, rows of its filled box): a transposed
# table holds (u, v) at [v][u]
_tables: dict[str, tuple[bool, list[list[int]]]] = {}


def kostant_dp(rs: RootSystem, alpha: RootCoords) -> int:
    """Partition count of alpha (root coordinates) over positive roots."""
    if any(c < 0 for c in alpha):
        return 0
    flip, table = _tables.get(rs.name, (False, None))
    i, j = alpha[::-1] if flip else alpha
    if table is None or i >= len(table) or j >= len(table[0]):
        flip, table = _tables[rs.name] = _grow(rs.positive_roots_rc, flip,
                                               table, *alpha)
        i, j = alpha[::-1] if flip else alpha
    return table[i][j]


def _grow(roots: tuple[RootCoords, ...], flip: bool,
          table: list[list[int]] | None, u: int, v: int
          ) -> tuple[bool, list[list[int]]]:
    """A filled box holding (u, v): each side that misses the query grows
    to it and at least doubles; if that is above the guard, the box of the
    query alone.  It is stored transposed when it has more rows than
    columns."""
    sides = (0, 0) if table is None else (len(table), len(table[0]))
    rows, cols = sides[::-1] if flip else sides
    shape = (max(u + 1, 2 * rows) if u >= rows else rows,
             max(v + 1, 2 * cols) if v >= cols else cols)
    if shape[0] * shape[1] > MAX_DP_CELLS:
        shape = (u + 1, v + 1)
        if shape[0] * shape[1] > MAX_DP_CELLS:
            raise OracleLimitError(
                f"Kostant DP box of {shape[0]} x {shape[1]} cells exceeds "
                f"the oracle limit of {MAX_DP_CELLS} cells")
    if shape[0] > shape[1]:
        return True, _fill(tuple(r[::-1] for r in roots), *shape[::-1])
    return False, _fill(roots, *shape)


def _fill(roots: tuple[RootCoords, ...], rows: int, cols: int
          ) -> list[list[int]]:
    """The partition counts on [0, rows) x [0, cols), one coin-change pass
    per root.  A root (r0, r1) with r0 > 0 adds row u - r0, already passed,
    shifted by r1 to row u, rows in increasing u; one with r0 = 0 runs a
    sum with stride r1 inside each row."""
    table = [[0] * cols for _ in range(rows)]
    table[0][0] = 1
    for root in roots:
        r0, r1 = root
        if r1 >= cols:
            continue
        if r0 == 0:
            for row in table:
                for start in range(r1):
                    row[start::r1] = accumulate(row[start::r1])
            continue
        for u in range(r0, rows):
            row, src = table[u], table[u - r0]
            row[r1:] = map(add, row[r1:], src[:cols - r1])
    return table


def kostant_closed_A1(alpha: RootCoords) -> int:
    """A1 x A1: p(u,v) = 1 on the positive quadrant, u*alpha1 + v*alpha2
    being the only combination."""
    u, v = alpha
    return 1 if u >= 0 and v >= 0 else 0


def kostant_closed_A2(alpha: RootCoords) -> int:
    """p(u,v) = 1 + min(u,v) on the positive quadrant."""
    u, v = alpha
    if u < 0 or v < 0:
        return 0
    return 1 + min(u, v)


def _b2_b(n: int) -> int:
    # b(n) = n^2/4 + n + (1 if n even else 3/4)
    if n % 2 == 0:
        return n * n // 4 + n + 1
    return (n * n + 4 * n + 3) // 4


def kostant_closed_B2(alpha: RootCoords) -> int:
    """Three-chamber formula; chambers overlap and agree on their walls.

    In the outer chamber v >= 2u the count only depends on u: choosing the
    alpha1+alpha2 and alpha1+2*alpha2 parts (c+d <= u) determines the rest.
    """
    u, v = alpha
    if u < 0 or v < 0:
        return 0
    if u >= v:
        return _b2_b(v)
    if v <= 2 * u:
        return _b2_b(v) - (v - u) * (v - u + 1) // 2
    return (u + 1) * (u + 2) // 2


def _g2_g(n: int) -> int:
    # residue formulas extend to n = -1 (the only negative argument the
    # chambers produce) where they vanish
    r = n % 6
    if r == 0:
        num = (n + 6) * (n**3 + 14 * n**2 + 54 * n + 72)
    elif r == 1:
        num = (n + 5) ** 2 * (n**2 + 10 * n + 13)
    elif r == 2:
        num = (n + 4) * (n**3 + 16 * n**2 + 74 * n + 68)
    elif r == 3:
        num = (n + 3) ** 2 * (n + 5) * (n + 9)
    elif r == 4:
        num = (n + 2) * (n + 8) * (n**2 + 10 * n + 22)
    else:
        num = (n + 1) * (n + 5) * (n + 7) ** 2
    assert num % 432 == 0, (n, num)
    return num // 432


def _g2_h(n: int) -> int:
    # chambers evaluate h down to n = -2; both residue formulas vanish there
    if n % 2 == 0:
        num = (n + 2) * (n + 4) * (n**2 + 6 * n + 6)
    else:
        num = (n + 1) * (n + 3) ** 2 * (n + 5)
    assert num % 48 == 0, (n, num)
    return num // 48


def kostant_closed_G2(alpha: RootCoords) -> int:
    """Five-chamber formula of the G2 partition function."""
    u, v = alpha
    if u < 0 or v < 0:
        return 0
    if u <= v:
        return _g2_g(u)
    if 2 * u <= 3 * v:
        return _g2_g(u) - _g2_h(u - v - 1)
    if u <= 2 * v:
        return _g2_h(v) - _g2_g(3 * v - u - 1) + _g2_h(2 * v - u - 2)
    if u <= 3 * v:
        return _g2_h(v) - _g2_g(3 * v - u - 1)
    return _g2_h(v)


_CLOSED = {"A1": kostant_closed_A1, "A2": kostant_closed_A2,
           "B2": kostant_closed_B2, "G2": kostant_closed_G2}


def kostant(rs: RootSystem, alpha: RootCoords) -> int:
    """Production route: the closed form of the root system."""
    return _CLOSED[rs.name](alpha)
