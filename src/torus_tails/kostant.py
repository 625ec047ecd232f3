"""Kostant vector partition functions.

``kostant_dp`` counts, by dynamic programming over the positive-root list, the
ways of writing u*alpha1 + v*alpha2 as a nonnegative integer combination of
positive roots.  The closed-form chamber formulas for A2, B2 and G2 are the
fast paths; the DP is the generic oracle they are tested against on the full
0..40 grid.
"""

from __future__ import annotations

from functools import lru_cache

from .lie import RootSystem

RootCoords = tuple[int, ...]


def kostant_dp(rs: RootSystem, alpha: RootCoords) -> int:
    """Partition count of alpha (root coordinates) over positive roots."""
    if any(c < 0 for c in alpha):
        return 0
    roots = rs.positive_roots_rc
    return _dp(roots, len(roots), tuple(alpha))


@lru_cache(maxsize=None)
def _dp(roots: tuple[RootCoords, ...], k: int, alpha: RootCoords) -> int:
    if all(c == 0 for c in alpha):
        return 1
    if k == 0:
        return 0
    total = _dp(roots, k - 1, alpha)
    r = roots[k - 1]
    rest = tuple(a - b for a, b in zip(alpha, r))
    if all(c >= 0 for c in rest):
        total += _dp(roots, k, rest)
    return total


def kostant(rs: RootSystem, alpha: RootCoords) -> int:
    """Fast path: closed form where available, DP otherwise."""
    if rs.name == "A2":
        return kostant_closed_A2(alpha)
    if rs.name == "B2":
        return kostant_closed_B2(alpha)
    if rs.name == "G2":
        return kostant_closed_G2(alpha)
    return kostant_dp(rs, alpha)


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

