"""Series built term by term for the tests: a constructor from rational
exponents, the geometric series 1/(1 - q^m) written out as sum_j q^(jm),
the whole polynomials of a colored Jones family, and the T(4,b) tail
numerator summed over a box, so that a check does not expect what the
route under test itself returns; no route of the program uses them."""

from fractions import Fraction
from math import isqrt, lcm

from torus_tails.jones import colored_jones
from torus_tails.lie import get_root_system
from torus_tails.qseries import TruncatedSeries


def from_exponents(terms, order=None) -> TruncatedSeries:
    """The series of {exponent: coefficient} with rational exponents and a
    rational order, over the least common denominator."""
    fracs = {Fraction(e): c for e, c in terms.items()}
    denom = lcm(1, *(e.denominator for e in fracs),
                1 if order is None else Fraction(order).denominator)
    return TruncatedSeries.make({int(e * denom): c for e, c in fracs.items()},
                                denom,
                                None if order is None else int(order * denom))


def geometric(m: int, order: int) -> TruncatedSeries:
    """1/(1 - q^m) = sum_{j >= 0} q^(jm) below q^order, m > 0."""
    return TruncatedSeries.make(dict.fromkeys(range(0, order, m), 1),
                                1, order)


def whole_family(rs, knot, ray, ns) -> dict[int, TruncatedSeries]:
    """The whole shifted polynomials J-hat_n for the colors n*ray, the
    reference for the jets of ``stability.jones_family``."""
    return {n: colored_jones(rs, knot, tuple(n * c for c in ray)).shifted
            for n in ns}


def t4b_series_box(b: int, q_order: int
                   ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(A_{b,0}, A_{b,1}) of ``stability.t4b_series``, summed over the box
    0 <= u1, u2 <= isqrt(12 q_order / b) + 2 with every point filtered by
    its residues and its exponent."""
    # twelve times the exponents; a0 holds twelve times its coefficients
    a0: dict[int, int] = {}
    a1: dict[int, int] = {}
    top = 12 * q_order
    # the exponent (b/12) Q(u) + (b/4 - 1)(u1 + u2) is >= (b/12) u_i^2, so
    # this box covers everything below q_order
    u_bound = isqrt(12 * q_order // b) + 2
    for (s, t), sign in get_root_system("A2").orbit_pairs:
        for u1 in range(0, u_bound + 1):
            if (u1 + s) % 4:
                continue
            for u2 in range(0, u_bound + 1):
                if (u1 - u2 - t + s) % 12:
                    continue
                e = b * (u1 * u1 + u1 * u2 + u2 * u2) \
                    + (3 * b - 12) * (u1 + u2)
                if e >= top:
                    continue
                if u1 + s >= u2 + t:
                    c = 12 - (2 * u1 + u2 + 2 * s + t)
                else:
                    c = 12 - (u1 + 2 * u2 + s + 2 * t)
                prods = [(0, 1)]
                for off in (u1 + 1, u2 + 1, u1 + u2 + 2):
                    prods += [(pe + 12 * off, -pc) for pe, pc in prods]
                for pe, pc in prods:
                    ee = e + pe
                    if ee < top:
                        a1[ee] = a1.get(ee, 0) + sign * pc
                        if c:
                            a0[ee] = a0.get(ee, 0) + sign * c * pc
    assert not any(e % 12 for e in a1)
    assert not any(c % 12 for c in a0.values())
    return (TruncatedSeries.make({e // 12: c // 12 for e, c in a0.items()},
                                 1, q_order),
            TruncatedSeries.make({e // 12: c for e, c in a1.items()},
                                 1, q_order))
