"""Series built term by term for the tests: a constructor from rational
exponents, and the geometric series 1/(1 - q^m) written out as
sum_j q^(jm), so that a check of the exact division does not expect what
the division itself returns; no route of the program uses them."""

from fractions import Fraction
from math import lcm

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
