"""Exact truncated Laurent series in q with rational exponents.

A series lives in R((q^(1/D))) for a global exponent denominator D.  It is
stored as two parallel columns: the strictly increasing exponent *numerators*
(meaning q^(e/D)) and their nonzero coefficients, so a term costs two tuple
slots and no pair object; ``terms`` is the derived view of (e, c) pairs.  An
optional truncation order O guarantees every coefficient at exponents below
O/D is exact.  Coefficients at or beyond the order are unknown and never
reported.  Exponent arithmetic is pure integer arithmetic on the numerators;
orders propagate to the tightest provably-exact bound.  A sum or difference
is one merge of the two exponent columns, each cut at the common order.

The coefficients are integers or quasi-polynomials in n (the tails'
phi_k(n, q)).  Sums, differences and ``scaled`` need only +, - and
truthiness of the coefficients and an int times one, so they take either; a
product multiplies two coefficients, which only integers do.  ``evaluate``
maps a quasi-polynomial series to the integer series of one n.

``div_binomial_series`` is the one exact division: a polynomial, given by
exponent numerators, over a product of binomials 1 - q^m.  The special
series ``theta``, ``pochhammer`` and ``euler_phi`` take integer exponents and
orders; ``theta(b, c, order)`` checks its two parameters itself and sums the
s that the one row solver, ``_negative_range``, finds below the order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from math import gcd, isqrt, lcm
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

Exponent = Union[int, Fraction]
Coeff = Any   # int or quasipoly.QuasiPolynomial


class SeriesError(ValueError):
    """Invalid q-series operation."""


class SeriesDivisionError(SeriesError):
    """Exact division failed: remainder nonzero."""


def _as_fraction(e: Exponent) -> Fraction:
    return e if isinstance(e, Fraction) else Fraction(e)


@dataclass(frozen=True)
class TruncatedSeries:
    """Element of R((q^(1/denom))), exact below order/denom.

    ``exps`` is the strictly increasing tuple of exponent numerators and
    ``coeffs`` the tuple of their coefficients, none of them zero; ``order``
    is the truncation bound as an exponent numerator, or None for an exact
    (untruncated) value such as a polynomial.  The zero constant has empty
    columns and order None.
    """

    denom: int = 1
    exps: tuple[int, ...] = ()
    coeffs: tuple[Coeff, ...] = ()
    order: Optional[int] = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(terms: Mapping[int, Coeff], denom: int = 1,
             order: Optional[int] = None) -> "TruncatedSeries":
        """Build a series from numerator->coefficient, normalizing denom."""
        if denom <= 0:
            raise SeriesError("denominator must be positive")
        if order is None:
            kept = {e: c for e, c in terms.items() if c}
        else:
            kept = {e: c for e, c in terms.items() if e < order and c}
        exps = sorted(kept)
        return _columns(denom, exps, map(kept.__getitem__, exps), order)

    @staticmethod
    def zero() -> "TruncatedSeries":
        return TruncatedSeries()

    @staticmethod
    def one() -> "TruncatedSeries":
        return TruncatedSeries(exps=(0,), coeffs=(1,))

    # -- views -------------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, Coeff], ...]:
        """The (exponent_numerator, coefficient) pairs, built on each call."""
        return tuple(zip(self.exps, self.coeffs))

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.exps, self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.exps

    def order_exponent(self) -> Optional[Fraction]:
        return None if self.order is None else Fraction(self.order, self.denom)

    def min_degree(self) -> Fraction:
        """delta*: smallest stored exponent.  Undefined for empty series."""
        if not self.exps:
            raise SeriesError("min degree of a series with no terms")
        return Fraction(self.exps[0], self.denom)

    def max_degree(self) -> Fraction:
        if self.order is not None:
            raise SeriesError("max degree of a truncated series")
        if not self.exps:
            raise SeriesError("max degree of the zero series")
        return Fraction(self.exps[-1], self.denom)

    def coefficient(self, exp: Exponent) -> int:
        """Coefficient at q^exp; raises if exp is at or beyond the order."""
        e = _as_fraction(exp) * self.denom
        if e.denominator != 1:
            if self.order is not None and _as_fraction(exp) >= self.order_exponent():
                raise SeriesError("coefficient beyond truncation order")
            return 0
        en = int(e)
        if self.order is not None and en >= self.order:
            raise SeriesError("coefficient beyond truncation order")
        i = bisect_left(self.exps, en)
        if i < len(self.exps) and self.exps[i] == en:
            return self.coeffs[i]
        return 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._merged(other, other.coeffs)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._merged(other, tuple(-c for c in other.coeffs))

    def _merged(self, other: "TruncatedSeries", coeffs2: Sequence[Coeff]
                ) -> "TruncatedSeries":
        """self plus the series of other's exponents with ``coeffs2``: one
        merge of the two increasing exponent columns, each cut at the common
        order, adding where the exponents meet and dropping zero sums."""
        d = lcm(self.denom, other.denom)
        e1, o1 = _rescaled(self, d // self.denom)
        e2, o2 = _rescaled(other, d // other.denom)
        order = _min_order(o1, o2)
        n1 = len(e1) if order is None else bisect_left(e1, order)
        n2 = len(e2) if order is None else bisect_left(e2, order)
        c1 = self.coeffs
        exps: list[int] = []
        coeffs: list[Coeff] = []
        i = j = 0
        while i < n1 and j < n2:
            x, y = e1[i], e2[j]
            c = c1[i] if x < y else coeffs2[j] if y < x else c1[i] + coeffs2[j]
            if c:
                exps.append(min(x, y))
                coeffs.append(c)
            i += x <= y
            j += y <= x
        exps += e1[i:n1]
        coeffs += c1[i:n1]
        exps += e2[j:n2]
        coeffs += coeffs2[j:n2]
        return _columns(d, exps, coeffs, order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        d = lcm(self.denom, other.denom)
        e1, o1 = _rescaled(self, d // self.denom)
        e2, o2 = _rescaled(other, d // other.denom)
        m1 = e1[0] if e1 else o1
        m2 = e2[0] if e2 else o2
        order = _min_order(
            None if o2 is None or m1 is None else m1 + o2,
            None if o1 is None or m2 is None else m2 + o1,
        )
        out: dict[int, Coeff] = {}
        terms2 = tuple(zip(e2, other.coeffs))
        for x, c1 in zip(e1, self.coeffs):
            for y, c2 in terms2:
                e = x + y
                if order is not None and e >= order:
                    break   # the exponents of other increase
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return TruncatedSeries.make(out, d, order)

    def scaled(self, k: int) -> "TruncatedSeries":
        if k == 0:
            return TruncatedSeries(order=self.order, denom=self.denom)
        return TruncatedSeries(self.denom, self.exps,
                               tuple(k * c for c in self.coeffs), self.order)

    def shifted(self, exp: Exponent) -> "TruncatedSeries":
        """Multiply by q^exp."""
        f = _as_fraction(exp)
        d = lcm(self.denom, f.denominator)
        s = int(f * d)
        fac = d // self.denom
        return _columns(d, [e * fac + s for e in self.exps], self.coeffs,
                        None if self.order is None else self.order * fac + s)

    def truncated(self, order: Exponent) -> "TruncatedSeries":
        """Forget everything at or above q^order."""
        f = _as_fraction(order)
        d = lcm(self.denom, f.denominator)
        o = int(f * d)
        fac = d // self.denom
        oo = o if self.order is None else min(o, self.order * fac)
        exps = [e * fac for e in self.exps]
        i = bisect_left(exps, oo)
        return _columns(d, exps[:i], self.coeffs[:i], oo)

    def evaluate(self, n: int) -> "TruncatedSeries":
        """The integer series whose coefficients are the quasi-polynomial
        coefficients of this one at n."""
        vals = [qp(n) for qp in self.coeffs]
        if any(v.denominator != 1 for v in vals):
            raise SeriesError(f"non-integer coefficient at n={n}")
        vals = [int(v) for v in vals]
        return _columns(self.denom, list(compress(self.exps, vals)),
                        filter(None, vals), self.order)

    def agrees_with(self, other: "TruncatedSeries", upto: Exponent) -> bool:
        """Coefficient-by-coefficient equality below q^upto."""
        diff = self - other
        b = _as_fraction(upto)
        if diff.order is not None and Fraction(diff.order, diff.denom) < b:
            raise SeriesError("comparison bound beyond common exactness")
        return not diff.exps or Fraction(diff.exps[0], diff.denom) >= b

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "denom": self.denom,
            "order": self.order,
            "terms": list(zip(self.exps, map(str, self.coeffs))),
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "TruncatedSeries":
        return TruncatedSeries.make({int(e): int(c) for e, c in obj["terms"]},
                                    int(obj["denom"]), obj.get("order"))

    def __str__(self) -> str:
        if not self.exps:
            body = "0"
        else:
            parts = []
            for e, c in zip(self.exps[:12], self.coeffs[:12]):
                exp = Fraction(e, self.denom)
                coeff = f"{c:+d}" if isinstance(c, int) else f"+({c!r})"
                parts.append(coeff if exp == 0 else f"{coeff}*q^{exp}")
            body = " ".join(parts) + (" + ..." if len(self.exps) > 12 else "")
        if self.order is not None:
            body += f" + O(q^{Fraction(self.order, self.denom)})"
        return body


def _columns(denom: int, exps: Sequence[int], coeffs: Iterable[Coeff],
             order: Optional[int]) -> TruncatedSeries:
    """The series of increasing ``exps`` and their nonzero ``coeffs`` over
    q^(1/denom), with denom reduced by its common factor with the exponents
    and the order."""
    g = gcd(denom, *exps, 0 if order is None else order) if denom > 1 else 1
    if g > 1:
        exps = [e // g for e in exps]
        denom //= g
        order = None if order is None else order // g
    return TruncatedSeries(denom, tuple(exps), tuple(coeffs), order)


def _rescaled(s: TruncatedSeries, f: int
              ) -> tuple[Sequence[int], Optional[int]]:
    """The exponent column and order of s over denominator f*s.denom."""
    if f == 1:
        return s.exps, s.order
    return ([e * f for e in s.exps],
            None if s.order is None else s.order * f)


def _min_order(o1: Optional[int], o2: Optional[int]) -> Optional[int]:
    if o1 is None:
        return o2
    if o2 is None:
        return o1
    return min(o1, o2)


def _negative_range(c2: int, c1: int, c0: int) -> range:
    """The integers x with c2*x^2 + c1*x + c0 < 0, for c2 > 0: those with
    (2*c2*x + c1)^2 < c1^2 - 4*c2*c0, read off by isqrt.  The one row
    solver: ``theta`` cuts its sum with it, and so do the jets of ``jones``
    and the stable limit and T(4,b) numerator of ``stability``."""
    disc = c1 * c1 - 4 * c2 * c0
    if disc <= 0:
        return range(0)
    r = isqrt(disc - 1)
    return range(-((r + c1) // (2 * c2)), (r - c1) // (2 * c2) + 1)


# -- the exact division and the special series --------------------------------


def div_binomial_series(poly: Mapping[int, Coeff], shifts: Sequence[int],
                        denom: int, cutoff: Optional[int] = None
                        ) -> TruncatedSeries:
    """poly / prod_{m in shifts}(1 - q^m) over q^(1/denom), m > 0, with poly
    mapping exponent numerators to coefficients (ints or quasi-polynomials).

    Without a cutoff poly is a polynomial and the division must be exact: a
    remainder in any factor raises SeriesDivisionError.  With one, the
    quotient is the power series poly * prod_m sum_j q^(jm) below q^cutoff,
    exact there if poly is.

    The work is done on a dense list over the lattice lo + gZ, lo the lowest
    exponent and g the gcd of the exponent differences and the shifts, which
    holds every exponent of the quotient.  Dividing by 1 - q^m is
    quot[i] = poly[i] + quot[i - m/g]: one running sum per residue class mod
    m/g.  An exact quotient ends m/g slots before its dividend, so those top
    slots must be zero and are cut before the next factor.  The nonzero
    slots are then read off in increasing exponent, straight into the two
    columns, with no dict, sort or pair.  The denominator is first reduced by
    gcd(denom, lo, g, cutoff) on the lattice itself, then by whatever common
    factor the nonzero exponents still share with it.
    """
    if denom <= 0:
        raise SeriesError("denominator must be positive")
    if any(m <= 0 for m in shifts):
        raise SeriesError("non-expandable denominator")
    if not poly:
        return TruncatedSeries.make({}, denom, cutoff)
    lo = min(poly)
    top = max(poly) if cutoff is None else cutoff - 1
    g = gcd(*shifts, *(e - lo for e in poly)) or 1
    dense: list[Coeff] = [0] * max(0, (top - lo) // g + 1)
    for e, c in poly.items():
        if e <= top:
            dense[(e - lo) // g] = c
    for m in shifts:
        step = m // g
        for r in range(min(step, len(dense))):
            dense[r::step] = accumulate(dense[r::step])
        if cutoff is None:
            keep = max(0, len(dense) - step)
            if any(dense[keep:]):
                raise SeriesDivisionError("division remainder nonzero")
            del dense[keep:]
    h = gcd(denom, lo, g, 0 if cutoff is None else cutoff)
    exps = tuple(compress(range(lo // h, (lo + g * len(dense)) // h, g // h),
                          dense))
    return _columns(denom // h, exps, filter(None, dense),
                    None if cutoff is None else cutoff // h)


def theta(b: Exponent, c: Exponent, order: int) -> TruncatedSeries:
    """theta_{b,c}(q) = sum_s (-1)^s q^{(b/2)s^2 + c s} over the s whose
    exponent lies below order, b*s^2 + 2c*s < 2*order: one ``_negative_range``.
    Every exponent must be an integer, so b is a positive integer and c is
    b/2 mod 1; that covers every theta arising from the torus-knot tails."""
    b, c = _as_fraction(b), _as_fraction(c)
    if b <= 0:
        raise SeriesError("theta parameter b must be positive")
    if b.denominator != 1 or (c - b / 2).denominator != 1:
        raise SeriesError("non-integral exponent encountered")
    b, c2 = int(b), int(2 * c)
    terms: dict[int, int] = {}
    for s in _negative_range(b, c2, -2 * order):
        e = (b * s + c2) * s // 2
        terms[e] = terms.get(e, 0) + (1 if s % 2 == 0 else -1)
    return TruncatedSeries.make(terms, 1, order)


def pochhammer(a: int, order: int, step: int = 1) -> TruncatedSeries:
    """(q^a; q^step)_inf = prod_{k>=0} (1 - q^(a+k*step)), truncated.

    Factors with exponent >= order are identically 1 below the order, so the
    product is finite; a and step must be positive for convergence.
    """
    if a <= 0 or step <= 0:
        raise SeriesError("divergent Pochhammer parameters")
    out = TruncatedSeries.one().truncated(order)
    for e in range(a, order, step):
        out = out * TruncatedSeries.make({0: 1, e: -1})
    return out.truncated(order)


def euler_phi(order: int) -> TruncatedSeries:
    """(q)_inf = (q; q)_inf."""
    return pochhammer(1, order)
