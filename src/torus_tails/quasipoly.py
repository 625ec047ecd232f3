"""Quasi-polynomials and the deterministic fitting protocol.

A quasi-polynomial is p(n) = sum_j c_j(n) n^j with c_j periodic of a common
period.  The fitter tries periods in increasing order and degrees
least-first, interpolates exactly on a training window at the tail of the
sample, and accepts the first candidate validated on held-out earlier points.
Everything is exact rational arithmetic; validation is equality, not a
tolerance.

A coefficient is stored as an ``int`` whenever it is integral and as a
``Fraction`` only where it is not (the 1/2 of n(n+1)/2): the tails' samples
and coefficients are almost all integers, and int arithmetic is many times
cheaper than ``Fraction`` arithmetic.  Since ``Fraction(2) == 2`` with equal
hashes and equal ``str``, the representation changes no value, comparison
or serialization.  A sum or difference of two period-1 operands skips the
period alignment.  Nothing multiplies two quasi-polynomials: the tails' series
only add, subtract and scale their coefficients by ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Sequence, Union

Rat = Union[int, Fraction]


class FitError(ValueError):
    """No quasi-polynomial fit within the allowed periods and degrees."""


def _rat(c) -> Rat:
    """c as an int when integral, else as a Fraction (c: a number or its
    string)."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _trim(cs: Sequence[Rat]) -> tuple[Rat, ...]:
    """cs without trailing zeros (keeping c_0), integral entries as ints."""
    n = len(cs)
    while n > 1 and not cs[n - 1]:
        n -= 1
    cs = tuple(cs[:n])
    return tuple(map(_rat, cs)) if Fraction in map(type, cs) else cs


def _horner(cs: Sequence[Rat], n: int) -> Rat:
    acc = 0
    for c in reversed(cs):
        acc = acc * n + c
    return acc


def _add(a: tuple[Rat, ...], b: tuple[Rat, ...]) -> tuple[Rat, ...]:
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


@dataclass(frozen=True)
class QuasiPolynomial:
    """Periodic-coefficient polynomial, exact on the residues it was built on.

    ``coeffs`` maps residue r (mod period) to the coefficient tuple
    (c_0, ..., c_d); residues never sampled are absent and evaluating there
    raises.  The constructor keeps the coefficients as given (tests pass
    Fractions); ``canonical``, the named constructors and the arithmetic
    store the integral ones as ints.  The degree is read off the
    coefficients, so it cannot disagree with them.
    """

    period: int
    coeffs: tuple[tuple[int, tuple[Rat, ...]], ...]

    @property
    def degree(self) -> int:
        return max(len(cs) for _, cs in self.coeffs) - 1

    @staticmethod
    def _poly(cs: Sequence[Rat]) -> "QuasiPolynomial":
        """The period-1 quasi-polynomial with coefficients cs, trimmed."""
        return QuasiPolynomial(1, ((0, _trim(cs)),))

    @staticmethod
    def constant(value) -> "QuasiPolynomial":
        return QuasiPolynomial(1, ((0, (_rat(value),)),))

    @staticmethod
    def linear(const, slope) -> "QuasiPolynomial":
        return QuasiPolynomial._poly((const, slope))

    def __call__(self, n: int) -> Rat:
        r = n % self.period
        coeffs = self.coeffs
        if r < len(coeffs) and coeffs[r][0] == r:   # residues 0..r sampled
            return _horner(coeffs[r][1], n)
        for r0, cs in coeffs:
            if r0 == r:
                return _horner(cs, n)
        raise FitError(f"residue {r} mod {self.period} was never sampled")

    def __bool__(self) -> bool:
        for _, cs in self.coeffs:
            if any(cs):
                return True
        return False

    # -- arithmetic (per-residue, periods aligned to the lcm) ---------------

    def _aligned(self, period: int) -> dict[int, tuple[Rat, ...]]:
        tab = dict(self.coeffs)
        return {r: tab[r % self.period] for r in range(period)
                if r % self.period in tab}

    def __add__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        if isinstance(other, int) and other == 0:
            return self   # the empty slots of a dense coefficient list
        if self.period == other.period == 1 and self.coeffs and other.coeffs:
            return QuasiPolynomial._poly(_add(self.coeffs[0][1],
                                              other.coeffs[0][1]))
        p = lcm(self.period, other.period)
        t1, t2 = self._aligned(p), other._aligned(p)
        residues = sorted(set(t1) & set(t2))
        if not residues:
            raise FitError("quasi-polynomials share no sampled residues")
        return QuasiPolynomial(p, tuple((r, _add(t1[r], t2[r]))
                                        for r in residues)).canonical()

    __radd__ = __add__

    def __neg__(self) -> "QuasiPolynomial":
        return QuasiPolynomial(self.period, tuple((r, tuple(-c for c in cs))
                                                  for r, cs in self.coeffs))

    def __sub__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "QuasiPolynomial":
        """An int times the quasi-polynomial; nothing multiplies two."""
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, k) -> "QuasiPolynomial":
        k = _rat(k)
        return QuasiPolynomial(self.period, tuple(
            (r, tuple(k * c for c in cs))
            for r, cs in self.coeffs)).canonical()

    def canonical(self) -> "QuasiPolynomial":
        """Minimal period, then minimal degree, trailing zeros trimmed."""
        if self.period == 1 and len(self.coeffs) == 1:
            return QuasiPolynomial._poly(self.coeffs[0][1])
        tab = {r: _trim(cs) for r, cs in self.coeffs}
        residues = sorted(tab)
        for p in range(1, self.period + 1):
            if self.period % p:
                continue
            merged: dict[int, tuple[Rat, ...]] = {}
            ok = True
            for r in residues:
                key = r % p
                if key in merged and merged[key] != tab[r]:
                    ok = False
                    break
                merged[key] = tab[r]
            if ok:
                return QuasiPolynomial(p, tuple(sorted(merged.items())))
        raise AssertionError("unreachable")

    def equal_on_class(self, other: "QuasiPolynomial", n0: int, modulus: int,
                       start: int) -> bool:
        """Exact equality as functions on {n >= start, n = n0 mod modulus}."""
        p = lcm(lcm(self.period, other.period), modulus)
        count = (max(self.degree, other.degree) + 1) * (p // modulus) + 1
        n = start + ((n0 - start) % modulus)
        for i in range(count):
            m = n + i * modulus
            if self(m) != other(m):
                return False
        return True

    def to_json_obj(self) -> dict:
        return {
            "period": self.period,
            "degree": self.degree,
            "coeffs": [[r, [str(c) for c in cs]] for r, cs in self.coeffs],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "QuasiPolynomial":
        qp = QuasiPolynomial(int(obj["period"]), tuple(
            (int(r), tuple(map(_rat, cs))) for r, cs in obj["coeffs"]))
        if qp.degree != int(obj["degree"]):
            raise ValueError(f"degree {obj['degree']} disagrees with coeffs")
        return qp


def _interpolate(points: Sequence[tuple[int, Rat]]) -> tuple[Rat, ...]:
    """Exact Newton interpolation through all points (degree len-1).

    The divided differences stay ints while each quotient is exact; an
    inexact one becomes a Fraction.
    """
    xs = [p[0] for p in points]
    divided = [_rat(p[1]) for p in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            num = divided[i] - divided[i - 1]
            den = xs[i] - xs[i - level]
            if type(num) is int and num % den == 0:
                divided[i] = num // den
            else:
                divided[i] = _rat(Fraction(num, den))
    # expand Newton form to monomial coefficients
    coeffs: list[Rat] = [0] * n
    acc: list[Rat] = [1]  # product (x - x_0)...(x - x_{k-1})
    for k in range(n):
        for j, c in enumerate(acc):
            coeffs[j] += divided[k] * c
        nxt: list[Rat] = [0] * (len(acc) + 1)
        for j, c in enumerate(acc):
            nxt[j] -= c * xs[k]
            nxt[j + 1] += c
        acc = nxt
    return _trim(coeffs)


def fit_quasi_polynomial(samples: Sequence[tuple[int, Rat]],
                         max_period: int = 24,
                         validate_all: bool = False,
                         ) -> QuasiPolynomial:
    """Fit the tail of an integer-indexed sequence by a quasi-polynomial.

    Tries periods 1..max_period in increasing order, degrees 0..2 least
    first.  For (P, d): train on the last (d+1) points of every residue class
    inside the final (d+1)*P samples, then validate exactly on the 2P
    samples immediately before the window.  First validated candidate wins;
    the training interpolation must also reproduce any extra training points
    of its class.  With ``validate_all`` the fit must instead match every
    supplied sample (used where the caller has already restricted to a
    stabilized window).  The fit equals every training and validation
    sample, so integer samples give integer values there; no separate
    integrality check is needed.
    """
    pts = sorted(samples)
    if len(set(n for n, _ in pts)) != len(pts):
        raise FitError("duplicate sample indices")
    for period in range(1, max_period + 1):
        for degree in range(3):
            holdout = 0 if validate_all else 2 * period
            train_len = (degree + 1) * period
            if len(pts) < train_len + holdout:
                continue
            train = pts[-train_len:]
            validate = pts[:-train_len] if validate_all \
                else pts[-(train_len + holdout):-train_len]
            by_residue: dict[int, list[tuple[int, Rat]]] = {}
            for n, v in train:
                by_residue.setdefault(n % period, []).append((n, v))
            coeffs = {}
            ok = True
            for r, members in by_residue.items():
                members.sort()
                use = members[-(degree + 1):]
                cs = _interpolate(use)
                if any(_horner(cs, n) != v for n, v in members):
                    ok = False
                    break
                coeffs[r] = cs
            if not ok:
                continue
            qp = QuasiPolynomial(period, tuple(sorted(coeffs.items())))
            try:
                if any(qp(n) != v for n, v in validate):
                    continue
            except FitError:
                continue
            return qp.canonical()
    raise FitError("not quasi-polynomial in tested range")

