"""Quasi-polynomials and the deterministic fitting protocol.

A quasi-polynomial is p(n) = sum_j c_j(n) n^j with c_j periodic of a common
period.  The fitter tries periods in increasing order and degrees
least-first, interpolates exactly on a training window at the tail of the
sample, and accepts the first candidate validated on held-out earlier points.
Everything is exact rational arithmetic; validation is equality, not a
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

Rat = Fraction


class FitError(ValueError):
    """No quasi-polynomial fit within the allowed periods and degrees."""


@dataclass(frozen=True)
class QuasiPolynomial:
    """Periodic-coefficient polynomial, exact on the residues it was built on.

    ``coeffs`` maps residue r (mod period) to the coefficient tuple
    (c_0, ..., c_d); residues never sampled are absent and evaluating there
    raises.
    """

    period: int
    degree: int
    coeffs: tuple[tuple[int, tuple[Fraction, ...]], ...]

    @staticmethod
    def constant(value) -> "QuasiPolynomial":
        return QuasiPolynomial(1, 0, ((0, (Fraction(value),)),))

    @staticmethod
    def linear(const, slope) -> "QuasiPolynomial":
        if slope == 0:
            return QuasiPolynomial.constant(const)
        return QuasiPolynomial(1, 1, ((0, (Fraction(const), Fraction(slope))),))

    def _table(self) -> dict[int, tuple[Fraction, ...]]:
        return dict(self.coeffs)

    def __call__(self, n: int) -> Fraction:
        tab = self._table()
        r = n % self.period
        if r not in tab:
            raise FitError(f"residue {r} mod {self.period} was never sampled")
        cs = tab[r]
        acc = Fraction(0)
        for j in range(len(cs) - 1, -1, -1):
            acc = acc * n + cs[j]
        return acc

    def __bool__(self) -> bool:
        return any(c for _, cs in self.coeffs for c in cs)

    @property
    def is_zero(self) -> bool:
        return not self

    def supported_residues(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.coeffs)

    # -- ring operations (per-residue, periods aligned to the lcm) ----------

    def _aligned(self, period: int) -> dict[int, tuple[Fraction, ...]]:
        tab = self._table()
        out = {}
        for r in range(period):
            if r % self.period in tab:
                out[r] = tab[r % self.period]
        return out

    def _binop(self, other: "QuasiPolynomial", fn) -> "QuasiPolynomial":
        p = lcm(self.period, other.period)
        t1, t2 = self._aligned(p), other._aligned(p)
        residues = sorted(set(t1) & set(t2))
        if not residues:
            raise FitError("quasi-polynomials share no sampled residues")
        coeffs = tuple((r, fn(t1[r], t2[r])) for r in residues)
        deg = max(len(cs) for _, cs in coeffs) - 1
        return QuasiPolynomial(p, deg, coeffs).canonical()

    def __add__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        if isinstance(other, int) and other == 0:
            return self   # the empty slots of a dense coefficient list

        def add(a, b):
            n = max(len(a), len(b))
            a = a + (Fraction(0),) * (n - len(a))
            b = b + (Fraction(0),) * (n - len(b))
            return tuple(x + y for x, y in zip(a, b))
        return self._binop(other, add)

    __radd__ = __add__

    def __neg__(self) -> "QuasiPolynomial":
        return QuasiPolynomial(self.period, self.degree,
                               tuple((r, tuple(-c for c in cs))
                                     for r, cs in self.coeffs))

    def __sub__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "QuasiPolynomial":
        if isinstance(other, int):
            return self.scale(other)

        def mul(a, b):
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return tuple(out)
        return self._binop(other, mul)

    __rmul__ = __mul__

    def scale(self, k) -> "QuasiPolynomial":
        return QuasiPolynomial(self.period, self.degree,
                               tuple((r, tuple(Fraction(k) * c for c in cs))
                                     for r, cs in self.coeffs)).canonical()

    def canonical(self) -> "QuasiPolynomial":
        """Minimal period, then minimal degree, trailing zeros trimmed."""
        tab = {r: _trim(cs) for r, cs in self.coeffs}
        residues = sorted(tab)
        for p in range(1, self.period + 1):
            if self.period % p:
                continue
            merged: dict[int, tuple[Fraction, ...]] = {}
            ok = True
            for r in residues:
                key = r % p
                if key in merged and merged[key] != tab[r]:
                    ok = False
                    break
                merged[key] = tab[r]
            if ok:
                deg = max(len(cs) for cs in merged.values()) - 1
                return QuasiPolynomial(p, deg, tuple(sorted(merged.items())))
        raise AssertionError("unreachable")

    def equal_on_class(self, other: "QuasiPolynomial", n0: int, modulus: int,
                       start: int = 0) -> bool:
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
        return QuasiPolynomial(
            int(obj["period"]), int(obj["degree"]),
            tuple((int(r), tuple(Fraction(c) for c in cs))
                  for r, cs in obj["coeffs"]))


def _trim(cs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    cs = list(cs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _interpolate(points: Sequence[tuple[int, Fraction]]) -> tuple[Fraction, ...]:
    """Exact Newton interpolation through all points (degree len-1)."""
    xs = [p[0] for p in points]
    ys = [Fraction(p[1]) for p in points]
    n = len(points)
    divided = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    # expand Newton form to monomial coefficients
    coeffs = [Fraction(0)] * n
    acc = [Fraction(1)]  # product (x - x_0)...(x - x_{k-1})
    for k in range(n):
        for j, c in enumerate(acc):
            coeffs[j] += divided[k] * c
        nxt = [Fraction(0)] * (len(acc) + 1)
        for j, c in enumerate(acc):
            nxt[j] -= c * xs[k]
            nxt[j + 1] += c
        acc = nxt
    return _trim(coeffs)


def fit_quasi_polynomial(samples: Sequence[tuple[int, Fraction]],
                         max_period: int = 24,
                         max_degree: int = 2,
                         validation_points: Optional[int] = None,
                         require_integer_values: bool = False,
                         validate_all: bool = False,
                         ) -> QuasiPolynomial:
    """Fit the tail of an integer-indexed sequence by a quasi-polynomial.

    Tries periods 1..max_period in increasing order, degrees least first.
    For (P, d): train on the last (d+1) points of every residue class inside
    the final (d+1)*P samples, then validate exactly on the 2P (or
    ``validation_points``) samples immediately before the window.  First
    validated candidate wins; the training interpolation must also reproduce
    any extra training points of its class.  With ``validate_all`` the fit
    must instead match every supplied sample (used where the caller has
    already restricted to a stabilized window).
    """
    pts = sorted(samples)
    if len(set(n for n, _ in pts)) != len(pts):
        raise FitError("duplicate sample indices")
    for period in range(1, max_period + 1):
        for degree in range(0, max_degree + 1):
            if validate_all:
                holdout = 0
            else:
                holdout = 2 * period if validation_points is None \
                    else validation_points
            train_len = (degree + 1) * period
            if len(pts) < train_len + holdout:
                continue
            train = pts[-train_len:]
            validate = pts[:-train_len] if validate_all \
                else pts[-(train_len + holdout):-train_len]
            by_residue: dict[int, list[tuple[int, Fraction]]] = {}
            for n, v in train:
                by_residue.setdefault(n % period, []).append((n, v))
            coeffs = {}
            ok = True
            for r, members in by_residue.items():
                members.sort()
                use = members[-(degree + 1):]
                cs = _interpolate(use)
                if len(cs) - 1 > degree:
                    ok = False
                    break
                poly = lambda n, cs=cs: sum(c * n**j for j, c in enumerate(cs))
                if any(poly(n) != v for n, v in members):
                    ok = False
                    break
                coeffs[r] = cs
            if not ok:
                continue
            qp = QuasiPolynomial(period, degree,
                                 tuple(sorted(coeffs.items())))
            try:
                if any(qp(n) != v for n, v in validate):
                    continue
            except FitError:
                continue
            checked = pts if validate_all else pts[-train_len - holdout:]
            if require_integer_values and any(
                    qp(n).denominator != 1 for n, _ in checked):
                continue
            return qp.canonical()
    raise FitError("not quasi-polynomial in tested range")


def fit_window_start(qp: QuasiPolynomial,
                     samples: Sequence[tuple[int, Fraction]]) -> Optional[int]:
    """Smallest sample index from which qp matches every later sample."""
    start = None
    for n, v in sorted(samples, reverse=True):
        try:
            good = qp(n) == v
        except FitError:
            good = False
        if good:
            start = n
        else:
            break
    return start
