"""Colored Jones polynomials of torus knots via the rewritten Jones-Rosso sum.

The summand for mu in S_{lambda,a} contributes
m^mu * q^{f*(mu)} * prod_{alpha>0}(1 - q^{(mu+rho,alpha)}), and the sum is
divided by prod_{alpha>0}(1 - q^{(lambda+rho,alpha)}).  ``colored_jones``
assembles the whole polynomial and divides exactly, checking the remainder.
``jones_jet`` gives the shifted J-hat only below a q-order: it sums just the
summands with f*(mu) below delta* plus that order and divides by truncated
geometric series.  Degrees are exact rationals and every coefficient either
route returns is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .lie import LieError, RootSystem, Weight
from .mult import plethysm_mult, summation_set
from .qseries import SeriesDivisionError, TruncatedSeries


class JonesError(ValueError):
    """Inconsistency while assembling a colored Jones polynomial."""


@dataclass(frozen=True)
class TorusKnot:
    a: int
    b: int

    def __post_init__(self):
        if not (0 < self.a < self.b):
            raise ValueError("torus knot needs 0 < a < b")
        if gcd(self.a, self.b) != 1:
            raise ValueError("torus knot parameters must be coprime")

    def __str__(self) -> str:
        return f"T({self.a},{self.b})"


# -- degree quadratic forms ---------------------------------------------------


def quadratic_forms(rs: RootSystem, knot: TorusKnot, lam: Weight
                    ) -> tuple[Callable[[Weight], Fraction],
                               Callable[[Weight], Fraction]]:
    """(f*, f): the min- and max-degree forms of the Jones summand."""
    a, b = knot.a, knot.b
    rho = rs.rho
    lam_part_min = -Fraction(a * b, 2) * rs.norm2(lam) \
        - (a * b - 1) * rs.inner(lam, rho)
    lam_part_max = -Fraction(a * b, 2) * rs.norm2(lam) \
        - (a * b + 1) * rs.inner(lam, rho)

    def f_star(mu: Weight) -> Fraction:
        return Fraction(b, 2 * a) * rs.norm2(mu) \
            + (Fraction(b, a) - 1) * rs.inner(mu, rho) + lam_part_min

    def f_max(mu: Weight) -> Fraction:
        return Fraction(b, 2 * a) * rs.norm2(mu) \
            + (Fraction(b, a) + 1) * rs.inner(mu, rho) + lam_part_max

    return f_star, f_max


# -- extremizers --------------------------------------------------------------


def minimizer_closed_form(rs: RootSystem, lam: Weight, a: int) -> Weight:
    """mu_{lambda,a} from the rank-2 case tables."""
    if rs.rank != 2:
        raise LieError(f"no closed-form minimizer for {rs.name}")
    if not rs.is_dominant(lam):
        raise LieError("weight must be dominant")
    if a < 2:
        raise ValueError("need a >= 2")
    m1, m2 = lam
    if rs.name == "A2":
        if a == 2:
            return (0, m1 - m2) if m1 >= m2 else (m2 - m1, 0)
        if a == 3:
            return (0, 0)
        r = (m1 - m2) % 3
        if r == 0:
            return (0, 0)
        if r == 1:
            return (a - 3, 0)
        return (0, a - 3)
    if rs.name == "B2":
        if a == 2:
            # the zero-weight plethysm multiplicity is +1 on the root lattice
            # and -1 off it, never 0, so the minimizer is always the origin
            return (0, 0)
        if a == 3:
            if m2 % 2 == 1:
                return (1, 1)
            return (0, 2) if m1 % 2 == 1 else (0, 0)
        if a == 4:
            return (0, 0)
        return (0, a - 4) if m2 % 2 == 1 else (0, 0)
    if rs.name == "G2":
        # m^0_{lambda,a} = m^0_lambda - m^{lambda1}_lambda for a in {4,5},
        # which vanishes exactly on the m1 = 1 wall; the minimum then moves
        # to (a-3)*lambda2 (verified against brute force and the polynomials)
        if a in (4, 5) and m1 == 1:
            return (0, a - 3)
        return (0, 0)
    raise LieError(f"no closed-form minimizer for {rs.name}")


def minimizer_bruteforce(rs: RootSystem, lam: Weight, a: int,
                         b: int | None = None) -> Weight:
    """argmin of f* over the nonzero-multiplicity part of S_{lambda,a}.

    The minimizer location is independent of the coprime exponent b; any
    valid b gives the same answer, so default to the smallest one.
    """
    if b is None:
        b = a + 1
        while gcd(a, b) != 1:
            b += 1
    knot = TorusKnot(a, b)
    f_star, _ = quadratic_forms(rs, knot, lam)
    support = [mu for mu, m in summation_set(rs, lam, a).items() if m != 0]
    if not support:
        raise JonesError("empty plethysm support")
    values = sorted((f_star(mu), mu) for mu in support)
    if len(values) > 1 and values[0][0] == values[1][0]:
        raise JonesError(
            f"non-unique minimizer for {rs.name} lambda={lam} a={a}: "
            f"{values[0][1]} and {values[1][1]}")
    return values[0][1]


def maximizer_bruteforce(rs: RootSystem, lam: Weight, a: int,
                         b: int | None = None) -> tuple[Weight, int]:
    """argmax of f over all of S_{lambda,a}, with its multiplicity."""
    if b is None:
        b = a + 1
        while gcd(a, b) != 1:
            b += 1
    knot = TorusKnot(a, b)
    _, f_max = quadratic_forms(rs, knot, lam)
    sset = summation_set(rs, lam, a)
    values = sorted(((f_max(mu), mu) for mu in sset), reverse=True)
    if len(values) > 1 and values[0][0] == values[1][0]:
        raise JonesError(
            f"non-unique maximizer for {rs.name} lambda={lam} a={a}")
    top = values[0][1]
    return top, sset[top]


# -- the polynomial -----------------------------------------------------------


@dataclass(frozen=True)
class ColoredJonesResult:
    knot: TorusKnot
    algebra: str
    lam: Weight
    polynomial: TruncatedSeries       # exact Laurent polynomial J
    delta_star: Fraction
    delta: Fraction

    @property
    def shifted(self) -> TruncatedSeries:
        """J-hat = q^{-delta*} J, min-degree 0."""
        return self.polynomial.shifted(-self.delta_star)

    def to_json_obj(self) -> dict:
        return {
            "knot": [self.knot.a, self.knot.b],
            "algebra": self.algebra,
            "lambda": list(self.lam),
            "delta_star": str(self.delta_star),
            "delta": str(self.delta),
            "polynomial": self.polynomial.to_json_obj(),
        }


def _common_denominator(rs: RootSystem, knot: TorusKnot) -> int:
    d = lcm(2 * knot.a, *(f.denominator for row in rs.gram for f in row))
    return d


def _mul_binomial(poly: dict[int, int], shift: int,
                  cutoff: int | None = None) -> dict[int, int]:
    # poly * (1 - q^shift) on exponent-numerator dicts, dropping exponents
    # >= cutoff
    out = dict(poly)
    for e, c in poly.items():
        k = e + shift
        if cutoff is None or k < cutoff:
            out[k] = out.get(k, 0) - c
    return {e: c for e, c in out.items() if c}


def _add_into(acc: dict[int, int], term: dict[int, int]) -> None:
    for e, c in term.items():
        v = acc.get(e, 0) + c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def _exact_div(poly: dict[int, int], m: int,
               cutoff: int | None = None) -> dict[int, int]:
    # poly / (1 - q^m).  Without a cutoff the division must be exact and a
    # remainder raises; with one, the quotient is the power series
    # poly * sum_j q^(jm) below q^cutoff, exact there if poly is
    if not poly:
        return {}
    top = max(poly) if cutoff is None else cutoff - 1
    support = set(poly)
    for e in sorted(poly):
        k = e + m
        while k <= top and k not in support:
            support.add(k)
            k += m
    quot: dict[int, int] = {}
    for e in sorted(support):
        val = poly.get(e, 0) + quot.get(e - m, 0)
        if val:
            quot[e] = val
    if cutoff is None:
        for e, val in quot.items():
            if e > top - m and val:
                raise SeriesDivisionError("Jones sum not divisible")
    return quot


def colored_jones(rs: RootSystem, knot: TorusKnot, lam: Weight
                  ) -> ColoredJonesResult:
    """Evaluate J^g_{T(a,b), lambda}(q) exactly."""
    if rs.rank > 2:
        raise LieError("only rank <= 2 algebras are supported")
    if not rs.is_dominant(lam):
        raise LieError("color must be dominant")
    a = knot.a
    rho = rs.rho
    f_star, _ = quadratic_forms(rs, knot, lam)
    sset = summation_set(rs, lam, a)
    exps: list[tuple[Weight, int, Fraction, list[Fraction]]] = []
    denom = _common_denominator(rs, knot)
    for mu, m in sorted(sset.items()):
        if m == 0:
            continue
        base = f_star(mu)
        prods = [rs.inner(tuple(mu[i] + rho[i] for i in range(rs.rank)), al)
                 for al in rs.positive_roots]
        denom = lcm(denom, base.denominator,
                    *(p.denominator for p in prods))
        exps.append((mu, m, base, prods))
    den_exps = [rs.inner(tuple(lam[i] + rho[i] for i in range(rs.rank)), al)
                for al in rs.positive_roots]
    denom = lcm(denom, *(p.denominator for p in den_exps))

    acc: dict[int, int] = {}
    for _, m, base, prods in exps:
        term = {int(base * denom): m}
        for p in prods:
            term = _mul_binomial(term, int(p * denom))
        _add_into(acc, term)
    for p in den_exps:
        acc = _exact_div(acc, int(p * denom))
    if not acc:
        raise JonesError("colored Jones polynomial vanished")
    poly = TruncatedSeries.make(acc, denom, None)
    return ColoredJonesResult(knot, rs.name, lam, poly,
                              poly.min_degree(), poly.max_degree())


def jones_jet(rs: RootSystem, knot: TorusKnot, lam: Weight, order: int
              ) -> TruncatedSeries:
    """J-hat = q^{-delta*} J below q^order, from the summands near mu_min.

    Equals ``colored_jones(rs, knot, lam).shifted.truncated(order)`` without
    forming the whole polynomial.  Each summand starts at q^{f*(mu)} and the
    denominator expands as 1 + O(q), so only dominant mu with
    f*(mu) < delta* + order contribute.  f* strictly increases along every
    fundamental weight on the dominant cone (the Gram entries are positive
    and b > a), so a row-by-row scan of the cone that stops each row, and
    then the scan, at the first mu past that bound visits exactly those mu.
    plethysm_mult vanishes off S_{lambda,a}, so no summation set is built;
    points off the root-lattice coset of S are skipped without calling it.

    The exact division's remainder check needs the whole numerator; the jet
    certifies its anchor instead: its lowest term must be q^0 with
    coefficient m^{mu_min}, else the minimizer table is wrong and
    JonesError is raised.
    """
    if order < 1:
        raise ValueError("jet order must be >= 1")
    if not rs.is_dominant(lam):
        raise LieError("color must be dominant")
    a = knot.a
    mu_min = minimizer_closed_form(rs, lam, a)
    f_star, _ = quadratic_forms(rs, knot, lam)
    # f*(i, j) - delta* = c11 i^2 + c12 i j + c22 j^2 + c1 i + c2 j + c0,
    # read off f* by finite differences; (mu+rho, alpha) is linear in mu
    fp = {(x, y): f_star((x, y)) for x in (-1, 0, 1) for y in (-1, 0, 1)}
    form = [(fp[1, 0] + fp[-1, 0]) / 2 - fp[0, 0],
            fp[1, 1] - fp[1, 0] - fp[0, 1] + fp[0, 0],
            (fp[0, 1] + fp[0, -1]) / 2 - fp[0, 0],
            (fp[1, 0] - fp[-1, 0]) / 2,
            (fp[0, 1] - fp[0, -1]) / 2,
            fp[0, 0] - f_star(mu_min)]
    rho = rs.rho
    roots = [(rs.inner((1, 0), al), rs.inner((0, 1), al), rs.inner(rho, al))
             for al in rs.positive_roots]
    den_exps = [rs.inner(tuple(lam[i] + rho[i] for i in range(2)), al)
                for al in rs.positive_roots]
    denom = lcm(*(c.denominator for c in form + den_exps),
                *(c.denominator for r in roots for c in r))
    c11, c12, c22, c1, c2, c0 = (int(c * denom) for c in form)
    roots = [tuple(int(c * denom) for c in r) for r in roots]
    bound = order * denom

    acc: dict[int, int] = {}
    i = 0
    while True:
        j = 0
        while True:
            base = c11 * i * i + c12 * i * j + c22 * j * j + c1 * i \
                + c2 * j + c0
            if base >= bound:
                break
            # S_{lambda,a} lies in the coset a*lambda + (root lattice)
            m = rs.in_root_lattice((i - a * lam[0], j - a * lam[1])) \
                and plethysm_mult(rs, lam, a, (i, j))
            if m:
                term = {base: m}
                for r1, r2, r0 in roots:
                    term = _mul_binomial(term, r1 * i + r2 * j + r0, bound)
                _add_into(acc, term)
            j += 1
        if j == 0:   # row i starts past the bound, and so do all later rows
            break
        i += 1
    for p in den_exps:
        acc = _exact_div(acc, int(p * denom), bound)
    lead = plethysm_mult(rs, lam, a, mu_min)
    if not acc or min(acc) != 0 or acc[0] != lead:
        raise JonesError(
            f"jet of {knot} at {rs.name} lambda={lam} does not start with "
            f"{lead}*q^0 at mu_min={mu_min} (minimizer inconsistency)")
    return TruncatedSeries.make(acc, denom, bound)


def checked_sum(rs: RootSystem, knot: TorusKnot, lam: Weight) -> TruncatedSeries:
    """J-check: the shifted summation with exponents relative to mu_min.

    Equals q^{-delta*} J * prod(1 - q^{(lambda+rho,alpha)}); its min-degree
    must be 0 with nonzero constant term, else the minimizer table and the
    summation set disagree.
    """
    if rs.rank != 2:
        raise LieError("checked sum is for the rank-2 algebras")
    a, b = knot.a, knot.b
    rho = rs.rho
    mu_min = minimizer_closed_form(rs, lam, a)
    sset = summation_set(rs, lam, a)
    denom = _common_denominator(rs, knot)
    terms: list[tuple[int, Fraction, list[Fraction]]] = []
    for mu, m in sorted(sset.items()):
        if m == 0:
            continue
        hat = tuple(mu[i] - mu_min[i] for i in range(rs.rank))
        base = Fraction(b, 2 * a) * rs.norm2(hat) \
            + (Fraction(b, a) - 1) * rs.inner(hat, rho) \
            + Fraction(b, a) * rs.inner(hat, mu_min)
        prods = [rs.inner(tuple(mu[i] + rho[i] for i in range(rs.rank)), al)
                 for al in rs.positive_roots]
        denom = lcm(denom, base.denominator, *(p.denominator for p in prods))
        terms.append((m, base, prods))
    acc: dict[int, int] = {}
    for m, base, prods in terms:
        term = {int(base * denom): m}
        for p in prods:
            term = _mul_binomial(term, int(p * denom))
        _add_into(acc, term)
    out = TruncatedSeries.make(acc, denom, None)
    if out.is_zero or out.min_degree() != 0:
        raise JonesError("checked sum min-degree is not 0 "
                         "(minimizer inconsistency)")
    return out
