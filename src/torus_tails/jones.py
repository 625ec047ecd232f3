"""Colored Jones polynomials of torus knots via the rewritten Jones-Rosso sum.

The summand for mu in S_{lambda,a} contributes
m^mu * q^{f*(mu)} * prod_{alpha>0}(1 - q^{(mu+rho,alpha)}), and the sum is
divided by prod_{alpha>0}(1 - q^{(lambda+rho,alpha)}).  Exponents are integer
numerators over D = 2*a*gram_scale from the start: D*f*(mu) and
D*(mu+rho, alpha) are integers computed with the scaled inner product of
``lie``.  D*f* is one integer quadratic in mu, its six coefficients from
``_degree_quadratic``; the numerator, the jets, the Fraction forms and the
stable limit of ``stability`` all read it, and ``qseries._negative_range``
is the one solver for where such a quadratic is below a bound.
``colored_jones`` and ``jones_jet`` share one assembly of the numerator:
D*f*(mu) and the Weyl-identity expansion of the root product are expanded
once into integer quadratic and linear coefficients, so a term costs a few
integer products.  Both read the summands as the (i, {j: m}) rows of
``mult.scatter_rows`` and build no dict keyed by mu.  ``colored_jones``
reads the rows of dominant mu <= a*lambda, the summation set unsorted;
once they and the scatter's table are gone, it divides by all the
denominator factors in one ``div_binomial_series`` over a dense exponent
array, checking the remainder of each, and reads the series off that array
in order.  It sorts nothing and leaves no process-wide table behind.
The case tables of ``minimizer_closed_form`` also bound the
missing points (``missing_point_bound_check``), so that check lives here
and ``mult`` imports nothing from this module.
``jones_jet`` gives the shifted J-hat only below a q-order: it assembles just
the summands with f*(mu) below delta* plus that order and divides by
truncated geometric series.  Its rows of the dominant cone end where D*f*
reaches the bound (``_ball_rows``, by ``qseries._negative_range``), so this
module reads no Kostant sum of its own.
Degrees are exact rationals and every coefficient either route returns is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Any, Callable, Iterable, Iterator

from .lie import LieError, RootSystem, Weight
from .mult import (missing_points, plethysm_mult, scatter_rows,
                   summation_set)
from .qseries import TruncatedSeries, _negative_range, div_binomial_series


class JonesError(ValueError):
    """Inconsistency while assembling a colored Jones polynomial."""


@dataclass(frozen=True)
class TorusKnot:
    a: int
    b: int

    def __post_init__(self):
        if not (0 < self.a < self.b):
            raise ValueError("torus knot needs 0 < a < b")
        if self.a == 1:
            raise ValueError("torus knot needs a >= 2: T(1,b) is the unknot")
        if gcd(self.a, self.b) != 1:
            raise ValueError("torus knot parameters must be coprime")

    def __str__(self) -> str:
        return f"T({self.a},{self.b})"


# -- degree quadratic forms ---------------------------------------------------


def _exponent_denominator(rs: RootSystem, knot: TorusKnot) -> int:
    """D = 2*a*gram_scale: D*f*(mu), D*f(mu) and D*(mu, alpha) are integers."""
    return 2 * knot.a * rs.gram_scale


def _degree_quadratic(rs: RootSystem, knot: TorusKnot, lam: Weight, sign: int
                      ) -> tuple[int, int, int, int, int, int]:
    """(cxx, cxy, cyy, cx, cy, c0): D*f*(mu) (sign -1) or D*f(mu) (sign +1)
    = cxx*x^2 + cxy*x*y + cyy*y^2 + cx*x + cy*y + c0 at mu = (x, y).

    That is b*|mu|^2 + 2(b + sign*a)(mu, rho) + c0 in scaled inner products.
    """
    a, b = knot.a, knot.b
    (g00, g01), (g10, g11) = rs.gram_int
    lin = 2 * (b + sign * a)
    c0 = -a * (a * b * rs.norm2_int(lam)
               + 2 * (a * b + sign) * rs.inner_int(lam, rs.rho))
    return (b * g00, b * (g01 + g10), b * g11,
            lin * (g00 + g01), lin * (g10 + g11), c0)


def _degree_value(quad: tuple[int, ...], mu: Weight) -> int:
    """The quadratic (cxx, cxy, cyy, cx, cy, c0) of ``_degree_quadratic`` at
    mu = (x, y)."""
    cxx, cxy, cyy, cx, cy, c0 = quad
    x, y = mu
    return (cxx * x + cxy * y + cx) * x + (cyy * y + cy) * y + c0


def quadratic_forms(rs: RootSystem, knot: TorusKnot, lam: Weight
                    ) -> tuple[Callable[[Weight], Fraction],
                               Callable[[Weight], Fraction]]:
    """(f*, f): the min- and max-degree forms of the Jones summand:

    f*(mu) = b/(2a) |mu|^2 + (b/a - 1)(mu, rho)
             - ab/2 |lambda|^2 - (ab - 1)(lambda, rho)

    and f(mu) the same with b/a + 1 and ab + 1 in place of b/a - 1, ab - 1.
    """
    d = _exponent_denominator(rs, knot)
    q_star = _degree_quadratic(rs, knot, lam, -1)
    q_max = _degree_quadratic(rs, knot, lam, 1)

    def f_star(mu: Weight) -> Fraction:
        return Fraction(_degree_value(q_star, mu), d)

    def f_max(mu: Weight) -> Fraction:
        return Fraction(_degree_value(q_max, mu), d)

    return f_star, f_max


# -- extremizers --------------------------------------------------------------


def minimizer_closed_form(rs: RootSystem, lam: Weight, a: int) -> Weight:
    """mu_{lambda,a} from the rank-2 case tables."""
    if not rs.is_dominant(lam):
        raise LieError("weight must be dominant")
    if a < 2:
        raise ValueError("need a >= 2")
    m1, m2 = lam
    if rs.name == "A1":
        # per factor of A1 x A1 the summands are a*nu - w, nu = m, m-2, ...
        # and w in {0, alpha}: the least dominant one is 0 for an even color
        # and a - 2 (nu = 1, w = alpha) for an odd one
        return ((a - 2) * (m1 % 2), (a - 2) * (m2 % 2))
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


def missing_point_bound_check(rs: RootSystem, lam: Weight, a: int,
                              n_range: Iterable[int]) -> dict:
    """Check (mu^,mu^) + 2(mu^, mu_min) >= n^2 over every missing point.

    Returns the per-n missing counts and the minimum slack; raises with a
    witness on violation (that would indicate a hull or normalization bug).
    """
    report = {"algebra": rs.name, "lambda": lam, "a": a, "per_n": {},
              "min_slack": None}
    # scaled by gram_scale throughout; divided once for the report
    scale = rs.gram_scale
    min_slack: int | None = None
    for n in n_range:
        ln = tuple(n * c for c in lam)
        mu_min = minimizer_closed_form(rs, ln, a)
        misses = missing_points(rs, ln, a)
        for mu in misses:
            hat = tuple(mu[i] - mu_min[i] for i in range(rs.rank))
            value = rs.norm2_int(hat) + 2 * rs.inner_int(hat, mu_min)
            slack = value - scale * n * n
            if slack < 0:
                raise AssertionError(
                    f"missing-point bound violated: {rs.name} lambda={lam} "
                    f"a={a} n={n} mu={mu}: {Fraction(value, scale)} "
                    f"< {n * n}")
            if min_slack is None or slack < min_slack:
                min_slack = slack
        report["per_n"][n] = len(misses)
    report["min_slack"] = (None if min_slack is None
                           else Fraction(min_slack, scale))
    return report


def _extremizer_knot(a: int, b: int | None) -> TorusKnot:
    """T(a, b) for the brute-force extremizers, b by default the smallest
    b > a coprime to a."""
    if b is None:
        b = a + 1
        while gcd(a, b) != 1:
            b += 1
    return TorusKnot(a, b)


def minimizer_bruteforce(rs: RootSystem, lam: Weight, a: int,
                         b: int | None = None) -> Weight:
    """argmin of f* over the nonzero-multiplicity part of S_{lambda,a}.

    The minimizer location is independent of the coprime exponent b; any
    valid b gives the same answer, so default to the smallest one.
    """
    knot = _extremizer_knot(a, b)
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


def maximizer_bruteforce(rs: RootSystem, lam: Weight, a: int
                         ) -> tuple[Weight, int]:
    """argmax of f over all of S_{lambda,a}, with its multiplicity.  It is
    a*lambda for every b: for dominant mu < a*lambda, f(a*lambda) - f(mu)
    = (a*lambda - mu, b(a*lambda + mu) + 2(b + a)rho)/2a > 0."""
    knot = _extremizer_knot(a, None)
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
    """J^g_{T(a,b), lambda}(q); delta* and delta are read off it."""

    knot: TorusKnot
    algebra: str
    lam: Weight
    polynomial: TruncatedSeries       # exact Laurent polynomial J

    @property
    def delta_star(self) -> Fraction:
        return self.polynomial.min_degree()

    @property
    def delta(self) -> Fraction:
        return self.polynomial.max_degree()

    @property
    def shifted(self) -> TruncatedSeries:
        """J-hat = q^{-delta*} J, min-degree 0."""
        return self.polynomial.shifted(-self.delta_star)

    def to_json_obj(self, series: Callable[[TruncatedSeries], Any]
                    = TruncatedSeries.to_json_obj) -> dict:
        """The result as JSON data, with the polynomial encoded by
        ``series``."""
        return {
            "knot": [self.knot.a, self.knot.b],
            "algebra": self.algebra,
            "lambda": list(self.lam),
            "delta_star": str(self.delta_star),
            "delta": str(self.delta),
            "polynomial": series(self.polynomial),
        }


def _assemble(rs: RootSystem, knot: TorusKnot, lam: Weight,
              rows: Iterable[tuple[int, dict[int, int]]], shift: int,
              cutoff: int | None) -> TruncatedSeries:
    """sum of m q^{f*(mu)} prod_{alpha>0}(1 - q^{(mu+rho,alpha)}) over the
    mu = (i, j) with multiplicity m in the rows (i, {j: m}) of
    ``mult.scatter_rows``, members with m = 0 skipped, divided by
    prod_{alpha>0}(1 - q^{(lambda+rho, alpha)}): exponent numerators over D
    lowered by shift, below cutoff, or the whole exact quotient for cutoff
    None: the one assembly of ``colored_jones`` and ``jones_jet``.

    The product is expanded by the Weyl denominator identity
    prod_{alpha>0}(1 - e^alpha) = sum_sigma (-1)^sigma e^{rho - sigma(rho)},
    one term per orbit pair (w, sign), with exponent
    D*f*(mu) + 2a*(mu + rho, w) - shift.  That is quad(mu) + cx*x + cy*y + k
    at mu = (x, y): quad the quadratic part of ``_degree_quadratic``, and per
    pair (cx, cy, k, sign), its linear part plus that of 2a*(mu, w).  So a
    point costs a few integer products.

    A simple root alpha_i orthogonal to the other splits off an A1 factor
    (A1 x A1's second).  Where lam_i = 0 every summand has mu_i = 0, so that
    factor's 1 - q^{(mu+rho, alpha_i)} is one constant in every summand and
    in the denominator: alpha_i is dropped, with the orbit pairs that have
    w_i != 0 (the Weyl elements reflecting in alpha_i).
    """
    simple = rs.simple_roots
    cut = [i for i, al in enumerate(simple) if not lam[i] and not any(
        rs.inner_int(al, other) for other in simple if other is not al)]
    pairs = [(w, s) for w, s in rs.orbit_pairs if not any(w[i] for i in cut)]
    roots = [al for al in rs.positive_roots if not any(al[i] for i in cut)]
    qxx, qxy, qyy, lx, ly, c0 = _degree_quadratic(rs, knot, lam, -1)
    two_a = 2 * knot.a
    (g00, g01), (g10, g11) = rs.gram_int
    forms = []
    for (wx, wy), sign in pairs:
        wx, wy = two_a * wx, two_a * wy
        forms.append((lx + g00 * wx + g01 * wy, ly + g10 * wx + g11 * wy,
                      c0 - shift + rs.inner_int(rs.rho, (wx, wy)), sign))
    acc: dict[int, int] = {}
    for x, row in rows:
        for y, m in row.items():
            if not m:
                continue
            quad = (qxx * x + qxy * y) * x + qyy * y * y
            for cx, cy, k, sign in forms:
                e = quad + cx * x + cy * y + k
                if cutoff is None or e < cutoff:
                    acc[e] = acc.get(e, 0) + sign * m
    lr = tuple(c + r for c, r in zip(lam, rs.rho))
    return div_binomial_series(acc, [two_a * rs.inner_int(lr, al)
                                     for al in roots],
                               _exponent_denominator(rs, knot), cutoff)


def colored_jones(rs: RootSystem, knot: TorusKnot, lam: Weight
                  ) -> ColoredJonesResult:
    """Evaluate J^g_{T(a,b), lambda}(q) exactly."""
    if not rs.is_dominant(lam):
        raise LieError("color must be dominant")
    rows = scatter_rows(rs, lam, knot.a,
                        rs.row_ends(tuple(knot.a * c for c in lam)))
    poly = _assemble(rs, knot, lam, rows, 0, None)
    if poly.is_zero:
        raise JonesError("colored Jones polynomial vanished")
    return ColoredJonesResult(knot, rs.name, lam, poly)


def _ball_rows(quad: tuple[int, ...], top: int) -> Iterator[int]:
    """The row ends of the dominant mu with D*f*(mu) < top, quad D*f* from
    ``_degree_quadratic``: row i ends at the end of ``_negative_range`` of
    its quadratic in j.  That quadratic has its vertex at a j < 0, and D*f*
    strictly increases along both fundamental weights on the dominant cone,
    so the first row without a point ends at or below 0, and so do the
    later ones."""
    cxx, cxy, cyy, cx, cy, c0 = quad
    for i in count():
        yield _negative_range(cyy, cxy * i + cy,
                              (cxx * i + cx) * i + c0 - top).stop


def jones_jet(rs: RootSystem, knot: TorusKnot, lam: Weight, order: int
              ) -> TruncatedSeries:
    """J-hat = q^{-delta*} J below q^order, from the summands near mu_min.

    Equals ``colored_jones(rs, knot, lam).shifted.truncated(order)`` without
    forming the whole polynomial.  Each summand starts at q^{f*(mu)} and the
    denominator expands as 1 + O(q), so only dominant mu with
    f*(mu) < delta* + order contribute.  f* strictly increases along every
    fundamental weight on the dominant cone (the Gram entries are >= 0, the
    diagonal ones > 0, and b > a), so the rows of the cone, each cut where
    f* reaches that bound, hold exactly those mu.  ``mult.scatter_rows`` fills those rows
    (``_ball_rows``), the ``plethysm_mult`` identity term for term, so no
    summation set is built and no point gets its own Weyl-group sum.  The
    rows start at the origin: the mu with f* below delta* are summed too.

    The exact division's remainder check needs the whole numerator; the jet
    certifies its anchor instead: its lowest term must be q^0 with
    coefficient m^{mu_min}, computed apart by ``plethysm_mult``, else the
    minimizer table is wrong and JonesError is raised.
    """
    if order < 1:
        raise ValueError("jet order must be >= 1")
    if not rs.is_dominant(lam):
        raise LieError("color must be dominant")
    a = knot.a
    mu_min = minimizer_closed_form(rs, lam, a)
    quad = _degree_quadratic(rs, knot, lam, -1)
    shift = _degree_value(quad, mu_min)
    bound = order * _exponent_denominator(rs, knot)
    rows = scatter_rows(rs, lam, a, _ball_rows(quad, shift + bound))
    jet = _assemble(rs, knot, lam, rows, shift, bound)
    lead = plethysm_mult(rs, lam, a, mu_min)
    if jet.exps[:1] != (0,) or jet.coeffs[0] != lead:
        raise JonesError(
            f"jet of {knot} at {rs.name} lambda={lam} does not start with "
            f"{lead}*q^0 at mu_min={mu_min} (minimizer inconsistency)")
    return jet

