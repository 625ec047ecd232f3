"""Colored Jones polynomials of torus knots via the rewritten Jones-Rosso sum.

The summand for mu in S_{lambda,a} contributes
m^mu * q^{f*(mu)} * prod_{alpha>0}(1 - q^{(mu+rho,alpha)}), and the sum is
divided by prod_{alpha>0}(1 - q^{(lambda+rho,alpha)}).  Exponents are integer
numerators over D = 2*a*gram_scale from the start: D*f*(mu) and
D*(mu+rho, alpha) are integers computed with the scaled inner product of
``lie``.  ``colored_jones``, ``checked_sum`` and ``jones_jet`` share one
assembly of the numerator: D*f*(mu) and the Weyl-identity expansion of the
root product are expanded once into integer quadratic and linear
coefficients, so a term costs a few integer products.  ``colored_jones``
then divides by all the denominator factors in one ``div_binomial_series``
over a dense exponent array, checking the remainder of each, and reads the
series off that array in order.  Its summands are the unsorted summation
set of ``mult._summation_scatter``, scattered from the dominant weights of
V_lambda alone, each multiplicity by one Kostant sum, so the exact path
sorts no summation set and leaves no process-wide table behind.
``jones_jet`` gives the shifted J-hat only below a q-order: it assembles just
the summands with f*(mu) below delta* plus that order and divides by
truncated geometric series.  Its multiplicities come from a row kernel: each
row of the dominant cone ends where its integer quadratic D*f* reaches the
bound, and the Kostant weight multiplicities are scattered over the
Weyl-orbit shifts to the row's root-lattice coset points, so no point gets
its own Weyl-group sum.  Degrees are exact rationals and every coefficient
either route returns is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterable

from .lie import LieError, RootSystem, Weight
from .mult import (_kostant_sum, _kostant_tops, _summation_scatter,
                   plethysm_mult, summation_set)
from .qseries import TruncatedSeries, div_binomial_series


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


def _exponent_denominator(rs: RootSystem, knot: TorusKnot) -> int:
    """D = 2*a*gram_scale: D*f*(mu), D*f(mu) and D*(mu, alpha) are integers."""
    return 2 * knot.a * rs.gram_scale


def _degree_coeffs(rs: RootSystem, knot: TorusKnot, lam: Weight, sign: int
                   ) -> tuple[int, int, int]:
    """(b, lin, const) with D*f*(mu) (sign -1) or D*f(mu) (sign +1)
    = b*|mu|^2 + lin*(mu, rho) + const, in scaled inner products."""
    a, b = knot.a, knot.b
    const = -a * (a * b * rs.norm2_int(lam)
                  + 2 * (a * b + sign) * rs.inner_int(lam, rs.rho))
    return b, 2 * (b + sign * a), const


def _degree_form(rs: RootSystem, knot: TorusKnot, lam: Weight, sign: int
                 ) -> Callable[[Weight], int]:
    """mu -> D*f*(mu) (sign -1) or D*f(mu) (sign +1), an integer."""
    b, lin, const = _degree_coeffs(rs, knot, lam, sign)
    rho = rs.rho

    def form(mu: Weight) -> int:
        return b * rs.norm2_int(mu) + lin * rs.inner_int(mu, rho) + const

    return form


def quadratic_forms(rs: RootSystem, knot: TorusKnot, lam: Weight
                    ) -> tuple[Callable[[Weight], Fraction],
                               Callable[[Weight], Fraction]]:
    """(f*, f): the min- and max-degree forms of the Jones summand:

    f*(mu) = b/(2a) |mu|^2 + (b/a - 1)(mu, rho)
             - ab/2 |lambda|^2 - (ab - 1)(lambda, rho)

    and f(mu) the same with b/a + 1 and ab + 1 in place of b/a - 1, ab - 1.
    """
    d = _exponent_denominator(rs, knot)
    f_star_num = _degree_form(rs, knot, lam, -1)
    f_max_num = _degree_form(rs, knot, lam, 1)

    def f_star(mu: Weight) -> Fraction:
        return Fraction(f_star_num(mu), d)

    def f_max(mu: Weight) -> Fraction:
        return Fraction(f_max_num(mu), d)

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


def _numerator(rs: RootSystem, knot: TorusKnot, lam: Weight,
               summands: Iterable[tuple[Weight, int]], shift: int,
               cutoff: int | None = None) -> dict[int, int]:
    """sum of m q^{f*(mu)} prod_{alpha>0}(1 - q^{(mu+rho,alpha)}) over the
    (mu, m) in summands, as exponent numerators over D lowered by shift,
    dropping exponents >= cutoff.  Coefficients that cancel stay as 0.

    The product is expanded by the Weyl denominator identity
    prod_{alpha>0}(1 - e^alpha) = sum_sigma (-1)^sigma e^{rho - sigma(rho)},
    one term per orbit pair (w, sign) of ``rs.orbit_pairs()``, with exponent
    D*f*(mu) + 2a*(mu + rho, w) - shift.  That is expanded once into
    integers: quad(mu) + cx*x + cy*y + k at mu = (x, y), quad the quadratic
    part of D*f*, and (cx, cy, k, sign) per pair, so a point costs a few
    integer products.  A rank-1 weight is read as (x, x) against a Gram
    matrix padded with zeros, which gives y no coefficients.
    """
    b, lin, const = _degree_coeffs(rs, knot, lam, -1)
    two_a = 2 * knot.a
    g = rs.gram_int
    (g00, g01), (g10, g11) = g if rs.rank == 2 else ((g[0][0], 0), (0, 0))
    qxx, qxy, qyy = b * g00, b * (g01 + g10), b * g11
    rho = rs.rho
    forms = []
    for w, sign in rs.orbit_pairs():
        v = tuple(lin * r + two_a * c for r, c in zip(rho, w))
        forms.append((g00 * v[0] + g01 * v[-1], g10 * v[0] + g11 * v[-1],
                      const - shift + two_a * rs.inner_int(rho, w), sign))
    acc: dict[int, int] = {}
    for mu, m in summands:
        if not m:
            continue
        x, y = mu[0], mu[-1]
        quad = (qxx * x + qxy * y) * x + qyy * y * y
        for cx, cy, k, sign in forms:
            e = quad + cx * x + cy * y + k
            if cutoff is None or e < cutoff:
                acc[e] = acc.get(e, 0) + sign * m
    return acc


def _denominator_shifts(rs: RootSystem, knot: TorusKnot, lam: Weight
                        ) -> list[int]:
    """D*(lambda+rho, alpha) over the positive roots alpha."""
    rho = rs.rho
    lr = tuple(lam[i] + rho[i] for i in range(rs.rank))
    return [2 * knot.a * rs.inner_int(lr, al) for al in rs.positive_roots]


def colored_jones(rs: RootSystem, knot: TorusKnot, lam: Weight
                  ) -> ColoredJonesResult:
    """Evaluate J^g_{T(a,b), lambda}(q) exactly."""
    if rs.rank > 2:
        raise LieError("only rank <= 2 algebras are supported")
    if not rs.is_dominant(lam):
        raise LieError("color must be dominant")
    acc = _numerator(rs, knot, lam,
                     _summation_scatter(rs, lam, knot.a).items(), 0)
    poly = div_binomial_series(acc, _denominator_shifts(rs, knot, lam),
                               _exponent_denominator(rs, knot))
    if poly.is_zero:
        raise JonesError("colored Jones polynomial vanished")
    return ColoredJonesResult(knot, rs.name, lam, poly,
                              poly.min_degree(), poly.max_degree())


def _jet_multiplicities(rs: RootSystem, lam: Weight, a: int,
                        form: Callable[[Weight], int], top: int
                        ) -> dict[Weight, int]:
    """mu -> m^mu_{lambda,a} over the dominant mu with form(mu) < top, by
    rows; mu with multiplicity 0 are left out.

    form is an integer quadratic (D*f*) that strictly increases along both
    fundamental weights on the dominant cone.  Row i therefore ends at the
    first j with form(i, j) >= top, read off the row's quadratic by isqrt,
    and the rows end at the first empty one.  S_{lambda,a} lies in the coset
    a*lambda + (root lattice), so j steps over the coset's residues mod
    root_det.  The multiplicities are scattered as in ``summation_set``:
    each orbit pair (w, sign) with a | i + w_0 adds
    sign * m_lambda^((mu+w)/a) at the j = -w_1 (mod a) of the coset (one
    step of lcm(root_det, a)), which sums to the ``plethysm_mult`` identity
    at every mu of the rows.  m_lambda^nu is ``mult._kostant_sum``, Kostant's
    formula over the per-lambda table ``_kostant_tops``, valid at every
    weight nu.
    """
    d = rs.root_det
    step = lcm(d, a)
    pairs = rs.orbit_pairs()
    tops = _kostant_tops(rs, lam)
    # per (i mod d, -w_1 mod a): the residues j mod step on the coset with
    # j = -w_1 (mod a)
    starts = {(r, t): [j for j in range(t, step, a) if rs.in_root_lattice(
        (r - a * lam[0], j - a * lam[1]))]
        for r in range(d) for t in range(a)}

    # m_lambda^nu by Kostant's formula at any weight nu, kept for this call
    # only: each nu is met from up to |W| mu
    seen: dict[Weight, int] = {}

    def weight_mult(nu: Weight) -> int:
        total = seen.get(nu)
        if total is None:
            total = seen[nu] = _kostant_sum(rs, tops, rs.root_coords_int(nu))
        return total

    # form(i, j) - top = quad*j^2 + lin_i*j + const_i
    quad = (form((0, 2)) - 2 * form((0, 1)) + form((0, 0))) // 2
    out: dict[Weight, int] = {}
    i = 0
    while True:
        const = form((i, 0)) - top
        if const >= 0:   # row i starts past the bound, and so do later rows
            return out
        lin = form((i, 1)) - form((i, 0)) - quad
        end = max(0, (isqrt(lin * lin - 4 * quad * const) - lin)
                  // (2 * quad))
        while quad * end * end + lin * end + const < 0:
            end += 1
        row: dict[int, int] = {}
        for (w0, w1), sign in pairs:
            if (i + w0) % a:
                continue
            nu0 = (i + w0) // a
            for j0 in starts[i % d, -w1 % a]:
                for j in range(j0, end, step):
                    m = weight_mult((nu0, (j + w1) // a))
                    if m:
                        row[j] = row.get(j, 0) + sign * m
        for j, m in row.items():
            if m:
                out[i, j] = m
        i += 1


def jones_jet(rs: RootSystem, knot: TorusKnot, lam: Weight, order: int
              ) -> TruncatedSeries:
    """J-hat = q^{-delta*} J below q^order, from the summands near mu_min.

    Equals ``colored_jones(rs, knot, lam).shifted.truncated(order)`` without
    forming the whole polynomial.  Each summand starts at q^{f*(mu)} and the
    denominator expands as 1 + O(q), so only dominant mu with
    f*(mu) < delta* + order contribute.  f* strictly increases along every
    fundamental weight on the dominant cone (the Gram entries are positive
    and b > a), so the rows of the cone, each cut where f* reaches that
    bound, hold exactly those mu.  ``_jet_multiplicities`` fills each row by
    scattering the Kostant weight multiplicities over the Weyl-orbit shifts
    to the row's root-lattice coset points, the ``plethysm_mult`` identity
    term for term, so no summation set is built and no point gets its own
    Weyl-group sum.  The rows start at the origin: the mu with f* below
    delta* are summed too.

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
    f_star = _degree_form(rs, knot, lam, -1)
    shift = f_star(mu_min)
    d = _exponent_denominator(rs, knot)
    bound = order * d
    mults = _jet_multiplicities(rs, lam, a, f_star, shift + bound)
    acc = _numerator(rs, knot, lam, mults.items(), shift, bound)
    jet = div_binomial_series(acc, _denominator_shifts(rs, knot, lam), d,
                              bound)
    lead = plethysm_mult(rs, lam, a, mu_min)
    if jet.terms[:1] != ((0, lead),):
        raise JonesError(
            f"jet of {knot} at {rs.name} lambda={lam} does not start with "
            f"{lead}*q^0 at mu_min={mu_min} (minimizer inconsistency)")
    return jet


def checked_sum(rs: RootSystem, knot: TorusKnot, lam: Weight) -> TruncatedSeries:
    """J-check: the shifted summation with exponents relative to mu_min.

    Equals q^{-delta*} J * prod(1 - q^{(lambda+rho,alpha)}); its min-degree
    must be 0 with nonzero constant term, else the minimizer table and the
    summation set disagree.
    """
    if rs.rank != 2:
        raise LieError("checked sum is for the rank-2 algebras")
    mu_min = minimizer_closed_form(rs, lam, knot.a)
    shift = _degree_form(rs, knot, lam, -1)(mu_min)
    acc = _numerator(rs, knot, lam, summation_set(rs, lam, knot.a).items(),
                     shift)
    out = TruncatedSeries.make(acc, _exponent_denominator(rs, knot), None)
    if out.is_zero or out.min_degree() != 0:
        raise JonesError("checked sum min-degree is not 0 "
                         "(minimizer inconsistency)")
    return out
