"""Stable coefficients, empirical c-stability detection, and tail evaluation.

Tails are stored in the substitution convention x = q^n: a TailSeries holds
phi_0..phi_K with integer q-exponents and quasi-polynomial-in-n coefficients,
and the n-th family member is approximated by sum_j phi_j(n,q) q^(jn).  The
q^(j(n+1)) partial sums of the c-stability definition are the same sums after
phi_j -> phi_j q^(-j); the defect inequality is checked in that form.

Three independent routes produce tails for the supported families: empirical
detection from the computed polynomials, evaluation of the structural
lattice-sum limit, and the closed theta-quotient forms.  The lattice-sum
limit takes its q-exponents from the one degree quadratic of ``jones``
(``_degree_quadratic``, re-centred at the minimizer) and its row bounds
from the one row solver of ``qseries`` (``_negative_range``).  The stable
limit and both closed forms are each one numerator over prod
(1 - x^c q^d), divided out by the one quotient ``_tail_quotient``, which
divides an x-free factor 1 - q^d by the one exact division,
``div_binomial_series``; detection keeps each member's residual as a series
whose order is its exactness window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, Mapping, Optional, Sequence

from .jones import (TorusKnot, _degree_quadratic, _degree_value,
                    _exponent_denominator, jones_jet, minimizer_closed_form)
from .lie import RootSystem, Weight, get_root_system
from .mult import lattice_hull, plethysm_mult
from .quasipoly import FitError, QuasiPolynomial, fit_quasi_polynomial
from .qseries import (TruncatedSeries, _min_order, _negative_range,
                      div_binomial_series, euler_phi, pochhammer, theta)


class StabilityError(ValueError):
    """Empirical stability structure not found or inconsistent."""


# -- stable coefficients ------------------------------------------------------


def stable_coefficients(family: Mapping[int, TruncatedSeries], k_max: int
                        ) -> dict[tuple[int, int], int]:
    """a_k(n): coefficient of q^(delta*(n)+k) in f_n, for k <= k_max."""
    table: dict[tuple[int, int], int] = {}
    for n, f in sorted(family.items()):
        if f.is_zero:
            raise StabilityError(f"family member n={n} is zero")
        base = f.min_degree()
        for k in range(k_max + 1):
            table[(k, n)] = f.coefficient(base + k)
    return table


def degree_quasipoly_fit(samples: Sequence[tuple[int, Fraction]]
                         ) -> QuasiPolynomial:
    """Fit delta*(n) by a quasi-polynomial of degree <= 2 with holdout, on
    the periods p <= 24 with at least 6p samples: twice the 3p coefficients
    of a degree-2 fit."""
    max_period = min(24, len(samples) // 6)
    if not max_period:
        raise FitError("too few points for any candidate period")
    return fit_quasi_polynomial(sorted(samples), max_period=max_period)


# -- tails: x-graded q-series with quasi-polynomial coefficients --------------


def qp_series(s: TruncatedSeries, linear: Optional[TruncatedSeries] = None
              ) -> TruncatedSeries:
    """The coefficients of s as constants in n, plus n times those of
    ``linear``: a series over the quasi-polynomials in n, each a + b*n built
    once over the union of the two exponent columns."""
    if s.denom != 1 or (linear is not None and linear.denom != 1):
        raise StabilityError("tail series need integer q-exponents")
    if linear is None:
        return TruncatedSeries(1, s.exps,
                               tuple(map(QuasiPolynomial.constant, s.coeffs)),
                               s.order)
    a, b = s.as_dict(), linear.as_dict()
    return TruncatedSeries.make(
        {e: QuasiPolynomial.linear(a.get(e, 0), b.get(e, 0))
         for e in a.keys() | b.keys()}, 1, _min_order(s.order, linear.order))


@dataclass(frozen=True)
class TailSeries:
    """F(n,x,q) truncated to x_order; the k-th entry is phi_k(n,q), a
    TruncatedSeries with integer q-exponents and QuasiPolynomial
    coefficients."""

    residue: tuple[int, int]           # (n0, modulus); (0, 1) = all n
    phis: tuple[TruncatedSeries, ...]
    threshold: Optional[int] = None    # smallest class member where the
                                       # partial-sum defect held empirically

    def phi(self, k: int) -> TruncatedSeries:
        return self.phis[k]

    def scale(self, c: int) -> "TailSeries":
        return TailSeries(self.residue, tuple(p.scaled(c) for p in self.phis),
                          self.threshold)

    def partial_sum(self, n: int, k: int) -> TruncatedSeries:
        """sum_{j<=k} phi_j(n,q) q^(jn)  (the x = q^n substitution)."""
        total = TruncatedSeries.zero()
        for j in range(k + 1):
            total = total + self.phis[j].evaluate(n).shifted(j * n)
        return total

    def agrees_with(self, other: "TailSeries", x_order: int, q_order: int,
                    start: int = 0) -> bool:
        return self.first_disagreement(other, x_order, q_order, start) is None

    def first_disagreement(self, other: "TailSeries", x_order: int,
                           q_order: int, start: int = 0
                           ) -> Optional[tuple[int, int]]:
        """The first (k, e) below x^(x_order+1) q^q_order whose coefficient
        quasi-polynomials differ on {n >= start, n = n0 mod M}, or None.

        A coefficient at or beyond either phi_k's order is unknown, so a
        comparison reaching past the order of their difference raises
        instead of comparing it.
        """
        n0, modulus = self.residue
        zero = QuasiPolynomial.constant(0)
        for k in range(x_order + 1):
            diff = self.phis[k] - other.phis[k]
            if diff.order is not None and q_order > diff.order:
                raise StabilityError("comparison beyond exactness")
            for e, qp in zip(diff.exps, diff.coeffs):
                if e >= q_order:
                    break
                if not qp.equal_on_class(zero, n0, modulus, start):
                    return (k, e)
        return None

    def to_json_obj(self) -> dict:
        """Integral a + b n coefficients go to series_const and
        series_linear_n; every other quasi-polynomial goes whole to
        series_periodic."""
        phis = []
        for k, p in enumerate(self.phis):
            const: dict[int, int] = {}
            linear: dict[int, int] = {}
            extra = []
            for e, qp in zip(p.exps, p.coeffs):
                cs = qp.coeffs[0][1]
                if qp.period == 1 and qp.degree <= 1 and \
                        all(c.denominator == 1 for c in cs):
                    const[e] = int(cs[0])
                    if len(cs) > 1 and cs[1]:
                        linear[e] = int(cs[1])
                else:
                    extra.append([e, qp.to_json_obj()])
            entry: dict = {"k": k, "q_order": p.order,
                           "series_const": TruncatedSeries.make(
                               const, 1, p.order).to_json_obj()}
            if linear:
                entry["series_linear_n"] = TruncatedSeries.make(
                    linear, 1, p.order).to_json_obj()
            if extra:
                entry["series_periodic"] = extra
            phis.append(entry)
        return {"residue": list(self.residue), "phi": phis,
                "threshold": self.threshold}

    @staticmethod
    def from_json_obj(obj: dict) -> "TailSeries":
        phis = []
        for entry in obj["phi"]:
            linear = entry.get("series_linear_n")
            p = qp_series(TruncatedSeries.from_json_obj(entry["series_const"]),
                          None if linear is None
                          else TruncatedSeries.from_json_obj(linear))
            periodic = {int(e): QuasiPolynomial.from_json_obj(qp)
                        for e, qp in entry.get("series_periodic", [])}
            phis.append(p + TruncatedSeries.make(periodic, 1,
                                                 entry["q_order"]))
        return TailSeries(tuple(obj["residue"]), tuple(phis),
                          obj["threshold"])


# -- denominator transforms of tails ------------------------------------------


def lemma_FG_transform(tail: TailSeries, c: int, d: int) -> TailSeries:
    """G = F/(1-q^d x^c): psi_k = sum_{i+jc=k} phi_i q^(jd), computed by the
    recurrence psi_k = phi_k + q^d psi_{k-c} (psi_k = phi_k for k < c)."""
    if c < 1 or d < 0:
        raise ValueError("need c >= 1, d >= 0")
    psis: list[TruncatedSeries] = []
    for k, phi in enumerate(tail.phis):
        psis.append(phi + psis[k - c].shifted(d) if k >= c else phi)
    return TailSeries(tail.residue, tuple(psis), tail.threshold)


def _check_orders(x_name: str, x_order: int, q_order: int) -> None:
    """Reject a tail request with no x-term or no q-term."""
    if x_order < 0:
        raise ValueError(f"{x_name} must be >= 0, got {x_order}")
    if q_order < 1:
        raise ValueError(f"q_order must be >= 1, got {q_order}")


def _tail_quotient(residue: tuple[int, int],
                   numerator: Sequence[TruncatedSeries],
                   factors: Iterable[tuple[int, int]], x_order: int,
                   q_order: int) -> TailSeries:
    """numerator / prod (1 - x^c q^d) over the factors (c, d), through
    x^x_order and below q^q_order.  Division only raises the x-degree, so the
    numerator is cut to its first x_order + 1 phis (missing ones are zero)."""
    phis = list(numerator[:x_order + 1])
    phis += [TruncatedSeries(order=q_order)] * (x_order + 1 - len(phis))
    tail = TailSeries(residue, tuple(phis))
    for c, d in factors:
        if c:
            tail = lemma_FG_transform(tail, c, d)
        else:
            tail = TailSeries(residue, tuple(
                div_binomial_series(p.as_dict(), (d,), 1,
                                    _min_order(p.order, q_order))
                for p in tail.phis))
    return TailSeries(residue, tuple(p.truncated(q_order) for p in tail.phis))


# -- empirical detection ------------------------------------------------------


def jones_family(rs: RootSystem, knot: TorusKnot, ray: Weight,
                 ns: Iterable[int], order: int) -> dict[int, TruncatedSeries]:
    """The exact jets J-hat_n mod q^order of ``jones_jet`` for the colors
    n*ray: detection and the stable coefficients read nothing above them."""
    return {n: jones_jet(rs, knot, tuple(n * c for c in ray), order)
            for n in ns}


def minimal_class_modulus(rs: RootSystem, ray: Weight, a: int, n0: int
                          ) -> tuple[int, Weight, Weight]:
    """Smallest M | a*d on whose class four minimizers step affinely and
    M*(ray - nu1) lands in a*Lambda_r.

    Returns (M, nu1, nu0) with mu_{n*ray,a} = n*nu1 + nu0 on the class
    n = n0 mod M, read off four class members.  The a*Lambda_r test is what
    this function checks, not a proof that the lattice is stable: along the
    class the lattice of mu_n + h steps by M*(a*ray - nu1), an open point of
    ROADMAP item 3.
    """
    ad = a * rs.root_det
    for m in range(1, ad + 1):
        if ad % m:
            continue
        base = n0 if n0 > 0 else n0 + m
        ns = [base + i * m for i in range(4)]
        mus = [minimizer_closed_form(rs, tuple(n * c for c in ray), a)
               for n in ns]
        steps = {tuple(mus[i + 1][j] - mus[i][j] for j in range(rs.rank))
                 for i in range(3)}
        if len(steps) != 1:
            continue
        step = steps.pop()
        if any(s % m for s in step):
            continue
        nu1 = tuple(s // m for s in step)
        nu0 = tuple(mus[0][j] - ns[0] * nu1[j] for j in range(rs.rank))
        diff = tuple(m * (ray[j] - nu1[j]) for j in range(rs.rank))
        if all(c % ad == 0 for c in rs.root_coords_int(diff)):
            return m, nu1, nu0
    raise StabilityError("no stabilizing modulus divides a*d")


def detect_cstability(family: Mapping[int, TruncatedSeries], n0: int,
                      modulus: int, k_max: int, q_order: int) -> TailSeries:
    """Extract phi_0..phi_{k_max} by iterated fit-subtract-shift.

    The q^m coefficient of the stage-k residual equals phi_k's only once
    n > m, so each coefficient is fit on its stabilized suffix (training on
    the last points, the fit must match every stabilized sample); the
    certified order of phi_k is capped by the first power with no stabilized
    sample, and each member's residual is a series whose order, its exactness
    window, shrinks by n per stage.  Asking for q_order beyond the certified
    cap raises a data-horizon error naming the shortfall.
    """
    _check_orders("k_max", k_max, q_order)
    ns = sorted(n for n in family if n % modulus == n0 % modulus)
    if len(ns) < 3:
        raise StabilityError("need at least 3 family members in the class")
    # coefficients this close to a stage's certification cap may rest on too
    # few stabilized samples to pin their n-dependence; later stages must not
    # consume them
    weak_width = 3 * modulus
    residual = {n: family[n] for n in ns}
    if any(f.denom != 1 for f in residual.values()):
        raise StabilityError("family members must have integer exponents")
    phis: list[TruncatedSeries] = []
    for k in range(k_max + 1):
        samples = {n: residual[n].as_dict() for n in ns}
        coeffs: dict[int, QuasiPolynomial] = {}
        cap = 0
        while True:
            clean = [(n, samples[n].get(cap, 0)) for n in ns
                     if n > cap and (residual[n].order is None
                                     or cap < residual[n].order)]
            if not clean:
                break
            try:
                qp = fit_quasi_polynomial(clean, validate_all=True)
            except FitError as exc:
                raise StabilityError(
                    f"c-stability not detected in range at x^{k}, q^{cap}: "
                    f"{exc}") from exc
            if qp:
                coeffs[cap] = qp
            cap += 1
        if cap < q_order:
            raise StabilityError(
                f"data horizon too short: phi_{k} certified only to q^{cap} "
                f"< q^{q_order}; extend the family (n_max must comfortably "
                f"exceed (k+1)*q_order = {(k + 1) * q_order})")
        phi = TruncatedSeries.make(coeffs, 1, cap)
        phis.append(phi)
        if k == k_max:
            break
        trust = cap - weak_width
        for n in ns:
            diff = (residual[n] - phi.evaluate(n)).truncated(trust)
            if diff.exps and diff.exps[0] < n:
                raise StabilityError(
                    f"member n={n} breaks the partial-sum structure at "
                    f"stage {k}: residual term below q^n")
            residual[n] = diff.shifted(-n)
    tail = TailSeries((n0 % modulus, modulus), tuple(phis))
    threshold = _defect_threshold(family, tail, ns, k_max, q_order)
    return TailSeries(tail.residue,
                      tuple(p.truncated(q_order) for p in tail.phis),
                      threshold)


def _defect_threshold(family: Mapping[int, TruncatedSeries], tail: TailSeries,
                      ns: Sequence[int], k_max: int, q_order: int
                      ) -> Optional[int]:
    """Smallest class member from which the partial-sum defect inequality
    delta*(f_n - sum_{j<=k} phi_j q^{jn}) > k(n+1) holds for all k <= k_max.

    Stages whose truncation horizon cannot reach the bound k(n+1) (large n,
    deep k) are uncheckable and skipped; a violation inside a certified
    horizon stops the scan.  Each member keeps one running defect,
    defect_k = defect_{k-1} - phi_k(n) q^(kn), so no partial sum is rebuilt.
    """
    good_from = None
    for n in sorted(ns, reverse=True):
        ok = True
        defect = family[n]
        for k in range(k_max + 1):
            defect = defect - tail.phis[k].evaluate(n).shifted(k * n)
            horizon = defect.order_exponent()
            bound = k * (n + 1)
            if horizon is not None and horizon <= bound:
                continue  # uncheckable at this truncation
            if defect.exps and defect.min_degree() <= bound:
                ok = False
                break
        if ok:
            good_from = n
        else:
            break
    return good_from


def detect_jones_tail(rs: RootSystem, knot: TorusKnot, ray: Weight, n0: int,
                      n_max: int, k_max: int, q_order: int) -> TailSeries:
    """End-to-end detection for the family J-hat_{T(a,b), n*ray}."""
    modulus, _, _ = minimal_class_modulus(rs, ray, knot.a, n0)
    ns = range(n0 % modulus or modulus, n_max + 1, modulus)
    # detection reads below q^max(ns) only: stage 0 reads q^m for m < n, later
    # stages are capped below cap_0 = max(ns), and so is the defect horizon
    fam = jones_family(rs, knot, ray, ns, order=max(ns, default=1))
    return detect_cstability(fam, n0, modulus, k_max, q_order)


# -- structural tail: the stable-limit lattice sum ----------------------------


def tail_eval_stable_limit(rs: RootSystem, knot: TorusKnot, ray: Weight,
                           n0: int, x_order: int, q_order: int, n_max: int
                           ) -> TailSeries:
    """Evaluate the lattice-sum limit tail on a residue class.

    Sums t(n, h) q^{Q(h)} x^{L(h)} prod_alpha (1 - q^{(h+nu0+rho, alpha)}
    x^{(nu1, alpha)}) over the tangent cone of the shifted hull, with t
    fitted as a quasi-polynomial of the plethysm multiplicities, then divides
    by prod_alpha (1 - x^{(ray,alpha)} q^{(rho,alpha)}).

    Exponents are integer numerators over D = 2*a*gram_scale, as in
    ``jones``: D*Q(h) is D*f*(nu0+h) - D*f*(nu0), the quadratic of
    ``jones._degree_quadratic`` re-centred at nu0, and D*L(h) = 2b (h, nu1)
    in the scaled inner product.  The root product is the Weyl denominator
    identity ``jones._assemble`` uses, applied to
    alpha -> q^{(v,alpha)} x^{(nu1,alpha)} with v = h+nu0+rho:
    the sum over sigma of (-1)^sigma q^{(v,w)} x^{(nu1,w)} with
    w = rho - sigma(rho).

    The cone is scanned by rows h = (u1, u2), u1 and then u2 increasing,
    from mu_i = 0 where the cone requires mu_i >= 0.  A summand needs
    D*Q(h) + low(v) < D*q_order, low(v) the sum of min(0, 2a (v, alpha)).
    With low bounded by its row value plus a linear term on each side of
    u2 = 0, a row is where one of two convex quadratics in u2 is below
    D*q_order (``qseries._negative_range``); their minima over u2 bound u1.
    """
    _check_orders("x_order", x_order, q_order)
    a, b = knot.a, knot.b
    rho = rs.rho
    roots = rs.positive_roots
    modulus, nu1, nu0 = minimal_class_modulus(rs, ray, a, n0)
    ns = list(range(n0 % modulus or modulus, n_max + 1, modulus))
    if len(ns) < 4:
        raise StabilityError("need at least 4 class members below n_max")
    split = max(3, len(ns) // 2)
    d = _exponent_denominator(rs, knot)
    # D*Q(h) = D*f*(nu0 + h) - D*f*(nu0)
    #        = c11 u1^2 + c12 u1 u2 + c22 u2^2 + l1 u1 + l2 u2,
    # (l1, l2) the gradient of D*f* at nu0
    c11, c12, c22, cx, cy, _ = _degree_quadratic(rs, knot, ray, -1)
    l1 = 2 * c11 * nu0[0] + c12 * nu0[1] + cx
    l2 = c12 * nu0[0] + 2 * c22 * nu0[1] + cy
    q_hat = (c11, c12, c22, l1, l2, 0)

    # tangent-cone constraints (the n-independent inequalities)
    floor = [-nu0[i] if nu1[i] == 0 else -inf for i in range(2)]  # mu_i >= 0
    rc_top = rs.root_coords_int(tuple(a * ray[i] - nu1[i] for i in range(2)))
    if any(c < 0 for c in rc_top):
        raise StabilityError("minimizer ray leaves the rescaled polytope")
    poly_req = [i for i in range(2) if rc_top[i] == 0]

    # lattice membership, checked at two class members for stability: h is
    # in the lattice when mu_n + h is on L_{lambda_n,a}
    members = []
    for n in ns[:2]:
        lam_n = tuple(n * c for c in ray)
        members.append((lattice_hull(rs, lam_n, a),
                        minimizer_closed_form(rs, lam_n, a)))

    def in_lattice(hat: Weight) -> bool:
        votes = [hull.in_lattice((mu_n[0] + hat[0], mu_n[1] + hat[1]))
                 for hull, mu_n in members]
        if votes[0] != votes[1]:
            raise StabilityError("lattice membership not stable on the class")
        return votes[0]

    def samples(mu: Weight, members: Sequence[int]) -> list[tuple[int, int]]:
        """(n, m^{mu + n*nu1}_{n*ray, a}) over the class members."""
        return [(n, plethysm_mult(rs, (n * ray[0], n * ray[1]), a,
                                  (mu[0] + n * nu1[0], mu[1] + n * nu1[1])))
                for n in members]

    top = d * q_order

    def low(v: Weight) -> int:
        return sum(min(0, 2 * a * rs.inner_int(v, al)) for al in roots)

    v0 = (nu0[0] + rho[0], nu0[1] + rho[1])
    # low(u e) is u*low(e) for u >= 0 and -u*low(-e) for u <= 0
    sides = (low((0, 1)), -low((0, -1)))
    u1_runs = [_negative_range(
        4 * c22 * c11 - c12 * c12, 4 * c22 * (l1 + r) - 2 * c12 * (l2 + s),
        4 * c22 * (low(v0) - top) - (l2 + s) ** 2)
        for r in (low((1, 0)), -low((-1, 0))) for s in sides]

    summands = []
    for u1 in sorted(u for u in set().union(*u1_runs) if u >= floor[0]):
        const = _degree_value(q_hat, (u1, 0)) + low((v0[0] + u1, v0[1])) - top
        runs = [_negative_range(c22, c12 * u1 + l2 + s, const) for s in sides]
        for u2 in sorted(u for u in set().union(*runs) if u >= floor[1]):
            hat = (u1, u2)
            mu = (nu0[0] + u1, nu0[1] + u2)
            rc = rs.root_coords_int(mu)
            qn = _degree_value(q_hat, hat)
            v = (mu[0] + rho[0], mu[1] + rho[1])
            if any(rc[i] > 0 for i in poly_req) or qn + low(v) >= top \
                    or not in_lattice(hat):
                continue
            xn = 2 * b * rs.inner_int(hat, nu1)
            integral = xn % d == 0 and xn >= 0
            if integral and xn > x_order * d:
                continue
            # the late members decide vanishing; the early ones are sampled
            # only for the points that survive
            late = samples(mu, ns[-split:])
            if not any(m for _, m in late):
                continue  # multiplicity eventually vanishes on this ray
            if not integral:
                # eventually-nonzero multiplicities here would break the
                # tail form; small-n junk is pre-asymptotic and fine
                raise StabilityError(
                    f"summand at {hat} has x-exponent {Fraction(xn, d)}")
            if qn % d:
                raise StabilityError(f"non-integral tail exponent at {hat}")
            try:
                t_fit = fit_quasi_polynomial(samples(mu, ns[:-split]) + late)
            except FitError as exc:
                raise StabilityError(
                    f"tail multiplicity at {hat} not quasi-polynomial: {exc}"
                ) from exc
            summands.append((qn // d, xn // d, v, t_fit))

    acc: list[dict[int, QuasiPolynomial]] = [{} for _ in range(x_order + 1)]
    for qe, xe, v, t_fit in summands:
        signed = {1: t_fit, -1: -t_fit}
        for w, sign in rs.orbit_pairs:
            qw, xw = 2 * a * rs.inner_int(v, w), 2 * a * rs.inner_int(nu1, w)
            if qw % d or xw % d:
                raise StabilityError("non-integral exponent in tail product")
            k, e = xe + xw // d, qe + qw // d
            if k <= x_order and e < q_order:
                c = signed[sign]
                acc[k][e] = acc[k][e] + c if e in acc[k] else c
    # divide by prod (1 - x^{(ray,alpha)} q^{(rho,alpha)})
    factors = []
    for al in roots:
        xc, xr = divmod(rs.inner_int(ray, al), rs.gram_scale)
        qd, qr = divmod(rs.inner_int(rho, al), rs.gram_scale)
        if xr or qr or xc < 0:
            raise StabilityError("non-integral prefactor exponents")
        factors.append((xc, qd))
    return _tail_quotient((n0 % modulus, modulus), [
        TruncatedSeries.make(terms, 1, q_order) for terms in acc], factors,
        x_order, q_order)


# -- closed forms -------------------------------------------------------------


def tail_closed_T2b(b: int, x_order: int, q_order: int) -> TailSeries:
    """(theta_{b,b/2-1}(1+q^3 x^2) + q^3 theta_{b,b/2+2} x) /
    ((1-q)(1-qx)(1-q^2 x)) for odd b > 2: the tail of the even n, residue
    (0, 2); the odd n have -1 times it."""
    if b % 2 == 0 or b <= 2:
        raise ValueError("need odd b > 2")
    _check_orders("x_order", x_order, q_order)
    th1 = theta(b, Fraction(b, 2) - 1, q_order)
    th2 = theta(b, Fraction(b, 2) + 2, q_order)
    return _tail_quotient((0, 2), [qp_series(th1), qp_series(th2.shifted(3)),
                                   qp_series(th1.shifted(3))],
                          [(0, 1), (1, 1), (1, 2)], x_order, q_order)


def t4b_series(b: int, q_order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(A_{b,0}, A_{b,1}): the constant and linear parts of the T(4,b) tail
    numerator, as explicit lattice double sums (odd b > 4)."""
    if b % 2 == 0 or b <= 4:
        raise ValueError("need odd b > 4")
    rs = get_root_system("A2")
    # twelve times the exponents; a0 holds twelve times its coefficients
    a0: dict[int, int] = {}
    a1: dict[int, int] = {}
    top = 12 * q_order

    def run(c1: int, c0: int, r: int, m: int) -> range:
        """The u >= 0 with u = r mod m and b u^2 + c1 u + c0 < 0."""
        row = _negative_range(b, c1, c0)
        lo = max(row.start, 0)
        return range(lo + (r - lo) % m, row.stop, m)

    # e(u) = b (u1^2 + u1 u2 + u2^2) + (3b - 12)(u1 + u2) grows in u2 >= 0,
    # so u1 runs below the root of e(u1, 0) = top and u2 over its row
    for (s, t), sign in rs.orbit_pairs:
        for u1 in run(3 * b - 12, -top, -s, 4):
            e1 = b * u1 * u1 + (3 * b - 12) * u1
            for u2 in run(b * u1 + 3 * b - 12, e1 - top, u1 - t + s, 12):
                e = e1 + u2 * (b * u2 + b * u1 + 3 * b - 12)
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
    if any(e % 12 for e in a1) or any(c % 12 for c in a0.values()):
        raise StabilityError("non-integral T(4,b) tail data")
    s0 = TruncatedSeries.make({e // 12: c // 12 for e, c in a0.items()},
                              1, q_order)
    s1 = TruncatedSeries.make({e // 12: c for e, c in a1.items()}, 1, q_order)
    return s0, s1


def tail_closed_T4b(b: int, x_order: int, q_order: int) -> TailSeries:
    """(A_{b,0} + n A_{b,1}) / ((1-xq)^2 (1-x^2 q^2)) for odd b > 4."""
    _check_orders("x_order", x_order, q_order)
    a0, a1 = t4b_series(b, q_order)
    return _tail_quotient((0, 1), [qp_series(a0, linear=a1)],
                          [(1, 1), (1, 1), (2, 2)], x_order, q_order)


def a1_theta_difference(b: int, q_order: int) -> TruncatedSeries:
    """A_{b,1} = (q)_inf (theta_{15,1/2} + q^3 theta_{15,19/2}) for b = 5.

    The printed form subtracts a second unary theta sum over n in 3/5+Z.
    With n = (5m+3)/5 its terms are (-1)^(5m+3) q^((3m+2)(5m+3)/2), that is
    -(-1)^m q^((15 m^2 + 19 m + 6)/2), so subtracting it adds q^3
    theta_{15,19/2}.  Pinned against the lattice-sum form of the series.
    """
    if b != 5:
        raise ValueError("the printed theta-difference form is for b = 5")
    th1 = theta(15, Fraction(1, 2), q_order)
    th2 = theta(15, Fraction(19, 2), q_order)
    return (euler_phi(q_order) * (th1 + th2.shifted(3))).truncated(q_order)


def a1_triple_product(b: int, q_order: int) -> TruncatedSeries:
    """A_{b,1} via the quintuple of Pochhammer products printed for b = 5."""
    if b != 5:
        raise ValueError("the printed product form is for b = 5")
    p1 = pochhammer(7, q_order, 15) * pochhammer(8, q_order, 15) \
        * pochhammer(15, q_order, 15)
    p2 = pochhammer(13, q_order, 15) * pochhammer(15, q_order, 15) \
        * pochhammer(17, q_order, 15)
    corr = TruncatedSeries.make({1: 1, 3: -1})  # q(1-q^2)
    inner = p1 - (corr * p2).truncated(q_order)
    return (euler_phi(q_order) * inner).truncated(q_order)
