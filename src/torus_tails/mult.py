"""Weight and plethysm multiplicities, summation sets, hulls, missing points.

The production paths are the Kostant alternating sum for weight
multiplicities and the Weyl-group alternating sum for plethysm
multiplicities.  Each has an independent oracle: Freudenthal's recursion for
weights, and an Adams-operation character peeling for plethysms.  The
Freudenthal table runs on the dominant weights alone, reading each string
step at its dominant conjugate, so neither oracle builds a weight system.

Everything runs on the integer kernel of ``lie``: root coordinates scaled by
``root_det`` and inner products scaled by ``gram_scale``.  Every weight
multiplicity (``weight_mult``, ``plethysm_mult``, ``summation_set`` and the
jet kernel of ``jones``) is one integer Kostant sum, ``_kostant_sum``, at
any weight, over the bounded per-lambda table ``_kostant_tops``; no
multiplicity is kept in a process-wide table.  One scatter,
``_summation_scatter``, scans the dominant nu <= lambda only, takes
m_lambda^nu once for each, and adds sign * m_lambda^nu at
mu = a*nu' - (rho - sigma(rho)) over the W-images nu' of nu (formed only
near the walls, where one can land) and the orbit pairs, so it needs no
weight system and no per-point Weyl-group sum.  ``colored_jones`` and
``missing_points`` read its unsorted dict; ``summation_set`` sorts it.
``plethysm_mult`` is the per-point route.  The lattice L_{lambda,a} is held
as residues of integer root coordinates mod a*root_det (``LatticeHull``),
and the hull points are the dominant weights of V_(a*lambda) on it.  The
Adams oracle peels psi_a(ch_lambda) once per (lambda, a) into a table kept
in a bounded cache, and so are the Freudenthal tables it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

# OracleLimitError lives in kostant, whose DP guard raises it too
from .kostant import OracleLimitError, kostant
from .lie import LieError, RootSystem, Weight, _mat_apply
from .quasipoly import QuasiPolynomial, fit_quasi_polynomial


# -- weight multiplicities ---------------------------------------------------


def weight_mult(rs: RootSystem, lam: Weight, mu: Weight) -> int:
    """m_lambda^mu via the Kostant multiplicity formula, at any weight mu."""
    if not rs.is_dominant(lam):
        raise LieError("highest weight must be dominant")
    return _kostant_sum(rs, _kostant_tops(rs, lam), rs.root_coords_int(mu))


def _kostant_sum(rs: RootSystem, tops: tuple[tuple[Weight, int], ...],
                 rc: Weight) -> int:
    """m_lambda^nu by Kostant's formula, valid at every weight nu.

    tops is ``_kostant_tops(rs, lambda)`` and rc is root_coords_int(nu):
    the sum of sign * P((top - rc)/root_det) over the entries whose
    difference is a nonnegative root-lattice vector, P the partition
    function.
    """
    d = rs.root_det
    total = 0
    if rs.rank == 1:
        (r0,) = rc
        for (t0,), sign in tops:
            u = t0 - r0
            if u >= 0 and not u % d:
                total += sign * kostant(rs, (u // d,))
        return total
    r0, r1 = rc
    for (t0, t1), sign in tops:
        u = t0 - r0
        v = t1 - r1
        if u >= 0 and v >= 0 and not u % d and not v % d:
            total += sign * kostant(rs, (u // d, v // d))
    return total


@lru_cache(maxsize=64)
def _kostant_tops(rs: RootSystem, lam: Weight
                  ) -> tuple[tuple[Weight, int], ...]:
    """(root_coords_int(sigma(lambda+rho) - rho), (-1)^sigma) over the Weyl
    group: the Kostant argument at mu is the first entry minus rc(mu)."""
    rho = rs.rho
    lr = tuple(lam[i] + rho[i] for i in range(rs.rank))
    return tuple((rs.root_coords_int(tuple(
        c - r for c, r in zip(_mat_apply(mat, lr), rho))), sign)
        for mat, sign in rs.weyl_elements)


def weight_mult_freudenthal(rs: RootSystem, lam: Weight, mu: Weight) -> int:
    """Independent oracle: Freudenthal's recursion from the top weight."""
    if not rs.is_dominant(lam):
        raise LieError("highest weight must be dominant")
    return _freudenthal_table(rs, lam).get(rs.dominant_conjugate(mu), 0)


# the Adams peel of one (lambda, a) reads a table per peeled top, and the
# peels of a grid share them: criterion 7 at max_m = 4 meets 259 distinct
# tables and G2 on [0, 5]^2 at a = 2..5 meets 719 (about 50 MB)
@lru_cache(maxsize=1024)
def _freudenthal_table(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Multiplicities of every dominant weight of V_lambda, computed once.

    Runs on the dominant weights alone, in decreasing shifted norm
    |w+rho|^2 (scaled integers: the Gram scale cancels in 2*num/den).  A
    string step w + j*alpha (j > 0, alpha > 0, w dominant) has a larger
    shifted norm than w, and so has its dominant conjugate, which is
    therefore in the table if it is a weight of V_lambda at all.  The
    alpha-strings of V_lambda are unbroken, so the first step whose
    conjugate is missing ends the string: no weight system is built.
    """
    rho = rs.rho
    norms = {w: rs.norm2_int(tuple(c + r for c, r in zip(w, rho)))
             for w in rs.dominant_weights(lam)}
    top = norms[lam]
    roots = [(alpha, rs.norm2_int(alpha)) for alpha in rs.positive_roots]
    # the simple reflections on the rank-2 coordinates:
    # s_0(x, y) = (-x, y + c0*x), s_1(x, y) = (x + c1*y, -y)
    c0, c1 = (-rs.simple_roots[0][1], -rs.simple_roots[1][0]) \
        if rs.rank == 2 else (0, 0)
    table = {lam: 1}    # lam alone has the largest shifted norm
    for w in sorted(norms, key=norms.get, reverse=True)[1:]:
        num = 0
        for alpha, step in roots:
            # (w + j alpha, alpha) = (w, alpha) + j (alpha, alpha)
            pairing = rs.inner_int(w, alpha)
            if rs.rank == 1:
                (x,), (s,) = w, alpha
                while True:
                    x += s
                    m = table.get((abs(x),))
                    if m is None:
                        break
                    pairing += step
                    num += m * pairing
                continue
            (x, y), (s, t) = w, alpha
            while True:
                x += s
                y += t
                u, v = x, y
                while u < 0 or v < 0:
                    if u < 0:
                        u, v = -u, v + c0 * u
                    else:
                        u, v = u + c1 * v, -v
                m = table.get((u, v))
                if m is None:
                    break
                pairing += step
                num += m * pairing
        val, rem = divmod(2 * num, top - norms[w])
        assert rem == 0
        table[w] = val
    return table


# -- plethysm multiplicities -------------------------------------------------


def plethysm_mult(rs: RootSystem, lam: Weight, a: int, mu: Weight) -> int:
    """m^mu_{lambda,a}: signed sum over sigma with (mu+rho-sigma(rho))/a in
    the weight lattice (exact integer divisibility in weight coordinates)."""
    if a < 2:
        raise ValueError("Adams parameter a must be >= 2")
    if not rs.is_dominant(lam):
        raise LieError("highest weight must be dominant")
    tops = _kostant_tops(rs, lam)
    if rs.rank == 1:
        return sum(sign * _kostant_sum(rs, tops, rs.root_coords_int(
            ((mu[0] + w0) // a,))) for (w0,), sign in rs.orbit_pairs()
            if not (mu[0] + w0) % a)
    total = 0
    m0, m1 = mu
    for (w0, w1), sign in rs.orbit_pairs():
        c0, c1 = m0 + w0, m1 + w1
        if not c0 % a and not c1 % a:
            total += sign * _kostant_sum(
                rs, tops, rs.root_coords_int((c0 // a, c1 // a)))
    return total


def plethysm_adams_oracle(rs: RootSystem, lam: Weight, a: int, mu: Weight,
                          max_weights: int = 60000) -> int:
    """Decompose psi_a(ch_lambda) by greedy highest-weight peeling.

    Uses only Freudenthal multiplicities, staying independent of the
    Weyl-alternating production path.  The size guard, |Pi_lambda| counted
    over the dominant weights, runs on every call; the peel runs once per
    (lambda, a).
    """
    if a < 2:
        raise ValueError("Adams parameter a must be >= 2")
    if rs.weight_count(lam) > max_weights:
        raise OracleLimitError("oracle size limit")
    return _adams_table(rs, lam, a).get(mu, 0)


@lru_cache(maxsize=64)
def _adams_table(rs: RootSystem, lam: Weight, a: int) -> dict[Weight, int]:
    """Multiplicity of every irreducible V_mu in psi_a(ch_lambda).

    psi_a(ch_lambda) = sum_nu m_lambda^nu e^(a nu) is W-invariant, so its
    dominant part, m_lambda^nu at a*nu for dominant nu, determines it.
    Peeling c * ch(V_top) changes only dominant weights below top, all of
    them dominant weights of V_(a lambda); one pass over those in decreasing
    height (w, rho) therefore meets each top after everything above it.
    """
    top = tuple(a * c for c in lam)
    rho = rs.rho
    virtual = {tuple(a * c for c in nu): m
               for nu, m in _freudenthal_table(rs, lam).items()}
    order = sorted(_freudenthal_table(rs, top),
                   key=lambda w: (rs.inner_int(w, rho), w), reverse=True)
    result: dict[Weight, int] = {}
    for w in order:
        c = virtual.get(w, 0)
        if c:
            result[w] = c
            for nu, m in _freudenthal_table(rs, w).items():
                virtual[nu] = virtual.get(nu, 0) - c * m
    return result


# -- the summation set and its lattice hull ----------------------------------


def summation_set(rs: RootSystem, lam: Weight, a: int) -> dict[Weight, int]:
    """S_{lambda,a} with plethysm multiplicities, sorted by mu.

    Defined geometrically: union over sigma of sigma(rho)-rho + a*Pi_lambda,
    intersected with the dominant cone.  The multiplicities are scattered
    over the same pairs: mu = a*nu - (rho - sigma(rho)) receives
    (-1)^sigma * m_lambda^nu, and these sum to the ``plethysm_mult`` identity
    at every mu.  Members whose multiplicity cancels to 0 are retained (the
    set is support-agnostic).
    """
    return dict(sorted(_summation_scatter(rs, lam, a).items()))


def _summation_scatter(rs: RootSystem, lam: Weight, a: int
                       ) -> dict[Weight, int]:
    """``summation_set`` unsorted, members of multiplicity 0 included.

    The scan runs over the dominant nu <= lambda only (``dominant_weights``)
    and computes m_lambda^nu once for each by ``_kostant_sum``, so no weight
    system is built and no table outlives the call.  Each distinct W-image
    of nu with a*nu' >= low, low the smallest coordinate of any orbit
    shift, is scattered.  An image sigma(nu) != nu has a coordinate
    -(nu, beta^vee) <= -min(nu) for some positive coroot beta^vee, so away
    from the walls, where a*min(nu) > -low, nu alone can land and its
    images are not formed.
    """
    if not rs.is_dominant(lam):
        raise LieError("highest weight must be dominant")
    if a < 2:
        raise ValueError("Adams parameter a must be >= 2")
    pairs = rs.orbit_pairs()
    # a*nu_i - w_i >= 0 for some pair needs a*nu_i >= min(w_i)
    low = min(c for w, _ in pairs for c in w)
    tops = _kostant_tops(rs, lam)
    mats = [mat for mat, _ in rs.weyl_elements]
    out: dict[Weight, int] = {}
    for nu in rs.dominant_weights(lam):
        m = _kostant_sum(rs, tops, rs.root_coords_int(nu))
        images = (nu,) if a * min(nu) > -low else \
            {_mat_apply(mat, nu) for mat in mats}
        for image in images:
            if a * min(image) < low:
                continue
            if rs.rank == 1:
                x = a * image[0]
                for (w0,), sign in pairs:
                    if x >= w0:
                        mu = (x - w0,)
                        out[mu] = out.get(mu, 0) + sign * m
                continue
            x, y = a * image[0], a * image[1]
            for (w0, w1), sign in pairs:
                u, v = x - w0, y - w1
                if u >= 0 and v >= 0:
                    out[u, v] = out.get((u, v), 0) + sign * m
    return out


@dataclass(frozen=True)
class LatticeHull:
    """L_{lambda,a} (cap) P_{a*lambda}.

    L_{lambda,a} is the union over the orbit pairs w of the translates
    a*lambda - w + a*Lambda_r.  ``residues`` holds root_coords_int(a*lambda
    - w) mod a*root_det for each w, so membership is one residue lookup.
    """

    rs: RootSystem
    lam: Weight
    a: int
    residues: frozenset[Weight]

    def in_lattice(self, mu: Weight) -> bool:
        step = self.rs.root_det * self.a
        return tuple(c % step for c in self.rs.root_coords_int(mu)) \
            in self.residues

    def points(self) -> tuple[Weight, ...]:
        """All dominant lattice points of the hull, sorted.

        Every translate lies in a*lambda + Lambda_r (w is in Lambda_r), so
        the dominant hull points are the dominant mu <= a*lambda on the
        lattice.
        """
        top = tuple(self.a * c for c in self.lam)
        return tuple(mu for mu in self.rs.dominant_weights(top)
                     if self.in_lattice(mu))


def lattice_hull(rs: RootSystem, lam: Weight, a: int) -> LatticeHull:
    if not rs.is_dominant(lam):
        raise LieError("highest weight must be dominant")
    step = a * rs.root_det
    return LatticeHull(rs, lam, a, frozenset(
        tuple(c % step for c in rs.root_coords_int(
            tuple(a * lam[i] - w[i] for i in range(rs.rank))))
        for w, _ in rs.orbit_pairs()))


def missing_points(rs: RootSystem, lam: Weight, a: int) -> tuple[Weight, ...]:
    """R_{lambda,a} = (hull points) minus S_{lambda,a}."""
    hull = lattice_hull(rs, lam, a)
    s = _summation_scatter(rs, lam, a)
    return tuple(mu for mu in hull.points() if mu not in s)


def missing_point_bound_check(rs: RootSystem, lam: Weight, a: int,
                              n_range: Iterable[int]) -> dict:
    """Check (mu^,mu^) + 2(mu^, mu_min) >= n^2 over every missing point.

    Returns the per-n missing counts and the minimum slack; raises with a
    witness on violation (that would indicate a hull or normalization bug).
    """
    from .jones import minimizer_closed_form

    if rs.rank != 2:
        raise LieError("bound check is for the rank-2 algebras")
    report = {"algebra": rs.name, "lambda": lam, "a": a, "per_n": {},
              "min_slack": None}
    # scaled by gram_scale throughout; divided once for the report
    scale = rs.gram_scale
    min_slack: Optional[int] = None
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


# -- G2 zero-weight closed forms ---------------------------------------------

_G2_C10 = {0: Fraction(1, 4), 1: Fraction(17, 36), 2: Fraction(25, 36)}
_G2_C01 = {0: Fraction(1, 12), 1: Fraction(-13, 36), 2: Fraction(-29, 36)}
_G2_C00_EVEN = {0: Fraction(1), 1: Fraction(29, 72), 2: Fraction(5, 9),
                3: Fraction(5, 8), 4: Fraction(7, 9), 5: Fraction(13, 72)}
_G2_C00_ODD = {0: Fraction(5, 8), 1: Fraction(29, 72), 2: Fraction(13, 72),
               3: Fraction(5, 8), 4: Fraction(29, 72), 5: Fraction(13, 72)}


def g2_zero_weight_mult(u: int, v: int) -> int:
    """m_lambda^0 for G2 with lambda = u*alpha1 + v*alpha2 dominant.

    Quartic quasi-polynomial; both periodic linear coefficients are functions
    of u mod 3, and the odd-v constant table is periodic in u mod 3 (the
    u=1 mod 6 entry reads 29/72, not the printed 5/18).  Exhaustively
    cross-checked against the Kostant evaluation in the tests.
    """
    base = Fraction(u**4, 9) - Fraction(29 * u**3 * v, 36) \
        - Fraction(7 * u**3, 36) + Fraction(17 * u**2 * v**2, 8) \
        + Fraction(2 * u**2 * v, 3) - Fraction(19 * u**2, 24) \
        - Fraction(29 * u * v**3, 12) - Fraction(u * v**2, 2) + 3 * u * v \
        + v**4 - Fraction(v**3, 12) - Fraction(21 * v**2, 8)
    base += _G2_C10[u % 3] * u + _G2_C01[u % 3] * v
    base += _G2_C00_EVEN[u % 6] if v % 2 == 0 else _G2_C00_ODD[u % 6]
    if base.denominator != 1:
        raise ArithmeticError(f"G2 zero-weight closed form non-integral at "
                              f"({u},{v})")
    return int(base)


def g2_plethysm_zero_a3(u: int, v: int) -> int:
    """m^0_{lambda,3} for G2, lambda = u*alpha1 + v*alpha2 dominant."""
    base = -u * u + Fraction(7 * u * v, 2) + Fraction(u, 2) - 3 * v * v \
        - Fraction(v, 2)
    if v % 2 == 1:
        base += Fraction(1, 2)
    elif u % 2 == 1:
        base += Fraction(1, 2)
    else:
        base += 1
    if base.denominator != 1:
        raise ArithmeticError(f"G2 a=3 closed form non-integral at ({u},{v})")
    return int(base)


# -- quasi-polynomial structure of the multiplicities ------------------------


def plethysm_sequence(rs: RootSystem, lam: Weight, a: int, mu_hat: Weight,
                      nu: Weight, ns: Sequence[int]) -> list[tuple[int, int]]:
    """Samples of n -> m^{mu_hat + n*nu}_{n*lambda, a}."""
    out = []
    for n in ns:
        ln = tuple(n * c for c in lam)
        target = tuple(mu_hat[i] + n * nu[i] for i in range(rs.rank))
        out.append((n, plethysm_mult(rs, ln, a, target)))
    return out


def plethysm_quasipoly_fit(rs: RootSystem, lam: Weight, a: int,
                           mu_hat: Weight, nu: Weight, n_max: int,
                           n_min: int = 1, modulus: int = 1, n0: int = 0,
                           max_period: int = 24) -> QuasiPolynomial:
    """Fit n -> m^{mu_hat+n*nu}_{n*lambda,a} on a residue class of n."""
    if rs.rank != 2:
        raise LieError("plethysm fitting is for the rank-2 algebras")
    ns = [n for n in range(n_min, n_max + 1) if (n - n0) % modulus == 0]
    samples = plethysm_sequence(rs, lam, a, mu_hat, nu, ns)
    return fit_quasi_polynomial(samples, max_period=max_period,
                                require_integer_values=True)
