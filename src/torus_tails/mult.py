"""Weight and plethysm multiplicities, summation sets, hulls, missing points.

The production paths are the Kostant alternating sum for weight
multiplicities and the Weyl-group alternating sum for plethysm
multiplicities.  Each has an independent oracle: Freudenthal's recursion for
weights, and an Adams-operation character peeling for plethysms.  The
Freudenthal table runs on the dominant weights alone, reading each string
step at its dominant conjugate, so neither oracle builds a weight system.

Everything runs on the integer kernel of ``lie``: root coordinates scaled by
``root_det`` and inner products scaled by ``gram_scale``.  Every weight
multiplicity (``weight_mult``, ``plethysm_mult`` and ``scatter_rows``) is
one integer Kostant sum, ``_kostant_sum``, at any weight, over the bounded
per-lambda table ``_kostant_tops``; one divisibility test on its first top
returns 0 off lambda's root-lattice coset.  No multiplicity is kept in a
process-wide table.  ``scatter_rows`` is the one scatter of the
``plethysm_mult`` identity: row by row of the dominant cone, up to row ends
its caller gives, it adds sign * m_lambda^nu at mu = a*nu - (rho -
sigma(rho)) over the orbit pairs, so it needs no weight system and no
per-point Weyl-group sum.  ``colored_jones`` reads its rows over the
polytope of dominant mu <= a*lambda, and the jets over a ball of f*.
``summation_set`` keys the same polytope rows by mu, unsorted, for
``missing_points``, the brute-force extremizers and the CLI, which alone
sorts it, to print it.  ``plethysm_mult`` is the per-point route.  The lattice
L_{lambda,a} is held as residues of integer root coordinates mod
a*root_det (``LatticeHull``), and its one membership test, ``in_lattice``,
is the one the stable limit reads too; the hull points are the dominant
weights of V_(a*lambda) on it.  The
Adams oracle peels psi_a(ch_lambda) once per (lambda, a) into a table kept
in a bounded cache, and so are the Freudenthal tables it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# OracleLimitError lives in kostant, whose DP guard raises it too
from .kostant import OracleLimitError, kostant
from .lie import LieError, RootSystem, Weight, _mat_apply

# the Adams oracle's guard: the largest |Pi_lambda| it peels
MAX_ORACLE_WEIGHTS = 60000


# -- weight multiplicities ---------------------------------------------------


def weight_mult(rs: RootSystem, lam: Weight, mu: Weight) -> int:
    """m_lambda^mu via the Kostant multiplicity formula, at any weight mu."""
    if not rs.is_dominant(lam):
        raise LieError("highest weight must be dominant")
    rs.check_weight(mu)
    return _kostant_sum(rs, _kostant_tops(rs, lam), rs.root_coords_int(mu))


def _kostant_sum(rs: RootSystem, tops: tuple[tuple[Weight, int], ...],
                 rc: Weight) -> int:
    """m_lambda^nu by Kostant's formula, valid at every weight nu.

    tops is ``_kostant_tops(rs, lambda)`` and rc is root_coords_int(nu):
    the sum of sign * P((top - rc)/root_det) over the entries whose
    difference is a nonnegative root-lattice vector, P the partition
    function.  Every top sigma(lambda+rho) - rho lies in lambda + Q, so the
    first top decides for all of them whether nu is on the coset of lambda;
    off it the sum is 0, on it only the signs of the differences are tested.
    """
    d = rs.root_det
    total = 0
    r0, r1 = rc
    (t0, t1), _ = tops[0]
    if (t0 - r0) % d or (t1 - r1) % d:
        return 0
    for (t0, t1), sign in tops:
        if t0 >= r0 and t1 >= r1:
            total += sign * kostant(rs, ((t0 - r0) // d, (t1 - r1) // d))
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
    rs.check_weight(mu)
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
    c0, c1 = -rs.simple_roots[0][1], -rs.simple_roots[1][0]
    table = {lam: 1}    # lam alone has the largest shifted norm
    for w in sorted(norms, key=norms.get, reverse=True)[1:]:
        num = 0
        for alpha, step in roots:
            # (w + j alpha, alpha) = (w, alpha) + j (alpha, alpha)
            pairing = rs.inner_int(w, alpha)
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
    rs.check_weight(mu)
    tops = _kostant_tops(rs, lam)
    total = 0
    m0, m1 = mu
    for (w0, w1), sign in rs.orbit_pairs:
        c0, c1 = m0 + w0, m1 + w1
        if not c0 % a and not c1 % a:
            total += sign * _kostant_sum(
                rs, tops, rs.root_coords_int((c0 // a, c1 // a)))
    return total


def plethysm_adams_oracle(rs: RootSystem, lam: Weight, a: int, mu: Weight
                          ) -> int:
    """Decompose psi_a(ch_lambda) by greedy highest-weight peeling.

    Uses only Freudenthal multiplicities, staying independent of the
    Weyl-alternating production path.  The size guard, |Pi_lambda| counted
    over the dominant weights against ``MAX_ORACLE_WEIGHTS``, runs on every
    call; the peel runs once per (lambda, a).
    """
    if a < 2:
        raise ValueError("Adams parameter a must be >= 2")
    if rs.weight_count(lam) > MAX_ORACLE_WEIGHTS:
        raise OracleLimitError("oracle size limit")
    rs.check_weight(mu)
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


def scatter_rows(rs: RootSystem, lam: Weight, a: int, ends: Iterable[int]
                 ) -> Iterator[tuple[int, dict[int, int]]]:
    """Yield (i, {j: m^mu_{lambda,a}}) over the rows mu = (i, j) of the
    dominant cone, row i holding the j below the i-th of ends, until ends
    runs out or one of them is <= 0.

    Every term of the ``plethysm_mult`` identity is scattered: each orbit
    pair (w, sign) with a | i + w_0 adds sign * m_lambda^nu, nu = (mu+w)/a,
    at the j = a*c - w_1 (mod a*root_det) over the residues c that put
    nu = (nu_0, c) on lambda's coset lambda + (root lattice), so no point
    gets its own Weyl-group sum.  m_lambda^nu is ``_kostant_sum``, valid at
    every weight nu and 0 off Pi_lambda.  A row holds the j that some
    nonzero m_lambda^nu lands on, members whose terms cancel to 0 included.
    """
    d = rs.root_det
    step = a * d
    # per nu_0 mod d, the residues c mod d that put (nu_0, c) on the coset
    coset = [[c for c in range(d)
              if rs.in_root_lattice((r - lam[0], c - lam[1]))]
             for r in range(d)]
    # per i mod a, the orbit pairs (w, sign) with a | i + w_0, each as
    # (w_0, w_1, sign, the residues j mod step of each nu_0 mod d)
    pairs = {c: [] for c in range(a)}
    for (w0, w1), sign in rs.orbit_pairs:
        pairs[-w0 % a].append((w0, w1, sign, [
            sorted((a * c - w1) % step for c in cs) for cs in coset]))
    tops = _kostant_tops(rs, lam)
    # m_lambda^nu, kept for this call only: each nu is met from up to |W| mu
    seen: dict[Weight, int] = {}
    for i, end in enumerate(ends):
        if end <= 0:
            return
        row: dict[int, int] = {}
        for w0, w1, sign, starts in pairs[i % a]:
            nu0 = (i + w0) // a
            for j0 in starts[nu0 % d]:
                if j0 >= end:
                    break
                for j in range(j0, end, step):
                    nu = (nu0, (j + w1) // a)
                    m = seen.get(nu)
                    if m is None:
                        m = seen[nu] = _kostant_sum(
                            rs, tops, rs.root_coords_int(nu))
                    if m:
                        row[j] = row.get(j, 0) + sign * m
        yield i, row


def summation_set(rs: RootSystem, lam: Weight, a: int) -> dict[Weight, int]:
    """S_{lambda,a} with plethysm multiplicities, unsorted.

    Defined geometrically: union over sigma of sigma(rho)-rho + a*Pi_lambda,
    intersected with the dominant cone.  Each of its points mu = a*nu -
    (rho - sigma(rho)) satisfies mu <= a*lambda, so S is ``scatter_rows``
    over the rows of the polytope of dominant mu <= a*lambda
    (``RootSystem.row_ends``).  Members whose multiplicity
    cancels to 0 are retained (the set is support-agnostic).  No weight
    system is built and no table outlives the call.
    """
    if not rs.is_dominant(lam):
        raise LieError("highest weight must be dominant")
    if a < 2:
        raise ValueError("Adams parameter a must be >= 2")
    rows = scatter_rows(rs, lam, a, rs.row_ends(tuple(a * c for c in lam)))
    return {(i, j): m for i, row in rows for j, m in row.items()}


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
        for w, _ in rs.orbit_pairs))


def missing_points(rs: RootSystem, lam: Weight, a: int) -> tuple[Weight, ...]:
    """R_{lambda,a} = (hull points) minus S_{lambda,a}."""
    hull = lattice_hull(rs, lam, a)
    s = summation_set(rs, lam, a)
    return tuple(mu for mu in hull.points() if mu not in s)


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

