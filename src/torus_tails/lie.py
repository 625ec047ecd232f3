"""Root-system data and elementary operations for A1, A2, B2 and G2.

Weights are integer tuples over the fundamental-weight basis, so the pairing
with a coroot is just a coordinate.  The inner product normalization is pinned
by hard-coded Gram matrices of the fundamental weights; the invariant tests
check them against the quadratic forms (lambda,lambda) the degree formulas
rely on.

The hot loops run on integers.  Each root system derives from its ``gram``
an integer Gram matrix ``gram_int = gram_scale * gram`` (the scale is the
lcm of the denominators: A1 x2, A2 x3, B2 x2, G2 x1), so ``inner_int`` and
``norm2_int`` are exact scaled inner products, the only ones the package
computes.  Likewise ``root_coords_int`` gives
the coordinates over the simple roots times ``root_det`` (the determinant of
the simple-root matrix), so root-lattice membership and the dominance order
are divisibility and sign tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

Weight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class LieError(ValueError):
    """Invalid root-system operation."""


def _mat_apply(m: Matrix, v: Weight) -> Weight:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class RootSystem:
    """Static data of one simple rank <= 2 root system; the rank (the number
    of simple roots) and the tables below are derived, not passed in."""

    name: str
    simple_roots: tuple[Weight, ...]          # alpha_i in weight coordinates
    positive_roots: tuple[Weight, ...]        # in weight coordinates
    gram: tuple[tuple[Fraction, ...], ...]    # Gram matrix of fundamental wts
    # derived from the fields above in __post_init__, so that
    # dataclasses.replace derives them again from the replaced fields
    rank: int = field(init=False, repr=False, compare=False)
    gram_scale: int = field(init=False, repr=False, compare=False)
    gram_int: Matrix = field(init=False, repr=False, compare=False)
    # the Cartan determinant, |weight lattice / root lattice|
    root_det: int = field(init=False, repr=False, compare=False)
    positive_roots_rc: tuple[Weight, ...] = field(   # in root coordinates
        init=False, repr=False, compare=False)
    # all (matrix, determinant sign) pairs of the Weyl group, sorted
    weyl_elements: tuple[tuple[Matrix, int], ...] = field(
        init=False, repr=False, compare=False)
    # (rho - sigma(rho), (-1)^sigma) over the Weyl group, sorted
    orbit_pairs: tuple[tuple[Weight, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", len(self.simple_roots))
        scale = lcm(*(Fraction(g).denominator for row in self.gram
                      for g in row))
        a = self.simple_roots
        det = a[0][0] if self.rank == 1 else \
            a[0][0] * a[1][1] - a[1][0] * a[0][1]
        object.__setattr__(self, "gram_scale", scale)
        object.__setattr__(self, "gram_int", tuple(
            tuple(int(g * scale) for g in row) for row in self.gram))
        object.__setattr__(self, "root_det", det)
        object.__setattr__(self, "positive_roots_rc", tuple(
            tuple(c // det for c in self.root_coords_int(al))
            for al in self.positive_roots))
        weyl = _weyl_closure(self)
        rho = self.rho
        object.__setattr__(self, "weyl_elements", weyl)
        object.__setattr__(self, "orbit_pairs", tuple(sorted(
            (tuple(r - i for r, i in zip(rho, _mat_apply(mat, rho))), sign)
            for mat, sign in weyl)))

    def __hash__(self) -> int:
        # the lru_cache tables key on the root system; hashing every field
        # would hash the Fraction Gram entries on each lookup
        return hash(self.name)

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    # -- inner product -----------------------------------------------------

    def inner_int(self, mu: Weight, nu: Weight) -> int:
        """gram_scale * (mu, nu), an integer."""
        g = self.gram_int
        if self.rank == 1:
            return g[0][0] * mu[0] * nu[0]
        return (g[0][0] * mu[0] + g[1][0] * mu[1]) * nu[0] \
            + (g[0][1] * mu[0] + g[1][1] * mu[1]) * nu[1]

    def norm2_int(self, mu: Weight) -> int:
        """gram_scale * (mu, mu), an integer."""
        return self.inner_int(mu, mu)

    # -- coordinates -------------------------------------------------------

    def root_coords_int(self, mu: Weight) -> Weight:
        """root_det * (coordinates of mu over the simple roots): integers."""
        a = self.simple_roots
        if self.rank == 1:
            return (mu[0],)
        return (mu[0] * a[1][1] - mu[1] * a[1][0],
                a[0][0] * mu[1] - a[0][1] * mu[0])

    def in_root_lattice(self, mu: Weight) -> bool:
        d = self.root_det
        return all(c % d == 0 for c in self.root_coords_int(mu))

    # -- Weyl group ---------------------------------------------------------

    def simple_reflection(self, i: int) -> Matrix:
        n = self.rank
        return tuple(tuple((1 if j == k else 0)
                           - (self.simple_roots[i][j] if k == i else 0)
                           for k in range(n)) for j in range(n))

    def reflect(self, mu: Weight, i: int) -> Weight:
        return tuple(mu[j] - mu[i] * self.simple_roots[i][j]
                     for j in range(self.rank))

    def dominant_conjugate(self, mu: Weight) -> Weight:
        nu = mu
        while True:
            for i in range(self.rank):
                if nu[i] < 0:
                    nu = self.reflect(nu, i)
                    break
            else:
                return nu

    def is_dominant(self, mu: Weight) -> bool:
        return all(c >= 0 for c in mu)

    # -- dominant weights ----------------------------------------------------

    def dominant_weights(self, lam: Weight) -> list[Weight]:
        """The dominant mu <= lam, the dominant weights of V_lambda, sorted.

        Every fundamental weight has positive root coordinates, so
        rc(lam - mu) >= 0 bounds each coordinate of a dominant mu.  With
        the other coordinates fixed, the last one runs up to the end of its
        row, over one residue class (lam + root lattice): no test per point.
        """
        if not self.is_dominant(lam):
            raise LieError("highest weight must be dominant")
        d = self.root_det
        top = self.root_coords_int(lam)
        funds = [self.root_coords_int(tuple(int(i == j)
                                            for i in range(self.rank)))
                 for j in range(self.rank)]
        last = funds[-1]
        step = lcm(*(d // gcd(d, f) for f in last))
        out: list[Weight] = []
        for head in product(*(range(min(t // f for t, f in zip(top, fund))
                                    + 1) for fund in funds[:-1])):
            rest = tuple(t - r for t, r in
                         zip(top, self.root_coords_int(head + (0,))))
            end = min(r // f for r, f in zip(rest, last))
            for first in range(step):
                if all((r - first * f) % d == 0 for r, f in zip(rest, last)):
                    out.extend(head + (x,)
                               for x in range(first, end + 1, step))
                    break
        return out

    def orbit_size(self, mu: Weight) -> int:
        """|W mu| for dominant mu.

        The stabilizer of mu is generated by the simple reflections that
        fix it, one per zero coordinate: it has order 2 for one zero and is
        all of W at mu = 0.
        """
        zeros = mu.count(0)
        return 1 if zeros == self.rank else len(self.weyl_elements) >> zeros

    def weight_count(self, lam: Weight) -> int:
        """|Pi_lambda|, counted over the dominant weights without building
        the weight system."""
        if not self.is_dominant(lam):
            raise LieError("highest weight must be dominant")
        return _weight_count(self, lam)


def _weyl_closure(rs: RootSystem) -> tuple[tuple[Matrix, int], ...]:
    """All (matrix, determinant sign) pairs, generated by closure."""
    gens = [rs.simple_reflection(i) for i in range(rs.rank)]
    ident: Matrix = tuple(tuple(1 if i == j else 0 for j in range(rs.rank))
                          for i in range(rs.rank))
    found: dict[Matrix, int] = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _mat_mul(g, m)
                if prod not in found:
                    found[prod] = -found[m]
                    nxt.append(prod)
        frontier = nxt
    return tuple(sorted(found.items()))


# the Adams oracle's size guard asks once per hull point
@lru_cache(maxsize=64)
def _weight_count(rs: RootSystem, lam: Weight) -> int:
    return sum(map(rs.orbit_size, rs.dominant_weights(lam)))


_SYSTEMS = {
    # A1: one root alpha = 2*lambda1, (alpha,alpha) = 2.
    "A1": RootSystem(
        name="A1",
        simple_roots=((2,),),
        positive_roots=((2,),),
        gram=((Fraction(1, 2),),),
    ),
    # A2: all roots length^2 = 2.
    "A2": RootSystem(
        name="A2",
        simple_roots=((2, -1), (-1, 2)),
        positive_roots=((2, -1), (-1, 2), (1, 1)),
        gram=((Fraction(2, 3), Fraction(1, 3)),
              (Fraction(1, 3), Fraction(2, 3))),
    ),
    # B2: alpha1 long (length^2 = 2), alpha2 short (length^2 = 1).
    "B2": RootSystem(
        name="B2",
        simple_roots=((2, -2), (-1, 2)),
        positive_roots=((2, -2), (-1, 2), (1, 0), (0, 2)),
        gram=((Fraction(1), Fraction(1, 2)),
              (Fraction(1, 2), Fraction(1, 2))),
    ),
    # G2: alpha1 short (length^2 = 2), alpha2 long (length^2 = 6).
    "G2": RootSystem(
        name="G2",
        simple_roots=((2, -1), (-3, 2)),
        positive_roots=((2, -1), (-3, 2), (-1, 1), (1, 0), (3, -1), (0, 1)),
        gram=((Fraction(2), Fraction(3)), (Fraction(3), Fraction(6))),
    ),
}


def get_root_system(name: str) -> RootSystem:
    """Look up a root system by its (case-insensitive) algebra tag."""
    key = name.strip().upper()
    if key not in _SYSTEMS:
        raise LieError(f"unknown algebra {name!r}; expected one of A1, A2, B2, G2")
    return _SYSTEMS[key]


RANK2_ALGEBRAS = ("A2", "B2", "G2")
