"""Root-system data and elementary operations for A1, A2, B2 and G2.

Weights are integer tuples over the fundamental-weight basis, so the pairing
with a coroot is just a coordinate.  The inner product normalization is pinned
by hard-coded Gram matrices of the fundamental weights; the invariant tests
check them against the quadratic forms (lambda,lambda) the degree formulas
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

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
    """Static data of one simple rank <= 2 root system."""

    name: str
    rank: int
    simple_roots: tuple[Weight, ...]          # alpha_i in weight coordinates
    positive_roots: tuple[Weight, ...]        # in weight coordinates
    positive_roots_rc: tuple[Weight, ...]     # same roots in root coordinates
    gram: tuple[tuple[Fraction, ...], ...]    # Gram matrix of fundamental wts
    fundamental_group_order: int

    def __hash__(self) -> int:
        # the lru_cache tables key on the root system; hashing every field
        # would hash the Fraction Gram entries on each lookup
        return hash(self.name)

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    # -- inner product -----------------------------------------------------

    def inner(self, mu: Weight, nu: Weight) -> Fraction:
        if len(mu) != self.rank or len(nu) != self.rank:
            raise LieError(f"weights of wrong rank for {self.name}")
        return Fraction(sum(self.gram[i][j] * mu[i] * nu[j]
                            for i in range(self.rank)
                            for j in range(self.rank)))

    def norm2(self, mu: Weight) -> Fraction:
        return self.inner(mu, mu)

    # -- coordinates -------------------------------------------------------

    def to_root_coords(self, mu: Weight) -> tuple[Fraction, ...]:
        """Coordinates of mu over the simple-root basis (exact rationals)."""
        a = self.simple_roots
        if self.rank == 1:
            return (Fraction(mu[0], a[0][0]),)
        det = a[0][0] * a[1][1] - a[1][0] * a[0][1]
        u = Fraction(mu[0] * a[1][1] - mu[1] * a[1][0], det)
        v = Fraction(a[0][0] * mu[1] - a[0][1] * mu[0], det)
        return (u, v)

    def from_root_coords(self, rc) -> Weight:
        out = [0] * self.rank
        for i, c in enumerate(rc):
            for j in range(self.rank):
                out[j] += c * self.simple_roots[i][j]
        if any(Fraction(x).denominator != 1 for x in out):
            raise LieError("non-integral weight coordinates")
        return tuple(int(x) for x in out)

    def in_root_lattice(self, mu: Weight) -> bool:
        return all(c.denominator == 1 for c in self.to_root_coords(mu))

    def dominates(self, lam: Weight, mu: Weight) -> bool:
        """mu <= lam: lam - mu is a nonnegative integer sum of simple roots."""
        diff = tuple(lam[i] - mu[i] for i in range(self.rank))
        return all(c.denominator == 1 and c >= 0
                   for c in self.to_root_coords(diff))

    # -- Weyl group ---------------------------------------------------------

    def simple_reflection(self, i: int) -> Matrix:
        n = self.rank
        return tuple(tuple((1 if j == k else 0)
                           - (self.simple_roots[i][j] if k == i else 0)
                           for k in range(n)) for j in range(n))

    @property
    def weyl_elements(self) -> tuple[tuple[Matrix, int], ...]:
        """All (matrix, determinant sign) pairs, generated by closure."""
        return _weyl_closure(self)

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

    def orbit_pairs(self) -> tuple[tuple[Weight, int], ...]:
        """(rho - sigma(rho), (-1)^sigma) over the Weyl group, sorted."""
        return _orbit_pairs(self)

    # -- weight systems ------------------------------------------------------

    def weight_system(self, lam: Weight) -> frozenset[Weight]:
        """Pi_lambda: every weight of the irreducible V_lambda."""
        if not self.is_dominant(lam):
            raise LieError("highest weight must be dominant")
        return _weight_system(self, lam)

    def dim_irrep(self, lam: Weight) -> int:
        """dim V_lambda by the Weyl dimension formula (independent oracle)."""
        rho = self.rho
        num = Fraction(1)
        for alpha in self.positive_roots:
            lr = tuple(lam[i] + rho[i] for i in range(self.rank))
            num *= Fraction(self.inner(lr, alpha), self.inner(rho, alpha))
        if num.denominator != 1:
            raise LieError("Weyl dimension formula gave a non-integer")
        return int(num)


@lru_cache(maxsize=None)
def _weyl_closure(rs: RootSystem) -> tuple[tuple[Matrix, int], ...]:
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


@lru_cache(maxsize=None)
def _orbit_pairs(rs: RootSystem) -> tuple[tuple[Weight, int], ...]:
    rho = rs.rho
    pairs = []
    for mat, sign in rs.weyl_elements:
        im = _mat_apply(mat, rho)
        pairs.append((tuple(rho[i] - im[i] for i in range(rs.rank)), sign))
    return tuple(sorted(pairs))


@lru_cache(maxsize=None)
def _weight_system(rs: RootSystem, lam: Weight) -> frozenset[Weight]:
    # every weight of V_lambda is lam - (N-combination of simple roots) inside
    # the convex hull of W*lam; enumerate the offset box bounded by the norm.
    norm = rs.norm2(lam)
    bounds = []
    for i in range(rs.rank):
        li = tuple(1 if j == i else 0 for j in range(rs.rank))
        # c_i = 2(lam-nu, lambda_i)/(alpha_i,alpha_i) <= 4|lam||lambda_i|/(a,a)
        ai2 = rs.norm2(rs.simple_roots[i])
        bound2 = 16 * norm * rs.norm2(li) / (ai2 * ai2)
        bounds.append(isqrt(int(bound2)) + 2)
    out = set()
    if rs.rank == 1:
        offsets = [(c,) for c in range(bounds[0] + 1)]
    else:
        offsets = [(c1, c2) for c1 in range(bounds[0] + 1)
                   for c2 in range(bounds[1] + 1)]
    for off in offsets:
        nu = rs.from_root_coords(off)
        nu = tuple(lam[i] - nu[i] for i in range(rs.rank))
        if rs.dominates(lam, rs.dominant_conjugate(nu)):
            out.add(nu)
    return frozenset(out)


def _fr(num: int, den: int = 1) -> Fraction:
    return Fraction(num, den)


_SYSTEMS = {
    # A1: one root alpha = 2*lambda1, (alpha,alpha) = 2.
    "A1": RootSystem(
        name="A1", rank=1,
        simple_roots=((2,),),
        positive_roots=((2,),),
        positive_roots_rc=((1,),),
        gram=((_fr(1, 2),),),
        fundamental_group_order=2,
    ),
    # A2: all roots length^2 = 2.
    "A2": RootSystem(
        name="A2", rank=2,
        simple_roots=((2, -1), (-1, 2)),
        positive_roots=((2, -1), (-1, 2), (1, 1)),
        positive_roots_rc=((1, 0), (0, 1), (1, 1)),
        gram=((_fr(2, 3), _fr(1, 3)), (_fr(1, 3), _fr(2, 3))),
        fundamental_group_order=3,
    ),
    # B2: alpha1 long (length^2 = 2), alpha2 short (length^2 = 1).
    "B2": RootSystem(
        name="B2", rank=2,
        simple_roots=((2, -2), (-1, 2)),
        positive_roots=((2, -2), (-1, 2), (1, 0), (0, 2)),
        positive_roots_rc=((1, 0), (0, 1), (1, 1), (1, 2)),
        gram=((_fr(1), _fr(1, 2)), (_fr(1, 2), _fr(1, 2))),
        fundamental_group_order=2,
    ),
    # G2: alpha1 short (length^2 = 2), alpha2 long (length^2 = 6).
    "G2": RootSystem(
        name="G2", rank=2,
        simple_roots=((2, -1), (-3, 2)),
        positive_roots=((2, -1), (-3, 2), (-1, 1), (1, 0), (3, -1), (0, 1)),
        positive_roots_rc=((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
        gram=((_fr(2), _fr(3)), (_fr(3), _fr(6))),
        fundamental_group_order=1,
    ),
}


def get_root_system(name: str) -> RootSystem:
    """Look up a root system by its (case-insensitive) algebra tag."""
    key = name.strip().upper()
    if key not in _SYSTEMS:
        raise LieError(f"unknown algebra {name!r}; expected one of A1, A2, B2, G2")
    return _SYSTEMS[key]


ALGEBRAS = tuple(_SYSTEMS)
RANK2_ALGEBRAS = ("A2", "B2", "G2")
