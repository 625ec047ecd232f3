"""Root-system data and elementary operations for A1, A2, B2 and G2.

Every system has rank 2: A1 is held as A1 x A1, its color (n) the weight
(n, 0).  The colored Jones polynomial of a direct sum factors and the
trivial color contributes 1, so the rank-2 code runs A1 with no branch of
its own.  Weights are integer tuples over the fundamental-weight basis, so
the pairing with a coroot is just a coordinate; ``check_weight`` refuses a
weight of the wrong length.  The inner product normalization is pinned
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

The Weyl group W is held as signed orbits, not matrices: ``signed_orbit``
closes a regular weight under the simple reflections ``reflect``, each image
with its sign (-1)^sigma.  The orbit of rho gives ``orbit_pairs`` (and |W|),
the orbit of lambda+rho gives mult's Kostant tops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import lcm
from typing import Iterator

Weight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class LieError(ValueError):
    """Invalid root-system operation."""


@dataclass(frozen=True)
class RootSystem:
    """Static data of one rank-2 root system (A2, B2, G2, or A1 x A1); the
    rank (the number of simple roots) and the tables below are derived, not
    passed in."""

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
    # (rho - sigma(rho), (-1)^sigma) over the Weyl group, sorted
    orbit_pairs: tuple[tuple[Weight, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", len(self.simple_roots))
        scale = lcm(*(Fraction(g).denominator for row in self.gram
                      for g in row))
        a = self.simple_roots
        det = a[0][0] * a[1][1] - a[1][0] * a[0][1]
        object.__setattr__(self, "gram_scale", scale)
        object.__setattr__(self, "gram_int", tuple(
            tuple(int(g * scale) for g in row) for row in self.gram))
        object.__setattr__(self, "root_det", det)
        object.__setattr__(self, "positive_roots_rc", tuple(
            tuple(c // det for c in self.root_coords_int(al))
            for al in self.positive_roots))
        rho = self.rho
        object.__setattr__(self, "orbit_pairs", tuple(sorted(
            (tuple(r - c for r, c in zip(rho, x)), sign)
            for x, sign in self.signed_orbit(rho))))

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
        return (g[0][0] * mu[0] + g[1][0] * mu[1]) * nu[0] \
            + (g[0][1] * mu[0] + g[1][1] * mu[1]) * nu[1]

    def norm2_int(self, mu: Weight) -> int:
        """gram_scale * (mu, mu), an integer."""
        return self.inner_int(mu, mu)

    # -- coordinates -------------------------------------------------------

    def root_coords_int(self, mu: Weight) -> Weight:
        """root_det * (coordinates of mu over the simple roots): integers."""
        a = self.simple_roots
        return (mu[0] * a[1][1] - mu[1] * a[1][0],
                a[0][0] * mu[1] - a[0][1] * mu[0])

    def in_root_lattice(self, mu: Weight) -> bool:
        d = self.root_det
        return all(c % d == 0 for c in self.root_coords_int(mu))

    # -- Weyl group ---------------------------------------------------------

    def reflect(self, mu: Weight, i: int) -> Weight:
        a0, a1 = self.simple_roots[i]
        return (mu[0] - mu[i] * a0, mu[1] - mu[i] * a1)

    def signed_orbit(self, v: Weight) -> list[tuple[Weight, int]]:
        """(sigma(v), (-1)^sigma) over the Weyl group, for a regular v.

        v on no wall has a trivial stabilizer, so sigma -> sigma(v) is one
        to one and the closure of v under the simple reflections is the
        group itself; each new image is signed opposite to the point it is
        reflected from, the parity of its step.
        """
        out = [(v, 1)]
        seen = {v}
        for x, sign in out:
            for i in range(self.rank):
                y = self.reflect(x, i)
                if y not in seen:
                    seen.add(y)
                    out.append((y, -sign))
        return out

    def dominant_conjugate(self, mu: Weight) -> Weight:
        nu = mu
        while True:
            for i in range(self.rank):
                if nu[i] < 0:
                    nu = self.reflect(nu, i)
                    break
            else:
                return nu

    def check_weight(self, mu: Weight) -> None:
        """Raise LieError unless mu has one coordinate per simple root."""
        if len(mu) != self.rank:
            raise LieError(f"{self.name} weights have {self.rank} "
                           f"coordinates, got {tuple(mu)}")

    def is_dominant(self, mu: Weight) -> bool:
        self.check_weight(mu)
        return all(c >= 0 for c in mu)

    # -- dominant weights ----------------------------------------------------

    def row_ends(self, lam: Weight) -> Iterator[int]:
        """For the rows i = 0, 1, ... of the polytope of dominant mu <= lam,
        the end of the j with rc(lam - (i, j)) >= 0.  The root coordinates
        of the fundamental weights are >= 0, not all 0, so the ends fall,
        and a row ends at or below 0 from the first empty one on.  A zero
        coordinate of the second one (a factor of A1 x A1) bounds i, not j:
        the rows stop past it."""
        cols = list(zip(self.root_coords_int(lam),
                        self.root_coords_int((1, 0)),
                        self.root_coords_int((0, 1))))
        rows = [t // u + 1 for t, u, v in cols if not v]
        for i in range(rows[0]) if rows else count():
            yield min((t - i * u) // v for t, u, v in cols if v) + 1

    def dominant_weights(self, lam: Weight) -> list[Weight]:
        """The dominant mu <= lam, the dominant weights of V_lambda, sorted:
        the rows of ``row_ends``, each over one residue class (lam + root
        lattice) stepped by the least s with (0, s) in the root lattice, so
        no point gets a test."""
        if not self.is_dominant(lam):
            raise LieError("highest weight must be dominant")
        step = next(s for s in count(1) if self.in_root_lattice((0, s)))
        out: list[Weight] = []
        for i, end in enumerate(self.row_ends(lam)):
            if end <= 0:
                break
            first = next((j for j in range(step) if self.in_root_lattice(
                (lam[0] - i, lam[1] - j))), end)
            out.extend((i, j) for j in range(first, end, step))
        return out

    def orbit_size(self, mu: Weight) -> int:
        """|W mu| for dominant mu.

        The stabilizer of mu is generated by the simple reflections that
        fix it, one per zero coordinate: it has order 2 for one zero and is
        all of W at mu = 0.  |W| is the number of orbit pairs.
        """
        zeros = mu.count(0)
        return 1 if zeros == self.rank else len(self.orbit_pairs) >> zeros

    def weight_count(self, lam: Weight) -> int:
        """|Pi_lambda|, counted over the dominant weights without building
        the weight system."""
        if not self.is_dominant(lam):
            raise LieError("highest weight must be dominant")
        return _weight_count(self, lam)


# the Adams oracle's size guard asks once per hull point
@lru_cache(maxsize=64)
def _weight_count(rs: RootSystem, lam: Weight) -> int:
    return sum(map(rs.orbit_size, rs.dominant_weights(lam)))


_SYSTEMS = {
    # A1 as A1 x A1: two orthogonal roots alpha_i = 2*lambda_i with
    # (alpha_i, alpha_i) = 2; A1's color (n) is (n, 0).
    "A1": RootSystem(
        name="A1",
        simple_roots=((2, 0), (0, 2)),
        positive_roots=((2, 0), (0, 2)),
        gram=((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))),
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
