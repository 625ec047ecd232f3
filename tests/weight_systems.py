"""Weight systems, the dominance order, rational root coordinates, the
Fraction inner product and the Weyl dimension, for the tests that check
orbit counts, scans, degrees and multiplicities against them; no route of
the program uses them."""

from fractions import Fraction
from functools import lru_cache

from torus_tails.lie import LieError, RootSystem, Weight


@lru_cache(maxsize=64)
def weight_system(rs: RootSystem, lam: Weight) -> frozenset[Weight]:
    """Pi_lambda: every weight of the irreducible V_lambda.

    Every weight of V_lambda is W-conjugate to exactly one dominant
    mu <= lam, so Pi_lambda is the closure of ``rs.dominant_weights(lam)``,
    which raises LieError unless lam is dominant, under the simple
    reflections.
    """
    out = rs.dominant_weights(lam)
    seen = set(out)
    for mu in out:
        for i in range(rs.rank):
            nu = rs.reflect(mu, i)
            if nu not in seen:
                seen.add(nu)
                out.append(nu)
    return frozenset(seen)


def inner(rs: RootSystem, mu: Weight, nu: Weight) -> Fraction:
    """(mu, nu) as an exact rational: the scaled ``inner_int`` over
    ``gram_scale``."""
    return Fraction(rs.inner_int(mu, nu), rs.gram_scale)


def norm2(rs: RootSystem, mu: Weight) -> Fraction:
    """(mu, mu) as an exact rational."""
    return inner(rs, mu, mu)


def to_root_coords(rs: RootSystem, mu: Weight) -> tuple[Fraction, ...]:
    """Coordinates of mu over the simple-root basis (exact rationals)."""
    return tuple(Fraction(c, rs.root_det) for c in rs.root_coords_int(mu))


def from_root_coords(rs: RootSystem, rc) -> Weight:
    """The weight sum_i rc_i alpha_i; LieError unless it is integral."""
    out = [0] * rs.rank
    for i, c in enumerate(rc):
        for j in range(rs.rank):
            out[j] += c * rs.simple_roots[i][j]
    if any(Fraction(x).denominator != 1 for x in out):
        raise LieError("non-integral weight coordinates")
    return tuple(int(x) for x in out)


def dominates(rs: RootSystem, lam: Weight, mu: Weight) -> bool:
    """mu <= lam: lam - mu is a nonnegative integer sum of simple roots."""
    d = rs.root_det
    diff = tuple(lam[i] - mu[i] for i in range(rs.rank))
    return all(c >= 0 and c % d == 0 for c in rs.root_coords_int(diff))


def dim_irrep(rs: RootSystem, lam: Weight) -> int:
    """dim V_lambda by the Weyl dimension formula (independent oracle)."""
    rho = rs.rho
    num = Fraction(1)
    for alpha in rs.positive_roots:
        lr = tuple(lam[i] + rho[i] for i in range(rs.rank))
        num *= inner(rs, lr, alpha) / inner(rs, rho, alpha)
    if num.denominator != 1:
        raise LieError("Weyl dimension formula gave a non-integer")
    return int(num)
