"""Weight systems, for the tests that check orbit counts and multiplicities
against them; no route of the program builds one."""

from functools import lru_cache

from torus_tails.lie import RootSystem, Weight, _mat_apply


@lru_cache(maxsize=64)
def weight_system(rs: RootSystem, lam: Weight) -> frozenset[Weight]:
    """Pi_lambda: every weight of the irreducible V_lambda.

    Every weight of V_lambda is W-conjugate to exactly one dominant
    mu <= lam, so Pi_lambda is the union of the W-orbits of
    ``rs.dominant_weights(lam)``, which raises LieError unless lam is
    dominant.
    """
    mats = [mat for mat, _ in rs.weyl_elements]
    return frozenset(_mat_apply(mat, mu) for mu in rs.dominant_weights(lam)
                     for mat in mats)
