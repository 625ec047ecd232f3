"""Weight/plethysm multiplicities, summation sets, hulls, missing points."""

from itertools import product

import pytest

from torus_tails.lie import LieError, get_root_system
from torus_tails.mult import (OracleLimitError, g2_plethysm_zero_a3,
                              g2_zero_weight_mult, lattice_hull,
                              missing_point_bound_check, missing_points,
                              plethysm_adams_oracle, plethysm_mult,
                              plethysm_quasipoly_fit, summation_set,
                              weight_mult, weight_mult_freudenthal)

A1 = get_root_system("A1")
A2 = get_root_system("A2")
B2 = get_root_system("B2")
G2 = get_root_system("G2")


def test_highest_weight_multiplicity():
    for rs in (A2, B2, G2):
        for lam in [(2, 1), (0, 3), (1, 1)]:
            assert weight_mult(rs, lam, lam) == 1
            assert weight_mult_freudenthal(rs, lam, lam) == 1


def test_adjoint_zero_weight():
    assert weight_mult(A2, (1, 1), (0, 0)) == 2
    assert weight_mult_freudenthal(A2, (1, 1), (0, 0)) == 2


def test_a2_far_zone_case_formula():
    # m_lambda^mu = 1 + m2 once m1 - m2 > u1 + 2*u2 + 3 (m1 >= m2)
    for (m1, m2, u1, u2) in [(9, 1, 2, 1), (12, 2, 0, 0), (10, 3, 1, 1)]:
        assert m1 - m2 > u1 + 2 * u2 + 3
        lam, mu = (m1, m2), (u1, u2)
        if not A2.in_root_lattice((m1 - u1, m2 - u2)):
            continue
        assert weight_mult(A2, lam, mu) == 1 + m2


def test_weight_mult_weyl_invariance():
    lam = (3, 2)
    for mat, _ in A2.weyl_elements:
        for mu in [(1, 1), (0, 2), (2, 0)]:
            im = tuple(sum(mat[i][j] * mu[j] for j in range(2))
                       for i in range(2))
            assert weight_mult(A2, lam, im) == weight_mult(A2, lam, mu)


def test_freudenthal_agrees_exhaustive_a2():
    for m1 in range(4):
        for m2 in range(4 - m1):
            lam = (m1, m2)
            for mu in A2.weight_system(lam):
                assert weight_mult(A2, lam, mu) == \
                    weight_mult_freudenthal(A2, lam, mu), (lam, mu)


@pytest.mark.parametrize("rs", [A1, A2, B2, G2], ids=lambda rs: rs.name)
def test_freudenthal_table_sums_to_weyl_dimension(rs):
    # each dominant w stands for its W-orbit; the table must hold every
    # dominant weight with its full multiplicity
    from torus_tails.mult import _freudenthal_table
    lams = [(k,) for k in range(7)] if rs.rank == 1 else \
        list(product(range(7), repeat=2))
    for lam in lams:
        table = _freudenthal_table(rs, lam)
        assert sorted(table) == rs.dominant_weights(lam)
        assert sum(m * rs.orbit_size(w) for w, m in table.items()) == \
            rs.dim_irrep(lam), (rs.name, lam)


def test_adams_peel_builds_no_weight_system():
    # the Freudenthal tables of the peel run on the dominant weights alone;
    # (5, 4) at a = 4 is a color no other test peels
    from torus_tails import lie
    from torus_tails.mult import _adams_table, _freudenthal_table
    before = lie._weight_system.cache_info()
    misses = _freudenthal_table.cache_info().misses
    table = _adams_table.__wrapped__(B2, (5, 4), 4)
    assert table[(20, 16)] == 1
    assert _freudenthal_table.cache_info().misses > misses
    after = lie._weight_system.cache_info()
    assert after.currsize == before.currsize
    assert after.hits + after.misses == before.hits + before.misses


def test_freudenthal_agrees_b2_g2():
    for rs in (B2, G2):
        lam = (1, 1)
        for mu in rs.weight_system(lam):
            assert weight_mult(rs, lam, mu) == \
                weight_mult_freudenthal(rs, lam, mu)


def test_plethysm_top_weight_is_one():
    for rs in (A2, B2, G2):
        for a in (2, 3, 4):
            for lam in [(1, 0), (2, 1), (1, 1)]:
                assert plethysm_mult(rs, lam, a, tuple(a * c for c in lam)) == 1


def test_plethysm_rejects_non_dominant_lambda():
    # checked once up front, also where no orbit pair divides mu + w
    for a, mu in ((2, (1, 1)), (5, (1, 0)), (3, (0, 0))):
        with pytest.raises(LieError):
            plethysm_mult(A2, (-1, 2), a, mu)


def test_a2_case_table_a2():
    # the four-parity case table for a=2, m1 >= m2, mu in S_{lambda,2}
    for (m1, m2) in [(2, 0), (3, 1), (4, 2), (3, 0), (5, 1)]:
        lam = (m1, m2)
        for (u1, u2), m in summation_set(A2, lam, 2).items():
            d = 2 * (m1 - m2)
            if u1 % 2 == 0 and u2 % 2 == 0:
                want = 1 if u1 + 2 * u2 >= d else 0
            elif u1 % 2 == 0:
                want = -1 if u1 - u2 <= d <= u1 + 2 * u2 else 0
            elif u2 % 2 == 0:
                want = -1 if d < u1 - u2 else 0
            else:
                want = 0
            assert m == want, (lam, (u1, u2), m, want)


def test_a2_vanishing_criteria():
    for (m1, m2) in [(4, 1), (5, 2), (2, 2), (1, 4), (0, 3)]:
        lam = (m1, m2)
        for mu, m in summation_set(A2, lam, 2).items():
            if m != 0:
                if m1 >= m2:
                    assert mu[0] + 2 * mu[1] >= 2 * (m1 - m2)
                else:
                    assert 2 * mu[0] + mu[1] >= 2 * (m2 - m1)


def test_b2_zero_weight_plethysm_table():
    # m^0_{lambda,a} via the orbit reduction of the alternating sum
    for m1 in range(9):
        for m2 in range(9 - m1):
            lam = (m1, m2)
            m0 = lambda nu: weight_mult(B2, lam, nu)
            table = {
                2: m0((0, 0)) - m0((0, 1)) - m0((0, 2)) + m0((1, 1)),
                3: m0((0, 0)) - m0((1, 0)),
                4: m0((0, 0)) - m0((0, 1)),
                5: m0((0, 0)),
                6: m0((0, 0)),
            }
            for a, want in table.items():
                assert plethysm_mult(B2, lam, a, (0, 0)) == want, (lam, a)


def test_b2_zero_weight_value_cases():
    # a=2: +1 on the root lattice, -1 off it (never 0, so the origin is
    # always the degree minimizer)
    for m1 in range(6):
        for m2 in range(6 - m1):
            got = plethysm_mult(B2, (m1, m2), 2, (0, 0))
            assert got == (1 if m2 % 2 == 0 else -1)


def test_g2_zero_weight_closed_forms():
    for v in range(10):
        for u in range(21):
            if not (3 * v <= 2 * u <= 4 * v):
                continue
            lam = G2.from_root_coords((u, v))
            assert g2_zero_weight_mult(u, v) == weight_mult(G2, lam, (0, 0))
            assert g2_plethysm_zero_a3(u, v) == \
                plethysm_mult(G2, lam, 3, (0, 0))


def test_g2_zero_weight_a2_is_one():
    for v in range(8):
        for u in range(17):
            if 3 * v <= 2 * u <= 4 * v:
                lam = G2.from_root_coords((u, v))
                assert plethysm_mult(G2, lam, 2, (0, 0)) == 1


def test_adams_oracle_agrees_small_grid():
    for rs in (A2, B2, G2):
        for a in (2, 3):
            for m1 in range(3):
                for m2 in range(3 - m1):
                    lam = (m1, m2)
                    for mu in lattice_hull(rs, lam, a).points():
                        assert plethysm_mult(rs, lam, a, mu) == \
                            plethysm_adams_oracle(rs, lam, a, mu), \
                            (rs.name, a, lam, mu)


def test_adams_oracle_guard():
    with pytest.raises(OracleLimitError):
        plethysm_adams_oracle(A2, (40, 40), 2, (0, 0), max_weights=10)


def test_adams_preserves_dimension():
    # sum of m^mu * dim V_mu over the summation set equals dim V_lambda
    for rs in (A2, B2):
        for a in (2, 3):
            for lam in [(1, 0), (1, 1), (2, 1)]:
                total = sum(m * rs.dim_irrep(mu)
                            for mu, m in summation_set(rs, lam, a).items())
                assert total == rs.dim_irrep(lam), (rs.name, a, lam)


def test_summation_set_examples():
    s = summation_set(B2, (1, 1), 2)
    assert set(s) == {(2, 2), (0, 4), (3, 0), (2, 0), (0, 2), (1, 0), (0, 0)}
    assert summation_set(A2, (0, 0), 3) == {(0, 0): 1}
    for rs, lam, a in ((A2, (2, 1), 2), (B2, (1, 0), 3), (G2, (1, 1), 2)):
        assert tuple(a * c for c in lam) in summation_set(rs, lam, a)


def test_support_inside_hull():
    # S within the hull points makes |hull| = |S| + |R|, the hull size the
    # missing-points command reports
    for rs, a, lam in product((A2, B2, G2), range(2, 6),
                              product(range(4), repeat=2)):
        pts = lattice_hull(rs, lam, a).points()
        s = summation_set(rs, lam, a)
        assert set(s) <= set(pts), (rs.name, lam, a)
        assert len(pts) == len(s) + len(missing_points(rs, lam, a))


def on_translates(rs, lam, a, mu):
    """mu in L_{lambda,a}: mu - (a*lambda - w) in a*Lambda_r for some
    w = rho - sigma(rho), one translate at a time."""
    step = a * rs.root_det
    return any(all(c % step == 0 for c in rs.root_coords_int(
        tuple(m - a * l + c for m, l, c in zip(mu, lam, w))))
        for w, _ in rs.orbit_pairs())


def reference_hull_points(rs, lam, a):
    """Dominant points of L_{lambda,a} (cap) P_{a*lambda} by the definition:
    a box of weights, the polytope test and the per-translate lattice
    test."""
    top = tuple(a * c for c in lam)
    # (mu, omega_i) <= (a*lambda, omega_i) on the polytope bounds mu_i
    bounds = []
    for i in range(rs.rank):
        omega = tuple(int(i == j) for j in range(rs.rank))
        bounds.append(rs.inner_int(top, omega) // rs.norm2_int(omega))
    return tuple(
        mu for mu in product(*(range(b + 1) for b in bounds))
        if all(c >= 0 for c in rs.root_coords_int(
            tuple(t - m for t, m in zip(top, mu))))
        and on_translates(rs, lam, a, mu))


@pytest.mark.parametrize("rs", [A1, A2, B2, G2], ids=lambda rs: rs.name)
def test_hull_points_match_the_definition(rs):
    if rs.rank == 1:
        lams = [(k,) for k in range(7)]
        box = [(u,) for u in range(-6, 7)]
    else:
        lams = [(m1, m2) for m1 in range(4) for m2 in range(4 - m1)]
        box = list(product(range(-6, 7), repeat=2))
    for a in range(2, 7):
        for lam in lams:
            hull = lattice_hull(rs, lam, a)
            assert hull.points() == reference_hull_points(rs, lam, a), \
                (rs.name, lam, a)
            for mu in box:
                assert hull.in_lattice(mu) == on_translates(rs, lam, a, mu)


def test_missing_points_examples():
    assert (1, 2) in missing_points(B2, (1, 1), 2)
    for n in range(1, 9):
        assert missing_points(A2, (n, 0), 2) == ()
    assert missing_points(A2, (0, 0), 2) == ()


def test_missing_point_bound():
    rep = missing_point_bound_check(B2, (1, 1), 2, range(1, 7))
    assert rep["min_slack"] is None or rep["min_slack"] >= 0
    rep = missing_point_bound_check(G2, (1, 0), 2, range(1, 5))
    assert all(isinstance(v, int) for v in rep["per_n"].values())


def test_plethysm_quasipoly_fit_t45():
    qp = plethysm_quasipoly_fit(A2, (1, 1), 4, (0, 0), (0, 0), 16)
    assert qp.degree == 1
    assert qp(50) == 51  # m^0_{n rho, 4} = n + 1


def test_plethysm_quasipoly_fit_sign_ray():
    # m^{n*lambda2}_{n*lambda1, 2} = (-1)^n: the parity table's case 2 applies
    # at odd n
    qp = plethysm_quasipoly_fit(A2, (1, 0), 2, (0, 0), (0, 1), 16)
    assert qp.degree == 0 and qp.period == 2
    assert qp(34) == 1 and qp(33) == -1


def test_plethysm_quasipoly_fit_constant_on_class():
    # restricted to even n the same ray is constant 1
    qp = plethysm_quasipoly_fit(A2, (1, 0), 2, (0, 0), (0, 1), 20,
                                modulus=2, n0=0)
    assert qp.degree == 0 and qp(34) == 1


@pytest.mark.parametrize("rs", [A1, A2, B2, G2], ids=lambda rs: rs.name)
def test_scatter_summation_set_equals_pointwise(rs):
    # small colors and the wall colors (k, 0), (0, k): their dominant
    # weights on or near the walls are scattered from W-images too (B2 at
    # a = 2 and G2 at a <= 4 land images with a coordinate -1 or -2)
    if rs.rank == 1:
        lams = [(k,) for k in range(7)]
    else:
        lams = [(m1, m2) for m1 in range(3) for m2 in range(3 - m1)]
        lams += [(k, 0) for k in range(3, 7)] + [(0, k) for k in range(3, 7)]
    zeros = 0
    for a in (2, 3, 4, 5):
        for lam in lams:
            s = summation_set(rs, lam, a)
            # the geometric definition, built here independently
            points = {tuple(a * n - c for n, c in zip(nu, w))
                      for w, _ in rs.orbit_pairs()
                      for nu in rs.weight_system(lam)}
            assert set(s) == {mu for mu in points if min(mu) >= 0}
            for mu, m in s.items():
                assert m == plethysm_mult(rs, lam, a, mu), \
                    (rs.name, lam, a, mu)
                zeros += m == 0
    # members whose multiplicity cancels are kept
    assert zeros or rs.rank == 1


@pytest.mark.parametrize("rs", [A1, A2, B2, G2], ids=lambda rs: rs.name)
def test_summation_set_is_the_sorted_scatter(rs):
    # colored_jones and missing_points read the unsorted scatter, the CLI
    # and the extremizers the sorted summation set: one scatter feeds both,
    # members that cancel to 0 included
    from torus_tails.mult import _summation_scatter
    zeros = 0
    for a in (2, 3, 4, 5):
        for lam in product(range(7), repeat=rs.rank):
            scatter = _summation_scatter(rs, lam, a)
            s = summation_set(rs, lam, a)
            assert s == scatter and list(s) == sorted(scatter), \
                (rs.name, lam, a)
            assert set(missing_points(rs, lam, a)).isdisjoint(scatter)
            zeros += sum(1 for m in s.values() if m == 0)
    assert zeros or rs.rank == 1


def test_adams_oracle_cache_is_bounded_and_stable():
    from torus_tails.mult import _adams_table
    assert _adams_table.cache_info().maxsize == 64
    lam, a = (2, 1), 3
    pts = lattice_hull(A2, lam, a).points()
    first = [plethysm_adams_oracle(A2, lam, a, mu) for mu in pts]
    hits = _adams_table.cache_info().hits
    assert [plethysm_adams_oracle(A2, lam, a, mu) for mu in pts] == first
    assert _adams_table.cache_info().hits == hits + len(pts)
    assert first == [plethysm_mult(A2, lam, a, mu) for mu in pts]
    # the size guard runs on every call, cached table or not
    with pytest.raises(OracleLimitError):
        plethysm_adams_oracle(A2, lam, a, pts[0], max_weights=10)
