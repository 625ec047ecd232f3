"""Jones-Rosso evaluation: degrees, extremizers, checked sums, A1 x A1."""

import hashlib
import json
import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from torus_tails import jones, kostant, lie, mult, qseries, stability
from torus_tails.jones import (JonesError, TorusKnot, colored_jones,
                               jones_jet, maximizer_bruteforce,
                               minimizer_bruteforce, minimizer_closed_form,
                               quadratic_forms)
from torus_tails.lie import LieError, get_root_system
from torus_tails.mult import plethysm_mult, scatter_rows, summation_set
from torus_tails.qseries import TruncatedSeries, div_binomial_series
from torus_tails.stability import TailSeries, jones_family, tail_closed_T4b
from reference_series import from_exponents
from weight_systems import inner, norm2

A1 = get_root_system("A1")
A2 = get_root_system("A2")
B2 = get_root_system("B2")
G2 = get_root_system("G2")


def test_torus_knot_validation():
    with pytest.raises(ValueError):
        TorusKnot(2, 4)
    with pytest.raises(ValueError):
        TorusKnot(3, 2)
    with pytest.raises(ValueError):
        TorusKnot(0, 5)


def test_trivial_color_gives_one():
    for rs in (A1, A2, B2, G2):
        res = colored_jones(rs, TorusKnot(2, 3), (0,) * rs.rank)
        assert res.polynomial.as_dict() == {0: 1}
        assert res.delta_star == 0 == res.delta


def test_trefoil_fundamental_value():
    # direct hand evaluation of the rewritten sum: S = {2*l1, l2} with
    # multiplicities 1 and -1
    res = colored_jones(A2, TorusKnot(2, 3), (1, 0))
    assert res.polynomial.as_dict() == {-6: -1, -4: 1, -2: 1}
    assert res.delta_star == -6 and res.delta == -2


def test_quadratic_form_zero_color():
    f_star, f_max = quadratic_forms(A2, TorusKnot(2, 3), (0, 0))
    assert f_star((0, 0)) == 0
    assert f_max((0, 0)) == 0


def test_degree_formulas_on_rays():
    for rs, knot, lam_ray in ((A2, TorusKnot(2, 3), (1, 0)),
                              (B2, TorusKnot(2, 5), (0, 1)),
                              (G2, TorusKnot(3, 4), (1, 0))):
        for n in range(0, 7):
            lam = tuple(n * c for c in lam_ray)
            res = colored_jones(rs, knot, lam)
            f_star, f_max = quadratic_forms(rs, knot, lam)
            mu = minimizer_closed_form(rs, lam, knot.a)
            assert res.delta_star == f_star(mu), (rs.name, n)
            assert res.delta == f_max(tuple(knot.a * c for c in lam))


def test_trefoil_degree_is_quadratic_in_n():
    # delta* along n*lambda1 equals -(3/2)n^2 - (9/2)n
    for n in range(1, 12):
        res = colored_jones(A2, TorusKnot(2, 3), (n, 0))
        assert res.delta_star == Fraction(-3 * n * n - 9 * n, 2)


def test_top_coefficient_is_unit():
    for rs, knot, lam in ((A2, TorusKnot(2, 3), (2, 1)),
                          (B2, TorusKnot(2, 3), (1, 1)),
                          (A2, TorusKnot(3, 4), (1, 1))):
        res = colored_jones(rs, knot, lam)
        assert abs(res.polynomial.coefficient(res.delta)) == 1


def test_minimizer_closed_form_examples():
    assert minimizer_closed_form(A2, (5, 2), 2) == (0, 3)
    assert minimizer_closed_form(A2, (2, 5), 2) == (3, 0)
    assert minimizer_closed_form(A2, (3, 3), 3) == (0, 0)
    assert minimizer_closed_form(A2, (1, 0), 4) == (1, 0)
    assert minimizer_closed_form(B2, (1, 1), 3) == (1, 1)
    assert minimizer_closed_form(B2, (2, 1), 5) == (0, 1)
    assert minimizer_closed_form(G2, (2, 4), 5) == (0, 0)
    assert minimizer_closed_form(G2, (0, 3), 5) == (0, 0)
    # A1 as A1 x A1: a - 2 per odd factor, 0 per even one
    assert minimizer_closed_form(A1, (2, 0), 2) == (0, 0)
    assert minimizer_closed_form(A1, (3, 0), 5) == (3, 0)
    assert minimizer_closed_form(A1, (3, 1), 4) == (2, 2)
    with pytest.raises(LieError):
        minimizer_closed_form(A1, (3,), 5)


def test_minimizer_corrected_branches():
    # the two case-table corrections, pinned by brute force and polynomials
    assert minimizer_closed_form(B2, (0, 1), 2) == (0, 0)
    assert minimizer_closed_form(G2, (1, 2), 4) == (0, 1)
    assert minimizer_closed_form(G2, (1, 0), 5) == (0, 2)


def test_bruteforce_matches_table_grid():
    for rs in (A1, A2, B2, G2):
        for a in (2, 3, 4, 5, 6):
            for m1 in range(5):
                for m2 in range(5 - m1):
                    lam = (m1, m2)
                    assert minimizer_bruteforce(rs, lam, a) == \
                        minimizer_closed_form(rs, lam, a), (rs.name, a, lam)


def test_maximizer_is_scaled_color():
    for rs in (A1, A2, B2, G2):
        for a in (2, 3):
            for lam in [(1,) * rs.rank, (2,) + (0,) * (rs.rank - 1)]:
                top, mult = maximizer_bruteforce(rs, lam, a)
                assert top == tuple(a * c for c in lam)
                assert mult == 1


def _checked_sum(rs, knot, lam):
    """q^{-delta*} J * prod(1 - q^{(lambda+rho,alpha)}): the numerator over
    the summation set, summand by summand with every positive root (A1 x
    A1's trivial factor included), exponents relative to mu_min."""
    f_star, _ = quadratic_forms(rs, knot, lam)
    base = f_star(minimizer_closed_form(rs, lam, knot.a))
    total = TruncatedSeries.zero()
    for mu, m in summation_set(rs, lam, knot.a).items():
        term = from_exponents({f_star(mu) - base: m})
        for al in rs.positive_roots:
            e = inner(rs, tuple(c + r for c, r in zip(mu, rs.rho)), al)
            term = term * from_exponents({0: 1, e: -1})
        total = total + term
    return total


_CHECKED_SUM_CASES = ((A1, TorusKnot(2, 3), (3, 0)),
                      (A1, TorusKnot(3, 4), (2, 1)),
                      (A2, TorusKnot(2, 3), (3, 0)),
                      (A2, TorusKnot(4, 5), (2, 2)),
                      (B2, TorusKnot(2, 5), (0, 1)),
                      (G2, TorusKnot(2, 3), (1, 0)))


def _denominator_shifts(rs, lam):
    rho = rs.rho
    return [inner(rs, tuple(lam[i] + rho[i] for i in range(rs.rank)), al)
            for al in rs.positive_roots]


def test_checked_sum_consistency():
    # the checked sum starts at q^0 with a nonzero constant and is the
    # shifted J times the denominator product
    for rs, knot, lam in _CHECKED_SUM_CASES:
        res = colored_jones(rs, knot, lam)
        chk = _checked_sum(rs, knot, lam)
        assert chk.min_degree() == 0
        assert chk.coefficient(0) != 0
        prod = TruncatedSeries.one()
        for e in _denominator_shifts(rs, lam):
            prod = prod * from_exponents({0: 1, e: -1})
        assert res.shifted * prod == chk


def test_checked_sum_divides_to_shifted():
    # the rational shifts, one factor at a time, on exponent numerators over
    # the denominator that clears them all
    for rs, knot, lam in _CHECKED_SUM_CASES:
        out = _checked_sum(rs, knot, lam)
        shifts = _denominator_shifts(rs, lam)
        d = lcm(out.denom, *(Fraction(e).denominator for e in shifts))
        for e in shifts:
            k = d // out.denom
            out = div_binomial_series({x * k: c for x, c in out.terms},
                                      (int(e * d),), d)
        assert out == colored_jones(rs, knot, lam).shifted
        assert out.min_degree() == 0


@pytest.mark.parametrize("rs", [A1, A2, B2, G2], ids=lambda rs: rs.name)
def test_jet_equals_truncated_polynomial(rs):
    for a, b in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5)):
        knot = TorusKnot(a, b)
        for ray in ((1, 0), (0, 1), (1, 1)):
            for n in (1, 2, 3):
                lam = (n * ray[0], n * ray[1])
                full = colored_jones(rs, knot, lam).shifted
                for order in (1, 7, 25):
                    assert jones_jet(rs, knot, lam, order) == \
                        full.truncated(order), (knot, lam, order)


def _degree_formula(rs, knot, lam, sign, mu):
    """f* (sign -1) or f (sign +1) at mu by the formula in the
    ``quadratic_forms`` docstring, in Fractions."""
    a, b = knot.a, knot.b
    rho = rs.rho
    return Fraction(b, 2 * a) * norm2(rs, mu) \
        + (Fraction(b, a) + sign) * inner(rs, mu, rho) \
        - Fraction(a * b, 2) * norm2(rs, lam) \
        - (a * b + sign) * inner(rs, lam, rho)


@pytest.mark.parametrize("rs", [A1, A2, B2, G2], ids=lambda rs: rs.name)
def test_degree_quadratic_is_D_times_the_formula(rs):
    # mu with negative coordinates too
    pts = list(product(range(-5, 6), repeat=2))
    for knot in (TorusKnot(2, 3), TorusKnot(3, 5), TorusKnot(4, 7)):
        d = jones._exponent_denominator(rs, knot)
        for lam in ((0, 0), (1, 0), (0, 1), (2, 3), (5, 1)):
            f_star, f_max = quadratic_forms(rs, knot, lam)
            for sign, frac in ((-1, f_star), (1, f_max)):
                quad = jones._degree_quadratic(rs, knot, lam, sign)
                for mu in pts:
                    want = _degree_formula(rs, knot, lam, sign, mu)
                    assert jones._degree_value(quad, mu) == d * want, \
                        (knot, lam, sign, mu)
                    assert frac(mu) == want


def _ball(form, top):
    """Every dominant mu with form(mu) < top, by brute force."""
    i = 0
    while form((i, 0)) < top:
        j = 0
        while form((i, j)) < top:
            yield (i, j)
            j += 1
        i += 1


@pytest.mark.parametrize("rs", [A2, B2, G2], ids=lambda rs: rs.name)
def test_jet_kernel_matches_plethysm_mult(rs):
    # the row scatter against the per-point Weyl sum at every dominant mu of
    # the ball, zeros, points off the coset and points below delta* included
    for a in (2, 3, 4, 5):
        knot = TorusKnot(a, a + 1)
        d = jones._exponent_denominator(rs, knot)
        for ray in ((1, 0), (0, 1), (1, 1), (2, 1)):
            for n in (1, 4, 7):
                lam = (n * ray[0], n * ray[1])
                quad = jones._degree_quadratic(rs, knot, lam, -1)
                shift = jones._degree_value(
                    quad, minimizer_closed_form(rs, lam, a))
                for order in (7, 20):
                    top = shift + order * d
                    got = {(i, j): m for i, row in scatter_rows(
                        rs, lam, a, jones._ball_rows(quad, top))
                        for j, m in row.items() if m}
                    ball = list(_ball(
                        lambda mu: d * _degree_formula(rs, knot, lam, -1, mu),
                        top))
                    assert got and set(got) <= set(ball), (a, lam, order)
                    for mu in ball:
                        assert got.get(mu, 0) == \
                            plethysm_mult(rs, lam, a, mu), (a, lam, mu)


@pytest.mark.parametrize("knot, ray", [(TorusKnot(2, 3), (1, 0)),
                                       (TorusKnot(2, 5), (0, 1))],
                         ids=["T23-l1", "T25-l2"])
def test_jet_moving_minimizer(knot, ray):
    # mu_min = (0, n) or (n, 0) moves with n; A2 has root_det 3 against a = 2
    for n in (20, 27):
        lam = (n * ray[0], n * ray[1])
        assert minimizer_closed_form(A2, lam, 2) == (lam[1], lam[0])
        full = colored_jones(A2, knot, lam).shifted
        for order in (n, n + 7):
            assert jones_jet(A2, knot, lam, order) == full.truncated(order)


def test_jet_certificate_rejects_wrong_anchor(monkeypatch):
    rs, knot = A2, TorusKnot(2, 3)
    with pytest.raises(ValueError):
        jones_jet(rs, knot, (3, 0), 0)
    # anchors below, level with and above mu_min in f*: the lower one leaves
    # q^0 empty, the level one has the right degree but not the right
    # coefficient, and the higher one puts the true lowest term below q^0.
    # At (20, 0) the higher anchor (2, 19) is the next support point, with
    # m = -1: it passes unless the rows below delta* are summed too.
    for lam, mu_min, lead, wrong_anchors in (
            ((3, 0), (0, 3), -1, ((0, 0), (3, 0), (2, 2))),
            ((20, 0), (0, 20), 1, ((0, 0), (20, 0), (2, 19)))):
        assert minimizer_closed_form(rs, lam, knot.a) == mu_min
        assert jones_jet(rs, knot, lam, 5).terms[0] == (0, lead)
        f_star, _ = quadratic_forms(rs, knot, lam)
        low, level, high = wrong_anchors
        assert f_star(low) < f_star(mu_min) == f_star(level) < f_star(high)
        with monkeypatch.context() as patch:
            for wrong in wrong_anchors:
                patch.setattr(jones, "minimizer_closed_form",
                              lambda rs, lam, a, w=wrong: w)
                with pytest.raises(JonesError):
                    jones_jet(rs, knot, lam, 5)
    assert plethysm_mult(rs, (20, 0), 2, (2, 19)) == -1


# sha256 of json.dumps(colored_jones(...).to_json_obj(), sort_keys=True),
# the document the CLI writes.  The A2, B2 and G2 digests are the
# benchmark's baseline ones (bench/workloads.py).  The A1 x A1 document has
# "lambda": [12, 0]; with [12] in its place it is the document of the
# rank-1 code, whose digest A1_RANK1_GOLDEN keeps.
JONES_GOLDEN = {
    ("A2", (4, 5), (3, 3)):
        "dabb35076fc8e8f5ea396556d0f5a8d96c3476fae5445f7ac5633ea347f2454c",
    ("B2", (3, 5), (2, 2)):
        "0bab4b543e9724bb7ce4f2fbe52173550ddfaaf50021c8b598bff94c46c7c2e3",
    ("G2", (2, 5), (1, 1)):
        "d86499fcbe1c240d22798b12fabb2f28edcf925447f3534240b6597771242f3e",
    ("A2", (4, 5), (20, 20)):
        "e701fa4ffb4c02a712663dd6543bb6d0144e01ecba4804fba17a7f5b52a9e549",
    ("A1", (3, 4), (12, 0)):
        "eda7b85b837aa6ac0ff77078db001c9dc0a03f7740fb14ec013c552583fb4a2a",
}
A1_RANK1_GOLDEN = \
    "096716d15824b8257706e1b5e37226c661fc40e7e1619ff61b2013048fb33408"


@pytest.mark.parametrize("algebra, knot, lam", list(JONES_GOLDEN), ids=[
    f"{alg}-T{a}{b}-{','.join(map(str, lam))}"
    for alg, (a, b), lam in JONES_GOLDEN])
def test_jones_payload_golden(algebra, knot, lam):
    rs = get_root_system(algebra)
    res = colored_jones(rs, TorusKnot(*knot), lam)
    obj = res.to_json_obj()
    doc = json.dumps(obj, sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == JONES_GOLDEN[algebra, knot, lam]
    if algebra == "A1":
        obj["lambda"] = obj["lambda"][:1]
        doc = json.dumps(obj, sort_keys=True).encode()
        assert hashlib.sha256(doc).hexdigest() == A1_RANK1_GOLDEN
    for order in (1, 10, 40):
        assert jones_jet(rs, TorusKnot(*knot), lam, order) == \
            res.shifted.truncated(order)


def assert_columnar(s):
    # the stored layout: increasing exponents, no zero coefficient, and the
    # pairs view built from the two columns
    assert all(a < b for a, b in zip(s.exps, s.exps[1:]))
    assert len(s.coeffs) == len(s.exps) and all(s.coeffs)
    assert s.terms == tuple(zip(s.exps, s.coeffs))


@pytest.mark.parametrize("algebra, knot, lam", list(JONES_GOLDEN), ids=[
    f"{alg}-T{a}{b}-{','.join(map(str, lam))}"
    for alg, (a, b), lam in JONES_GOLDEN])
def test_series_columns(algebra, knot, lam):
    poly = colored_jones(get_root_system(algebra), TorusKnot(*knot),
                         lam).polynomial
    assert_columnar(poly)
    assert TruncatedSeries.from_json_obj(poly.to_json_obj()) == poly


def test_jet_and_tail_columns():
    jet = jones_jet(A2, TorusKnot(4, 5), (20, 20), 40)
    assert_columnar(jet)
    assert TruncatedSeries.from_json_obj(jet.to_json_obj()) == jet
    tail = tail_closed_T4b(5, 2, 40)     # quasi-polynomial coefficients
    for phi in tail.phis:
        assert_columnar(phi)
    assert TailSeries.from_json_obj(tail.to_json_obj()) == tail


def test_polynomial_memory_per_term():
    # two tuple slots and two int objects: about 80 B a term here; one
    # (e, c) pair per term took about 124 B.  The peak adds the numerator
    # and the division's array: about 112 B a term, 125 B when the summation
    # set was kept through the division.  The JSON terms, (e, str(c)) tuples
    # on the columns' ints, add about 118 B a term, 135 B as two-slot lists.
    knot, lam = TorusKnot(4, 5), (40, 40)
    colored_jones(A2, knot, lam)      # fill the process-wide tables first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = colored_jones(A2, knot, lam)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
        obj = res.polynomial.to_json_obj()
        encoded = tracemalloc.get_traced_memory()[0] - before - held
    finally:
        tracemalloc.stop()
    terms = len(res.polynomial.exps)
    assert terms > 30000 and len(obj["terms"]) == terms
    assert held < 96 * terms, held / terms
    assert peak < 118 * terms, peak / terms
    assert encoded < 127 * terms, encoded / terms


def test_colored_jones_builds_no_summation_set(monkeypatch):
    # the exact path reads the scatter's rows; no dict keyed by mu is built
    def refuse(*args):
        raise AssertionError("summation_set called")

    monkeypatch.setattr(jones, "summation_set", refuse)
    monkeypatch.setattr(mult, "summation_set", refuse)
    res = colored_jones(A2, TorusKnot(4, 5), (3, 3))
    doc = json.dumps(res.to_json_obj(), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == \
        JONES_GOLDEN["A2", (4, 5), (3, 3)]


def _unbounded_tables():
    # the maxsize=None tables of the modules on the Jones and tail routes,
    # any of which could grow with the color
    return [name for mod in (lie, kostant, mult, jones, qseries, stability)
            for name, fn in vars(mod).items()
            if hasattr(fn, "cache_info") and fn.cache_info().maxsize is None]


def test_jet_leaves_weight_mult_table_alone():
    # the jets take each multiplicity from one Kostant sum over a bounded
    # per-lambda table, so no unbounded table exists to grow along the family
    jones_family(A2, TorusKnot(2, 3), (1, 0), range(20, 41), 40)
    assert _unbounded_tables() == []


def test_colored_jones_leaves_global_tables_alone():
    # the summation set scans the dominant weights and computes each
    # multiplicity once, in bounded tables only
    for lam in ((12, 12), (12, 13)):
        colored_jones(A2, TorusKnot(4, 5), lam)
    assert _unbounded_tables() == []


def test_multiplicity_routes_leave_unbounded_tables_alone():
    # plethysm_mult's per-point route shares the bounded per-lambda tables
    # of the jets and colored_jones
    for n in range(30, 61):
        lam = (n, n + 1)
        for mu in ((0, 0), (1, 2), minimizer_closed_form(A2, lam, 2)):
            plethysm_mult(A2, lam, 2, mu)
            plethysm_mult(A2, lam, 3, mu)
    assert _unbounded_tables() == []


def test_a1_smoke_family():
    # same pipeline, A1 as A1 x A1; exponents are integral after the shift
    for n in range(1, 8):
        res = colored_jones(A1, TorusKnot(2, 3), (n, 0))
        jh = res.shifted
        assert jh.min_degree() == 0
        assert jh.denom == 1
        top, mult = maximizer_bruteforce(A1, (n, 0), 2)
        assert top == (2 * n, 0) and mult == 1


def test_a1_trefoil_tail_prefix():
    # the classical trefoil stable series: shifted members approach (q)_inf
    from torus_tails.qseries import euler_phi
    res = colored_jones(A1, TorusKnot(2, 3), (12, 0))
    jh = res.shifted
    sign = 1 if jh.coefficient(0) > 0 else -1
    assert jh.scaled(sign).agrees_with(euler_phi(12), 12)


def test_b2_half_integer_degrees():
    # B2 polynomials live in Z[q^(1/2)] under this normalization; the global
    # denominator carries the half-integer exponents exactly
    res = colored_jones(B2, TorusKnot(2, 3), (0, 1))
    assert res.delta_star == Fraction(-13, 2)
    assert res.shifted.denom == 2
    assert res.shifted.min_degree() == 0
    assert colored_jones(B2, TorusKnot(2, 3), (1, 0)).delta_star == \
        Fraction(-21, 2)


def test_summand_sort_is_deterministic():
    a = colored_jones(A2, TorusKnot(2, 3), (2, 1))
    b = colored_jones(A2, TorusKnot(2, 3), (2, 1))
    assert a.polynomial == b.polynomial


def test_fault_injection_corrupted_gram():
    # a corrupted inner product must make the minimizer cross-check fail
    # loudly rather than silently shift degrees
    from dataclasses import replace
    good = A2
    rows = [list(r) for r in good.gram]
    rows[1][1] = Fraction(10)  # wrong (lambda2, lambda2): 3*lambda2 no longer
    bad = replace(good, gram=tuple(tuple(r) for r in rows))  # minimizes
    # the integer Gram is derived again from the corrupted one
    assert inner(bad, (0, 1), (0, 1)) == 10 != inner(good, (0, 1), (0, 1))
    assert norm2(bad, (1, 1)) != norm2(good, (1, 1))
    lam = (5, 2)
    table = minimizer_closed_form(bad, lam, 2)
    try:
        brute = minimizer_bruteforce(bad, lam, 2, 3)
    except JonesError:
        return  # non-unique argmin is an acceptable loud failure
    assert brute != table


@pytest.mark.parametrize("rs", [A1, A2, B2, G2], ids=lambda rs: rs.name)
def test_value_at_one_is_one(rs):
    # J(1) = 1: the coefficients of every colored Jones polynomial sum to 1
    rays, n_max = (((1, 0),), 6) if rs is A1 else (((1, 0), (0, 1), (1, 1)),
                                                   3)
    for knot in (TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 4)):
        for ray in rays:
            for n in range(n_max + 1):
                poly = colored_jones(rs, knot, (n * ray[0], n * ray[1]))
                assert sum(poly.polynomial.coeffs) == 1, (knot, ray, n)


def test_a2_colors_are_symmetric():
    # the diagram automorphism of A2 swaps lambda1 and lambda2 and fixes J
    for knot in (TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 4)):
        for m2 in range(5):
            for m1 in range(m2):
                assert colored_jones(A2, knot, (m1, m2)).polynomial == \
                    colored_jones(A2, knot, (m2, m1)).polynomial, \
                    (knot, m1, m2)


@pytest.mark.parametrize("call", [
    lambda: colored_jones(A2, TorusKnot(2, 3), (2, 1, 7)),
    lambda: colored_jones(A2, TorusKnot(2, 3), (3,)),
    lambda: colored_jones(A1, TorusKnot(2, 3), (3,)),
    lambda: jones_jet(A1, TorusKnot(2, 3), (3,), 5),
    lambda: jones_jet(G2, TorusKnot(2, 3), (1, 1, 0), 5),
    lambda: summation_set(A2, (3,), 2),
    lambda: plethysm_mult(A2, (1, 0), 2, (2,)),
    lambda: plethysm_mult(A1, (1,), 2, (1, 0)),
    lambda: mult.weight_mult(B2, (1, 0), (1,)),
    lambda: mult.weight_mult(B2, (1, 0, 0), (1, 0)),
    lambda: mult.lattice_hull(A2, (1, 2, 3), 2),
    lambda: minimizer_closed_form(A1, (3,), 2),
    lambda: minimizer_closed_form(B2, (1, 1, 1), 3),
])
def test_weights_of_the_wrong_length_raise(call):
    # a weight is never padded, cut or misread: A1 takes (n, 0), not (n,)
    with pytest.raises(LieError, match="coordinates"):
        call()
