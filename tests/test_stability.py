"""Stable coefficients, detection, structural and closed tails, transforms."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_tails.jones import TorusKnot, jones_jet
from torus_tails.lie import get_root_system
from torus_tails.qseries import (ThetaParams, TruncatedSeries,
                                 _negative_range, euler_phi, theta)
from torus_tails.quasipoly import QuasiPolynomial
from torus_tails.stability import (StabilityError, TailSeries,
                                   a1_theta_difference, a1_triple_product,
                                   degree_quasipoly_fit, detect_cstability,
                                   detect_jones_tail, jones_family,
                                   lemma_FG_transform, minimal_class_modulus,
                                   qp_series, stable_coefficients, t4b_series,
                                   tail_closed_T2b, tail_closed_T4b,
                                   tail_eval_stable_limit)
from reference_series import from_exponents, geometric

A1 = get_root_system("A1")
A2 = get_root_system("A2")


@pytest.fixture(scope="module")
def trefoil_family():
    # n <= 60 gives detection a comfortable horizon for phi_1 at small orders
    return jones_family(A2, TorusKnot(2, 3), (1, 0), range(1, 61))


def test_stable_coefficients_monomial_family():
    fam = {n: from_exponents({n: 1}) for n in range(1, 6)}
    table = stable_coefficients(fam, 3)
    assert all(table[(0, n)] == 1 for n in range(1, 6))
    assert all(table[(k, n)] == 0 for n in range(1, 6) for k in (1, 2, 3))


def test_stable_coefficients_a0_sign(trefoil_family):
    table = stable_coefficients(trefoil_family, 0)
    for n in range(1, 61):
        assert table[(0, n)] == (1 if n % 2 == 0 else -1)


def test_degree_fit_constant():
    qp = degree_quasipoly_fit([(n, Fraction(5)) for n in range(20)])
    assert qp.degree == 0


def test_degree_fit_trefoil(trefoil_family):
    samples = [(n, -Fraction(3 * n * n + 9 * n, 2)) for n in range(1, 31)]
    qp = degree_quasipoly_fit(samples)
    assert qp.degree == 2
    assert qp(40) == -Fraction(3 * 1600 + 9 * 40, 2)


def test_minimal_class_modulus_values():
    assert minimal_class_modulus(A2, (1, 0), 2, 1)[0] == 6
    m, nu1, nu0 = minimal_class_modulus(A2, (1, 1), 4, 1)
    assert (m, nu1, nu0) == (4, (0, 0), (0, 0))


def test_detect_requires_enough_members(trefoil_family):
    with pytest.raises(StabilityError):
        detect_cstability({1: trefoil_family[1]}, 1, 6, 0, 5)


def test_detect_data_horizon_error(trefoil_family):
    # n <= 30 cannot certify phi_2 to q^30
    with pytest.raises(StabilityError):
        detect_cstability(trefoil_family, 6, 6, 2, 30)


def test_detect_trefoil_small_order(trefoil_family):
    tail = detect_cstability(trefoil_family, 6, 6, 1, 8)
    closed = tail_closed_T2b(3, 1, 8)
    assert tail.agrees_with(closed, 1, 8, start=tail.threshold or 6)
    # odd class carries the global sign
    tail1 = detect_cstability(trefoil_family, 1, 6, 1, 8)
    assert tail1.agrees_with(closed.scale(-1), 1, 8,
                             start=tail1.threshold or 7)


@pytest.mark.parametrize("knot, ray, n0, n_max, q_order", [
    ((2, 3), (1, 0), 6, 48, 5),
    ((2, 3), (1, 0), 1, 48, 5),
    # the family is too short for q^4 here; the jets must reproduce the
    # tail the whole polynomials give all the same
    ((4, 5), (1, 1), 1, 24, 4),
])
def test_detect_jones_tail_jets_match_full_family(knot, ray, n0, n_max,
                                                  q_order):
    knot = TorusKnot(*knot)
    modulus = minimal_class_modulus(A2, ray, knot.a, n0)[0]
    ns = range(n0 % modulus or modulus, n_max + 1, modulus)
    full = detect_cstability(jones_family(A2, knot, ray, ns), n0, modulus, 1,
                             q_order)
    assert detect_jones_tail(A2, knot, ray, n0, n_max, 1, q_order) == full


# Detection must raise rather than return a plausible wrong tail.  Both
# tests below fail today, because detection returns a tail that disagrees
# with the closed form or the stable limit; strict=True makes the fix that
# flips them visible.
@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="detection returns a tail wrong at (1, 10)")
def test_detect_t45_rho_raises_data_horizon_error():
    with pytest.raises(StabilityError, match="data horizon"):
        detect_jones_tail(A2, TorusKnot(4, 5), (1, 1), 1, 40, 1, 12)


@pytest.mark.parametrize("n_max", (24, 30, 36))
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="detection returns a tail wrong at (1, 0)")
def test_detect_g2_t34_rho_raises_or_matches_stable_limit(n_max):
    G2, knot = get_root_system("G2"), TorusKnot(3, 4)
    ref = tail_eval_stable_limit(G2, knot, (1, 1), 1, 1, 6, 60)
    try:
        det = detect_jones_tail(G2, knot, (1, 1), 1, n_max, 1, 6)
    except StabilityError:
        return
    # both routes take their class from minimal_class_modulus
    assert det.residue == ref.residue
    assert det.first_disagreement(ref, 1, 6, det.threshold or 0) is None


# Repro 3 (census probe): detection at n_max 60 against the stable limit at
# n_max 40; today the tails disagree at (1, 17), (1, 19), (1, 19) and (1, 0).
@pytest.mark.parametrize("algebra, knot, ray", [
    ("A2", (5, 6), (1, 1)),
    ("G2", (3, 4), (1, 0)),
    ("G2", (3, 5), (1, 0)),
    ("G2", (3, 5), (1, 1)),
], ids=["A2-T56-rho", "G2-T34-10", "G2-T35-10", "G2-T35-rho"])
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="detection returns a tail wrong below x^1 q^20")
def test_detect_census_raises_or_matches_stable_limit(algebra, knot, ray):
    rs, knot = get_root_system(algebra), TorusKnot(*knot)
    ref = tail_eval_stable_limit(rs, knot, ray, 1, 1, 20, 40)
    try:
        det = detect_jones_tail(rs, knot, ray, 1, 60, 1, 20)
    except StabilityError:
        return
    assert det.residue == ref.residue
    assert det.first_disagreement(ref, 1, 20, det.threshold or 0) is None


def test_partial_sum_defect_inequality(trefoil_family):
    tail = detect_cstability(trefoil_family, 6, 6, 1, 8)
    assert tail.threshold is not None
    for n in range(tail.threshold, 61, 6):
        for k in (0, 1):
            defect = trefoil_family[n] - tail.partial_sum(n, k)
            bound = k * (n + 1)
            horizon = defect.order_exponent()
            if horizon is not None and horizon <= bound:
                continue
            assert (not defect.terms) or defect.min_degree() > bound


def test_tail_closed_T2b_trefoil_phi0():
    t = tail_closed_T2b(3, 2, 40)
    want = (euler_phi(40) * geometric(1, 40)).truncated(40)
    assert t.phi(0).evaluate(5).agrees_with(want, 40)


@pytest.mark.parametrize("b", [3, 5])
def test_tail_closed_T2b_is_the_even_class(b):
    # the closed T(2,b) tail carries its class (0, 2); the odd class has -1
    # times it, and the stable limit agrees with that on every class
    closed = tail_closed_T2b(b, 1, 12)
    assert closed.residue == (0, 2)
    for n0 in range(6):
        sl = tail_eval_stable_limit(A2, TorusKnot(2, b), (1, 0), n0, 1, 12,
                                    40)
        sign = (-1) ** n0
        assert sl.agrees_with(closed.scale(sign), 1, 12), n0
        assert not sl.agrees_with(closed.scale(-sign), 1, 12), n0


def test_tail_closed_T2b_rejects_even():
    with pytest.raises(ValueError):
        tail_closed_T2b(4, 2, 20)


@pytest.mark.parametrize("x_order, q_order, name", [
    (-1, 10, "x_order"), (1, 0, "q_order"), (1, -5, "q_order")])
def test_tail_routes_reject_empty_orders(trefoil_family, x_order, q_order,
                                         name):
    for route in (lambda: tail_closed_T2b(5, x_order, q_order),
                  lambda: tail_closed_T4b(5, x_order, q_order),
                  lambda: tail_eval_stable_limit(A2, TorusKnot(2, 3), (1, 0),
                                                 6, x_order, q_order, 36)):
        with pytest.raises(ValueError, match=name):
            route()
    with pytest.raises(ValueError, match="k_max" if x_order < 0 else name):
        detect_cstability(trefoil_family, 6, 6, x_order, q_order)


def test_detect_constant_family():
    fam = {n: TruncatedSeries.one() for n in range(1, 45)}
    tail = detect_cstability(fam, 0, 1, 2, 5)
    assert tail.phi(0).evaluate(9).as_dict() == {0: 1}
    assert not tail.phi(1).evaluate(9).terms
    assert not tail.phi(2).evaluate(9).terms


def test_detect_t25_matches_closed():
    fam = jones_family(A2, TorusKnot(2, 5), (1, 0), range(1, 61))
    det = detect_cstability(fam, 6, 6, 1, 8)
    closed = tail_closed_T2b(5, 1, 8)
    assert det.agrees_with(closed, 1, 8, start=det.threshold or 12)
    # the x = 0 slice of the closed tail is the detected phi_0
    assert det.agrees_with(closed, 0, 8, start=det.threshold or 12)


def test_t45_series_prefix():
    a0, a1 = t4b_series(5, 20)
    assert a0.coefficient(0) == 1 and a0.coefficient(1) == -2
    assert a0.coefficient(3) == 2 and a0.coefficient(4) == -1
    assert a1.coefficient(6) == -1 and a1.coefficient(9) == 2
    assert a1.coefficient(15) == -4


# (name, b, x_order, q_order) -> tail_values digest of the closed tail; the
# digests are the benchmark's baseline ones (bench/workloads.py)
CLOSED_TAIL_GOLDEN = {
    ("T4b", 5, 2, 1000): "31bff16cf25edb98",
    ("T2b", 7, 3, 1000): "f2a097c846e5466e",
    ("T4b", 5, 2, 50): "1aa2ebe38725b06b",
    ("T2b", 7, 3, 50): "78265936a0edbb21",
}


def tail_values(tail, x_order):
    """Digest of phi_0..phi_x_order evaluated exactly at n = 0, 1, 2: the
    closed tails are linear in n on the one class n = 0 mod 1, so three
    evaluations determine them."""
    vals = []
    for k in range(x_order + 1):
        for n in (0, 1, 2):
            s = tail.phi(k).evaluate(n)
            vals.append((k, n, s.denom, s.order, s.terms))
    return hashlib.sha256(repr(vals).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, b, x_order, q_order", list(CLOSED_TAIL_GOLDEN))
def test_closed_tail_golden(name, b, x_order, q_order):
    fn = {"T4b": tail_closed_T4b, "T2b": tail_closed_T2b}[name]
    tail = fn(b, x_order, q_order)
    assert tail_values(tail, x_order) == \
        CLOSED_TAIL_GOLDEN[name, b, x_order, q_order]


@pytest.mark.parametrize("route", [
    lambda x: tail_closed_T2b(5, x, 40),
    lambda x: tail_closed_T4b(7, x, 40),
    lambda x: tail_eval_stable_limit(A2, TorusKnot(2, 3), (1, 0), 6, x, 20,
                                     36),
    lambda x: tail_eval_stable_limit(get_root_system("G2"), TorusKnot(2, 3),
                                     (0, 1), 1, x, 20, 30),
], ids=["T2b", "T4b", "A2-stable-limit", "G2-stable-limit"])
def test_low_x_order_is_a_prefix_of_x_order_3(route):
    # dividing by prod (1 - x^c q^d) never lowers the x-degree, so asking
    # for fewer x-terms must give exactly the first ones
    full = route(3)
    for x in (0, 1, 2):
        tail = route(x)
        assert tail.phis == full.phis[:x + 1]
        assert tail.residue == full.residue


def test_a1_theta_forms_match():
    _, a1 = t4b_series(5, 60)
    assert a1.agrees_with(a1_theta_difference(5, 60), 60)
    assert a1.agrees_with(a1_triple_product(5, 60), 60)


def test_fg_transform_simple():
    one = TailSeries((0, 1), (qp_series(TruncatedSeries.one()),
                              TruncatedSeries.zero(), TruncatedSeries.zero()))
    g = lemma_FG_transform(one, 1, 0)
    for k in range(3):
        assert g.phi(k).evaluate(0).as_dict() == {0: 1}
    # psi_0 = phi_0 always
    assert g.phi(0).evaluate(0) == one.phi(0).evaluate(0)


def test_fg_transform_roundtrip():
    t = tail_closed_T2b(5, 2, 25)
    for c, d in ((1, 1), (2, 0), (1, 3)):
        # F = G*(1 - q^d x^c): phi_k = psi_k - q^d psi_{k-c}
        psis = lemma_FG_transform(t, c, d).phis
        back = TailSeries(t.residue, tuple(
            psi - psis[k - c].shifted(d) if k >= c else psi
            for k, psi in enumerate(psis)), t.threshold)
        assert back.agrees_with(t, 2, 25)


def test_fg_transform_matches_divided_family(trefoil_family):
    # dividing members by (1 - q^{n+1}) multiplies the tail by 1/(1 - q x)
    horizon = 40
    fam = {}
    for n, f in trefoil_family.items():
        fam[n] = (f * geometric(n + 1, horizon)).truncated(horizon)
    base = detect_cstability(trefoil_family, 6, 6, 1, 8)
    divided = detect_cstability(fam, 6, 6, 1, 8)
    transformed = lemma_FG_transform(base, 1, 1)
    assert divided.agrees_with(transformed, 1, 8,
                               start=divided.threshold or 12)


def test_stable_limit_matches_closed_t45():
    sl = tail_eval_stable_limit(A2, TorusKnot(4, 5), (1, 1), 1, 1, 40, 30)
    closed = tail_closed_T4b(5, 1, 40)
    assert sl.agrees_with(closed, 1, 40, start=8)


def test_stable_limit_samples_vanishing_points_on_late_members(monkeypatch):
    # a point whose late members all vanish is skipped before its early
    # members are sampled; the surviving points are sampled on every member
    from torus_tails import mult
    calls = []
    real = mult.plethysm_mult
    monkeypatch.setattr(mult, "plethysm_mult",
                        lambda *args: calls.append(args) or real(*args))
    tail = tail_eval_stable_limit(A2, TorusKnot(2, 3), (1, 0), 6, 3, 250, 36)
    assert len(calls) == 471
    assert tail.agrees_with(tail_closed_T2b(3, 3, 250), 3, 250)


def test_stable_limit_trivial_ray():
    sl = tail_eval_stable_limit(A2, TorusKnot(2, 3), (0, 0), 1, 1, 10, 30)
    assert sl.phi(0).evaluate(3).as_dict() == {0: 1}
    assert not sl.phi(1).evaluate(3).terms


@pytest.mark.parametrize("algebra, knot, ray", [
    ("G2", (3, 4), (1, 1)),
    ("G2", (2, 3), (0, 1)),
    ("A2", (3, 4), (1, 1)),
    ("A2", (2, 5), (1, 1)),
])
def test_stable_limit_matches_jets(algebra, knot, ray):
    # families with no closed tail: the jets are the independent route
    rs, knot, q_order = get_root_system(algebra), TorusKnot(*knot), 20
    tail = tail_eval_stable_limit(rs, knot, ray, 1, 2, q_order, 30)
    assert tail.phi(0).terms
    n0, modulus = tail.residue
    for n in (13, 19, 25):
        assert n % modulus == n0
        jet = jones_jet(rs, knot, tuple(n * c for c in ray), q_order)
        assert jet.terms
        assert not (jet - tail.partial_sum(n, 2)).terms


@pytest.mark.parametrize("ray, nu0", [((1, 0), (1, 0)), ((0, 1), (0, 1))],
                         ids=["l1", "l2"])
def test_stable_limit_nu0_gradient_matches_jets(ray, nu0):
    # the parity grid's A2 T(4,5) families at n0 = 1 have nu0 != (0, 0), so
    # the gradient (l1, l2) of D*f* at nu0 enters the tail; n_max 60 gives
    # their class (modulus 12) enough members.  Every G2 class the stable
    # limit accepts has nu0 = (0, 0): its minimizers are (0, 0) from n = 2.
    rs, knot, q_order = get_root_system("A2"), TorusKnot(4, 5), 20
    assert minimal_class_modulus(rs, ray, knot.a, 1) == (12, (0, 0), nu0)
    tail = tail_eval_stable_limit(rs, knot, ray, 1, 2, q_order, 60)
    assert tail.residue == (1, 12)
    for n in (13, 25, 37):
        jet = jones_jet(rs, knot, tuple(n * c for c in ray), q_order)
        assert jet.terms
        assert not (jet - tail.partial_sum(n, 2)).terms


def test_stable_limit_g2_t34_rho_q100():
    # n_max 36 and 150 sample the same quasi-polynomials, and the tail's
    # partial sums are the jets while q^(2n) lies past the jet order
    rs, knot = get_root_system("G2"), TorusKnot(3, 4)
    tail = tail_eval_stable_limit(rs, knot, (1, 1), 1, 1, 100, 36)
    assert tail == tail_eval_stable_limit(rs, knot, (1, 1), 1, 1, 100, 150)
    n0, modulus = tail.residue
    for n in (25, 31, 37):
        assert n % modulus == n0
        jet = jones_jet(rs, knot, (n, n), 40)
        assert jet.terms
        assert not (jet - tail.partial_sum(n, 1).truncated(40)).terms


# (algebra, knot, ray, n0) -> the stable limit at x^1/q^30 from n_max 36:
# the digest of a tail (``tail_digest``) or the error it raised, recorded
# with the tangent cone scanned over a (2r+1)^2 box
PARITY_GRID = {
    ("A2", (2, 3), (1, 0), 1): "e52fa3645e006d22",
    ("A2", (2, 3), (1, 0), 2): "4a9e581e6245326e",
    ("A2", (2, 3), (0, 1), 1): "e52fa3645e006d22",
    ("A2", (2, 3), (0, 1), 2): "4a9e581e6245326e",
    ("A2", (2, 3), (1, 1), 1): "5f8199e17d6ab949",
    ("A2", (2, 3), (1, 1), 2): "507fb08812c6a060",
    ("A2", (2, 3), (2, 1), 1):
        "StabilityError: lattice membership not stable on the class",
    ("A2", (2, 3), (2, 1), 2):
        "StabilityError: lattice membership not stable on the class",
    ("A2", (2, 5), (1, 0), 1): "5bd60f5a24e7bde1",
    ("A2", (2, 5), (1, 0), 2): "76570d9ba78d8282",
    ("A2", (2, 5), (0, 1), 1): "5bd60f5a24e7bde1",
    ("A2", (2, 5), (0, 1), 2): "76570d9ba78d8282",
    ("A2", (2, 5), (1, 1), 1): "339d68fe1650ae1c",
    ("A2", (2, 5), (1, 1), 2): "301a5882328678aa",
    ("A2", (2, 5), (2, 1), 1):
        "StabilityError: lattice membership not stable on the class",
    ("A2", (2, 5), (2, 1), 2):
        "StabilityError: lattice membership not stable on the class",
    ("A2", (3, 4), (1, 0), 1): "96a632b4b24ae32b",
    ("A2", (3, 4), (1, 0), 2): "d7d64ebf3f29f564",
    ("A2", (3, 4), (0, 1), 1): "96a632b4b24ae32b",
    ("A2", (3, 4), (0, 1), 2): "d7d64ebf3f29f564",
    ("A2", (3, 4), (1, 1), 1): "4e6db5ca421599c7",
    ("A2", (3, 4), (1, 1), 2): "2c9dd8bcdb6756b7",
    ("A2", (3, 4), (2, 1), 1):
        "StabilityError: tail multiplicity at (0, 3) not quasi-polynomial: "
        "not quasi-polynomial in tested range",
    ("A2", (3, 4), (2, 1), 2):
        "StabilityError: tail multiplicity at (0, 6) not quasi-polynomial: "
        "not quasi-polynomial in tested range",
    ("A2", (3, 5), (1, 0), 1): "db1741c7b51fe107",
    ("A2", (3, 5), (1, 0), 2): "38caf7037df5d47f",
    ("A2", (3, 5), (0, 1), 1): "db1741c7b51fe107",
    ("A2", (3, 5), (0, 1), 2): "38caf7037df5d47f",
    ("A2", (3, 5), (1, 1), 1): "1ae83dcf3bc00a2d",
    ("A2", (3, 5), (1, 1), 2): "0d46908e726438a2",
    ("A2", (3, 5), (2, 1), 1):
        "StabilityError: tail multiplicity at (0, 3) not quasi-polynomial: "
        "not quasi-polynomial in tested range",
    ("A2", (3, 5), (2, 1), 2):
        "StabilityError: tail multiplicity at (0, 6) not quasi-polynomial: "
        "not quasi-polynomial in tested range",
    ("A2", (4, 5), (1, 0), 1):
        "StabilityError: need at least 4 class members below n_max",
    ("A2", (4, 5), (1, 0), 2):
        "StabilityError: need at least 4 class members below n_max",
    ("A2", (4, 5), (0, 1), 1):
        "StabilityError: need at least 4 class members below n_max",
    ("A2", (4, 5), (0, 1), 2):
        "StabilityError: need at least 4 class members below n_max",
    ("A2", (4, 5), (1, 1), 1): "0f49f3df43a4fed3",
    ("A2", (4, 5), (1, 1), 2): "cf13fd7f22042460",
    ("A2", (4, 5), (2, 1), 1):
        "StabilityError: need at least 4 class members below n_max",
    ("A2", (4, 5), (2, 1), 2):
        "StabilityError: need at least 4 class members below n_max",
    ("A2", (2, 7), (1, 0), 1): "d2074c81208abde6",
    ("A2", (2, 7), (1, 0), 2): "0144d639e297ae67",
    ("A2", (2, 7), (0, 1), 1): "d2074c81208abde6",
    ("A2", (2, 7), (0, 1), 2): "0144d639e297ae67",
    ("A2", (2, 7), (1, 1), 1): "60a9510c93a87daa",
    ("A2", (2, 7), (1, 1), 2): "04a6184c673a266d",
    ("A2", (2, 7), (2, 1), 1):
        "StabilityError: lattice membership not stable on the class",
    ("A2", (2, 7), (2, 1), 2):
        "StabilityError: lattice membership not stable on the class",
    ("B2", (2, 3), (1, 0), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 3), (1, 0), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 3), (0, 1), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 3), (0, 1), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 3), (1, 1), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 3), (1, 1), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 3), (2, 1), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 3), (2, 1), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 5), (1, 0), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 5), (1, 0), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 5), (0, 1), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 5), (0, 1), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 5), (1, 1), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 5), (1, 1), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 5), (2, 1), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 5), (2, 1), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (3, 4), (1, 0), 1):
        "StabilityError: non-integral tail exponent at (1, 0)",
    ("B2", (3, 4), (1, 0), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (3, 4), (0, 1), 1):
        "StabilityError: non-integral tail exponent at (-1, 2)",
    ("B2", (3, 4), (0, 1), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (3, 4), (1, 1), 1):
        "StabilityError: non-integral tail exponent at (-1, 2)",
    ("B2", (3, 4), (1, 1), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (3, 4), (2, 1), 1):
        "StabilityError: non-integral tail exponent at (-1, 2)",
    ("B2", (3, 4), (2, 1), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (3, 5), (1, 0), 1):
        "StabilityError: non-integral tail exponent at (1, 0)",
    ("B2", (3, 5), (1, 0), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (3, 5), (0, 1), 1):
        "StabilityError: non-integral prefactor exponents",
    ("B2", (3, 5), (0, 1), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (3, 5), (1, 1), 1):
        "StabilityError: non-integral prefactor exponents",
    ("B2", (3, 5), (1, 1), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (3, 5), (2, 1), 1):
        "StabilityError: non-integral prefactor exponents",
    ("B2", (3, 5), (2, 1), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (4, 5), (1, 0), 1):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (4, 5), (1, 0), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (4, 5), (0, 1), 1):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (4, 5), (0, 1), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (4, 5), (1, 1), 1):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (4, 5), (1, 1), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (4, 5), (2, 1), 1):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (4, 5), (2, 1), 2):
        "StabilityError: non-integral tail exponent at (1, 4)",
    ("B2", (2, 7), (1, 0), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 7), (1, 0), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 7), (0, 1), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 7), (0, 1), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 7), (1, 1), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 7), (1, 1), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 7), (2, 1), 1):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("B2", (2, 7), (2, 1), 2):
        "StabilityError: non-integral tail exponent at (0, 2)",
    ("G2", (2, 3), (1, 0), 1): "d54234b539254a19",
    ("G2", (2, 3), (1, 0), 2): "2c3ca2be98e79b1b",
    ("G2", (2, 3), (0, 1), 1): "2035ea1fbd007236",
    ("G2", (2, 3), (0, 1), 2): "bd0792a0b41ec420",
    ("G2", (2, 3), (1, 1), 1): "9b119811bb13544d",
    ("G2", (2, 3), (1, 1), 2): "e646de47988812df",
    ("G2", (2, 3), (2, 1), 1): "0f01b285a544a19f",
    ("G2", (2, 3), (2, 1), 2): "ab40f77ce6abd06a",
    ("G2", (2, 5), (1, 0), 1): "a2063a02694c7105",
    ("G2", (2, 5), (1, 0), 2): "44e2bbfa5f9a703e",
    ("G2", (2, 5), (0, 1), 1): "2484d6990c736f97",
    ("G2", (2, 5), (0, 1), 2): "6b5d4b4402ba3d74",
    ("G2", (2, 5), (1, 1), 1): "912787634e6d849c",
    ("G2", (2, 5), (1, 1), 2): "0184121502cb8abb",
    ("G2", (2, 5), (2, 1), 1): "987759df24396bc2",
    ("G2", (2, 5), (2, 1), 2): "03fb263dd5d369fc",
    ("G2", (3, 4), (1, 0), 1): "cc8877ac0f2f515c",
    ("G2", (3, 4), (1, 0), 2): "12f44bfe7f8ff201",
    ("G2", (3, 4), (0, 1), 1): "42a36fa240d55343",
    ("G2", (3, 4), (0, 1), 2): "733ad061214d67a9",
    ("G2", (3, 4), (1, 1), 1): "997ce570ba7cdc87",
    ("G2", (3, 4), (1, 1), 2): "3bc383dda9855a6e",
    ("G2", (3, 4), (2, 1), 1): "06c2eef0cc8f1d70",
    ("G2", (3, 4), (2, 1), 2): "c9aff5c0b14d7b53",
    ("G2", (3, 5), (1, 0), 1): "ae48443d9510f47a",
    ("G2", (3, 5), (1, 0), 2): "528b3b8d5a76c01a",
    ("G2", (3, 5), (0, 1), 1): "5f37256c64d5550f",
    ("G2", (3, 5), (0, 1), 2): "8029d05d2d2f4aac",
    ("G2", (3, 5), (1, 1), 1): "879d643716b6b047",
    ("G2", (3, 5), (1, 1), 2): "fef033b5a845a953",
    ("G2", (3, 5), (2, 1), 1): "b4272e3ed2e92b83",
    ("G2", (3, 5), (2, 1), 2): "df2fca844a368f92",
    ("G2", (4, 5), (1, 0), 1):
        "StabilityError: no stabilizing modulus divides a*d",
    ("G2", (4, 5), (1, 0), 2):
        "StabilityError: tail multiplicity at (0, 0) not quasi-polynomial: "
        "not quasi-polynomial in tested range",
    ("G2", (4, 5), (0, 1), 1): "fa0eae82b4572208",
    ("G2", (4, 5), (0, 1), 2): "cd6e35c63948a9d2",
    ("G2", (4, 5), (1, 1), 1):
        "StabilityError: no stabilizing modulus divides a*d",
    ("G2", (4, 5), (1, 1), 2):
        "StabilityError: tail multiplicity at (0, 0) not quasi-polynomial: "
        "not quasi-polynomial in tested range",
    ("G2", (4, 5), (2, 1), 1):
        "StabilityError: tail multiplicity at (0, 0) not quasi-polynomial: "
        "not quasi-polynomial in tested range",
    ("G2", (4, 5), (2, 1), 2):
        "StabilityError: tail multiplicity at (0, 0) not quasi-polynomial: "
        "not quasi-polynomial in tested range",
    ("G2", (2, 7), (1, 0), 1): "4d868de868349b25",
    ("G2", (2, 7), (1, 0), 2): "3212200077a8abcf",
    ("G2", (2, 7), (0, 1), 1): "d18e1504b7b266e4",
    ("G2", (2, 7), (0, 1), 2): "2bc7b33259e03922",
    ("G2", (2, 7), (1, 1), 1): "648c1142e7c5be80",
    ("G2", (2, 7), (1, 1), 2): "9e8bb3cf93ff9013",
    ("G2", (2, 7), (2, 1), 1): "d18d4afca46c8b4a",
    ("G2", (2, 7), (2, 1), 2): "28050eac2322d0c1",
}


def tail_digest(tail):
    body = (tail.residue, tuple(
        (p.order, tuple((e, qp.period, qp.coeffs) for e, qp in p.terms))
        for p in tail.phis))
    return hashlib.sha256(repr(body).encode()).hexdigest()[:16]


def test_stable_limit_parity_grid():
    got = {}
    for algebra, knot, ray, n0 in PARITY_GRID:
        try:
            tail = tail_eval_stable_limit(get_root_system(algebra),
                                          TorusKnot(*knot), ray, n0, 1, 30,
                                          36)
            got[algebra, knot, ray, n0] = tail_digest(tail)
        except StabilityError as exc:
            got[algebra, knot, ray, n0] = f"{type(exc).__name__}: {exc}"
    assert got == PARITY_GRID


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(-40, 40), st.integers(-60, 60))
@example(1, 0, 0)     # x^2 < 0: empty, touching zero at x = 0
@example(1, 0, -1)    # x^2 < 1: the one point x = 0
@example(4, -4, 0)    # 4x(x - 1) < 0: real roots, no integer between
@example(1, 0, 5)     # no real roots
def test_negative_range_matches_scan(c2, c1, c0):
    # |roots| <= (|c1| + sqrt(c1^2 + 4 c2 |c0|)) / 2 < 48 here
    scan = [x for x in range(-60, 61) if c2 * x * x + c1 * x + c0 < 0]
    assert list(_negative_range(c2, c1, c0)) == scan


@pytest.mark.parametrize("knot, ray", [((2, 5), (0, 1)), ((2, 3), (1, 0))])
def test_stable_limit_b2_raises(knot, ray):
    # B2 tails live in q^(1/2): the integral-exponent evaluation refuses them
    with pytest.raises(StabilityError, match="non-integral"):
        tail_eval_stable_limit(get_root_system("B2"), TorusKnot(*knot), ray,
                               1, 1, 6, 30)


def test_tail_json_schema():
    t = tail_closed_T4b(5, 1, 12)
    obj = t.to_json_obj()
    assert obj["residue"] == [0, 1]
    assert obj["phi"][0]["k"] == 0
    assert "series_const" in obj["phi"][0]
    assert "series_linear_n" in obj["phi"][0]
    # constant part of phi_0 is A0, linear part is A1
    a0, a1 = t4b_series(5, 12)
    assert obj["phi"][0]["series_const"] == a0.truncated(12).to_json_obj()
    assert obj["phi"][0]["series_linear_n"] == a1.truncated(12).to_json_obj()


def test_detected_tail_json_carries_residue(trefoil_family):
    tail = detect_cstability(trefoil_family, 6, 6, 0, 6)
    obj = tail.to_json_obj()
    assert obj["residue"] == [0, 6]
    assert obj["threshold"] == tail.threshold


def test_qpseries_arithmetic():
    a = TruncatedSeries.make({0: QuasiPolynomial.constant(1),
                              2: QuasiPolynomial.linear(0, 1)})
    assert (a - a).evaluate(7).is_zero


def test_first_disagreement_beyond_order_raises():
    short = TailSeries((0, 1), (qp_series(TruncatedSeries.make({0: 1}, 1, 5)),))
    longer = TailSeries((0, 1), (qp_series(
        TruncatedSeries.make({0: 1, 6: 2}, 1, 10)),))
    assert short.first_disagreement(longer, 0, 5) is None
    for upto in (7, 10):
        with pytest.raises(StabilityError, match="beyond exactness"):
            short.first_disagreement(longer, 0, upto)
        with pytest.raises(StabilityError, match="beyond exactness"):
            longer.agrees_with(short, 0, upto)


def test_comparison_past_both_orders_raises():
    # both phis are exact only below q^10, and no term lies at or past it
    t45 = tail_closed_T4b(5, 1, 10)
    assert t45.agrees_with(t45, 1, 10)
    with pytest.raises(StabilityError, match="comparison beyond exactness"):
        t45.agrees_with(t45, 1, 40)


def test_tail_json_keeps_non_integer_coefficients():
    # (n - 1)/4 at q^0 used to vanish from series_const
    phi = TruncatedSeries.make({
        0: QuasiPolynomial.linear(Fraction(-1, 4), Fraction(1, 4)),
        1: QuasiPolynomial.constant(3)}, 1, 4)
    tail = TailSeries((1, 4), (phi,), threshold=5)
    obj = tail.to_json_obj()
    entry = obj["phi"][0]
    assert json.dumps(entry["series_const"]["terms"]) == '[[1, "3"]]'
    assert "series_linear_n" not in entry
    assert entry["series_periodic"] == [[0, {
        "period": 1, "degree": 1, "coeffs": [[0, ["-1/4", "1/4"]]]}]]
    assert TailSeries.from_json_obj(obj) == tail


# the rationals p/q with q <= 4 and |p/q| <= 4, drawn by index: a
# st.fractions draw costs far more and the strategy makes thousands
FRACTIONS = st.sampled_from(sorted({Fraction(p, q) for q in range(1, 5)
                                    for p in range(-4 * q, 4 * q + 1)}))


@st.composite
def tails(draw):
    def qp():
        period, degree = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        coeffs = tuple(
            (r, tuple(draw(FRACTIONS) for _ in range(degree + 1)))
            for r in range(period))
        return QuasiPolynomial(period, coeffs).canonical()

    phis = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.none() | st.integers(0, 10))
        exps = draw(st.lists(st.integers(-2, 9), max_size=5, unique=True))
        phis.append(TruncatedSeries.make({e: qp() for e in exps}, 1, order))
    modulus = draw(st.integers(1, 6))
    return TailSeries((draw(st.integers(0, modulus - 1)), modulus),
                      tuple(phis), draw(st.none() | st.integers(0, 50)))


@settings(max_examples=150, deadline=None)
@given(tails())
def test_tail_json_roundtrip(tail):
    obj = tail.to_json_obj()
    assert TailSeries.from_json_obj(json.loads(json.dumps(obj))) == tail


# A1 runs as A1 x A1 with colors (n, 0), through the rank-2 tail routes
A1_KNOTS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)]


@pytest.mark.parametrize("knot", A1_KNOTS, ids=lambda k: f"T{k[0]}{k[1]}")
def test_a1_detection_matches_stable_limit(knot):
    # detection may run out of horizon, but never returns a tail that
    # disagrees with the stable limit
    knot = TorusKnot(*knot)
    sl = tail_eval_stable_limit(A1, knot, (1, 0), 1, 1, 12, 60)
    assert sl.residue == (1, 2 * knot.a)
    try:
        det = detect_jones_tail(A1, knot, (1, 0), 1, 60, 1, 12)
    except StabilityError as exc:
        assert "data horizon" in str(exc)
        return
    assert det.residue == sl.residue
    assert det.first_disagreement(sl, 1, 12) is None


@pytest.mark.parametrize("knot", [(2, 3), (2, 5), (3, 4), (3, 5)],
                         ids=lambda k: f"T{k[0]}{k[1]}")
def test_a1_stable_limit_matches_jets(knot):
    # the jets are the independent route: every class member from 7 on
    # (where q^(3n) is past q^20) equals the partial sum through x^2
    knot = TorusKnot(*knot)
    tail = tail_eval_stable_limit(A1, knot, (1, 0), 1, 2, 20, 60)
    n0, modulus = tail.residue
    members = [n for n in range(n0, 30, modulus) if n >= 7]
    assert len(members) >= 4
    for n in members:
        jet = jones_jet(A1, knot, (n, 0), 20)
        assert jet == tail.partial_sum(n, 2), n


@pytest.mark.parametrize("b", [3, 5, 7])
def test_a1_t2b_tail_is_a_theta_series(b):
    # Armond-Dasbach: the tail of the sl2 colored Jones polynomial of
    # T(2,b) is theta_{b,b/2-1}, for T(2,3) the Euler function (q)_inf; in
    # the min-degree normalization of J-hat it is the tail (not the head),
    # with the class sign (-1)^n
    want = euler_phi(40) if b == 3 else \
        theta(ThetaParams(b, Fraction(b, 2) - 1), 40)
    for n0 in (1, 2, 3, 4):
        sl = tail_eval_stable_limit(A1, TorusKnot(2, b), (1, 0), n0, 0, 40,
                                    60)
        assert sl.phi(0).evaluate(n0) == want.scaled((-1) ** n0), n0
