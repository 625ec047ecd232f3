"""Truncated-series arithmetic, special series, and their exactness rules."""

import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_tails.qseries import (SeriesDivisionError, SeriesError,
                                 ThetaParams, TruncatedSeries,
                                 div_binomial_series, euler_phi, pochhammer,
                                 theta)
from torus_tails.quasipoly import QuasiPolynomial
from torus_tails.stability import TailSeries, lemma_FG_transform
from reference_series import from_exponents as S
from reference_series import geometric


def test_add_cancellation():
    assert (S({0: 1, 1: -1}) + S({1: 1})).as_dict() == {0: 1}


def test_add_identity():
    f = S({0: 1, 3: 2})
    assert (f + TruncatedSeries.zero()) == f


def test_add_merges():
    got = S({0: 1, 3: 1}) + S({1: 1, 3: 1})
    assert got == S({0: 1, 1: 1, 3: 2})


def test_add_order_is_min():
    got = S({0: 1}, order=5) + S({1: 1}, order=9)
    assert got.order_exponent() == 5


def test_mul_geometric_inverse_is_one():
    f = S({0: 1, 1: -1})
    assert (f * geometric(1, 12)).as_dict() == {0: 1}


def test_mul_identity():
    f = S({-2: 3, 5: 1})
    assert f * TruncatedSeries.one() == f


def test_mul_by_exact_zero():
    # an exact 0 annihilates truncated and q^(1/2) operands alike, and the
    # product is the exact 0 over q
    zero = TruncatedSeries.zero()
    for f in (S({0: 1, 3: 2}), S({-2: 1}, order=7), S({}, order=4),
              S({Fraction(1, 2): 3}, order=Fraction(9, 2)), zero):
        assert zero * f == f * zero == zero


def test_mul_binomials():
    got = S({0: 1, 1: -1}) * S({0: 1, 2: -1})
    assert got == S({0: 1, 1: -1, 2: -1, 3: 1})


def test_mul_order_propagation():
    # product exact below min(delta*(f)+order(g), delta*(g)+order(f))
    f = S({2: 1}, order=10)
    g = S({3: 1}, order=11)
    assert (f * g).order_exponent() == min(2 + 11, 3 + 10)


def test_min_degree_additive():
    f = S({Fraction(1, 2): 2, 3: 1})
    g = S({2: -1, 4: 5})
    assert (f * g).min_degree() == f.min_degree() + g.min_degree()


def test_geometric_inverse_examples():
    # 1/(1 - q^m) is the division of 1 with a cutoff
    assert div_binomial_series({0: 1}, (1,), 1, 4).as_dict() == \
        {0: 1, 1: 1, 2: 1, 3: 1}
    assert div_binomial_series({0: 1}, (2,), 1, 5).as_dict() == \
        {0: 1, 2: 1, 4: 1}
    for m, cutoff in ((1, 4), (2, 5), (3, 20), (5, 0), (4, -3)):
        assert div_binomial_series({0: 1}, (m,), 1, cutoff) == \
            geometric(m, cutoff)
    f = S({0: 1, 3: -1})
    assert (f * geometric(3, 20)).as_dict() == {0: 1}
    with pytest.raises(SeriesError):
        div_binomial_series({0: 1}, (0,), 1, 5)
    with pytest.raises(SeriesError):
        div_binomial_series({0: 1}, (-1,), 1, 5)


def test_exact_div_examples():
    assert div_binomial_series({0: 1, 2: -1}, (1,), 1).as_dict() == \
        {0: 1, 1: 1}
    assert div_binomial_series({}, (1,), 1).is_zero
    with pytest.raises(SeriesDivisionError):
        div_binomial_series({0: 1, 2: -1, 3: 1}, (1,), 1)


def test_exact_div_roundtrip_laurent():
    f = S({-3: 2, 0: -2, 4: 1, 5: -1})
    prod = f * S({0: 1, 2: -1})
    assert div_binomial_series(prod.as_dict(), (2,), 1) == f


def test_theta_pentagonal():
    th = theta(ThetaParams(Fraction(3), Fraction(1, 2)), 30)
    assert th.agrees_with(euler_phi(30), 30)
    prefix = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}
    assert th.as_dict() == prefix


def test_theta_identities():
    b, c = Fraction(5), Fraction(7, 2)
    assert theta(ThetaParams(b, -c), 50).agrees_with(
        theta(ThetaParams(b, c), 50), 50)
    b, c = Fraction(3), Fraction(1, 2)
    lhs = theta(ThetaParams(b, c), 60)
    rhs = theta(ThetaParams(b, b + c), 60).shifted(b / 2 + c).scaled(-1)
    assert lhs.agrees_with(rhs, 50)


def test_theta_is_the_plain_sum_below_the_order():
    # theta_{b,c} against the sum of (-1)^s q^((b s^2 + 2c s)/2) over
    # |s| <= 400, term by term, keeping the exponents below the order: every
    # b <= 8 and 2c = b (mod 2) with |c| <= 3b, at every order <= 80, so an
    # exponent equal to the order, negative c and runs of s that miss 0 all
    # occur
    for b in range(1, 9):
        for c2 in range(-6 * b, 6 * b + 1):
            if (c2 - b) % 2:
                continue
            terms = sorted(((b * s * s + c2 * s) // 2, (-1) ** s)
                           for s in range(-400, 401))
            for order in range(81):
                want = {}
                for e, sign in terms:
                    if e >= order:
                        break
                    want[e] = want.get(e, 0) + sign
                assert theta(ThetaParams(b, Fraction(c2, 2)), order) == \
                    TruncatedSeries.make(want, 1, order), (b, c2, order)


def test_theta_rejects_non_integral():
    with pytest.raises(SeriesError):
        ThetaParams(Fraction(3), Fraction(1, 3))
    with pytest.raises(SeriesError):
        ThetaParams(Fraction(5, 2), Fraction(1, 2))


def test_pochhammer_euler():
    got = euler_phi(15)
    assert got.as_dict() == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}


def test_pochhammer_empty_product():
    assert pochhammer(20, 10).as_dict() == {0: 1}


def test_pochhammer_divergent():
    with pytest.raises(SeriesError):
        pochhammer(0, 10)
    with pytest.raises(SeriesError):
        pochhammer(1, 10, step=0)


def test_coefficient_beyond_order_raises():
    f = S({0: 1}, order=5)
    assert f.coefficient(3) == 0
    with pytest.raises(SeriesError):
        f.coefficient(5)
    with pytest.raises(SeriesError):
        f.coefficient(7)
    # a large series in q^(1/2): every stored, absent and fractional exponent
    terms = {Fraction(3 * j, 2): j - 20000 for j in range(-10000, 40000)}
    big = S(terms, order=60000)
    assert big.denom == 2 and len(big.terms) == len(terms) - 1
    for e in (-15000, -3, 0, Fraction(3, 2), 30003, Fraction(119997, 2)):
        assert big.coefficient(e) == terms[e] != 0
    for e in (-15001, -Fraction(1, 2), 1, Fraction(1, 3), 30000, 59999):
        assert big.coefficient(e) == terms.get(e, 0) == 0
    with pytest.raises(SeriesError):
        big.coefficient(60000)
    with pytest.raises(SeriesError):
        big.coefficient(Fraction(120001, 2))


def test_json_roundtrip():
    f = S({Fraction(-1, 2): 3, 2: -7}, order=9)
    obj = f.to_json_obj()
    # the JSON text is pinned, not the container the terms are held in
    assert json.dumps(obj["terms"]) == '[[-1, "3"], [4, "-7"]]'
    assert TruncatedSeries.from_json_obj(obj) == f


small_polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                              max_size=6)


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys)
def test_mul_commutes(d1, d2):
    f, g = S(d1), S(d2)
    assert f * g == g * f


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_mul_distributes(d1, d2, d3):
    f, g, h = S(d1), S(d2), S(d3)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=100, deadline=None)
@given(small_polys, st.integers(1, 4))
def test_exact_div_inverts_mul(d, e):
    f = S(d)
    prod = f * S({0: 1, e: -1})
    assert div_binomial_series(prod.as_dict(), (e,), 1) == f


@settings(max_examples=100, deadline=None)
@given(small_polys, st.integers(1, 5))
def test_truncation_consistency(d, order):
    # multiplying then truncating equals truncating inputs then multiplying,
    # below the propagated order
    f = S(d)
    g = S({0: 1, 1: 1, 2: 1})
    full = (f * g).truncated(order)
    trunc = f.truncated(order) * g.truncated(order)
    bound = trunc.order_exponent()
    if bound is not None and bound > 0 and full.order_exponent() is not None:
        assert full.agrees_with(trunc, min(order, bound))


# -- the same algebra over quasi-polynomial coefficients ----------------------


@st.composite
def quasipolys(draw):
    """Integer-valued quasi-polynomials: period <= 3, degree <= 2."""
    period, degree = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    coeffs = tuple((r, tuple(Fraction(draw(st.integers(-3, 3)))
                             for _ in range(degree + 1)))
                   for r in range(period))
    return QuasiPolynomial(period, coeffs).canonical()


@st.composite
def qp_series(draw, min_exp=-3):
    terms = draw(st.dictionaries(st.integers(min_exp, 8), quasipolys(),
                                 max_size=5))
    order = draw(st.none() | st.integers(min_exp, 12))
    return TruncatedSeries.make(terms, 1, order)


@settings(max_examples=150, deadline=None)
@given(qp_series(), qp_series(), st.integers(-6, 20), st.integers(-4, 4))
def test_qp_arithmetic_commutes_with_evaluation(a, b, n, shift):
    ea, eb = a.evaluate(n), b.evaluate(n)
    assert (a + b).evaluate(n) == ea + eb
    assert (a - b).evaluate(n) == ea - eb
    assert a.shifted(shift).evaluate(n) == ea.shifted(shift)
    assert a.truncated(shift + 4).evaluate(n) == ea.truncated(shift + 4)
    assert a.scaled(shift).evaluate(n) == ea.scaled(shift)


def test_qp_coefficient_times_int_is_a_scale():
    qp = QuasiPolynomial(2, ((0, (Fraction(1), Fraction(2))),
                             (1, (Fraction(0), Fraction(-1)))))
    assert qp * 3 == 3 * qp == qp.scale(3)
    assert not qp * 0 and qp


def test_str_of_qp_series():
    f = TruncatedSeries.make({2: QuasiPolynomial.linear(1, 1)}, 1, 5)
    assert str(f).startswith("+(QuasiPolynomial(period=1, coeffs=")
    assert str(f).endswith("*q^2 + O(q^5)")


def test_evaluate_rejects_non_integer_values():
    half = TruncatedSeries.make({0: QuasiPolynomial.linear(0, Fraction(1, 2))})
    assert half.evaluate(2).as_dict() == {0: 1}
    with pytest.raises(SeriesError):
        half.evaluate(3)


@settings(max_examples=100, deadline=None)
@given(small_polys.map(lambda d: {e + 6: c for e, c in d.items()}),
       st.integers(1, 4), st.integers(0, 20))
def test_div_binomial_cutoff_is_geometric_product_int(poly, m, cutoff):
    want = (TruncatedSeries.make(poly) * geometric(m, cutoff)
            ).truncated(cutoff)
    assert div_binomial_series(poly, (m,), 1, cutoff) == want


@settings(max_examples=60, deadline=None)
@given(qp_series(min_exp=0), st.integers(1, 4), st.integers(0, 16))
def test_div_binomial_cutoff_is_geometric_product_qp(f, m, cutoff):
    cut = cutoff if f.order is None else min(f.order, cutoff)
    want = (f * geometric(m, cutoff)).truncated(cut)
    assert div_binomial_series(dict(f.terms), (m,), 1, cut) == want


# -- division by several binomials at once ------------------------------------


def binomials(shifts):
    """prod_{m in shifts} (1 - q^m)."""
    out = TruncatedSeries.one()
    for m in shifts:
        out = out * S({0: 1, m: -1})
    return out


def divide_one_at_a_time(poly, shifts, cutoff):
    for m in shifts:
        poly = div_binomial_series(poly, (m,), 1, cutoff).as_dict()
    return poly


shift_lists = st.lists(st.integers(1, 5), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(small_polys, shift_lists, st.none() | st.integers(-8, 24))
def test_div_binomial_several_shifts_int(d, shifts, cutoff):
    f = S(d)
    prod = f * binomials(shifts)
    poly = prod.as_dict()
    got = div_binomial_series(poly, shifts, 1, cutoff)
    assert got.as_dict() == divide_one_at_a_time(poly, shifts, cutoff)
    if cutoff is None:
        assert got.as_dict() == f.as_dict()
    else:
        assert got == f.truncated(cutoff)
        # a power series for any poly, exact or not
        other = {e: c + 1 for e, c in poly.items()}
        inverse = TruncatedSeries.one()
        for m in shifts:
            inverse = inverse * geometric(m, max(cutoff, 1) + 8)
        assert div_binomial_series(other, shifts, 1, cutoff) == \
            (TruncatedSeries.make(other) * inverse).truncated(cutoff)


@settings(max_examples=60, deadline=None)
@given(qp_series(min_exp=0), shift_lists, st.none() | st.integers(0, 16))
def test_div_binomial_several_shifts_qp(f, shifts, cutoff):
    f = TruncatedSeries.make(dict(f.terms))     # a polynomial
    poly = dict((f * binomials(shifts)).terms)
    got = div_binomial_series(poly, shifts, 1, cutoff)
    assert got.as_dict() == divide_one_at_a_time(poly, shifts, cutoff)
    assert got == (f if cutoff is None else f.truncated(cutoff))


@settings(max_examples=150, deadline=None)
@given(small_polys, shift_lists, st.integers(1, 3), st.integers(1, 12),
       st.none() | st.integers(-8, 40))
def test_div_binomial_series_is_the_normalized_quotient(d, shifts, k, denom,
                                                        cutoff):
    # exponents and shifts scaled by k share factors with the denominator
    shifts = [k * m for m in shifts]
    f = TruncatedSeries.make({k * e: c for e, c in d.items()})
    poly = (f * binomials(shifts)).as_dict()
    want = TruncatedSeries.make(
        div_binomial_series(poly, shifts, 1, cutoff).as_dict(), denom, cutoff)
    assert div_binomial_series(poly, shifts, denom, cutoff) == want


def test_div_binomial_series_reduces_past_the_lattice():
    # (1 + q^2)(1 - q) / (1 - q) over q^(1/2): the lattice step is 1, but
    # the quotient's exponents 0 and 2 share the factor 2 with the
    # denominator, so the series is 1 + q
    qp = QuasiPolynomial.linear(1, 2)
    for coeff in (1, qp):
        poly = {e: c * coeff for e, c in {0: 1, 1: -1, 2: 1, 3: -1}.items()}
        got = div_binomial_series(poly, (1,), 2)
        assert got == TruncatedSeries(1, (0, 1), (coeff, coeff))
        assert got == TruncatedSeries.make(
            div_binomial_series(poly, (1,), 1).as_dict(), 2)
    # cancelling coefficients at the bottom of the dividend, and no terms
    assert div_binomial_series({0: 0, 4: 1, 8: -1}, (4,), 8, 12) == \
        TruncatedSeries(2, (1,), (1,), 3)
    assert div_binomial_series({}, (3,), 6, 4) == \
        TruncatedSeries(3, (), (), 2)


def test_div_binomial_remainder_in_any_factor_raises():
    # (1 + q)(1 - q^2) is divisible by 1 - q^2 only, and not twice
    qp = QuasiPolynomial.linear(1, 2)
    for coeff in (1, qp):
        poly = {e: c * coeff for e, c in {0: 1, 1: 1, 2: -1, 3: -1}.items()}
        assert div_binomial_series(poly, (2,), 1).as_dict() == \
            {0: coeff, 1: coeff}
        for shifts in ((3,), (2, 3), (3, 2), (2, 2), (1, 2, 2)):
            with pytest.raises(SeriesDivisionError):
                div_binomial_series(poly, shifts, 1)
        # 1 - q^3 leaves a remainder on 1 - q^2, and what it leaves in the
        # list is divisible by 1 - q^2: only its own check can raise
        with pytest.raises(SeriesDivisionError):
            div_binomial_series({0: coeff, 2: -coeff}, (3, 2), 1)
        # the power series exists for every factor
        assert div_binomial_series(poly, (2, 3), 1, 4).as_dict() == \
            {0: coeff, 1: coeff, 3: coeff}


# -- sums and the FG quotient against their dict-sum definitions -------------


def dict_sum(parts, denom):
    """make of the summed term dicts of the (sign, series) parts over
    q^(1/denom), at the smallest of their orders."""
    out, orders = {}, []
    for sign, f in parts:
        k = denom // f.denom
        for e, c in zip(f.exps, f.coeffs):
            out[e * k] = out[e * k] + sign * c if e * k in out else sign * c
        if f.order is not None:
            orders.append(f.order * k)
    return TruncatedSeries.make(out, denom, min(orders, default=None))


@st.composite
def series_pairs(draw):
    """Two series over q^(1/D), D <= 4, truncated or not, both with int or
    both with quasi-polynomial coefficients."""
    coeff = quasipolys() if draw(st.booleans()) else \
        st.integers(-3, 3).filter(bool)
    pair = []
    for _ in range(2):
        terms = draw(st.dictionaries(st.integers(-8, 16), coeff, max_size=6))
        pair.append(TruncatedSeries.make(terms, draw(st.integers(1, 4)),
                                         draw(st.none() | st.integers(-8, 20))))
    return pair


@settings(max_examples=200, deadline=None)
@given(series_pairs(), st.booleans())
def test_sum_and_difference_equal_the_dict_sum(pair, cancel):
    f, g = pair
    if cancel:   # g repeats part of f with the opposite sign
        g = g + TruncatedSeries(f.denom, f.exps[::2],
                                tuple(-c for c in f.coeffs[::2]), f.order)
    d = lcm(f.denom, g.denom)
    assert f + g == dict_sum([(1, f), (1, g)], d)
    assert f - g == dict_sum([(1, f), (-1, g)], d)
    zero = f - f
    assert not zero.exps and zero.order_exponent() == f.order_exponent()


@settings(max_examples=100, deadline=None)
@given(st.lists(qp_series(), min_size=1, max_size=5), st.sampled_from((1, 2)),
       st.integers(0, 3))
def test_fg_recurrence_equals_its_definition(phis, c, d):
    tail = lemma_FG_transform(TailSeries((0, 1), tuple(phis)), c, d)
    for k in range(len(phis)):
        want = dict_sum([(1, phis[k - j * c].shifted(j * d))
                         for j in range(k // c + 1)], 1)
        assert tail.phi(k) == want, k
