"""Quasi-polynomial ring operations and the fitting protocol."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_tails.quasipoly import (FitError, QuasiPolynomial,
                                   fit_quasi_polynomial)


def int_coefficients(qp):
    """Every integral coefficient of qp is stored as an int."""
    return all(type(c) is int or c.denominator != 1
               for _, cs in qp.coeffs for c in cs)


def fit(samples, **kw):
    """fit_quasi_polynomial of the samples, checked to give the same result
    (or a FitError both times) on them as ints and as Fractions, with
    integral coefficients stored as ints."""
    results = []
    for num in (int, Fraction):
        try:
            results.append(fit_quasi_polynomial(
                [(n, num(v)) for n, v in samples], **kw))
        except FitError as exc:
            results.append(exc)
    from_ints, from_fractions = results
    if isinstance(from_ints, FitError):
        assert isinstance(from_fractions, FitError)
        raise from_ints
    assert from_fractions == from_ints
    assert int_coefficients(from_ints) and int_coefficients(from_fractions)
    return from_ints


def test_integral_coefficients_are_stored_as_ints():
    half = QuasiPolynomial.linear(Fraction(1, 2), Fraction(3, 2))
    obj = {"period": 2, "degree": 1,
           "coeffs": [[0, ["3", "-2"]], [1, ["1/2", "0"]]]}
    for qp in (QuasiPolynomial.constant(Fraction(4)),
               QuasiPolynomial.linear(Fraction(6, 2), Fraction(-1)),
               half.scale(2), half + half,
               QuasiPolynomial.from_json_obj(obj),
               fit_quasi_polynomial([(n, Fraction(3 * n + 2))
                                     for n in range(12)])):
        assert int_coefficients(qp), qp
    assert QuasiPolynomial.from_json_obj(obj).coeffs == \
        ((0, (3, -2)), (1, (Fraction(1, 2), 0)))
    assert type(QuasiPolynomial.constant(Fraction(4))(7)) is int


def test_json_degree_must_match_the_coefficients():
    obj = QuasiPolynomial.linear(1, 2).to_json_obj()
    assert obj["degree"] == 1
    assert QuasiPolynomial.from_json_obj(obj).to_json_obj() == obj
    for wrong in (0, 2):
        with pytest.raises(ValueError, match="degree"):
            QuasiPolynomial.from_json_obj({**obj, "degree": wrong})


def test_fraction_tuples_equal_int_tuples():
    ints = QuasiPolynomial(2, ((0, (1, 2)), (1, (-3, 0))))
    fractions = QuasiPolynomial(2, ((0, (Fraction(1), Fraction(2))),
                                    (1, (Fraction(-3), Fraction(0)))))
    assert fractions == ints and hash(fractions) == hash(ints)
    assert fractions.to_json_obj() == ints.to_json_obj()
    assert fractions.canonical() == ints.canonical()
    assert int_coefficients(fractions.canonical())


def test_non_integral_fit_keeps_its_fraction():
    # n(n+1)/2 on the class n = 1 mod 3: integer values, coefficients 1/2
    qp = fit([(n, n * (n + 1) // 2) for n in range(1, 60, 3)])
    assert qp.coeffs == ((0, (0, Fraction(1, 2), Fraction(1, 2))),)
    assert [type(c) for c in qp.coeffs[0][1]] == [int, Fraction, Fraction]
    assert qp(100) == 5050


def test_int_zero_is_the_additive_identity():
    # dense coefficient lists hold int 0 in their empty slots
    qp = QuasiPolynomial(2, ((0, (Fraction(1), Fraction(2))),
                             (1, (Fraction(-3), Fraction(1, 2)))))
    assert 0 + qp == qp + 0 == qp
    assert sum([qp, qp]) == qp + qp


def test_constant_sequence():
    qp = fit([(n, 7) for n in range(10)])
    assert qp.period == 1 and qp.degree == 0
    assert qp(123) == 7


def test_linear_fit():
    qp = fit([(n, 3 * n + 2) for n in range(12)])
    assert qp.degree == 1 and qp.period == 1
    assert qp(100) == 302


def test_quadratic_with_period_two():
    def f(n):
        return n * n + (1 if n % 2 else -4)
    qp = fit([(n, f(n)) for n in range(40)])
    assert qp.period == 2 and qp.degree == 2
    for n in (81, 82):
        assert qp(n) == f(n)


def test_alternating_signs():
    qp = fit([(n, (-1) ** n * 5) for n in range(20)])
    assert qp.period == 2 and qp.degree == 0


def test_minimal_period_preferred():
    # period-2 data that is secretly period 1
    qp = fit([(n, n) for n in range(0, 30, 2)])
    assert qp.period == 1 and qp.degree == 1


def test_eventually_quasipolynomial_rejected_by_holdout():
    # the jump sits inside the 2P holdout window, so every candidate fails
    vals = [(n, 99) for n in range(10)] + [(n, 5) for n in range(10, 12)]
    with pytest.raises(FitError):
        fit(vals, max_period=1)


def test_not_quasipolynomial_raises():
    vals = [(n, 2 ** n) for n in range(30)]
    with pytest.raises(FitError):
        fit(vals)


def test_validate_all_mode():
    vals = [(n, n % 3) for n in range(20)]
    qp = fit(vals, validate_all=True)
    assert qp.period == 3 and qp.degree == 0
    # a corruption early in the sample must fail every candidate whose
    # period cannot absorb it into its own training class
    bad = vals[:2] + [(2, 17)] + vals[3:]
    with pytest.raises(FitError):
        fit(bad, validate_all=True, max_period=3)


def test_restricted_residue_classes():
    # samples only on n = 1 mod 4: unsampled residues raise on evaluation
    qp = fit([(n, 2 * n + 1) for n in range(1, 60, 4)])
    assert qp(41) == 83
    assert qp.period == 1
    odd = QuasiPolynomial(4, ((1, (5,)), (3, (7,))))
    assert odd(9) == 5 and odd(11) == 7
    for n in (0, 2, 8, 10):
        with pytest.raises(FitError):
            odd(n)


def test_ring_operations():
    a = QuasiPolynomial.linear(1, 2)
    b = QuasiPolynomial.constant(3)
    assert (a + b)(10) == 24
    assert not (a - a)
    assert a.scale(-2)(5) == -22
    assert (-2 * a)(5) == (a * -2)(5) == -22


def test_no_product_of_two_quasi_polynomials():
    # the tails' series only add and int-scale their coefficients
    a = QuasiPolynomial.linear(1, 2)
    with pytest.raises(TypeError):
        a * QuasiPolynomial.constant(3)
    with pytest.raises(TypeError):
        a * Fraction(1, 2)


def test_period_alignment():
    two = QuasiPolynomial(2, ((0, (Fraction(1),)), (1, (Fraction(-1),))))
    three = QuasiPolynomial(3, ((0, (Fraction(0),)), (1, (Fraction(1),)),
                                (2, (Fraction(2),))))
    s = two + three
    assert s.period == 6
    for n in range(12):
        assert s(n) == two(n) + three(n)


def test_canonical_reduces_period():
    fat = QuasiPolynomial(4, tuple((r, (Fraction(5),)) for r in range(4)))
    slim = fat.canonical()
    assert slim.period == 1 and slim.degree == 0


def test_equal_on_class():
    alternating = QuasiPolynomial(2, ((0, (Fraction(1),)),
                                      (1, (Fraction(-1),))))
    const = QuasiPolynomial.constant(1)
    assert alternating.equal_on_class(const, n0=0, modulus=2, start=0)
    assert not alternating.equal_on_class(const, n0=1, modulus=2, start=0)
    assert not alternating.equal_on_class(const, n0=0, modulus=1, start=0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(-5, 5), min_size=1, max_size=3))
def test_fit_recovers_polynomials(period, coeffs):
    def f(n):
        shift = n % period
        return sum(c * n ** j for j, c in enumerate(coeffs)) + shift
    qp = fit([(n, f(n)) for n in range(70)], max_period=8)
    for n in range(70, 90):
        assert qp(n) == f(n)


@pytest.mark.parametrize("samples", [
    [(1, 1), (1, 1), (2, 2), (3, 3)],
    [(1, 1), (2, 2), (3, 3), (2, 5)],
], ids=["same-value", "other-value"])
def test_out_of_domain_requests_raise(samples):
    # a repeated index is refused, whether or not its values agree
    with pytest.raises(FitError) as info:
        fit_quasi_polynomial(samples)
    assert type(info.value) is FitError and \
        str(info.value) == "duplicate sample indices"
