"""Polynomial and rational-function layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from combident.exact import binom_int
from combident.poly import Polynomial, RationalFunction, rf_equal

X = Polynomial.variable("x")
ONE = Polynomial.constant(1)


coefficients = st.integers(min_value=-9, max_value=9).map(Fraction)
names = st.sampled_from(["x", "y", "z"])
monomials = st.dictionaries(names, st.integers(min_value=1, max_value=6), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)
polynomials = st.lists(st.tuples(monomials, coefficients), max_size=5).map(
    Polynomial.from_terms
)


class TestArithmetic:
    def test_add(self):
        assert (X + 1) + (X - 1) == 2 * X

    def test_mul_difference_of_squares(self):
        assert (ONE + X) * (ONE - X) == ONE - X**2

    def test_annihilator(self):
        assert (X + 2) * Polynomial.constant(0) == Polynomial.constant(0)

    @settings(max_examples=200)
    @given(polynomials, polynomials, polynomials)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polynomials)
    def test_canonicalization_idempotent(self, p):
        assert Polynomial.from_terms(p.terms) == p


class TestPow:
    def test_cube(self):
        assert (ONE + X) ** 3 == 1 + 3 * X + 3 * X**2 + X**3

    def test_zeroth_power(self):
        assert (3 * X**2 - 1) ** 0 == ONE

    def test_square(self):
        assert (ONE - X) ** 2 == 1 - 2 * X + X**2

    def test_pascal_rows(self):
        for n in range(33):
            p = (ONE + X) ** n
            for k in range(n + 1):
                assert p.coefficient((("x", k),) if k else ()) == binom_int(n, k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            X ** -1


class TestSubstitute:
    def test_root(self):
        assert (ONE + X).substitute("x", -1) == Polynomial.constant(0)

    def test_poly_value(self):
        assert (X**2).substitute("x", ONE - X) == 1 - 2 * X + X**2

    @settings(max_examples=100)
    @given(polynomials, polynomials)
    def test_homomorphism(self, p, q):
        target = X - 2
        lhs = (p * q).substitute("x", target)
        rhs = p.substitute("x", target) * q.substitute("x", target)
        assert lhs == rhs

    def test_evaluate(self):
        p = X**2 + 3 * X + Polynomial.constant(Fraction(1, 2))
        assert p.evaluate({"x": Fraction(1, 2)}) == Fraction(1, 4) + Fraction(3, 2) + Fraction(1, 2)


class TestRationalFunction:
    def test_scaled_equal(self):
        assert rf_equal(RationalFunction.of(2 * X, 2), RationalFunction.of(X, 1))

    def test_common_factor(self):
        assert rf_equal(RationalFunction.of(X**2 - 1, X - 1), RationalFunction.of(X + 1))

    def test_distinct(self):
        assert not rf_equal(RationalFunction.of(1, X + 1), RationalFunction.of(1, X - 1))

    def test_monic_denominator(self):
        rf = RationalFunction.of(X, 3 * X + 3)
        assert rf.denominator.leading_coefficient() == 1

    def test_arithmetic(self):
        a = RationalFunction.of(1, X)
        b = RationalFunction.of(1, X + 1)
        total = a + b
        assert rf_equal(total, RationalFunction.of(2 * X + 1, X * (X + 1)))
        assert rf_equal(a * b, RationalFunction.of(1, X * (X + 1)))
        assert rf_equal(a - a, RationalFunction.constant(0))

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction.constant(0).inverse()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction.of(X, 0)
