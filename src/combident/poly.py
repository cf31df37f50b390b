"""Canonical sparse multivariate polynomials and rational functions.

Coefficients are exact rationals.  A monomial is a tuple of (name, exponent)
pairs sorted by name with no zero exponents; a polynomial stores its terms in
graded-lexicographic order so equality is structural.  Rational functions are
kept as numerator/denominator pairs normalized to a monic denominator;
equality is decided by cross-multiplication, so no multivariate gcd is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Monomial = tuple[tuple[str, int], ...]

Scalar = Union[int, Fraction]

_ONE_MONOMIAL: Monomial = ()


def _monomial_key(mono: Monomial):
    # graded lex: total degree first, then the (name, exponent) spelling
    return (sum(e for _, e in mono), mono)


def _monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e != 0))


@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial over Fraction in named indeterminates."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_terms(terms: Iterable[tuple[Monomial, Scalar]]) -> "Polynomial":
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in terms:
            c = acc.get(mono, Fraction(0)) + Fraction(coeff)
            if c == 0:
                acc.pop(mono, None)
            else:
                acc[mono] = c
        ordered = tuple(sorted(acc.items(), key=lambda t: _monomial_key(t[0])))
        return Polynomial(ordered)

    @staticmethod
    def constant(value: Scalar) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return Polynomial(())
        return Polynomial(((_ONE_MONOMIAL, value),))

    @staticmethod
    def univariate(name: str, coeffs: Sequence[Scalar]) -> "Polynomial":
        """``sum(coeffs[i] * name^i)`` from a dense coefficient list."""
        return Polynomial(
            tuple(
                ((((name, i),) if i else _ONE_MONOMIAL), Fraction(c))
                for i, c in enumerate(coeffs)
                if c
            )
        )

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial(((((name, 1),), Fraction(1)),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == _ONE_MONOMIAL for m, _ in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms[0][1]

    def coefficient(self, mono: Monomial) -> Fraction:
        for m, c in self.terms:
            if m == mono:
                return c
        return Fraction(0)

    def degree(self, name: str | None = None) -> int:
        """Total degree, or degree in one indeterminate; zero poly has degree 0."""
        if not self.terms:
            return 0
        if name is None:
            return max(sum(e for _, e in m) for m, _ in self.terms)
        return max((dict(m).get(name, 0) for m, _ in self.terms), default=0)

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[-1][1]

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        return Polynomial.from_terms(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        products = []
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                products.append((_monomial_mul(m1, m2), c1 * c2))
        return Polynomial.from_terms(products)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError(f"polynomial power must be non-negative, got {exponent}")
        result = Polynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def substitute(self, name: str, value: Union["Polynomial", Scalar]) -> "Polynomial":
        """Evaluation homomorphism in one indeterminate."""
        value = _coerce(value)
        result = Polynomial(())
        for mono, coeff in self.terms:
            exps = dict(mono)
            e = exps.pop(name, 0)
            rest = tuple(sorted(exps.items()))
            result = result + Polynomial(((rest, coeff),)) * value**e
        return result

    def evaluate(self, env: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms:
            value = coeff
            for name, e in mono:
                value *= Fraction(env[name]) ** e
            total += value
        return total

    def names(self) -> set[str]:
        return {name for mono, _ in self.terms for name, _ in mono}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in reversed(self.terms):
            factors = [f"{n}^{e}" if e > 1 else n for n, e in mono]
            if coeff == 1 and factors:
                parts.append("*".join(factors))
            elif coeff == -1 and factors:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([str(coeff)] + factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


@dataclass(frozen=True)
class RationalFunction:
    """Formal quotient of polynomials, denominator monic in graded-lex order."""

    numerator: Polynomial
    denominator: Polynomial

    @staticmethod
    def of(numerator, denominator=1) -> "RationalFunction":
        num = _coerce(numerator)
        den = _coerce(denominator)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        lead = den.leading_coefficient()
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        return RationalFunction(num, den)

    @staticmethod
    def constant(value: Scalar) -> "RationalFunction":
        return RationalFunction.of(Polynomial.constant(value))

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        return RationalFunction.of(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-_coerce_rf(other))

    def __rsub__(self, other) -> "RationalFunction":
        return _coerce_rf(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        return RationalFunction.of(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.numerator.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalFunction.of(self.denominator, self.numerator)

    def __truediv__(self, other) -> "RationalFunction":
        return self * _coerce_rf(other).inverse()

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __str__(self) -> str:
        return f"({self.numerator}) / ({self.denominator})"


def _coerce_rf(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction.of(value)
    return RationalFunction.constant(value)


def rf_equal(a, b) -> bool:
    """Formal equality by cross-multiplication."""
    a = _coerce_rf(a)
    b = _coerce_rf(b)
    return a.numerator * b.denominator == b.numerator * a.denominator
