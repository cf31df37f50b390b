"""Canonical sparse multivariate polynomials.

Coefficients are exact rationals.  A monomial is a tuple of (name, exponent)
pairs sorted by name with no zero exponents; a polynomial stores its terms in
graded-lexicographic order so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .record import Record

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


class Polynomial(Record):
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
                ((((name, i),) if i else _ONE_MONOMIAL), c if type(c) is Fraction else Fraction(c))
                for i, c in enumerate(coeffs)
                if c
            )
        )

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial(((((name, 1),), Fraction(1)),))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Fraction:
        for m, c in self.terms:
            if m == mono:
                return c
        return Fraction(0)

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
