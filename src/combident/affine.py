"""Affine forms in the summation index and named parameters, and range bounds.

An affine form is ``sum(coeff * name) + const`` with integer coefficients.
The constant is kept as a Fraction so that derivation schemes can pin a
parameter to a concrete rational; source-level forms always have integer
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

from .errors import UnboundParameterError

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class Affine:
    coeffs: tuple[tuple[str, int], ...] = ()
    const: Fraction = field(default=Fraction(0))

    @staticmethod
    def of(const: Scalar) -> "Affine":
        return Affine((), Fraction(const))

    @staticmethod
    def var(name: str, coeff: int = 1) -> "Affine":
        if coeff == 0:
            return Affine.of(0)
        return Affine(((name, coeff),), Fraction(0))

    @staticmethod
    def build(coeffs: Mapping[str, int], const: Scalar = 0) -> "Affine":
        filtered = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
        return Affine(filtered, Fraction(const))

    def __add__(self, other) -> "Affine":
        other = _coerce(other)
        acc = dict(self.coeffs)
        for name, c in other.coeffs:
            acc[name] = acc.get(name, 0) + c
        return Affine.build(acc, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine(tuple((n, -c) for n, c in self.coeffs), -self.const)

    def __sub__(self, other) -> "Affine":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Affine":
        return _coerce(other) + (-self)

    def __mul__(self, scalar: int) -> "Affine":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return Affine.of(0)
        return Affine(tuple((n, c * scalar) for n, c in self.coeffs), self.const * scalar)

    __rmul__ = __mul__

    def coefficient(self, name: str) -> int:
        return dict(self.coeffs).get(name, 0)

    def names(self) -> set[str]:
        return {n for n, _ in self.coeffs}

    def is_constant(self) -> bool:
        return not self.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0

    def evaluate(self, env: Mapping[str, Scalar]):
        """Evaluate against an environment.

        Values may be ints, Fractions or ring elements (polynomials); the
        result has whatever type the values combine to, so it is an int when
        the constant and every value are integral.
        """
        total = self.const
        if total.denominator == 1:
            total = total.numerator
        for name, c in self.coeffs:
            try:
                value = env[name]
            except KeyError:
                raise UnboundParameterError(name) from None
            total = c * value + total
        return total

    def substitute(self, name: str, replacement: "Affine") -> "Affine":
        """Replace one name by an affine form (used for index reflection)."""
        c = self.coefficient(name)
        if c == 0:
            return self
        rest = Affine(tuple((n, k) for n, k in self.coeffs if n != name), self.const)
        return rest + replacement * c

    def rename(self, mapping: Mapping[str, str]) -> "Affine":
        acc: dict[str, int] = {}
        for name, c in self.coeffs:
            new = mapping.get(name, name)
            acc[new] = acc.get(new, 0) + c
        return Affine.build(acc, self.const)

    def __str__(self) -> str:
        positive = [(n, c) for n, c in self.coeffs if c > 0]
        negative = [(n, c) for n, c in self.coeffs if c < 0]
        parts: list[str] = []

        def render(name: str, c: int) -> str:
            mag = abs(c)
            return name if mag == 1 else f"{mag}{name}"

        for name, c in positive:
            parts.append(("+ " if parts else "") + render(name, c))
        for name, c in negative:
            parts.append(("- " if parts else "-") + render(name, c))
        if self.const != 0 or not parts:
            mag = abs(self.const)
            text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            if not parts:
                parts.append(text if self.const >= 0 else f"-{text}")
            else:
                parts.append(("+ " if self.const > 0 else "- ") + text)
        return " ".join(parts)


def _coerce(value) -> Affine:
    if isinstance(value, Affine):
        return value
    if isinstance(value, (int, Fraction)):
        return Affine.of(value)
    raise TypeError(f"cannot coerce {value!r} to Affine")


@dataclass(frozen=True)
class Bound:
    """A summation bound: an affine form, optionally halved (floor) and capped.

    ``floor(n/2)`` is represented with ``half=True``; ``cap`` takes the
    minimum with a second affine form (used for moment-transform ranges).
    """

    base: Affine
    half: bool = False
    cap: Affine | None = None

    @staticmethod
    def of(value: Union[int, Affine]) -> "Bound":
        if isinstance(value, int):
            return Bound(Affine.of(value))
        return Bound(value)

    def evaluate(self, env: Mapping[str, Scalar]) -> int:
        raw = self.base.evaluate(env)
        if raw.denominator != 1:
            raise ValueError(f"bound {self.base} is not an integer at this binding")
        value = raw.numerator
        if self.half:
            value //= 2
        if self.cap is not None:
            capped = self.cap.evaluate(env)
            if capped.denominator != 1:
                raise ValueError(f"bound cap {self.cap} is not an integer at this binding")
            value = min(value, capped.numerator)
        return value

    def names(self) -> set[str]:
        out = set(self.base.names())
        if self.cap is not None:
            out |= self.cap.names()
        return out

    def rename(self, mapping: Mapping[str, str]) -> "Bound":
        return Bound(
            self.base.rename(mapping),
            self.half,
            None if self.cap is None else self.cap.rename(mapping),
        )
