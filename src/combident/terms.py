"""Expression trees for summands, and exact evaluation of finite sums.

A term is built from rational constants, affine factors, signs
``(-1)^(affine)``, powers ``affine^affine``, (inverse) binomials with affine
indices, affine quotients, alternating power sums, products and sums.  Every
binomial lower index must evaluate to an integer at an admissible binding;
violations raise :class:`PreconditionError`, vanishing denominators raise
:class:`PoleError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .affine import Affine, Bound
from .errors import PoleError, PreconditionError
from .exact import alternating_power_sum, binom_int, binom_rational
from .poly import Polynomial, RationalFunction

Scalar = Union[int, Fraction]
Env = Mapping[str, Fraction]


class TermExpr:
    """Base class for summand expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(TermExpr):
    value: Fraction


@dataclass(frozen=True)
class AffineFactor(TermExpr):
    value: Affine


@dataclass(frozen=True)
class SignPow(TermExpr):
    """(-1) raised to an affine exponent (must be integer-valued)."""

    exponent: Affine


@dataclass(frozen=True)
class Power(TermExpr):
    """Affine base raised to a non-negative integer-valued affine exponent."""

    base: Affine
    exponent: Affine


@dataclass(frozen=True)
class Binom(TermExpr):
    """Binomial with affine indices; ``inverted`` marks a reciprocal factor."""

    upper: Affine
    lower: Affine
    inverted: bool = False


@dataclass(frozen=True)
class Quot(TermExpr):
    """Ratio of two affine forms, e.g. s/(k+s)."""

    numer: Affine
    denom: Affine


@dataclass(frozen=True)
class AltPowerSum(TermExpr):
    """``sum((-1)^p C(count,p) (shift+p)^power, p=0..count)``.

    The inner sum of the moment-transformed identities, evaluated exactly as
    written; equals ``(-1)^count count! S(power, count)`` at shift 0 and the
    r-Stirling analogue at integer shifts.
    """

    count: Affine
    shift: Affine
    power: Affine


@dataclass(frozen=True)
class Product(TermExpr):
    factors: tuple[TermExpr, ...]


@dataclass(frozen=True)
class TermSum(TermExpr):
    terms: tuple[TermExpr, ...]


# -- constructors -----------------------------------------------------------

def const(p: Scalar, q: int = 1) -> Const:
    return Const(Fraction(p, q))


def af(value: Union[Affine, int]) -> AffineFactor:
    return AffineFactor(value if isinstance(value, Affine) else Affine.of(value))


def sign(exponent: Affine) -> SignPow:
    return SignPow(exponent)


def power(base: Affine, exponent: Union[Affine, int]) -> Power:
    if isinstance(exponent, int):
        exponent = Affine.of(exponent)
    return Power(base, exponent)


def binom(upper: Affine, lower: Affine) -> Binom:
    return Binom(upper, lower, False)


def ibinom(upper: Affine, lower: Affine) -> Binom:
    return Binom(upper, lower, True)


def quot(numer: Union[Affine, int], denom: Union[Affine, int]) -> Quot:
    if isinstance(numer, int):
        numer = Affine.of(numer)
    if isinstance(denom, int):
        denom = Affine.of(denom)
    return Quot(numer, denom)


def prod(*factors: TermExpr) -> TermExpr:
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def tsum(*terms: TermExpr) -> TermExpr:
    if len(terms) == 1:
        return terms[0]
    return TermSum(tuple(terms))


def altpowsum(count: Affine, shift: Union[Affine, int], power_: Union[Affine, int]) -> AltPowerSum:
    if isinstance(shift, int):
        shift = Affine.of(shift)
    if isinstance(power_, int):
        power_ = Affine.of(power_)
    return AltPowerSum(count, shift, power_)


# -- exact evaluation -------------------------------------------------------

def _as_integer(value: Fraction, what: str, form: Affine | None = None) -> int:
    """``value`` as an int, or a PreconditionError naming ``what`` and its ``form``.

    The message is formatted only when raising, because this runs for every
    factor of every summand.
    """
    value = Fraction(value)
    if value.denominator != 1:
        label = what if form is None else f"{what} {form}"
        raise PreconditionError(f"{label} must be an integer, got {value}")
    return int(value)


def _binom_value(upper: Fraction, lower: int) -> Fraction:
    if upper.denominator == 1 and upper >= 0:
        return Fraction(binom_int(int(upper), lower))
    if lower < 0:
        raise PreconditionError(
            f"binomial with upper index {upper} is undefined at negative lower index {lower}"
        )
    return binom_rational(upper, lower)


def evaluate(expr: TermExpr, env: Env) -> Fraction:
    """Exact value of a term at a full binding (the index k included in env)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, AffineFactor):
        return Fraction(expr.value.evaluate(env))
    if isinstance(expr, SignPow):
        e = _as_integer(expr.exponent.evaluate(env), "sign exponent", expr.exponent)
        return Fraction(-1 if e % 2 else 1)
    if isinstance(expr, Power):
        base = Fraction(expr.base.evaluate(env))
        e = _as_integer(expr.exponent.evaluate(env), "exponent", expr.exponent)
        if e < 0:
            raise PreconditionError(f"negative power {e} in term")
        return base**e
    if isinstance(expr, Binom):
        upper = Fraction(expr.upper.evaluate(env))
        lower = _as_integer(expr.lower.evaluate(env), "lower index", expr.lower)
        value = _binom_value(upper, lower)
        if not expr.inverted:
            return value
        if value == 0:
            raise PoleError(f"binom({upper}, {lower}) = 0 has no reciprocal")
        return 1 / value
    if isinstance(expr, Quot):
        den = Fraction(expr.denom.evaluate(env))
        if den == 0:
            raise PoleError(f"denominator {expr.denom} vanishes")
        return Fraction(expr.numer.evaluate(env)) / den
    if isinstance(expr, AltPowerSum):
        count = _as_integer(expr.count.evaluate(env), "count", expr.count)
        if count < 0:
            raise PreconditionError(f"negative count {count} in alternating power sum")
        shift = Fraction(expr.shift.evaluate(env))
        p = _as_integer(expr.power.evaluate(env), "power", expr.power)
        if p < 0:
            raise PreconditionError(f"negative power {p} in alternating power sum")
        return alternating_power_sum(count, shift, p)
    if isinstance(expr, Product):
        value = Fraction(1)
        for factor in expr.factors:
            value *= evaluate(factor, env)
        return value
    if isinstance(expr, TermSum):
        return sum((evaluate(t, env) for t in expr.terms), Fraction(0))
    raise TypeError(f"unknown term node {expr!r}")


# -- symbolic evaluation ----------------------------------------------------

def evaluate_symbolic(expr: TermExpr, env: Env, symbolic: frozenset[str]) -> RationalFunction:
    """Evaluate with some parameters left as indeterminates.

    Names in ``symbolic`` become polynomial generators; every index that must
    be an integer (signs, lower binomial indices, exponents) must stay
    numeric.  Each inverse binomial contributes an explicit denominator
    polynomial.
    """
    ring_env: dict[str, object] = dict(env)
    for name in symbolic:
        ring_env[name] = Polynomial.variable(name)

    def numeric(a: Affine, what: str) -> int:
        if a.names() & symbolic:
            raise PreconditionError(f"{what} may not involve symbolic parameters")
        return _as_integer(Fraction(a.evaluate(env)), what)

    def ring(a: Affine) -> Polynomial:
        value = a.evaluate(ring_env)
        if isinstance(value, Polynomial):
            return value
        return Polynomial.constant(value)

    if isinstance(expr, Const):
        return RationalFunction.constant(expr.value)
    if isinstance(expr, AffineFactor):
        return RationalFunction.of(ring(expr.value))
    if isinstance(expr, SignPow):
        e = numeric(expr.exponent, "sign exponent")
        return RationalFunction.constant(-1 if e % 2 else 1)
    if isinstance(expr, Power):
        e = numeric(expr.exponent, "exponent")
        if e < 0:
            raise PreconditionError(f"negative power {e} in term")
        return RationalFunction.of(ring(expr.base) ** e)
    if isinstance(expr, Binom):
        lower = numeric(expr.lower, "lower binomial index")
        if not (expr.upper.names() & symbolic):
            value = _binom_value(Fraction(expr.upper.evaluate(env)), lower)
            if expr.inverted:
                if value == 0:
                    raise PoleError(f"binom({expr.upper}, {lower}) = 0 has no reciprocal")
                return RationalFunction.constant(1 / value)
            return RationalFunction.constant(value)
        if lower < 0:
            raise PreconditionError("negative lower index with symbolic upper index")
        upper = ring(expr.upper)
        num = Polynomial.constant(1)
        for i in range(lower):
            num = num * (upper - i)
        num = num * Fraction(1, math.factorial(lower))
        if expr.inverted:
            if num.is_zero():
                raise PoleError("symbolic binomial vanishes identically")
            return RationalFunction.of(Polynomial.constant(1), num)
        return RationalFunction.of(num)
    if isinstance(expr, Quot):
        den = ring(expr.denom)
        if den.is_zero():
            raise PoleError(f"denominator {expr.denom} vanishes")
        return RationalFunction.of(ring(expr.numer), den)
    if isinstance(expr, AltPowerSum):
        count = numeric(expr.count, "alternating power sum count")
        if count < 0:
            raise PreconditionError(f"negative count {count} in alternating power sum")
        p = numeric(expr.power, "alternating power sum power")
        if p < 0:
            raise PreconditionError(f"negative power {p} in alternating power sum")
        shift = ring(expr.shift)
        total = RationalFunction.constant(0)
        for idx in range(count + 1):
            piece = RationalFunction.of((shift + idx) ** p * math.comb(count, idx))
            total = total - piece if idx % 2 else total + piece
        return total
    if isinstance(expr, Product):
        value = RationalFunction.constant(1)
        for factor in expr.factors:
            value = value * evaluate_symbolic(factor, env, symbolic)
        return value
    if isinstance(expr, TermSum):
        value = RationalFunction.constant(0)
        for t in expr.terms:
            value = value + evaluate_symbolic(t, env, symbolic)
        return value
    raise TypeError(f"unknown term node {expr!r}")


# -- finite sums ------------------------------------------------------------

@dataclass(frozen=True)
class SumSpec:
    """A finite sum over the index k of a term expression."""

    lo: Bound
    hi: Bound
    term: TermExpr

    def range(self, binding: Env) -> range:
        lo = max(0, self.lo.evaluate(binding))
        hi = self.hi.evaluate(binding)
        return range(lo, hi + 1)


def evaluate_sum(spec: SumSpec, binding: Env) -> Fraction:
    total = Fraction(0)
    for k in spec.range(binding):
        env = dict(binding)
        env["k"] = Fraction(k)
        total += evaluate(spec.term, env)
    return total


def evaluate_blocks(specs: tuple[SumSpec, ...], binding: Env) -> Fraction:
    return sum((evaluate_sum(s, binding) for s in specs), Fraction(0))


def evaluate_sum_symbolic(
    spec: SumSpec, binding: Env, symbolic: frozenset[str]
) -> RationalFunction:
    total = RationalFunction.constant(0)
    for k in spec.range(binding):
        env = dict(binding)
        env["k"] = Fraction(k)
        total = total + evaluate_symbolic(spec.term, env, symbolic)
    return total


# -- structural helpers -----------------------------------------------------

def _map_affines(expr: TermExpr, fn) -> TermExpr:
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, AffineFactor):
        return AffineFactor(fn(expr.value))
    if isinstance(expr, SignPow):
        return SignPow(fn(expr.exponent))
    if isinstance(expr, Power):
        return Power(fn(expr.base), fn(expr.exponent))
    if isinstance(expr, Binom):
        return Binom(fn(expr.upper), fn(expr.lower), expr.inverted)
    if isinstance(expr, Quot):
        return Quot(fn(expr.numer), fn(expr.denom))
    if isinstance(expr, AltPowerSum):
        return AltPowerSum(fn(expr.count), fn(expr.shift), fn(expr.power))
    if isinstance(expr, Product):
        return Product(tuple(_map_affines(f, fn) for f in expr.factors))
    if isinstance(expr, TermSum):
        return TermSum(tuple(_map_affines(t, fn) for t in expr.terms))
    raise TypeError(f"unknown term node {expr!r}")


def substitute_index(expr: TermExpr, replacement: Affine) -> TermExpr:
    """Rewrite k as an affine form everywhere (e.g. k -> n - k)."""
    return _map_affines(expr, lambda a: a.substitute("k", replacement))


def rename_parameters(expr: TermExpr, mapping: Mapping[str, str]) -> TermExpr:
    return _map_affines(expr, lambda a: a.rename(mapping))


def collect_names(expr: TermExpr) -> set[str]:
    names: set[str] = set()

    def visit(a: Affine) -> Affine:
        names.update(a.names())
        return a

    _map_affines(expr, visit)
    return names
