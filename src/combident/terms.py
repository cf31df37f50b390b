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
from typing import Callable, Iterable, Mapping, Union

from .affine import Affine, Bound
from .errors import PoleError, PreconditionError, UnboundParameterError
from .exact import alternating_power_sum, binom_rational_pair
from .poly import Polynomial, RationalFunction

Scalar = Union[int, Fraction]
Env = Mapping[str, Scalar]


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
#
# A term compiles once into a closure.  The closures read an environment in
# which integral values are ints (see :func:`exact_env`) and return the
# term's value as an unreduced integer pair ``(num, den)`` with ``den > 0``:
# products multiply numerators and denominators, sums cross-multiply, and no
# Fraction is built until a caller wants one.  No float ever appears.

Pair = tuple[int, int]
Compiled = Callable[[dict], Pair]

_ONE: Pair = (1, 1)
_MINUS_ONE: Pair = (-1, 1)


def _scalar(value: Scalar) -> Scalar:
    return value.numerator if value.denominator == 1 else value


def exact_env(binding: Mapping[str, object]) -> dict[str, Scalar]:
    """A copy of ``binding`` with every integral value as an int.

    Values that are neither ints nor Fractions (say, ``"7/2"``) go through
    ``Fraction`` once here, so this is the binding's only conversion.
    """
    env = {}
    for name, v in binding.items():
        if type(v) is not int:
            v = _scalar(v if type(v) is Fraction else Fraction(v))
        env[name] = v
    return env


def add_pairs(pairs: Iterable[Pair]) -> Pair:
    """The sum of ``(num, den)`` pairs over one running denominator."""
    num, den = 0, 1
    for n, d in pairs:
        if d == den:
            num += n
        else:
            num, den = num * d + n * den, den * d
    return num, den


def _as_integer(value: Scalar, what: str, form: Affine | None = None) -> int:
    """``value`` as an int, or a PreconditionError naming ``what`` and its ``form``.

    The message is formatted only when raising, because this runs for every
    factor of every summand.
    """
    if value.denominator == 1:
        return value.numerator
    label = what if form is None else f"{what} {form}"
    raise PreconditionError(f"{label} must be an integer, got {value}")


def _binom_pair(upper: Scalar, lower: int) -> Pair:
    """binom(upper, lower) as a pair; the denominator is 1 for an integral upper index.

    A non-negative upper index counts (0 outside 0..upper); a negative integral
    one uses upper negation, binom(u, j) = (-1)^j binom(j - u - 1, j).
    """
    if upper.denominator == 1:
        u = upper.numerator
        if u >= 0:
            return (math.comb(u, lower) if lower >= 0 else 0), 1
        if lower >= 0:
            value = math.comb(lower - u - 1, lower)
            return (-value if lower % 2 else value), 1
    if lower < 0:
        raise PreconditionError(
            f"binomial with upper index {upper} is undefined at negative lower index {lower}"
        )
    return binom_rational_pair(upper, lower)


def compile_affine(a: Affine) -> Callable[[dict], Scalar]:
    """A closure computing ``a`` (an int or a Fraction) in an :func:`exact_env` environment.

    A name missing from the environment raises UnboundParameterError.
    """
    const = _scalar(a.const)
    coeffs = a.coeffs
    if not coeffs:
        return lambda env: const
    if len(coeffs) == 1:
        ((name, c),) = coeffs

        def single(env):
            try:
                return c * env[name] + const
            except KeyError:
                raise UnboundParameterError(name) from None

        return single

    def value(env):
        total = const
        for name, c in coeffs:
            try:
                total += c * env[name]
            except KeyError:
                raise UnboundParameterError(name) from None
        return total

    return value


def compile_term(expr: TermExpr) -> Compiled:
    """A closure computing ``expr`` as a ``(num, den)`` pair in an :func:`exact_env` environment (k included)."""
    if isinstance(expr, Const):
        pair = (expr.value.numerator, expr.value.denominator)
        return lambda env: pair
    if isinstance(expr, AffineFactor):
        value = compile_affine(expr.value)

        def affine_factor(env):
            v = value(env)
            return (v, 1) if type(v) is int else (v.numerator, v.denominator)

        return affine_factor
    if isinstance(expr, SignPow):
        form = expr.exponent
        exponent = compile_affine(form)
        return lambda env: (
            _MINUS_ONE if _as_integer(exponent(env), "sign exponent", form) % 2 else _ONE
        )
    if isinstance(expr, Power):
        base, form = compile_affine(expr.base), expr.exponent
        exponent = compile_affine(form)

        def power_value(env):
            b = base(env)
            e = _as_integer(exponent(env), "exponent", form)
            if e < 0:
                raise PreconditionError(f"negative power {e} in term")
            return (b**e, 1) if type(b) is int else (b.numerator**e, b.denominator**e)

        return power_value
    if isinstance(expr, Binom):
        upper, form = compile_affine(expr.upper), expr.lower
        lower = compile_affine(form)
        if not expr.inverted:
            return lambda env: _binom_pair(upper(env), _as_integer(lower(env), "lower index", form))

        def inverse_binom(env):
            u = upper(env)
            j = _as_integer(lower(env), "lower index", form)
            num, den = _binom_pair(u, j)
            if num == 0:
                raise PoleError(f"binom({u}, {j}) = 0 has no reciprocal")
            return (den, num) if num > 0 else (-den, -num)

        return inverse_binom
    if isinstance(expr, Quot):
        numer, denom, form = compile_affine(expr.numer), compile_affine(expr.denom), expr.denom

        def quotient(env):
            d = denom(env)
            if d == 0:
                raise PoleError(f"denominator {form} vanishes")
            n = numer(env)
            num, den = n.numerator * d.denominator, n.denominator * d.numerator
            return (num, den) if den > 0 else (-num, -den)

        return quotient
    if isinstance(expr, AltPowerSum):
        count, shift, power_ = (compile_affine(a) for a in (expr.count, expr.shift, expr.power))

        def alt_power_sum(env):
            n = _as_integer(count(env), "count", expr.count)
            if n < 0:
                raise PreconditionError(f"negative count {n} in alternating power sum")
            s = shift(env)
            p = _as_integer(power_(env), "power", expr.power)
            if p < 0:
                raise PreconditionError(f"negative power {p} in alternating power sum")
            v = alternating_power_sum(n, s, p)
            return (v, 1) if type(v) is int else (v.numerator, v.denominator)

        return alt_power_sum
    if isinstance(expr, Product):
        factors = tuple(compile_term(f) for f in expr.factors)

        def product(env):
            num = den = 1
            for factor in factors:
                n, d = factor(env)
                num *= n
                den *= d
            return num, den

        return product
    if isinstance(expr, TermSum):
        terms = tuple(compile_term(t) for t in expr.terms)
        return lambda env: add_pairs(term(env) for term in terms)
    raise TypeError(f"unknown term node {expr!r}")


def evaluate(expr: TermExpr, env: Env) -> Fraction:
    """Exact value of a term at a full binding (the index k included in env)."""
    return Fraction(*compile_term(expr)(exact_env(env)))


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
            value = Fraction(*_binom_pair(Fraction(expr.upper.evaluate(env)), lower))
            if expr.inverted:
                if value == 0:
                    raise PoleError(f"binom({expr.upper}, {lower}) = 0 has no reciprocal")
                return RationalFunction.constant(Fraction(1) / value)
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
    term = compile_term(spec.term)
    env = exact_env(binding)

    def values():
        for k in spec.range(binding):
            env["k"] = k
            yield term(env)

    return Fraction(*add_pairs(values()))


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
