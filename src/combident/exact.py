"""Exact integer/rational arithmetic and the special numbers used by the catalog.

Scalar values are ints or :class:`fractions.Fraction` (arbitrary precision,
always in lowest terms with positive denominator); nothing here ever rounds.

Conventions:
- ``binom_int(i, j)`` is the counting binomial: 0 whenever j < 0 or j > i.
- ``binom_rational(a, j)`` is the falling-factorial product
  ``prod(a - i for i in range(j)) / j!`` and is defined for every rational
  upper index ``a`` and non-negative integer ``j``.  Negative ``j`` is
  rejected, not extended.
- Stirling and r-Stirling numbers of the second kind are evaluated through
  the alternating power sum and memoized.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import PoleError

Rational = Fraction

RationalLike = Union[int, Fraction]

__all__ = [
    "Rational",
    "binom_int",
    "binom_rational",
    "binom_rational_pair",
    "inv_binom",
    "stirling2",
    "r_stirling2",
    "alternating_power_sum",
]


def binom_int(i: int, j: int) -> int:
    """Counting binomial coefficient for a non-negative upper index.

    Returns 0 for j < 0 or j > i.  A negative upper index is a domain error;
    use :func:`binom_rational` for generalized upper indices.
    """
    if i < 0:
        raise ValueError(f"binom_int requires a non-negative upper index, got {i}")
    if j < 0 or j > i:
        return 0
    return math.comb(i, j)


def binom_rational(a: RationalLike, j: int) -> Fraction:
    """Generalized binomial with rational upper index and integer lower index.

    Evaluated by the product formula, which is total in ``a``; agrees with
    :func:`binom_int` when ``a`` is a non-negative integer.

    >>> binom_rational(Fraction(5, 2), 2)
    Fraction(15, 8)
    """
    a = Fraction(a)
    return Fraction(*binom_rational_pair(a.numerator, a.denominator, j))


def binom_rational_pair(p: int, q: int, j: int) -> tuple[int, int]:
    """``binom(p/q, j)`` as an unreduced integer pair ``(num, den)``, for ``q > 0``.

    The falling factorial of ``p/q`` is ``prod(p - i*q) / (q**j * j!)``,
    so no Fraction is built, and ``p/q`` need not be in lowest terms.
    """
    if j < 0:
        raise ValueError(f"binom_rational requires a non-negative lower index, got {j}")
    num = 1
    for i in range(j):
        num *= p - i * q
    return num, q**j * math.factorial(j)


def inv_binom(a: RationalLike, j: int) -> Fraction:
    """Exact reciprocal of :func:`binom_rational`.

    Raises :class:`PoleError` when the binomial vanishes: such a binding is
    outside an identity's validity region.
    """
    value = binom_rational(a, j)
    if value == 0:
        raise PoleError(f"binom({Fraction(a)}, {j}) = 0 has no reciprocal")
    return 1 / value


def alternating_power_sum(count: int, shift: RationalLike, power: int, step: int = 1) -> RationalLike:
    """``sum((-1)**p * C(count, p) * (shift + p*step)**power for p in 0..count)``.

    This is the inner sum appearing in every moment-transformed identity; for
    ``shift = 0`` it equals ``(-1)**count * count! * stirling2(power, count)``
    and for integer ``shift = v >= 0`` it carries the r-Stirling analogue.
    The empty-power convention is ``x**0 == 1`` including ``0**0``.  The sum
    is an int when ``shift`` is an int, and a Fraction otherwise.  With
    ``step = d`` it is ``d**power`` times the sum at shift ``shift/d``, so a
    rational shift ``a/d`` can be summed in ints.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if power < 0:
        raise ValueError(f"power must be non-negative, got {power}")
    total = 0
    for p in range(count + 1):
        term = math.comb(count, p) * (shift + p * step) ** power
        total += -term if p % 2 else term
    return total


@lru_cache(maxsize=None)
def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an m-set into k blocks.

    Zero whenever k > m; stirling2(m, m) == 1.
    """
    if m < 0 or k < 0:
        raise ValueError(f"stirling2 requires non-negative arguments, got ({m}, {k})")
    value = alternating_power_sum(k, 0, m)
    signed = value if k % 2 == 0 else -value
    result = Fraction(signed) / math.factorial(k)
    assert result.denominator == 1, "alternating sum must be divisible by k!"
    return int(result)


@lru_cache(maxsize=None)
def r_stirling2(m: int, k: int, v: int) -> int:
    """r-Stirling number of the second kind with v distinguished elements.

    Counts partitions of an (m+v)-set into (k+v) nonempty blocks in which the
    v distinguished elements lie in distinct blocks.  Reduces to
    :func:`stirling2` at v = 0.
    """
    if m < 0 or k < 0 or v < 0:
        raise ValueError(f"r_stirling2 requires non-negative arguments, got ({m}, {k}, {v})")
    value = alternating_power_sum(k, v, m)
    signed = value if k % 2 == 0 else -value
    result = Fraction(signed) / math.factorial(k)
    assert result.denominator == 1, "alternating sum must be divisible by k!"
    return int(result)
