"""Exact Beta-integral evaluation and an independent quadrature oracle.

``beta_integral_exact`` evaluates ``int_0^1 y^a (1-y)^b dy`` as
``a! b! / (a+b+1)!`` for non-negative integer exponents.  The quadrature
oracle integrates the same integrand with fixed-node Gauss-Legendre rules
computed with Python ints in fixed point (absolute precision 2^-160) and
returned as 40-digit ``mpf`` values, so the two routes share no code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Union

from .errors import NonIntegerExponentError, SingularExponentError
from .exact import inv_binom
from .record import Record

if TYPE_CHECKING:
    import mpmath as mp

Scalar = Union[int, Fraction]

_DPS = 40


class BetaArgs(Record):
    """Exponent pair of the integrand y^a (1-y)^b."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a: Scalar, b: Scalar) -> "BetaArgs":
        return BetaArgs(Fraction(a), Fraction(b))


def beta_integral_exact(args: BetaArgs) -> Fraction:
    """Exact rational value for non-negative integer exponents."""
    a, b = args.a, args.b
    if a.denominator != 1 or b.denominator != 1:
        raise NonIntegerExponentError(f"exact mode needs integer exponents, got ({a}, {b})")
    if a < 0 or b < 0:
        raise NonIntegerExponentError(f"exact mode needs non-negative exponents, got ({a}, {b})")
    a, b = int(a), int(b)
    return Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1))


#: The oracle computes with ints scaled by 2^_PREC.  40 digits need 133 bits;
#: the rest are guard bits for the recurrence and the weights near the ends.
_PREC = 160
_ONE = 1 << _PREC
#: Newton steps in floats from the Chebyshev guess; the float root only seeds
#: the fixed-point polish, so this cap needs no convergence test of its own.
_SEED_STEPS = 8
#: Newton steps in fixed point.  A float seed is good to about 1e-16 and each
#: step squares the error, so two or three steps suffice.
_POLISH_STEPS = 4
#: The polish stops after a step below 2^-73, about 10^-(_DPS/2 + 2).
_STOP = 1 << (_PREC - 73)


def _cos(t: float) -> float:
    """``cos t`` for 0 <= t <= pi/2 by its Taylor series, to about 1e-17.

    ``math.cos`` would do, but its first call faults in about 0.14 MB of
    libm pages, which is most of what the rule adds to peak RSS.
    """
    term = total = 1.0
    for k in range(1, 12):
        term *= -t * t / ((2 * k - 1) * (2 * k))
        total += term
    return total


def _legendre(n: int, x: float) -> tuple[float, float]:
    """``P_n(x)`` and ``P_n'(x)`` by the three-term recurrence, in floats."""
    p_prev, p = 1.0, x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1)


def _legendre_fixed(n: int, x: int) -> tuple[int, int]:
    """``P_n`` and ``P_n'`` at the fixed-point ``x``, by the same recurrence."""
    p_prev, p = _ONE, x
    for j in range(2, n + 1):
        p_prev, p = p, (((2 * j - 1) * x * p >> _PREC) - (j - 1) * p_prev) // j
    return p, (n * ((x * p >> _PREC) - p_prev) << _PREC) // ((x * x >> _PREC) - _ONE)


#: ``nodes -> (pairs, middle)``, filled by ``gauss_legendre_rule``: ``(x, w)``
#: for the node x > 1/2 of each mirrored pair and its weight, and the weight of
#: an odd rule's middle node (0 for an even rule), as ints scaled by 2^_PREC.
#: They are the 40-digit values the rule returns, so the quadrature sums over
#: exactly the published rule.
_FIXED_RULES: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}


@lru_cache(maxsize=None)
def gauss_legendre_rule(nodes: int) -> tuple[tuple, tuple]:
    """Nodes and weights on [0, 1] at 40 digits, nodes in decreasing order.

    Each non-negative root x of ``P_n`` on [-1, 1] is found by Newton in
    floats from a Chebyshev guess, then polished by Newton in fixed point
    (ints scaled by 2^160) until a step falls below 2^-73, about 1e-22:
    convergence is quadratic, so the error after that step is below the
    working precision.  A root that does not get there in ``_POLISH_STEPS``
    steps raises ``ArithmeticError``.  The roots are symmetric about 0 with
    equal weights, so the negative half is the mirror image of the positive
    one.  The returned nodes and weights are also kept in fixed point in
    ``_FIXED_RULES`` for the quadrature.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    roots = []
    for i in range(1, (nodes + 1) // 2 + 1):
        seed = _cos(math.pi * (i - 0.25) / (nodes + 0.5))
        for _ in range(_SEED_STEPS):
            p, dp = _legendre(nodes, seed)
            seed -= p / dp
        x = int(math.ldexp(seed, _PREC))
        for _ in range(_POLISH_STEPS):
            p, dp = _legendre_fixed(nodes, x)
            step = (p << _PREC) // dp
            x -= step
            if abs(step) < _STOP:
                break
        else:
            raise ArithmeticError(f"Gauss-Legendre root {i} of P_{nodes} did not converge")
        _, dp = _legendre_fixed(nodes, x)
        # the [-1, 1] weight 2 / ((1 - x^2) P_n'(x)^2), halved for [0, 1]
        roots.append((x, (1 << 4 * _PREC) // ((_ONE - (x * x >> _PREC)) * dp * dp)))
    mirror = roots[: nodes // 2][::-1]  # an odd rule's middle root 0 is its own mirror
    import mpmath as mp  # imported on first use: most commands never need it

    with mp.workdps(_DPS):
        # (1 +- x) / 2 is exact at scale 2^(_PREC + 1); mpf rounds it to 40 digits
        xs = [mp.mpf((_ONE + x, -_PREC - 1)) for x, _ in roots]
        xs += [mp.mpf((_ONE - x, -_PREC - 1)) for x, _ in mirror]
        ws = [mp.mpf((w, -_PREC)) for _, w in roots + mirror]
    from mpmath.libmp import to_fixed

    def fixed(value) -> int:
        return to_fixed(value._mpf_, _PREC)

    half = nodes // 2
    pairs = tuple((fixed(x), fixed(w)) for x, w in zip(xs[:half], ws))
    _FIXED_RULES[nodes] = pairs, fixed(ws[half]) if nodes % 2 else 0
    return tuple(xs), tuple(ws)


@lru_cache(maxsize=None)
def _pair_powers(nodes: int, e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(xy)^e`` and ``x^e + y^e`` for each mirrored pair x, y = 1 - x of the rule.

    Both are ints scaled by 2^_PREC, each truncated once from its exact value.
    """
    products, sums = [], []
    for x, _ in _FIXED_RULES[nodes][0]:
        y = _ONE - x
        products.append(((x * y) ** e << _PREC) >> 2 * e * _PREC)
        sums.append(((x**e + y**e) << _PREC) >> e * _PREC)
    return tuple(products), tuple(sums)


def beta_integral_quadrature(args: BetaArgs, nodes: int = 64) -> mp.mpf:
    """Gauss-Legendre estimate of the Beta integral for integer exponents.

    For integer exponents a, b <= 20 a 64-node rule is exact up to roundoff
    (the integrand is a polynomial of degree a + b < 2 * nodes), so the
    estimate agrees with :func:`beta_integral_exact` well inside 1e-10.  A
    negative exponent raises ``SingularExponentError``; a non-integer one
    raises ``NonIntegerExponentError``, since no fixed rule integrates it
    exactly and the exact side cannot check it.

    The sum runs in fixed point (ints scaled by 2^160) over the mirrored node
    pairs x and y = 1 - x of the cached rule, which share a weight w: each
    pair adds ``w (xy)^min(a,b) (x^|a-b| + y^|a-b|)``, read from the cached
    power tables of :func:`_pair_powers`, and one floor shift ends the sum;
    an odd rule's middle node 1/2 adds ``w 2^-(a+b)``.
    """
    a, b = args.a, args.b
    if a < 0 or b < 0:
        raise SingularExponentError(f"quadrature needs non-negative exponents, got ({a}, {b})")
    if a.denominator != 1 or b.denominator != 1:
        raise NonIntegerExponentError(f"quadrature needs integer exponents, got ({a}, {b})")
    low, gap, degree = int(min(a, b)), int(abs(a - b)), int(a + b)
    if nodes not in _FIXED_RULES:
        gauss_legendre_rule(nodes)
    pairs, middle = _FIXED_RULES[nodes]
    products, _ = _pair_powers(nodes, low)
    _, sums = _pair_powers(nodes, gap)
    total = 0
    for (_, w), p, s in zip(pairs, products, sums):
        total += w * p * s
    total = (total >> 2 * _PREC) + (middle >> degree)
    import mpmath as mp

    with mp.workdps(_DPS):
        return mp.mpf((total, -_PREC))


def _form_upper_weight(r: int, k: int, s: int, n: int):
    return BetaArgs.of(r + k - s, s - 1), lambda: Fraction(1, s) * inv_binom(k + r, s)


def _form_split_weight(r: int, k: int, s: int, n: int):
    return BetaArgs.of(r - s, k + s - 1), lambda: Fraction(1, k + s) * inv_binom(k + r, k + s)


def _form_plain_lower(r: int, k: int, s: int, n: int):
    return BetaArgs.of(k + s, r - k - s), lambda: Fraction(1, r + 1) * inv_binom(r, k + s)


def _form_reflected(r: int, k: int, s: int, n: int):
    return BetaArgs.of(n - k + s, r - n - s), lambda: Fraction(1, r - k + 1) * inv_binom(
        r - k, r - s - n
    )


#: The four packaged closed forms of the Beta integral used by the derivation
#: schemes.  Each maps integer arguments to (exponent pair, closed-value thunk);
#: inside the form's region (non-negative exponents) the closed value equals
#: ``beta_integral_exact`` on the same exponents.
PACKAGED_FORMS = {
    "upper-weight": _form_upper_weight,
    "split-weight": _form_split_weight,
    "plain-lower": _form_plain_lower,
    "reflected": _form_reflected,
}
