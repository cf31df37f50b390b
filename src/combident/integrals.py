"""Exact Beta-integral evaluation and an independent quadrature oracle.

``beta_integral_exact`` evaluates ``int_0^1 y^a (1-y)^b dy`` as
``a! b! / (a+b+1)!`` for non-negative integer exponents.  The quadrature
oracle integrates the same integrand with fixed-node Gauss-Legendre rules
computed at 40 significant digits, so the two routes share no code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import mpmath as mp

from .errors import NonIntegerExponentError, SingularExponentError
from .exact import inv_binom

Scalar = Union[int, Fraction]

_DPS = 40


@dataclass(frozen=True)
class BetaArgs:
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


#: Newton steps in floats from the Chebyshev guess; the float root only seeds
#: the 40-digit polish, so this cap needs no convergence test of its own.
_SEED_STEPS = 8
#: Newton steps at _DPS digits.  A float seed is good to about 1e-16 and each
#: step squares the error, so two or three steps suffice.
_POLISH_STEPS = 4


def _legendre(n: int, x):
    """``P_n(x)`` and ``P_n'(x)`` by the three-term recurrence, in the type of ``x``."""
    p_prev, p = 1, x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1)


@lru_cache(maxsize=None)
def gauss_legendre_rule(nodes: int) -> tuple[tuple, tuple]:
    """Nodes and weights on [0, 1] at 40 digits, nodes in decreasing order.

    Each non-negative root x of ``P_n`` on [-1, 1] is found by Newton in
    floats from a Chebyshev guess, then polished by Newton at 40 digits until
    a step falls below ``10^-(dps/2 + 2)``: convergence is quadratic, so the
    error after that step is below the working precision.  A root that does
    not get there in ``_POLISH_STEPS`` steps raises ``ArithmeticError``.  The
    roots are symmetric about 0 with equal weights, so the negative half is
    the mirror image of the positive one.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    with mp.workdps(_DPS):
        tolerance = mp.mpf(10) ** (-(_DPS // 2) - 2)
        roots = []
        for i in range(1, (nodes + 1) // 2 + 1):
            x = math.cos(math.pi * (i - 0.25) / (nodes + 0.5))
            for _ in range(_SEED_STEPS):
                p, dp = _legendre(nodes, x)
                x -= p / dp
            x = mp.mpf(x)
            for _ in range(_POLISH_STEPS):
                p, dp = _legendre(nodes, x)
                step = p / dp
                x -= step
                if abs(step) < tolerance:
                    break
            else:
                raise ArithmeticError(f"Gauss-Legendre root {i} of P_{nodes} did not converge")
            _, dp = _legendre(nodes, x)
            # the [-1, 1] weight 2 / ((1 - x^2) P_n'(x)^2), halved for [0, 1]
            roots.append((x, 1 / ((1 - x * x) * dp * dp)))
        mirror = roots[: nodes // 2][::-1]  # an odd rule's middle root 0 is its own mirror
        xs = [(1 + x) / 2 for x, _ in roots] + [(1 - x) / 2 for x, _ in mirror]
        ws = [w for _, w in roots] + [w for _, w in mirror]
        return tuple(xs), tuple(ws)


def beta_integral_quadrature(args: BetaArgs, nodes: int = 64) -> mp.mpf:
    """Gauss-Legendre estimate of the Beta integrand at high precision.

    For integer exponents a, b <= 20 a 64-node rule is exact up to roundoff
    (the integrand is a polynomial of degree a + b < 2 * nodes), so the
    estimate agrees with :func:`beta_integral_exact` well inside 1e-10.
    """
    a, b = args.a, args.b
    if a < 0 or b < 0:
        raise SingularExponentError(f"quadrature needs non-negative exponents, got ({a}, {b})")
    xs, ws = gauss_legendre_rule(nodes)
    with mp.workdps(_DPS):
        ea = mp.mpf(a.numerator) / a.denominator
        eb = mp.mpf(b.numerator) / b.denominator
        total = mp.mpf(0)
        for x, w in zip(xs, ws):
            total += w * (x**ea) * ((1 - x) ** eb)
        return total


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
