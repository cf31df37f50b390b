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
from operator import mul
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
#: Newton steps in floats from the Chebyshev guess, at most: the float root
#: only seeds the fixed-point polish, so they stop once a step is below
#: _SEED_STOP, the spacing of floats just above 1 (3 or 4 steps at 64 nodes).
_SEED_STEPS = 8
_SEED_STOP = 2.0**-52
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


class _PairRows:
    """Power rows over the mirrored node pairs x > 1/2 and y = 1 - x of one rule.

    Each pair shares a weight w.  ``products[e]`` holds ``w (xy)^e`` and
    ``sums[e]`` holds ``x^e + y^e`` for every pair, as ints scaled by
    2^(2 _PREC) and 2^_PREC: each power is truncated to 2^-_PREC once from
    its exact value, and w multiplies the truncated ``(xy)^e`` exactly.
    ``middle`` is the weight of an odd rule's middle node (0 for an even
    rule).  :meth:`extend` adds rows as far as the highest exponent asked
    for, one pair at a time: the exact powers start from one ``pow`` per
    base and then take one multiplication per exponent.  They are dropped
    with the pair, because keeping each pair's top powers between calls
    raised the peak memory of a process by about 0.25 MB.
    """

    def __init__(self, pairs: list[tuple[int, int]], middle: int) -> None:
        self.middle = middle
        self._pairs = [(w, x, _ONE - x, x * (_ONE - x)) for x, w in pairs]
        self.products = [tuple(w << _PREC for _, w in pairs)]
        self.sums = [(2 << _PREC,) * len(pairs)]

    def extend(self, top: int) -> None:
        """Add the rows up to exponent ``top``."""
        exponents = range(len(self.sums), top + 1)
        products = [[] for _ in exponents]
        sums = [[] for _ in exponents]
        last = exponents.start - 1
        for w, x, y, xy in self._pairs:
            px, py, pxy = x**last, y**last, xy**last
            for e, product_row, sum_row in zip(exponents, products, sums):
                px, py, pxy = px * x, py * y, pxy * xy
                product_row.append(w * (pxy >> (2 * e - 1) * _PREC))
                sum_row.append(px + py >> (e - 1) * _PREC)
        self.products += map(tuple, products)
        self.sums += map(tuple, sums)


#: ``nodes -> rows``, filled by ``gauss_legendre_rule`` from the 40-digit nodes
#: and weights it returns, so the quadrature sums over exactly the published rule.
_FIXED_RULES: dict[int, _PairRows] = {}


def _mpf(man: int, exp: int) -> mp.mpf:
    """``man * 2^exp`` rounded to _DPS digits, as ``mp.mpf((man, exp))`` gives it at that precision."""
    import mpmath as mp  # imported on first use: most commands never need it

    libmp = mp.libmp
    return mp.make_mpf(libmp.from_man_exp(man, exp, libmp.dps_to_prec(_DPS), libmp.round_nearest))


@lru_cache(maxsize=None)
def gauss_legendre_rule(nodes: int) -> tuple[tuple, tuple]:
    """Nodes and weights on [0, 1] at 40 digits, nodes in decreasing order.

    Each non-negative root x of ``P_n`` on [-1, 1] is found by Newton in
    floats from a Chebyshev guess, stopped once a step is below 2^-52 (at
    most ``_SEED_STEPS`` steps), then polished by Newton in fixed point
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
            step = p / dp
            seed -= step
            if abs(step) < _SEED_STOP:
                break
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
    # (1 +- x) / 2 is exact at scale 2^(_PREC + 1); _mpf rounds it to 40 digits
    xs = [_mpf(_ONE + x, -_PREC - 1) for x, _ in roots]
    xs += [_mpf(_ONE - x, -_PREC - 1) for x, _ in mirror]
    ws = [_mpf(w, -_PREC) for _, w in roots + mirror]
    from mpmath.libmp import to_fixed

    def fixed(value) -> int:
        return to_fixed(value._mpf_, _PREC)

    half = nodes // 2
    pairs = [(fixed(x), fixed(w)) for x, w in zip(xs[:half], ws)]
    _FIXED_RULES[nodes] = _PairRows(pairs, fixed(ws[half]) if nodes % 2 else 0)
    return tuple(xs), tuple(ws)


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
    pair adds ``w (xy)^min(a,b) (x^|a-b| + y^|a-b|)``, read from the rule's
    rows (:class:`_PairRows`), and one floor shift ends the sum; an odd
    rule's middle node 1/2 adds ``w 2^-(a+b)``.
    """
    a, b = args.a, args.b
    if a.numerator < 0 or b.numerator < 0:
        raise SingularExponentError(f"quadrature needs non-negative exponents, got ({a}, {b})")
    if a.denominator != 1 or b.denominator != 1:
        raise NonIntegerExponentError(f"quadrature needs integer exponents, got ({a}, {b})")
    a, b = a.numerator, b.numerator
    low, gap = (a, b - a) if a <= b else (b, a - b)
    if nodes not in _FIXED_RULES:
        gauss_legendre_rule(nodes)
    rows = _FIXED_RULES[nodes]
    if len(rows.sums) <= max(low, gap):
        rows.extend(max(low, gap))
    total = (sum(map(mul, rows.products[low], rows.sums[gap])) >> 2 * _PREC) + (rows.middle >> a + b)
    return _mpf(total, -_PREC)


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
