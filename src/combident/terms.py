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
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .affine import Affine, Bound
from .errors import PoleError, PreconditionError, ShapeError, UnboundParameterError
from .exact import alternating_power_sum, binom_rational, binom_rational_pair
from .record import Record

Scalar = Union[int, Fraction]
Env = Mapping[str, Scalar]


class TermExpr(Record):
    """Base class for summand expression nodes."""


class Const(TermExpr):
    value: Fraction


class AffineFactor(TermExpr):
    value: Affine


class SignPow(TermExpr):
    """(-1) raised to an affine exponent (must be integer-valued)."""

    exponent: Affine


class Power(TermExpr):
    """Affine base raised to a non-negative integer-valued affine exponent."""

    base: Affine
    exponent: Affine


class Binom(TermExpr):
    """Binomial with affine indices; ``inverted`` marks a reciprocal factor."""

    upper: Affine
    lower: Affine
    inverted: bool = False


class Quot(TermExpr):
    """Ratio of two affine forms, e.g. s/(k+s)."""

    numer: Affine
    denom: Affine


class AltPowerSum(TermExpr):
    """``sum((-1)^p C(count,p) (shift+p)^power, p=0..count)``.

    The inner sum of the moment-transformed identities, evaluated exactly as
    written; equals ``(-1)^count count! S(power, count)`` at shift 0 and the
    r-Stirling analogue at integer shifts.
    """

    count: Affine
    shift: Affine
    power: Affine


class Product(TermExpr):
    factors: tuple[TermExpr, ...]


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


def altpowsum(count: Affine, shift: Union[Affine, int], power_: Union[Affine, int]) -> AltPowerSum:
    if isinstance(shift, int):
        shift = Affine.of(shift)
    if isinstance(power_, int):
        power_ = Affine.of(power_)
    return AltPowerSum(count, shift, power_)


# -- exact evaluation -------------------------------------------------------
#
# Every check runs code generated once into the Python source of one
# function, which ``compile()`` turns into code.  The function takes the
# declared parameters' values as positional arguments in sorted-name order,
# ints and Fractions that already fit their sorts (see :func:`compile_check`),
# writes every parameter as an integer numerator over one common denominator
# D (the lcm of the parameters' denominators and of the affine constants'),
# and computes each term as an unreduced integer pair ``(num, den)`` with
# ``den > 0``.  No Fraction and no float appears inside a term.
#
# The source holds only ints and generated identifiers.  Error labels and
# forms reach it through the namespace the code runs in.  The k-free part of
# every affine form is computed once per call; integer uses of a form also
# take its ``divmod`` by D there, so inside the k-loop an integer check is one
# test of a remainder.  Within one block's loop, a value that two factors
# share (the same binomial, sign or check) is computed once.
#
# Names that are integral (sorts ``nat`` and ``int``) arrive as ints.  A
# k-free form over only those names with an integer constant is static: its
# int value is computed once per call, with no D and no remainder test, and
# the pair of a static form is over 1.  A binomial over a static upper index is
# inline ``comb``; any other, and every inverted one, is one memoized call.
#
# One kind of function is generated: a check (:func:`compile_check`) per
# identity and validity.  The declared parameters are every name it reads
# besides the index k, and k never appears in a bound.  Its prologue tests a
# binding's validity, and it then computes both sides of the identity over
# one D.  A binding's sorts are tested by its caller, once per grid axis
# value (:func:`descriptors.check_sorts`).
#
# :func:`evaluate` is the reference the generated code is tested against, and
# what value queries run: a walk of one term's tree in Fractions that raises
# the same exceptions with the same messages.

Pair = tuple[int, int]


def exact(value: object) -> Scalar:
    """``value`` as an int when it is integral, else as a Fraction.

    A value that is neither (say, ``"7/2"``) goes through ``Fraction``.
    """
    if type(value) is int:
        return value
    value = value if type(value) is Fraction else Fraction(value)
    return value.numerator if value.denominator == 1 else value


def exact_env(binding: Mapping[str, object]) -> dict[str, Scalar]:
    """A copy of ``binding`` with every value :func:`exact`."""
    env = dict(binding)
    for name, v in env.items():
        if type(v) is not int:
            env[name] = exact(v)
    return env


# Exceptions raised by compiled code.  Labels and forms come from the
# function's namespace; a value ``num / den`` is formatted only when raising.

# A site is ``(what, form)``, as in ``("lower index", k + r)``.
Site = tuple[str, Affine]


def _not_integer(site: Site, num: int, den: int) -> PreconditionError:
    return PreconditionError(f"{site[0]} {site[1]} must be an integer, got {Fraction(num, den)}")


def _bound_not_integer(site: Site, num: int, den: int) -> ValueError:
    return ValueError(f"{site[0]} {site[1]} is not an integer at this binding")


def _exponent_not_integer(site: Site, num: int, den: int) -> PreconditionError:
    return PreconditionError(f"{site[0]} {site[1]} is not an integer")


def _negative_exponent(site: Site, e: int) -> PreconditionError:
    return PreconditionError(f"{site[0]} {site[1]} is negative ({e})")


def _negative_power(e: int) -> PreconditionError:
    return PreconditionError(f"negative power {e} in term")


def _negative_count(n: int) -> PreconditionError:
    return PreconditionError(f"negative count {n} in alternating power sum")


def _negative_sum_power(p: int) -> PreconditionError:
    return PreconditionError(f"negative power {p} in alternating power sum")


def _no_reciprocal(num: int, den: int, j: int) -> PoleError:
    return PoleError(f"binom({Fraction(num, den)}, {j}) = 0 has no reciprocal")


def _vanishes(form: Affine) -> PoleError:
    return PoleError(f"denominator {form} vanishes")


def _binom_int(u: int, j: int) -> int:
    """binom(u, j) for an integral upper index.

    A non-negative upper index counts (0 outside 0..u); a negative one uses
    upper negation, binom(u, j) = (-1)^j binom(j - u - 1, j).
    """
    if u >= 0:
        return math.comb(u, j) if j >= 0 else 0
    if j >= 0:
        value = math.comb(j - u - 1, j)
        return -value if j % 2 else value
    raise PreconditionError(f"binomial with upper index {u} is undefined at negative lower index {j}")


@lru_cache(maxsize=4096)
def _binom_pair(num: int, den: int, j: int) -> Pair:
    """binom(num/den, j) as a pair; ``num/den`` need not be in lowest terms.

    Memoized: a sweep asks for few distinct binomials many times.  A call
    that raises is not cached, so it raises again on every repeat.
    """
    if num % den == 0:
        return _binom_int(num // den, j), 1
    if j < 0:
        raise PreconditionError(
            f"binomial with upper index {Fraction(num, den)} is undefined at negative lower index {j}"
        )
    return binom_rational_pair(num, den, j)


@lru_cache(maxsize=4096)
def _ibinom_pair(num: int, den: int, j: int) -> Pair:
    """1 / binom(num/den, j) as a pair with ``den > 0``; memoized like :func:`_binom_pair`.

    The binomial comes from the uncached body of :func:`_binom_pair`, so an
    inverted binomial is stored in this cache only.
    """
    b, d = _binom_pair.__wrapped__(num, den, j)
    if not b:
        raise _no_reciprocal(num, den, j)
    return (d, b) if b > 0 else (-d, -b)


def _over_common(terms: list) -> tuple[list, int, int]:
    """One side's terms ``(num, den, a, b, c)`` over their common denominator.

    ``common`` is the lcm of the denominators as given.  Returns the
    nonzero terms as ``(b, c, a, w)`` with integer weights ``w`` over
    ``common``, in descending order, then ``common``, then a bound on the
    absolute value of every x-coefficient of the side over ``common``:
    ``sum(|w| 2^(b+c))``, since the coefficients of ``(1-x)^b (1+x)^c`` sum
    in absolute value to ``2^(b+c)`` and ``x^a`` only shifts them.
    """
    common = math.lcm(*[den for _, den, _, _, _ in terms])
    weighted = [(b, c, a, num * (common // den)) for num, den, a, b, c in terms if num]
    weighted.sort(reverse=True)
    return weighted, common, sum(abs(w) << (b + c) for b, c, _, w in weighted)


def _horner(terms: list, width: int) -> int:
    """``sum(w X^a (1-X)^b (1+X)^c)`` over ``terms`` ``(b, c, a, w)``, exactly at ``X = 2^width``.

    ``terms`` come in descending order (:func:`_over_common`).  Horner's
    rule runs in ``(1-X)`` over the runs of one b, and in ``(1+X)`` within
    a run, so each step is a shift and an add.
    """
    total = inner = b0 = c0 = 0
    if terms:
        b0, c0 = terms[0][:2]
    for b, c, a, w in terms:
        if b != b0:
            for _ in range(c0):
                inner += inner << width
            total += inner
            for _ in range(b0 - b):
                total -= total << width
            inner, b0, c0 = 0, b, c
        elif c != c0:
            for _ in range(c0 - c):
                inner += inner << width
            c0 = c
        inner += w << a * width
    for _ in range(c0):
        inner += inner << width
    total += inner
    for _ in range(b0):
        total -= total << width
    return total


def pack_sides(left: list, right: list) -> tuple[Pair, Pair, int]:
    """Both sides of a kernel identity as exact ints at ``x = X = 2^B``.

    ``left`` and ``right`` hold each term ``num/den * x^a (1-x)^b (1+x)^c``
    as ``(num, den, a, b, c)`` with ``den > 0``.  Returns ``(value, common)``
    for each side, its polynomial over its common denominator evaluated at
    X, and the width B.  With each side's coefficients bounded by
    ``bound_l`` and ``bound_r`` (:func:`_over_common`), every coefficient of
    ``rcommon * left - lcommon * right`` is at most
    ``rcommon * bound_l + lcommon * bound_r`` in absolute value, which B
    makes less than ``2^(B-1)``.  So the sides agree iff
    ``lvalue * rcommon == rvalue * lcommon``, a side is 0 iff its value is,
    and each value's balanced base-2^B digits are its coefficients.
    """
    left, lcommon, lbound = _over_common(left)
    right, rcommon, rbound = _over_common(right)
    width = (rcommon * lbound + lcommon * rbound).bit_length() + 1
    return (_horner(left, width), lcommon), (_horner(right, width), rcommon), width


_NAMESPACE = {
    "comb": math.comb,
    "lcm": math.lcm,
    **{
        f.__name__: f
        for f in (
            _not_integer, _bound_not_integer, _exponent_not_integer, _negative_exponent,
            _negative_power, _negative_count, _negative_sum_power, _vanishes,
            _binom_int, _binom_pair, _ibinom_pair, pack_sides,
        )
    },
}

# what the kernel exponents of a block raise to: x^a (1-x)^b (1+x)^c
_KERNEL_LABELS = ("x", "(1-x)", "(1+x)")


def _key(form: Affine) -> tuple:
    """A dictionary key for ``form`` that does not hash a Fraction."""
    return form.coeffs, form.const.numerator, form.const.denominator


def _lone_name(form: Affine) -> str | None:
    """The name of a form that is one parameter with coefficient 1 and constant 0, else None."""
    if form.const == 0 and len(form.coeffs) == 1 and form.coeffs[0][1] == 1:
        return form.coeffs[0][0]
    return None


def _is_literal(source: str) -> bool:
    return source.lstrip("-").isdigit()


def _group(source: str) -> str:
    """``source`` as an operand: parenthesized unless it is a name or a non-negative literal."""
    return source if source.isidentifier() or source.isdigit() else f"({source})"


def _linear(c: int, var: str, rest: str) -> str:
    """Source of ``c * var + rest``."""
    if not c:
        return rest
    term = var if c == 1 else f"-{var}" if c == -1 else f"{c} * {var}"
    return term if rest == "0" else f"{rest} + {term}"


class _Source:
    """The source of one generated check, and the namespace it will run in.

    A form that names k is split into ``c * k + rest``: k is the index of a
    block's loop, an int, and ``rest`` is computed once per call.  ``names``
    are the declared parameters, the only other names a form may use.  The
    names in ``integral`` arrive as ints (see the comment above), and
    those in ``naturals`` are known to be ints >= 0, so tests of a sign that
    cannot be negative are left out.  ``shared`` maps the source of each
    value and check emitted for the current block to its identifiers, so a
    repeat reuses them; :meth:`start_block` empties it.
    """

    def __init__(self, names: list[str], integral: frozenset[str], naturals: frozenset[str]):
        self.integral = integral
        self.naturals = naturals
        # name -> identifier of its numerator over D
        self.params = {name: f"p{i}" for i, name in enumerate(names)}
        # keyed by _key(k-free part): the identifier of a static form's int
        # value, of any other form's numerator over D, and of the quotient and
        # remainder of that by D
        self.statics: dict[tuple, tuple[str, Affine]] = {}
        self.rests: dict[tuple, tuple[str, Affine]] = {}
        self.quotients: dict[tuple, tuple[str, str, str]] = {}
        self.den_lcm = 1
        self.namespace: dict = {}
        self.sites: dict[tuple, str] = {}
        self.shared: dict[str, object] = {}
        self.lines: list[str] = []
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def ref(self, value) -> str:
        """An identifier bound to ``value`` in the namespace."""
        name = self.fresh("g")
        self.namespace[name] = value
        return name

    def site(self, what: str, form: Affine) -> str:
        """An identifier bound to the site ``(what, form)`` that error messages name."""
        key = (what, _key(form))
        if key not in self.sites:
            self.sites[key] = self.ref((what, form))
        return self.sites[key]

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def start_block(self) -> None:
        """Forget the values of the previous block: its loop's names are stale after it."""
        self.shared = {}

    def guard(self, depth: int, line: str) -> None:
        """Emit the check ``line``, an ``if ...: raise ...``, unless this block already has."""
        if line not in self.shared:
            self.shared[line] = None
            self.emit(depth, line)

    def assign(self, depth: int, source: str, prefix: str = "t") -> str:
        """``source`` as an identifier or a literal, assigned once per block if it is neither."""
        if source.isidentifier() or _is_literal(source):
            return source
        if source not in self.shared:
            self.shared[source] = self.fresh(prefix)
            self.emit(depth, f"{self.shared[source]} = {source}")
        return self.shared[source]

    # -- affine forms

    def split(self, form: Affine) -> tuple[int, Affine]:
        """``(c, rest)`` with ``form == c * k + rest``."""
        for name, c in form.coeffs:
            if name == "k":
                return c, Affine(tuple(p for p in form.coeffs if p[0] != "k"), form.const)
        return 0, form

    def static(self, rest: Affine) -> str | None:
        """Identifier or literal of a static k-free form's int value, computed once per call; else None."""
        if rest.const.denominator != 1 or not self.integral.issuperset(dict(rest.coeffs)):
            return None
        if rest.is_constant():
            return str(rest.const.numerator)
        key = _key(rest)
        if key not in self.statics:
            lone = _lone_name(rest)
            name = "v" + self.params[lone] if lone else self.fresh("r")  # a parameter's own value
            self.statics[key] = (name, rest)
        return self.statics[key][0]

    def rest(self, rest: Affine) -> str:
        """Identifier of the numerator over D of a k-free form, computed once per call."""
        if rest.is_zero():
            return "0"
        key = _key(rest)
        if key in self.rests:
            return self.rests[key][0]
        idents = [self.param(n) for n, _ in rest.coeffs]
        self.den_lcm = math.lcm(self.den_lcm, rest.const.denominator)
        name = idents[0] if _lone_name(rest) else self.fresh("r")  # a parameter's own numerator
        self.rests[key] = (name, rest)
        return name

    def quotient(self, rest: Affine) -> tuple[str, str]:
        """Identifiers of ``divmod(numerator, D)`` of a k-free form, computed once per call."""
        key = _key(rest)
        if key not in self.quotients:
            self.quotients[key] = (self.fresh("q"), self.fresh("m"), self.rest(rest))
        return self.quotients[key][:2]

    def numerator(self, form: Affine) -> str:
        """Source of ``form``'s value times D, an int."""
        c, rest = self.split(form)
        return _linear(c, "k * D", self.rest(rest))

    def value(self, form: Affine) -> tuple[str, str]:
        """Sources of ``form`` as a pair: over 1 when its k-free part is static, else over D."""
        c, rest = self.split(form)
        static = self.static(rest)
        if static is not None:
            return _linear(c, "k", static), "1"
        return _linear(c, "k * D", self.rest(rest)), "D"

    def integer(self, form: Affine, depth: int, error: str, what: str) -> str:
        """Emit the check that ``form`` is an integer; return the source of its value.

        ``error`` names the function that builds the exception from
        ``((what, form), num, den)``.  A form is integral at every k or at none, so
        the check tests the remainder of its k-free part.
        """
        c, rest = self.split(form)
        static = self.static(rest)
        if static is not None:
            return _linear(c, "k", static)
        quotient, remainder = self.quotient(rest)
        numerator = self.numerator(form)
        self.guard(depth, f"if {remainder}: raise {error}({self.site(what, form)}, {numerator}, D)")
        return _linear(c, "k", quotient)

    def nonnegative(self, form: Affine) -> bool:
        """Whether ``form`` is >= 0 wherever it is computed: a sum of k and ``naturals`` and a constant >= 0."""
        return form.const >= 0 and all(c > 0 and (n == "k" or n in self.naturals) for n, c in form.coeffs)

    def natural(self, form: Affine, value: str, depth: int, negative: str) -> str:
        """``value``, the source of ``form``'s int value, as an operand, raising ``negative.format(value)`` below 0."""
        if self.nonnegative(form):
            return _group(value)
        value = self.assign(depth, value, "e")
        self.guard(depth, f"if {value} < 0: raise {negative.format(value)}")
        return value

    # -- terms

    def term(self, expr: TermExpr, depth: int) -> tuple[str, str]:
        """Emit the statements of ``expr``; return the sources of its ``(num, den)``."""
        if isinstance(expr, Const):
            return str(expr.value.numerator), str(expr.value.denominator)
        if isinstance(expr, AffineFactor):
            return self.value(expr.value)
        if isinstance(expr, SignPow):
            form = expr.exponent
            e = self.integer(form, depth, "_not_integer", "sign exponent")
            return self.assign(depth, f"-1 if {_group(e)} % 2 else 1", "s"), "1"
        if isinstance(expr, Power):
            base, den = self.value(expr.base)
            form = expr.exponent
            e = self.integer(form, depth, "_not_integer", "exponent")
            e = self.natural(form, e, depth, "_negative_power({})")
            if e == "1":
                return base, den
            return f"{_group(base)} ** {e}", "1" if den == "1" else f"D ** {e}"
        if isinstance(expr, Binom):
            return self.binom(expr, depth)
        if isinstance(expr, Quot):
            num, den = self.fresh("n"), self.fresh("d")
            denom, denom_over = self.value(expr.denom)
            self.emit(depth, f"if not ({den} := {denom}): raise _vanishes({self.ref(expr.denom)})")
            numer, numer_over = self.value(expr.numer)
            # (numer / numer_over) / (denom / denom_over): D cancels unless one is over 1
            if numer_over != denom_over:
                numer = denom_over if numer == "1" else f"{numer} * {denom_over}"
            numer = _group(numer)
            self.emit(depth, f"{num}, {den} = ({numer}, {den}) if {den} > 0 else (-{numer}, -{den})")
            return num, den if numer_over in (denom_over, "1") else f"{den} * {numer_over}"
        if isinstance(expr, AltPowerSum):
            count = self.integer(expr.count, depth, "_not_integer", "count")
            count = self.natural(expr.count, count, depth, "_negative_count({})")
            shift, step = self.value(expr.shift)
            p = self.integer(expr.power, depth, "_not_integer", "power")
            p = self.natural(expr.power, p, depth, "_negative_sum_power({})")
            if step == "1":
                return self.assign(depth, f"alternating_power_sum({count}, {shift}, {p})", "a"), "1"
            value = self.assign(depth, f"alternating_power_sum({count}, {shift}, {p}, D)", "a")
            return value, f"D ** {p}"
        if isinstance(expr, Product):
            pairs = [self.term(f, depth) for f in expr.factors]
            nums = [_group(n) for n, _ in pairs if n != "1"]
            dens = [_group(d) for _, d in pairs if d != "1"]
            return " * ".join(nums) or "1", " * ".join(dens) or "1"
        if isinstance(expr, TermSum):
            num = den = None
            for t in expr.terms:
                n, d = self.term(t, depth)
                n, d = self.assign(depth, n, "n"), self.assign(depth, d, "d")
                if num is None:
                    num, den = n, d
                    continue
                if d == "1" and den == "1":
                    num = f"{num} + {n}"
                else:
                    num, den = f"{num} * {d} + {n} * {den}", f"{den} * {d}"
                num, den = self.assign(depth, num, "n"), self.assign(depth, den, "d")
            return num, den
        raise TypeError(f"unknown term node {expr!r}")

    def binom(self, expr: Binom, depth: int) -> tuple[str, str]:
        """Lower index first; then ``comb`` on a static upper index, else one memoized pair call."""
        lower = expr.lower
        j = self.assign(depth, self.integer(lower, depth, "_not_integer", "lower index"), "j")
        u, over = self.value(expr.upper)
        if expr.inverted or over != "1":
            call = f"{'_ibinom_pair' if expr.inverted else '_binom_pair'}({u}, {over}, {j})"
            if call not in self.shared:
                self.shared[call] = self.fresh("b"), self.fresh("d")
                self.emit(depth, f"{', '.join(self.shared[call])} = {call}")
            return self.shared[call]
        if self.nonnegative(expr.upper):
            # counting: comb is 0 above u, and so is a negative lower index
            counting = f"comb({u}, {j})" if self.nonnegative(lower) else f"comb({u}, {j}) if {j} >= 0 else 0"
        else:
            u = self.assign(depth, u, "u")
            signs = f"{u} >= 0" if self.nonnegative(lower) else f"{u} >= 0 <= {j}"
            counting = f"comb({u}, {j}) if {signs} else _binom_int({u}, {j})"
        return self.assign(depth, counting, "b"), "1"

    def bound(self, bound: Bound, depth: int) -> str:
        """Source of a summation bound, which cannot name the index k."""
        if any(form.coefficient("k") for form in (bound.base, bound.cap) if form is not None):
            raise ShapeError("the summation index k cannot appear in a bound")
        value = self.integer(bound.base, depth, "_bound_not_integer", "bound")
        if bound.half:
            value = f"{_group(value)} // 2"
        if bound.cap is not None:
            capped = self.fresh("h")
            self.emit(depth, f"{capped} = {value}")
            cap = self.integer(bound.cap, depth, "_bound_not_integer", "bound cap")
            self.emit(depth, f"if {capped} > {_group(cap)}: {capped} = {cap}")
            value = capped
        return self.assign(depth, value, "h")

    def kernel_exponent(self, form: Affine, what: str, depth: int) -> str:
        if form.is_zero():
            return "0"
        what = f"{what} exponent"
        value = self.integer(form, depth, "_exponent_not_integer", what)
        return self.natural(form, value, depth, f"_negative_exponent({self.site(what, form)}, {{}})")

    # -- the function

    def param(self, name: str) -> str:
        """The identifier of ``name``'s numerator over D; ``"v" + param(name)`` is its value."""
        if name not in self.params:
            raise ShapeError(f"parameter {name!r} is not declared")
        return self.params[name]

    def plain(self, form: Affine) -> str:
        """Source of ``form`` over the parameters' values, with no D."""
        parts = [_linear(c, "v" + self.param(n), "0") for n, c in form.coeffs]
        if form.const:
            const = form.const
            parts.append(str(const.numerator) if const.denominator == 1 else self.ref(const))
        return " + ".join(parts) or "0"

    def compile(self, signature: str, filename: str, tests: list[str]):
        """Compile ``def signature:`` whose prologue is ``tests`` and then the k-free forms."""
        prologue = list(tests)
        values = {f"v{p}" for p in self.params.values()}
        for name, rest in self.statics.values():
            if name not in values:
                prologue.append(f"{name} = {self.plain(rest)}")
        if self.rests:
            scaled = {n for _, rest in self.rests.values() for n, _ in rest.coeffs}
            dens = [f"v{p}.denominator" for n, p in self.params.items() if n in scaled and n not in self.integral]
            if self.den_lcm != 1:
                dens.append(str(self.den_lcm))
            prologue.append(f"D = {dens[0]}" if len(dens) == 1 else f"D = lcm({', '.join(dens)})")
            for n, p in self.params.items():
                if n not in scaled:
                    continue
                if n in self.integral:
                    prologue.append(f"{p} = v{p} * D")
                elif len(dens) == 1:  # D is this name's own denominator
                    prologue.append(f"{p} = v{p}.numerator")
                else:
                    prologue.append(f"{p} = v{p}.numerator * (D // v{p}.denominator)")
        idents = list(self.params.values())
        for name, rest in self.rests.values():
            if name in idents:
                continue
            parts = [_linear(c, self.params[n], "0") for n, c in rest.coeffs]
            num, den = rest.const.numerator, rest.const.denominator
            if num:
                parts.append(_linear(num, "D", "0") if den == 1 else f"{num} * (D // {den})")
            prologue.append(f"{name} = {' + '.join(parts)}")
        for quotient, remainder, numerator in self.quotients.values():
            prologue.append(f"{quotient}, {remainder} = divmod({numerator}, D)")
        source = "\n".join([f"def {signature}:"] + ["    " + line for line in prologue] + self.lines)
        # alternating_power_sum is looked up now, not at import, so that a
        # wrapper on the module attribute (perfbench's tracer) sees the calls
        namespace = {**_NAMESPACE, "alternating_power_sum": alternating_power_sum, **self.namespace}
        exec(compile(source, filename, "exec"), namespace)
        return namespace[signature.partition("(")[0]]


def _emit_side(src: _Source, blocks: tuple, kernel_free: bool) -> str:
    """Emit the k-loops of one side's blocks; return the source of the side's value.

    A kernel-free side adds its terms' pairs into ``total`` over ``common``.
    Any other side keeps every term ``num/den * x^a (1-x)^b (1+x)^c`` as
    ``(num, den, a, b, c)`` in ``terms``, for :func:`pack_sides`.
    """
    src.emit(1, "total, common = 0, 1" if kernel_free else "terms = []")
    for lo, hi, coef, kernel in blocks:
        src.start_block()
        start, stop = src.bound(lo, 1), src.bound(hi, 1)
        if not (_is_literal(start) and int(start) >= 0):
            start = f"max(0, {start})"
        stop = str(int(stop) + 1) if _is_literal(stop) else f"{_group(stop)} + 1"
        src.emit(1, f"for k in range({start}, {stop}):")
        num, den = src.term(coef, 2)
        if not kernel_free:
            exponents = ", ".join(src.kernel_exponent(f, what, 2) for f, what in zip(kernel, _KERNEL_LABELS))
            src.emit(2, f"terms.append(({num}, {den}, {exponents}))")
        elif den == "1":
            src.emit(2, f"total += {_group(num)} * common")
        else:
            num, den = src.assign(2, num, "n"), src.assign(2, den, "d")
            src.emit(2, f"if {den} == common: total += {num}")
            src.emit(2, f"else: total, common = total * {den} + {num} * common, common * {den}")
    return "(total, common)" if kernel_free else "terms"


def compile_check(
    params: tuple[tuple[str, str], ...],
    constraints: tuple[tuple[Affine, int, str], ...],
    left: tuple,
    right: tuple,
    filename: str = "<combident check>",
    kernel_free: bool = False,
):
    """One generated function that checks a binding of a two-sided identity.

    ``params`` are the declared ``(name, sort)`` pairs, ``constraints`` the
    validity as ``(form, bound, text)`` for ``form >= bound``, and ``left``
    and ``right`` the sides' blocks ``(lo, hi, coef, kernel)``, where
    ``kernel`` is the exponent forms ``(a, b, c)`` of ``x^a (1-x)^b (1+x)^c``
    (not read when ``kernel_free``).  ``filename`` names the function in
    tracebacks and profiles.  A form may name only the declared parameters
    and, outside a bound, the index k; any other name, or k in a bound,
    raises :class:`ShapeError` here.

    The function takes one value per declared name, positionally, in sorted
    name order.  Each must be exact (:func:`exact`) and fit its name's sort:
    a ``nat`` or ``int`` value is an int, and a ``nat`` one is >= 0.  The
    caller tests that (:func:`descriptors.check_sorts`); the function does
    not.  It:

    - returns the ``text`` of the first constraint that fails;
    - otherwise returns the two sides' values over one D as ``(num, den)``
      pairs: for a ``kernel_free`` identity the two sums, else the sides
      evaluated exactly at ``x = 2^B`` with the width B as a third item
      (:func:`pack_sides`).

    An error inside a side is raised with the type and message that
    :func:`evaluate` gives it.
    """
    integral = frozenset(name for name, sort in params if sort in ("nat", "int"))
    # a nat name is >= 0, and so is an integral name bounded below by 0 or more
    naturals = {name for name, sort in params if sort == "nat"}
    naturals.update(_lone_name(form) for form, bound, _ in constraints if bound >= 0 and _lone_name(form) in integral)
    src = _Source([name for name, _ in params], integral, frozenset(naturals))
    tests = [f"if {src.plain(form)} < {bound}: return {src.ref(text)}" for form, bound, text in constraints]
    lhs = _emit_side(src, left, kernel_free)
    src.emit(1, f"lhs = {lhs}")
    rhs = _emit_side(src, right, kernel_free)
    src.emit(1, f"return lhs, {rhs}" if kernel_free else f"return pack_sides(lhs, {rhs})")
    arguments = ", ".join("v" + src.param(name) for name in sorted(name for name, _ in params))
    return src.compile(f"check({arguments})", filename, tests)


# -- the reference interpreter ----------------------------------------------

def _integer(form: Affine, what: str, env: Env) -> int:
    value = Fraction(form.evaluate(env))
    if value.denominator != 1:
        raise _not_integer((what, form), value.numerator, value.denominator)
    return value.numerator


def _value(expr: TermExpr, env: Env) -> Fraction:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, AffineFactor):
        return Fraction(expr.value.evaluate(env))
    if isinstance(expr, SignPow):
        return Fraction(-1 if _integer(expr.exponent, "sign exponent", env) % 2 else 1)
    if isinstance(expr, Power):
        base = Fraction(expr.base.evaluate(env))
        e = _integer(expr.exponent, "exponent", env)
        if e < 0:
            raise _negative_power(e)
        return base**e
    if isinstance(expr, Binom):
        j = _integer(expr.lower, "lower index", env)
        u = Fraction(expr.upper.evaluate(env))
        if j >= 0:
            value = binom_rational(u, j)  # the product formula, at every upper index
        elif u.denominator == 1 and u >= 0:
            value = Fraction(0)
        else:
            raise PreconditionError(f"binomial with upper index {u} is undefined at negative lower index {j}")
        if not expr.inverted:
            return value
        if not value:
            raise _no_reciprocal(u.numerator, u.denominator, j)
        return 1 / value
    if isinstance(expr, Quot):
        denom = Fraction(expr.denom.evaluate(env))
        if not denom:
            raise _vanishes(expr.denom)
        return expr.numer.evaluate(env) / denom
    if isinstance(expr, AltPowerSum):
        count = _integer(expr.count, "count", env)
        if count < 0:
            raise _negative_count(count)
        shift = Fraction(expr.shift.evaluate(env))
        p = _integer(expr.power, "power", env)
        if p < 0:
            raise _negative_sum_power(p)
        return sum(((-1) ** i * math.comb(count, i) * (shift + i) ** p for i in range(count + 1)), Fraction(0))
    if isinstance(expr, Product):
        # every factor, so that a pole after a zero factor still raises
        return math.prod([_value(f, env) for f in expr.factors], start=Fraction(1))
    if isinstance(expr, TermSum):
        return sum((_value(t, env) for t in expr.terms), Fraction(0))
    raise TypeError(f"unknown term node {expr!r}")


def _forms(expr: TermExpr):
    """The affine forms of a term in the order :func:`_value` reads them."""
    if isinstance(expr, (Product, TermSum)):
        for t in expr.factors if isinstance(expr, Product) else expr.terms:
            yield from _forms(t)
    elif isinstance(expr, AffineFactor):
        yield expr.value
    elif isinstance(expr, SignPow):
        yield expr.exponent
    elif isinstance(expr, Power):
        yield from (expr.base, expr.exponent)
    elif isinstance(expr, Binom):
        yield from (expr.lower, expr.upper)
    elif isinstance(expr, Quot):
        yield from (expr.denom, expr.numer)
    elif isinstance(expr, AltPowerSum):
        yield from (expr.count, expr.shift, expr.power)


def _require(forms, env: Env) -> None:
    """Raise :class:`UnboundParameterError` for the first name of ``forms`` missing from ``env``."""
    for form in forms:
        for name, _ in form.coeffs:
            if name not in env:
                raise UnboundParameterError(name)


def _bound_forms(*bounds: Bound):
    return (f for b in bounds for f in (b.base, b.cap) if f is not None)


def evaluate_kernel(kernel: tuple[Affine, Affine, Affine], env: Env) -> tuple[int, int, int]:
    """The exponents ``(a, b, c)`` of ``x^a (1-x)^b (1+x)^c`` at a full binding (k included).

    The reference for a check's kernel exponents: each must be an integer
    >= 0, and raises what a check raises when it is not.
    """
    exponents = []
    for form, label in zip(kernel, _KERNEL_LABELS):
        site = (f"{label} exponent", form)
        value = Fraction(form.evaluate(env))
        if value.denominator != 1:
            raise _exponent_not_integer(site, value.numerator, value.denominator)
        if value < 0:
            raise _negative_exponent(site, value.numerator)
        exponents.append(value.numerator)
    return tuple(exponents)


def evaluate(expr: TermExpr, env: Env) -> Fraction:
    """Exact value of a term at a full binding (the index k included in env).

    The reference interpreter: a walk of the tree in Fractions.  It raises
    what a generated check raises at the same term and binding, with the
    same message.  It reports a parameter missing from ``env`` before any
    other error, naming the first one in reading order.
    """
    env = exact_env(env)
    _require(_forms(expr), env)
    return _value(expr, env)


def evaluate_sum(lo: Bound, hi: Bound, term: TermExpr, binding: Env) -> Fraction:
    """Exact value of ``sum[k=lo..hi] term`` at ``binding`` (k is the index, not a parameter).

    The sum of :func:`evaluate` over ``max(0, lo)..hi``.  A parameter of the
    bounds or of the summand missing from ``binding`` is reported first,
    even when the range is empty.
    """
    env = exact_env(binding)
    _require(_bound_forms(lo, hi), env)
    _require(_forms(term), {**env, "k": 0})
    start, stop = lo.evaluate(env), hi.evaluate(env)
    # env is exact and every name of term is bound: what evaluate would add
    return sum((_value(term, {**env, "k": k}) for k in range(max(0, start), stop + 1)), Fraction(0))


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

