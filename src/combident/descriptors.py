"""Two-sided polynomial identities in x, bindings, and exact checking.

An identity side is a list of kernel blocks; each block sums
``coef(k) * x^a(k) * (1-x)^b(k) * (1+x)^c(k)`` over an integer range.  The
classical descriptor shape (plain ``x^p(k)`` on the left, ``(1-x)^q(k)`` on
the right) is the single-block special case; the mixed-kernel generality is
what the Waring and MacMahon identities need.  A summation identity is the
kernel-free case (every exponent 0, kernel ``x^0``), and a closed form is a
one-term ``k=0..0`` block, so one descriptor and one check cover them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Union

from .affine import Affine, Bound
from .errors import PoleError, PreconditionError, ShapeError, UnboundParameterError
from .poly import Polynomial
from .terms import (
    TermExpr,
    compile_side,
    exact_env,
    rename_parameters as rename_term,
)

Scalar = Union[int, Fraction]

VERIFIED = "verified"
FAILED = "failed"
SKIPPED_POLE = "skipped_pole"
SKIPPED_PRECONDITION = "skipped_precondition"

#: parameter sorts: non-negative integer, integer, rational
SORTS = ("nat", "int", "rat")

_ZERO = Affine.of(0)


@dataclass(frozen=True)
class KernelBlock:
    lo: Bound
    hi: Bound
    coef: TermExpr
    x_exp: Affine = _ZERO
    one_minus_exp: Affine = _ZERO
    one_plus_exp: Affine = _ZERO


@dataclass(frozen=True)
class Side:
    blocks: tuple[KernelBlock, ...]


@dataclass(frozen=True)
class IdentityDescriptor:
    """A two-sided polynomial identity in x with named rational parameters."""

    params: tuple[tuple[str, str], ...]  # (name, sort)
    left: Side
    right: Side
    name: str = field(default="", compare=False)

    @cached_property
    def kernel_free(self) -> bool:
        """True when every kernel exponent is 0: both sides are plain sums."""
        return all(
            b.x_exp.is_zero() and b.one_minus_exp.is_zero() and b.one_plus_exp.is_zero()
            for side in (self.left, self.right)
            for b in side.blocks
        )

    @cached_property
    def compiled(self) -> dict[str, object]:
        """Each side as one generated function (:func:`terms.compile_side`), compiled on first use.

        Called with an ``exact_env`` environment, a side's function of a
        kernel-free descriptor returns the side's sum as one ``(num, den)``
        pair.  Otherwise it yields ``((num, den), a, b, c)`` for every term
        of every block, where ``x^a (1-x)^b (1+x)^c`` is the term's kernel.
        Both are specialized on the ``nat`` and ``int`` names being ints.
        """
        label = self.name or "descriptor"
        integral = frozenset(name for name, sort in self.params if sort in ("nat", "int"))
        return {
            name: compile_side(
                tuple((b.lo, b.hi, b.coef, (b.x_exp, b.one_minus_exp, b.one_plus_exp)) for b in side.blocks),
                f"<combident {label} {name}>",
                self.kernel_free,
                integral,
            )
            for name, side in (("left", self.left), ("right", self.right))
        }


# -- bindings ---------------------------------------------------------------

ParamBinding = dict[str, Scalar]


def check_sorts(desc_params, binding: Mapping[str, Scalar]) -> str | None:
    """Return a violation message, or None when the binding fits the sorts."""
    for name, sort in desc_params:
        if name not in binding:
            raise UnboundParameterError(name)
        value = binding[name]
        if sort in ("nat", "int") and value.denominator != 1:
            return f"{name} = {value} is not an integer"
        if sort == "nat" and value < 0:
            return f"{name} = {value} is negative"
    return None


# -- validity predicates ----------------------------------------------------

@dataclass(frozen=True)
class RangeConstraint:
    """The validity condition ``expr >= bound``."""

    expr: Affine
    bound: int

    def holds(self, binding: Mapping[str, Scalar]) -> bool:
        return self.expr.evaluate(binding) >= self.bound

    def describe(self) -> str:
        return f"{self.expr} >= {self.bound}"


@dataclass(frozen=True)
class ValidityPredicate:
    constraints: tuple[RangeConstraint, ...] = ()

    def violation(self, binding: Mapping[str, Scalar]) -> str | None:
        for c in self.constraints:
            if not c.holds(binding):
                return c.describe()
        return None


# -- check results ----------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    identity: str
    binding: ParamBinding
    status: str
    lhs: object = None
    rhs: object = None
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAILED


def format_binding(binding: Mapping[str, Fraction]) -> str:
    return ", ".join(f"{name}={value}" for name, value in sorted(binding.items()))


# -- evaluation -------------------------------------------------------------

@lru_cache(maxsize=4096)
def _kernel_coefficients(b: int, c: int) -> tuple[int, ...]:
    """Integer coefficients of ``(1-x)^b (1+x)^c``, lowest power first."""
    coeffs = [(-1) ** i * math.comb(b, i) for i in range(b + 1)]
    for _ in range(c):
        coeffs = [lo + hi for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def eval_side(
    desc: IdentityDescriptor, side: str, binding: Mapping[str, Scalar]
) -> Fraction | Polynomial:
    """Exact value of one side at ``binding``, converted by :func:`exact_env`."""
    return side_value(desc, side, exact_env(binding))


def side_value(desc: IdentityDescriptor, side: str, env: Mapping[str, Scalar]) -> Fraction | Polynomial:
    """Exact value of one side in an :func:`exact_env` environment.

    A kernel-free side's function returns its sum as one ``(num, den)``
    pair, and this builds one Fraction.  Any other side accumulates a dense
    list of integer x-coefficients over one common denominator (the lcm of
    the reduced terms' denominators) and builds one Fraction per coefficient
    at the end.
    """
    if desc.kernel_free:
        return Fraction(*desc.compiled[side](env))
    dense: list[int] = []
    common = 1
    for (num, den), a, b, c in desc.compiled[side](env):
        if not num:
            continue
        if den != 1:
            g = math.gcd(num, den)
            num, den = num // g, den // g
            if common % den:
                scale = den // math.gcd(common, den)
                dense = [v * scale for v in dense]
                common *= scale
        num *= common // den
        kernel = _kernel_coefficients(b, c)
        missing = a + len(kernel) - len(dense)
        if missing > 0:
            dense.extend([0] * missing)
        for i, value in enumerate(kernel, a):
            dense[i] += num * value
    if common != 1:
        dense = [Fraction(v, common) if v else 0 for v in dense]
    return Polynomial.univariate("x", dense)


def eval_side_at(
    desc: IdentityDescriptor, side: str, binding: Mapping[str, Scalar], x0: Scalar
) -> Fraction:
    """Direct rational summation of a side at a concrete x value."""
    terms = desc.compiled[side](exact_env(binding))
    if desc.kernel_free:
        return Fraction(*terms)
    x0 = Fraction(x0)
    return sum(
        (Fraction(*pair) * x0**a * (1 - x0) ** b * (1 + x0) ** c for pair, a, b, c in terms),
        Fraction(0),
    )


def first_mismatch(lhs: Polynomial, rhs: Polynomial) -> str:
    diff = lhs - rhs
    if diff.is_zero():
        return ""
    mono, _ = diff.terms[0]
    power = dict(mono).get("x", 0)
    return (
        f"coefficient of x^{power}: lhs has {lhs.coefficient(mono)}, rhs has {rhs.coefficient(mono)}"
    )


def check_two_sided(
    desc: IdentityDescriptor,
    binding: Mapping[str, Fraction],
    validity: ValidityPredicate | None = None,
) -> CheckResult:
    """Verify one binding; evaluation errors become skip statuses.

    The binding is converted once, by :func:`exact_env`: integral values
    become ints.  Both sides are evaluated on that copy, and the result
    keeps it.  A kernel-free descriptor compares its two ``(num, den)``
    pairs by cross-multiplication and builds one Fraction, which a verified
    result holds as both ``lhs`` and ``rhs``.
    """
    binding = exact_env(binding)
    label = desc.name or "descriptor"
    sort_issue = check_sorts(desc.params, binding)
    if sort_issue is not None:
        return CheckResult(label, binding, SKIPPED_PRECONDITION, witness=sort_issue)
    if validity is not None:
        issue = validity.violation(binding)
        if issue is not None:
            return CheckResult(label, binding, SKIPPED_PRECONDITION, witness=issue)
    try:
        if desc.kernel_free:
            lhs, rhs = desc.compiled["left"](binding), desc.compiled["right"](binding)
        else:
            lhs, rhs = side_value(desc, "left", binding), side_value(desc, "right", binding)
    except PoleError as exc:
        return CheckResult(label, binding, SKIPPED_POLE, witness=str(exc))
    except (PreconditionError, UnboundParameterError) as exc:
        return CheckResult(label, binding, SKIPPED_PRECONDITION, witness=str(exc))
    if desc.kernel_free:
        (lnum, lden), (rnum, rden) = lhs, rhs
        if lnum * rden == rnum * lden:  # both denominators are > 0
            value = Fraction(lnum, lden)
            return CheckResult(label, binding, VERIFIED, lhs=value, rhs=value)
        lhs, rhs = Fraction(lnum, lden), Fraction(rnum, rden)
        witness = f"lhs = {lhs}, rhs = {rhs} at {format_binding(binding)}"
    elif lhs == rhs:
        return CheckResult(label, binding, VERIFIED, lhs=lhs, rhs=rhs)
    else:
        witness = first_mismatch(lhs, rhs)
    return CheckResult(label, binding, FAILED, lhs=lhs, rhs=rhs, witness=witness)


# -- structural rewrites ----------------------------------------------------

def transpose_descriptor(desc: IdentityDescriptor) -> IdentityDescriptor:
    """Swap the sides and exchange the x / (1-x) kernels (x -> 1-x).

    Preserves the truth value at every admissible binding; requires every
    block to be free of (1+x) kernels.
    """

    def flip(side: Side) -> Side:
        blocks = []
        for b in side.blocks:
            if not b.one_plus_exp.is_zero():
                raise ShapeError("transposition requires blocks without (1+x) kernels")
            blocks.append(
                KernelBlock(b.lo, b.hi, b.coef, x_exp=b.one_minus_exp, one_minus_exp=b.x_exp)
            )
        return Side(tuple(blocks))

    return IdentityDescriptor(
        params=desc.params,
        left=flip(desc.right),
        right=flip(desc.left),
        name=f"{desc.name}-transposed" if desc.name else "transposed",
    )


def rename_descriptor_parameters(
    desc: IdentityDescriptor, mapping: Mapping[str, str]
) -> IdentityDescriptor:
    def rename_side(side: Side) -> Side:
        return Side(
            tuple(
                KernelBlock(
                    b.lo.rename(mapping),
                    b.hi.rename(mapping),
                    rename_term(b.coef, mapping),
                    b.x_exp.rename(mapping),
                    b.one_minus_exp.rename(mapping),
                    b.one_plus_exp.rename(mapping),
                )
                for b in side.blocks
            )
        )

    return IdentityDescriptor(
        params=tuple((mapping.get(n, n), s) for n, s in desc.params),
        left=rename_side(desc.left),
        right=rename_side(desc.right),
        name=desc.name,
    )
