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
    add_pairs,
    compile_affine,
    compile_term,
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
    def compiled(self) -> dict[str, tuple]:
        """Each side's blocks as ``(lo, hi, coef, kernel)``, compiled on first use.

        ``coef`` and ``kernel`` are closures over an ``exact_env`` environment
        with k set; ``kernel`` returns the exponents ``(a, b, c)`` of
        ``x^a (1-x)^b (1+x)^c`` and is None for a kernel-free descriptor.
        """
        kernels = not self.kernel_free
        return {
            name: tuple(_compile_block(b, kernels) for b in side.blocks)
            for name, side in (("left", self.left), ("right", self.right))
        }

    def sort_of(self, name: str) -> str | None:
        for n, s in self.params:
            if n == name:
                return s
        return None


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
    expr: Affine
    relation: str  # ">=", ">", "!="
    bound: int

    def holds(self, binding: Mapping[str, Scalar]) -> bool:
        value = self.expr.evaluate(binding)
        if self.relation == ">=":
            return value >= self.bound
        if self.relation == ">":
            return value > self.bound
        if self.relation == "!=":
            return value != self.bound
        raise ValueError(f"unknown relation {self.relation!r}")

    def describe(self) -> str:
        return f"{self.expr} {self.relation} {self.bound}"


@dataclass(frozen=True)
class IntegerValued:
    expr: Affine

    def holds(self, binding: Mapping[str, Scalar]) -> bool:
        return self.expr.evaluate(binding).denominator == 1

    def describe(self) -> str:
        return f"{self.expr} integer"


Constraint = Union[RangeConstraint, IntegerValued]


@dataclass(frozen=True)
class ValidityPredicate:
    constraints: tuple[Constraint, ...] = ()

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

def _compile_exponent(form: Affine, what: str):
    value = compile_affine(form)

    def exponent(env) -> int:
        e = value(env)
        if e.denominator != 1:
            raise PreconditionError(f"{what} exponent {form} is not an integer")
        e = e.numerator
        if e < 0:
            raise PreconditionError(f"{what} exponent {form} is negative ({e})")
        return e

    return exponent


def _compile_block(block: KernelBlock, kernels: bool):
    """``(lo, hi, coef, kernel)``: ``kernel`` returns ``(a, b, c)``, or is None."""
    coef = compile_term(block.coef)
    if not kernels:
        return block.lo, block.hi, coef, None
    a = _compile_exponent(block.x_exp, "x")
    b = _compile_exponent(block.one_minus_exp, "(1-x)")
    c = _compile_exponent(block.one_plus_exp, "(1+x)")
    return block.lo, block.hi, coef, lambda env: (a(env), b(env), c(env))


def _side_terms(desc: IdentityDescriptor, side: str, binding: Mapping[str, Scalar]):
    """Yield ``((num, den), a, b, c)`` for every index of every block of one side.

    A kernel-free descriptor skips the exponents, which are all 0.
    """
    env = exact_env(binding)
    for lo, hi, coef, kernel in desc.compiled[side]:
        for k in range(max(0, lo.evaluate(env)), hi.evaluate(env) + 1):
            env["k"] = k
            if kernel is None:
                yield coef(env), 0, 0, 0
            else:
                yield (coef(env), *kernel(env))


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
    """Exact value of one side.

    A kernel-free side adds its terms' ``(num, den)`` pairs over one running
    denominator and builds one Fraction.  Any other side turns each nonzero
    term into an int or one Fraction, accumulates a dense coefficient list
    in x and converts it once into its canonical polynomial.
    """
    terms = _side_terms(desc, side, binding)
    if desc.kernel_free:
        return Fraction(*add_pairs(pair for pair, _, _, _ in terms))
    dense: list = []
    for (num, den), a, b, c in terms:
        if not num:
            continue
        whole, rest = divmod(num, den)
        coef = Fraction(num, den) if rest else whole
        kernel = _kernel_coefficients(b, c)
        missing = a + len(kernel) - len(dense)
        if missing > 0:
            dense.extend([0] * missing)
        for i, value in enumerate(kernel, a):
            dense[i] += coef * value
    return Polynomial.univariate("x", dense)


def eval_side_at(
    desc: IdentityDescriptor, side: str, binding: Mapping[str, Scalar], x0: Scalar
) -> Fraction:
    """Direct rational summation of a side at a concrete x value."""
    x0 = Fraction(x0)
    return sum(
        (
            Fraction(*pair) * x0**a * (1 - x0) ** b * (1 + x0) ** c
            for pair, a, b, c in _side_terms(desc, side, binding)
        ),
        Fraction(0),
    )


def side_degree_bound(desc: IdentityDescriptor, side: str, binding: Mapping[str, Fraction]) -> int:
    """Largest total kernel exponent over the summation ranges."""
    blocks = (desc.left if side == "left" else desc.right).blocks
    best = 0
    for block in blocks:
        lo = max(0, block.lo.evaluate(binding))
        hi = block.hi.evaluate(binding)
        total = block.x_exp + block.one_minus_exp + block.one_plus_exp
        for k in (lo, hi):
            env = dict(binding)
            env["k"] = Fraction(k)
            best = max(best, int(Fraction(total.evaluate(env))))
    return best


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
    become ints, and the result keeps that copy.
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
        lhs = eval_side(desc, "left", binding)
        rhs = eval_side(desc, "right", binding)
    except PoleError as exc:
        return CheckResult(label, binding, SKIPPED_POLE, witness=str(exc))
    except (PreconditionError, UnboundParameterError) as exc:
        return CheckResult(label, binding, SKIPPED_PRECONDITION, witness=str(exc))
    if lhs == rhs:
        return CheckResult(label, binding, VERIFIED, lhs=lhs, rhs=rhs)
    if desc.kernel_free:
        witness = f"lhs = {lhs}, rhs = {rhs} at {format_binding(binding)}"
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
