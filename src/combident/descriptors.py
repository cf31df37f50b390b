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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import zip_longest
from typing import Iterable, Mapping, NamedTuple, Union

from .affine import Affine, Bound
from .errors import PoleError, PreconditionError, ShapeError, UnboundParameterError
from .poly import Polynomial
from .terms import (
    TermExpr,
    compile_check,
    evaluate,
    evaluate_kernel,
    evaluate_sum,
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
_X = Polynomial.variable("x")


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

    def _blocks(self, side: Side) -> tuple:
        return tuple((b.lo, b.hi, b.coef, (b.x_exp, b.one_minus_exp, b.one_plus_exp)) for b in side.blocks)

    @cached_property
    def _checks(self) -> dict[int, tuple]:
        return {}

    def check(self, validity: ValidityPredicate | None = None):
        """The generated check (:func:`terms.compile_check`) under ``validity``, compiled on first use.

        Keyed by the identity of ``validity``, so a binding hashes neither
        it nor the descriptor; each entry keeps its validity alive, so an id
        is never reused while it is a key.
        """
        entry = self._checks.get(id(validity))
        if entry is None:
            constraints = () if validity is None else tuple(
                (c.expr, c.bound, c.describe()) for c in validity.constraints
            )
            function = compile_check(
                self.params,
                constraints,
                self._blocks(self.left),
                self._blocks(self.right),
                f"<combident {self.name or 'descriptor'} check>",
                self.kernel_free,
            )
            entry = self._checks[id(validity)] = (validity, function)
        return entry[1]


# -- bindings ---------------------------------------------------------------

ParamBinding = dict[str, Scalar]


def check_sorts(desc_params, binding: Mapping[str, Scalar]) -> str | None:
    """Return a violation message, or None when the binding fits the sorts.

    The reference for the sort tests of a generated check
    (:meth:`IdentityDescriptor.check`), which does not call it; it is kept
    for the test that compares the two.
    """
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
        """The first constraint that fails, described, or None.

        The reference for the validity tests of a generated check, which
        does not call it; it is kept for the test that compares the two.
        """
        for c in self.constraints:
            if not c.holds(binding):
                return c.describe()
        return None


# -- check results ----------------------------------------------------------

class CheckResult(NamedTuple):
    """The outcome of checking one binding: an immutable record, cheap to build once per binding."""

    identity: str
    binding: ParamBinding
    status: str
    lhs: object = None
    rhs: object = None
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAILED


@dataclass(frozen=True)
class GridReport:
    """The outcome of checking many bindings: status counts and the first failures."""

    entry_id: str
    counts: dict[str, int]
    witnesses: tuple[CheckResult, ...]
    total: int
    vacuous: int  # verified bindings whose sides are both 0

    @property
    def failed(self) -> int:
        return self.counts.get(FAILED, 0)

    @property
    def verified(self) -> int:
        return self.counts.get(VERIFIED, 0)


def format_binding(binding: Mapping[str, Fraction]) -> str:
    return ", ".join(f"{name}={value}" for name, value in sorted(binding.items()))


# -- evaluation -------------------------------------------------------------

def eval_side(
    desc: IdentityDescriptor, side: str, binding: Mapping[str, Scalar]
) -> Fraction | Polynomial:
    """Exact value of one side at ``binding``, converted by :func:`exact_env`.

    A walk in Fractions by the reference interpreter; no generated code
    runs, and neither the sorts nor a validity are tested.  A kernel-free
    side is the sum of its blocks' :func:`terms.evaluate_sum`, a Fraction.
    Any other side is the polynomial sum of ``coef * x^a (1-x)^b (1+x)^c``
    over its terms (:func:`terms.evaluate`, :func:`terms.evaluate_kernel`).
    Before anything is evaluated, the first declared parameter missing from
    ``binding`` raises :class:`UnboundParameterError`, as in a check.
    """
    env = exact_env(binding)
    for name, _ in desc.params:
        if name not in env:
            raise UnboundParameterError(name)
    blocks = desc._blocks(desc.left if side == "left" else desc.right)
    if desc.kernel_free:
        return sum((evaluate_sum(lo, hi, coef, env) for lo, hi, coef, _ in blocks), Fraction(0))
    terms = []
    for lo, hi, coef, kernel in blocks:
        for k in range(max(0, lo.evaluate(env)), hi.evaluate(env) + 1):
            at = {**env, "k": k}
            value = evaluate(coef, at)
            terms += [(mono, value * c) for mono, c in _kernel(*evaluate_kernel(kernel, at)).terms]
    return Polynomial.from_terms(terms)


@lru_cache(maxsize=1024)
def _kernel(a: int, b: int, c: int) -> Polynomial:
    """``x^a (1-x)^b (1+x)^c`` as a polynomial."""
    return _X**a * (1 - _X) ** b * (1 + _X) ** c


def _polynomial(dense: list[int], common: int) -> Polynomial:
    """The polynomial in x with the coefficients ``dense`` over ``common``, lowest power first."""
    if common != 1:
        dense = [Fraction(v, common) if v else 0 for v in dense]
    return Polynomial.univariate("x", dense)


def sides_agree(kernel_free: bool, left: tuple, right: tuple) -> bool:
    """Whether the two sides that a generated check returned are one value, compared in ints.

    Kernel-free sides are ``(num, den)`` pairs, compared by
    cross-multiplication; any other sides are ``(dense, common)`` integer
    x-coefficients over their common denominators.  Every denominator is > 0.
    """
    (lvalue, lden), (rvalue, rden) = left, right
    if kernel_free:
        return lvalue * rden == rvalue * lden
    if lden == rden and len(lvalue) == len(rvalue):
        return lvalue == rvalue
    return all(u * rden == v * lden for u, v in zip_longest(lvalue, rvalue, fillvalue=0))


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
    become ints.  One call of the descriptor's generated check
    (:meth:`IdentityDescriptor.check`) tests the sorts and ``validity`` and
    computes both sides on that copy, and the result keeps it.  The sides
    are compared in ints (:func:`sides_agree`).  A verified result builds
    one value, a Fraction or a polynomial, and holds it as both ``lhs`` and
    ``rhs``.  A declared parameter missing from the binding raises
    :class:`UnboundParameterError`.
    """
    binding = exact_env(binding)
    label = desc.name or "descriptor"
    try:
        sides = desc.check(validity)(binding)
    except PoleError as exc:
        return CheckResult(label, binding, SKIPPED_POLE, witness=str(exc))
    except PreconditionError as exc:
        return CheckResult(label, binding, SKIPPED_PRECONDITION, witness=str(exc))
    if type(sides) is str:
        return CheckResult(label, binding, SKIPPED_PRECONDITION, witness=sides)
    left, right = sides
    build = Fraction if desc.kernel_free else _polynomial
    if sides_agree(desc.kernel_free, left, right):
        value = build(*left)
        return CheckResult(label, binding, VERIFIED, lhs=value, rhs=value)
    lhs, rhs = build(*left), build(*right)
    if desc.kernel_free:
        witness = f"lhs = {lhs}, rhs = {rhs} at {format_binding(binding)}"
    else:
        witness = first_mismatch(lhs, rhs)
    return CheckResult(label, binding, FAILED, lhs=lhs, rhs=rhs, witness=witness)


def check_grid(
    desc: IdentityDescriptor,
    bindings: Iterable[Mapping[str, Scalar]],
    validity: ValidityPredicate | None = None,
    max_witnesses: int = 10,
) -> GridReport:
    """Check every binding in one loop; count the statuses and keep the first failures.

    Each binding must already be exact (:func:`exact_env`), as those of
    :func:`catalog.iter_grid` are: the generated check runs on it directly
    and the sides are compared in ints (:func:`sides_agree`), so no value is
    built for a binding that verifies or is skipped.  Only a failure among
    the first ``max_witnesses`` is checked again, by :func:`check_two_sided`,
    for its witness.  A declared parameter missing from a binding raises
    :class:`UnboundParameterError`.
    """
    check = desc.check(validity)
    kernel_free = desc.kernel_free
    verified = failed = pole = precondition = vacuous = 0
    witnesses = []
    for binding in bindings:
        try:
            sides = check(binding)
        except PoleError:
            pole += 1
            continue
        except PreconditionError:
            precondition += 1
            continue
        if type(sides) is str:
            precondition += 1
        elif sides_agree(kernel_free, *sides):
            verified += 1
            value = sides[0][0]
            if not (value if kernel_free else any(value)):
                vacuous += 1
        else:
            failed += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(check_two_sided(desc, binding, validity))
    counts = {VERIFIED: verified, FAILED: failed, SKIPPED_POLE: pole, SKIPPED_PRECONDITION: precondition}
    total = verified + failed + pole + precondition
    return GridReport(desc.name, counts, tuple(witnesses), total, vacuous)


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
