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

from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from math import prod
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .affine import Affine, Bound
from .errors import PoleError, PreconditionError, ShapeError, UnboundParameterError
from .poly import Polynomial
from .record import Record
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


class KernelBlock(Record):
    lo: Bound
    hi: Bound
    coef: TermExpr
    x_exp: Affine = _ZERO
    one_minus_exp: Affine = _ZERO
    one_plus_exp: Affine = _ZERO


class Side(Record):
    blocks: tuple[KernelBlock, ...]


class IdentityDescriptor(Record, uncompared=("name",)):
    """A two-sided polynomial identity in x with named rational parameters."""

    params: tuple[tuple[str, str], ...]  # (name, sort)
    left: Side
    right: Side
    name: str = ""

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
    def names(self) -> tuple[str, ...]:
        """The declared names in sorted order: the order a generated check takes their values in."""
        return tuple(sorted(name for name, _ in self.params))

    @cached_property
    def _checks(self) -> dict[int, tuple]:
        return {}

    def check(self, validity: ValidityPredicate | None = None):
        """The generated check (:func:`terms.compile_check`) under ``validity``, compiled on first use.

        It takes the values of :attr:`names`, positionally, and each must
        already fit its sort (:func:`check_sorts`).  Keyed by the identity
        of ``validity``, so a binding hashes neither it nor the descriptor;
        each entry keeps its validity alive, so an id is never reused while
        it is a key.
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

    The one test of the sorts: a generated check (:meth:`IdentityDescriptor.check`)
    runs only on values that passed it.  Names are tested in declaration
    order, so an earlier name's violation wins over a later name's absence,
    which raises :class:`UnboundParameterError`.  ``binding`` must be exact
    (:func:`terms.exact_env`).
    """
    for name, sort in desc_params:
        if name not in binding:
            raise UnboundParameterError(name)
        violation = _sort_violation(name, sort, binding[name])
        if violation is not None:
            return violation
    return None


def _sort_violation(name: str, sort: str, value: Scalar) -> str | None:
    """How the exact ``value`` of ``name`` fails ``sort``, or None when it fits."""
    if sort in ("nat", "int") and value.denominator != 1:
        return f"{name} = {value} is not an integer"
    if sort == "nat" and value < 0:
        return f"{name} = {value} is negative"
    return None


# -- grids ------------------------------------------------------------------
#
# A grid maps each name to its exact values in the order they run
# (:func:`catalog.exact_grid`).  Its bindings are the product of its axes with
# the names sorted, the last name varying fastest, and a row is one binding's
# values in that order, so a row over a descriptor's declared names is the
# argument tuple of its generated check.

def unfit_values(params, grid: Mapping[str, Sequence[Scalar]]) -> dict[str, list]:
    """The values of ``grid``'s axes that fail the sorts ``params`` declares, by name; a name with none is left out.

    Each value of an integral axis is tested once, by the test
    :func:`check_sorts` makes; a ``rat`` axis, or one that ``params`` does
    not declare, has no unfit value.  A declared name that has no axis
    raises :class:`UnboundParameterError`, the first one in declaration
    order.
    """
    unfit = {}
    for name, sort in params:
        if name not in grid:
            raise UnboundParameterError(name)
        if sort != "rat":
            bad = [v for v in grid[name] if _sort_violation(name, sort, v)]
            if bad:
                unfit[name] = bad
    return unfit


def fit_axes(grid: Mapping[str, Sequence[Scalar]], unfit: Mapping[str, list]) -> list[Sequence[Scalar]]:
    """The axes of ``grid``, names sorted, without the values ``unfit`` lists for them (:func:`unfit_values`)."""
    return [tuple(v for v in grid[name] if v not in unfit[name]) if name in unfit else grid[name] for name in sorted(grid)]


def row_arguments(desc: IdentityDescriptor, names: Sequence[str]) -> Callable[[tuple], tuple]:
    """The function that takes ``desc``'s check arguments out of a row over ``names``: ``tuple`` when the row is them."""
    if tuple(names) == desc.names:
        return tuple
    positions = [names.index(name) for name in desc.names]
    return lambda row: tuple([row[i] for i in positions])


# -- validity predicates ----------------------------------------------------

class RangeConstraint(Record):
    """The validity condition ``expr >= bound``."""

    expr: Affine
    bound: int

    def holds(self, binding: Mapping[str, Scalar]) -> bool:
        return self.expr.evaluate(binding) >= self.bound

    def describe(self) -> str:
        return f"{self.expr} >= {self.bound}"


class ValidityPredicate(Record):
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


class GridReport(Record):
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


def _coefficients(value: int, width: int) -> list[int]:
    """The integer polynomial whose value at ``2^width`` is ``value``, lowest power first.

    Its coefficients are the balanced base-2^width digits of ``value``, so
    each must be less than ``2^(width-1)`` in absolute value, as every
    coefficient of a side of :func:`terms.pack_sides` is.  No nonzero value
    has such digits in base 2.
    """
    if width < 2 and value:
        raise ValueError(f"balanced base-2 digits cannot encode {value}")
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits = []
    while value:
        digit = ((value + half) & mask) - half
        digits.append(digit)
        value = (value - digit) >> width
    return digits


def _polynomial(value: int, common: int, width: int) -> Polynomial:
    """The polynomial in x of a side packed at ``x = 2^width``, over ``common``."""
    return Polynomial.univariate("x", [Fraction(v, common) if v else 0 for v in _coefficients(value, width)])


def sides_agree(left: tuple, right: tuple) -> bool:
    """Whether the two sides that a generated check returned are one value, compared in ints.

    Each side is ``(value, den)`` with ``den > 0``: a kernel-free side's
    sum, or a kernel side's polynomial packed at ``x = 2^B``
    (:func:`terms.pack_sides`), where the values of the two sides are
    equal over their denominators iff the polynomials are.  So one
    cross-multiplication compares every identity.
    """
    (lvalue, lden), (rvalue, rden) = left, right
    return lvalue * rden == rvalue * lden


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
    become ints, and the result keeps that copy.  :func:`check_sorts` tests
    it first: a declared parameter missing from the binding raises
    :class:`UnboundParameterError`, and a value of the wrong sort is
    ``skipped_precondition``.  Then one call of the descriptor's generated
    check (:meth:`IdentityDescriptor.check`) tests ``validity`` and computes
    both sides, which are compared in ints (:func:`sides_agree`).  A
    verified result builds one value, a Fraction or a polynomial decoded
    from its packed value (:func:`_coefficients`), and holds it as both
    ``lhs`` and ``rhs``.
    """
    binding = exact_env(binding)
    label = desc.name or "descriptor"
    check = desc.check(validity)
    violation = check_sorts(desc.params, binding)
    if violation is not None:
        return CheckResult(label, binding, SKIPPED_PRECONDITION, witness=violation)
    try:
        sides = check(*[binding[name] for name in desc.names])
    except PoleError as exc:
        return CheckResult(label, binding, SKIPPED_POLE, witness=str(exc))
    except PreconditionError as exc:
        return CheckResult(label, binding, SKIPPED_PRECONDITION, witness=str(exc))
    if type(sides) is str:
        return CheckResult(label, binding, SKIPPED_PRECONDITION, witness=sides)
    left, right = sides[0], sides[1]
    build = Fraction if desc.kernel_free else partial(_polynomial, width=sides[2])
    if sides_agree(left, right):
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
    grid: Mapping[str, Sequence[Scalar]],
    validity: ValidityPredicate | None = None,
    max_witnesses: int = 10,
    rows: Iterable[tuple] | None = None,
) -> GridReport:
    """Check every binding of ``grid`` in one loop; count the statuses and keep the first failures.

    ``grid`` maps each name to its exact values (:func:`catalog.exact_grid`).
    The bindings are its rows in product order, or ``rows`` when given:
    value tuples over the sorted names, drawn from the axes (a sample).
    Before any binding runs, a declared name without an axis raises
    :class:`UnboundParameterError`, and every axis value is tested against
    its sort once (:func:`unfit_values`).  A binding with an unfit value is
    counted ``skipped_precondition`` and no check runs on it.  On every
    other binding the generated check runs once on the row's values and
    the sides are compared in ints (:func:`sides_agree`), so no value is
    built for a binding that verifies or is skipped.  Only a failure among
    the first ``max_witnesses`` is checked again, by :func:`check_two_sided`,
    for its witness.
    """
    names = sorted(grid)
    unfit = unfit_values(desc.params, grid)
    precondition = 0
    if rows is None:
        axes = [grid[name] for name in names]
        if unfit:
            fit = fit_axes(grid, unfit)
            axes, precondition = fit, prod(map(len, axes)) - prod(map(len, fit))
        rows = product(*axes)
    elif unfit:
        rows, per_axis = list(rows), [unfit.get(name, ()) for name in names]
        fit = [row for row in rows if not any(v in bad for v, bad in zip(row, per_axis))]
        rows, precondition = fit, len(rows) - len(fit)
    pick = row_arguments(desc, names)
    check = desc.check(validity)
    verified = failed = pole = vacuous = 0
    witnesses = []
    for row in rows:
        try:
            sides = check(*pick(row))
        except PoleError:
            pole += 1
            continue
        except PreconditionError:
            precondition += 1
            continue
        if type(sides) is str:
            precondition += 1
        elif sides_agree(sides[0], sides[1]):
            verified += 1
            if not sides[0][0]:
                vacuous += 1
        else:
            failed += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(check_two_sided(desc, dict(zip(names, row)), validity))
    counts = {VERIFIED: verified, FAILED: failed, SKIPPED_POLE: pole, SKIPPED_PRECONDITION: precondition}
    total = verified + failed + pole + precondition
    return GridReport(desc.name, counts, tuple(witnesses), total, vacuous)


# -- structural rewrites ----------------------------------------------------

def map_blocks(
    desc: IdentityDescriptor, fn: Callable[[KernelBlock], KernelBlock], name: str, swap: bool = False, params=None
) -> IdentityDescriptor:
    """The descriptor ``name`` whose blocks are ``fn`` of ``desc``'s, the left side's first.

    The one rebuild of a descriptor's sides: ``swap`` exchanges them, and
    ``params`` replaces ``desc``'s declarations.
    """
    sides = (desc.right, desc.left) if swap else (desc.left, desc.right)
    left, right = (Side(tuple(map(fn, side.blocks))) for side in sides)
    return IdentityDescriptor(desc.params if params is None else params, left, right, name)


def reflect_block(block: KernelBlock) -> KernelBlock:
    """x -> 1-x on one block: the x and (1-x) exponents trade places; a (1+x) kernel raises :class:`ShapeError`."""
    if not block.one_plus_exp.is_zero():
        raise ShapeError("x -> 1-x requires (1+x)-free kernels")
    return KernelBlock(block.lo, block.hi, block.coef, x_exp=block.one_minus_exp, one_minus_exp=block.x_exp)


def transpose_descriptor(desc: IdentityDescriptor) -> IdentityDescriptor:
    """Swap the sides and reflect x -> 1-x (:func:`reflect_block`).

    Preserves the truth value at every admissible binding; requires every
    block to be free of (1+x) kernels.
    """
    return map_blocks(desc, reflect_block, f"{desc.name}-transposed" if desc.name else "transposed", swap=True)


def rename_descriptor_parameters(
    desc: IdentityDescriptor, mapping: Mapping[str, str]
) -> IdentityDescriptor:
    def rename(b: KernelBlock) -> KernelBlock:
        return KernelBlock(
            b.lo.rename(mapping),
            b.hi.rename(mapping),
            rename_term(b.coef, mapping),
            b.x_exp.rename(mapping),
            b.one_minus_exp.rename(mapping),
            b.one_plus_exp.rename(mapping),
        )

    return map_blocks(desc, rename, desc.name, params=tuple((mapping.get(n, n), s) for n, s in desc.params))
