"""Derivation schemes: mint summation identities from two-sided x-identities.

Each scheme is a term rule that maps every kernel block of both sides of the
source, ``h(k) x^a (1-x)^b``, to a kernel-free block.  The rules are justified
by term-wise integration or differentiation of the source identity:

- weight transform (Frisch-type): multiply by ``x^(r-s) (1-x)^(s-1)`` and
  integrate each term over [0, 1];
- reciprocal transform (Klamkin-type): substitute ``x -> 1/x``, weight, and
  integrate;
- moment transform: substitute ``x -> exp(t)``, differentiate m times at 0,
  which introduces alternating power sums (Stirling-type weights).

A term ``h(k) x^a (1-x)^b`` integrates to ``h(k) B(a+1, b+1)``; the Beta value
is expressed with the integer-lower-index binomial form so derived identities
stay evaluable at rational parameter bindings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, Union

from .affine import Affine, Bound
from .descriptors import (
    CheckResult,
    IdentityDescriptor,
    KernelBlock,
    RangeConstraint,
    Side,
    ValidityPredicate,
    check_two_sided,
    format_binding,
    sides_agree,
    transpose_descriptor,
)
from .errors import PoleError, PreconditionError, ShapeError
from .record import Record
from .terms import (
    Const,
    Product,
    SignPow,
    TermExpr,
    af,
    altpowsum,
    ibinom,
    power,
    prod,
    quot,
    sign,
    substitute_index,
)

K = Affine.var("k")

ParamSpec = Union[str, int, Fraction]


class DerivedIdentity(Record):
    """A derived equality of two finite sums over k: a kernel-free descriptor named by its provenance."""

    descriptor: IdentityDescriptor
    validity: ValidityPredicate = ValidityPredicate()

    @property
    def provenance(self) -> str:
        return self.descriptor.name

    def to_descriptor(self) -> IdentityDescriptor:
        return self.descriptor


def check_derived(derived: DerivedIdentity, binding: Mapping[str, Fraction]) -> CheckResult:
    return check_two_sided(derived.descriptor, binding, derived.validity)


def _derive(
    scheme: str,
    desc: IdentityDescriptor,
    src: IdentityDescriptor,
    options: str,
    rule: Callable[[KernelBlock], tuple[Bound, TermExpr]],
    params: tuple[tuple[str, str], ...],
    validity: ValidityPredicate = ValidityPredicate(),
) -> DerivedIdentity:
    """Map ``rule(block) -> (hi, term)`` over every block of both sides of ``src`` (``desc`` after a prelude)."""

    def convert(side: Side) -> Side:
        blocks = []
        for block in side.blocks:
            if not block.one_plus_exp.is_zero():
                raise ShapeError(
                    f"{scheme} transform needs (1+x)-free kernels; rewrite with negate_x first"
                )
            hi, term = rule(block)
            blocks.append(KernelBlock(block.lo, hi, term))
        return Side(tuple(blocks))

    provenance = f"{scheme}({desc.name or 'identity'}, {options})"
    return DerivedIdentity(IdentityDescriptor(params, convert(src.left), convert(src.right), provenance), validity)


# -- parameter plumbing -------------------------------------------------------

def _resolve_param(
    value: ParamSpec, sort: str, taken: set[str]
) -> tuple[Affine, tuple[tuple[str, str], ...]]:
    """Turn a transform parameter into an affine form plus new declarations."""
    if isinstance(value, str):
        if value in taken:
            raise ShapeError(
                f"parameter name {value!r} already used by the source identity; pick another"
            )
        return Affine.var(value), ((value, sort),)
    return Affine.of(Fraction(value)), ()


def _weight_params(src: IdentityDescriptor, r: ParamSpec, s: ParamSpec, s_min: int):
    """r and s as affine forms, the derived parameter list, and the validity ``s >= s_min``."""
    taken = {name for name, _ in src.params}
    r_aff, r_decl = _resolve_param(r, "rat", taken)
    s_aff, s_decl = _resolve_param(s, "int", taken | {d[0] for d in r_decl})
    validity = ValidityPredicate((RangeConstraint(s_aff, s_min),))
    return r_aff, s_aff, src.params + r_decl + s_decl, validity


def _source(desc: IdentityDescriptor, direction: str) -> IdentityDescriptor:
    if direction == "forward":
        return desc
    if direction == "transposed":
        return transpose_descriptor(desc)
    raise ValueError(f"unknown direction {direction!r}")


# -- Frisch-type (weight) transform -------------------------------------------

def frisch_transform(
    desc: IdentityDescriptor,
    r: ParamSpec = "r",
    s: ParamSpec = "s",
    direction: str = "forward",
) -> DerivedIdentity:
    """Weight both sides by ``x^(r-s) (1-x)^(s-1)`` and integrate term-wise.

    A block term ``h(k) x^a (1-x)^b`` becomes
    ``s * h(k) / (b+s) * binom(a+b+r, b+s)^-1`` (both sides carry the common
    factor s so the plain-kernel side reads ``h(k) binom(a+r, s)^-1``).
    """
    src = _source(desc, direction)
    r_aff, s_aff, params, validity = _weight_params(src, r, s, 1)

    def rule(block: KernelBlock) -> tuple[Bound, TermExpr]:
        a, b = block.x_exp, block.one_minus_exp
        return block.hi, prod(af(s_aff), block.coef, quot(1, b + s_aff), ibinom(a + b + r_aff, b + s_aff))

    return _derive("frisch", desc, src, f"r={r}, s={s}, {direction}", rule, params, validity)


# -- Klamkin-type (reciprocal) transform ---------------------------------------

def klamkin_transform(
    desc: IdentityDescriptor,
    r: ParamSpec = "r",
    s: ParamSpec = "s",
    direction: str = "forward",
) -> DerivedIdentity:
    """Substitute ``x -> 1/x``, weight, and integrate term-wise.

    A block term ``h(k) x^a (1-x)^b`` becomes
    ``(-1)^b h(k) (r+1) / (r-a+1) * binom(r-a, b+s)^-1``.
    """
    src = _source(desc, direction)
    r_aff, s_aff, params, validity = _weight_params(src, r, s, 0)

    def rule(block: KernelBlock) -> tuple[Bound, TermExpr]:
        a, b = block.x_exp, block.one_minus_exp
        term = prod(sign(b), block.coef, af(r_aff + 1), quot(1, r_aff - a + 1), ibinom(r_aff - a, b + s_aff))
        return block.hi, term

    return _derive("klamkin", desc, src, f"r={r}, s={s}, {direction}", rule, params, validity)


# -- moment transform ----------------------------------------------------------

_MOMENT_PRELUDES = {
    "direct": lambda desc: desc,
    "swapped": transpose_descriptor,
    "reflected": lambda desc: rewrite_descriptor(desc, "reciprocal_x"),
    "swapped_reflected": lambda desc: rewrite_descriptor(transpose_descriptor(desc), "reciprocal_x"),
}


def moment_transform(
    desc: IdentityDescriptor, m: int, variant: str = "direct"
) -> DerivedIdentity:
    """Substitute ``x -> exp(t)``, differentiate m times, evaluate at t = 0.

    Block by block, ``h(k) x^a (1-x)^b`` becomes ``h(k) * altpowsum(b, a, m)``,
    written ``pow(a, m) * h(k)`` when b is 0.  A block whose (1-x) exponent
    is k from k = 0 to a plain bound is capped at m: its higher terms vanish.
    The variant picks a prelude: none (``direct``), ``transpose_descriptor``
    (``swapped``), ``reciprocal_x`` (``reflected``), or both in that order.
    After ``reciprocal_x`` a block ``x^(N-k)`` over ``0..N`` is reindexed
    k -> N-k, and the sign that ``reciprocal_x`` put in front of a (1-x)
    block's coefficient stays in front of its ``altpowsum``.
    """
    if m < 0:
        raise ValueError(f"moment order must be non-negative, got {m}")
    if variant not in _MOMENT_PRELUDES:
        raise ValueError(f"unknown variant {variant!r}")
    src = _MOMENT_PRELUDES[variant](desc)
    reflected = variant.endswith("reflected")

    def rule(block: KernelBlock) -> tuple[Bound, TermExpr]:
        a, b, coef, hi = block.x_exp, block.one_minus_exp, block.coef, block.hi
        from_zero = block.lo == Bound.of(0) and not hi.half and hi.cap is None
        if b.is_zero():
            if reflected and from_zero and a == hi.base - K:
                return hi, prod(power(K, m), substitute_index(coef, a))
            return hi, prod(power(a, m), coef)
        if from_zero and b == K:
            hi = Bound(Affine.of(m), cap=hi.base)
        if reflected:
            signed, *rest = coef.factors
            return hi, prod(signed, altpowsum(b, a, m), *rest)
        return hi, prod(coef, altpowsum(b, a, m))

    return _derive("moment", desc, src, f"m={m}, {variant}", rule, src.params)


# -- descriptor rewrites ---------------------------------------------------------

def _affine_max(candidates: list[Affine]) -> Affine:
    """Pick the candidate that dominates all others for non-negative names."""
    for cand in candidates:
        dominates = True
        for other in candidates:
            diff = cand - other
            if diff.const < 0 or any(c < 0 for _, c in diff.coeffs):
                dominates = False
                break
        if dominates:
            return cand
    raise ShapeError("total degrees are not comparable; cannot homogenize")


def _block_degree(block: KernelBlock) -> Affine:
    total = block.x_exp + block.one_minus_exp + block.one_plus_exp
    coeff = total.coefficient("k")
    if coeff == 0:
        return total
    if block.hi.half or block.hi.cap is not None or block.lo.half or block.lo.cap is not None:
        raise ShapeError("cannot homogenize a k-dependent degree over a floored bound")
    at = block.hi.base if coeff > 0 else block.lo.base
    return total.substitute("k", at)


def rewrite_descriptor(desc: IdentityDescriptor, rule: str) -> IdentityDescriptor:
    """Rewrite a descriptor by a substitution that preserves its truth value.

    - ``negate_x``: x -> -x; swaps the (1-x) and (1+x) kernels.
    - ``reflect_x``: x -> 1-x; swaps the x and (1-x) kernels (an involution).
    - ``reciprocal_x``: x -> 1/x followed by clearing with x^N where N is the
      maximal total kernel degree; a block with a (1-x)^b kernel gains the
      leading factor (-1)^b.
    """
    if rule == "negate_x":

        def negate_coef(coef, x_exp: Affine):
            # multiplying by (-1)^a twice cancels; strip an existing sign factor
            if x_exp.is_zero():
                return coef
            marker = SignPow(x_exp)
            factors = list(coef.factors) if isinstance(coef, Product) else [coef]
            if factors and factors[0] == marker:
                rest = factors[1:]
                if not rest:
                    return Const(Fraction(1))
                return rest[0] if len(rest) == 1 else Product(tuple(rest))
            return Product(tuple([marker] + factors))

        def flip(block: KernelBlock) -> KernelBlock:
            return KernelBlock(
                block.lo,
                block.hi,
                negate_coef(block.coef, block.x_exp),
                x_exp=block.x_exp,
                one_minus_exp=block.one_plus_exp,
                one_plus_exp=block.one_minus_exp,
            )

        return IdentityDescriptor(
            desc.params,
            Side(tuple(flip(b) for b in desc.left.blocks)),
            Side(tuple(flip(b) for b in desc.right.blocks)),
            name=f"{desc.name}-negated" if desc.name else "negated",
        )

    if rule == "reflect_x":

        def reflect(block: KernelBlock) -> KernelBlock:
            if not block.one_plus_exp.is_zero():
                raise ShapeError("reflect_x requires (1+x)-free kernels")
            return KernelBlock(
                block.lo,
                block.hi,
                block.coef,
                x_exp=block.one_minus_exp,
                one_minus_exp=block.x_exp,
            )

        return IdentityDescriptor(
            desc.params,
            Side(tuple(reflect(b) for b in desc.left.blocks)),
            Side(tuple(reflect(b) for b in desc.right.blocks)),
            name=f"{desc.name}-reflected" if desc.name else "reflected",
        )

    if rule == "reciprocal_x":
        degrees = [
            _block_degree(b) for side in (desc.left, desc.right) for b in side.blocks
        ]
        top = _affine_max(degrees)

        def invert(block: KernelBlock) -> KernelBlock:
            shifted = top - block.x_exp - block.one_minus_exp - block.one_plus_exp
            return KernelBlock(
                block.lo,
                block.hi,
                block.coef if block.one_minus_exp.is_zero() else prod(sign(block.one_minus_exp), block.coef),
                x_exp=shifted,
                one_minus_exp=block.one_minus_exp,
                one_plus_exp=block.one_plus_exp,
            )

        return IdentityDescriptor(
            desc.params,
            Side(tuple(invert(b) for b in desc.left.blocks)),
            Side(tuple(invert(b) for b in desc.right.blocks)),
            name=f"{desc.name}-reciprocal" if desc.name else "reciprocal",
        )

    raise ValueError(f"unknown rewrite rule {rule!r}")


# -- matching derived output against catalog entries -----------------------------

class MatchReport(Record):
    ok: bool
    checked: int
    factors: tuple[Fraction, ...]
    detail: str = ""


def summation_entry(entry_id: str):
    """The catalog entry ``entry_id``, which a derived identity can be matched against.

    An unknown id raises :class:`UnknownEntryError`; an entry with x kernels
    raises :class:`ShapeError`, since only summation entries can be matched.
    """
    from .catalog import get_entry

    entry = get_entry(entry_id)
    if not entry.descriptor.kernel_free:
        raise ShapeError(f"entry {entry_id} is a polynomial identity in x, not a summation identity")
    return entry


def match_grid(derived: DerivedIdentity, entry, grid: Mapping | None = None) -> Mapping:
    """The grid a match of ``derived`` against ``entry`` runs on: ``grid``, or the entry's default grid.

    A parameter of the derived identity that the grid has no axis for raises
    :class:`ShapeError`, naming the first such parameter in declaration order.
    """
    grid = grid or entry.default_grid
    for name, _ in derived.descriptor.params:
        if name not in grid:
            raise ShapeError(
                f"the derived identity's parameter {name!r} is not an axis of entry {entry.id}'s grid"
            )
    return grid


def match_against_entry(
    derived: DerivedIdentity, entry_id: str, grid: Mapping | None = None
) -> MatchReport:
    """Compare a derived identity against a catalog entry on a shared grid.

    Both identities must verify and agree up to one nonzero factor per
    binding, so a binding where exactly one of them is 0 is a mismatch.  The
    match is ok only when the factors reproduce the entry: they are one
    constant c, or ``c * (-1)^p`` for a parameter p that is an integer at
    every compared binding whose sides are nonzero (a derivation may carry
    both sides by (-1)^n).  Returns the set of factors seen.  Only summation
    entries can be matched (:func:`summation_entry`), on a grid with an axis
    for every parameter of the derived identity (:func:`match_grid`).  At
    each binding of the grid, the derived identity's generated check runs
    under its validity and the entry's without one, and their sides are
    compared in ints (:func:`sides_agree`); a binding that either check
    skips is not compared.  A binding's factor ``(lnum dden) / (lden dnum)``
    is reduced in ints and looked up among the distinct factors seen so
    far, so one ``Fraction`` is built per distinct factor, not per binding.
    """
    from .catalog import iter_grid

    entry = summation_entry(entry_id)
    grid = match_grid(derived, entry, grid)
    # both are kernel-free, so each check returns two (num, den) pairs
    derived_check = derived.descriptor.check(derived.validity)
    check = entry.descriptor.check()
    seen: dict[tuple[int, int], int] = {}  # each distinct factor, reduced, and its index
    samples: list[tuple[Mapping, int]] = []  # per binding with nonzero sides, its factor's index
    checked = 0
    for binding in iter_grid(grid):
        try:
            sides = derived_check(binding)
        except (PoleError, PreconditionError):
            continue
        if type(sides) is str:
            continue
        if not sides_agree(*sides):
            return MatchReport(False, checked, (), f"derived identity fails at {format_binding(binding)}")
        dnum, dden = sides[0]
        try:
            sides = check(binding)
        except (PoleError, PreconditionError):
            continue
        if type(sides) is str:
            continue
        if not sides_agree(*sides):
            return MatchReport(False, checked, (), f"entry {entry_id} fails at {format_binding(binding)}")
        lnum, lden = sides[0]
        if (lnum == 0) != (dnum == 0):
            return MatchReport(
                False, checked, (), f"sides disagree at {format_binding(binding)}"
            )
        if dnum:
            num, den = lnum * dden, lden * dnum
            divisor = gcd(num, den) if den > 0 else -gcd(num, den)
            samples.append((binding, seen.setdefault((num // divisor, den // divisor), len(seen))))
        checked += 1
    if checked == 0:
        return MatchReport(False, 0, (), "no comparable bindings")
    distinct = [Fraction(num, den) for num, den in seen]
    factors = tuple(sorted(distinct))
    if len(distinct) > 1 and not _unit_form(samples, distinct):
        return MatchReport(False, checked, factors, "factors are neither c nor c * (-1)^p")
    return MatchReport(True, checked, factors)


def _unit_form(samples: list[tuple[Mapping, int]], factors: list[Fraction]) -> bool:
    """True when the samples' factors are ``c * (-1)^p`` for a parameter p.

    A sample is a binding and the index of its factor in ``factors``.  p
    qualifies when it is an integer at every sampled binding; the values of
    a grid's bindings are exact, so an integer is an ``int``.
    """
    for name in sorted(samples[0][0]):
        parities = set()
        for binding, index in samples:
            value = binding[name]
            if type(value) is not int:
                break
            parities.add((index, value & 1))
        else:
            if len({-factors[index] if odd else factors[index] for index, odd in parities}) == 1:
                return True
    return False
