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
stay evaluable at rational parameter bindings.  The weight and reciprocal
rules are module functions of one block's coefficient and exponents
(:func:`frisch_rule`, :func:`klamkin_rule`), and every scheme and rewrite
rebuilds a descriptor by :func:`descriptors.map_blocks`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd
from typing import Callable, Mapping, Sequence, Union

from .affine import Affine, Bound
from .descriptors import (
    CheckResult,
    IdentityDescriptor,
    KernelBlock,
    RangeConstraint,
    ValidityPredicate,
    check_two_sided,
    fit_axes,
    format_binding,
    map_blocks,
    reflect_block,
    row_arguments,
    sides_agree,
    transpose_descriptor,
    unfit_values,
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

    def convert(block: KernelBlock) -> KernelBlock:
        if not block.one_plus_exp.is_zero():
            raise ShapeError(f"{scheme} transform needs (1+x)-free kernels; rewrite with negate_x first")
        hi, term = rule(block)
        return KernelBlock(block.lo, hi, term)

    provenance = f"{scheme}({desc.name or 'identity'}, {options})"
    return DerivedIdentity(map_blocks(src, convert, provenance, params=params), validity)


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


#: The preludes a scheme option picks, run on the source before the rule:
#: ``direction`` for the Frisch and Klamkin schemes, ``variant`` for the
#: moment scheme, each value in the order the command line lists them.
PRELUDES: dict[str, dict[str, Callable[[IdentityDescriptor], IdentityDescriptor]]] = {
    "direction": {"forward": lambda desc: desc, "transposed": transpose_descriptor},
    "variant": {
        "direct": lambda desc: desc,
        "swapped": transpose_descriptor,
        "reflected": lambda desc: rewrite_descriptor(desc, "reciprocal_x"),
        "swapped_reflected": lambda desc: rewrite_descriptor(transpose_descriptor(desc), "reciprocal_x"),
    },
}


def _prelude(option: str, value: str, desc: IdentityDescriptor) -> IdentityDescriptor:
    """``desc`` after the prelude that ``option`` (``direction`` or ``variant``) names by ``value``."""
    if value not in PRELUDES[option]:
        raise ValueError(f"unknown {option} {value!r}")
    return PRELUDES[option][value](desc)


# -- the Beta rules of the weight and reciprocal transforms ------------------------

def frisch_rule(coef: TermExpr, a: Affine, b: Affine, r: Affine, s: Affine) -> TermExpr:
    """``coef x^a (1-x)^b`` weighted by ``x^(r-s) (1-x)^(s-1)`` and integrated over [0, 1], times s.

    That is ``s coef B(a+r-s+1, b+s)``, written
    ``s coef / (b+s) * binom(a+b+r, b+s)^-1`` so that it stays evaluable at
    a rational r; the plain-kernel side reads ``coef binom(a+r, s)^-1``.
    """
    return prod(af(s), coef, quot(1, b + s), ibinom(a + b + r, b + s))


def klamkin_rule(coef: TermExpr, a: Affine, b: Affine, r: Affine, s: Affine) -> TermExpr:
    """``coef x^a (1-x)^b`` after ``x -> 1/x``, weighted and integrated over [0, 1], times r+1.

    That is ``(-1)^b (r+1) coef B(b+s+1, r-a-b-s+1)``, written
    ``(-1)^b coef (r+1) / (r-a+1) * binom(r-a, b+s)^-1``.
    """
    return prod(sign(b), coef, af(r + 1), quot(1, r - a + 1), ibinom(r - a, b + s))


def _integrate(
    scheme: str, rule: Callable[..., TermExpr], s_min: int,
    desc: IdentityDescriptor, r: ParamSpec, s: ParamSpec, direction: str,
) -> DerivedIdentity:
    """Apply ``rule`` to every block of ``desc`` after its ``direction`` prelude, under ``s >= s_min``.

    A name for r (``rat``) or s (``int``) is declared after the source's own parameters.
    """
    src = _prelude("direction", direction, desc)
    taken = {name for name, _ in src.params}
    r_aff, r_decl = _resolve_param(r, "rat", taken)
    s_aff, s_decl = _resolve_param(s, "int", taken | {d[0] for d in r_decl})

    def block_rule(block: KernelBlock) -> tuple[Bound, TermExpr]:
        return block.hi, rule(block.coef, block.x_exp, block.one_minus_exp, r_aff, s_aff)

    validity = ValidityPredicate((RangeConstraint(s_aff, s_min),))
    params = src.params + r_decl + s_decl
    return _derive(scheme, desc, src, f"r={r}, s={s}, {direction}", block_rule, params, validity)


def frisch_transform(
    desc: IdentityDescriptor, r: ParamSpec = "r", s: ParamSpec = "s", direction: str = "forward"
) -> DerivedIdentity:
    """Weight both sides by ``x^(r-s) (1-x)^(s-1)`` and integrate term-wise (:func:`frisch_rule`)."""
    return _integrate("frisch", frisch_rule, 1, desc, r, s, direction)


def klamkin_transform(
    desc: IdentityDescriptor, r: ParamSpec = "r", s: ParamSpec = "s", direction: str = "forward"
) -> DerivedIdentity:
    """Substitute ``x -> 1/x``, weight, and integrate term-wise (:func:`klamkin_rule`)."""
    return _integrate("klamkin", klamkin_rule, 0, desc, r, s, direction)


# -- moment transform ----------------------------------------------------------

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
    src = _prelude("variant", variant, desc)
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


def _negate_block(block: KernelBlock) -> KernelBlock:
    """x -> -x on one block: the (1-x) and (1+x) exponents trade places and the coefficient gains ``(-1)^a``.

    The rewrite is an involution: a leading ``(-1)^a`` is removed instead of doubled.
    """
    coef, a = block.coef, block.x_exp
    if not a.is_zero():
        marker = SignPow(a)
        factors = list(coef.factors) if isinstance(coef, Product) else [coef]
        if not factors or factors[0] != marker:
            coef = Product(tuple([marker] + factors))
        elif len(factors) == 1:
            coef = Const(Fraction(1))
        else:
            coef = prod(*factors[1:])
    return KernelBlock(block.lo, block.hi, coef, a, block.one_plus_exp, block.one_minus_exp)


def _reciprocal_block(top: Affine, block: KernelBlock) -> KernelBlock:
    """x -> 1/x on one block, cleared with ``x^top``; a (1-x)^b kernel puts ``(-1)^b`` in front of the coefficient."""
    b = block.one_minus_exp
    return KernelBlock(
        block.lo,
        block.hi,
        block.coef if b.is_zero() else prod(sign(b), block.coef),
        top - block.x_exp - b - block.one_plus_exp,
        b,
        block.one_plus_exp,
    )


def rewrite_descriptor(desc: IdentityDescriptor, rule: str) -> IdentityDescriptor:
    """Rewrite a descriptor by a substitution that preserves its truth value, block by block.

    - ``negate_x``: x -> -x; swaps the (1-x) and (1+x) kernels.
    - ``reflect_x``: x -> 1-x; swaps the x and (1-x) kernels (an involution).
    - ``reciprocal_x``: x -> 1/x followed by clearing with x^N where N is the
      maximal total kernel degree; a block with a (1-x)^b kernel gains the
      leading factor (-1)^b.
    """
    if rule == "negate_x":
        fn, word = _negate_block, "negated"
    elif rule == "reflect_x":
        fn, word = reflect_block, "reflected"
    elif rule == "reciprocal_x":
        top = _affine_max([_block_degree(b) for side in (desc.left, desc.right) for b in side.blocks])
        fn, word = partial(_reciprocal_block, top), "reciprocal"
    else:
        raise ValueError(f"unknown rewrite rule {rule!r}")
    return map_blocks(desc, fn, f"{desc.name}-{word}" if desc.name else word)


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
    for every parameter of the derived identity (:func:`match_grid`) and of
    the entry, whose lack raises :class:`UnboundParameterError` before any
    binding runs.  The bindings are those of :func:`catalog.iter_grid`, as
    value rows.  Each axis value is tested once against each identity's
    sorts (:func:`descriptors.unfit_values`).  At each binding the derived
    identity's generated check runs under its validity, and then the
    entry's without one, each on its own parameters' values; a binding
    where an identity's sorts fail counts as skipped by its check.  Their
    sides are compared in ints (:func:`sides_agree`); a binding that either
    check skips is not compared.  A binding's factor ``(lnum dden) / (lden dnum)``
    is reduced in ints and looked up among the distinct factors seen so
    far, so one ``Fraction`` is built per distinct factor, not per binding.
    """
    from .catalog import exact_grid

    entry = summation_entry(entry_id)
    grid = exact_grid(match_grid(derived, entry, grid))
    names = list(grid)
    derived_desc, entry_desc = derived.descriptor, entry.descriptor
    derived_unfit = unfit_values(derived_desc.params, grid)
    entry_unfit = unfit_values(entry_desc.params, grid)
    # a binding the derived sorts reject is never compared; one the entry's
    # reject is, once the derived identity has been checked there
    axes = fit_axes(grid, derived_unfit)
    screen = [entry_unfit.get(name, ()) for name in names] if entry_unfit else None
    # both are kernel-free, so each check returns two (num, den) pairs
    derived_check, derived_pick = derived_desc.check(derived.validity), row_arguments(derived_desc, names)
    check, pick = entry_desc.check(), row_arguments(entry_desc, names)
    seen: dict[tuple[int, int], int] = {}  # each distinct factor, reduced, and its index
    samples: list[tuple[tuple, int]] = []  # per row with nonzero sides, its factor's index
    checked = 0
    for row in product(*axes):
        try:
            sides = derived_check(*derived_pick(row))
        except (PoleError, PreconditionError):
            continue
        if type(sides) is str:
            continue
        if not sides_agree(*sides):
            return MatchReport(False, checked, (), f"derived identity fails at {_format_row(names, row)}")
        dnum, dden = sides[0]
        if screen and any(v in bad for v, bad in zip(row, screen)):
            continue
        try:
            sides = check(*pick(row))
        except (PoleError, PreconditionError):
            continue
        if type(sides) is str:
            continue
        if not sides_agree(*sides):
            return MatchReport(False, checked, (), f"entry {entry_id} fails at {_format_row(names, row)}")
        lnum, lden = sides[0]
        if (lnum == 0) != (dnum == 0):
            return MatchReport(
                False, checked, (), f"sides disagree at {_format_row(names, row)}"
            )
        if dnum:
            num, den = lnum * dden, lden * dnum
            divisor = gcd(num, den) if den > 0 else -gcd(num, den)
            samples.append((row, seen.setdefault((num // divisor, den // divisor), len(seen))))
        checked += 1
    if checked == 0:
        return MatchReport(False, 0, (), "no comparable bindings")
    distinct = [Fraction(num, den) for num, den in seen]
    factors = tuple(sorted(distinct))
    if len(distinct) > 1 and not _unit_form(names, samples, distinct):
        return MatchReport(False, checked, factors, "factors are neither c nor c * (-1)^p")
    return MatchReport(True, checked, factors)


def _format_row(names: Sequence[str], row: tuple) -> str:
    return format_binding(dict(zip(names, row)))


def _unit_form(names: Sequence[str], samples: list[tuple[tuple, int]], factors: list[Fraction]) -> bool:
    """True when the samples' factors are ``c * (-1)^p`` for a parameter p.

    A sample is a row of values over ``names`` and the index of its factor
    in ``factors``.  p qualifies when it is an integer at every sampled
    row; the values of a grid's rows are exact, so an integer is an ``int``.
    """
    for position in range(len(names)):
        parities = set()
        for row, index in samples:
            value = row[position]
            if type(value) is not int:
                break
            parities.add((index, value & 1))
        else:
            if len({-factors[index] if odd else factors[index] for index, odd in parities}) == 1:
                return True
    return False
