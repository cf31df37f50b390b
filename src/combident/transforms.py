"""Derivation schemes: mint summation identities from two-sided x-identities.

Three schemes, each a symbolic rewrite justified by term-wise integration or
differentiation of the source identity:

- weight transform (Frisch-type): multiply by ``x^(r-s) (1-x)^(s-1)`` and
  integrate each term over [0, 1];
- reciprocal transform (Klamkin-type): substitute ``x -> 1/x``, weight, and
  integrate;
- moment transform: substitute ``x -> exp(x)``, differentiate m times at 0,
  which introduces alternating power sums (Stirling-type weights).

A term ``h(k) x^a (1-x)^b`` integrates to ``h(k) B(a+1, b+1)``; the Beta value
is expressed with the integer-lower-index binomial form so derived identities
stay evaluable at rational parameter bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Union

from .affine import Affine, Bound
from .descriptors import (
    FAILED,
    SKIPPED_POLE,
    SKIPPED_PRECONDITION,
    CheckResult,
    IdentityDescriptor,
    IntegerValued,
    KernelBlock,
    RangeConstraint,
    Side,
    ValidityPredicate,
    check_two_sided,
    eval_side,
    format_binding,
    transpose_descriptor,
)
from .errors import PoleError, PreconditionError, ShapeError
from .terms import (
    Const,
    Product,
    SignPow,
    SumSpec,
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


@dataclass(frozen=True)
class DerivedIdentity:
    """A derived equality of two finite sums over k."""

    params: tuple[tuple[str, str], ...]
    lhs: tuple[SumSpec, ...]
    rhs: tuple[SumSpec, ...]
    provenance: str
    validity: ValidityPredicate = ValidityPredicate()

    def to_descriptor(self) -> IdentityDescriptor:
        """View the derived identity as a kernel-free two-sided descriptor."""
        return self._descriptor

    @cached_property
    def _descriptor(self) -> IdentityDescriptor:
        return IdentityDescriptor(
            params=self.params,
            left=Side(tuple(KernelBlock(s.lo, s.hi, s.term) for s in self.lhs)),
            right=Side(tuple(KernelBlock(s.lo, s.hi, s.term) for s in self.rhs)),
            name=self.provenance,
        )


def check_derived(derived: DerivedIdentity, binding: Mapping[str, Fraction]) -> CheckResult:
    return check_two_sided(derived.to_descriptor(), binding, derived.validity)


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


def _source(desc: IdentityDescriptor, direction: str) -> IdentityDescriptor:
    if direction == "forward":
        return desc
    if direction == "transposed":
        return transpose_descriptor(desc)
    raise ValueError(f"unknown direction {direction!r}")


def _no_one_plus(desc: IdentityDescriptor, scheme: str):
    for side in (desc.left, desc.right):
        for block in side.blocks:
            if not block.one_plus_exp.is_zero():
                raise ShapeError(
                    f"{scheme} transform needs (1+x)-free kernels; rewrite with negate_x first"
                )


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
    _no_one_plus(src, "frisch")
    taken = {name for name, _ in src.params}
    r_aff, r_decl = _resolve_param(r, "rat", taken)
    s_aff, s_decl = _resolve_param(s, "int", taken | {d[0] for d in r_decl})

    def convert(side: Side) -> tuple[SumSpec, ...]:
        specs = []
        for b in side.blocks:
            a_exp, b_exp = b.x_exp, b.one_minus_exp
            term = prod(
                af(s_aff),
                b.coef,
                quot(1, b_exp + s_aff),
                ibinom(a_exp + b_exp + r_aff, b_exp + s_aff),
            )
            specs.append(SumSpec(b.lo, b.hi, term))
        return tuple(specs)

    constraints = [RangeConstraint(s_aff, ">=", 1)]
    if isinstance(s, str):
        constraints.insert(0, IntegerValued(s_aff))
    return DerivedIdentity(
        params=src.params + r_decl + s_decl,
        lhs=convert(src.left),
        rhs=convert(src.right),
        provenance=f"frisch({desc.name or 'identity'}, r={r}, s={s}, {direction})",
        validity=ValidityPredicate(tuple(constraints)),
    )


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
    _no_one_plus(src, "klamkin")
    taken = {name for name, _ in src.params}
    r_aff, r_decl = _resolve_param(r, "rat", taken)
    s_aff, s_decl = _resolve_param(s, "int", taken | {d[0] for d in r_decl})

    def convert(side: Side) -> tuple[SumSpec, ...]:
        specs = []
        for b in side.blocks:
            a_exp, b_exp = b.x_exp, b.one_minus_exp
            term = prod(
                sign(b_exp),
                b.coef,
                af(r_aff + 1),
                quot(1, r_aff - a_exp + 1),
                ibinom(r_aff - a_exp, b_exp + s_aff),
            )
            specs.append(SumSpec(b.lo, b.hi, term))
        return tuple(specs)

    constraints = [RangeConstraint(s_aff, ">=", 0)]
    if isinstance(s, str):
        constraints.insert(0, IntegerValued(s_aff))
    return DerivedIdentity(
        params=src.params + r_decl + s_decl,
        lhs=convert(src.left),
        rhs=convert(src.right),
        provenance=f"klamkin({desc.name or 'identity'}, r={r}, s={s}, {direction})",
        validity=ValidityPredicate(tuple(constraints)),
    )


# -- moment transform ----------------------------------------------------------

def _plain_index_block(side: Side, what: str) -> KernelBlock:
    if len(side.blocks) != 1:
        raise ShapeError(f"moment transform needs a single-block {what} side")
    block = side.blocks[0]
    if block.x_exp != K or not block.one_minus_exp.is_zero() or not block.one_plus_exp.is_zero():
        raise ShapeError(f"moment transform needs the {what} side in plain x^k form")
    if not block.lo.base.is_zero() or block.lo.half or block.lo.cap is not None:
        raise ShapeError(f"moment transform needs the {what} side to start at k = 0")
    return block


def _reflected_index_block(side: Side, what: str) -> KernelBlock:
    if len(side.blocks) != 1:
        raise ShapeError(f"moment transform needs a single-block {what} side")
    block = side.blocks[0]
    if block.one_minus_exp != K or not block.x_exp.is_zero() or not block.one_plus_exp.is_zero():
        raise ShapeError(f"moment transform needs the {what} side in plain (1-x)^k form")
    if not block.lo.base.is_zero() or block.lo.half or block.lo.cap is not None:
        raise ShapeError(f"moment transform needs the {what} side to start at k = 0")
    return block


def moment_transform(
    desc: IdentityDescriptor, m: int, variant: str = "direct"
) -> DerivedIdentity:
    """Substitute ``x -> exp(x)``, differentiate m times, evaluate at 0.

    ``direct`` needs the left side in plain ``x^k`` form and yields
    ``sum k^m f(k) == sum g(k) * altpowsum(b(k), a(k), m)`` over the right
    blocks; when the right side is the plain ``(1-x)^k`` shape its range is
    capped at m (higher terms vanish).  ``reflected`` additionally homogenizes
    through ``x -> 1/x`` and produces the r-Stirling-weighted form; the
    ``swapped`` variants transpose the identity first.
    """
    if m < 0:
        raise ValueError(f"moment order must be non-negative, got {m}")
    if variant not in ("direct", "swapped", "reflected", "swapped_reflected"):
        raise ValueError(f"unknown variant {variant!r}")
    src = desc
    if variant in ("swapped", "swapped_reflected"):
        src = transpose_descriptor(desc)
    _no_one_plus(src, "moment")
    base_variant = "reflected" if variant.endswith("reflected") else "direct"

    left = _plain_index_block(src.left, "left")
    provenance = f"moment({desc.name or 'identity'}, m={m}, {variant})"

    if base_variant == "direct":
        lhs = (SumSpec(left.lo, left.hi, prod(power(K, m), left.coef)),)
        rhs_specs = []
        for b in src.right.blocks:
            term = prod(b.coef, altpowsum(b.one_minus_exp, b.x_exp, m))
            hi = b.hi
            plain_shape = b.one_minus_exp == K and b.x_exp.is_zero() and b.lo.base.is_zero()
            if plain_shape and not b.hi.half and b.hi.cap is None:
                hi = Bound(Affine.of(m), cap=b.hi.base)
            rhs_specs.append(SumSpec(b.lo, hi, term))
        return DerivedIdentity(src.params, lhs, tuple(rhs_specs), provenance)

    # reflected: both sides must have the plain index shape with a shared range
    right = _reflected_index_block(src.right, "right")
    if left.hi != right.hi:
        raise ShapeError("moment transform needs matching summation ranges on both sides")
    if left.hi.half or left.hi.cap is not None:
        raise ShapeError("moment transform needs a plain affine upper bound")
    top = left.hi.base
    lhs = (SumSpec(left.lo, left.hi, prod(power(K, m), substitute_index(left.coef, top - K))),)
    rhs = (
        SumSpec(
            right.lo,
            Bound(Affine.of(m), cap=top),
            prod(sign(K), altpowsum(K, top - K, m), right.coef),
        ),
    )
    return DerivedIdentity(src.params, lhs, rhs, provenance)


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
      maximal total kernel degree.
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
                prod(sign(block.one_minus_exp), block.coef),
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

@dataclass(frozen=True)
class MatchReport:
    ok: bool
    checked: int
    factors: tuple[Fraction, ...]
    detail: str = ""


def match_against_entry(
    derived: DerivedIdentity, entry_id: str, grid: Mapping | None = None
) -> MatchReport:
    """Compare a derived identity against a catalog entry on a shared grid.

    Both identities must verify and agree up to one common nonzero factor per
    binding (a derivation may carry both sides by (-1)^n or a parameter
    shift), so a binding where exactly one of them is 0 is a mismatch.
    Returns the set of factors seen so callers can insist on exact
    reproduction.  Only summation entries can be matched: an entry with x
    kernels raises :class:`ShapeError`.
    """
    from .catalog import get_entry, iter_grid

    entry = get_entry(entry_id)
    desc = entry.descriptor
    if not desc.kernel_free:
        raise ShapeError(f"entry {entry_id} is a polynomial identity in x, not a summation identity")
    bindings = list(iter_grid(grid or entry.default_grid))
    factors: set[Fraction] = set()
    checked = 0
    for binding in bindings:
        derived_result = check_derived(derived, binding)
        if derived_result.status in (SKIPPED_POLE, SKIPPED_PRECONDITION):
            continue
        if derived_result.status == FAILED:
            return MatchReport(False, checked, (), f"derived identity fails at {format_binding(binding)}")
        try:
            cat_lhs = eval_side(desc, "left", binding)
            cat_rhs = eval_side(desc, "right", binding)
        except (PoleError, PreconditionError):
            continue
        if cat_lhs != cat_rhs:
            return MatchReport(False, checked, (), f"entry {entry_id} fails at {format_binding(binding)}")
        der_lhs = derived_result.lhs
        if (cat_lhs == 0) != (der_lhs == 0):
            return MatchReport(
                False, checked, (), f"sides disagree at {format_binding(binding)}"
            )
        if der_lhs != 0:
            factors.add(cat_lhs / der_lhs)
        checked += 1
    if checked == 0:
        return MatchReport(False, 0, (), "no comparable bindings")
    return MatchReport(True, checked, tuple(sorted(set(factors))))
