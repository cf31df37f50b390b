"""Executable fixtures for the identity catalog, plus grid verification.

Every entry pins one identity as a two-sided :class:`IdentityDescriptor`.  The
F fixtures and the two seed identities are polynomial identities in x; every
other entry is a summation identity, whose blocks are kernel-free (``x^0``)
and whose closed forms are one-term ``k=0..0`` blocks.  Entries carry a
validity predicate, a human anchor naming the classical identity they
reproduce, and a default verification grid.

Anchors use the conventional names (Frisch, Klamkin, Simons, Dixon, MacMahon,
Waring, Rockett) so reports stay traceable without any external numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Mapping, Sequence

from .affine import Affine, Bound
from .descriptors import (
    FAILED,
    SKIPPED_POLE,
    SKIPPED_PRECONDITION,
    VERIFIED,
    CheckResult,
    IdentityDescriptor,
    IntegerValued,
    KernelBlock,
    RangeConstraint,
    Side,
    ValidityPredicate,
    check_two_sided,
)
from .errors import EmptyGridError, UnboundParameterError, UnknownEntryError
from .terms import (
    TermExpr,
    af,
    altpowsum,
    binom,
    const,
    ibinom,
    power,
    prod,
    quot,
    sign,
    tsum,
)

K = Affine.var("k")
N = Affine.var("n")
M = Affine.var("m")
R = Affine.var("r")
S = Affine.var("s")
T = Affine.var("t")
U = Affine.var("u")

ZERO = Bound.of(0)


def _b(value) -> Bound:
    return Bound.of(value)


GridSpec = Mapping[str, Sequence[Fraction]]


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str
    anchor: str
    default_grid: dict[str, tuple[Fraction, ...]]
    descriptor: IdentityDescriptor
    validity: ValidityPredicate = field(default_factory=ValidityPredicate)

    @property
    def params(self) -> tuple[tuple[str, str], ...]:
        return self.descriptor.params


_REGISTRY: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> CatalogEntry:
    if entry.id in _REGISTRY:
        raise ValueError(f"duplicate catalog id {entry.id}")
    _REGISTRY[entry.id] = entry
    return entry


def _sum_entry(
    id: str,
    title: str,
    anchor: str,
    params: tuple[tuple[str, str], ...],
    default_grid: dict[str, tuple[Fraction, ...]],
    left: tuple[KernelBlock, ...],
    right: tuple[KernelBlock, ...],
    validity: ValidityPredicate = ValidityPredicate(),
) -> CatalogEntry:
    """Register a summation identity given by its kernel-free blocks."""
    descriptor = IdentityDescriptor(params, Side(left), Side(right), name=id)
    return _register(CatalogEntry(id, title, anchor, default_grid, descriptor, validity))


def _closed(term: TermExpr) -> tuple[KernelBlock, ...]:
    """A k-free closed form as a side: the single term k = 0."""
    return (KernelBlock(ZERO, ZERO, term),)


def entry_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)

def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise UnknownEntryError(entry_id) from None


# -- verification -----------------------------------------------------------

def verify_entry(entry_id: str, binding: Mapping[str, Fraction]) -> CheckResult:
    """Check one binding of one entry; errors are reified into the status."""
    entry = get_entry(entry_id)
    try:
        return check_two_sided(entry.descriptor, binding, entry.validity)
    except UnboundParameterError as exc:
        raise UnboundParameterError(f"entry {entry.id} needs parameter {exc.args[0]}") from None


@dataclass(frozen=True)
class GridReport:
    entry_id: str
    counts: dict[str, int]
    witnesses: tuple[CheckResult, ...]
    total: int

    @property
    def failed(self) -> int:
        return self.counts.get(FAILED, 0)

    @property
    def verified(self) -> int:
        return self.counts.get(VERIFIED, 0)

    @staticmethod
    def tally(
        entry_id: str, results: Iterable[CheckResult], max_witnesses: int = 10
    ) -> "GridReport":
        """Count statuses and keep the first ``max_witnesses`` failures."""
        counts = {VERIFIED: 0, FAILED: 0, SKIPPED_POLE: 0, SKIPPED_PRECONDITION: 0}
        witnesses = []
        for result in results:
            counts[result.status] += 1
            if result.status == FAILED and len(witnesses) < max_witnesses:
                witnesses.append(result)
        return GridReport(entry_id, counts, tuple(witnesses), sum(counts.values()))


def iter_grid(grid: GridSpec) -> Iterable[dict[str, Fraction]]:
    """Every binding of ``grid``: the product of its axes, names in sorted order."""
    names = sorted(grid)
    values = [tuple(Fraction(v) for v in grid[name]) for name in names]
    if not names or any(len(v) == 0 for v in values):
        raise EmptyGridError(f"grid over {names} has no bindings")
    for combo in iter_product(*values):
        yield dict(zip(names, combo))


def sorted_bindings(grid: GridSpec) -> Iterable[dict[str, Fraction]]:
    """The bindings of ``grid`` ordered by value, axis by axis in name order.

    That order is the product of the sorted axes, so no binding is compared.
    """
    return iter_grid({name: sorted(Fraction(v) for v in values) for name, values in grid.items()})


def verify_grid(
    entry_id: str,
    grid: GridSpec | None = None,
    max_witnesses: int = 10,
) -> GridReport:
    """Exhaustive deterministic sweep of one entry over a binding grid."""
    entry = get_entry(entry_id)
    bindings = sorted_bindings(grid or entry.default_grid)
    results = (verify_entry(entry_id, b) for b in bindings)
    return GridReport.tally(entry.id, results, max_witnesses)


# -- grid shorthands ---------------------------------------------------------

def _grid(**axes) -> dict[str, tuple[Fraction, ...]]:
    return {name: tuple(Fraction(v) for v in values) for name, values in axes.items()}


N0_10 = tuple(range(11))
N0_8 = tuple(range(9))
N0_6 = tuple(range(7))

_H = Fraction(1, 2)


def _v(*constraints) -> ValidityPredicate:
    return ValidityPredicate(tuple(constraints))


_S_POSITIVE = RangeConstraint(S, ">=", 1)
_S_NONNEG = RangeConstraint(S, ">=", 0)


# -- the two seed polynomial identities --------------------------------------

# sum C(n,k) binom(k+r,s)^-1 x^k
#   == sum (-1)^k (s/(k+s)) C(n,k) binom(k+r,k+s)^-1 x^k (1+x)^(n-k)
_POLY1 = IdentityDescriptor(
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    left=Side((KernelBlock(ZERO, _b(N), prod(binom(N, K), ibinom(K + R, S)), x_exp=K),)),
    right=Side(
        (
            KernelBlock(
                ZERO,
                _b(N),
                prod(sign(K), quot(S, K + S), binom(N, K), ibinom(K + R, K + S)),
                x_exp=K,
                one_plus_exp=N - K,
            ),
        )
    ),
    name="C01",
)

# sum C(n,k) binom(r,k+s)^-1 x^k
#   == sum (-1)^(n-k) ((r+1)/(r-k+1)) C(n,k) binom(r-k,r-s-n)^-1 (1-x)^(n-k)
_POLY2 = IdentityDescriptor(
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    left=Side((KernelBlock(ZERO, _b(N), prod(binom(N, K), ibinom(R, K + S)), x_exp=K),)),
    right=Side(
        (
            KernelBlock(
                ZERO,
                _b(N),
                prod(
                    sign(N - K),
                    quot(R + 1, R - K + 1),
                    binom(N, K),
                    ibinom(R - K, R - S - N),
                ),
                one_minus_exp=N - K,
            ),
        )
    ),
    name="C02",
)

_register(
    CatalogEntry(
        id="C01",
        title="binomial-weighted expansion with inverse binomials",
        anchor="seed polynomial identity (specializes to Frisch at x = -1)",
        default_grid=_grid(n=N0_8, r=[1, 2, 3, 4, 5, 6, _H + 3, Fraction(5, 3)], s=[1, 2, 3, 4]),
        validity=_v(IntegerValued(S), _S_POSITIVE),
        descriptor=_POLY1,
    )
)

_register(
    CatalogEntry(
        id="C02",
        title="reflected expansion with inverse binomials",
        anchor="seed polynomial identity (specializes to Klamkin at x = 1)",
        default_grid=_grid(n=N0_8, r=[8, 10, 12, Fraction(25, 2)], s=[0, 1, 2]),
        validity=_v(IntegerValued(S), _S_NONNEG),
        descriptor=_POLY2,
    )
)


# -- Frisch / Klamkin and direct consequences --------------------------------

_sum_entry(
    id="C03",
    title="alternating inverse-binomial sum",
    anchor="Frisch's identity",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_10, r=[1, 2, 3, 4, 5, 6, Fraction(3, 2), Fraction(8, 3)], s=[1, 2, 3, 4, 5]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(KernelBlock(ZERO, _b(N), prod(sign(K), binom(N, K), ibinom(K + R, S))),),
    right=_closed(prod(quot(S, N + S), ibinom(N + R, N + S))),
)

_sum_entry(
    id="C04",
    title="plain inverse-binomial sum",
    anchor="Klamkin's identity",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_10, r=[13, 15, Fraction(25, 2), Fraction(47, 3)], s=[0, 1, 2]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(KernelBlock(ZERO, _b(N), prod(binom(N, K), ibinom(R, K + S))),),
    right=_closed(prod(quot(R + 1, R - N + 1), ibinom(R - N, S))),
)

_sum_entry(
    id="C05",
    title="generalized Frisch, plain orientation",
    anchor="generalization of Frisch's identity",
    params=(("n", "nat"), ("r", "rat"), ("s", "int"), ("u", "rat")),
    default_grid=_grid(n=N0_8, r=[2, 3, 4, 5, Fraction(9, 2)], s=[1, 2, 3], u=[-1, 0, 1, 3, Fraction(7, 2), Fraction(-5, 3)]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(KernelBlock(ZERO, _b(N), prod(binom(N, K), binom(U, N - K), ibinom(K + R, S))),),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(sign(K), quot(S, K + S), binom(N, K), binom(U + N - K, N - K), ibinom(K + R, K + S)),
        ),
    ),
)

_sum_entry(
    id="C06",
    title="generalized Frisch, alternating orientation",
    anchor="generalization of Frisch's identity",
    params=(("n", "nat"), ("r", "rat"), ("s", "int"), ("u", "rat")),
    default_grid=_grid(n=N0_8, r=[2, 3, 4, 5, Fraction(9, 2)], s=[1, 2, 3], u=[-1, 0, 1, 3, Fraction(7, 2), Fraction(-5, 3)]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(sign(K), binom(N, K), binom(U + N - K, N - K), ibinom(K + R, S))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(quot(S, K + S), binom(N, K), binom(U, N - K), ibinom(K + R, K + S)),
        ),
    ),
)

_sum_entry(
    id="C07",
    title="alternating inverse-binomial transform",
    anchor="binomial transform of Frisch's identity",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_10, r=[1, 2, 3, 4, 5, Fraction(7, 2)], s=[1, 2, 3, 4]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(
        KernelBlock(ZERO, _b(N), prod(sign(K), quot(1, K + S), binom(N, K), ibinom(K + R, K + S))),
    ),
    right=_closed(prod(quot(1, S), ibinom(N + R, S))),
)

_sum_entry(
    id="C08",
    title="harmonic-style alternating binomial sum",
    anchor="equal-index case of the Frisch binomial transform",
    params=(("n", "nat"), ("r", "int")),
    default_grid=_grid(n=N0_10, r=[1, 2, 3, 4, 5, 6]),
    validity=_v(IntegerValued(R), RangeConstraint(R, ">=", 1)),
    left=(KernelBlock(ZERO, _b(N), prod(sign(K), quot(1, K + R), binom(N, K))),),
    right=_closed(prod(quot(1, R), ibinom(N + R, R))),
)

_sum_entry(
    id="C09",
    title="alternating reflected inverse-binomial sum",
    anchor="x = 0 evaluation of the reflected seed identity",
    params=(("n", "nat"), ("r", "int"), ("s", "int")),
    default_grid=_grid(n=N0_8, r=[10, 12, 14], s=[0, 1, 2]),
    validity=_v(IntegerValued(S), _S_NONNEG, IntegerValued(R)),
    left=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(sign(K), quot(1, R - K + 1), binom(N, K), ibinom(R - K, R - S - N)),
        ),
    ),
    right=_closed(prod(sign(N), quot(1, R + 1), ibinom(R, S))),
)

_sum_entry(
    id="C10",
    title="Frisch-type transform of the Simons identity",
    anchor="Simons' identity, Frisch-type consequence",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_8, r=[1, 2, 3, 4, Fraction(5, 2)], s=[1, 2, 3]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(
        KernelBlock(ZERO, _b(N), prod(sign(K), binom(N, K), binom(N + K, K), ibinom(K + R, S))),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                sign(N - K),
                quot(S, K + S),
                binom(N, K),
                binom(N + K, K),
                ibinom(K + R, K + S),
            ),
        ),
    ),
)


# -- two-denominator Frisch-type family --------------------------------------

_sum_entry(
    id="C11",
    title="two-denominator Frisch-type identity",
    anchor="Frisch-type identity with two inverse binomials",
    params=(("n", "nat"), ("r", "rat"), ("s", "int"), ("t", "rat"), ("u", "int")),
    default_grid=_grid(n=N0_6, r=[2, 3, Fraction(9, 2)], s=[1, 2], t=[3, 4, Fraction(11, 2)], u=[1, 2]),
    validity=_v(IntegerValued(S), _S_POSITIVE, IntegerValued(U), RangeConstraint(U, ">=", 1)),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(sign(K), binom(N, K), ibinom(K + R, S), ibinom(K + T, U))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                af(S),
                af(U),
                quot(1, K + S),
                quot(1, N - K + U),
                binom(N, K),
                ibinom(K + R, K + S),
                ibinom(N + T, N - K + U),
            ),
        ),
    ),
)

_sum_entry(
    id="C12",
    title="squared-denominator Frisch-type identity",
    anchor="Frisch-type identity with a squared inverse binomial",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_6, r=[2, 3, 4, Fraction(7, 2)], s=[1, 2]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(sign(K), binom(N, K), ibinom(K + R, S), ibinom(K + R, S))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                power(S, 2),
                quot(1, K + S),
                quot(1, N - K + S),
                binom(N, K),
                ibinom(K + R, K + S),
                ibinom(N + R, N - K + S),
            ),
        ),
    ),
)

_sum_entry(
    id="C13",
    title="equal-index squared-denominator identity",
    anchor="Frisch-type identity with a squared inverse binomial, equal indices",
    params=(("n", "nat"), ("r", "int")),
    default_grid=_grid(n=N0_6, r=[1, 2, 3, 4]),
    validity=_v(IntegerValued(R), RangeConstraint(R, ">=", 1)),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(sign(K), binom(N, K), ibinom(K + R, R), ibinom(K + R, R))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                power(R, 2),
                quot(1, K + R),
                quot(1, N - K + R),
                binom(N, K),
                ibinom(N + R, N - K + R),
            ),
        ),
    ),
)


# -- Klamkin-type family ------------------------------------------------------

_sum_entry(
    id="C14",
    title="two-denominator Klamkin-type identity, plain orientation",
    anchor="Klamkin-type identity with two inverse binomials",
    params=(("n", "nat"), ("r", "rat"), ("s", "int"), ("t", "int"), ("u", "int")),
    default_grid=_grid(n=N0_6, r=[9, 10, Fraction(21, 2)], s=[1, 2], t=[8, 9], u=[1, 2]),
    validity=_v(
        IntegerValued(S), _S_NONNEG, IntegerValued(T), IntegerValued(U), RangeConstraint(U, ">=", 0)
    ),
    left=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                quot(1, T - K + 1),
                binom(N, K),
                ibinom(T - K, T - U - N),
                ibinom(R, N - K + S),
            ),
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                quot(R + 1, T + 1),
                quot(1, R - K + 1),
                binom(N, K),
                ibinom(T, K + U),
                ibinom(R - K, S),
            ),
        ),
    ),
)

_sum_entry(
    id="C15",
    title="two-denominator Klamkin-type identity, alternating orientation",
    anchor="Klamkin-type identity with two inverse binomials",
    params=(("n", "nat"), ("r", "rat"), ("s", "int"), ("t", "int"), ("u", "int")),
    default_grid=_grid(n=N0_6, r=[9, 10, Fraction(21, 2)], s=[1, 2], t=[8, 9], u=[1, 2]),
    validity=_v(
        IntegerValued(S), _S_NONNEG, IntegerValued(T), IntegerValued(U), RangeConstraint(U, ">=", 0)
    ),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(sign(K), binom(N, K), ibinom(T, K + U), ibinom(R, K + S))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                af(R + 1),
                af(T + 1),
                sign(N - K),
                quot(1, T - K + 1),
                quot(1, R - N + K + 1),
                binom(N, K),
                ibinom(T - K, T - U - N),
                ibinom(R - N + K, S),
            ),
        ),
    ),
)

_sum_entry(
    id="C16",
    title="squared-denominator Klamkin-type identity",
    anchor="Klamkin-type identity with a squared inverse binomial",
    params=(("n", "nat"), ("r", "int"), ("s", "int")),
    default_grid=_grid(n=N0_6, r=[10, 12], s=[1, 2]),
    validity=_v(IntegerValued(S), _S_NONNEG, IntegerValued(R)),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(sign(K), binom(N, K), ibinom(R, K + S), ibinom(R, K + S))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                power(R + 1, 2),
                quot(1, R - S - N + 1),
                quot(1, S + 1),
                sign(N - K),
                binom(N, K),
                ibinom(R - K + 1, R - S - N + 1),
                ibinom(R - N + K + 1, S + 1),
            ),
        ),
    ),
)

_sum_entry(
    id="C17",
    title="Klamkin-type transform of the Simons identity",
    anchor="Simons' identity, Klamkin-type consequence",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_8, r=[12, 14, Fraction(29, 2)], s=[0, 1, 2]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(
        KernelBlock(ZERO, _b(N), prod(binom(N, K), binom(N + K, K), ibinom(R, K + S))),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                af(R + 1),
                sign(N),
                sign(K),
                quot(1, R - K + 1),
                binom(N, K),
                binom(N + K, K),
                ibinom(R - K, S),
            ),
        ),
    ),
)

_sum_entry(
    id="C18",
    title="generalized Klamkin, plain orientation",
    anchor="generalization of Klamkin's identity",
    params=(("n", "nat"), ("r", "rat"), ("s", "int"), ("u", "rat")),
    default_grid=_grid(n=N0_8, r=[12, 14, Fraction(29, 2)], s=[0, 1], u=[0, 1, 2, Fraction(5, 2), Fraction(-4, 3)]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(binom(N, K), binom(U + N - K, N - K), ibinom(R, K + S))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                af(R + 1),
                quot(1, R - K + 1),
                binom(N, K),
                binom(U, N - K),
                ibinom(R - K, S),
            ),
        ),
    ),
)

_sum_entry(
    id="C19",
    title="generalized Klamkin, alternating orientation",
    anchor="generalization of Klamkin's identity",
    params=(("n", "nat"), ("r", "rat"), ("s", "int"), ("u", "rat")),
    default_grid=_grid(n=N0_8, r=[12, 14, Fraction(29, 2)], s=[0, 1], u=[0, 1, 2, Fraction(5, 2), Fraction(-4, 3)]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(sign(K), binom(N, K), binom(U, N - K), ibinom(R, K + S))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(
                af(R + 1),
                sign(K),
                quot(1, R - K + 1),
                binom(N, K),
                binom(U + N - K, N - K),
                ibinom(R - K, S),
            ),
        ),
    ),
)


# -- moment extensions --------------------------------------------------------

_sum_entry(
    id="C20",
    title="moment extension of the Frisch sum",
    anchor="extension of Frisch's identity",
    params=(("n", "nat"), ("m", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_8, m=[0, 1, 2, 3, 4], r=[2, 3, 4, Fraction(9, 2)], s=[1, 2]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(sign(K), power(K, M), binom(N, K), ibinom(K + R, S))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            Bound(M, cap=N),
            prod(
                af(S),
                quot(1, N - K + S),
                altpowsum(K, N - K, M),
                binom(N, K),
                ibinom(N - K + R, N - K + S),
            ),
        ),
    ),
)

_sum_entry(
    id="C21",
    title="first moment of the Frisch sum",
    anchor="extension of Frisch's identity, first moment",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_8, r=[2, 3, 4, 5, Fraction(9, 2)], s=[1, 2, 3]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(
        KernelBlock(ZERO, _b(N), prod(sign(K), af(K), binom(N, K), ibinom(K + R, S))),
    ),
    right=_closed(
        prod(
            af(N), af(S), quot(1, N + R), quot(S - R - 1, N + S - 1), ibinom(N + R - 1, N + S - 1)
        )
    ),
)

_sum_entry(
    id="C22",
    title="second moment of the Frisch sum",
    anchor="extension of Frisch's identity, second moment",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_8, r=[2, 3, 4, 5, Fraction(9, 2)], s=[1, 2, 3]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(
        KernelBlock(ZERO, _b(N), prod(sign(K), power(K, 2), binom(N, K), ibinom(K + R, S))),
    ),
    right=_closed(
        prod(
            af(N),
            af(S),
            quot(1, N + R),
            quot(R - S + 1, R + N - 1),
            tsum(prod(af(N), af(R - S + 1)), prod(const(-1), af(R))),
            quot(1, N + S - 2),
            ibinom(N + R - 2, N + S - 2),
        )
    ),
)

_sum_entry(
    id="C23",
    title="first moment, equal indices",
    anchor="extension of Frisch's identity, first moment at equal indices",
    params=(("n", "nat"), ("r", "int")),
    default_grid=_grid(n=N0_8, r=[1, 2, 3, 4]),
    validity=_v(IntegerValued(R), RangeConstraint(R, ">=", 1)),
    left=(
        KernelBlock(ZERO, _b(N), prod(sign(K), af(K), binom(N, K), ibinom(K + R, R))),
    ),
    right=_closed(prod(const(-1), af(N), af(R), quot(1, N + R - 1), quot(1, N + R))),
)

_sum_entry(
    id="C24",
    title="second moment, equal indices",
    anchor="extension of Frisch's identity, second moment at equal indices",
    params=(("n", "nat"), ("r", "int")),
    default_grid=_grid(n=N0_8, r=[1, 2, 3, 4]),
    validity=_v(IntegerValued(R), RangeConstraint(R, ">=", 1)),
    left=(
        KernelBlock(ZERO, _b(N), prod(sign(K), power(K, 2), binom(N, K), ibinom(K + R, R))),
    ),
    right=_closed(
        prod(
            af(N), af(R), af(N - R), quot(1, N + R), quot(1, N + R - 1), quot(1, N + R - 2)
        )
    ),
)

_sum_entry(
    id="C25",
    title="moment extension of the Klamkin sum",
    anchor="extension of Klamkin's identity",
    params=(("n", "nat"), ("m", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_8, m=[0, 1, 2, 3, 4], r=[13, 15, Fraction(29, 2)], s=[0, 1, 2]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(
        KernelBlock(ZERO, _b(N), prod(power(K, M), binom(N, K), ibinom(R, K + S))),
    ),
    right=(
        KernelBlock(
            ZERO,
            Bound(M, cap=N),
            prod(
                af(R + 1),
                sign(K),
                altpowsum(K, 0, M),
                quot(1, R - N + K + 1),
                binom(N, K),
                ibinom(K + R - N, K + S),
            ),
        ),
    ),
)

_sum_entry(
    id="C26",
    title="first moment of the Klamkin sum",
    anchor="extension of Klamkin's identity, first moment",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_8, r=[13, 15, Fraction(29, 2)], s=[0, 1, 2]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(
        KernelBlock(ZERO, _b(N), prod(af(K), binom(N, K), ibinom(R, K + S))),
    ),
    right=_closed(prod(af(N), af(R + 1), quot(1, R - N + 2), ibinom(R - N + 1, S + 1))),
)

_sum_entry(
    id="C27",
    title="second moment of the Klamkin sum",
    anchor="extension of Klamkin's identity, second moment",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_8, r=[13, 15, Fraction(29, 2)], s=[0, 1, 2]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(
        KernelBlock(ZERO, _b(N), prod(power(K, 2), binom(N, K), ibinom(R, K + S))),
    ),
    right=_closed(
        prod(
            af(R + 1),
            af(N),
            tsum(prod(af(N), af(S + 1)), af(R - S + 1)),
            quot(1, N - R - 2),
            quot(1, N - R - 3),
            ibinom(R - N + 1, S + 1),
        )
    ),
)


# -- geometric, Waring, MacMahon ----------------------------------------------

_sum_entry(
    id="C28",
    title="inverse-binomial geometric sum",
    anchor="geometric progression (equal-index case due to Rockett)",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_10, r=[2, 3, 4, 5, 6, Fraction(9, 2), Fraction(14, 3)], s=[2, 3, 4]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(KernelBlock(ZERO, _b(N), ibinom(K + R, S)),),
    right=_closed(
        prod(
            quot(S, S - 1),
            tsum(ibinom(R - 1, S - 1), prod(const(-1), ibinom(N + R, S - 1))),
        )
    ),
)

_sum_entry(
    id="C29",
    title="alternating inverse-binomial geometric sum",
    anchor="alternating geometric progression",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_10, r=[12, 14, Fraction(25, 2)], s=[0, 1, 2]),
    validity=_v(IntegerValued(S), _S_NONNEG),
    left=(KernelBlock(ZERO, _b(N), prod(sign(K), ibinom(R, K + S))),),
    right=_closed(
        tsum(
            prod(quot(R + 1, S + 1), ibinom(R + 2, S + 1)),
            prod(sign(N), quot(R + 1, N + S + 2), ibinom(R + 2, N + S + 2)),
        )
    ),
)

_sum_entry(
    id="C30",
    title="power-sum identity with inverse binomials",
    anchor="Waring's formula at y = 1 - x",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_10, r=[1, 2, 3, 4, 5, Fraction(7, 2)], s=[1, 2, 3]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(
        KernelBlock(
            ZERO,
            Bound(N, half=True),
            prod(sign(K), quot(N, N - K), quot(1, K + S), binom(N - K, K), ibinom(2 * K + R, K + S)),
        ),
    ),
    right=_closed(
        tsum(
            prod(quot(1, S), ibinom(N + R, S)),
            prod(quot(1, N + S), ibinom(N + R, N + S)),
        )
    ),
)

_sum_entry(
    id="C31",
    title="cubed-binomial sum with an inverse binomial",
    anchor="MacMahon's identity, Frisch-type consequence",
    params=(("n", "nat"), ("r", "rat"), ("s", "int")),
    default_grid=_grid(n=N0_8, r=[1, 2, 3, 4, Fraction(9, 2)], s=[1, 2, 3]),
    validity=_v(IntegerValued(S), _S_POSITIVE),
    left=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(sign(K), binom(N, K), binom(N, K), binom(N, K), ibinom(K + R, S)),
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            Bound(N, half=True),
            prod(
                sign(K),
                af(S),
                quot(1, N - 2 * K + S),
                binom(N + K, 2 * K),
                binom(2 * K, K),
                binom(N - K, K),
                ibinom(N + R - K, N - 2 * K + S),
            ),
        ),
    ),
)


# -- Dixon complements ---------------------------------------------------------

_sum_entry(
    id="C32",
    title="moment-weighted cubed-binomial sum",
    anchor="Dixon complement, general moment",
    params=(("n", "nat"), ("m", "nat")),
    default_grid=_grid(n=[0, 1, 2, 3, 4, 5], m=[1, 2, 3, 4]),
    validity=_v(RangeConstraint(M, ">=", 1)),
    left=(
        KernelBlock(
            ZERO,
            _b(2 * N),
            prod(sign(K), power(K, M), binom(2 * N, K), binom(2 * N, K), binom(2 * N, K)),
        ),
    ),
    right=(
        KernelBlock(
            Bound(N - M + 1),
            _b(N),
            prod(
                sign(K),
                binom(2 * N + K, 2 * K),
                binom(2 * K, K),
                binom(2 * N - K, K),
                altpowsum(2 * N - 2 * K, K, M),
            ),
        ),
    ),
)

_sum_entry(
    id="C33",
    title="first-moment Dixon complement",
    anchor="Dixon complement, first moment",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_6),
    left=(
        KernelBlock(
            ZERO,
            _b(2 * N),
            prod(sign(K), af(K), binom(2 * N, K), binom(2 * N, K), binom(2 * N, K)),
        ),
    ),
    right=_closed(prod(sign(N), af(N), binom(2 * N, N), binom(3 * N, N))),
)

_sum_entry(
    id="C34",
    title="second-moment Dixon complement",
    anchor="Dixon complement, second moment",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_6),
    left=(
        KernelBlock(
            ZERO,
            _b(2 * N),
            prod(sign(K), power(K, 2), binom(2 * N, K), binom(2 * N, K), binom(2 * N, K)),
        ),
    ),
    right=_closed(prod(sign(N), const(2, 3), power(N, 2), binom(2 * N, N), binom(3 * N, N))),
)


_sum_entry(
    id="C35",
    title="alternating cubed-binomial sum",
    anchor="Dixon's identity, original form",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_10),
    left=(
        KernelBlock(ZERO, _b(N), prod(sign(K), binom(N, K), binom(N, K), binom(N, K))),
    ),
    # the closed form as a floor-bounded sum: empty for odd n, the single term
    # (-1)^j binom(2j, j) binom(3j, 2j) at k = j for n = 2j
    right=(
        KernelBlock(
            Bound(N + 1, half=True),
            Bound(N, half=True),
            prod(sign(K), binom(N, K), binom(N + K, N)),
        ),
    ),
)

_sum_entry(
    id="C36",
    title="alternating cubed-binomial sum, even order",
    anchor="Dixon's identity, doubled order",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_8),
    left=(
        KernelBlock(
            ZERO, _b(2 * N), prod(sign(K), binom(2 * N, K), binom(2 * N, K), binom(2 * N, K))
        ),
    ),
    right=_closed(prod(sign(N), binom(2 * N, N), binom(3 * N, N))),
)


# -- Simons moment families -----------------------------------------------------

_sum_entry(
    id="C37",
    title="Simons moment family, plain reflection",
    anchor="Simons' identity, moment transform",
    params=(("n", "nat"), ("m", "nat")),
    default_grid=_grid(n=N0_8, m=[0, 1, 2, 3, 4, 5]),
    left=(
        KernelBlock(
            ZERO, _b(N), prod(sign(K), power(K, M), binom(N, K), binom(N + K, K))
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(M),
            prod(sign(N), sign(K), altpowsum(K, 0, M), binom(N, K), binom(N + K, K)),
        ),
    ),
)

_sum_entry(
    id="C38",
    title="Simons moment family, index reflection",
    anchor="Simons' identity, reflected moment transform",
    params=(("n", "nat"), ("m", "nat")),
    default_grid=_grid(n=N0_8, m=[0, 1, 2, 3, 4, 5]),
    left=(
        KernelBlock(
            ZERO,
            _b(N),
            prod(sign(K), power(K, M), binom(N, K), binom(2 * N - K, N - K)),
        ),
    ),
    right=(
        KernelBlock(
            ZERO,
            _b(M),
            prod(altpowsum(K, N - K, M), binom(N, K), binom(N + K, K)),
        ),
    ),
)

def _simons_plain_lhs(mexp: int) -> KernelBlock:
    return KernelBlock(ZERO, _b(N), prod(sign(K), power(K, mexp), binom(N, K), binom(N + K, K)))


def _simons_reflected_lhs(mexp: int) -> KernelBlock:
    return KernelBlock(
        ZERO, _b(N), prod(sign(K), power(K, mexp), binom(N, K), binom(2 * N - K, N - K))
    )

_sum_entry(
    id="C39a",
    title="Simons moment, k weight",
    anchor="Simons' identity, first moment",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_10),
    left=(_simons_plain_lhs(1),),
    right=_closed(prod(sign(N), af(N), af(N + 1))),
)

_sum_entry(
    id="C39b",
    title="Simons moment, k^2 weight",
    anchor="Simons' identity, second moment",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_10),
    left=(_simons_plain_lhs(2),),
    right=_closed(prod(sign(N), const(1, 2), power(N, 2), power(N + 1, 2))),
)

_sum_entry(
    id="C39c",
    title="Simons moment, k^3 weight",
    anchor="Simons' identity, third moment",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_10),
    left=(_simons_plain_lhs(3),),
    right=_closed(
        prod(
            sign(N), const(1, 6), power(N, 2), power(N + 1, 2), tsum(power(N, 2), af(N + 1))
        )
    ),
)

_sum_entry(
    id="C40a",
    title="reflected Simons moment, k weight",
    anchor="Simons' identity, reflected first moment",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_10),
    left=(_simons_reflected_lhs(1),),
    right=_closed(prod(const(-1), power(N, 2))),
)

_sum_entry(
    id="C40b",
    title="reflected Simons moment, k^2 weight",
    anchor="Simons' identity, reflected second moment",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_10),
    left=(_simons_reflected_lhs(2),),
    right=_closed(
        prod(
            const(1, 2), power(N, 2), tsum(power(N, 2), prod(const(-2), af(N)), const(-1))
        )
    ),
)

_sum_entry(
    id="C40c",
    title="reflected Simons moment, k^3 weight",
    anchor="Simons' identity, reflected third moment",
    params=(("n", "nat"),),
    default_grid=_grid(n=N0_10),
    left=(_simons_reflected_lhs(3),),
    right=_closed(
        prod(
            const(-1, 6),
            power(N, 2),
            tsum(
                power(N, 4),
                prod(const(-6), power(N, 3)),
                prod(const(4), power(N, 2)),
                prod(const(6), af(N)),
                const(1),
            ),
        )
    ),
)


# -- descriptor fixtures --------------------------------------------------------

GEOM_SUM = IdentityDescriptor(
    params=(("n", "nat"),),
    left=Side((KernelBlock(ZERO, _b(N), const(1), x_exp=K),)),
    right=Side(
        (KernelBlock(ZERO, _b(N), prod(sign(K), binom(N + 1, K + 1)), one_minus_exp=K),)
    ),
    name="F01",
)

SIMONS = IdentityDescriptor(
    params=(("n", "nat"),),
    left=Side(
        (KernelBlock(ZERO, _b(N), prod(sign(K), binom(N, K), binom(N + K, K)), x_exp=K),)
    ),
    right=Side(
        (
            KernelBlock(
                ZERO, _b(N), prod(sign(N - K), binom(N, K), binom(N + K, K)), one_minus_exp=K
            ),
        )
    ),
    name="F02",
)

GOULD = IdentityDescriptor(
    params=(("n", "nat"), ("u", "rat")),
    left=Side((KernelBlock(ZERO, _b(N), prod(binom(N, K), binom(U, K)), x_exp=N - K),)),
    right=Side(
        (
            KernelBlock(
                ZERO,
                _b(N),
                prod(sign(N - K), binom(N, K), binom(U + K, K)),
                one_minus_exp=N - K,
            ),
        )
    ),
    name="F03",
)

WARING = IdentityDescriptor(
    params=(("n", "nat"),),
    left=Side(
        (
            KernelBlock(
                ZERO,
                Bound(N, half=True),
                prod(sign(K), quot(N, N - K), binom(N - K, K)),
                x_exp=K,
                one_minus_exp=K,
            ),
        )
    ),
    right=Side(
        (
            KernelBlock(ZERO, ZERO, const(1), x_exp=N),
            KernelBlock(ZERO, ZERO, const(1), one_minus_exp=N),
        )
    ),
    name="F04",
)

MACMAHON = IdentityDescriptor(
    params=(("n", "nat"),),
    left=Side(
        (KernelBlock(ZERO, _b(N), prod(sign(K), binom(N, K), binom(N, K), binom(N, K)), x_exp=K),)
    ),
    right=Side(
        (
            KernelBlock(
                ZERO,
                Bound(N, half=True),
                prod(sign(K), binom(N + K, 2 * K), binom(2 * K, K), binom(N - K, K)),
                x_exp=K,
                one_minus_exp=N - 2 * K,
            ),
        )
    ),
    name="F05",
)

FIXTURES: dict[str, IdentityDescriptor] = {
    "F01": GEOM_SUM,
    "F02": SIMONS,
    "F03": GOULD,
    "F04": WARING,
    "F05": MACMAHON,
}

_register(
    CatalogEntry(
        id="F01",
        title="geometric sum as a two-sided identity",
        anchor="geometric progression",
        default_grid=_grid(n=N0_10),
        descriptor=GEOM_SUM,
    )
)

_register(
    CatalogEntry(
        id="F02",
        title="alternating double-binomial identity",
        anchor="Simons' identity",
        default_grid=_grid(n=N0_10),
        descriptor=SIMONS,
    )
)

_register(
    CatalogEntry(
        id="F03",
        title="upper-index shift identity",
        anchor="Gould's expansion at y = 1",
        default_grid=_grid(n=N0_8, u=[0, 1, 2, 3, Fraction(7, 3), Fraction(-3, 2)]),
        descriptor=GOULD,
    )
)

_register(
    CatalogEntry(
        id="F04",
        title="two-term power sum identity",
        anchor="Waring's formula at y = 1 - x",
        default_grid=_grid(n=tuple(range(1, 11))),
        descriptor=WARING,
    )
)

_register(
    CatalogEntry(
        id="F05",
        title="cubed-binomial kernel identity",
        anchor="MacMahon's identity",
        default_grid=_grid(n=N0_10),
        descriptor=MACMAHON,
    )
)


# -- export --------------------------------------------------------------------

def entry_to_dsl(entry: CatalogEntry) -> str:
    """Serialize one entry to identity source, with a titling comment."""
    from .dsl import print_identity

    header = f"# {entry.id}: {entry.title}\n# anchor: {entry.anchor}\n"
    return header + print_identity(entry.descriptor)


def export_catalog(directory) -> list[str]:
    """Write one .dsl file per entry; returns the file names written."""
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for entry_id in entry_ids():
        entry = get_entry(entry_id)
        path = out / f"{entry_id}.dsl"
        path.write_text(entry_to_dsl(entry), encoding="utf-8")
        written.append(path.name)
    return written


def macmahon_doubled() -> IdentityDescriptor:
    """MacMahon's identity with the order doubled (kernel (1-x)^(2(n-k)))."""
    return IdentityDescriptor(
        params=(("n", "nat"),),
        left=Side(
            (
                KernelBlock(
                    ZERO,
                    _b(2 * N),
                    prod(sign(K), binom(2 * N, K), binom(2 * N, K), binom(2 * N, K)),
                    x_exp=K,
                ),
            )
        ),
        right=Side(
            (
                KernelBlock(
                    ZERO,
                    _b(N),
                    prod(sign(K), binom(2 * N + K, 2 * K), binom(2 * K, K), binom(2 * N - K, K)),
                    x_exp=K,
                    one_minus_exp=2 * N - 2 * K,
                ),
            )
        ),
        name="F05-doubled",
    )
