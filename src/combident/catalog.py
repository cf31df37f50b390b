"""The identity catalog: one table of metadata over one source file per identity.

Every entry pins one identity as a two-sided :class:`IdentityDescriptor`,
written once, as identity source, in ``entries/<id>.dsl``.  The F fixtures
and the two seed identities are polynomial identities in x; every other
entry is a summation identity, whose blocks are kernel-free (``x^0``) and
whose closed forms are one-term ``k=0..0`` blocks.  The table gives each
entry a title, a human anchor naming the classical identity it reproduces, a
default verification grid in the ``--grid-*`` value syntax, and the lower
bounds of its validity region.  An entry's file is parsed the first time the
entry is asked for, and its default grid is built the first time it is read.

Anchors use the conventional names (Frisch, Klamkin, Simons, Dixon, MacMahon,
Waring, Rockett) so reports stay traceable without any external numbering.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .affine import Affine
from .descriptors import (
    CheckResult,
    GridReport,
    IdentityDescriptor,
    RangeConstraint,
    ValidityPredicate,
    check_grid,
    check_two_sided,
)
from .dsl import parse_identity
from .errors import DslSyntaxError, EmptyGridError, UnboundParameterError, UnknownEntryError
from .record import Record
from .terms import exact

GridSpec = Mapping[str, Sequence[Fraction]]

ENTRY_DIR = Path(__file__).with_name("entries")

# id -> (title, anchor, default grid, lower bounds), in catalog order.  A grid
# axis is ``lo..hi`` or a comma list such as ``1,2,7/2``; a lower bound
# ``{"s": 1}`` is the validity condition ``s >= 1``.
_TABLE: dict[str, tuple[str, str, dict[str, str], dict[str, int]]] = {
    # the two seed polynomial identities
    "C01": ("binomial-weighted expansion with inverse binomials",
            "seed polynomial identity (specializes to Frisch at x = -1)",
            {"n": "0..8", "r": "1,2,3,4,5,6,7/2,5/3", "s": "1..4"}, {"s": 1}),
    "C02": ("reflected expansion with inverse binomials",
            "seed polynomial identity (specializes to Klamkin at x = 1)",
            {"n": "0..8", "r": "8,10,12,25/2", "s": "0..2"}, {"s": 0}),

    # Frisch / Klamkin and direct consequences
    "C03": ("alternating inverse-binomial sum",
            "Frisch's identity",
            {"n": "0..10", "r": "1,2,3,4,5,6,3/2,8/3", "s": "1..5"}, {"s": 1}),
    "C04": ("plain inverse-binomial sum",
            "Klamkin's identity",
            {"n": "0..10", "r": "13,15,25/2,47/3", "s": "0..2"}, {"s": 0}),
    "C05": ("generalized Frisch, plain orientation",
            "generalization of Frisch's identity",
            {"n": "0..8", "r": "2,3,4,5,9/2", "s": "1..3", "u": "-1,0,1,3,7/2,-5/3"}, {"s": 0}),
    "C06": ("generalized Frisch, alternating orientation",
            "generalization of Frisch's identity",
            {"n": "0..8", "r": "2,3,4,5,9/2", "s": "1..3", "u": "-1,0,1,3,7/2,-5/3"}, {"s": 0}),
    "C07": ("alternating inverse-binomial transform",
            "binomial transform of Frisch's identity",
            {"n": "0..10", "r": "1,2,3,4,5,7/2", "s": "1..4"}, {"s": 1}),
    "C08": ("harmonic-style alternating binomial sum",
            "equal-index case of the Frisch binomial transform",
            {"n": "0..10", "r": "1..6"}, {"r": 1}),
    "C09": ("alternating reflected inverse-binomial sum",
            "x = 0 evaluation of the reflected seed identity",
            {"n": "0..8", "r": "10,12,14", "s": "0..2"}, {"s": 0}),
    "C10": ("Frisch-type transform of the Simons identity",
            "Simons' identity, Frisch-type consequence",
            {"n": "0..8", "r": "1,2,3,4,5/2", "s": "1..3"}, {"s": 1}),

    # two-denominator Frisch-type family
    "C11": ("two-denominator Frisch-type identity",
            "Frisch-type identity with two inverse binomials",
            {"n": "0..6", "r": "2,3,9/2", "s": "1,2", "t": "3,4,11/2", "u": "1,2"}, {"s": 1, "u": 1}),
    "C12": ("squared-denominator Frisch-type identity",
            "Frisch-type identity with a squared inverse binomial",
            {"n": "0..6", "r": "2,3,4,7/2", "s": "1,2"}, {"s": 1}),
    "C13": ("equal-index squared-denominator identity",
            "Frisch-type identity with a squared inverse binomial, equal indices",
            {"n": "0..6", "r": "1..4"}, {"r": 1}),

    # Klamkin-type family
    "C14": ("two-denominator Klamkin-type identity, plain orientation",
            "Klamkin-type identity with two inverse binomials",
            {"n": "0..6", "r": "9,10,21/2", "s": "1,2", "t": "8,9", "u": "1,2"}, {"s": 0, "u": 0}),
    "C15": ("two-denominator Klamkin-type identity, alternating orientation",
            "Klamkin-type identity with two inverse binomials",
            {"n": "0..6", "r": "9,10,21/2", "s": "1,2", "t": "8,9", "u": "1,2"}, {"s": 0, "u": 0}),
    "C16": ("squared-denominator Klamkin-type identity",
            "Klamkin-type identity with a squared inverse binomial",
            {"n": "0..6", "r": "10,12", "s": "1,2"}, {"s": 0}),
    "C17": ("Klamkin-type transform of the Simons identity",
            "Simons' identity, Klamkin-type consequence",
            {"n": "0..8", "r": "12,14,29/2", "s": "0..2"}, {"s": 0}),
    "C18": ("generalized Klamkin, plain orientation",
            "generalization of Klamkin's identity",
            {"n": "0..8", "r": "12,14,29/2", "s": "0,1", "u": "0,1,2,5/2,-4/3"}, {"s": 0}),
    "C19": ("generalized Klamkin, alternating orientation",
            "generalization of Klamkin's identity",
            {"n": "0..8", "r": "12,14,29/2", "s": "0,1", "u": "0,1,2,5/2,-4/3"}, {"s": 0}),

    # moment extensions
    "C20": ("moment extension of the Frisch sum",
            "extension of Frisch's identity",
            {"n": "0..8", "m": "0..4", "r": "2,3,4,9/2", "s": "1,2"}, {"s": 1}),
    "C21": ("first moment of the Frisch sum",
            "extension of Frisch's identity, first moment",
            {"n": "0..8", "r": "2,3,4,5,9/2", "s": "1..3"}, {"s": 1}),
    "C22": ("second moment of the Frisch sum",
            "extension of Frisch's identity, second moment",
            {"n": "0..8", "r": "2,3,4,5,9/2", "s": "1..3"}, {"s": 1}),
    "C23": ("first moment, equal indices",
            "extension of Frisch's identity, first moment at equal indices",
            {"n": "0..8", "r": "1..4"}, {"r": 1}),
    "C24": ("second moment, equal indices",
            "extension of Frisch's identity, second moment at equal indices",
            {"n": "0..8", "r": "1..4"}, {"r": 1}),
    "C25": ("moment extension of the Klamkin sum",
            "extension of Klamkin's identity",
            {"n": "0..8", "m": "0..4", "r": "13,15,29/2", "s": "0..2"}, {"s": 0}),
    "C26": ("first moment of the Klamkin sum",
            "extension of Klamkin's identity, first moment",
            {"n": "0..8", "r": "13,15,29/2", "s": "0..2"}, {"s": 0}),
    "C27": ("second moment of the Klamkin sum",
            "extension of Klamkin's identity, second moment",
            {"n": "0..8", "r": "13,15,29/2", "s": "0..2"}, {"s": 0}),

    # geometric, Waring, MacMahon
    "C28": ("inverse-binomial geometric sum",
            "geometric progression (equal-index case due to Rockett)",
            {"n": "0..10", "r": "2,3,4,5,6,9/2,14/3", "s": "2..4"}, {"s": 1}),
    "C29": ("alternating inverse-binomial geometric sum",
            "alternating geometric progression",
            {"n": "0..10", "r": "12,14,25/2", "s": "0..2"}, {"s": 0}),
    "C30": ("power-sum identity with inverse binomials",
            "Waring's formula at y = 1 - x",
            {"n": "0..10", "r": "1,2,3,4,5,7/2", "s": "1..3"}, {"s": 1}),
    "C31": ("cubed-binomial sum with an inverse binomial",
            "MacMahon's identity, Frisch-type consequence",
            {"n": "0..8", "r": "1,2,3,4,9/2", "s": "1..3"}, {"s": 1}),

    # Dixon complements
    "C32": ("moment-weighted cubed-binomial sum",
            "Dixon complement, general moment",
            {"n": "0..5", "m": "1..4"}, {"m": 1}),
    "C33": ("first-moment Dixon complement",
            "Dixon complement, first moment",
            {"n": "0..6"}, {}),
    "C34": ("second-moment Dixon complement",
            "Dixon complement, second moment",
            {"n": "0..6"}, {}),
    # the closed form is a floor-bounded sum: empty for odd n, the single term
    # (-1)^j binom(2j, j) binom(3j, 2j) at k = j for n = 2j
    "C35": ("alternating cubed-binomial sum",
            "Dixon's identity, original form",
            {"n": "0..10"}, {}),
    "C36": ("alternating cubed-binomial sum, even order",
            "Dixon's identity, doubled order",
            {"n": "0..8"}, {}),

    # Simons moment families
    "C37": ("Simons moment family, plain reflection",
            "Simons' identity, moment transform",
            {"n": "0..8", "m": "0..5"}, {}),
    "C38": ("Simons moment family, index reflection",
            "Simons' identity, reflected moment transform",
            {"n": "0..8", "m": "0..5"}, {}),
    "C39a": ("Simons moment, k weight",
             "Simons' identity, first moment",
             {"n": "0..10"}, {}),
    "C39b": ("Simons moment, k^2 weight",
             "Simons' identity, second moment",
             {"n": "0..10"}, {}),
    "C39c": ("Simons moment, k^3 weight",
             "Simons' identity, third moment",
             {"n": "0..10"}, {}),
    "C40a": ("reflected Simons moment, k weight",
             "Simons' identity, reflected first moment",
             {"n": "0..10"}, {}),
    "C40b": ("reflected Simons moment, k^2 weight",
             "Simons' identity, reflected second moment",
             {"n": "0..10"}, {}),
    "C40c": ("reflected Simons moment, k^3 weight",
             "Simons' identity, reflected third moment",
             {"n": "0..10"}, {}),

    # two-sided fixtures
    "F01": ("geometric sum as a two-sided identity",
            "geometric progression",
            {"n": "0..10"}, {}),
    "F02": ("alternating double-binomial identity",
            "Simons' identity",
            {"n": "0..10"}, {}),
    "F03": ("upper-index shift identity",
            "Gould's expansion at y = 1",
            {"n": "0..8", "u": "0,1,2,3,7/3,-3/2"}, {}),
    "F04": ("two-term power sum identity",
            "Waring's formula at y = 1 - x",
            {"n": "1..10"}, {}),
    "F05": ("cubed-binomial kernel identity",
            "MacMahon's identity",
            {"n": "0..10"}, {}),
}


class CatalogEntry(Record):
    id: str
    title: str
    anchor: str
    grid_spec: dict[str, str]  # axis -> values in the ``--grid-*`` syntax
    descriptor: IdentityDescriptor
    validity: ValidityPredicate

    @property
    def params(self) -> tuple[tuple[str, str], ...]:
        return self.descriptor.params

    @cached_property
    def default_grid(self) -> dict[str, tuple[Fraction, ...]]:
        """The default grid, built on first use: a caller with its own grid never builds it."""
        return {name: parse_values(spec) for name, spec in self.grid_spec.items()}


def parse_value(text: str, where: str) -> Fraction:
    """One rational value such as ``7/2``; anything else raises ``ValueError`` naming ``where`` and ``text``."""
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"{where}: {text.strip()!r} is not a number") from None
    except ZeroDivisionError:
        raise ValueError(f"{where}: {text.strip()!r} has a zero denominator") from None


def parse_values(spec: str, option: str = "grid axis") -> tuple[Fraction, ...]:
    """Parse a grid axis: ``0..10`` or a comma list like ``1,2,7/2``.

    A malformed spec raises ``ValueError`` naming ``option`` (say ``--n``)
    and the spec.
    """
    where = f"{option} {spec!r}"
    spec = spec.strip()
    if ".." in spec:
        bounds = []
        for text in spec.split("..", 1):
            try:
                bounds.append(int(text))
            except ValueError:
                raise ValueError(f"{where}: {text.strip()!r} is not an integer") from None
        lo, hi = bounds
        if hi < lo:
            raise ValueError(f"{where}: empty range")
        return tuple(Fraction(v) for v in range(lo, hi + 1))
    return tuple(parse_value(part, where) for part in spec.split(","))


_ENTRIES: dict[str, CatalogEntry] = {}


def entry_ids() -> tuple[str, ...]:
    return tuple(_TABLE)


def _source_path(entry_id: str) -> Path:
    return ENTRY_DIR / f"{entry_id}.dsl"


def get_entry(entry_id: str) -> CatalogEntry:
    """The entry ``entry_id``; its file is parsed on the first call and kept."""
    try:
        return _ENTRIES[entry_id]
    except KeyError:
        pass
    try:
        title, anchor, grid, lower_bounds = _TABLE[entry_id]
    except KeyError:
        raise UnknownEntryError(entry_id) from None
    path = _source_path(entry_id)
    try:
        descriptor = parse_identity(path.read_text(encoding="utf-8"))
    except DslSyntaxError as exc:
        raise type(exc)(f"{path}: {exc.message}", exc.line, exc.column) from None
    entry = CatalogEntry(
        entry_id,
        title,
        anchor,
        grid,
        descriptor.replace(name=entry_id),
        ValidityPredicate(
            tuple(RangeConstraint(Affine.var(name), bound) for name, bound in lower_bounds.items())
        ),
    )
    _ENTRIES[entry_id] = entry
    return entry


# -- verification -----------------------------------------------------------

def verify_entry(entry_id: str, binding: Mapping[str, Fraction]) -> CheckResult:
    """Check one binding of one entry; errors are reified into the status."""
    entry = get_entry(entry_id)
    try:
        return check_two_sided(entry.descriptor, binding, entry.validity)
    except UnboundParameterError as exc:
        raise UnboundParameterError(f"entry {entry.id} needs parameter {exc.args[0]}") from None


def exact_grid(grid: GridSpec, ordered: bool = False) -> dict[str, tuple[int | Fraction, ...]]:
    """``grid`` with its names sorted and its values exact (:func:`terms.exact`), for :func:`check_grid`.

    Integral values become ints and the others Fractions.  With
    ``ordered``, each axis is sorted by value, so the product of the axes
    lists the bindings ordered by value, axis by axis in name order, and no
    binding is compared.  A grid with no axis, or with an empty one, raises
    :class:`EmptyGridError`.
    """
    names = sorted(grid)
    if not names or 0 in map(len, grid.values()):
        raise EmptyGridError(f"grid over {names} has no bindings")
    return {name: tuple(sorted(map(exact, grid[name])) if ordered else map(exact, grid[name])) for name in names}


def iter_grid(grid: GridSpec) -> Iterable[dict[str, int | Fraction]]:
    """Every binding of ``grid`` as a dict: the product of its axes, names in sorted order, values exact."""
    axes = exact_grid(grid)
    for row in iter_product(*axes.values()):
        yield dict(zip(axes, row))


def sorted_bindings(grid: GridSpec) -> Iterable[dict[str, int | Fraction]]:
    """The bindings of ``grid`` as dicts, ordered by value (:func:`exact_grid`)."""
    axes = exact_grid(grid, ordered=True)
    return (dict(zip(axes, row)) for row in iter_product(*axes.values()))


def verify_grid(
    entry_id: str,
    grid: GridSpec | None = None,
    max_witnesses: int = 10,
) -> GridReport:
    """Exhaustive deterministic sweep of one entry over a binding grid ordered by value, in one loop (:func:`check_grid`)."""
    entry = get_entry(entry_id)
    axes = exact_grid(grid or entry.default_grid, ordered=True)
    try:
        return check_grid(entry.descriptor, axes, entry.validity, max_witnesses)
    except UnboundParameterError as exc:
        raise UnboundParameterError(f"entry {entry.id} needs parameter {exc.args[0]}") from None


# -- export --------------------------------------------------------------------

def entry_to_dsl(entry: CatalogEntry) -> str:
    """One entry's source file, headed by a titling comment."""
    return _exported_text(entry.id)


def _exported_text(entry_id: str) -> str:
    title, anchor = _TABLE[entry_id][:2]
    return f"# {entry_id}: {title}\n# anchor: {anchor}\n" + _source_path(entry_id).read_text(encoding="utf-8")


def export_catalog(directory) -> list[str]:
    """Write one .dsl file per entry; returns the file names written."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for entry_id in entry_ids():
        path = out / f"{entry_id}.dsl"
        path.write_text(_exported_text(entry_id), encoding="utf-8")
        written.append(path.name)
    return written


_MACMAHON_DOUBLED = """params n:nat;
sum[k=0..2n] (-1)^k * binom(2n, k) * binom(2n, k) * binom(2n, k) * x^k
  == sum[k=0..n] (-1)^k * binom(k + 2n, 2k) * binom(2k, k) * binom(2n - k, k) * x^k * (1-x)^(2n - 2k)
"""


def macmahon_doubled() -> IdentityDescriptor:
    """MacMahon's identity with the order doubled (kernel (1-x)^(2(n-k)))."""
    return parse_identity(_MACMAHON_DOUBLED).replace(name="F05-doubled")
