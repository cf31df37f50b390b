"""Command-line front end.

Commands:

- ``verify``: sweep catalog entries over their default or overridden grids.
- ``derive``: apply a derivation scheme to an identity source file, print the
  derived identity, and grid-verify it (optionally matching a catalog entry).
- ``integrals``: compare the exact Beta values against the quadrature oracle.
- ``export-catalog``: write every entry as an identity source file.

Exit codes: 0 all verified (skips permitted), 1 at least one failure or
mismatch, or a run that checked nothing (a ``verify`` entry or a ``derive``
with no verified binding, an ``integrals`` run with no exponent pair
checked), 2 usage or parse errors.  Structured reports are deterministic: the
same configuration (including the seed) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from itertools import product

from . import __version__
from .catalog import entry_ids, exact_grid, export_catalog, get_entry, parse_value, parse_values, verify_grid
from .descriptors import FAILED, SKIPPED_POLE, SKIPPED_PRECONDITION, VERIFIED, check_grid
from .dsl import parse_file, print_identity
from .errors import EmptyGridError, ShapeError, UnknownEntryError
from .integrals import _DPS, BetaArgs, beta_integral_exact, beta_integral_quadrature, quadrature_rows
from .transforms import (
    PRELUDES,
    frisch_transform,
    klamkin_transform,
    match_against_entry,
    match_grid,
    moment_transform,
    summation_entry,
)

GRID_PARAMS = ("n", "m", "r", "s", "t", "u")


def _grid_overrides(args, axes, prefix: str = "") -> dict[str, tuple[Fraction, ...]]:
    """The ``--<prefix><axis>`` overrides; an axis not in ``axes`` is a usage error."""
    overrides = {}
    for name in GRID_PARAMS:
        spec = getattr(args, f"{prefix}{name}", None)
        if spec is not None:
            overrides[name] = parse_values(spec, f"--{prefix.replace('_', '-')}{name}")
    unused = set(overrides) - set(axes)
    if unused:
        raise ValueError(
            f"no selected entry has the axis {', '.join(sorted(unused))}; drop the override"
        )
    return overrides


def _sample_rows(axes, count: int, seed: int) -> list[tuple]:
    """``count`` rows of the exact grid ``axes`` drawn by ``seed``, or every row in order when there are no more."""
    rows = list(product(*axes.values()))
    if count >= len(rows):
        return rows
    rng = random.Random(seed)
    return rng.sample(rows, count)


def _write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


# -- verify -------------------------------------------------------------------

def _witness_record(result) -> dict:
    return {
        "binding": {name: str(v) for name, v in sorted(result.binding.items())},
        "lhs": str(result.lhs),
        "rhs": str(result.rhs),
        "detail": result.witness or "",
    }


def _selection(spec: str) -> list[str]:
    """The entry ids of ``--id``: ``all``, or a comma list with no empty and no repeated piece."""
    if spec == "all":
        return list(entry_ids())
    selection = [part.strip() for part in spec.split(",")]
    for position, entry_id in enumerate(selection, 1):
        if not entry_id:
            raise ValueError(f"--id {spec!r}: piece {position} is empty")
        if entry_id in selection[:position - 1]:
            raise ValueError(f"--id {spec!r}: {entry_id} is named twice")
    return selection


def cmd_verify(args) -> int:
    selection = _selection(args.id)
    entries = [get_entry(entry_id) for entry_id in selection]  # raises UnknownEntryError
    overrides = _grid_overrides(args, {name for entry in entries for name in entry.default_grid})

    entries_report = []
    any_bad = False
    for entry in entries:
        grid = dict(entry.default_grid)
        for name, values in overrides.items():
            if name in grid:
                grid[name] = values
        if args.sample is not None:
            axes = exact_grid(grid, ordered=True)
            rows = _sample_rows(axes, args.sample, args.seed)
            grid_report = check_grid(entry.descriptor, axes, entry.validity, rows=rows)
        else:
            grid_report = verify_grid(entry.id, grid)
        counts = grid_report.counts
        failed = counts[FAILED]
        status = "FAIL" if failed else "ok" if counts[VERIFIED] else "unexercised"
        any_bad = any_bad or status != "ok"
        entries_report.append(
            {
                "id": entry.id,
                "title": entry.title,
                "anchor": entry.anchor,
                "total": grid_report.total,
                "counts": dict(sorted(counts.items())),
                "witnesses": [_witness_record(w) for w in grid_report.witnesses],
            }
        )
        if args.format == "human":
            print(
                f"{entry.id:6s} {status:4s} verified={counts[VERIFIED]:<5d}"
                f" pole={counts[SKIPPED_POLE]:<4d} pre={counts[SKIPPED_PRECONDITION]:<4d}"
                f" failed={failed:<3d} | {entry.title} [{entry.anchor}]"
            )

    if args.out:
        _write_report(
            args.out,
            {
                "run_meta": {
                    "tool": "combident",
                    "version": __version__,
                    "command": "verify",
                    "selection": selection,
                    "grid_overrides": {
                        name: [str(v) for v in values]
                        for name, values in sorted(overrides.items())
                    },
                    "sample": args.sample,
                    "seed": args.seed,
                },
                "entries": entries_report,
            },
        )
    return 1 if any_bad else 0


# -- derive -------------------------------------------------------------------

_DERIVED_GRID_DEFAULTS = {
    "n": tuple(Fraction(v) for v in range(9)),
    "m": tuple(Fraction(v) for v in range(5)),
    "r": (Fraction(8), Fraction(12), Fraction(25, 2)),
    "s": (Fraction(1), Fraction(2)),
    "t": (Fraction(7), Fraction(9)),
    "u": (Fraction(0), Fraction(1), Fraction(3, 2)),
}


# flags that only some schemes read, and the value a run uses when one is not given
_SCHEME_FLAGS = (
    ("direction", ("frisch", "klamkin"), "the frisch and klamkin schemes", "forward"),
    ("variant", ("moment",), "the moment scheme", "direct"),
    ("m", ("moment",), "the moment scheme", None),
)


def _derive_grid(desc, args=None) -> dict[str, tuple[Fraction, ...]]:
    """The grid of a derived identity: every declared name, over its ``--grid-*`` override or default."""
    names = [name for name, _ in desc.params]
    ungridded = sorted(set(names) - set(_DERIVED_GRID_DEFAULTS))
    if ungridded:
        raise ValueError(
            f"parameter {', '.join(ungridded)} has no verification grid;"
            f" derive grids exist for {', '.join(GRID_PARAMS)} only"
        )
    overrides = _grid_overrides(args, names, prefix="grid_")  # no args, no overrides
    return {name: overrides.get(name) or _DERIVED_GRID_DEFAULTS[name] for name in sorted(names)}


def cmd_derive(args) -> int:
    for flag, schemes, owners, default in _SCHEME_FLAGS:
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.scheme not in schemes:
            print(f"error: --{flag} applies to {owners} only", file=sys.stderr)
            return 2
    desc = parse_file(args.input)
    # an unknown or polynomial entry fails before anything is derived or printed
    entry = summation_entry(args.match) if args.match else None

    if args.scheme == "frisch":
        derived = frisch_transform(desc, direction=args.direction)
    elif args.scheme == "klamkin":
        derived = klamkin_transform(desc, direction=args.direction)
    else:
        if args.m is None:
            print("error: --m is required for the moment scheme", file=sys.stderr)
            return 2
        derived = moment_transform(desc, args.m, variant=args.variant)
    if entry:
        match_grid(derived, entry)  # and so does a derived parameter that the entry's grid lacks

    derived_desc = derived.descriptor
    grid = _derive_grid(derived_desc, args)
    text = print_identity(derived_desc)
    print(f"# derived: {derived.provenance}")
    print(text, end="")
    if args.out_dsl:
        with open(args.out_dsl, "w", encoding="utf-8") as handle:
            handle.write(f"# derived: {derived.provenance}\n")
            handle.write(text)

    # grid-verify the derived identity over its free parameters
    tallied = check_grid(derived_desc, exact_grid(grid, ordered=True), derived.validity)
    counts = tallied.counts
    if not counts[VERIFIED] and not counts[FAILED]:
        unexercised = " unexercised (every binding was skipped)"
    elif not counts[FAILED] and tallied.vacuous == counts[VERIFIED]:
        unexercised = " unexercised (every verified binding is 0 == 0)"
    else:
        unexercised = ""
    print(
        f"# verification: verified={counts[VERIFIED]} pole={counts[SKIPPED_POLE]}"
        f" pre={counts[SKIPPED_PRECONDITION]} failed={counts[FAILED]}{unexercised}"
    )

    match_ok = True
    match_note = None
    if args.match:
        report = match_against_entry(derived, args.match)
        match_ok = report.ok
        factors = ", ".join(str(f) for f in report.factors[:6])
        match_note = {
            "entry": args.match,
            "ok": report.ok,
            "checked": report.checked,
            "factors": [str(f) for f in report.factors],
            "detail": report.detail,
        }
        print(f"# match {args.match}: {'ok' if report.ok else 'MISMATCH'} (factors: {factors})")

    if args.out:
        _write_report(
            args.out,
            {
                "run_meta": {
                    "tool": "combident",
                    "version": __version__,
                    "command": "derive",
                    "scheme": args.scheme,
                    "input": os.path.basename(args.input),
                    "direction": args.direction,
                    "variant": args.variant,
                    "m": args.m,
                },
                "derived": {
                    "provenance": derived.provenance,
                    "source": text,
                    "counts": dict(sorted(counts.items())),
                    "witnesses": [_witness_record(w) for w in tallied.witnesses],
                    "match": match_note,
                },
            },
        )
    return 1 if (counts[FAILED] or unexercised or not match_ok) else 0


# -- integrals ------------------------------------------------------------------

def cmd_integrals(args) -> int:
    import mpmath as mp  # imported here so that the other commands never load it

    if args.max_exp < 0:
        raise ValueError(f"--max-exp must be at least 0, got {args.max_exp}")
    if args.nodes < 1:
        raise ValueError(f"--nodes must be at least 1, got {args.nodes}")
    pairs = []
    if args.pair:
        pairs.append(tuple(parse_value(text, "--pair") for text in args.pair))
    else:
        pairs = [
            (Fraction(a), Fraction(b))
            for a in range(args.max_exp + 1)
            for b in range(args.max_exp + 1)
        ]
        quadrature_rows(args.nodes, args.max_exp)  # every row at once: a = 0 asks for b = 0..N in turn
    worst = mp.mpf(0)
    worst_pair = None
    skipped = 0
    rows = []
    for a, b in pairs:
        if a < 0 or b < 0:
            skipped += 1
            continue
        args_pair = BetaArgs(a, b)
        exact = beta_integral_exact(args_pair)
        estimate = beta_integral_quadrature(args_pair, nodes=args.nodes)
        with mp.workdps(_DPS):
            error = abs(estimate - mp.mpf(exact.numerator) / exact.denominator)
        if worst_pair is None or error > worst:
            worst, worst_pair = error, (int(a), int(b))
        rows.append((a, b, exact, estimate, error))
    if args.pair:
        for a, b, exact, estimate, error in rows:
            print(
                f"a={a} b={b} exact={exact}"
                f" estimate={mp.nstr(estimate, 20)} error={mp.nstr(error, 3)}"
            )
    within_tolerance = worst <= mp.mpf("1e-10")
    status = "FAIL" if not within_tolerance else "ok" if rows else "unexercised"
    where = f" at {worst_pair}" if worst_pair else ""
    print(
        f"checked {len(rows)} exponent pairs (nodes={args.nodes});"
        f" max |quadrature - exact| = {mp.nstr(worst, 3)}{where}; skipped {skipped}"
    )
    if status == "FAIL":
        print("FAIL: above the 1e-10 tolerance")
    if status == "unexercised":
        print("unexercised: every exponent pair was skipped, so the run is no evidence")
    if args.out:
        _write_report(
            args.out,
            {
                "run_meta": {
                    "tool": "combident",
                    "version": __version__,
                    "command": "integrals",
                    "max_exp": args.max_exp,
                    "nodes": args.nodes,
                },
                "checked": len(rows),
                "max_error": mp.nstr(worst, 12),
                "worst_pair": list(worst_pair) if worst_pair else None,
                "skipped": skipped,
                "tolerance": "1e-10",
                "within_tolerance": within_tolerance,
                "status": status,
            },
        )
    return 0 if status == "ok" else 1


def cmd_export(args) -> int:
    written = export_catalog(args.out_dir)
    print(f"wrote {len(written)} identity files to {args.out_dir}")
    return 0


# -- entry point ------------------------------------------------------------------

def _count(text: str) -> int:
    """A non-negative integer option value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combident",
        description="verify and derive binomial-sum identities in exact arithmetic",
    )
    parser.add_argument("--version", action="version", version=f"combident {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify catalog entries over grids")
    verify.add_argument("--id", default="all", help="entry id, comma list, or 'all'")
    for name in GRID_PARAMS:
        verify.add_argument(
            f"--{name}", default=None, help=f"override the {name} axis (e.g. 0..10 or 1,2,7/2)"
        )
    verify.add_argument("--out", default=None, help="write a JSON report here")
    verify.add_argument("--format", choices=("human", "quiet"), default="human")
    verify.add_argument("--sample", type=_count, default=None, help="sample this many bindings")
    verify.add_argument("--seed", type=int, default=0, help="seed for sampled grids")
    verify.set_defaults(func=cmd_verify)

    derive = sub.add_parser("derive", help="derive an identity from a source file")
    derive.add_argument("--scheme", choices=("frisch", "klamkin", "moment"), required=True)
    derive.add_argument("--input", required=True, help="identity source file")
    derive.add_argument(
        "--direction", choices=tuple(PRELUDES["direction"]), default=None,
        help="frisch and klamkin schemes (default forward)",
    )
    derive.add_argument(
        "--variant",
        choices=tuple(PRELUDES["variant"]),
        default=None,
        help="moment scheme variant (default direct)",
    )
    derive.add_argument("--m", type=int, default=None, help="moment order (moment scheme)")
    derive.add_argument("--match", default=None, help="catalog entry to compare against")
    derive.add_argument("--out", default=None, help="write a JSON report here")
    derive.add_argument("--out-dsl", default=None, help="write the derived identity here")
    for name in GRID_PARAMS:
        derive.add_argument(
            f"--grid-{name}", dest=f"grid_{name}", default=None,
            help=f"override the {name} axis for verification",
        )
    derive.set_defaults(func=cmd_derive)

    integrals = sub.add_parser("integrals", help="exact Beta values vs quadrature")
    integrals.add_argument("--max-exp", type=int, default=20)
    integrals.add_argument("--nodes", type=int, default=64)
    integrals.add_argument("--pair", nargs=2, metavar=("A", "B"), default=None)
    integrals.add_argument("--out", default=None)
    integrals.set_defaults(func=cmd_integrals)

    export = sub.add_parser("export-catalog", help="write the catalog as source files")
    export.add_argument("--out-dir", required=True)
    export.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownEntryError as exc:
        print(f"error: unknown entry {exc.args[0]!r}", file=sys.stderr)
        return 2
    except (ShapeError, EmptyGridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
