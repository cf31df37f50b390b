"""The benchmark workloads and the gate that checks their outputs.

Every workload drives the package through its public functions only, on
inputs pinned in ``grids.json``, and checks what comes back against
``expected.json``.  The grids are a snapshot: a change to an entry's
``default_grid`` does not change a workload.

A workload is built in two steps so that only the package's work is timed:
``prepare(name, seed, scratch)`` decodes and orders the inputs, and the
returned callable runs them and returns an :class:`Outcome`.

The seed only permutes order (entries, grid slices, axis values, matches and
oracle pairs); seed 0 is catalog order.  Statuses and pinned counts do not
depend on it.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from combident import catalog, dsl, integrals, transforms

HERE = Path(__file__).resolve().parent
GRIDS = json.loads((HERE / "grids.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

STATUSES = ("verified", "skipped_pole", "skipped_precondition", "failed")
ORACLE_TOLERANCE = mp.mpf("1e-10")

# (scheme, source entry, options, catalog entry to match)
MATCHES = (
    ("frisch", "F03", {"direction": "forward"}, "C05"),
    ("frisch", "F03", {"direction": "transposed"}, "C06"),
    ("klamkin", "F03", {"direction": "forward"}, "C18"),
    ("klamkin", "F03", {"direction": "transposed"}, "C19"),
    ("moment", "F02", {"m": 1, "variant": "direct"}, "C39a"),
    ("moment", "F02", {"m": 2, "variant": "direct"}, "C39b"),
    ("moment", "F02", {"m": 3, "variant": "direct"}, "C39c"),
    ("moment", "F02", {"m": 1, "variant": "reflected"}, "C40a"),
    ("moment", "F02", {"m": 2, "variant": "reflected"}, "C40b"),
    ("moment", "F02", {"m": 3, "variant": "reflected"}, "C40c"),
    ("moment", "doubled", {"m": 1, "variant": "direct"}, "C33"),
    ("moment", "doubled", {"m": 2, "variant": "direct"}, "C34"),
)
ORACLE_MAX_EXP = 20
ORACLE_NODES = 64


def cpu_s() -> float:
    """User and system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    deviations: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    segments: list[tuple[float, float]] = field(default_factory=list)

    def fail(self, weight: int, message: str) -> None:
        self.failed += weight
        self.deviations.append(message)

    @contextmanager
    def segment(self):
        """Time one call into the package as (wall, cpu) seconds.

        Segments are appended in plan order, which the seed fixes, so the
        i-th segment of every pass of a run is the same piece of work.
        """
        wall0, cpu0 = time.perf_counter(), cpu_s()
        try:
            yield
        finally:
            self.segments.append((time.perf_counter() - wall0, cpu_s() - cpu0))


def _decode(grid: dict[str, list[str]]) -> dict[str, tuple[Fraction, ...]]:
    return {axis: tuple(Fraction(v) for v in values) for axis, values in grid.items()}


def _ordered(items, rng: random.Random | None) -> list:
    items = list(items)
    if rng is not None:
        rng.shuffle(items)
    return items


def _bindings(grid) -> int:
    total = 1
    for values in grid.values():
        total *= len(values)
    return total


def prepare(name: str, seed: int, scratch: Path):
    rng = random.Random(seed) if seed else None
    if name in ("sweep", "expand"):
        return _prepare_grid(name, rng)
    if name == "rederive":
        return _prepare_rederive(rng, scratch)
    raise KeyError(name)


def _slices(grid, rng) -> list[dict]:
    """The grid cut along its longest axis, one slice per value, in seed order.

    Workloads call the package once per slice, so every timed segment is
    short (see run.measure), and the seed orders the bindings even where the
    package sorts the bindings of one call.
    """
    grid = {axis: tuple(_ordered(values, rng)) for axis, values in grid.items()}
    axis = max(sorted(grid), key=lambda a: len(grid[a]))
    return [dict(grid, **{axis: (value,)}) for value in grid[axis]]


# -- sweep and expand: verify_grid over pinned grids ------------------------

def _prepare_grid(name: str, rng):
    plan = []
    for entry_id in _ordered(GRIDS[name], rng):
        grid = _decode(GRIDS[name][entry_id])
        plan.append((entry_id, _bindings(grid), _slices(grid, rng)))
    expected = EXPECTED[name]

    def run() -> Outcome:
        out = Outcome(counts={s: 0 for s in STATUSES})
        for entry_id, total, slices in plan:
            out.attempted += total
            counts = {s: 0 for s in STATUSES}
            try:
                for grid in slices:
                    with out.segment():
                        report = catalog.verify_grid(entry_id, grid)
                    for status, count in report.counts.items():
                        counts[status] += count
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.fail(total, f"{entry_id}: unexpected exception")
                continue
            for status in STATUSES:
                out.counts[status] += counts[status]
            if counts != expected[entry_id]:
                out.fail(total, f"{entry_id}: counts {counts} != pinned {expected[entry_id]}")
        return out

    return run


# -- rederive: DSL, transforms, matches, round trips, Beta oracle -------------

def _prepare_rederive(rng, scratch: Path):
    """A match is one match_against_entry call per slice of the entry's grid.

    It is ok when every slice is; its checked count is the sum and its factor
    set the union over the slices.
    """
    match_slices = {
        entry_id: _slices(_decode(GRIDS["rederive"].get(entry_id) or GRIDS["sweep"][entry_id]), rng)
        for _, _, _, entry_id in MATCHES
    }
    matches = _ordered(MATCHES, rng)
    pairs = _ordered(
        ((a, b) for a in range(ORACLE_MAX_EXP + 1) for b in range(ORACLE_MAX_EXP + 1)), rng
    )
    expected = EXPECTED["rederive"]

    def run() -> Outcome:
        out = Outcome()
        with out.segment():
            sources = _load_sources(out, scratch)
        derived_all = []
        for scheme, source, options, entry_id in matches:
            out.attempted += 1
            label = f"{scheme}({source}, {options}) -> {entry_id}"
            ok, checked, factors = True, 0, set()
            try:
                with out.segment():
                    derived = _derive(scheme, sources[source], options)
                for grid in match_slices[entry_id]:
                    with out.segment():
                        report = transforms.match_against_entry(derived, entry_id, grid)
                    ok, checked = ok and report.ok, checked + report.checked
                    factors.update(report.factors)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.attempted += 1  # its round trip cannot run either
                out.fail(2, f"{label}: unexpected exception")
                continue
            got = {"ok": ok, "checked": checked, "factors": [str(f) for f in sorted(factors)]}
            if got != expected["matches"][entry_id]:
                out.fail(1, f"{label}: {got} != pinned {expected['matches'][entry_id]}")
            derived_all.append((label, derived))
        for label, derived in derived_all:
            out.attempted += 1
            try:
                with out.segment():
                    text = dsl.print_identity(derived.to_descriptor())
                    again = dsl.print_identity(dsl.parse_identity(text))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.fail(1, f"{label}: round trip raised")
                continue
            if again != text:
                out.fail(1, f"{label}: print/parse round trip changed the text")
        _beta_oracle(out, pairs)
        return out

    return run


def _load_sources(out: Outcome, scratch: Path) -> dict:
    """Export the catalog, then parse the two seed identities back."""
    sources = {"doubled": catalog.macmahon_doubled()}
    out.attempted += 1
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        written = catalog.export_catalog(tmp)
        if len(written) != len(GRIDS["sweep"]):
            out.fail(1, f"export wrote {len(written)} files, pinned {len(GRIDS['sweep'])}")
        for entry_id in ("F02", "F03"):
            out.attempted += 1
            text = (Path(tmp) / f"{entry_id}.dsl").read_text(encoding="utf-8")
            parsed = dsl.parse_identity(text)
            original = catalog.get_entry(entry_id).descriptor
            if (parsed.params, parsed.left, parsed.right) != (
                original.params,
                original.left,
                original.right,
            ):
                out.fail(1, f"{entry_id}: parsed file differs from the catalog entry")
            sources[entry_id] = parsed
    return sources


def _derive(scheme: str, source, options: dict):
    if scheme == "frisch":
        return transforms.frisch_transform(source, **options)
    if scheme == "klamkin":
        return transforms.klamkin_transform(source, **options)
    return transforms.moment_transform(source, options["m"], variant=options["variant"])


def _beta_oracle(out: Outcome, pairs) -> None:
    for a, b in pairs:
        out.attempted += 1
        args = integrals.BetaArgs.of(a, b)
        with out.segment():
            exact = integrals.beta_integral_exact(args)
            estimate = integrals.beta_integral_quadrature(args, nodes=ORACLE_NODES)
        error = abs(estimate - mp.mpf(exact.numerator) / exact.denominator)
        if error > ORACLE_TOLERANCE:
            out.fail(1, f"Beta({a}, {b}): quadrature error {mp.nstr(error, 3)}")
