"""One fresh benchmark process: import the package, run one workload once.

    python3 perfbench/worker.py --mode import|run|trace --workload NAME --seed N
        --scratch DIR [--spans FILE]

``import`` times ``import combident.cli`` and then times CALIBRATION_CHUNKS
runs of a fixed piece of pure-Python rational arithmetic that uses no code
of the package (run.py scales times by them).  ``run`` runs the
workload once with tracing off; ``trace`` runs it with every callable in
``layers.LAYERS`` wrapped and writes the spans to ``--spans``.  The process
prints one JSON object on its last line of standard output.  The package
must be importable from the ``src`` directory next to this one (run.py sets
``PYTHONPATH``); a package found anywhere else is an error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


CALIBRATION_CHUNKS = 5


def _calibration_chunk() -> float:
    from fractions import Fraction

    t0 = time.perf_counter()
    table = {}
    for i in range(1, 12000):
        x = Fraction(i % 13 + 1, i % 17 + 2) + Fraction(i % 5, 3)
        table[i & 255] = (x.numerator * 31 + x.denominator) & 1023
    return time.perf_counter() - t0


def _is_zero(value) -> bool:
    is_zero = getattr(value, "is_zero", None)
    return is_zero() if callable(is_zero) else value == 0


class LayerCounters:
    """Counts taken from traced return values."""

    def __init__(self):
        self.entry_calls = 0
        self.skipped = 0
        self.verified = 0
        self.vacuous = 0
        self.checked = 0

    def on_verify_entry(self, result) -> None:
        self.entry_calls += 1
        if result.status.startswith("skipped"):
            self.skipped += 1
        elif result.status == "verified":
            self.verified += 1
            if _is_zero(result.lhs) and _is_zero(result.rhs):
                self.vacuous += 1

    def on_match(self, report) -> None:
        self.checked += report.checked

    def metrics(self) -> dict[str, float]:
        return {
            "catalog.skipped_ratio": self.skipped / self.entry_calls if self.entry_calls else 0.0,
            "catalog.vacuous_ratio": self.vacuous / self.verified if self.verified else 0.0,
            "transforms.match.checked": self.checked,
        }


def _install_tracer(tracer, counters: LayerCounters) -> None:
    from layers import LAYERS

    hooks = {
        "catalog.verify_entry": counters.on_verify_entry,
        "transforms.match_against_entry": counters.on_match,
    }
    for _, _, targets in LAYERS:
        for name, module, qualname in targets:
            tracer.install(name, module, qualname, hooks.get(name))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("import", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    src = (Path(__file__).resolve().parent.parent / "src").resolve()
    t0 = time.perf_counter()
    import combident.cli  # noqa: F401  (the timed set-up: catalog and mpmath)

    setup_s = time.perf_counter() - t0
    origin = Path(combident.cli.__file__).resolve()
    if src not in origin.parents:
        print(f"error: combident imported from {origin}, not from {src}", file=sys.stderr)
        return 2
    record = {"setup_s": setup_s}
    if args.mode == "import":
        record["calibration_s"] = [_calibration_chunk() for _ in range(CALIBRATION_CHUNKS)]
        print(json.dumps(record))
        return 0

    import workloads

    run = workloads.prepare(args.workload, args.seed, args.scratch)
    tracer = counters = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer, counters = Tracer("combident"), LayerCounters()
        _install_tracer(tracer, counters)
    cpu0, wall0 = workloads.cpu_s(), time.perf_counter()
    outcome = run()
    wall_s, cpu_s = time.perf_counter() - wall0, workloads.cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()
    record.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=_peak_rss_mb(),
        attempted=outcome.attempted,
        failed=outcome.failed,
        deviations=outcome.deviations[:20],
        counts=outcome.counts,
        segments=outcome.segments,
    )
    if tracer is not None:
        record["layers"] = tracer.summary()
        record["layers_missing"] = tracer.missing
        record["derived"] = counters.metrics()
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
