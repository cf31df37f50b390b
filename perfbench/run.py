"""Benchmark runner: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload sweep|expand|rederive --seed N
        --seconds S --trace 0|1

Run it from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` directory, never from an installed copy.  Each pass of
the workload is one fresh, single-threaded Python process (``worker.py``), so
every pass pays the import and the lazy caches as a command-line user does.
Passes repeat until the next one would end after ``--seconds``; at least
three run.  After each pass, IMPORTS_PER_PASS import-only processes add
``setup_s`` samples.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (see
:func:`measure` for how each is estimated from the passes).  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (call counts, self times, layer ratios and the
tracing overhead); the spans of the last traced pass are written under
``.bench_build/traces``.  Every pass is checked against the pinned results in
``expected.json``; any deviation is a failure.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every pass was correct, 1 when any failed, 2 on a usage error or when the
checkout has no package to measure.  Per-pass samples and run metadata are
also written to ``.bench_build/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
MIN_PASSES = 3
IMPORTS_PER_PASS = 3
HARD_LIMIT_S = 170.0
# The 10th percentile of calibration chunks (worker._calibration_chunk) on the
# machine the baseline was measured on, unloaded: 2 vCPU Intel Xeon, Python
# 3.11.7.  Scaled times read as seconds on that machine.
CALIBRATION_REF_S = 0.030
sys.path.insert(0, str(HERE))

from layers import DERIVED, LAYERS, per_layer_metrics  # noqa: E402

WORKLOADS = ("sweep", "expand", "rederive")
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        PYTHONHASHSEED="0",
    )
    return env


class Runner:
    """Starts worker processes and keeps every sample and failure."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ops_per_pass = 0

    def worker(self, mode: str, spans: Path | None = None) -> dict | None:
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--workload", self.workload, "--seed", str(self.seed),
            "--scratch", str(BUILD / "scratch"),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        budget = max(self.deadline - time.monotonic(), 1.0)
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            return self._lost(mode, "timed out")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return self._lost(mode, f"exit status {proc.returncode}")
        record = json.loads(lines[-1])
        if mode != "import":
            self.ops_per_pass = self.ops_per_pass or record["attempted"]
            self.attempted += record["attempted"]
            self.failed += record["failed"]
            self.problems.extend(record["deviations"])
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        return record

    def _lost(self, mode: str, why: str) -> None:
        self.problems.append(f"{mode} process: {why}")
        weight = self.ops_per_pass or 1
        self.attempted += weight
        self.failed += weight
        return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _low(values: list[float]) -> float:
    """The 10th percentile of the samples."""
    return statistics.quantiles(values, n=10)[0] if len(values) > 1 else values[0]


def _fastest_sum(passes: list[dict], column: int) -> float:
    """Sum over a pass's segments of the fastest time each took in any pass."""
    return sum(min(seg[column] for seg in same) for same in zip(*(p["segments"] for p in passes)))


def _metadata(args, runner: Runner, passes: int, setups: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "operations_per_pass": runner.ops_per_pass,
        "passes": passes,
        "setup_samples": setups,
    }


def _repeat(runner: Runner, seconds: float, one_round) -> None:
    """Call ``one_round`` until the next round would end after ``seconds``.

    At least MIN_PASSES rounds run, unless one more would pass the hard limit.
    """
    start = time.monotonic()
    rounds: list[float] = []
    while True:
        now = time.monotonic()
        if rounds:
            expected_end = now + max(rounds)
            if expected_end > runner.deadline - 10:
                return
            if len(rounds) >= MIN_PASSES and expected_end - start > seconds:
                return
        one_round()
        rounds.append(time.monotonic() - now)


def measure(args, runner: Runner) -> tuple[dict, dict, list[str]]:
    """Untraced passes; returns (metrics, samples, table lines).

    The benchmark shares its machine, and other tenants slow every pass by
    up to 2x for minutes at a time, so plain medians over passes move with
    them.  Each time metric is therefore an estimate of the uncontended cost,
    scaled to the reference machine:

    - ``wall_s`` and ``cpu_s`` add up, over the segments of a pass (one call
      into the package each), the fastest time each segment took in any pass
      of the run;
    - ``setup_s`` is the 10th percentile of the run's set-ups;
    - each is multiplied by CALIBRATION_REF_S over the 10th percentile of
      the run's calibration chunks, which measures how fast the machine was
      near its best during the run, with code that is not the package's.

    A 10th percentile rather than a minimum, because one lucky sample among
    a hundred would otherwise set the scale of the whole run.

    The unscaled figures and the medians and quartiles of the plain samples
    are printed beside them.
    """
    passes: list[dict] = []
    setups: list[float] = []
    chunks: list[float] = []

    def one_round():
        record = runner.worker("run")
        if record is not None:
            passes.append(record)
            setups.append(record["setup_s"])
        for _ in range(IMPORTS_PER_PASS):
            record = runner.worker("import")
            if record is not None:
                setups.append(record["setup_s"])
                chunks.extend(record["calibration_s"])

    _repeat(runner, args.seconds, one_round)
    samples = {"passes": passes, "setup_s": setups, "calibration_s": chunks}
    metrics, lines = {}, []
    if not passes or not chunks:
        return metrics, samples, lines
    scale = CALIBRATION_REF_S / _low(chunks)
    lines.append(f"calibration  10th percentile of {len(chunks)} chunks {_low(chunks):.6f} s; scale {scale:.6f}")
    estimates = {
        "wall_s": (_fastest_sum(passes, 0), scale, "sum of fastest segments"),
        "cpu_s": (_fastest_sum(passes, 1), scale, "sum of fastest segments"),
        "setup_s": (_low(setups), scale, "10th percentile"),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in passes]), 1.0, "median"),
    }
    for name, unit in END_TO_END:
        raw, factor, how = estimates[name]
        values = setups if name == "setup_s" else [p[name] for p in passes]
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": raw * factor, "unit": unit}
        lines.append(
            f"{name:<12} {raw * factor:>11.6f} {unit:<3} {how} x {factor:.4f};"
            f" {len(values)} samples: median {_median(values):.6f} q1 {q1:.6f} q3 {q3:.6f}"
        )
    return metrics, samples, lines


def trace(args, runner: Runner) -> tuple[dict, dict, list[str]]:
    """Alternating untraced and traced passes; returns per-layer metrics."""
    plain: list[dict] = []
    traced: list[dict] = []
    spans = BUILD / "traces" / f"{args.workload}-seed{args.seed}.spans"

    def one_round():
        for mode, sink in (("run", plain), ("trace", traced)):
            record = runner.worker(mode, spans if mode == "trace" else None)
            if record is not None:
                sink.append(record)

    _repeat(runner, args.seconds, one_round)
    missing = sorted({m for r in traced for m in r["layers_missing"]})
    values: dict[str, float] = {}
    for record_name in {n for r in traced for n in r["layers"]}:
        for field in ("calls", "self_s"):
            values[f"{record_name}.{field}"] = _median([r["layers"][record_name][field] for r in traced])
    for name, *_ in DERIVED:
        if name != "trace.overhead_s" and traced:
            values[name] = _median([r["derived"][name] for r in traced])
    if plain and traced:
        values["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - _median(
            [r["wall_s"] for r in plain]
        )

    metrics = {}
    lines = [f"{'metric':<46} {'value':>14} {'unit':<6} should move wall_s on"]
    moves = {layer: note for layer, note, _ in LAYERS}
    moves["trace"] = "none"
    for name, unit, _ in per_layer_metrics():
        layer = name.split(".", 1)[0]
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            shown = f"{values[name]:>14.6f}" if unit != "count" else f"{values[name]:>14.0f}"
        else:
            shown = f"{'MISSING':>14}"
        lines.append(f"{name:<46} {shown} {unit:<6} {moves.get(layer, '')}")
    if missing:
        lines.append(f"missing (not found by the tracer): {', '.join(missing)}")
    lines.append(f"spans of the last traced pass: {spans.relative_to(ROOT)}")
    return metrics, {"untraced": plain, "traced": traced}, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "combident" / "__init__.py").is_file():
        print(f"error: no package to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    (BUILD / "scratch").mkdir(parents=True, exist_ok=True)
    runner.worker("import")  # fills the bytecode cache; not a sample
    metrics, samples, lines = (trace if args.trace else measure)(args, runner)

    passes = len(samples.get("passes") or samples.get("traced") or [])
    setups = len(samples.get("setup_s", []))
    meta = _metadata(args, runner, passes, setups)
    attempted = max(runner.attempted, 1)
    correct = runner.failed == 0 and runner.attempted > 0
    for key, value in meta.items():
        print(f"{key:<20} {value}")
    print(*lines, sep="\n")
    print(f"failed_ratio         {runner.failed}/{attempted} = {runner.failed / attempted:.6g}")
    for problem, times in Counter(runner.problems).most_common(20):
        print(f"deviation ({times}x): {problem}")
    results = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(
        json.dumps({"meta": meta, "metrics": metrics, "samples": samples, "problems": runner.problems}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
