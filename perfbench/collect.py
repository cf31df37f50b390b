"""Run the benchmark over several seeds and summarise it in one JSON file.

    python3 perfbench/collect.py --out perfbench/baseline.json
        [--workloads sweep,expand,rederive] [--seeds 1-10]

For every workload this runs ``run.py --trace 0`` once per seed and reports,
for each end-to-end metric, the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median over the seeds, next to the
metric's bound in BENCHMARK.json.  It then runs ``run.py --trace 1`` once on
seed 0 and stores its per-layer metrics.  Every run lasts BENCHMARK.json's
``run_seconds``, so two summaries compare like with like.  Run metadata (commit,
Python, nproc, CPU, operations per pass) comes from the runs' own records.
Runs are sequential: a second benchmark process would perturb the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_build" / "results"
TRACE_SEED = 0


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record["meta"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    summary = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in _seeds(args.seeds):
            result, meta = _run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "passes": meta["passes"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, runs[-1]["metrics"], flush=True)
        end_to_end = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            median = statistics.median(vals)
            end_to_end[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bounds.get(name),
            }
            print(f"  {name:<12} median {median:.6g} spread {end_to_end[name]['spread']:.4f}"
                  f" bound {bounds.get(name)}", flush=True)
        traced, meta = _run(workload, TRACE_SEED, seconds, 1)
        summary["meta"] = {k: meta[k] for k in ("commit", "python", "nproc", "cpu")}
        summary["workloads"][workload] = {
            "operations_per_pass": meta["operations_per_pass"],
            "end_to_end": end_to_end,
            "runs": runs,
            "per_layer": {"seed": TRACE_SEED,
                          "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
