"""The benchmark runs end to end and its last stdout line is its result.

A traced run that exits 0 but prints something else last cannot be
measured, so this runs one pass of each workload and parses that line as
strict JSON.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result")


@pytest.mark.parametrize("workload", ["sweep", "expand", "rederive"])
def test_traced_sweep_prints_its_result_last(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    last = result.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    report = json.loads(last, parse_constant=_reject_constant)
    assert report["correct"] is True
    assert report["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {metric["name"] for metric in declared["per_layer"]}
    assert len(names) == 42
    assert set(report["metrics"]) == names
