"""Fixtures shared by the test modules."""

import json
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest


@dataclass(frozen=True)
class CatalogSweep:
    returncode: int
    raw: bytes
    report: dict
    elapsed: float


@pytest.fixture(scope="session")
def catalog_sweep(tmp_path_factory) -> CatalogSweep:
    """One ``python -m combident verify --id all --out`` run, shared by every test that sweeps the catalog."""
    out = tmp_path_factory.mktemp("sweep") / "all.json"
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "combident", "verify", "--id", "all", "--format", "quiet", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    raw = out.read_bytes()
    return CatalogSweep(result.returncode, raw, json.loads(raw), elapsed)
