"""Smoke tests for the pipeline benchmark.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Each workload runs in ``--smoke`` mode (tiny inputs, one cycle) and must emit
exactly the metrics ``BENCHMARK.json`` declares, each with its unit.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
sys.path.insert(0, str(ROOT / "perfbench"))


def _run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "7", "--seconds", "1"]
        + ["--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload: str, trace: int) -> None:
    completed = _run(workload, trace, ROOT)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {entry["name"]: entry["unit"] for entry in declared}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        assert math.isfinite(entry["value"]), name
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(WORKLOADS[0], 0, tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def _record(name: str, cycle: int, latency: float, reference: float) -> SimpleNamespace:
    from run import REFERENCE_SECONDS, OpRecord

    record = OpRecord(0, 0, cycle, SimpleNamespace(source=SimpleNamespace(path=Path(name)), query="q"))
    record.latency, record.reference = latency, reference * REFERENCE_SECONDS
    return record


def test_typical_cycle_keeps_the_mix_at_each_pairs_median_at_reference_speed() -> None:
    from run import tail, typical_cycle

    # Sixteen cycles of (a, a, b); in the first eight the machine runs twice
    # as slow, and so does the reference kernel before each op.
    records = []
    for cycle in range(16):
        slow = 2.0 if cycle < 8 else 1.0
        records += [_record("a", cycle, slow * (1 + cycle / 100), slow), _record("a", cycle, slow, slow)]
        records.append(_record("b", cycle, slow * (10 + cycle / 100), slow))
    typical = typical_cycle(records)
    # a: median of sixteen 1.0s and 1.00..1.15 is 1.0; b: median of 10.00..10.15.
    assert typical == [1.0, 1.0, 10.075]
    value, percentile, share = tail(typical)
    assert value == 10.075
    assert share == 1 / 3
    assert abs(percentile - 200 / 3) < 1e-9
