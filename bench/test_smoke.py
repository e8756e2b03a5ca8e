"""Smoke test of the benchmark harness: every workload, both modes, tiny sizes.

    python -m pytest bench/test_smoke.py

Kept outside the tier-1 suite (pytest collects `tests/` by default).  Checks
that each run exits 0, that its last stdout line is the result object with
exactly the metrics BENCHMARK.json names, and that every output was correct.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_without_sources(tmp_path):
    """Without src/rwcert next to it the harness exits non-zero, printing no result."""
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
