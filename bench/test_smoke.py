"""Smoke test: two workloads at 2 % duration; only the result's shape is checked.

No number is asserted against a clock — the run is far too short to mean
anything — only that the command exits 0, that its last line is the result
object and that every metric ``BENCHMARK.json`` names is reported.
"""

import json
import subprocess
import sys

import pytest

from bench.common import REPO_ROOT, load_contract

SMOKE_SECONDS = 0.4


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["frames_1x1", "serve_inproc"])
def test_result_schema(workload, trace, tmp_path):
    contract = load_contract()
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", "3",
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace), "--out", str(tmp_path)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)

    named = contract["per_layer"] if trace else contract["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in named]
    for metric in named:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)

    suffix = "-traced" if trace else ""
    saved = json.loads((tmp_path / f"result-{workload}{suffix}.json").read_text())
    assert saved["host"]["seed"] == 3 and saved["host"]["nproc"] >= 1
    assert saved["metrics"] == result["metrics"]
    if trace:
        spans = json.loads((tmp_path / f"trace-{workload}.json").read_text())
        assert spans["spans"] and set(spans["spans"][0]) == {
            "id", "name", "start", "end", "parent", "request"}
