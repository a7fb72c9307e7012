"""The CI benchmark-regression gate (tools/bench_check.py).

The acceptance criterion for the gate is behavioral: it must pass on numbers
inside the tolerance band and *demonstrably fail* when a committed baseline is
perturbed beyond it.  These tests drive the real CLI through subprocess so the
exit codes CI sees are exactly what is asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parents[1] / "tools" / "bench_check.py"


def run_checker(tmp_path, baselines: dict, results: dict):
    """Write baselines + BENCH files to tmp, run the gate, return (code, out, err)."""
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir(exist_ok=True)
    baselines_path = tmp_path / "baselines.json"
    baselines_path.write_text(json.dumps(baselines))
    for filename, payload in results.items():
        (bench_dir / filename).write_text(json.dumps(payload))
    completed = subprocess.run(
        [sys.executable, str(CHECKER), "--baselines", str(baselines_path),
         "--bench-dir", str(bench_dir)],
        capture_output=True, text=True,
    )
    return completed.returncode, completed.stdout, completed.stderr


BASELINES = {
    "tolerance": 0.2,
    "metrics": [
        {"name": "engine_speedup", "file": "BENCH_engine.json",
         "key": "speedup", "baseline": 1.5},
        {"name": "nested_metric", "file": "BENCH_engine.json",
         "key": "drill.completed", "baseline": 64.0},
    ],
}


class TestBenchCheck:
    def test_passes_inside_tolerance_band(self, tmp_path):
        code, out, _ = run_checker(
            tmp_path, BASELINES,
            {"BENCH_engine.json": {"speedup": 1.45, "drill": {"completed": 64}}})
        assert code == 0
        assert "bench-check: OK" in out
        assert out.count(" ok ") >= 2

    def test_fails_when_baseline_perturbed_beyond_tolerance(self, tmp_path):
        """Perturb the committed baseline +30% with measurements unchanged:
        the measured value now sits below the band and the gate must fail."""
        perturbed = json.loads(json.dumps(BASELINES))
        perturbed["metrics"][0]["baseline"] = 1.5 * 1.3
        code, out, err = run_checker(
            tmp_path, perturbed,
            {"BENCH_engine.json": {"speedup": 1.5, "drill": {"completed": 64}}})
        assert code == 1
        assert "regression" in out
        assert "FAIL engine_speedup" in err

    def test_fails_on_real_regression(self, tmp_path):
        code, out, err = run_checker(
            tmp_path, BASELINES,
            {"BENCH_engine.json": {"speedup": 1.0, "drill": {"completed": 64}}})
        assert code == 1
        assert "FAIL engine_speedup" in err

    def test_improvement_beyond_band_warns_but_passes(self, tmp_path):
        code, out, _ = run_checker(
            tmp_path, BASELINES,
            {"BENCH_engine.json": {"speedup": 2.5, "drill": {"completed": 64}}})
        assert code == 0
        assert "improved" in out

    def test_missing_required_result_fails(self, tmp_path):
        code, _, err = run_checker(tmp_path, BASELINES, {})
        assert code == 1
        assert "missing" in err

    def test_missing_optional_result_skips(self, tmp_path):
        baselines = {
            "tolerance": 0.2,
            "metrics": [
                {"name": "optional", "file": "BENCH_absent.json", "key": "speedup",
                 "baseline": 2.0, "required": False},
            ],
        }
        code, out, _ = run_checker(tmp_path, baselines, {})
        assert code == 0
        assert "skipped" in out

    def test_informational_metric_never_fails(self, tmp_path):
        baselines = {
            "metrics": [
                {"name": "rps", "file": "BENCH_x.json", "key": "rps",
                 "baseline": 1000.0, "informational": True},
            ],
        }
        code, out, _ = run_checker(
            tmp_path, baselines, {"BENCH_x.json": {"rps": 10.0}})
        assert code == 0
        assert "info" in out

    def test_missing_informational_metric_skips(self, tmp_path):
        # e.g. pruning_speedup: the key is only written on hosts where the
        # native sparse kernel ran, and an informational metric must not gate.
        baselines = {
            "metrics": [
                {"name": "err", "file": "BENCH_x.json", "key": "absent",
                 "baseline": 0.002, "informational": True},
            ],
        }
        code, out, _ = run_checker(
            tmp_path, baselines, {"BENCH_x.json": {"other": 1.0}})
        assert code == 0
        assert "skipped" in out

    def test_update_rewrites_baselines_with_measured(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        baselines_path = tmp_path / "baselines.json"
        baselines_path.write_text(json.dumps(BASELINES))
        (bench_dir / "BENCH_engine.json").write_text(
            json.dumps({"speedup": 1.9, "drill": {"completed": 80}}))
        completed = subprocess.run(
            [sys.executable, str(CHECKER), "--baselines", str(baselines_path),
             "--bench-dir", str(bench_dir), "--update"],
            capture_output=True, text=True)
        assert completed.returncode == 0
        rewritten = json.loads(baselines_path.read_text())
        assert rewritten["metrics"][0]["baseline"] == 1.9
        assert rewritten["metrics"][1]["baseline"] == 80.0

    def test_repo_baselines_file_is_well_formed(self):
        """The committed baselines must parse and name real benchmark files."""
        repo = Path(__file__).resolve().parents[1]
        baselines = json.loads((repo / "benchmarks" / "baselines.json").read_text())
        assert isinstance(baselines["metrics"], list) and baselines["metrics"]
        for entry in baselines["metrics"]:
            assert set(entry) >= {"name", "file", "key", "baseline"}
            writer = repo / "benchmarks"
            assert entry["file"].startswith("BENCH_"), entry
            assert (writer / "baselines.json").exists()

    def test_empty_metrics_list_reports_cleanly(self, tmp_path):
        code, out, _ = run_checker(tmp_path, {"metrics": []}, {})
        assert code == 0
        assert "no metrics configured" in out

    def test_unreadable_baselines_exits_nonzero(self, tmp_path):
        bad = tmp_path / "nope.json"
        completed = subprocess.run(
            [sys.executable, str(CHECKER), "--baselines", str(bad)],
            capture_output=True, text=True)
        assert completed.returncode != 0
