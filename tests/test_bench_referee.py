"""The speed referee, ``python3 -m bench.compare A.json B.json``, as a gate: one row
per ``BENCHMARK.json`` workload and end-to-end metric, exit 1 on any row ``worse``
or ``unresolved``.  The CLI runs through subprocess, so its exit codes are asserted."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from bench import compare
from bench.common import load_config, load_contract
from bench.stats import verdict

REPO = Path(__file__).resolve().parents[1]
CONTRACT = load_contract()
E2E = {metric["name"]: metric for metric in CONTRACT["end_to_end"]}
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
ALL_WITHIN = f"{len(WORKLOADS) * len(E2E)} of {len(WORKLOADS) * len(E2E)} rows within bound"
BASE = {"setup_s": 0.5, "pruning_speedup": 2.5, "bulk_img_per_s": 300.0, "peak_rss_mb": 250.0}


def result_set(scale=(), noise=(), per_layer=(), drop=None):
    """Ten untraced runs and a traced one per workload; ``scale`` / ``noise`` (± share)
    change a metric, ``per_layer`` adds diagnostics, ``drop`` omits a workload or metric."""
    scale, noise = dict(scale), dict(noise)
    runs = [{"seed": k, "correct": True, "attempted": 100, "failed": 0, "metrics": {
        **{name: {"value": value * scale.get(name, 1.0) * (1 + 0.001 * k)
                  * (1 + noise.get(name, 0.0) * (-1) ** k), "unit": E2E[name]["unit"]}
           for name, value in BASE.items() if name != drop},
        **{name: {"value": value, "unit": "ms"} for name, value in dict(per_layer).items()}}}
        for k in range(10)]
    traced = json.loads(json.dumps(runs[0]))
    return {"workloads": {name: {"runs": runs, "traced": traced}
                          for name in WORKLOADS if name != drop}}


def run_compare(tmp_path, *sets, extra=()):
    """Write the sets to tmp, run the referee on them, return (code, out, err)."""
    paths = [tmp_path / f"set{index}.json" for index in range(len(sets))]
    for path, payload in zip(paths, sets):
        path.write_text(json.dumps(payload))
    completed = subprocess.run([sys.executable, "-m", "bench.compare", *map(str, paths), *extra],
                               capture_output=True, text=True, cwd=REPO)
    return completed.returncode, completed.stdout, completed.stderr


def verdicts(first, second):
    by_metric = {}
    for row in compare.compare_sets(first, second, CONTRACT):
        by_metric.setdefault(row["metric"], set()).add(row["verdict"])
    return by_metric


def test_passes_inside_bound(tmp_path):
    second = result_set(scale={"setup_s": 1.2, "pruning_speedup": 0.96,
                               "bulk_img_per_s": 0.8, "peak_rss_mb": 1.08})
    code, out, _ = run_compare(tmp_path, result_set(), second)
    assert code == 0 and ALL_WITHIN in out and "worse or unresolved" not in out


def test_fails_when_first_set_is_perturbed_beyond_bound(tmp_path):
    """The first set's throughput 40 % higher, the second unchanged: fail."""
    first = result_set(scale={"bulk_img_per_s": 1.4})
    code, out, _ = run_compare(tmp_path, first, result_set())
    assert code == 1 and f"{len(WORKLOADS)} worse or unresolved" in out
    assert verdicts(first, result_set())["bulk_img_per_s"] == {"worse"}


def test_fails_on_real_regression(tmp_path):
    code, out, _ = run_compare(tmp_path, result_set(), result_set(scale={"peak_rss_mb": 1.2}))
    worse = [line for line in out.splitlines() if line.endswith("worse")]
    assert code == 1 and len(worse) == len(WORKLOADS) and all("peak_rss_mb" in w for w in worse)


def test_improvement_beyond_bound_passes(tmp_path):
    second = result_set(scale={"setup_s": 0.5, "pruning_speedup": 1.5,
                               "bulk_img_per_s": 2.0, "peak_rss_mb": 0.5})
    code, out, _ = run_compare(tmp_path, result_set(), second)
    rows = compare.compare_sets(result_set(), second, CONTRACT)
    assert code == 0 and ALL_WITHIN in out and all(row["worse_by"] < -0.3 for row in rows)


def test_worse_by_exactly_the_bound_is_within_bound():
    for name, metric in E2E.items():
        step = round(100 * metric["bound"])  # exact: the bounds are whole percents
        sign = 1 if metric["better"] == "lower" else -1
        at, twice = (verdict([100.0] * 10, [100.0 + sign * k * step] * 10, metric["better"],
                             metric["bound"]) for k in (1, 2))
        assert at["worse_by"] == metric["bound"] and at["verdict"] == "within bound", name
        assert twice["verdict"] == "worse", name


def test_noisy_first_set_is_unresolved_not_within_bound(tmp_path):
    """Equal medians do not pass when the first set cannot resolve the bound."""
    first = result_set(noise={"pruning_speedup": 0.1})
    code, _, _ = run_compare(tmp_path, first, result_set())
    assert code == 1 and verdicts(first, result_set())["pruning_speedup"] == {"unresolved"}


def test_a_workload_missing_from_a_set_cannot_pass(tmp_path):
    code, out, err = run_compare(tmp_path, result_set(), result_set(drop="serve_fleet"))
    assert code != 0 and "within bound" not in out and "serve_fleet" in err


def test_a_metric_missing_from_a_run_cannot_pass(tmp_path):
    code, out, err = run_compare(tmp_path, result_set(), result_set(drop="pruning_speedup"))
    assert code != 0 and "within bound" not in out and "pruning_speedup" in err


def test_only_end_to_end_metrics_are_gated(tmp_path):
    """Per-layer metrics and the traced run are diagnostics, gated by no row."""
    first = result_set(per_layer={"lat_ms_p95": 5.0, "engine.compile_s": 0.1})
    second = result_set(per_layer={"lat_ms_p95": 50.0, "engine.compile_s": 1.0})
    for metric in second["workloads"]["serve_fleet"]["traced"]["metrics"].values():
        metric["value"] *= 10
    code, out, _ = run_compare(tmp_path, first, second)
    assert code == 0 and ALL_WITHIN in out


def test_missing_per_layer_metric_is_not_gated(tmp_path):
    """A per-layer metric only some hosts or layers report may be absent."""
    first = result_set(per_layer={"engine.pointwise.gemm_ms": 0.4})
    code, out, _ = run_compare(tmp_path, first, result_set())
    assert code == 0 and ALL_WITHIN in out


def test_rows_follow_the_contract_order():
    rows = compare.compare_sets(result_set(), result_set(), CONTRACT)
    assert [(row["workload"], row["metric"]) for row in rows] == [
        (workload, metric) for workload in WORKLOADS for metric in E2E]
    assert {row["runs"] for row in rows} == {(10, 10)}
    assert [row["bound"] for row in rows[:len(E2E)]] == [m["bound"] for m in E2E.values()]


def test_committed_contract_is_well_formed():
    """Every workload is one ``bench`` runs; every metric has a unit and a direction."""
    assert CONTRACT["paths"] == ["bench"] and set(E2E) == set(BASE)
    assert sorted(WORKLOADS) == sorted(load_config()["workloads"])
    assert all(workload["why"] for workload in CONTRACT["workloads"])
    per_layer = [metric["name"] for metric in CONTRACT["per_layer"]]
    assert len(per_layer) == len(set(per_layer)) and not set(per_layer) & set(E2E)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert metric["unit"] and metric["better"] in ("lower", "higher"), metric
        assert ("bound" in metric) == (metric["name"] in E2E), metric
    assert all(0.0 < metric["bound"] < 1.0 for metric in E2E.values())


def test_empty_contract_reports_cleanly():
    rows = compare.compare_sets(result_set(), result_set(), dict(CONTRACT, end_to_end=[]))
    assert rows == [] and compare.format_rows(rows).split()[::8] == ["workload", "verdict"]


def test_unreadable_set_exits_nonzero(tmp_path):
    code, out, _ = run_compare(tmp_path, result_set(), extra=[str(tmp_path / "nope.json")])
    assert code != 0 and "within bound" not in out


def test_wrong_argument_count_prints_usage(tmp_path):
    code, out, err = run_compare(tmp_path, result_set())
    assert code == 2 and out == "" and "python3 -m bench.compare A.json B.json" in err
