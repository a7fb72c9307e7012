"""``bench.compare`` reads two result sets and gives a verdict per row."""

import json

from bench import compare
from bench.common import load_contract


def _result_set(contract, scale=1.0, noisy_metric=None):
    """Ten runs per workload; every metric steady unless named ``noisy_metric``."""
    workloads = {}
    for workload in contract["workloads"]:
        runs = []
        for k in range(10):
            metrics = {}
            for index, metric in enumerate(contract["end_to_end"]):
                value = (index + 1) * 10.0 * (1 + 0.001 * k)
                if metric["better"] == "lower":
                    value *= scale
                if metric["name"] == noisy_metric:
                    value *= 1.0 + 0.2 * (k % 2)
                metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            runs.append({"seed": k, "correct": True, "attempted": 1, "failed": 0,
                         "metrics": metrics})
        workloads[workload["name"]] = {"runs": runs}
    return {"workloads": workloads}


def test_identical_sets_are_within_bound_everywhere():
    contract = load_contract()
    rows = compare.compare_sets(_result_set(contract), _result_set(contract), contract)
    assert len(rows) == len(contract["workloads"]) * len(contract["end_to_end"])
    assert {row["verdict"] for row in rows} == {"within bound"}


def test_a_regression_and_a_noisy_metric_are_named(tmp_path, capsys):
    contract = load_contract()
    first = _result_set(contract)
    second = _result_set(contract, scale=1.5, noisy_metric="pruning_speedup")
    rows = compare.compare_sets(first, second, contract)
    by_metric = {}
    for row in rows:
        by_metric.setdefault(row["metric"], set()).add(row["verdict"])
    assert by_metric["peak_rss_mb"] == {"worse"}          # lower is better, 50 % up
    assert by_metric["setup_s"] == {"worse"}
    assert by_metric["pruning_speedup"] == {"unresolved"}  # its own spread > bound
    assert by_metric["bulk_img_per_s"] == {"within bound"}

    paths = []
    for name, result_set in (("a.json", first), ("b.json", second)):
        path = tmp_path / name
        path.write_text(json.dumps(result_set))
        paths.append(str(path))
    assert compare.main(paths) == 1
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([paths[0], paths[0]]) == 0
