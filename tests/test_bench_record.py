"""tools/bench_record.py: the history line is a faithful summary of a result set."""

from __future__ import annotations

import json
import statistics
import subprocess

from tools import bench_record


def result_set(values_by_metric, traced, seeds=(4, 5, 6)):
    runs = [{"correct": True, "attempted": 10, "failed": 0, "seed": seed,
             "metrics": {name: {"value": values[index], "unit": unit}
                         for name, (unit, values) in values_by_metric.items()}}
            for index, seed in enumerate(seeds)]
    return {"host": {"nproc": 2, "seed": 4, "git_commit": "abc"}, "seconds": 20,
            "workloads": {"serve_fleet": {
                "runs": runs,
                "traced": {"attempted": 7, "failed": 1,
                           "metrics": {name: {"value": value, "unit": "x"}
                                       for name, value in traced.items()}}}}}


def throwaway_repository(root):
    """A git repository of one commit at ``root``, owned by the test."""
    def git(*args):
        subprocess.run(["git", "-c", "user.name=test", "-c", "user.email=test@example.invalid",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=root, check=True, capture_output=True)

    git("init", "-q")
    (root / "measured.txt").write_text("the tree a line names\n")
    git("add", "-A")
    git("commit", "-q", "-m", "one commit")


def test_line_carries_median_and_quartiles_per_metric_and_workload(tmp_path, monkeypatch):
    # The line names a tree; the test owns its repository, so it runs the same
    # in a clone and in an export without .git.
    throwaway_repository(tmp_path)
    monkeypatch.setattr(bench_record, "REPO_ROOT", str(tmp_path))
    values = {"bulk_img_per_s": ("img/s", [4000.0, 4200.0, 3900.0]),
              "peak_rss_mb": ("MiB", [230.0, 231.0, 229.0])}
    line = bench_record.build_line(
        result_set(values, {"gateway.bulk_ratio": 1.0, "engine.compile_s": 0.0}), "PR 16")
    assert line["label"] == "PR 16" and line["seconds"] == 20
    assert line["host"] == {"nproc": 2, "git_commit": "abc"}      # the seed is per run
    fleet = line["workloads"]["serve_fleet"]
    assert fleet["seeds"] == [4, 5, 6]
    q1, median, q3 = statistics.quantiles(values["bulk_img_per_s"][1], n=4)
    assert fleet["end_to_end"]["bulk_img_per_s"] == {
        "median": median, "q1": q1, "q3": q3, "unit": "img/s"}
    # Layers off the workload's path report 0 and are left out of the line.
    assert fleet["traced"] == {"gateway.bulk_ratio": 1.0}
    assert fleet["failed"] == 1 and fleet["attempted"] == 37
    # The line names the tree it measured, not only the (parent) commit it sat on.
    assert len(line["tree"]) == 40 and line["tree"] == bench_record.tree_hash()
    json.dumps(line)                                                # one JSON line


def test_a_single_run_is_its_own_quartiles():
    assert bench_record.summarise_values([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5}


def test_a_late_load_generator_marks_its_workload_invalid():
    """The traced run's generator lag p99 above ``lag_limit_ms`` of
    ``bench/workloads.json`` (bench/README.md's validity rule) makes the line
    say so, with the reason; at or under the limit the workload is valid."""
    limit = bench_record.lag_limit_ms()
    values = {"bulk_img_per_s": ("img/s", [4000.0, 4200.0, 3900.0])}
    late = bench_record.build_line(result_set(values, {"loadgen.lag_ms_p99": 13.4}), "late")
    fleet = late["workloads"]["serve_fleet"]
    assert limit == 10.0 and fleet["valid"] is False
    assert fleet["reason"] == "loadgen.lag_ms_p99 13.4 ms > lag_limit_ms 10 ms"
    for lag in (limit, 2.4):
        line = bench_record.build_line(result_set(values, {"loadgen.lag_ms_p99": lag}), "ok")
        fleet = line["workloads"]["serve_fleet"]
        assert fleet["valid"] is True and "reason" not in fleet
    # a workload without a generator (frames_*) traces no lag: valid
    line = bench_record.build_line(result_set(values, {"engine.compile_s": 0.2}), "frames")
    assert line["workloads"]["serve_fleet"]["valid"] is True
