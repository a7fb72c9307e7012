"""Self time is a span's duration minus what its children cover."""

import json

import pytest

from bench.spans import SpanRecorder


def test_self_time_subtracts_the_union_of_children():
    rec = SpanRecorder()
    parent = rec.add("request", 0.0, 10.0, request=7)
    rec.add("queue", 1.0, 4.0, parent, 7)
    rec.add("execute", 3.0, 6.0, parent, 7)          # overlaps the queue span
    rec.add("execute", 8.0, 12.0, parent, 7)         # runs past its parent
    times = rec.self_times()
    assert times["request"] == pytest.approx(10.0 - (5.0 + 2.0))
    assert times["queue"] == pytest.approx(3.0)
    assert times["execute"] == pytest.approx(7.0)
    assert rec.duration("execute") == pytest.approx(7.0)


def test_context_manager_nests_and_writes(tmp_path):
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("setup") as outer:
        with rec.span("compile", outer):
            pass
    assert [(s["name"], s["start"], s["end"], s["parent"]) for s in rec.spans] == [
        ("setup", 0.0, 3.0, None), ("compile", 1.0, 2.0, 0)]
    path = tmp_path / "trace.json"
    rec.write(str(path), workload="w")
    written = json.loads(path.read_text())
    assert written["workload"] == "w"
    assert written["self_time_s"] == {"setup": 2.0, "compile": 1.0}
    assert len(written["spans"]) == 2
