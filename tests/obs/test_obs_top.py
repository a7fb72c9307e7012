"""repro top rendering: pure snapshot->frame function + the file source."""

from __future__ import annotations

import io
import json

from repro.obs.top import TopView, file_source, render


def service_snapshot():
    return {
        "ts": 1700000000.0,
        "name": "demo",
        "report": {
            "requests": {"completed": 32, "failed": 1, "rejected": 0},
            "queue": {"max_depth": 4},
            "latency": {"p50_ms": 8.1, "p95_ms": 9.9, "p99_ms": 10.4},
            "throughput_rps": 480.5,
            "engine_modes": {"default": "fused"},
        },
        "metrics": {
            'repro_requests_total{service="demo",outcome="completed"}': 32.0,
            "repro_queue_depth": 4.0,  # gauge: not shown in the counters section
        },
    }


def cluster_snapshot():
    return {
        "ts": 1700000000.0,
        "name": "demo",
        "report": {
            "cluster": {"completed": 32, "failed": 0, "restarts": 1,
                        "redispatched": 2, "throughput_rps": 480.0},
            "workers": {
                "worker-0": {"completed": 16, "failed": 0, "restarts": 1,
                             "latency": {"p50_ms": 7.8, "p95_ms": 9.3,
                                         "p99_ms": 9.6}},
                "worker-1": {"completed": 16, "failed": 0, "restarts": 0,
                             "latency": {"p50_ms": 8.3, "p95_ms": 9.9,
                                         "p99_ms": 10.2}},
            },
            "worker_services": {
                "worker-0": {"throughput_rps": 325.1, "queue": {"max_depth": 11},
                             "engine_modes": {"default": "fused"}},
                "worker-1": {"throughput_rps": 347.4, "queue": {"max_depth": 9},
                             "engine_modes": {"default": "eager"}},
            },
        },
        "metrics": {},
    }


class TestRender:
    def test_waiting_frame_when_no_snapshot(self):
        assert "waiting for a snapshot" in render(None)

    def test_service_frame_has_one_in_process_row(self):
        frame = render(service_snapshot())
        assert "repro top — service [demo]" in frame
        row = next(line for line in frame.splitlines() if "in-process" in line)
        assert "32" in row and "480.5" in row and "fused" in row

    def test_service_frame_lists_counter_series_from_the_registry(self):
        frame = render(service_snapshot())
        assert "registry:" in frame
        assert 'repro_requests_total{service="demo",outcome="completed"} = 32' in frame
        assert "repro_queue_depth" not in frame  # only counters make the cut

    def test_cluster_frame_has_one_row_per_worker_and_a_summary(self):
        frame = render(cluster_snapshot())
        assert "repro top — cluster [demo]" in frame
        lines = frame.splitlines()
        worker0 = next(line for line in lines if line.startswith("worker-0"))
        worker1 = next(line for line in lines if line.startswith("worker-1"))
        assert "325.1" in worker0 and "fused" in worker0 and "11" in worker0
        assert "eager" in worker1
        assert any("32 completed" in line and "2 redispatched" in line
                   for line in lines)

    def test_frame_respects_width(self):
        frame = render(cluster_snapshot(), width=40)
        assert all(len(line) <= 40 for line in frame.splitlines())


class TestFileSource:
    def test_reads_latest_json(self, tmp_path):
        path = tmp_path / "snapshot.json"
        source = file_source(str(path))
        assert source() is None  # not written yet
        path.write_text(json.dumps(service_snapshot()))
        assert source()["name"] == "demo"

    def test_torn_write_yields_none_instead_of_crashing(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_text('{"half": ')
        assert file_source(str(path))() is None


class TestTopView:
    def test_once_renders_a_single_frame(self, monkeypatch):
        out = io.StringIO()
        monkeypatch.setattr("sys.stdout", out)
        assert TopView(lambda: service_snapshot()).run(once=True) == 0
        assert out.getvalue().count("repro top —") == 1

    def test_plain_loop_honours_max_frames(self, monkeypatch):
        out = io.StringIO()
        monkeypatch.setattr("sys.stdout", out)
        view = TopView(lambda: service_snapshot(), interval=0.1)
        assert view.run(plain=True, max_frames=2) == 0
        assert out.getvalue().count("repro top —") == 2
