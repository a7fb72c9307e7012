"""InferenceService + load generators: equivalence, metrics, postprocess."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.metrics import Detection
from repro.engine import BatchRunner
from repro.serving import (
    BatchPolicy,
    InferenceService,
    ServiceClosedError,
    closed_loop,
    make_yolo_postprocess,
    open_loop,
)


@pytest.fixture
def service(serve_artifact):
    with InferenceService(serve_artifact,
                          policy=BatchPolicy(max_batch_size=4)) as svc:
        yield svc


class TestEquivalence:
    def test_submit_many_matches_sequential_batch_runner(self, serve_artifact, images):
        """The acceptance criterion: batched concurrent serving must reproduce
        sequential single-image BatchRunner outputs to 1e-5."""
        sequential = BatchRunner(serve_artifact.compiled, batch_size=1).run(images)
        with InferenceService(serve_artifact,
                              policy=BatchPolicy(max_batch_size=4)) as svc:
            served = svc.submit_many(images)
        assert served.shape == sequential.shape
        np.testing.assert_allclose(served, sequential, atol=1e-5, rtol=0)

    def test_single_submit_slices_keep_batch_axis(self, service, serve_artifact, images):
        out = service.submit(images[0]).result(30.0)
        assert out.shape[0] == 1
        np.testing.assert_allclose(out, serve_artifact.forward_raw(images[:1]),
                                   atol=1e-5, rtol=0)

    def test_service_by_artifact_path(self, artifact_path, serve_artifact, images):
        with InferenceService(artifact_path,
                              policy=BatchPolicy()) as svc:
            served = svc.submit_many(images[:4])
        np.testing.assert_allclose(served, serve_artifact.forward_raw(images[:4]),
                                   atol=1e-5, rtol=0)


class TestServedUnderConcurrency:
    """A closed-loop fleet through the service, without a clock: served ≡
    sequential, every request completes, micro-batches form.  Speed is
    refereed by ``python3 -m bench --workload serve_inproc``."""

    REQUESTS, CONCURRENCY = 96, 8

    def test_closed_loop_fleet_is_served_completely_and_in_batches(
            self, serve_artifact, images):
        stack = np.concatenate([images] * (self.REQUESTS // images.shape[0]))
        sequential = BatchRunner(serve_artifact.compiled, batch_size=1).run(stack)
        # Up to 8 requests a batch: what the clients queue while the previous
        # forward runs.
        policy = BatchPolicy(max_batch_size=self.CONCURRENCY)
        with InferenceService(serve_artifact, policy=policy) as svc:
            served = svc.submit_many(stack)
            load = closed_loop(svc, stack, requests=self.REQUESTS,
                               concurrency=self.CONCURRENCY)
            report = svc.report()
        # Served == sequential, every closed-loop request completes ...
        np.testing.assert_allclose(served, sequential, atol=1e-5, rtol=0)
        assert load.completed == self.REQUESTS
        assert load.failed == 0 and load.rejected == 0
        # ... and micro-batches actually form under concurrency.
        batches = report["batches"]
        assert batches["mean_size"] >= 2.0, batches
        assert batches["max_size"] <= self.CONCURRENCY
        assert any(int(size) > 1 for size in batches["size_histogram"]), batches


class TestLifecycleAndMetrics:
    def test_shutdown_then_submit_raises(self, serve_artifact, images):
        svc = InferenceService(serve_artifact)
        svc.submit(images[0]).result(30.0)
        svc.shutdown(30.0)
        with pytest.raises(ServiceClosedError):
            svc.submit(images[0])
        svc.shutdown(30.0)   # idempotent

    def test_report_structure(self, service, images):
        service.submit_many(images[:6])
        report = service.report()
        latency = report["latency"]
        assert latency["count"] == 6
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"):
            assert latency[key] >= 0.0
        assert report["throughput_rps"] > 0
        assert report["requests"]["completed"] == 6
        assert report["batches"]["count"] >= 2          # 6 requests, batches <= 4
        assert report["batches"]["max_size"] <= 4
        assert report["engine_modes"] == {"default": "fused"}
        assert report["policy"]["max_batch_size"] == 4
        assert "default" in report["engine"]
        assert report["engine"]["default"]["images"] == 6
        row = service.metrics.flat_row()
        assert row["completed"] == 6 and row["throughput_rps"] > 0

    def test_empty_submit_many_rejected(self, service):
        with pytest.raises(ValueError, match="no images"):
            service.submit_many(np.zeros((0, 3, 64, 64), dtype=np.float32))


class TestPostprocess:
    def test_yolo_postprocess_returns_detections(self, serve_artifact, images):
        postprocess = make_yolo_postprocess(serve_artifact.model, conf_threshold=0.01)
        with InferenceService(serve_artifact, postprocess=postprocess,
                              policy=BatchPolicy(max_batch_size=4)) as svc:
            per_image = svc.submit_many(images[:4])
        assert len(per_image) == 4
        for detections in per_image:
            assert isinstance(detections, list)
            for det in detections:
                assert isinstance(det, Detection)
                assert det.box.shape == (4,)

    def test_postprocess_failure_counts_as_failed(self, serve_artifact, images):
        """A postprocess exception fails the future AND the metrics: the failed
        request must not land in the success latency distribution."""
        calls = {"count": 0}

        def post(raw):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("decode boom")
            return raw

        with InferenceService(serve_artifact, postprocess=post,
                              policy=BatchPolicy(max_batch_size=1)) as svc:
            first = svc.submit(images[0])
            with pytest.raises(RuntimeError, match="decode boom"):
                first.result(30.0)
            svc.submit(images[1]).result(30.0)
            report = svc.report()
        assert report["requests"]["failed"] == 1
        assert report["requests"]["completed"] == 2
        assert report["latency"]["count"] == 1

    def test_postprocess_matches_direct_decode(self, serve_artifact, images):
        from repro.detection.postprocess import decode_yolo_single_scale

        model = serve_artifact.model
        raw = serve_artifact.forward_raw(images[:1])
        direct = decode_yolo_single_scale(
            raw, model.anchors, model.config.image_size, model.config.num_classes,
            conf_threshold=0.01)[0]
        postprocess = make_yolo_postprocess(model, conf_threshold=0.01)
        with InferenceService(serve_artifact, postprocess=postprocess) as svc:
            served = svc.submit(images[0]).result(30.0)
        assert len(served) == len(direct)
        for a, b in zip(served, direct):
            np.testing.assert_allclose(a.box, b.box, atol=1e-5)
            assert a.class_id == b.class_id


class TestLoadGenerators:
    def test_closed_loop_completes_all_requests(self, service, images):
        report = closed_loop(service, images, requests=16, concurrency=4)
        assert report.completed == 16
        assert report.failed == 0 and report.rejected == 0
        assert report.throughput_rps > 0
        summary = report.latency.summary()
        assert summary["count"] == 16
        assert summary["p99_ms"] >= summary["p50_ms"] >= 0.0
        row = report.flat_row()
        assert row["mode"] == "closed-loop" and row["completed"] == 16

    def test_open_loop_poisson_completes(self, service, images):
        report = open_loop(service, images, requests=12, rate_hz=400.0, seed=3)
        assert report.completed + report.rejected == 12
        assert report.failed == 0
        assert report.mode == "open-loop"
        assert report.as_dict()["latency"]["count"] == report.completed

    def test_open_loop_overload_rejects_not_hangs(self, serve_artifact, images):
        """Arrival rate far beyond service rate with a tiny queue: admission
        control must reject the overflow and the service must stay healthy."""
        policy = BatchPolicy(max_batch_size=1, queue_capacity=2)
        with InferenceService(serve_artifact, policy=policy) as svc:
            report = open_loop(svc, images, requests=50, rate_hz=100000.0)
            assert report.completed + report.rejected == 50
            assert report.rejected > 0, "overload must trigger admission rejection"
            assert report.failed == 0
            # The service keeps serving after the overload burst.
            after = svc.submit(images[0]).result(30.0)
            assert after.shape[0] == 1

    def test_loadgen_input_validation(self, service, images):
        with pytest.raises(ValueError, match="requests"):
            closed_loop(service, images, requests=0)
        with pytest.raises(ValueError, match="concurrency"):
            closed_loop(service, images, requests=1, concurrency=0)
        with pytest.raises(ValueError, match="rate_hz"):
            open_loop(service, images, requests=1, rate_hz=0.0)
        with pytest.raises(ValueError, match="image stack"):
            closed_loop(service, images[0], requests=1)
