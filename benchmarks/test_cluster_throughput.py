"""Cluster throughput — multi-process sharding vs one worker, plus fault drill.

PR 3's serving benchmark proved micro-batching beats sequential calls; this one
proves the *cluster* beats a single GIL-bound worker by actually using more
cores: a closed-loop fleet pushed through a 4-worker
:class:`repro.serving.cluster.Router` must deliver >= 1.8x the throughput of
the identical 1-worker cluster (skipped on hosts with < 4 cores, where the
workers would just time-slice one another), with outputs equal to a sequential
``BatchRunner`` within 1e-5, and a worker hard-killed mid-load must be
restarted with zero dropped requests.

Measured numbers are merged into ``BENCH_cluster.json`` next to this file for
the CI bench-regression gate (``make bench-check``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import BatchRunner, max_abs_output_diff
from repro.evaluation.tables import format_table
from repro.pipeline import Pipeline, RunSpec
from repro.pipeline.spec import ClusterSpec
from repro.serving import BatchPolicy, closed_loop
from repro.serving.cluster import Router

IMAGE_SIZE = 64
REQUESTS = 160
CONCURRENCY = 16
MAX_BATCH = 8
MAX_WAIT_MS = 2.0
WORKERS = 4

# Acceptance floor: 4-worker cluster throughput vs the identical 1-worker setup.
MIN_CLUSTER_SPEEDUP = 1.8

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_cluster.json"

CLUSTER_SPEC = {
    "name": "tiny_cluster_bench",
    "seed": 0,
    "model": {"name": "tiny",
              "kwargs": {"num_classes": 3, "image_size": IMAGE_SIZE, "base_channels": 16}},
    "framework": {"name": "rtoss-2ep", "trace_size": IMAGE_SIZE},
    "engine": {"enabled": True, "measure": False, "image_size": IMAGE_SIZE,
               "batch": 1, "repeats": 1},
    "evaluation": {"enabled": False},
    "serve": {"enabled": True, "max_batch_size": MAX_BATCH, "max_wait_ms": MAX_WAIT_MS,
              "queue_capacity": 256, "workers": WORKERS},
}


def _merge_results(update: dict) -> None:
    merged = {}
    if RESULT_PATH.exists():
        merged = json.loads(RESULT_PATH.read_text())
    merged.update(update)
    RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")


@pytest.fixture(scope="module")
def cluster_artifact_path(tmp_path_factory):
    """One pruned + compiled TinyDetector artifact all cluster benchmarks load."""
    artifact = Pipeline.from_spec(RunSpec.from_dict(CLUSTER_SPEC)).run()
    path = tmp_path_factory.mktemp("cluster-bench") / "tiny_cluster_bench.npz"
    return artifact, str(artifact.save(str(path)))


def _policy() -> BatchPolicy:
    return BatchPolicy(max_batch_size=MAX_BATCH, max_wait_ms=MAX_WAIT_MS,
                       queue_capacity=256)


def _images(count: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.standard_normal((count, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


@pytest.mark.benchmark(group="cluster")
def test_cluster_outputs_match_sequential_batch_runner(benchmark, cluster_artifact_path):
    """Correctness gate: sharding across processes must not change outputs."""
    artifact, path = cluster_artifact_path
    images = _images(32)

    def measure():
        sequential = BatchRunner(artifact.compiled, batch_size=1).run(images)
        with Router(path, workers=2, policy=_policy()) as router:
            served = router.submit_many(images, timeout=120.0)
        return float(max_abs_output_diff(served, sequential))

    max_diff = benchmark.pedantic(measure, rounds=1, iterations=1)
    _merge_results({"max_abs_diff": max_diff})
    assert max_diff < 1e-5


@pytest.mark.benchmark(group="cluster")
def test_killed_worker_restarts_with_zero_dropped_requests(benchmark, cluster_artifact_path):
    """Fault drill: hard-kill a worker mid-load; every request still completes."""
    _, path = cluster_artifact_path
    images = _images(16)

    def measure():
        with Router(path, workers=2, policy=_policy(),
                    cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
            futures = [router.submit(images[i % 16], block=True, timeout=60.0)
                       for i in range(64)]
            router.workers[0].kill()
            for future in futures:
                future.result(120.0)
            # A fast worker may have drained its share before the kill landed:
            # then nothing waits on the restart, so wait for the monitor's tick.
            deadline = time.monotonic() + 30.0
            while router.metrics.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            report = router.metrics.report()["cluster"]
        return report

    report = benchmark.pedantic(measure, rounds=1, iterations=1)
    _merge_results({"restart_drill": report})
    assert report["completed"] == 64
    assert report["failed"] == 0
    assert report["restarts"] >= 1


@pytest.mark.benchmark(group="cluster")
@pytest.mark.skipif((os.cpu_count() or 1) < WORKERS,
                    reason=f"cluster scaling needs >= {WORKERS} cores "
                           f"(host has {os.cpu_count()})")
def test_cluster_throughput_scales(benchmark, cluster_artifact_path):
    _, path = cluster_artifact_path
    images = _images(REQUESTS)

    def measure():
        results = {}
        for workers in (1, WORKERS):
            with Router(path, workers=workers, policy=_policy(),
                        routing="least-outstanding") as router:
                router.submit_many(images[:MAX_BATCH], timeout=120.0)   # warm all workers
                load = closed_loop(router, images, requests=REQUESTS,
                                   concurrency=CONCURRENCY)
            results[workers] = load
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    single, clustered = results[1], results[WORKERS]
    speedup = clustered.throughput_rps / single.throughput_rps

    row = {
        "requests": REQUESTS,
        "concurrency": CONCURRENCY,
        "one_worker_rps": round(single.throughput_rps, 1),
        f"{WORKERS}_worker_rps": round(clustered.throughput_rps, 1),
        "speedup": round(speedup, 2),
        "p50_ms": clustered.latency.summary()["p50_ms"],
        "p99_ms": clustered.latency.summary()["p99_ms"],
    }
    print()
    print(format_table([row], title=f"Cluster throughput, {WORKERS} workers vs 1 "
                                    f"(closed loop, {os.cpu_count()} cores)"))
    _merge_results({
        "speedup": speedup,
        "one_worker_rps": single.throughput_rps,
        "cluster_rps": clustered.throughput_rps,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
    })

    assert single.completed == REQUESTS and clustered.completed == REQUESTS
    assert single.failed == 0 and clustered.failed == 0
    assert speedup >= MIN_CLUSTER_SPEEDUP, (
        f"{WORKERS}-worker cluster only {speedup:.2f}x over one worker "
        f"(needs >= {MIN_CLUSTER_SPEEDUP}x)"
    )
