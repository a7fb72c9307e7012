"""One metrics store: the obs-registry instruments each serving metrics class
owns are what ``report()`` reads *and* what ``registry.snapshot()`` /
``to_prometheus()`` export.  No clock is read here: every expectation is a
count, or one view compared with the other.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.obs.registry import Sample, get_registry
from repro.serving import ClusterMetrics, GatewayMetrics, ServingMetrics
from repro.utils.profiling import percentile

THREADS, ROUNDS = 8, 400


# --------------------------------------------------------------- drive + expect
def drive_serving(metrics):
    metrics.record_admission(5, 3)
    metrics.record_admission(6)
    metrics.record_rejection("queue_full", "low", 2)
    metrics.record_rejection("deadline", "high")
    metrics.record_expiry("low", 2)
    metrics.record_batch(3, 0.004, [(0.010, 2, 0), (0.020, 1, 1)])    # one failed run
    metrics.record_batch(1, 0.002, [(0.005, 1, 0)])
    metrics.record_completion(0.030, 4, 1)


def drive_gateway(metrics):
    metrics.connection_opened()
    metrics.connection_opened()
    metrics.connection_closed()
    metrics.record_accept("high", 5)
    metrics.record_accept("low", 2)
    metrics.record_reject("admission_rejected", "low", 3)
    metrics.record_expiry("low", 2)
    metrics.record_completion("high", 0.010, count=4)
    metrics.record_completion("high", 0.500, failed=True)             # one failed run
    metrics.record_completion("low", 0.020)


def drive_cluster(metrics):
    metrics.record_submit("w0", 4)
    metrics.record_submit("w1", 3)
    metrics.record_completion("w0", 0.010, count=4)
    metrics.record_completion("w1", 0.030)
    metrics.record_completion("w1", 0.500, failed=True, count=2)      # one failed run
    metrics.record_restart("w1")
    metrics.record_redispatch("w1", 2)
    metrics.record_shed("low", 3)
    metrics.record_swap()


def summary_series(prefix, summary, **labels):
    """The exported series a ``LatencyStats.summary()`` dict must agree with
    (the summary export carries quantiles, sum and count -- not the max)."""
    return {
        (prefix + "_count", *labels.items()): summary["count"],
        (prefix + "_sum", *labels.items()): pytest.approx(
            summary["mean_ms"] * summary["count"] / 1e3, abs=1e-6 * max(1, summary["count"])),
        **{(prefix, ("quantile", text), *labels.items()): pytest.approx(summary[key] / 1e3, abs=1e-6)
           for text, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms"))},
    }


def expect_serving(report):
    requests, batches = report["requests"], report["batches"]
    series = {("repro_serving_requests_total", ("outcome", outcome)): requests[outcome]
              for outcome in ("admitted", "completed", "failed", "rejected")}
    for key, count in requests["rejected_by"].items():
        reason, cls = key.split("/")
        series["repro_serving_rejects_total", ("reason", reason), ("class", cls)] = count
    for cls, count in requests["expired"].items():
        series["repro_serving_deadline_expiries_total", ("class", cls)] = count
    for size, count in batches["size_histogram"].items():
        series["repro_serving_batches_total", ("size", size)] = count
    series["repro_serving_queue_depth_max",] = report["queue"]["max_depth"]
    series["repro_serving_admission_depth_total",] = pytest.approx(
        report["queue"]["mean_depth"] * requests["admitted"], abs=0.005 * requests["admitted"])
    series["repro_serving_throughput_rps",] = pytest.approx(report["throughput_rps"], abs=0.005)
    series["repro_serving_batch_seconds", ("quantile", "0.5")] = pytest.approx(
        batches["p50_batch_ms"] / 1e3, abs=1e-6)
    series["repro_serving_batch_seconds_count",] = batches["count"]
    series.update(summary_series("repro_serving_latency_seconds", report["latency"]))
    return series


def expect_gateway(report):
    series = {("repro_gateway_connections",): report["connections"]["open"],
              ("repro_gateway_connections_total",): report["connections"]["total"]}
    for outcome in ("accepted", "completed", "failed"):
        for cls, count in report["requests"][outcome].items():
            series["repro_gateway_requests_total", ("outcome", outcome), ("class", cls)] = count
    for key, count in report["requests"]["rejected"].items():
        reason, cls = key.split("/")
        series["repro_gateway_rejects_total", ("reason", reason), ("class", cls)] = count
    for cls, count in report["requests"]["expired"].items():
        series["repro_gateway_deadline_expiries_total", ("class", cls)] = count
    for cls, summary in report["latency"].items():
        series.update(summary_series("repro_gateway_latency_seconds", summary, **{"class": cls}))
    return series


def expect_cluster(report):
    series = {}
    for worker, row in report["workers"].items():
        for outcome in ("submitted", "completed", "failed"):
            series["repro_cluster_requests_total", ("worker", worker),
                   ("outcome", outcome)] = row[outcome]
        series["repro_cluster_restarts_total", ("worker", worker)] = row["restarts"]
        series["repro_cluster_redispatched_total", ("worker", worker)] = row["redispatched"]
        series.update(summary_series(
            "repro_cluster_worker_latency_seconds", row["latency"], worker=worker))
    cluster = report["cluster"]
    series.update(summary_series("repro_cluster_latency_seconds", cluster["latency"]))
    for priority, count in cluster["shed"].items():
        series["repro_cluster_shed_total", ("priority", priority)] = count
    series["repro_cluster_swaps_total",] = cluster["swaps"]
    series["repro_cluster_throughput_rps",] = pytest.approx(cluster["throughput_rps"], abs=0.005)
    return series


CASES = {
    "serving": (ServingMetrics, "service", drive_serving, expect_serving),
    "gateway": (GatewayMetrics, "gateway", drive_gateway, expect_gateway),
    "cluster": (ClusterMetrics, "cluster", drive_cluster, expect_cluster),
}


def exported(expected, owner_label, name):
    """``{snapshot key: expected value}`` under the owner's constant label."""
    return {Sample(series[0], dict(series[1:], **{owner_label: name}), 0.0).key(): value
            for series, value in expected.items()}


def owned_by(snapshot, owner_label, name):
    return {key: value for key, value in snapshot.items() if f'{owner_label}="{name}"' in key}


# ------------------------------------------------------------------- two views
@pytest.mark.parametrize("kind", sorted(CASES))
class TestTwoViewsOneStore:
    def test_every_reported_number_is_an_exported_series(self, kind):
        cls, owner_label, drive, expect = CASES[kind]
        metrics = cls(name=f"views-{kind}")
        drive(metrics)
        report = metrics.report()
        snapshot = get_registry().snapshot()
        prometheus = get_registry().to_prometheus()
        expected = exported(expect(report), owner_label, metrics.name)
        assert len(expected) >= 12              # the drive reached every record_* method
        for key, value in expected.items():
            if value == 0 and key not in snapshot:
                continue                        # a report row lists a zero the store never counted
            assert snapshot[key] == value, key
            assert f"{key} " in prometheus, key

    def test_reset_zeroes_both_views(self, kind):
        cls, owner_label, drive, expect = CASES[kind]
        metrics = cls(name=f"reset-{kind}")
        drive(metrics)
        fresh = cls(name="never-driven", register=False).report()
        if kind == "gateway":                   # the live connection gauges survive a reset
            fresh["connections"] = metrics.report()["connections"]
        metrics.reset()
        assert metrics.report() == fresh
        survivors = {key: value for key, value
                     in owned_by(get_registry().snapshot(), owner_label, metrics.name).items()
                     if value}
        assert sorted(key.split("{")[0] for key in survivors) == (
            ["repro_gateway_connections", "repro_gateway_connections_total"]
            if kind == "gateway" else [])
        # ... and the store still counts afterwards: nothing detached.
        drive(metrics)
        expected = exported(expect(metrics.report()), owner_label, metrics.name)
        snapshot = get_registry().snapshot()
        assert all(snapshot.get(key, 0) == value for key, value in expected.items())

    def test_a_collected_instance_leaves_the_next_snapshot(self, kind):
        cls, owner_label, drive, _ = CASES[kind]
        metrics = cls(name=f"mortal-{kind}")
        drive(metrics)
        assert owned_by(get_registry().snapshot(), owner_label, f"mortal-{kind}")
        del metrics
        gc.collect()
        assert not owned_by(get_registry().snapshot(), owner_label, f"mortal-{kind}")

    def test_register_false_publishes_nothing(self, kind):
        cls, owner_label, drive, _ = CASES[kind]
        metrics = cls(name=f"private-{kind}", register=False)
        drive(metrics)
        assert not owned_by(get_registry().snapshot(), owner_label, metrics.name)

    def test_two_live_instances_with_one_name_share_nothing(self, kind):
        cls, _, drive, _ = CASES[kind]
        first, second = cls(name=f"twin-{kind}"), cls(name=f"twin-{kind}")
        drive(first)
        untouched = cls(name="never-driven", register=False).report()
        assert second.report() == untouched
        drive(second)
        drive(second)
        assert first.report() != second.report()


def test_the_cluster_totals_are_sums_of_the_worker_series():
    metrics = ClusterMetrics(register=False)
    drive_cluster(metrics)
    report = metrics.report()
    for column in ("completed", "failed", "restarts", "redispatched"):
        assert report["cluster"][column] == sum(row[column] for row in report["workers"].values())
    assert (metrics.completed, metrics.restarts, metrics.redispatched) == (5, 1, 2)
    assert report["cluster"]["latency"]["count"] == 5          # 4 + 1: the failed run has none
    assert report["cluster"]["latency"]["max_ms"] == 30.0


def test_a_burst_larger_than_the_queue_keeps_the_depth_sum_a_count():
    """A blocking burst drains while it is admitted, so the final depth is
    below its size: the closed-form depth sum must not go negative."""
    metrics = ServingMetrics(register=False)
    metrics.record_admission(2, 16)
    assert metrics.report()["queue"] == {"mean_depth": round((1 + 2 + 14) / 16, 2), "max_depth": 2}
    metrics.record_admission(8, 4)              # the usual case: depths 5..8
    assert metrics.report()["queue"]["mean_depth"] == round((17 + 26) / 20, 2)


@pytest.mark.parametrize("as_one_run", [True, False])
def test_the_reported_p95_weighs_a_run_by_its_image_count(as_one_run):
    """The latency distribution counts images, not reply frames."""
    metrics = ClusterMetrics(register=False)
    for latency_ms in (1.0, 2.0, 3.0, 4.0):          # the 3.85 ms case of test_cluster.py ...
        metrics.record_completion("w0", latency_ms / 1e3)
    assert metrics.report()["cluster"]["latency"]["p95_ms"] == pytest.approx(3.85)
    # ... then four images at 10 ms, as one reply frame or as four.
    if as_one_run:
        metrics.record_completion("w0", 0.010, count=4)
    else:
        for _ in range(4):
            metrics.record_completion("w0", 0.010)
    weighted = percentile([1.0, 2.0, 3.0, 4.0] + [10.0] * 4, 95.0)
    assert weighted != percentile([1.0, 2.0, 3.0, 4.0, 10.0], 95.0)    # frames would say 8.8
    assert metrics.report()["cluster"]["latency"]["p95_ms"] == pytest.approx(weighted)


# ----------------------------------------------------------- lock discipline
def hammer(record):
    """Run ``record(thread index)`` from more threads than cores under a short
    switch interval, so a lost update between a read and its write would show."""
    def loop(index):
        for _ in range(ROUNDS):
            record(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=loop, args=(index,)) for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)


class TestRecordPathsLoseNothingUnderThreads:
    TOTAL = THREADS * ROUNDS

    def test_serving(self):
        metrics = ServingMetrics(register=False)

        def record(_):
            metrics.record_admission(4, 2)
            metrics.record_rejection("queue_full", "low")
            metrics.record_expiry("low")
            metrics.record_batch(2, 0.001, [(0.002, 2, 0)])
            metrics.record_completion(0.003, 3, 1)

        hammer(record)
        report = metrics.report()
        assert report["requests"] == {
            "admitted": 2 * self.TOTAL, "completed": 5 * self.TOTAL, "failed": self.TOTAL,
            "rejected": self.TOTAL, "rejected_by": {"queue_full/low": self.TOTAL},
            "expired": {"low": self.TOTAL}}
        assert report["latency"]["count"] == 4 * self.TOTAL
        assert report["batches"]["count"] == self.TOTAL
        assert report["batches"]["size_histogram"] == {"2": self.TOTAL}
        assert report["queue"] == {"mean_depth": 3.5, "max_depth": 4}

    def test_gateway(self):
        metrics = GatewayMetrics(register=False)

        def record(_):
            metrics.connection_opened()
            metrics.record_accept("high", 2)
            metrics.record_reject("queue_full", "low")
            metrics.record_expiry("low")
            metrics.record_completion("high", 0.002, count=2)
            metrics.record_completion("high", 0.002, failed=True)
            metrics.connection_closed()

        hammer(record)
        report = metrics.report()
        assert report["connections"] == {"open": 0, "total": self.TOTAL}
        assert report["requests"] == {
            "accepted": {"high": 2 * self.TOTAL}, "rejected": {"queue_full/low": self.TOTAL},
            "expired": {"low": self.TOTAL}, "completed": {"high": 2 * self.TOTAL},
            "failed": {"high": self.TOTAL}}
        assert report["latency"]["high"]["count"] == 2 * self.TOTAL

    def test_cluster(self):
        metrics = ClusterMetrics(register=False)

        def record(index):
            worker = f"w{index % 2}"
            metrics.record_submit(worker, 2)
            metrics.record_completion(worker, 0.002, count=2)
            metrics.record_completion(worker, 0.002, failed=True)
            metrics.record_restart("w0")
            metrics.record_redispatch(worker, 3)
            metrics.record_shed("low", 2)
            metrics.record_swap()

        hammer(record)
        report = metrics.report()
        half = self.TOTAL // 2
        assert report["workers"]["w1"] == {
            "submitted": 2 * half, "completed": 2 * half, "failed": half,
            "redispatched": 3 * half, "restarts": 0,
            "latency": report["workers"]["w1"]["latency"]}
        assert report["workers"]["w1"]["latency"]["count"] == 2 * half
        cluster = report["cluster"]
        assert (cluster["completed"], cluster["failed"]) == (2 * self.TOTAL, self.TOTAL)
        assert (cluster["restarts"], cluster["redispatched"]) == (self.TOTAL, 3 * self.TOTAL)
        assert cluster["shed"] == {"low": 2 * self.TOTAL} and cluster["swaps"] == self.TOTAL
        assert cluster["latency"]["count"] == 2 * self.TOTAL
