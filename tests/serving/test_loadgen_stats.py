"""Load-generator statistics + percentile machinery edge cases.

The serving benchmarks lean on two statistical claims: the open-loop generator
really draws Poisson (exponential inter-arrival) traffic, and the closed-loop
generator really bounds concurrency at its client count.  Both are pinned
here against a fake service so no model inference muddies the numbers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serving import (
    ClassLoad,
    ClusterMetrics,
    InferenceFuture,
    closed_loop,
    mixed_priority_load,
    open_loop,
    poisson_gaps,
)
from repro.utils.profiling import LatencyStats, percentile


# ------------------------------------------------------------------ poisson gaps
class TestPoissonGaps:
    def test_mean_matches_rate_under_fixed_seed(self):
        rate = 200.0
        gaps = poisson_gaps(rate, 4000, seed=0)
        assert gaps.shape == (4000,)
        # Sample mean of Exp(rate) converges on 1/rate; 4000 draws put the
        # standard error at ~1.6%, so 10% is a comfortably deterministic bound.
        assert abs(gaps.mean() - 1.0 / rate) / (1.0 / rate) < 0.10

    def test_exponential_shape_std_close_to_mean(self):
        gaps = poisson_gaps(50.0, 4000, seed=1)
        # For an exponential distribution the std equals the mean.
        assert abs(gaps.std() - gaps.mean()) / gaps.mean() < 0.15

    def test_reproducible_and_seed_sensitive(self):
        np.testing.assert_array_equal(poisson_gaps(100.0, 64, seed=3),
                                      poisson_gaps(100.0, 64, seed=3))
        assert not np.array_equal(poisson_gaps(100.0, 64, seed=3),
                                  poisson_gaps(100.0, 64, seed=4))

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_hz"):
            poisson_gaps(0.0, 4)
        with pytest.raises(ValueError, match="count"):
            poisson_gaps(10.0, 0)

    def test_open_loop_consumes_the_same_schedule(self, monkeypatch):
        """open_loop must dispatch on exactly the poisson_gaps schedule."""
        import repro.serving.loadgen as loadgen

        seen = {}
        real = loadgen.poisson_gaps

        def spy(rate_hz, count, seed=0):
            gaps = real(rate_hz, count, seed=seed)
            seen["gaps"] = gaps
            return gaps

        monkeypatch.setattr(loadgen, "poisson_gaps", spy)
        service = ImmediateFakeService()
        images = np.zeros((2, 3, 8, 8), dtype=np.float32)
        report = open_loop(service, images, requests=16, rate_hz=5000.0, seed=11)
        assert report.completed == 16
        np.testing.assert_array_equal(seen["gaps"], real(5000.0, 16, seed=11))


# ------------------------------------------------------------------ fake services
class ImmediateFakeService:
    """Resolves every future synchronously (zero service time)."""

    def __init__(self):
        self.submitted = 0

    def submit(self, image, block=False, timeout=None):
        self.submitted += 1
        future = InferenceFuture()
        future._resolve(np.zeros((1, 1), dtype=np.float32))
        return future


class ConcurrencyTrackingService:
    """Resolves futures from a worker thread and records peak concurrency."""

    def __init__(self, service_time: float = 0.001):
        self._lock = threading.Lock()
        self._outstanding = 0
        self.peak_outstanding = 0
        self.submitted = 0
        self._service_time = service_time

    def submit(self, image, block=False, timeout=None):
        future = InferenceFuture()
        with self._lock:
            self.submitted += 1
            self._outstanding += 1
            self.peak_outstanding = max(self.peak_outstanding, self._outstanding)

        def resolve():
            with self._lock:
                self._outstanding -= 1
            future._resolve(np.zeros((1, 1), dtype=np.float32))

        timer = threading.Timer(self._service_time, resolve)
        timer.daemon = True
        timer.start()
        return future


# ------------------------------------------------------------------ open loop
class FakeClock:
    """A clock that only moves when somebody sleeps on it (or a submit stalls)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class StallOnceService:
    """Every reply takes ``service_s``; the ``stall_at``-th ``submit`` call
    also blocks its caller -- the one dispatcher thread -- for ``stall_s``."""

    def __init__(self, clock, stall_at, stall_s, service_s):
        self.clock, self.stall_at, self.stall_s, self.service_s = (
            clock, stall_at, stall_s, service_s)
        self.sent_at = []
        self.metrics = ClusterMetrics(register=False)     # what the drill reads restarts off

    def submit(self, image, block=False, timeout=None, **scheduling):
        self.sent_at.append(self.clock.now)
        if len(self.sent_at) - 1 == self.stall_at:
            self.clock.sleep(self.stall_s)
        future = InferenceFuture()
        future._resolve(np.zeros((1, 1), dtype=np.float32))
        future.resolved_at = self.sent_at[-1] + self.service_s
        return future


@pytest.mark.parametrize("generator", ["open_loop", "mixed_priority_load"])
class TestOpenLoopsTimeFromDue:
    """Deterministic: the clock is fake, so every expectation is an equality.

    Both open loops -- ``open_loop`` and a ``mixed_priority_load`` class
    stream -- run the same due-time schedule."""

    RATE, COUNT, SEED = 1000.0, 200, 5
    STALL_AT, STALL_S, SERVICE_S = 20, 0.050, 0.002

    def run(self, generator, stall_s):
        clock = FakeClock()
        service = StallOnceService(clock, self.STALL_AT, stall_s, self.SERVICE_S)
        images = np.zeros((2, 3, 8, 8), dtype=np.float32)
        seams = dict(seed=self.SEED, clock=clock, sleep=clock.sleep)
        if generator == "open_loop":
            report = open_loop(service, images, requests=self.COUNT, rate_hz=self.RATE, **seams)
        else:
            load = ClassLoad("normal", requests=self.COUNT, rate_hz=self.RATE)
            report = mixed_priority_load(service, images, [load], **seams)["normal"]
        gaps = poisson_gaps(self.RATE, 2 * self.COUNT, seed=self.SEED)
        due = 100.0 + np.concatenate([[0.0], np.cumsum(gaps)])[:self.COUNT]
        return report, service, due

    def check_latencies(self, report, sent_at, due):
        """Every request is timed from when it was due, whoever reports it."""
        latencies = sent_at + self.SERVICE_S - due
        assert report.completed == len(due)
        assert report.latency.count == self.COUNT
        assert report.latency.max_seconds == pytest.approx(latencies.max())
        assert report.latency.mean_seconds == pytest.approx(latencies.mean())

    def test_without_a_stall_every_request_is_on_time(self, generator):
        report, service, due = self.run(generator, stall_s=0.0)
        np.testing.assert_allclose(service.sent_at, due)
        self.check_latencies(report, due, due)
        if generator == "open_loop":
            assert report.late_share == 0.0
            assert report.lag_ms_p99 == pytest.approx(0.0, abs=1e-6)
            assert report.latency.max_seconds == pytest.approx(self.SERVICE_S)

    def test_a_stall_is_charged_to_the_arrivals_it_delayed(self, generator):
        report, service, due = self.run(generator, stall_s=self.STALL_S)
        stall_end = due[self.STALL_AT] + self.STALL_S
        # What the dispatcher could do: send each request when it is due, or
        # as soon as the stalled submit lets go of the thread -- and nothing
        # (a gap slept after the submit, say) pushes the later ones back.
        expected_sent = np.maximum(due, stall_end)
        expected_sent[:self.STALL_AT + 1] = due[:self.STALL_AT + 1]
        np.testing.assert_allclose(service.sent_at, expected_sent)
        lag = expected_sent - due
        delayed = int((lag > 0).sum())
        assert delayed >= 10                  # the stall covered real arrivals
        # Latency runs from *due*: the delayed arrivals carry their wait ...
        self.check_latencies(report, expected_sent, due)
        assert report.latency.max_seconds > self.SERVICE_S + 0.9 * self.STALL_S
        if generator == "open_loop":
            # ... and the report says the generator, not the target, ran late.
            assert report.late_share == pytest.approx((lag > 1e-3).sum() / self.COUNT)
            assert report.lag_ms_p99 == pytest.approx(np.percentile(lag, 99) * 1e3)
            assert report.as_dict()["late_share"] > 0
            assert "lag_p99_ms" in report.flat_row()


# ------------------------------------------------------------------ closed loop
class TestClosedLoopInvariants:
    def test_outstanding_never_exceeds_concurrency(self):
        service = ConcurrencyTrackingService()
        images = np.zeros((3, 3, 8, 8), dtype=np.float32)
        report = closed_loop(service, images, requests=48, concurrency=4)
        assert report.completed == 48 and report.failed == 0
        assert service.submitted == 48
        # Closed loop: at most `concurrency` requests in flight, ever.
        assert service.peak_outstanding <= 4

    def test_thread_count_capped_by_requests(self):
        service = ImmediateFakeService()
        images = np.zeros((1, 3, 8, 8), dtype=np.float32)
        report = closed_loop(service, images, requests=3, concurrency=16)
        assert report.completed == 3
        assert service.submitted == 3

    def test_every_request_issued_exactly_once(self):
        service = ConcurrencyTrackingService(service_time=0.0005)
        images = np.zeros((2, 3, 8, 8), dtype=np.float32)
        report = closed_loop(service, images, requests=33, concurrency=7)
        assert report.completed == 33
        assert service.submitted == 33
        assert report.latency.count == 33


# ------------------------------------------------------------------ percentiles
class TestPercentileEdgeCases:
    def test_empty_input_returns_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_single_sample_is_every_percentile(self):
        for q in (0, 50, 95, 99, 100):
            assert percentile([7.5], q) == 7.5

    def test_interpolation_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError, match="percentile q"):
            percentile([1.0], -1)
        with pytest.raises(ValueError, match="percentile q"):
            percentile([1.0], 100.5)


class TestLatencyStatsEdgeCases:
    def test_empty_summary_is_all_zeros(self):
        summary = LatencyStats().summary()
        assert summary == {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                           "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
        assert LatencyStats().mean_seconds == 0.0
        assert LatencyStats().quantile_seconds(99) == 0.0

    def test_single_sample_summary(self):
        stats = LatencyStats()
        stats.add(0.25)
        summary = stats.summary()
        assert summary["count"] == 1
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
            assert summary[key] == 250.0

    def test_extend_and_count(self):
        stats = LatencyStats()
        stats.extend([0.001, 0.002, 0.003])
        assert stats.count == 3
        assert stats.mean_seconds == pytest.approx(0.002)
