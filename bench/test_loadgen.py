"""Deterministic tests of the open-loop generator: a fake clock, a fake target."""

import math

import numpy as np
import pytest

from bench import loadgen


class FakeClock:
    """Time moves only when somebody sleeps or the target works."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class Reply:
    def __init__(self, value, resolved_at, error=None):
        self._value, self.resolved_at, self._error = value, resolved_at, error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value


class Refused(Exception):
    pass


def stalling_target(clock, service_s, stall_at, stall_s):
    """Synchronous target: every call takes ``service_s``; call ``stall_at`` stalls."""
    def submit(index):
        clock.now += service_s + (stall_s if index == stall_at else 0.0)
        return Reply(index, clock.now)
    return submit


def test_a_stall_is_charged_to_the_requests_due_during_it():
    clock = FakeClock()
    offsets = [0.010 * i for i in range(10)]            # one request every 10 ms
    submit = stalling_target(clock, service_s=0.001, stall_at=2, stall_s=0.050)
    run = loadgen.run_open_loop(submit, offsets, 0.1, clock=clock, sleep=clock.sleep)
    latencies = run.latencies_ms()
    lags = run.lags_ms()
    # Before the stall: on time, latency is the service time.
    assert latencies[:2] == pytest.approx([1.0, 1.0])
    assert lags[:3] == pytest.approx([0.0, 0.0, 0.0])
    # The stalled request itself: 51 ms.
    assert latencies[2] == pytest.approx(51.0)
    # Requests 3..7 fell due at 30..70 ms while the dispatcher was stuck until
    # 71 ms; each is sent late and is charged that wait from its due time.
    assert lags[3:8] == pytest.approx([41.0, 32.0, 23.0, 14.0, 5.0])
    assert latencies[3:8] == pytest.approx([42.0, 33.0, 24.0, 15.0, 6.0])
    # Stamping at the actual submit would have hidden all of it.
    sent_to_resolved = [(o.resolved - o.sent) * 1e3 for o in run.outcomes]
    assert sent_to_resolved[3:8] == pytest.approx([1.0] * 5)
    # After the backlog clears the generator is on time again.
    assert lags[8:] == pytest.approx([0.0, 0.0])
    summary = run.summary(limit_ms=33.3)
    assert summary["sent"] == summary["succeeded"] == 10
    assert summary["in_limit_share"] == pytest.approx(0.8)     # 51 and 42 ms miss
    assert summary["lag_ms_p99"] > 30.0
    assert summary["late_share"] == pytest.approx(0.5)
    assert not loadgen.rung_passes(summary, share=0.99, lag_limit_ms=10.0)


def test_refusals_errors_and_wrong_replies_miss_the_limit():
    clock = FakeClock()

    def submit(index):
        clock.now += 0.001
        if index == 1:
            raise Refused("queue full")
        if index == 2:
            return Reply(None, clock.now, error=RuntimeError("batch failed"))
        if index == 3:
            return Reply(None, clock.now, error=Refused("rejected on the wire"))
        return Reply(index if index != 4 else -1, clock.now)

    run = loadgen.run_open_loop(
        submit, [0.01 * i for i in range(6)], 0.06, refused=(Refused,),
        check=lambda index, value: value == index, clock=clock, sleep=clock.sleep)
    assert [o.status for o in run.outcomes] == [
        "ok", "refused", "failed", "refused", "wrong", "ok"]
    summary = run.summary(limit_ms=33.3)
    assert (summary["succeeded"], summary["refused"], summary["failed"]) == (2, 2, 2)
    assert summary["in_limit_share"] == pytest.approx(2 / 6)
    assert summary["drained"]


def test_requests_unsent_after_the_drain_window_are_abandoned():
    clock = FakeClock()
    submit = stalling_target(clock, service_s=0.5, stall_at=-1, stall_s=0.0)
    run = loadgen.run_open_loop(submit, [0.1 * i for i in range(10)], 1.0,
                                drain_s=1.0, clock=clock, sleep=clock.sleep)
    # 0.5 s per call: the fifth call starts at 2.0 s = end + drain, the sixth never.
    assert run.count("ok") == 5 and run.count("unsent") == 5
    summary = run.summary(limit_ms=33.3)
    assert summary["failed"] == 5 and not summary["drained"]
    assert summary["in_limit_share"] == 0.0


def test_schedules_come_from_the_seed():
    first = loadgen.poisson_schedule(500.0, 2.0, np.random.default_rng(7))
    again = loadgen.poisson_schedule(500.0, 2.0, np.random.default_rng(7))
    other = loadgen.poisson_schedule(500.0, 2.0, np.random.default_rng(8))
    assert first == again and first != other
    assert len(first) == 1000 and first == sorted(first)
    assert first[-1] == pytest.approx(2.0, rel=0.15)


def test_replay_fixed_rate_is_a_single_server_queue():
    # 10 ms frames behind a 50 fps camera (20 ms period): never a backlog.
    assert loadgen.replay_fixed_rate([10.0] * 5, 50.0) == pytest.approx([10.0] * 5)
    # One 50 ms frame delays its successors until the slack has absorbed it.
    latencies = loadgen.replay_fixed_rate([10.0, 50.0, 10.0, 10.0, 10.0, 10.0], 50.0)
    assert latencies == pytest.approx([10.0, 50.0, 40.0, 30.0, 20.0, 10.0])
    # 10 ms frames cannot keep up with 200 fps: the backlog grows 5 ms a frame.
    assert loadgen.replay_fixed_rate([10.0] * 4, 200.0) == pytest.approx(
        [10.0, 15.0, 20.0, 25.0])


def test_highest_passing_needs_every_lower_rung():
    assert loadgen.highest_passing([250, 500, 1000, 2000], [True, True, True, False]) == 1000
    assert loadgen.highest_passing([250, 500, 1000], [True, False, True]) == 250
    assert loadgen.highest_passing([250, 500], [False, True]) == 0.0
    assert math.isclose(loadgen.highest_passing([500, 250], [True, True]), 500)
