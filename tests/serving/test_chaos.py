"""Chaos harness: seeded fault streams, injection hooks, the live drill.

The injector's contract is *determinism*: the same (seed, scope) must replay
byte-identical fault schedules in any process, and a different scope (or a
restarted worker's new incarnation) must diverge.  The live test then runs a
real two-worker cluster through one seeded crash schedule and asserts the
zero-drops + recovery acceptance the resilience issue gates on.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.pipeline.spec import ChaosSpec, ClusterSpec
from repro.serving import BatchPolicy
from repro.serving.chaos import FaultInjector, run_chaos_drill
from repro.serving.cluster import Router


def make_spec(**kwargs):
    defaults = dict(enabled=True, seed=7, warmup_s=0.0, duration_s=60.0)
    defaults.update(kwargs)
    return ChaosSpec(**defaults)


class TestFaultStreams:
    def test_same_seed_and_scope_replays_the_schedule(self):
        spec = make_spec(heartbeat_drop_rate=0.5, torn_frame_rate=0.5)
        a = FaultInjector(spec, scope="worker-0#1")
        b = FaultInjector(spec, scope="worker-0#1")
        assert [a.heartbeat_dropped() for _ in range(64)] == \
               [b.heartbeat_dropped() for _ in range(64)]
        frame = bytes(range(64))
        assert [a.maybe_tear(frame) for _ in range(64)] == \
               [b.maybe_tear(frame) for _ in range(64)]

    def test_different_scope_diverges(self):
        spec = make_spec(heartbeat_drop_rate=0.5)
        a = FaultInjector(spec, scope="worker-0#1")
        b = FaultInjector(spec, scope="worker-1#1")
        # A restarted worker's new incarnation is a new scope too.
        c = FaultInjector(spec, scope="worker-0#2")
        draws = lambda inj: [inj.heartbeat_dropped() for _ in range(256)]
        reference = draws(a)
        assert draws(b) != reference
        assert draws(c) != reference

    def test_streams_are_independent(self):
        # Consuming one stream must not perturb another: heartbeat draws are
        # identical whether or not torn-frame draws happen in between.
        spec = make_spec(heartbeat_drop_rate=0.5, torn_frame_rate=0.5)
        quiet = FaultInjector(spec, scope="s")
        noisy = FaultInjector(spec, scope="s")
        frame = bytes(range(32))
        sequence = []
        for _ in range(64):
            noisy.maybe_tear(frame)
            sequence.append(noisy.heartbeat_dropped())
        assert sequence == [quiet.heartbeat_dropped() for _ in range(64)]

    def test_wire_round_trip(self):
        spec = make_spec(crash_rate=0.5, torn_frame_rate=0.25)
        original = FaultInjector(spec, scope="worker-3#2", until_wall=12345.0)
        rebuilt = FaultInjector.from_wire(original.to_wire())
        assert rebuilt.scope == original.scope
        assert rebuilt.until_wall == original.until_wall
        assert rebuilt.spec.to_dict() == spec.to_dict()

    def test_window_semantics(self):
        # Before warmup: quiet.  Inside the window: active.  Past the wall-
        # clock end (shared by every incarnation): quiet again, forever.
        warming = FaultInjector(make_spec(warmup_s=60.0, crash_rate=1.0))
        assert not warming.active()
        live = FaultInjector(make_spec(crash_rate=1.0))
        assert live.active()
        spent = FaultInjector(make_spec(crash_rate=1.0),
                              until_wall=time.time() - 1.0)
        assert not spent.active()
        disabled = FaultInjector(ChaosSpec(enabled=False))
        assert not disabled.active()

    def test_hooks_are_noops_outside_the_window(self):
        spec = make_spec(heartbeat_drop_rate=1.0, torn_frame_rate=1.0,
                         slow_frame_rate=1.0, slow_frame_ms=50.0,
                         gateway_latency_ms=50.0)
        spent = FaultInjector(spec, until_wall=time.time() - 1.0)
        frame = bytes(range(64))
        assert not spent.heartbeat_dropped()
        assert spent.maybe_tear(frame) == frame
        assert spent.frame_delay_s() == 0.0
        assert spent.response_delay_s() == 0.0

    def test_maybe_tear_truncates_but_never_empties(self):
        spec = make_spec(torn_frame_rate=1.0)
        injector = FaultInjector(spec)
        frame = bytes(range(64))
        torn = injector.maybe_tear(frame)
        assert 1 <= len(torn) < len(frame)
        assert torn == frame[:len(torn)]
        # Tiny frames (heartbeats etc.) are never torn: a sub-8-byte frame
        # could not even carry the length prefix the decoder needs to fail
        # "like a death" rather than like garbage.
        assert injector.maybe_tear(b"tiny") == b"tiny"

    def test_lifecycle_thread_only_started_when_lethal(self):
        benign = FaultInjector(make_spec(torn_frame_rate=0.5))
        assert benign.start_lifecycle() is None
        off = FaultInjector(ChaosSpec(enabled=False, crash_rate=1.0))
        assert off.start_lifecycle() is None


# ---------------------------------------------------------------- live drills
@pytest.fixture(scope="module")
def cluster_policy():
    return BatchPolicy(max_batch_size=4, queue_capacity=256)


def run_short_drill(artifact_path, policy, chaos, rate_rps=60.0):
    with Router(artifact_path, workers=2, policy=policy,
                cluster=ClusterSpec(
                    heartbeat_interval=0.1, heartbeat_timeout=1.0,
                    restart_backoff_s=0.05, restart_backoff_max_s=0.5),
                chaos=chaos) as router:
        rng = np.random.default_rng(chaos.seed)
        images = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
        return run_chaos_drill(router, images, chaos=chaos,
                               rate_rps=rate_rps, recovery_s=4.0,
                               seed=chaos.seed)


class TestLiveDrill:
    """One seeded live drill as smoke: real processes, real SIGKILLs.  Torn
    frames, hangs, crash loops and every interleaving of them are the
    simulation's (``test_fleet_simulation.py``), without a wall clock."""

    def test_crash_drill_zero_drops_and_restarts(self, artifact_path,
                                                 cluster_policy):
        chaos = ChaosSpec(enabled=True, seed=3, warmup_s=1.0, duration_s=2.0,
                          crash_rate=1.5)
        report = run_short_drill(artifact_path, cluster_policy, chaos)
        assert report.submitted > 0
        assert report.dropped == 0, report.drop_errors
        assert report.restarts >= 1          # the schedule actually fired
        assert report.completed + report.rejected == report.submitted
        # Recovery *happens*: p95 re-enters its pre-fault band.  How fast is
        # `python3 -m bench`'s to measure, not a unit test's to gate.
        assert report.pre_fault_p95_ms > 0
        assert report.recovery_p95_seconds is not None
        payload = report.as_dict()
        assert payload["dropped"] == 0 and payload["restarts"] >= 1

    def test_chaos_disabled_router_runs_clean(self, artifact_path,
                                              cluster_policy):
        # A disabled spec must leave the cluster entirely unfaulted.
        chaos = ChaosSpec(enabled=False, crash_rate=5.0)
        with Router(artifact_path, workers=1, policy=cluster_policy,
                    chaos=chaos) as router:
            assert router.chaos is None
            image = np.zeros((3, 64, 64), dtype=np.float32)
            assert router.submit(image, block=True,
                                 timeout=60.0).result(60.0) is not None
            assert router.metrics.restarts == 0
