"""The router's promises, checked over generated schedules instead of wall-clock drills.

The *real* :class:`Router` shell, the *real* slot table
(``repro.serving.cluster.fleet``) and the *real* parent-side pending table
(:class:`WorkerProcess`: ``dispatch`` / ``_pop`` / ``take_outstanding`` /
``_handle``) run single-threaded against an in-memory host: ``time`` and
``threading`` inside the cluster modules are fakes (the clock only moves when a
schedule says so, a blocked wait *yields to the simulated world* instead of
sleeping, a started thread is a task the driver runs), and ``_launch`` returns
an in-memory process + channel instead of forking.  Nothing here reads a wall
clock, starts a process, or starts a thread.

A schedule is a list of events -- submit a burst of 1-40 images / one worker
answers a run (or fails it) / a worker dies after k replies, hangs, or has its
stream torn / the next n spawns die at start with a fatal / the clock ticks and
the supervisor takes a step / scale +-1 / a rolling swap / shutdown -- and the
properties at the bottom are the ROADMAP's list.  What a property needs to know
about the schedule (which images were admitted, which deaths a step found) is
ground truth the driver records itself, never read back from the code under
test.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.batcher as batcher_module
import repro.serving.cluster.metrics as metrics_module
import repro.serving.cluster.router as router_module
import repro.serving.cluster.worker as worker_module
from repro.pipeline.spec import ClusterSpec
from repro.serving.batcher import BatchPolicy
from repro.serving.cluster.channel import ChannelClosedError, Message, flatten_arrays
from repro.serving.cluster.metrics import ClusterMetrics
from repro.serving.cluster.router import ArtifactSwapError, Router
from repro.serving.cluster.worker import WorkerProcess
from repro.serving.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueueFullError,
    RemoteInferenceError,
    ServiceClosedError,
    WorkerUnavailableError,
)

SPEC = ClusterSpec(heartbeat_interval=0.25, heartbeat_timeout=1.0, max_restart_attempts=3,
                   min_worker_uptime=1.0, restart_backoff_s=0.4, restart_backoff_max_s=2.0)
#: A worker's queue bound (images) and the most images one reply run answers.
QUEUE_CAPACITY, MAX_BATCH = 24, 8
VERSIONS = ("v1.npz", "v2.npz")
#: Most spawns in a row a schedule may doom to die at start with a fatal.
MAX_POISON = 6
#: Quiescence: steps short enough for a doomed spawn's death to count as quick,
#: and enough of them for every doomed spawn to be found and to wait out the
#: longest backoff, with a few to spare for hung workers and re-dispatches.
SETTLE_STEP = 0.9
SETTLE_STEPS = MAX_POISON * (1 + int(SPEC.restart_backoff_max_s / SETTLE_STEP + 1)) + 6


def forward(images: np.ndarray) -> np.ndarray:
    """The model: per image, batch-size independent; an image is its tag."""
    return images.reshape(len(images), -1)[:, :1] * 2.0 + 1.0


# --------------------------------------------------------------------- the fake host
class FakeTime:
    """Stands in for the ``time`` module inside the cluster modules."""

    now = 1000.0

    def perf_counter(self):
        return self.now

    time = monotonic = perf_counter


class FakeProcess:
    """An in-memory worker child: a queue of ``infer`` frames and a fate."""

    def __init__(self, world, handle):
        self.world, self.handle = world, handle
        self.pid = len(world.processes) + 1
        self.alive, self.hung, self.reported = True, False, False
        self.fatal = world.poison > 0          # dies at start, reporting a fatal
        world.poison -= self.fatal
        self.dies_after = None                 # reply runs left before it crashes
        self.inbox = deque()                   # [first id, images] per unanswered frame
        self.never_arrived = []                # frames sent after it died (the parent holds them)
        self.spawned_at = world.clock.now
        world.processes.append(self)

    # what the parent calls on a multiprocessing.Process
    def is_alive(self):
        return self.alive

    def kill(self):
        self.alive = False

    terminate = kill

    def join(self, timeout=None):
        if self.alive and timeout:
            self.world.clock.now += timeout    # a hung child sits the join out

    # the parent end of its channel
    def send(self, kind, meta=None, arrays=()):
        if kind == "infer":
            (images,) = arrays
            self.world.check_frame(meta, images)
        if not self.alive:
            if kind == "infer":
                self.never_arrived.append(images)
            raise ChannelClosedError("peer is gone")
        if kind == "infer":
            self.inbox.append([meta["id"], images])
        elif kind == "shutdown" and not self.hung:
            while self.alive and self.inbox:   # drain: answer everything admitted
                self.reply()
            if self.alive:
                self.handle._handle(Message("bye"))
                self.alive = False

    def close(self):
        pass

    def unanswered(self):
        """Tags of the images the parent sent and this child never answered."""
        frames = self.never_arrived + [images for _, images in self.inbox]
        return [int(tag) for images in frames for tag in images[:, 0, 0, 0]]

    # what the child does
    def reply(self, error=False):
        """Answer one run: up to ``MAX_BATCH`` images off the head frame."""
        frame = self.inbox[0]
        first_id, images = frame[0], frame[1][:MAX_BATCH]
        frame[0], frame[1] = first_id + len(images), frame[1][MAX_BATCH:]
        if not len(frame[1]):
            self.inbox.popleft()
        meta = {"id": first_id, "count": len(images)}
        if error:
            self.world.errored.update(int(tag) for tag in images[:, 0, 0, 0])
            message = Message("error", dict(meta, error="boom", type="ValueError"))
        else:
            meta["tree"], arrays = flatten_arrays(forward(images))
            message = Message("result", meta, arrays)
        self.handle._handle(message)
        if self.dies_after is not None:
            self.dies_after -= 1
            if self.dies_after <= 0:
                self.alive = False

    def pump(self):
        """What reaches the parent without being asked: start-up frames, heartbeats."""
        if self.alive and not self.reported:
            self.reported = True
            if self.fatal:
                self.handle._handle(Message("fatal", {"error": "artifact cannot load"}))
                self.alive = False
            else:
                self.handle._handle(Message("ready"))
        if self.alive and not self.hung:
            self.handle._handle(Message("heartbeat"))


#: The world of the schedule being run (the fakes have no other way to find it).
WORLD = [None]


class SimWorker(WorkerProcess):
    def _launch(self):
        process = FakeProcess(WORLD[0], self)
        return process, process          # the process is the parent end of its own channel


class FakeCondition:
    """``threading.Condition`` whose ``wait`` lets the rest of the world move."""

    def __init__(self, lock):
        self.lock = lock

    def __enter__(self):
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)

    def wait(self, timeout=None):
        self.lock.release()
        try:
            WORLD[0].idle(timeout)
        finally:
            self.lock.acquire()
        return True

    def notify(self, n=1):
        pass

    notify_all = notify


class FakeEvent:
    def __init__(self):
        self.flag = False

    def set(self):
        self.flag = True

    def clear(self):
        self.flag = False

    def is_set(self):
        return self.flag

    def wait(self, timeout=None):
        clock = WORLD[0].clock
        give_up = None if timeout is None else clock.now + timeout
        while not self.flag and (give_up is None or clock.now < give_up):
            WORLD[0].idle(None if give_up is None else give_up - clock.now)
        return self.flag


class FakeThread:
    """A started thread is a task for the driver; the loops are driven by hand."""

    def __init__(self, target, args=(), name="", daemon=None):
        self.task = None if target.__name__ in ("_supervise", "_receiver_loop") else \
            partial(target, *args)

    def start(self):
        if self.task is not None:
            WORLD[0].tasks.append(self.task)

    def join(self, timeout=None):
        pass


FAKE_THREADING = SimpleNamespace(Lock=threading.Lock, Condition=FakeCondition,
                                 Event=FakeEvent, Thread=FakeThread)


class Settles:
    """Run callback: how often each image of a burst settled, and with what."""

    def __init__(self, future, tags, deadline):
        self.tags, self.deadline = tags, deadline
        self.counts = [0] * len(tags)
        self.errors = [None] * len(tags)
        self.outputs = [None] * len(tags)
        future.add_run_callback(self)

    def __call__(self, future, start, stop, outputs, error):
        for index in range(start, stop):
            self.counts[index] += 1
            self.errors[index] = error
            if error is None:
                self.outputs[index] = float(outputs[index - start][0])


class World:
    """One schedule's host, router and ground truth."""

    def __init__(self, workers):
        WORLD[0] = self
        self.clock = CLOCK
        self.clock.now = 1000.0
        self.processes, self.tasks = [], deque()
        self.poison = 0                   # spawns still to die at start with a fatal
        self.bursts = []                  # a Settles per admitted burst
        self.deadlines = {}               # tag -> absolute deadline of an admitted image
        self.errored = set()              # tags a child answered with an error frame
        self.next_tag = 0
        # Ground truth for the ledger: deaths the steps found / of those, slots
        # given up on / images a recovered or retired worker never answered.
        self.found = self.lost = self.redispatched = 0
        self.accounted = set()            # processes whose unanswered images are in the above
        self.died_before = set()          # slots with an earlier death and no swap/scale since
        self.awaited = {}                 # slot -> (dead worker, found at, a repeat quick death)
        self.respawn_waits = []           # (seconds waited, a repeat quick death) per respawn
        self.lost_tags = set()            # images an abandoned slot's last worker never answered
        self.shut_down = False
        self.target = workers
        self.router = Router(VERSIONS[0], workers=workers, cluster=SPEC,
                             policy=BatchPolicy(max_batch_size=MAX_BATCH,
                                                queue_capacity=QUEUE_CAPACITY),
                             metrics=ClusterMetrics(register=False))
        self.pump()

    # ------------------------------------------------------------------ the host
    def check_frame(self, meta, images):
        """Every ``infer`` frame on its way to a child: nothing goes out past its deadline."""
        deadline = self.deadlines.get(int(images[0, 0, 0, 0]))
        assert deadline is None or self.clock.now < deadline, "dispatched past its deadline"
        assert (deadline is None) == ("deadline_ms" not in meta)

    def pump(self):
        for process in list(self.processes):
            process.pump()

    def idle(self, timeout):
        """A caller is blocked: children answer; if none can, time passes and the
        supervisor takes a step."""
        busy = [p for p in self.processes if p.alive and not p.hung and p.inbox]
        for process in busy:
            process.reply()
        if not busy:
            self.tick(SPEC.heartbeat_interval if timeout is None
                      else min(timeout, SPEC.heartbeat_interval))

    def tick(self, seconds, closing=False):
        """Time passes, children beat, the supervisor takes one step -- with
        ``closing``, a shutdown lands in the middle of the step's first recovery."""
        self.clock.now += seconds
        self.pump()
        router, now = self.router, self.clock.now
        found = [(slot, worker) for slot, worker in router._table.watched()
                 if not worker.healthy(SPEC.heartbeat_timeout)]
        if closing and found:
            def reap_then_close(reap=found[0][1].reap):
                pending = reap()
                self.apply(("shutdown",))
                return pending
            found[0][1].reap = reap_then_close
        router._supervise_once()
        for slot, worker in found:
            assert not worker.process.alive, "a hung worker outlived the step that found it"
            self.accounted.add(worker.process)
            if self.shut_down:
                continue                  # found, but the fleet closed under the recovery
            self.found += 1
            if router._table.slots[slot].abandoned:
                self.lost += 1
                self.lost_tags.update(worker.process.unanswered())
                continue
            self.redispatched += len(worker.process.unanswered())
            quick = now - worker.process.spawned_at < SPEC.min_worker_uptime
            self.awaited[slot] = (worker, now, quick and slot in self.died_before)
            self.died_before.add(slot)
        for slot, (dead, since, repeat) in list(self.awaited.items()):
            if router._table.workers[slot] is not dead:      # the supervisor filled the slot
                self.respawn_waits.append((now - since, repeat))
                del self.awaited[slot]
        self.pump()

    def reshaped(self):
        """After a scale or swap event: account for what retired workers never
        answered, and forget pacing history the event may have reset."""
        workers = self.router._table.workers
        for process in self.processes:
            if process.handle not in workers and process not in self.accounted:
                self.accounted.add(process)
                self.redispatched += len(process.unanswered())
        self.died_before.clear()
        self.awaited.clear()

    def run_tasks(self):
        while self.tasks:
            self.tasks.popleft()()

    # ------------------------------------------------------------------ events
    def occupant(self, index):
        workers = self.router._table.workers
        return workers[index % len(workers)].process

    def submit(self, count, priority, deadline_ms):
        tags = list(range(self.next_tag, self.next_tag + count))
        self.next_tag += count
        images = np.stack([np.full((1, 2, 2), float(tag), np.float32) for tag in tags])
        degraded = self.router.degraded
        deadline = None if deadline_ms is None else self.clock.now + deadline_ms / 1e3
        self.deadlines.update(dict.fromkeys(tags, deadline))
        try:
            future = self.router.submit_group(images, priority=priority,
                                              deadline_ms=deadline_ms)
        except AdmissionRejectedError:
            assert priority == "low" and degraded, "shed while not degraded, or not low"
            return
        except (QueueFullError, WorkerUnavailableError, ServiceClosedError):
            return                       # nothing of it was admitted: no future
        assert not (priority == "low" and degraded), "low admitted while degraded"
        self.bursts.append(Settles(future, tags, deadline))

    def scale(self, up):
        try:
            self.router.add_worker() if up else self.router.remove_worker(timeout=5.0)
            self.target += 1 if up else -1
        except (ValueError, ServiceClosedError):
            pass
        self.reshaped()

    def swap(self):
        path = VERSIONS[self.router.artifact_path == VERSIONS[0]]
        try:
            self.router.swap_artifact(path, timeout_per_worker=5.0)
        except (ArtifactSwapError, ServiceClosedError):
            pass
        self.reshaped()

    def apply(self, event):
        kind, *args = event
        if kind == "submit":
            self.submit(*args)
        elif kind == "reply":
            process = self.occupant(args[0])
            if process.alive and not process.hung and process.inbox:
                process.reply(error=args[1])
        elif kind == "kill":
            process = self.occupant(args[0])
            process.dies_after = args[1]
            if not args[1]:
                process.alive = False
                if args[2]:                                # the receiver saw the EOF
                    process.handle._mark_dead()
        elif kind == "hang":
            self.occupant(args[0]).hung = True
        elif kind == "tear":                               # a torn frame: EOF from a live child
            self.occupant(args[0]).handle._mark_dead()
        elif kind == "poison":
            self.poison = min(self.poison + args[0], MAX_POISON)
        elif kind == "tick":
            self.tick(*args)
        elif kind == "scale":
            self.scale(args[0])
        elif kind == "swap":
            self.swap()
        elif kind == "shutdown":
            self.router.shutdown(timeout=5.0)
            self.shut_down = True
        self.run_tasks()
        self.check_slots()

    def settle(self):
        """No new faults: let the poison and every backoff run out and every child answer."""
        for _ in range(SETTLE_STEPS):
            self.apply(("tick", SETTLE_STEP))
            while any(p.alive and not p.hung and p.inbox for p in self.processes):
                self.idle(None)

    # ------------------------------------------------------------------ invariants
    def check_slots(self):
        """A slot never holds two live workers, and no worker lives outside the
        table: installed into a closed or scaled-away slot, or left behind."""
        workers = self.router._table.workers
        assert len(set(map(id, workers))) == len(workers) == self.target
        alive = [process.handle for process in self.processes if process.alive]
        if self.router.closed:
            assert alive == [], "a worker outlived the closed fleet"
        else:
            assert all(worker in workers for worker in alive), "a live worker is in no slot"

    def images(self):
        """``(tag, times settled, error, output, deadline, burst size)`` per admitted image."""
        for burst in self.bursts:
            for index, tag in enumerate(burst.tags):
                yield (tag, burst.counts[index], burst.errors[index], burst.outputs[index],
                       burst.deadline, len(burst.tags))


CLOCK = FakeTime()


@contextmanager
def simulated(workers):
    """A :class:`World` with the cluster modules' ``time``, ``threading`` and ``fork`` faked."""
    with mock.patch.object(router_module, "WorkerProcess", SimWorker), \
            mock.patch.object(router_module.logger, "disabled", True), \
            mock.patch.object(worker_module.logger, "disabled", True), \
            mock.patch.object(router_module, "threading", FAKE_THREADING), \
            mock.patch.object(worker_module, "threading", FAKE_THREADING), \
            mock.patch.object(router_module, "time", CLOCK), \
            mock.patch.object(worker_module, "time", CLOCK), \
            mock.patch.object(metrics_module, "time", CLOCK), \
            mock.patch.object(batcher_module, "time", CLOCK):
        try:
            yield World(workers)
        finally:
            WORLD[0] = None


# ------------------------------------------------------------------------ schedules
worker_index = st.integers(0, 3)
submits = st.tuples(st.just("submit"), st.integers(1, 40),
                    st.sampled_from(["high", "normal", "low"]),
                    st.sampled_from([None, None, None, 300.0, 3000.0]))      # deadline_ms
replies = st.tuples(st.just("reply"), worker_index, st.sampled_from([False] * 3 + [True]))
ticks = st.tuples(st.just("tick"), st.sampled_from([0.05, 0.25, 0.3, 0.7, 1.1, 2.5]),
                  st.sampled_from([False] * 9 + [True]))     # a shutdown lands mid-recovery
events = st.one_of(
    submits, submits, submits, replies, replies, ticks, ticks, ticks,
    st.tuples(st.just("kill"), worker_index, st.integers(0, 3), st.booleans()),
    st.tuples(st.just("hang"), worker_index),
    st.tuples(st.just("tear"), worker_index),
    st.tuples(st.just("poison"), st.integers(1, MAX_POISON)),
    st.tuples(st.just("scale"), st.booleans()),
    st.tuples(st.just("swap")),
)
schedules = st.tuples(
    st.integers(1, 3),                                       # workers at the start
    st.lists(events, min_size=5, max_size=40),
    st.none() | st.integers(0, 40),                          # a shutdown before this event
)


@contextmanager
def run(schedule):
    """The schedule, then quiescence: the world as the properties read it."""
    workers, script, shutdown_at = schedule
    with simulated(workers) as world:
        for index, event in enumerate(script):
            if index == shutdown_at:
                world.apply(("shutdown",))
            world.apply(event)
        world.settle()
        yield world


PROPERTY = settings(max_examples=200, deadline=None)


@PROPERTY
@given(schedules)
def test_every_admitted_image_resolves_exactly_once(schedule):
    """... with its own output, or with an error the schedule explains -- also
    when its burst was split across workers and one of them crashed, hung, was
    abandoned or was still down at shutdown; and no frame left for a child
    past its deadline (``World.check_frame``)."""
    with run(schedule) as world:
        for tag, settled, error, output, deadline, burst_size in world.images():
            assert settled == 1, f"image {tag} settled {settled} times"
            if error is None:
                assert output == tag * 2.0 + 1.0
            elif isinstance(error, RemoteInferenceError):
                assert tag in world.errored
            elif isinstance(error, DeadlineExceededError):
                assert deadline is not None
            elif isinstance(error, QueueFullError) or "no live workers" in str(error):
                # The part of a (non-blocking) burst that no worker could take.
                assert burst_size > 1
            elif "shut down" in str(error):
                assert world.shut_down
            elif "every worker slot failed permanently" in str(error):
                assert world.lost        # re-dispatched into a fleet that has no slot left
            else:
                # Lost with its slot -- its own slot -- never to a crash the
                # fleet recovered from, never because a neighbour's slot went.
                assert "failed permanently" in str(error), repr(error)
                assert tag in world.lost_tags


@PROPERTY
@given(schedules)
def test_the_ledger_equals_the_schedules_ground_truth(schedule):
    """``submitted == completed + failed`` per image (a failed N-image run is
    N failures, a router-side failure is a failure), and ``restarts`` /
    ``redispatched`` are the deaths the steps found and what those workers owed."""
    with run(schedule) as world:
        report = world.router.metrics.report()
        cluster = report["cluster"]
        outcomes = [image[2] is None for image in world.images()]
        submitted = sum(row["submitted"] for row in report["workers"].values())
        assert cluster["completed"] == sum(outcomes)
        assert cluster["failed"] == len(outcomes) - sum(outcomes)
        assert submitted == cluster["completed"] + cluster["failed"]
        assert cluster["restarts"] == world.found - world.lost
        assert cluster["redispatched"] == world.redispatched


@PROPERTY
@given(schedules)
def test_the_fleet_converges_and_a_slot_holds_one_live_worker(schedule):
    """After every event a live worker sits in exactly one slot of an open
    fleet (``World.check_slots``); once the faults stop, a bounded number of
    steps brings every slot not given up on back, on the one current artifact;
    and nothing is spawned for a closed fleet, whoever calls in afterwards."""
    with run(schedule) as world:
        router = world.router
        for slot, worker in zip(router._table.slots, router.workers):
            if world.shut_down:
                break                    # ... unless the schedule closed the fleet itself
            assert slot.respawn_at is None
            if not slot.abandoned:
                assert worker.process.alive and worker.accepting
                assert worker.artifact_path == router.artifact_path
            assert router.degraded == any(slot.abandoned for slot in router._table.slots)
        world.apply(("shutdown",))
        spawned = len(world.processes)
        for late in [("tick", 2.5), ("scale", True), ("swap",), ("tick", 2.5)]:
            world.apply(late)
        assert len(world.processes) == spawned and router.closed


@PROPERTY
@given(schedules)
def test_a_repeat_quick_death_waits_at_least_half_the_backoff(schedule):
    """A slot that dies again within ``min_worker_uptime`` of its respawn is
    not respawned for at least ``restart_backoff_s / 2``: a crash loop cannot
    hot-spin fork + load.  (``low`` is shed only while degraded: ``World.submit``.)"""
    with run(schedule) as world:
        for waited, repeat in world.respawn_waits:
            assert waited >= 0.0
            if repeat:
                assert waited >= SPEC.restart_backoff_s / 2


# ------------------------------------------------------------------- pinned schedules
def test_an_abandoned_slot_fails_only_its_own_part_of_a_split_burst():
    """The scratch case of ISSUE 21: a burst of 32 spills over two workers
    (24 + 8); the slot holding the 24 is given up on.  Its 24 fail; the 8 on
    the healthy worker resolve with their outputs -- the future is not failed
    whole -- and the ledger counts 24 failures."""
    with simulated(2) as world:
        world.submit(32, "normal", None)
        (burst,) = world.bursts
        first, second = world.router.workers
        assert (first.outstanding_count, second.outstanding_count) == (24, 8)
        world.router._table.slots[0].failures = SPEC.max_restart_attempts
        world.apply(("kill", 0, 0, True))
        world.apply(("tick", 0.05))
        assert world.router._table.slots[0].abandoned
        assert [type(e) for e in burst.errors[:24]] == [WorkerUnavailableError] * 24
        assert burst.counts == [1] * 24 + [0] * 8
        world.apply(("reply", 1, False))
        assert burst.counts == [1] * 32 and burst.errors[24:] == [None] * 8
        assert burst.outputs[24:] == [tag * 2.0 + 1.0 for tag in range(24, 32)]
        cluster = world.router.metrics.report()["cluster"]
        assert (cluster["completed"], cluster["failed"]) == (8, 24)


def test_a_failed_run_of_n_images_is_n_failures():
    """The PR 16 miscount (1 failure + N-1 successes), pinned."""
    with simulated(1) as world:
        world.submit(12, "normal", None)
        world.apply(("reply", 0, True))              # the first run of 8 fails ...
        world.apply(("reply", 0, False))             # ... the other 4 images are served
        (burst,) = world.bursts
        assert [type(e) for e in burst.errors] == [RemoteInferenceError] * 8 + [type(None)] * 4
        row = world.router.metrics.report()["workers"]["worker-0"]
        assert (row["submitted"], row["completed"], row["failed"]) == (12, 4, 8)


def test_a_hung_worker_is_killed_in_the_step_that_finds_its_heartbeat_stale():
    """The chaos ``hang`` stream without a wall clock: SIGKILL at once, so the
    step sits out no join and what the worker held is served elsewhere."""
    with simulated(2) as world:
        world.submit(16, "normal", None)
        hung = world.router.workers[0]
        world.apply(("hang", 0))
        for _ in range(3):
            world.apply(("tick", 0.3))
        assert hung.process.alive and world.router.workers[0] is hung      # 0.9 s: not yet
        before = world.clock.now
        world.apply(("tick", 0.3))
        assert not hung.process.alive and world.router.workers[0] is not hung
        assert world.clock.now == before + 0.3                  # no join was sat out
        world.settle()
        (burst,) = world.bursts
        assert burst.counts == [1] * 16 and burst.errors == [None] * 16
        assert world.router.metrics.report()["cluster"]["restarts"] == 1


@pytest.mark.parametrize("noticed", [True, False])
def test_recovery_during_shutdown_fails_pending_and_spawns_nothing(noticed):
    with simulated(1) as world:
        world.submit(4, "normal", None)
        world.apply(("kill", 0, 0, noticed))
        watched = world.router._table.watched()
        world.router._table.close()                  # shutdown lands inside the step
        for slot, worker in watched:
            world.router._recover(slot, worker)
        (burst,) = world.bursts
        assert burst.counts == [1] * 4
        assert all("shut down" in str(error) for error in burst.errors)
        assert len(world.processes) == 1
