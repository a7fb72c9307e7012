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
answers a run (or fails it) / a worker dies after k replies, hangs, stops
beating for a while but still answers, holds its replies for seconds, or has
its stream torn / the next n spawns die at start with a fatal / the clock ticks
and the supervisor takes a step / a rolling swap / shutdown -- and the
properties at the bottom are the ROADMAP's list.  What a property needs to know
about the schedule (which images were admitted, when each worker last beat,
which deaths a step found, which artifact a finished swap left) is ground truth
the driver records itself, never read back from the code under test.

Each worker-side fault stream has its property here: crash (``kill``), hang,
heartbeat loss (``mute``), slow frames (``slow``) and a torn stream (``tear``;
the bytes of a torn frame are ``test_frame_fuzz.py``'s).
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
from hypothesis import example, given, settings
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
    error_code,
)
from repro.serving.metrics import _counts

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
#: Slack for the float round trip of a deadline through ``deadline_ms``.
EPS = 1e-6


def forward(images: np.ndarray, version: int = 0) -> np.ndarray:
    """The model: per image, batch-size independent; an image is its tag, and
    the artifact version that served it is the output's fraction."""
    return images.reshape(len(images), -1)[:, :1] * 2.0 + 1.0 + 0.25 * version


def served_by(tag: int, output: float) -> int:
    """The artifact version (index into ``VERSIONS``) behind an image's output."""
    version = (output - (tag * 2.0 + 1.0)) / 0.25
    assert version in range(len(VERSIONS)), f"image {tag} got a foreign output {output}"
    return int(version)


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
        self.torn = False                      # its stream was torn: the parent read EOF
        self.fatal = world.poison > 0          # dies at start, reporting a fatal
        world.poison -= self.fatal
        self.dies_after = None                 # reply runs left before it crashes
        self.inbox = deque()                   # [first id, images, expiry] per unanswered frame
        self.never_arrived = []                # frames sent after it died (the parent holds them)
        self.spawned_at = world.clock.now
        self.version = VERSIONS.index(handle.artifact_path)
        self.last_beat = world.clock.now       # its start counts as the first beat
        self.mute_until = 0.0                  # sends no heartbeat before this time
        self.hold_until = 0.0                  # sends no reply before this time
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
            budget = meta.get("deadline_ms")
            expiry = None if budget is None else self.world.clock.now + budget / 1e3
            self.inbox.append([meta["id"], images, expiry])
        elif kind == "shutdown" and not self.hung:
            while self.alive and self.inbox:   # drain: answer everything admitted, held or not
                self.reply()
            if self.alive:
                self.handle._handle(Message("bye"))
                self.alive = False

    def close(self):
        pass

    def unanswered(self):
        """Tags of the images the parent sent and this child never answered."""
        frames = self.never_arrived + [frame[1] for frame in self.inbox]
        return [int(tag) for images in frames for tag in images[:, 0, 0, 0]]

    # what the child does
    def answers(self):
        """Alive, not hung, owes a frame and holds no reply back."""
        return (self.alive and not self.hung and bool(self.inbox)
                and self.world.clock.now >= self.hold_until)

    def reply(self, error=False):
        """Answer one run: up to ``MAX_BATCH`` images off the head frame -- or,
        as the child's batcher does, expire it if its deadline has passed."""
        frame = self.inbox[0]
        first_id, images, expiry = frame[0], frame[1][:MAX_BATCH], frame[2]
        frame[0], frame[1] = first_id + len(images), frame[1][MAX_BATCH:]
        if not len(frame[1]):
            self.inbox.popleft()
        meta = {"id": first_id, "count": len(images)}
        tags = [int(tag) for tag in images[:, 0, 0, 0]]
        now = self.world.clock.now
        if expiry is not None and now > expiry:
            expired = DeadlineExceededError("deadline expired in the worker's queue")
            message = Message("error", dict(meta, error=str(expired), type="DeadlineExceededError",
                                            code=error_code(expired)))
        elif error:
            self.world.errored.update(tags)
            message = Message("error", dict(meta, error="boom", type="ValueError"))
        else:
            self.world.executed.update(dict.fromkeys(tags, now))
            meta["tree"], arrays = flatten_arrays(forward(images, self.version))
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
        if self.alive and not self.hung and self.world.clock.now >= self.mute_until:
            self.last_beat = self.world.clock.now
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
    """Run callback: how often each image of a burst settled, when, and with what
    -- and, per run, what the router's ledger counted by then and which
    artifact versions the run's outputs came from."""

    def __init__(self, world, future, tags, deadline, version):
        self.world, self.tags, self.deadline = world, tags, deadline
        #: The artifact the fleet served when the burst was admitted (ground truth).
        self.version = version
        self.counts = [0] * len(tags)
        self.errors = [None] * len(tags)
        self.outputs = [None] * len(tags)
        self.settled_at = [None] * len(tags)
        #: Swaps begun before the burst was admitted / before each image settled.
        self.epoch = world.swaps
        self.settled_epoch = [None] * len(tags)
        future.add_run_callback(self)

    def __call__(self, future, start, stop, outputs, error):
        world = self.world
        world.settled += stop - start
        world.count_log.append((self.tags[start:stop], world.counted(), world.settled))
        for index in range(start, stop):
            self.counts[index] += 1
            self.errors[index] = error
            self.settled_at[index] = world.clock.now
            self.settled_epoch[index] = world.swaps
            if error is None:
                self.outputs[index] = float(outputs[index - start][0])
        if error is None:
            world.run_versions.append({served_by(tag, output) for tag, output in
                                       zip(self.tags[start:stop], self.outputs[start:stop])})


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
        self.executed = {}                # tag -> when a child ran it to a result
        self.settled = 0                  # images settled so far, over every burst
        self.count_log = []               # (tags, ledger count, images settled) per settled run
        self.run_versions = []            # the versions behind each answered run's outputs
        self.step_log = []                # (worker, stale or not, seconds since its beat, survived)
        self.version = 0                  # the artifact the fleet serves between swaps
        self.swaps = 0                    # swaps begun
        self.swap_log = []                # (versions of the live children, expected) per swap
        self.next_tag = 0
        # Ground truth for the ledger: deaths the steps found / of those, slots
        # given up on / images a recovered or retired worker never answered.
        self.found = self.lost = self.redispatched = 0
        self.accounted = set()            # processes whose unanswered images are in the above
        self.died_before = set()          # slots with an earlier death and no swap since
        self.awaited = {}                 # slot -> (dead worker, found at, a repeat quick death)
        self.respawn_waits = []           # (seconds waited, a repeat quick death) per respawn
        self.lost_tags = set()            # images an abandoned slot's last worker never answered
        self.shut_down = False
        self.size = workers               # the fleet never grows or shrinks
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

    def counted(self):
        """Images the router's ledger counts as completed or failed."""
        counts = _counts(self.router.metrics._requests)
        return sum(n for (_, outcome), n in counts.items() if outcome != "submitted")

    def idle(self, timeout):
        """A caller is blocked: children answer; if none can, time passes and the
        supervisor takes a step."""
        busy = [p for p in self.processes if p.answers()]
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
        for process in list(self.processes):       # a muted child still answers
            if process.answers() and self.clock.now < process.mute_until:
                process.reply()
        router, now = self.router, self.clock.now
        watched = router._table.watched()
        # Ground truth, from the children: alive, stream whole, beat within the timeout.
        sound = {worker for _, worker in watched
                 if worker.process.alive and not worker.process.torn
                 and now - worker.process.last_beat < SPEC.heartbeat_timeout}
        found = [(slot, worker) for slot, worker in watched
                 if not worker.healthy(SPEC.heartbeat_timeout)]
        if closing and found:
            def reap_then_close(reap=found[0][1].reap):
                pending = reap()
                self.apply(("shutdown",))
                return pending
            found[0][1].reap = reap_then_close
        router._supervise_once()
        if not self.shut_down:
            for slot, worker in watched:
                self.step_log.append((
                    worker.worker_id, worker in sound, now - worker.process.last_beat,
                    worker.process.alive and router._table.holds(slot, worker)))
        for slot, worker in found:
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
        """After a swap event: account for what retired workers never
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
        version = self.version
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
        self.bursts.append(Settles(self, future, tags, deadline, version))

    def swap(self):
        path = VERSIONS[self.router.artifact_path == VERSIONS[0]]
        self.swaps += 1
        try:
            self.router.swap_artifact(path, timeout_per_worker=5.0)
        except ServiceClosedError:
            pass
        except ArtifactSwapError:
            # Rolled back: every slot serves the old version again.
            self.check_versions()
        else:
            self.version = VERSIONS.index(path)
            self.check_versions()
        self.reshaped()

    def check_versions(self):
        """Log the versions the live children run once a swap returned (a dead
        occupant serves nothing; its respawn loads the router's path)."""
        self.swap_log.append(([worker.process.version for worker in self.router._table.workers
                               if worker.process.alive], self.version))

    def apply(self, event):
        kind, *args = event
        if kind == "submit":
            self.submit(*args)
        elif kind == "reply":
            process = self.occupant(args[0])
            if process.answers():
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
        elif kind == "mute":                               # heartbeats lost; replies still flow
            self.occupant(args[0]).mute_until = self.clock.now + args[1]
        elif kind == "slow":                               # replies held; heartbeats still flow
            self.occupant(args[0]).hold_until = self.clock.now + args[1]
        elif kind == "tear":                               # a torn frame: EOF from a live child
            process = self.occupant(args[0])
            process.torn = True
            process.handle._mark_dead()
        elif kind == "poison":
            self.poison = min(self.poison + args[0], MAX_POISON)
        elif kind == "tick":
            self.tick(*args)
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
            while any(p.answers() for p in self.processes):
                self.idle(None)

    # ------------------------------------------------------------------ invariants
    def check_slots(self):
        """A slot never holds two live workers, and no worker lives outside the
        table: installed into a closed slot, or left behind."""
        workers = self.router._table.workers
        assert len(set(map(id, workers))) == len(workers) == self.size
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

    def settles(self):
        """``(tag, when it settled, error, output, deadline, version at admission,
        whether a swap began between its admission and its settling)``."""
        for burst in self.bursts:
            for index, tag in enumerate(burst.tags):
                yield (tag, burst.settled_at[index], burst.errors[index], burst.outputs[index],
                       burst.deadline, burst.version, burst.settled_epoch[index] != burst.epoch)


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
mutes = st.tuples(st.just("mute"), worker_index, st.sampled_from([0.8, 1.5, float("inf")] * 2))
ticks = st.tuples(st.just("tick"), st.sampled_from([0.05, 0.25, 0.3, 0.7, 1.1, 2.5]),
                  st.sampled_from([False] * 9 + [True]))     # a shutdown lands mid-recovery
events = st.one_of(
    submits, submits, submits, replies, replies, ticks, ticks, ticks,
    st.tuples(st.just("kill"), worker_index, st.integers(0, 3), st.booleans()),     # crash
    st.tuples(st.just("hang"), worker_index),
    mutes, mutes,
    st.tuples(st.just("slow"), worker_index, st.sampled_from([0.4, 1.2, 2.5, 4.0])),
    st.tuples(st.just("tear"), worker_index),
    st.tuples(st.just("poison"), st.integers(1, MAX_POISON)),
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
                served_by(tag, output)
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
# A re-dispatched burst waits for space on a slow worker past its deadline: the
# part that found no room must fail on its own, not the whole record again.
@example(schedule=(2, [("swap",), ("hang", 0), ("slow", 1, 4.0), ("poison", 1),
                       ("submit", 25, "high", 3000.0)], None))
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
        for late in [("tick", 2.5), ("swap",), ("tick", 2.5)]:
            world.apply(late)
        assert len(world.processes) == spawned and router.closed


@PROPERTY
@given(schedules)
def test_every_settled_image_is_already_in_the_ledger(schedule):
    """A run is counted (completed or failed) before its future settles, so a
    caller woken by the future reads it counted -- on the reply path, the
    failure path and the shutdown path alike."""
    with run(schedule) as world:
        for tags, counted, settled in world.count_log:
            assert counted >= settled, f"images {tags} settled before the ledger counted them"


@PROPERTY
@given(schedules)
def test_a_worker_is_killed_in_the_step_that_finds_its_heartbeat_stale(schedule):
    """Heartbeat loss and hangs: a watched worker whose child has not beaten for
    ``heartbeat_timeout`` -- or whose stream tore, or which died -- is gone
    after that step, not left for the next one; one that beat in time keeps
    its slot, however long it holds its replies back (slow frames)."""
    with run(schedule) as world:
        for worker_id, sound, silent_for, survived in world.step_log:
            if sound:
                assert survived, f"{worker_id} was killed {silent_for:.2f}s after its last beat"
            else:
                assert not survived, f"{worker_id} outlived the step that found it " \
                                     f"({silent_for:.2f}s after its last beat)"


@PROPERTY
@given(schedules)
def test_nothing_runs_past_its_deadline_and_no_deadline_error_comes_early(schedule):
    """A child never runs an image past its deadline -- also after the image
    sat in a slow worker's queue, or was re-dispatched from a dead one with
    what is left of its budget -- and a ``DeadlineExceededError`` settles an
    image only once its deadline has passed."""
    with run(schedule) as world:
        for tag, settled_at, error, _, deadline, _, _ in world.settles():
            if deadline is None:
                continue
            if tag in world.executed:
                assert world.executed[tag] <= deadline + EPS, f"image {tag} ran past its deadline"
            if isinstance(error, DeadlineExceededError):
                assert settled_at >= deadline - EPS, f"image {tag} expired early"


@PROPERTY
@given(schedules)
def test_no_reply_run_mixes_artifact_versions_across_a_rolling_swap(schedule):
    """Every answered run comes from one artifact version; once a swap returns
    -- rolled out or rolled back -- every live child runs the version it left;
    and an image whose whole life fell between two swaps is answered by the
    version the fleet served then."""
    with run(schedule) as world:
        assert all(len(versions) == 1 for versions in world.run_versions)
        for live, expected in world.swap_log:
            assert live == [expected] * len(live), f"a swap left {live}, not {expected}"
        for tag, _, error, output, _, version, swapped in world.settles():
            if error is None and not swapped:
                assert served_by(tag, output) == version, f"image {tag} crossed versions"


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


def _second_frame_raises(error):
    """A ``WorkerProcess.dispatch`` that raises ``error`` on its second call
    once ``armed`` is set, and otherwise dispatches."""
    calls, armed, dispatch = [], [False], SimWorker.dispatch

    def stub(self, request, block=False, timeout=None):
        if armed[0]:
            calls.append(request.count)
            if len(calls) == 2:
                raise error
        return dispatch(self, request, block=block, timeout=timeout)
    return stub, calls, armed


def test_an_error_after_part_of_a_burst_went_out_fails_only_the_rest():
    """Any exception -- a plain RuntimeError, not only a ServingError -- raised
    while placing a burst's second frame fails just the images not placed:
    the client gets its future, the placed 24 resolve with their outputs, and
    each image settles and is counted once."""
    stub, calls, armed = _second_frame_raises(RuntimeError("the pipe broke"))
    armed[0] = True
    with mock.patch.object(SimWorker, "dispatch", stub), simulated(2) as world:
        world.submit(32, "normal", None)
        (burst,) = world.bursts
        assert calls == [32, 8]
        assert burst.counts == [0] * 24 + [1] * 8
        assert all(isinstance(error, RuntimeError) for error in burst.errors[24:])
        world.settle()
        assert burst.counts == [1] * 32 and burst.errors[:24] == [None] * 24
        assert burst.outputs[:24] == [tag * 2.0 + 1.0 for tag in range(24)]
        cluster = world.router.metrics.report()["cluster"]
        assert (cluster["completed"], cluster["failed"]) == (24, 8)


def test_a_redispatch_that_fails_after_placing_part_counts_each_image_once():
    """The re-dispatch leg of the same rule.  A dead worker's 24 images go
    back out while its replacement dies at start: 12 fit on the survivor, and
    the frame for the other 12 raises a RuntimeError.  Just those 12 fail; the
    12 placed resolve with their outputs, and the ledger counts 36 images --
    failing the whole record counted the 12 placed twice (48)."""
    stub, calls, armed = _second_frame_raises(RuntimeError("the pipe broke"))
    with mock.patch.object(SimWorker, "dispatch", stub), simulated(2) as world:
        world.submit(24, "normal", None)
        world.submit(12, "normal", None)
        assert [worker.outstanding_count for worker in world.router.workers] == [24, 12]
        armed[0] = True
        world.apply(("poison", 1))
        world.apply(("kill", 0, 0, True))
        world.apply(("tick", 0.05))
        assert calls == [24, 12]
        world.settle()
        first, second = world.bursts
        assert first.counts == [1] * 24 and second.counts == [1] * 12
        assert first.errors[:12] == [None] * 12 and second.errors == [None] * 12
        assert all(isinstance(error, RuntimeError) for error in first.errors[12:])
        cluster = world.router.metrics.report()["cluster"]
        assert (cluster["completed"], cluster["failed"]) == (24, 12)


def test_a_hung_worker_is_killed_in_the_step_that_finds_its_heartbeat_stale():
    """A hang without a wall clock: SIGKILL at once, so the step sits out no
    join and what the worker held is served elsewhere."""
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


def test_a_muted_worker_is_killed_in_the_step_that_finds_it_stale_and_its_answers_stand():
    """Heartbeat loss: worker 0 stops beating but still answers a run per
    step.  It keeps its slot at 0.9 s; at 1.2 s it answers one more run, and
    that step kills it all the same; the 16 it answered settle once, the 8 it
    still owed are served elsewhere."""
    with simulated(2) as world:
        world.submit(24, "normal", None)
        world.submit(12, "normal", None)
        muted = world.router.workers[0]
        world.apply(("mute", 0, float("inf")))
        world.apply(("tick", 0.9))
        first, second = world.bursts
        assert muted.process.alive and world.router.workers[0] is muted
        assert first.counts == [1] * 8 + [0] * 16
        world.apply(("tick", 0.3))
        assert first.counts == [1] * 16 + [0] * 8
        assert not muted.process.alive and world.router.workers[0] is not muted
        world.settle()
        for burst in (first, second):
            assert burst.counts == [1] * len(burst.tags) and not any(burst.errors)
            assert burst.outputs == [tag * 2.0 + 1.0 for tag in burst.tags]
        cluster = world.router.metrics.report()["cluster"]
        assert (cluster["completed"], cluster["failed"]) == (36, 0)
        assert (cluster["restarts"], cluster["redispatched"]) == (1, 8)


def test_a_slow_worker_keeps_its_slot_and_a_burst_it_holds_past_its_deadline_expires():
    """Slow frames: worker 0 holds its replies for 2.5 s -- across nine
    supervisor steps and past the 300 ms budget of one burst it owes -- and
    keeps beating.  It is not killed; that burst fails as
    ``DeadlineExceededError``, once per image and counted as 6 failures, at or
    after its deadline; its burst without a deadline is answered when the hold
    ends."""
    with simulated(2) as world:
        world.submit(6, "normal", 300.0)            # -> worker 0
        world.submit(6, "normal", None)             # -> worker 1
        world.submit(6, "normal", None)             # -> worker 0
        slow = world.router.workers[0]
        world.apply(("slow", 0, 2.5))
        for _ in range(9):
            world.apply(("tick", SPEC.heartbeat_interval))
            world.apply(("reply", 1, False))
        timed, elsewhere, late = world.bursts
        assert slow.process.alive and world.router.workers[0] is slow
        assert (timed.counts, late.counts, elsewhere.counts) == ([0] * 6, [0] * 6, [1] * 6)
        world.settle()
        assert timed.counts == [1] * 6
        assert all(isinstance(error, DeadlineExceededError) for error in timed.errors)
        assert min(timed.settled_at) >= timed.deadline
        assert late.counts == [1] * 6 and late.errors == [None] * 6
        cluster = world.router.metrics.report()["cluster"]
        assert (cluster["completed"], cluster["failed"]) == (12, 6)
        assert (cluster["restarts"], cluster["redispatched"]) == (0, 0)


#: Each worker-side fault stream as the event that faults worker 0, and how
#: many images it still owes when the step 1.2 s later replaces it (None: a
#: slow worker keeps its slot).
STREAMS = {
    "crash": (("kill", 0, 0, False), 16),
    "hang": (("hang", 0), 16),
    "heartbeat loss": (("mute", 0, float("inf")), 8),     # answered a run before that step
    "torn frame": (("tear", 0), 16),
    "slow frame": (("slow", 0, 2.5), None),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_each_fault_stream_loses_nothing(stream):
    """Worker 0 answers a run of 8 of its 24 images, then faults; after one
    step past the heartbeat timeout and quiescence every image of both bursts
    has settled once with its output, and the ledger balances: what the
    worker still owed was re-dispatched once it was replaced, or came late
    from the slot it kept."""
    event, owed = STREAMS[stream]
    with simulated(2) as world:
        world.submit(24, "normal", None)
        world.submit(24, "normal", None)
        world.apply(("reply", 0, False))
        faulted = world.router.workers[0]
        world.apply(event)
        world.apply(("tick", 1.2))
        assert (world.router.workers[0] is faulted) == (owed is None)
        world.settle()
        for burst in world.bursts:
            assert burst.counts == [1] * 24 and burst.errors == [None] * 24
            assert burst.outputs == [tag * 2.0 + 1.0 for tag in burst.tags]
        cluster = world.router.metrics.report()["cluster"]
        assert (cluster["completed"], cluster["failed"]) == (48, 0)
        assert (cluster["restarts"], cluster["redispatched"]) == (
            (0, 0) if owed is None else (1, owed))
