"""The slot table, rule by rule -- no router, no lock, no process, no clock.

``repro.serving.cluster.fleet`` is where every supervision decision lives; the
router only performs what it returns.  These are the table tests (the cases
the ``Router.__new__`` harness in the old ``test_router_recovery.py`` reached
through stub workers and an instrumented lock), a property that no sequence
of deaths, respawns, swap steps and shutdown changes the table's size, and
the guard that keeps the module pure.  ``test_fleet_simulation.py`` drives the
table *and* the router shell over generated schedules.
"""

from __future__ import annotations

import ast
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.spec import ClusterSpec
from repro.serving.cluster import fleet
from repro.serving.cluster.fleet import ABANDON, CLOSED, GONE, RESPAWN, SlotTable


def worker(name="w", path="v1", accepting=True):
    return types.SimpleNamespace(name=name, artifact_path=path, accepting=accepting)


def table_of(count=1, **spec):
    spec.setdefault("min_worker_uptime", 1.0)
    table = SlotTable(ClusterSpec(**spec))
    workers = [worker(f"w{slot}") for slot in range(count)]
    for slot, occupant in enumerate(workers):
        assert table.install(slot, occupant)
    return table, workers


def die(table, slot, occupant, uptime=0.0, fatal=None, now=100.0, jitter=0.0):
    return table.died(slot, occupant, uptime, fatal, now, jitter)


class TestDeathVerdicts:
    def test_first_death_is_due_a_respawn_at_once(self):
        table, (first,) = table_of(1)
        assert die(table, 0, first, fatal="artifact failed to load") == RESPAWN
        assert table.slots[0].failures == 1
        assert table.last_fatal_error == "artifact failed to load"
        assert table.due(now=100.0) == [(0, first)]        # same instant: same supervisor step
        assert table.watched() == []                       # never recovered twice meanwhile
        assert table.degraded

        replacement = worker("respawn")
        assert table.install(0, replacement, expect=first)
        assert table.workers == (replacement,) and not table.degraded
        assert table.slots[0].failures == 1                # a respawn is no proof of health

    def test_quick_deaths_count_and_back_off_exponentially(self):
        table, (occupant,) = table_of(1, restart_backoff_s=0.2, restart_backoff_max_s=1.0,
                                      max_restart_attempts=9)
        delays = []
        for _ in range(6):
            assert die(table, 0, occupant, uptime=0.1, jitter=0.0) == RESPAWN
            delays.append(round(table.slots[0].respawn_at - 100.0, 6))
            table.slots[0].respawn_at = None               # as the respawn's install does
        # Immediate, then restart_backoff_s * 2^(failures-2) * (0.5 + jitter), capped:
        # with the smallest jitter, never sooner than half the nominal backoff ...
        assert delays == [0.0, 0.1, 0.2, 0.4, 0.8, 1.0]
        table.slots[0].failures = 1
        assert die(table, 0, occupant, uptime=0.1, jitter=0.999) == RESPAWN
        assert 0.2 * 1.49 < table.slots[0].respawn_at - 100.0 < 0.2 * 1.5     # ... or later

    def test_a_waiting_slot_is_due_only_when_its_time_comes(self):
        table, (occupant, other) = table_of(2, restart_backoff_s=0.4)
        die(table, 0, occupant)
        table.slots[0].respawn_at = None
        assert die(table, 0, occupant, now=100.0, jitter=0.5) == RESPAWN    # 0.4 s from now
        assert table.due(100.39) == [] and table.due(100.4) == [(0, occupant)]
        assert table.watched() == [(1, other)]
        # The supervisor sleeps a heartbeat interval, or less when a respawn is nearer.
        assert table.wake_in(100.0) == ClusterSpec().heartbeat_interval
        assert table.wake_in(100.3) == pytest.approx(0.1)
        assert table.wake_in(101.0) == 0.0

    def test_long_uptime_resets_the_count(self):
        table, (occupant,) = table_of(1)
        table.slots[0].failures = 4          # ancient history: the worker then ran fine
        assert die(table, 0, occupant, uptime=120.0) == RESPAWN
        assert table.slots[0].failures == 1 and table.slots[0].respawn_at == 100.0

    def test_abandon_after_max_restart_attempts(self):
        table, (occupant, other) = table_of(2, max_restart_attempts=2)
        table.slots[0].failures = 2          # two prior quick deaths
        assert die(table, 0, occupant, fatal="boom") == ABANDON
        slot = table.slots[0]
        assert slot.abandoned and slot.failures == 3 and slot.respawn_at is None
        assert table.due(1e9) == [] and table.watched() == [(1, other)]    # no respawn, ever
        assert table.degraded and not table.failed_permanently
        assert die(table, 1, other) == RESPAWN
        table.slots[1].failures = 2
        table.slots[1].respawn_at = None
        assert die(table, 1, other) == ABANDON
        assert table.failed_permanently and table.last_fatal_error == "boom"

    def test_a_death_found_during_shutdown_is_not_respawned(self):
        table, (occupant,) = table_of(1)
        assert table.close() == (occupant,) and table.close() == ()
        assert die(table, 0, occupant, uptime=120.0, fatal="late") == CLOSED
        assert table.last_fatal_error == "late"
        assert table.slots[0].respawn_at is None and table.due(1e9) == []
        # ... and a replacement already on its way is refused: the caller stops it.
        assert not table.install(0, worker("replacement"), expect=occupant)

    def test_a_stale_handle_is_not_recovered(self):
        table, (occupant, _) = table_of(2)
        swapped_in = worker("swapped-in")
        assert table.install(0, swapped_in, expect=occupant, ready=True)
        assert die(table, 0, occupant) == GONE             # replaced meanwhile
        assert table.slots[0].failures == 0 and not table.degraded


class TestViews:
    def test_not_on_names_the_slots_a_rollback_must_restore(self):
        table, (_, second, _) = table_of(3)
        assert table.not_on("v1") == []
        second.artifact_path = "v2"                        # a swap got this far
        assert table.not_on("v1") == [1]
        assert table.not_on("v2") == [0, 2]

    def test_a_closed_table_watches_nothing_and_takes_no_new_slot(self):
        table, (first, second) = table_of(2)
        assert table.watched() == [(0, first), (1, second)]
        table.close()
        assert table.watched() == [] and table.due(1e9) == []
        assert not table.install(2, worker("late"))
        assert table.workers == (first, second)


class TestInstall:
    def test_only_the_expected_occupant_is_replaced(self):
        table, (first, second) = table_of(2)
        assert not table.install(0, worker("x"), expect=second)     # not what the caller saw
        assert not table.install(0, worker("x"))                    # slot exists: expect one
        assert not table.install(3, worker("x"))                    # past the end
        assert not table.install(2, worker("x"), expect=second)     # new slots expect nobody
        assert table.workers == (first, second)
        third = worker("w2")
        assert table.install(2, third)
        assert table.workers == (first, second, third)

    def test_only_a_ready_worker_clears_the_quick_death_count(self):
        table, (occupant,) = table_of(1)
        die(table, 0, occupant)
        respawn = worker("respawn")
        assert table.install(0, respawn, expect=occupant)
        assert table.slots[0].failures == 1
        die(table, 0, respawn)
        assert table.slots[0].failures == 2
        proven = worker("proven")
        assert table.install(0, proven, expect=respawn, ready=True)
        assert table.slots[0].failures == 0 and table.slots[0].respawn_at is None

    def test_incarnations_count_per_slot(self):
        table = SlotTable(ClusterSpec())
        assert [table.claim(0), table.claim(1), table.claim(0)] == [1, 1, 2]
        table.install(0, worker()), table.install(1, worker())
        assert table.claim(1) == 2           # a respawn is a new chaos scope


class TestRollStep:
    def test_the_replacement_goes_in_and_the_old_worker_is_retired(self):
        table, (old,) = table_of(1)
        table.slots[0].failures, table.slots[0].abandoned = 3, True
        new = worker("new", path="v2")
        assert table.roll(0, new, "v2") is old
        slot = table.slots[0]
        assert slot.worker is new and slot.failures == 0 and not slot.abandoned

    def test_a_slot_the_supervisor_already_upgraded_keeps_its_worker(self):
        table, (old,) = table_of(1)
        die(table, 0, old)
        respawned = worker("respawned", path="v2")         # crash during the swap
        table.install(0, respawned, expect=old)
        spare = worker("spare", path="v2")
        assert table.roll(0, spare, "v2") is spare
        assert table.workers == (respawned,)
        respawned.accepting = False                        # ... unless it is dead again
        assert table.roll(0, spare, "v2") is respawned and table.workers == (spare,)

    def test_a_closed_fleet_discards_the_replacement(self):
        table, (old,) = table_of(1)
        table.close()
        spare = worker("spare", path="v2")
        assert table.roll(0, spare, "v2") is spare and table.workers == (old,)


# What the router does to its table after the fleet is filled: a death (found
# with some uptime), the respawn the verdict asks for, one rolling-swap step,
# or shutdown.  Nothing in it adds or removes a slot.
table_steps = st.lists(st.one_of(
    st.tuples(st.just("die"), st.integers(0, 3), st.sampled_from([0.0, 5.0])),
    st.tuples(st.just("respawn"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("roll"), st.integers(0, 3), st.sampled_from(["v1", "v2"])),
    st.tuples(st.just("close"),),
), max_size=40)


@settings(max_examples=150, deadline=None)
@given(size=st.integers(1, 4), steps=table_steps)
def test_the_table_keeps_the_size_it_was_filled_to(size, steps):
    """Deaths, respawns, abandonment, swaps and shutdown replace occupants;
    the slot count and the occupant tuple stay the size the router built."""
    table, _ = table_of(size, max_restart_attempts=2)
    spawned = 0
    for kind, *args in steps:
        slot = args[0] % size if args else 0
        occupant = table.slots[slot].worker
        if kind == "die":
            die(table, slot, occupant, uptime=args[1])
        elif kind == "respawn" and table.slots[slot].respawn_at is not None:
            spawned += 1
            table.install(slot, worker(f"r{spawned}"), expect=occupant, ready=args[1])
        elif kind == "roll":
            spawned += 1
            table.roll(slot, worker(f"r{spawned}", path=args[1]), args[1])
        elif kind == "close":
            table.close()
        assert len(table.slots) == len(table.workers) == size
        assert table.workers == tuple(record.worker for record in table.slots)
        assert len(set(map(id, table.workers))) == size


def test_the_core_stays_pure():
    """No clock, lock, thread, process or RNG of its own, and nothing of
    ``repro.serving`` (the spec comes from ``repro.pipeline``)."""
    banned = {"threading", "time", "os", "multiprocessing", "random", "signal", "subprocess"}
    with open(fleet.__file__) as source:
        tree = ast.parse(source.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] not in banned, f"fleet.py imports {module}"
            assert not module.startswith("repro.serving"), f"fleet.py imports {module}"
