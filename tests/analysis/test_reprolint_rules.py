"""Fixture tests for every reprolint checker.

Each rule is exercised through :func:`tools.reprolint.runner.lint_source`
(the in-process entry point) on small source snippets: a positive that must
fire, a negative that must stay clean, and the pragma paths that suppress or
annotate.  Baseline suppression is a runner/CLI concern and is covered in
``test_reprolint_gate.py``.
"""

from textwrap import dedent

from tools.reprolint.runner import lint_source


def findings_for(src: str, path: str = "fixture.py"):
    return lint_source(dedent(src), path=path)


def rules_hit(src: str, path: str = "fixture.py"):
    return [f.rule for f in findings_for(src, path)]


# --------------------------------------------------------------------------
# lock-discipline: class attributes declared via _guarded_by_
# --------------------------------------------------------------------------


def test_lock_discipline_flags_unlocked_subscript_store():
    src = """
    class Pool:
        _guarded_by_ = {"_entries": "_lock"}

        def put(self, key, value):
            self._entries[key] = value
    """
    found = findings_for(src)
    assert [f.rule for f in found] == ["lock-discipline"]
    assert found[0].symbol == "Pool.put"
    assert "_entries" in found[0].message


def test_lock_discipline_accepts_mutation_under_lock():
    src = """
    class Pool:
        _guarded_by_ = {"_entries": "_lock"}

        def put(self, key, value):
            with self._lock:
                self._entries[key] = value
    """
    assert rules_hit(src) == []


def test_lock_discipline_condition_alias_tuple():
    src = """
    class Batcher:
        _guarded_by_ = {"_queue": ("_lock", "_ready")}

        def push(self, item):
            with self._ready:
                self._queue.append(item)

        def push_unlocked(self, item):
            self._queue.append(item)
    """
    found = findings_for(src)
    assert [f.rule for f in found] == ["lock-discipline"]
    assert found[0].symbol == "Batcher.push_unlocked"


def test_lock_discipline_flags_attribute_assignment_and_mutating_call():
    src = """
    class Pool:
        _guarded_by_ = {"_entries": "_lock"}

        def reset(self):
            self._entries = {}

        def drop(self):
            self._entries.clear()
    """
    assert rules_hit(src) == ["lock-discipline", "lock-discipline"]


def test_lock_discipline_init_is_exempt():
    src = """
    class Pool:
        _guarded_by_ = {"_entries": "_lock"}

        def __init__(self):
            self._entries = {}
    """
    assert rules_hit(src) == []


def test_lock_discipline_holds_marker_covers_caller_locked_helpers():
    src = """
    class Pool:
        _guarded_by_ = {"_entries": "_lock"}

        def _evict(self):  # reprolint: holds=_lock
            self._entries.pop(None)
    """
    assert rules_hit(src) == []


def test_lock_discipline_nested_def_does_not_inherit_the_lock():
    # A closure created under the lock may run after it is released.
    src = """
    class Pool:
        _guarded_by_ = {"_entries": "_lock"}

        def schedule(self):
            with self._lock:
                def later():
                    self._entries[1] = 2
                return later
    """
    found = findings_for(src)
    assert [f.rule for f in found] == ["lock-discipline"]
    assert found[0].symbol == "Pool.schedule.<locals>.later"


def test_lock_discipline_pragma_same_line_and_line_above():
    src = """
    class Pool:
        _guarded_by_ = {"_entries": "_lock"}

        def fast(self):
            self._entries["x"] = 1  # reprolint: disable=lock-discipline

        def fast2(self):
            # single-writer by contract  # reprolint: disable=lock-discipline
            self._entries["y"] = 2
    """
    assert rules_hit(src) == []


def test_lock_discipline_module_guarded_globals_by_path_suffix():
    # config.MODULE_GUARDED pairs _GLOBAL_CACHE_STATS with _STATS_LOCK for
    # files ending in repro/engine/plan.py; the same source under another
    # path is out of scope.
    src = """
    _GLOBAL_CACHE_STATS = {"hits": 0}
    _STATS_LOCK = None

    def bump():
        _GLOBAL_CACHE_STATS["hits"] += 1

    def bump_locked():
        with _STATS_LOCK:
            _GLOBAL_CACHE_STATS["hits"] += 1
    """
    found = findings_for(src, path="src/repro/engine/plan.py")
    assert [f.rule for f in found] == ["lock-discipline"]
    assert found[0].symbol == "bump"
    assert findings_for(src, path="src/other/module.py") == []


# --------------------------------------------------------------------------
# hot-path-alloc
# --------------------------------------------------------------------------


def test_hot_path_alloc_marker_and_allocation_matrix():
    src = """
    import numpy as np

    def kernel(a, b, out):  # reprolint: hot
        np.matmul(a, b, out=out)
        view = np.asarray(a, copy=False)
        ok = a.astype(np.float32, copy=False)
        x = np.zeros(4)
        y = a.copy()
        z = a.astype(np.float32)
        return view, ok, x, y, z
    """
    found = findings_for(src)
    assert [f.rule for f in found] == ["hot-path-alloc"] * 3
    messages = " | ".join(f.message for f in found)
    assert "zeros" in messages
    assert ".copy()" in messages
    assert ".astype" in messages


def test_hot_path_alloc_ignores_cold_functions():
    src = """
    import numpy as np

    def setup(n):
        return np.zeros(n)
    """
    assert rules_hit(src) == []


def test_hot_path_alloc_config_registered_names():
    # "_activation_kernel" and "_BoundOp.execute" are registered in
    # config.HOT_FUNCTIONS -- no marker needed.
    src = """
    import numpy as np

    def _activation_kernel(x):
        return np.exp(x)

    class _BoundOp:
        def execute(self, values, arena):
            values[0] = np.zeros(3)
    """
    found = findings_for(src)
    assert [f.symbol for f in found] == ["_activation_kernel", "_BoundOp.execute"]
    assert {f.rule for f in found} == {"hot-path-alloc"}


def test_hot_path_alloc_pragma_suppression():
    src = """
    import numpy as np

    def kernel(a):  # reprolint: hot
        # one-time normalization, amortized  # reprolint: disable=hot-path-alloc
        b = np.ascontiguousarray(a)
        return b
    """
    assert rules_hit(src) == []


# --------------------------------------------------------------------------
# mutable-global
# --------------------------------------------------------------------------


def test_mutable_global_flags_empty_containers_and_comprehensions():
    src = """
    CACHE = {}
    SLOTS = [n for n in range(4)]
    """
    assert rules_hit(src) == ["mutable-global", "mutable-global"]


def test_mutable_global_constant_tables_and_dunders_exempt():
    src = """
    TABLE = {"yolov5s": 640, "retinanet": 800}
    NAMES = ("a", "b")
    __all__ = []
    """
    assert rules_hit(src) == []


def test_mutable_global_module_lock_exempts_but_needs_fork_reset():
    # A module-level lock signals the caches are guarded (mutable-global is
    # satisfied) -- and then fork-lock-reset demands the at-fork re-arm.
    src = """
    import threading

    _LOCK = threading.Lock()
    CACHE = {}
    """
    assert rules_hit(src) == ["fork-lock-reset"]


def test_mutable_global_pragma_on_line_above():
    src = """
    # populated once at import, read-only after  # reprolint: disable=mutable-global
    REGISTRY = {}
    """
    assert rules_hit(src) == []


def test_disable_all_pragma():
    src = """
    CACHE = {}  # reprolint: disable=all
    """
    assert rules_hit(src) == []


# --------------------------------------------------------------------------
# fork-lock-reset
# --------------------------------------------------------------------------


def test_fork_lock_reset_flags_unregistered_module_locks():
    src = """
    import threading

    _LOCK = threading.Lock()
    _COND = threading.Condition()
    """
    found = findings_for(src)
    assert [f.rule for f in found] == ["fork-lock-reset", "fork-lock-reset"]
    assert "_LOCK" in found[0].message


def test_fork_lock_reset_satisfied_by_register_at_fork():
    src = """
    import os
    import threading

    _LOCK = threading.Lock()
    CACHE = {}


    def _reinit_after_fork():
        global _LOCK
        _LOCK = threading.Lock()


    if hasattr(os, "register_at_fork"):
        os.register_at_fork(after_in_child=_reinit_after_fork)
    """
    assert rules_hit(src) == []


def test_fork_lock_reset_ignores_instance_locks():
    src = """
    import threading

    class Worker:
        def __init__(self):
            self._lock = threading.Lock()
    """
    assert rules_hit(src) == []
