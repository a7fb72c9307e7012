"""Regression test for the comparison-suite cache race fixed via reprolint.

``repro.experiments.comparison_suite`` used an unguarded check-then-set on a
module-level dict (flagged by ``mutable-global``): figure drivers running
from a thread pool could each recompute the 36 M-parameter pruning suite.
The fix holds ``_CACHE_LOCK`` across the whole compute; this test hammers
the first call from many threads and asserts exactly one computation.
"""

import threading

import repro.experiments.comparison_suite as comparison_suite


def test_concurrent_first_calls_compute_once(monkeypatch):
    calls = []
    barrier = threading.Barrier(8)

    def fake_compare(evaluator, suite):
        calls.append(threading.get_ident())
        return ["sentinel-result"]

    monkeypatch.setattr(comparison_suite, "compare_frameworks", fake_compare)
    monkeypatch.setattr(comparison_suite, "paper_evaluator", lambda *a, **k: (object(), ()))
    monkeypatch.setattr(comparison_suite, "paper_suite", lambda **k: ["stub-framework"])
    comparison_suite.clear_cache()
    try:
        results = [None] * 8

        def hammer(i):
            barrier.wait()
            results[i] = comparison_suite.comparison_results("yolov5s", 64, probe_size=8)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(calls) == 1, "suite must be computed exactly once per key"
        assert all(r == ["sentinel-result"] for r in results)
    finally:
        comparison_suite.clear_cache()


def test_refresh_recomputes_under_the_same_lock(monkeypatch):
    calls = []
    monkeypatch.setattr(
        comparison_suite, "compare_frameworks", lambda e, s: calls.append(1) or ["r"]
    )
    monkeypatch.setattr(comparison_suite, "paper_evaluator", lambda *a, **k: (object(), ()))
    monkeypatch.setattr(comparison_suite, "paper_suite", lambda **k: ["stub"])
    comparison_suite.clear_cache()
    try:
        comparison_suite.comparison_results("yolov5s", 64, probe_size=8)
        comparison_suite.comparison_results("yolov5s", 64, probe_size=8)
        assert len(calls) == 1
        comparison_suite.comparison_results("yolov5s", 64, probe_size=8, refresh=True)
        assert len(calls) == 2
    finally:
        comparison_suite.clear_cache()
