"""Shared framework-comparison results for Figs. 4-7.

Figures 4 (sparsity), 5 (mAP), 6 (speedup) and 7 (energy) all visualise the same
underlying experiment: every pruning framework applied to YOLOv5s and RetinaNet.
This module runs that experiment once per (model, resolution) and caches the result
so the four figure drivers and their benchmarks do not recompute 36 M-parameter
pruning runs four times.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Tuple

from repro.evaluation.comparison import compare_frameworks
from repro.evaluation.evaluator import FrameworkResult
from repro.experiments.table3 import paper_evaluator
from repro.pruning.registry import paper_suite

_CACHE: Dict[Tuple[str, int], List[FrameworkResult]] = {}
# Serializes the compute-and-fill path: figure drivers run from a thread pool,
# and an unguarded check-then-set both tears the dict and recomputes the
# 36 M-parameter suite once per racing thread.  Holding the lock across the
# computation is deliberate — duplicate suite runs cost minutes, lock waits
# cost nothing by comparison.
_CACHE_LOCK = threading.Lock()


def _reinit_after_fork() -> None:
    """Fork-safety (engine/plan.py pattern): fresh lock, parent's results kept
    (they are immutable once computed and valid in the child)."""
    global _CACHE_LOCK
    _CACHE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows ("spawn" children re-import)
    os.register_at_fork(after_in_child=_reinit_after_fork)


def comparison_results(model_key: str = "yolov5s", image_size: int = 640,
                       probe_size: int = 64, refresh: bool = False) -> List[FrameworkResult]:
    """Framework-comparison results for one model (cached per process).

    Thread-safe: concurrent first calls for the same key serialize on the
    cache lock and the suite is computed exactly once.
    """
    key = (model_key, image_size)
    with _CACHE_LOCK:
        if not refresh and key in _CACHE:
            return _CACHE[key]

        evaluator, dense_layers = paper_evaluator(model_key, image_size, probe_size)
        results = compare_frameworks(evaluator, paper_suite(dense_layer_names=dense_layers))
        _CACHE[key] = results
        return results


def clear_cache() -> None:
    """Drop all cached comparison results (used by tests)."""
    with _CACHE_LOCK:
        _CACHE.clear()
